import random
from itertools import product as iproduct

import pytest

from gluekit import fintop as ft
from gluekit import generators as gen
from gluekit.errors import ValidationError


# --- spaces, maps and serializers the tests read; the pipeline never runs them

def sierpinski():
    """Two points; {0} open, {1} closed."""
    return ft.FinSpace(2, (frozenset({0}), frozenset({0, 1})))


def indiscrete_space(n):
    return ft.FinSpace(n, (frozenset(range(n)),) * n)


def subspace_with_inclusion(space, pointset):
    sub = ft.subspace(space, pointset)
    return sub, ft.ContinuousMap(sub, space, tuple(sorted(set(pointset))))


def map_to_json(f):
    return {"dom": ft.space_to_json(f.dom), "cod": ft.space_to_json(f.cod), "assign": list(f.assign)}


def map_from_json(doc):
    return ft.make_map(ft.space_from_json(doc["dom"]), ft.space_from_json(doc["cod"]), doc["assign"])


S = sierpinski()


def all_maps(dom: ft.FinSpace, cod: ft.FinSpace):
    for assign in iproduct(range(cod.n), repeat=dom.n):
        yield ft.ContinuousMap(dom, cod, assign)


def continuous_maps(dom, cod):
    return [f for f in all_maps(dom, cod) if ft.is_continuous(f)]


def test_make_space_validation():
    assert ft.make_space(2, [[], [0], [0, 1]]).n == 2
    with pytest.raises(ValidationError, match="full set missing"):
        ft.make_space(2, [[], [0]])
    with pytest.raises(ValidationError, match="union"):
        ft.make_space(3, [[], [0], [1], [0, 1, 2]])
    with pytest.raises(ValidationError, match="empty set"):
        ft.make_space(1, [[0]])


def test_make_space_names_a_missing_intersection():
    # {0, 1} & {1, 2} is missing while every union is present
    with pytest.raises(ValidationError, match=r"intersection \[1\]"):
        ft.make_space(3, [[], [0, 1], [1, 2], [0, 1, 2]])


def test_continuity_and_openness():
    ident = ft.identity_map(S)
    assert ft.is_continuous(ident) and ft.is_open_map(ident)
    disc = ft.discrete_space(3)
    for f in all_maps(disc, S):
        assert ft.is_continuous(f)
    swap = ft.ContinuousMap(S, S, (1, 0))
    assert not ft.is_continuous(swap)
    with pytest.raises(ValidationError):
        ft.make_map(S, S, [1, 0])


def test_coproduct_sierpinski_pair():
    space, injections = ft.coproduct([S, S])
    assert space.n == 4
    # oracle: a subset is open iff its trace in each summand is open
    oracle = 0
    for mask in range(1 << 4):
        w = {p for p in range(4) if mask >> p & 1}
        left = frozenset(p for p in w if p < 2)
        right = frozenset(p - 2 for p in w if p >= 2)
        if left in S.opens and right in S.opens:
            oracle += 1
            assert frozenset(w) in space.opens
    assert len(space.opens) == oracle == 9
    for inj in injections:
        assert ft.is_injective(inj) and ft.is_continuous(inj) and ft.is_open_map(inj)


def test_coproduct_degenerate():
    x, _ = ft.coproduct([S, ft.empty_space()])
    assert x.n == S.n and len(x.opens) == len(S.opens)
    two, _ = ft.coproduct([ft.point_space(), ft.point_space()])
    assert two.opens == ft.discrete_space(2).opens
    empty, injs = ft.coproduct([])
    assert empty.n == 0 and injs == []


def test_quotient_two_origins():
    space, _ = ft.coproduct([S, S])
    q, proj = ft.quotient_final(space, [(0, 2)])
    assert q.n == 3
    # oracle: enumerate subsets, keep those with open preimage
    oracle = {
        frozenset(w)
        for mask in range(1 << 3)
        for w in [{p for p in range(3) if mask >> p & 1}]
        if proj.preimage_of(w) in space.opens
    }
    assert q.opens == frozenset(oracle)
    assert len(q.opens) == 5


def test_quotient_degenerate():
    q1, p1 = ft.quotient_final(S, [])
    assert ft.is_homeomorphism(p1)
    q2, _ = ft.quotient_final(S, [(0, 1)])
    assert q2.n == 1
    # exhaustive final-topology law on small spaces
    rng = random.Random(0)
    for _ in range(15):
        n = rng.randint(1, 5)
        space = ft.close_family(n, [{p for p in range(n) if rng.random() < 0.5} for _ in range(3)])
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        q, proj = ft.quotient_final(space, pairs)
        for mask in range(1 << q.n):
            w = frozenset(p for p in range(q.n) if mask >> p & 1)
            assert (w in q.opens) == (proj.preimage_of(w) in space.opens)


def test_fiber_product_open_inclusions_is_intersection():
    x = ft.make_space(3, [[], [0], [1], [0, 1], [0, 2], [0, 1, 2]])
    u, iu = subspace_with_inclusion(x, [0, 1])
    v, iv = subspace_with_inclusion(x, [0, 2])
    fp, p1, p2 = ft.fiber_product(iu, iv)
    inter, _ = subspace_with_inclusion(x, [0])
    assert fp.n == inter.n == 1
    assert len(fp.opens) == len(inter.opens)


def test_fiber_product_diagonal_and_product():
    fp, p1, p2 = ft.fiber_product(ft.identity_map(S), ft.identity_map(S))
    assert fp.n == 2
    comp = ft.make_map(fp, S, p1.assign)
    assert ft.is_homeomorphism(comp)
    pt = ft.point_space()
    to_pt = ft.make_map(S, pt, [0, 0])
    prod, q1, q2 = ft.fiber_product(to_pt, to_pt)
    assert prod.n == 4
    # oracle: the initial topology here is the product topology
    pairs = list(zip(q1.assign, q2.assign))
    boxes = set()
    for a in S.opens:
        for b in S.opens:
            boxes.add(frozenset(k for k, (x, y) in enumerate(pairs) if x in a and y in b))
    expected = ft.close_family(4, boxes).opens
    assert prod.opens == expected


def test_fiber_product_universal_property():
    pt = ft.point_space()
    to_pt = ft.make_map(S, pt, [0, 0])
    fp, p1, p2 = ft.fiber_product(to_pt, to_pt)
    tested = 0
    for t in (ft.point_space(), ft.discrete_space(2), S, indiscrete_space(2)):
        for u in continuous_maps(t, S):
            for v in continuous_maps(t, S):
                if ft.compose(to_pt, u).assign != ft.compose(to_pt, v).assign:
                    continue
                candidates = [
                    m
                    for m in all_maps(t, fp)
                    if ft.compose(p1, m).assign == u.assign
                    and ft.compose(p2, m).assign == v.assign
                ]
                assert len(candidates) == 1
                assert ft.is_continuous(candidates[0])
                tested += 1
                if tested >= 200:
                    return
    assert tested > 0


def oracle_is_pullback(p1, p2, f, g):
    """Brute-force universal property over a pool of probe spaces."""
    if not ft.square_commutes(p1, p2, f, g):
        return False
    apex = p1.dom
    pool = [ft.point_space(), ft.discrete_space(2), indiscrete_space(2), S]
    if apex.n <= 3:
        pool.append(apex)
    for t in pool:
        for u in continuous_maps(t, f.dom):
            for v in continuous_maps(t, g.dom):
                if ft.compose(f, u).assign != ft.compose(g, v).assign:
                    continue
                mediating = [
                    m
                    for m in all_maps(t, apex)
                    if ft.is_continuous(m)
                    and ft.compose(p1, m).assign == u.assign
                    and ft.compose(p2, m).assign == v.assign
                ]
                if len(mediating) != 1:
                    return False
    return True


def test_is_pullback_square_examples():
    x = ft.make_space(3, [[], [0], [1], [0, 1], [0, 2], [0, 1, 2]])
    u, iu = subspace_with_inclusion(x, [0, 1])
    v, iv = subspace_with_inclusion(x, [0, 2])
    inter, ii = subspace_with_inclusion(x, [0])
    to_u = ft.make_map(inter, u, [0])
    to_v = ft.make_map(inter, v, [0])
    assert ft.is_pullback_square(to_u, to_v, iu, iv)
    # apex a proper subspace: comparison not surjective
    fp, p1, p2 = ft.fiber_product(ft.identity_map(S), ft.identity_map(S))
    sub, si = subspace_with_inclusion(fp, [0])
    assert not ft.is_pullback_square(
        ft.compose(p1, si), ft.compose(p2, si), ft.identity_map(S), ft.identity_map(S)
    )
    # apex with the indiscrete topology: bijective comparison, not a homeo
    pt = ft.point_space()
    to_pt = ft.make_map(S, pt, [0, 0])
    prod, q1, q2 = ft.fiber_product(to_pt, to_pt)
    blurred = indiscrete_space(prod.n)
    b1 = ft.ContinuousMap(blurred, S, q1.assign)
    b2 = ft.ContinuousMap(blurred, S, q2.assign)
    if ft.is_continuous(b1) and ft.is_continuous(b2):
        assert not ft.is_pullback_square(b1, b2, to_pt, to_pt)
    # non-commuting square is a distinct error
    with pytest.raises(ValidationError, match="commute"):
        ft.is_pullback_square(
            ft.make_map(pt, S, [0]), ft.make_map(pt, S, [1]),
            ft.identity_map(S), ft.identity_map(S),
        )


def test_is_pullback_square_agrees_with_oracle():
    rng = random.Random(6)
    checked = 0
    while checked < 12:
        n = rng.randint(1, 3)
        c = ft.close_family(n, [{p for p in range(n) if rng.random() < 0.5} for _ in range(2)])
        a = ft.close_family(rng.randint(1, 2), [{0}])
        b = ft.close_family(rng.randint(1, 2), [{0}])
        fs = continuous_maps(a, c)
        gs = continuous_maps(b, c)
        if not fs or not gs:
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        fp, p1, p2 = ft.fiber_product(f, g)
        if fp.n > 4:
            continue
        assert ft.is_pullback_square(p1, p2, f, g)
        assert oracle_is_pullback(p1, p2, f, g)
        if fp.n >= 1:
            sub, si = subspace_with_inclusion(fp, range(fp.n - 1))
            bad1, bad2 = ft.compose(p1, si), ft.compose(p2, si)
            assert ft.is_pullback_square(bad1, bad2, f, g) == oracle_is_pullback(bad1, bad2, f, g)
        checked += 1


def test_subspace_and_homeomorphism():
    one = ft.subspace(S, [0])
    assert one.n == 1 and len(one.opens) == 2
    closed = ft.subspace(S, [1])
    assert closed.n == 1
    assert ft.is_homeomorphism(ft.identity_map(S))
    with pytest.raises(ValidationError):
        ft.subspace(S, [5])


def test_json_roundtrip():
    doc = ft.space_to_json(S)
    assert ft.space_from_json(doc) == S
    f = ft.make_map(S, S, [0, 1])
    doc = map_to_json(f)
    assert map_from_json(doc).assign == f.assign


def test_specialization_dot():
    dot = ft.specialization_dot(S)
    # the closed point specializes to the open point
    assert "p1 -> p0" in dot
    assert "p0 -> p1" not in dot


def test_minimal_open_and_components():
    assert ft.minimal_open(S, 0) == frozenset({0})
    assert ft.minimal_open(S, 1) == frozenset({0, 1})
    disc = ft.discrete_space(3)
    comps = ft.components_of_open(disc, frozenset({0, 2}))
    assert comps == [frozenset({0}), frozenset({2})]
    assert ft.components_of_open(S, frozenset({0, 1})) == [frozenset({0, 1})]


# Reference implementations on explicit open lattices.  A lattice is a pair
# (n, opens); these are the algorithms gluekit used before it stored one
# minimal open per point, kept as oracles for the preorder constructions.

INSTANCES = 1000


def subsets(n):
    for mask in range(1 << n):
        yield frozenset(p for p in range(n) if mask >> p & 1)


def ref_make_space(n, family):
    """The opens when the family is a topology on n points (pairwise
    closure under union and intersection), else None."""
    fam = {frozenset(o) for o in family}
    full = frozenset(range(n))
    if not all(o <= full for o in fam) or frozenset() not in fam or full not in fam:
        return None
    if any(a | b not in fam or a & b not in fam for a in fam for b in fam):
        return None
    return frozenset(fam)


def ref_close_family(n, seeds):
    """Fixpoint of pairwise unions and intersections."""
    fam = {frozenset(o) for o in seeds} | {frozenset(), frozenset(range(n))}
    changed = True
    while changed:
        changed = False
        current = list(fam)
        for a in current:
            for b in current:
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return frozenset(fam)


def ref_coproduct(lattices):
    """One open of each summand, shifted and united."""
    offsets, total = [], 0
    for n, _ in lattices:
        offsets.append(total)
        total += n
    opens = set()
    for choice in iproduct(*(opens for _, opens in lattices)):
        opens.add(frozenset(off + p for off, o in zip(offsets, choice) for p in o))
    return total, frozenset(opens)


def ref_subspace(lattice, pts):
    """The traces ``o & pts``, renumbered in sorted order."""
    pts = sorted(pts)
    local = {p: k for k, p in enumerate(pts)}
    return len(pts), frozenset(frozenset(local[p] for p in o if p in local) for o in lattice[1])


def ref_fiber_product(a, fa, b, gb):
    """Matching pairs, topologized by closing the projection preimages."""
    pts = [(x, y) for x in range(a[0]) for y in range(b[0]) if fa[x] == gb[y]]
    seeds = [frozenset(k for k, (x, _) in enumerate(pts) if x in o) for o in a[1]]
    seeds += [frozenset(k for k, (_, y) in enumerate(pts) if y in o) for o in b[1]]
    return len(pts), ref_close_family(len(pts), seeds)


def ref_quotient_final(lattice, classes):
    """Every class set whose preimage is open."""
    opens = set()
    for w in subsets(len(classes)):
        if frozenset().union(*(classes[k] for k in w)) in lattice[1]:
            opens.add(w)
    return len(classes), frozenset(opens)


def ref_is_continuous(dom, cod, assign):
    return all(frozenset(x for x in range(dom[0]) if assign[x] in o) in dom[1] for o in cod[1])


def ref_is_open_map(dom, cod, assign):
    return all(frozenset(assign[x] for x in o) in cod[1] for o in dom[1])


def random_subset(rng, n):
    return {p for p in range(n) if rng.random() < 0.5}


def random_lattice(rng, max_points=4, min_points=1):
    n = rng.randint(min_points, max_points)
    return n, ref_close_family(n, [random_subset(rng, n) for _ in range(rng.randint(0, n + 1))])


def space_of(lattice):
    return ft.make_space(*lattice)


def lattice_of(space):
    return space.n, space.opens


def test_make_space_matches_pairwise_reference():
    rng = random.Random(101)
    verdicts = {True: 0, False: 0}
    for _ in range(INSTANCES):
        n, opens = random_lattice(rng)
        family = set(opens)
        style = rng.randrange(4)
        if style == 1 and len(family) > 2:
            family.discard(rng.choice(sorted(family - {frozenset(), frozenset(range(n))}, key=sorted)))
        elif style == 2:
            family.add(frozenset(random_subset(rng, n)))
        elif style == 3:
            family = {frozenset(random_subset(rng, n)) for _ in range(rng.randint(1, 6))}
        expected = ref_make_space(n, family)
        try:
            got = ft.make_space(n, family).opens
        except ValidationError:
            got = None
        assert got == expected, (n, sorted(map(sorted, family)))
        verdicts[expected is not None] += 1
    assert min(verdicts.values()) >= 200, verdicts


def test_close_family_matches_fixpoint_reference():
    rng = random.Random(102)
    for _ in range(INSTANCES):
        n = rng.randint(0, 5)
        seeds = [random_subset(rng, n) for _ in range(rng.randint(0, n + 2))]
        space = ft.close_family(n, seeds)
        assert (space.n, space.opens) == (n, ref_close_family(n, seeds))


def test_opens_are_the_down_sets_of_the_preorder():
    rng = random.Random(103)
    for _ in range(INSTANCES):
        n = rng.randint(0, 6)
        below = [{x} | {y for y in range(n) if rng.random() < 0.3} for x in range(n)]
        changed = True
        while changed:  # transitive closure of the random relation
            changed = False
            for x in range(n):
                for y in list(below[x]):
                    if not below[y] <= below[x]:
                        below[x] |= below[y]
                        changed = True
        space = ft.FinSpace(n, tuple(frozenset(b) for b in below))
        down_sets = {w for w in subsets(n) if all(below[x] <= w for x in w)}
        assert space.opens == down_sets


def test_coproduct_matches_lattice_product_reference():
    rng = random.Random(104)
    for _ in range(INSTANCES):
        lattices = [random_lattice(rng, 3, 0) for _ in range(rng.randint(0, 3))]
        space, injections = ft.coproduct([space_of(l) for l in lattices])
        assert lattice_of(space) == ref_coproduct(lattices)
        assert [inj.dom.n for inj in injections] == [n for n, _ in lattices]


def test_subspace_matches_trace_reference():
    rng = random.Random(105)
    for _ in range(INSTANCES):
        lattice = random_lattice(rng, 5)
        pts = random_subset(rng, lattice[0])
        assert lattice_of(ft.subspace(space_of(lattice), pts)) == ref_subspace(lattice, pts)


def test_fiber_product_matches_seed_closure_reference():
    rng = random.Random(106)
    for _ in range(INSTANCES):
        a, b, c = (random_lattice(rng, 3) for _ in range(3))
        fa = tuple(rng.randrange(c[0]) for _ in range(a[0]))
        gb = tuple(rng.randrange(c[0]) for _ in range(b[0]))
        cs = space_of(c)
        f = ft.ContinuousMap(space_of(a), cs, fa)
        g = ft.ContinuousMap(space_of(b), cs, gb)
        fp, p1, p2 = ft.fiber_product(f, g)
        assert lattice_of(fp) == ref_fiber_product(a, fa, b, gb)
        assert list(zip(p1.assign, p2.assign)) == [
            (x, y) for x in range(a[0]) for y in range(b[0]) if fa[x] == gb[y]
        ]


def test_quotient_final_matches_subset_sweep_reference():
    rng = random.Random(107)
    for _ in range(INSTANCES):
        lattice = random_lattice(rng, 5)
        n = lattice[0]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        q, proj = ft.quotient_final(space_of(lattice), pairs)
        classes = ft.equivalence_closure(n, pairs)
        assert lattice_of(q) == ref_quotient_final(lattice, classes)
        assert all(p in classes[proj(p)] for p in range(n))


def test_continuity_and_openness_match_preimage_and_image_references():
    rng = random.Random(108)
    seen = set()
    for _ in range(INSTANCES):
        dom, cod = random_lattice(rng, 4), random_lattice(rng, 3)
        assign = tuple(rng.randrange(cod[0]) for _ in range(dom[0]))
        f = ft.ContinuousMap(space_of(dom), space_of(cod), assign)
        verdict = (ref_is_continuous(dom, cod, assign), ref_is_open_map(dom, cod, assign))
        assert (ft.is_continuous(f), ft.is_open_map(f)) == verdict
        seen.add(verdict)
    assert len(seen) == 4


def test_lower_covers_are_the_maximal_proper_open_subsets():
    """Against a brute-force search of the open lattice, on seeded spaces of
    which many are not T0, where a lower cover removes a whole class."""
    rng = random.Random(4040)
    not_t0 = 0
    for _ in range(1000):
        space = gen.random_space(rng, max_points=5)
        not_t0 += len(set(space.minimal)) < space.n
        for u in space.sorted_opens:
            below = [c for c in space.opens if c < u]
            maximal = [c for c in below if not any(c < d for d in below)]
            assert space.lower_covers[u] == tuple(sorted(maximal, key=sorted)), (space, u)
    assert not_t0 >= 100, not_t0


# The map kernels as they were written before they ran on map and
# __getitem__ (and, for the final topology, on int bitmasks), kept as
# oracles for the C-level versions.


def loop_image_of(f, s):
    return frozenset(f.assign[x] for x in s)


def loop_preimage_of(f, s):
    s = frozenset(s)
    return frozenset(x for x in range(f.dom.n) if f.assign[x] in s)


def loop_is_continuous(f):
    cod = f.cod.minimal
    return all(loop_image_of(f, ux) <= cod[f.assign[x]] for x, ux in enumerate(f.dom.minimal))


def loop_is_open_map(f):
    cod = f.cod.minimal
    images = [loop_image_of(f, ux) for ux in f.dom.minimal]
    return all(cod[y] <= image for image in images for y in image)


def loop_compose(f, g):
    if g.cod != f.dom:
        raise ValidationError("compose: endpoint mismatch")
    return ft.ContinuousMap(g.dom, f.cod, tuple(f.assign[g.assign[x]] for x in range(g.dom.n)))


def loop_final_topology(n, maps):
    succ = [set() for _ in range(n)]
    for dom, assign in maps:
        for x, ux in enumerate(dom.minimal):
            succ[assign[x]].update(assign[y] for y in ux)
    minimal = []
    for z in range(n):
        seen = {z}
        stack = [z]
        while stack:
            for w in succ[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        minimal.append(frozenset(seen))
    return ft.FinSpace(n, tuple(minimal))


def random_map(rng, dom, cod):
    """Random assignment (mostly not continuous), a constant map, or a
    quotient projection followed by a random assignment that is continuous
    when the quotient is coarse enough."""
    style = rng.randrange(3)
    if style == 0 or cod.n == 0 or dom.n == 0:
        return ft.ContinuousMap(dom, cod, tuple(rng.randrange(cod.n) for _ in range(dom.n)))
    if style == 1:
        return ft.ContinuousMap(dom, cod, (rng.randrange(cod.n),) * dom.n)
    pairs = [(rng.randrange(dom.n), rng.randrange(dom.n)) for _ in range(rng.randint(0, 2 * dom.n))]
    q, proj = ft.quotient_final(dom, pairs)
    return ft.compose(ft.ContinuousMap(q, cod, tuple(rng.randrange(cod.n) for _ in range(q.n))), proj)


def test_map_kernels_match_their_loop_oracles():
    rng = random.Random(109)
    seen = {"continuous": 0, "not continuous": 0, "open": 0, "not T0": 0, "composed": 0, "mismatch": 0}
    for _ in range(INSTANCES):
        dom, mid, cod = (gen.random_space(rng, max_points=5) for _ in range(3))
        f = random_map(rng, dom, mid)
        g = random_map(rng, mid, cod)
        for h in (f, g):
            s = random_subset(rng, h.dom.n)
            t = random_subset(rng, h.cod.n)
            assert h.image_of(s) == loop_image_of(h, s)
            assert h.preimage_of(t) == loop_preimage_of(h, t)
            assert ft.is_continuous(h) == loop_is_continuous(h)
            assert ft.is_open_map(h) == loop_is_open_map(h)
            seen["continuous" if ft.is_continuous(h) else "not continuous"] += 1
            seen["open"] += ft.is_open_map(h)
        seen["not T0"] += len(set(dom.minimal)) < dom.n
        assert ft.compose(g, f) == loop_compose(g, f)
        seen["composed"] += 1
        # f after g needs g's codomain to be f's domain
        if cod != dom:
            for kernel in (ft.compose, loop_compose):
                with pytest.raises(ValidationError, match="endpoint mismatch"):
                    kernel(f, g)
            seen["mismatch"] += 1
        # the final topology on the codomain's points for one to three maps
        maps = [(h.dom, h.assign) for h in (g, ft.compose(g, f), random_map(rng, dom, cod))[: rng.randint(1, 3)]]
        assert ft.final_topology(cod.n, maps) == loop_final_topology(cod.n, maps)
    assert min(seen.values()) >= 100, seen
