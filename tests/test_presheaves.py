import operator
import random
from collections import Counter
from functools import lru_cache, partial
from itertools import combinations, permutations, product as iproduct

import pytest

from gluekit import abgroups as ab
from gluekit import fintop as ft
from gluekit import generators as gen
from gluekit import presheaves as ps
from gluekit import rings as rg
from gluekit import ringedglue as rgl
from gluekit import sheafglue as sg
from gluekit.errors import ValidationError
from test_abgroups import product, scale_hom
from test_fintop import sierpinski

S = sierpinski()
Z = ab.free_group(1)


def inverse_enriched(m):
    """The inverse of a natural isomorphism: a morphism whose open part is
    the identity and whose every component is invertible."""
    if m.dom.domain != m.cod.domain:
        raise ValidationError("only a morphism with the identity open part can be inverted")
    alpha = {}
    for w, h in m.alpha.items():
        inv = ab.inverse_hom(h)
        if inv is None:
            raise ValidationError(f"component at {sorted(w)} is not invertible")
        alpha[w] = inv
    return ps.EnrichedMorphism(m.cod, m.dom, alpha)


def constant_presheaf(space, domain, group, empty_trivial=True):
    """Same group on every nonempty open, identities everywhere."""
    domain = frozenset(domain)
    sections, restrictions = {}, {}
    for o in ps.opens_below(space, domain):
        sections[o] = group if (o or not empty_trivial) else ab.trivial_group()
    for u in ps.opens_below(space, domain):
        for v in ps.opens_below(space, domain):
            if v <= u:
                du, dv = sections[u], sections[v]
                if du == dv:
                    restrictions[(u, v)] = ab.id_hom(du)
                else:
                    restrictions[(u, v)] = ab.zero_hom(du, dv)
    return ps.make_presheaf(space, domain, sections, restrictions)


def irredundant_covers(space, v, max_size=3):
    """The bounded cover family: the cover of v by all its minimal opens,
    then every irredundant cover of v by at most ``max_size`` nonempty opens."""
    yield tuple(dict.fromkeys(space.minimal[x] for x in sorted(v)))
    candidates = [o for o in space.sorted_opens if o and o <= v]
    for size in range(1, max_size + 1):
        for combo in combinations(candidates, size):
            if frozenset().union(*combo) != v:
                continue
            if size > 1 and any(
                combo[i] <= frozenset().union(*(combo[:i] + combo[i + 1:]))
                for i in range(size)
            ):
                continue
            yield combo


def every_cover(space, v):
    """Every cover of v by nonempty opens; exponential in the opens below v."""
    candidates = [o for o in space.sorted_opens if o and o <= v]
    for size in range(1, len(candidates) + 1):
        for combo in combinations(candidates, size):
            if frozenset().union(*combo) == v:
                yield combo


def sheaf_check_on_covers(f, covers):
    """(verdict, axiom, open) of the first failure over ``covers(space, v)``,
    opens in ``f.opens()`` order, identity before gluing on each cover."""
    empty = frozenset()
    if empty in f.sections and not ab.is_trivial(f.sections[empty]):
        return False, "empty_sections", []
    for v in f.opens():
        if not v:
            continue
        for cover in covers(f.space, v):
            ident, glue = ps.sheaf_condition_on_cover(f, v, cover)
            if not (ident and glue):
                return False, "gluing" if ident else "identity", sorted(v)
    return True, None, None


def all_covers_sheaf_check(f):
    """Oracle: the sheaf axioms over every cover of every open, with no size
    bound.  Exponential; intended for spaces with few opens."""
    return sheaf_check_on_covers(f, every_cover)[0]


def random_space(rng):
    """3 to 5 points, at most 16 opens, closed from a few random seed sets."""
    while True:
        n = rng.randint(3, 5)
        seeds = [{p for p in range(n) if rng.random() < 0.5} for _ in range(rng.randint(2, n + 3))]
        space = ft.close_family(n, seeds)
        if len(space.opens) <= 16:
            return space


def random_support(rng, space, ground):
    """A monotone family V -> f(V) of subsets of range(ground): coordinate e
    lives on the opens that contain one of a few random nonempty opens."""
    opens = space.sorted_opens
    nonempty = [o for o in opens if o]
    seeds = [rng.sample(nonempty, rng.randint(1, min(3, len(nonempty)))) for _ in range(ground)]
    return {o: [e for e in range(ground) if any(g <= o for g in seeds[e])] for o in opens}


def coordinate_presheaf(space, support):
    """F(V) = Z^{f(V)}, restrictions the coordinate projections."""
    opens = space.sorted_opens
    sections = {o: ab.free_group(len(support[o])) for o in opens}
    restrictions = {}
    for u in opens:
        for v in opens:
            if v <= u:
                rows = [tuple(int(e == d) for d in support[u]) for e in support[v]]
                restrictions[(u, v)] = ab.AbHom(sections[u], sections[v], tuple(rows))
    return ps.make_presheaf(space, space.full(), sections, restrictions)


def test_constant_presheaf_on_sierpinski_valid():
    f = constant_presheaf(S, S.full(), Z)
    assert f.opens() == [frozenset(), frozenset({0}), frozenset({0, 1})]


def test_broken_composition_names_chain():
    # chain of three nonempty opens with one swapped restriction
    x = ft.make_space(3, [[], [0], [0, 1], [0, 1, 2]])
    g2 = ab.free_group(2)
    swap = ab.make_hom(g2, g2, [[0, 1], [1, 0]])
    opens = [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})]
    sections = {o: (g2 if o else ab.trivial_group()) for o in opens}
    restrictions = {}
    for u in opens:
        for v in opens:
            if v <= u:
                du, dv = sections[u], sections[v]
                restrictions[(u, v)] = ab.id_hom(du) if du == dv else ab.zero_hom(du, dv)
    restrictions[(frozenset({0, 1, 2}), frozenset({0, 1}))] = swap
    with pytest.raises(ValidationError, match="composite"):
        ps.make_presheaf(x, x.full(), sections, restrictions)


def test_fixture_presheaf_parses_and_validates():
    import json
    import os

    from gluekit import jsonio

    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "two_origins_sheaf.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    payload = jsonio.parse_document(doc)
    for chart in payload["data"].sheaves:
        ps.make_presheaf(chart.space, chart.domain, chart.sections, chart.restrictions)


def test_is_sheaf_constant_on_discrete_fails_gluing():
    disc = ft.discrete_space(2)
    f = constant_presheaf(disc, disc.full(), Z)
    ok, cert = ps.is_sheaf(f)
    assert not ok
    assert cert["axiom"] == "gluing"


def test_is_sheaf_point_and_sierpinski():
    pt = ft.point_space()
    f = constant_presheaf(pt, pt.full(), Z)
    assert ps.is_sheaf(f) == (True, None)
    g = constant_presheaf(S, S.full(), Z)
    assert ps.is_sheaf(g) == (True, None)


def test_is_sheaf_nontrivial_empty_sections_diagnostic():
    f = constant_presheaf(S, S.full(), Z, empty_trivial=False)
    ok, cert = ps.is_sheaf(f)
    assert not ok and cert["axiom"] == "empty_sections"


def test_locally_constant_is_sheaf():
    rng = random.Random(0)
    for _ in range(6):
        space = gen.random_space(rng, 4, max_opens=20)
        f = ps.locally_constant_sheaf(space, space.full(), Z)
        assert ps.is_sheaf(f) == (True, None)


def test_bounded_cover_family_agrees_with_all_covers_oracle():
    rng = random.Random(8)
    spaces = [ft.discrete_space(2), ft.discrete_space(3), S]
    spaces += [gen.random_space(rng, 4, max_opens=14) for _ in range(7)]
    seen_fail = 0
    for space in spaces:
        sheafy = ps.locally_constant_sheaf(space, space.full(), Z)
        assert ps.is_sheaf(sheafy)[0]
        assert all_covers_sheaf_check(sheafy)
        # the fully constant presheaf is valid but fails gluing whenever some
        # open is disconnected; both checkers must return the same verdict
        const = constant_presheaf(space, space.full(), Z)
        verdict_fast = ps.is_sheaf(const)[0]
        verdict_full = all_covers_sheaf_check(const)
        assert verdict_fast == verdict_full
        if not verdict_fast:
            seen_fail += 1
    assert seen_fail >= 2  # at least the discrete spaces fail


def test_sheaf_sum_decomposition_on_disjoint_opens():
    disc = ft.discrete_space(3)
    f = ps.locally_constant_sheaf(disc, disc.full(), Z)
    assert ps.is_sheaf(f)[0]
    u, v = frozenset({0}), frozenset({1, 2})
    prod, projs, _ = product([f.group(u), f.group(v)])
    rows = list(f.res(u | v, u).matrix) + list(f.res(u | v, v).matrix)
    canonical = ab.AbHom(f.group(u | v), prod, tuple(rows))
    assert ab.is_iso(canonical)


def test_restrict_presheaf():
    f = ps.locally_constant_sheaf(S, S.full(), Z)
    same = ps.restrict_presheaf(f, S.full())
    assert same.sections == f.sections
    empty = ps.restrict_presheaf(f, frozenset())
    assert ab.is_trivial(empty.group(frozenset()))
    one = ps.restrict_presheaf(f, frozenset({0}))
    assert set(one.opens()) == {frozenset(), frozenset({0})}
    assert ab.invariants(one.group(frozenset({0}))) == (1, ())
    assert ps.is_sheaf(one) == (True, None)
    with pytest.raises(ValidationError):
        ps.restrict_presheaf(f, frozenset({1}))


def test_enriched_morphism_identity_and_scaling():
    f = ps.locally_constant_sheaf(S, S.full(), Z)
    ident = ps.identity_enriched(f)
    ok, failures = ps.check_enriched_morphism(ident)
    assert ok and failures == []
    doubled = ps.EnrichedMorphism(
        f, f, {o: scale_hom(2, ab.id_hom(f.group(o))) for o in f.opens()}
    )
    assert ps.check_enriched_morphism(doubled)[0]


def test_enriched_morphism_failure_names_square():
    f = ps.locally_constant_sheaf(S, S.full(), Z)
    alpha = {o: ab.id_hom(f.group(o)) for o in f.opens()}
    alpha[frozenset({0, 1})] = ab.zero_hom(f.group({0, 1}), f.group({0, 1}))
    broken = ps.EnrichedMorphism(f, f, alpha)
    ok, failures = ps.check_enriched_morphism(broken)
    assert not ok
    assert any("square" in fail for fail in failures)


def test_compose_enriched():
    f = ps.locally_constant_sheaf(S, S.full(), Z)
    ident = ps.identity_enriched(f)
    m2 = ps.EnrichedMorphism(f, f, {o: scale_hom(2, ab.id_hom(f.group(o))) for o in f.opens()})
    m3 = ps.EnrichedMorphism(f, f, {o: scale_hom(3, ab.id_hom(f.group(o))) for o in f.opens()})
    assert ps.same_enriched(ps.compose_enriched(m2, ident), m2)
    assert ps.same_enriched(ps.compose_enriched(ident, m2), m2)
    six = ps.compose_enriched(m3, m2)
    for o in f.opens():
        assert ab.same_hom(six.alpha[o], scale_hom(6, ab.id_hom(f.group(o))))
    # open parts compose as intersections
    sub = ps.restrict_presheaf(f, frozenset({0}))
    to_sub = ps.EnrichedMorphism(f, sub, {o: f.res(o, o & frozenset({0})) for o in f.opens()})
    assert ps.check_enriched_morphism(to_sub)[0]
    again = ps.compose_enriched(to_sub, ident)
    assert again.cod.domain == frozenset({0})


def test_nat_iso_inverse_and_composition():
    rng = random.Random(5)
    space = gen.random_space(rng, 3, max_opens=12)
    base = ab.free_group(2)
    f = ps.locally_constant_sheaf(space, space.full(), base)
    iso = gen.natural_automorphism(rng, f, base)
    ok, problems = ps.check_enriched_morphism(iso)
    assert ok, problems
    assert all(ab.is_iso(h) for h in iso.alpha.values())
    inv = inverse_enriched(iso)
    both = ps.compose_enriched(inv, iso)
    for o in f.opens():
        assert ab.same_hom(both.alpha[o], ab.id_hom(f.group(o)))


def test_minimal_cover_decides_like_the_bounded_family_and_all_covers():
    rng = random.Random(20)
    axioms = {"identity": 0, "gluing": 0}
    oracle_runs = 0
    for k in range(1000):
        space = random_space(rng)
        kind = k % 5
        if kind < 3:
            f = coordinate_presheaf(space, random_support(rng, space, rng.randint(1, 3)))
        elif kind == 3:
            f = constant_presheaf(space, space.full(), Z)
        else:
            f = ps.locally_constant_sheaf(space, space.full(), Z)
        ok, cert = ps.is_sheaf(f)
        got = (ok, cert["axiom"], cert["open"]) if cert else (ok, None, None)
        assert got == sheaf_check_on_covers(f, irredundant_covers), (space, k)
        if not ok:
            axioms[cert["axiom"]] += 1
            assert ft.minimal_cover(space, frozenset(cert["open"])) == tuple(
                frozenset(c) for c in cert["cover"]
            )
        if len(space.opens) <= 7:
            oracle_runs += 1
            assert ok == all_covers_sheaf_check(f), (space, k)
    assert axioms["identity"] >= 100 and axioms["gluing"] >= 100, axioms
    assert oracle_runs >= 500, oracle_runs


# --- oracle: the two presheaf-law copies that presheaf_law_failures replaced

def reference_group_law_failures(space, domain, sections, restrictions):
    """make_presheaf with functoriality_failures as they were before the
    shared checker: the problems of the first failing stage, [] if none."""
    needed = ps.opens_below(space, domain)
    problems = []
    for o in needed:
        if o not in sections:
            problems.append(f"missing sections over {sorted(o)}")
    if problems:
        return problems
    for u in needed:
        for v in needed:
            if v <= u:
                h = restrictions.get((u, v))
                if h is None:
                    problems.append(f"missing restriction {sorted(u)} -> {sorted(v)}")
                    continue
                if h.dom != sections[u] or h.cod != sections[v]:
                    problems.append(f"restriction {sorted(u)} -> {sorted(v)} has wrong endpoints")
                elif not ab.is_well_defined(h):
                    problems.append(f"restriction {sorted(u)} -> {sorted(v)} not well-defined")
    if problems:
        return problems
    f = ps.Presheaf(space, domain, sections, restrictions)
    opens = f.opens()
    for u in opens:
        if not ab.same_hom(f.res(u, u), ab.id_hom(f.group(u))):
            problems.append(f"restriction on {sorted(u)} is not the identity")
    for u in opens:
        for v in opens:
            if not v <= u or v == u:
                continue
            for w in opens:
                if not w <= v or w == v:
                    continue
                lhs = ab.compose_hom(f.res(v, w), f.res(u, v))
                if not ab.same_hom(lhs, f.res(u, w)):
                    problems.append(f"composite {sorted(u)} -> {sorted(v)} -> {sorted(w)} disagrees")
    return problems


def reference_ring_law_failures(top, sections, restr):
    """The law loops of make_ringed_space before the shared checker."""
    problems = []
    opens = top.sorted_opens
    for o in opens:
        if o not in sections:
            problems.append(f"missing sections over {sorted(o)}")
    if problems:
        return problems
    for u in opens:
        for v in opens:
            if not v <= u:
                continue
            h = restr.get((u, v))
            if h is None:
                problems.append(f"missing restriction {sorted(u)} -> {sorted(v)}")
            elif h.dom != sections[u] or h.cod != sections[v]:
                problems.append(f"restriction {sorted(u)} -> {sorted(v)} has wrong endpoints")
            elif not rg.is_ring_hom(h):
                problems.append(f"restriction {sorted(u)} -> {sorted(v)} is not a ring hom")
    if problems:
        return problems
    for u in opens:
        if restr[(u, u)].assign != tuple(sections[u].elements()):
            problems.append(f"restriction on {sorted(u)} is not the identity")
    for u in opens:
        for v in opens:
            if not v <= u or v == u:
                continue
            for w in opens:
                if not w <= v or w == v:
                    continue
                lhs = rg.compose_ring_hom(restr[(v, w)], restr[(u, v)])
                if lhs != restr[(u, w)]:
                    problems.append(f"composite {sorted(u)} -> {sorted(v)} -> {sorted(w)} disagrees")
    return problems


def in_checker_words(problem):
    """The old copies named a non-homomorphism in their own words."""
    for old in (" not well-defined", " is not a ring hom"):
        if problem.endswith(old):
            return problem[: -len(old)] + " is not a homomorphism"
    return problem


def checker_failures(build):
    try:
        build()
    except ValidationError as exc:
        return str(exc).split("; ")
    return []


def single_corruptions(rng, opens, restrictions, wrong_cod, non_hom, non_identity, changed):
    """(kind, table) for the five single-entry corruptions of a valid
    restriction table that this table has a spot for.  ``wrong_cod(h)`` and
    ``non_hom(h)`` replace a restriction, ``non_identity(u)`` is an
    endomorphism of the sections over u other than the identity, and
    ``changed(w, h)`` is a homomorphism with h's endpoints other than h;
    each gives None where it has none."""

    def replaced(key, h):
        return {**restrictions, key: h}

    keys = sorted(restrictions, key=lambda k: (sorted(k[0]), sorted(k[1])))
    key = rng.choice(keys)
    out = [("removed", {k: h for k, h in restrictions.items() if k != key}),
           ("wrong_endpoint", replaced(key, wrong_cod(restrictions[key])))]
    spots = [(k, non_hom(restrictions[k])) for k in keys]
    spots = [spot for spot in spots if spot[1] is not None]
    if spots:
        out.append(("non_homomorphism", replaced(*rng.choice(spots))))
    spots = [((u, u), non_identity(u)) for u in opens]
    spots = [spot for spot in spots if spot[1] is not None]
    if spots:
        out.append(("non_identity", replaced(*rng.choice(spots))))
    spots = [((u, w), changed(w, restrictions[(u, w)]))
             for u, w in keys if any(w < v < u for v in opens)]
    spots = [spot for spot in spots if spot[1] is not None]
    if spots:
        out.append(("broken_composite", replaced(*rng.choice(spots))))
    return out


def test_presheaf_law_checker_matches_group_oracle():
    rng = random.Random(808)
    tried = Counter()

    def non_hom(h):
        ones = ab.AbHom(h.dom, h.cod, tuple((1,) * h.dom.ambient for _ in range(h.cod.ambient)))
        return None if ab.is_well_defined(ones) else ones

    def scaled(h):
        twice = scale_hom(2, h)
        return None if ab.same_hom(twice, h) else twice

    for _ in range(150):
        space = random_space(rng)
        domain = rng.choice([o for o in space.sorted_opens if o])
        f = ps.locally_constant_sheaf(space, domain, gen.random_group(rng))
        opens = f.opens()
        families = [("valid", f.restrictions)] + single_corruptions(
            rng, opens, f.restrictions,
            wrong_cod=lambda h: ab.zero_hom(h.dom, ab.free_group(h.cod.ambient + 1)),
            non_hom=non_hom,
            non_identity=lambda u: scaled(ab.id_hom(f.group(u))),
            changed=lambda w, h: scaled(h),
        )
        for kind, restrictions in families:
            expected = reference_group_law_failures(space, domain, f.sections, restrictions)
            got = checker_failures(lambda: ps.make_presheaf(space, domain, f.sections, restrictions))
            assert got == [in_checker_words(p) for p in expected], kind
            assert bool(got) == (kind != "valid"), kind
            tried[kind] += 1
    assert len(tried) == 6 and min(tried.values()) >= 20, tried


def component_swap(space, base, u):
    """Swap the first two components of the locally constant ring over u,
    ``product_ring([base] * k)``; None when u has fewer than two."""
    k = len(ft.components_of_open(space, u))
    if k < 2 or base.order < 2:
        return None
    tuples = list(iproduct(base.elements(), repeat=k))
    index = {t: e for e, t in enumerate(tuples)}
    ring = rg.product_ring([base] * k)[0]
    return rg.RingHom(ring, ring, tuple(index[(t[1], t[0], *t[2:])] for t in tuples))


def test_presheaf_law_checker_matches_ring_oracle():
    rng = random.Random(809)
    tried = Counter()
    instances = 0
    while instances < 100:
        space = random_space(rng)
        if any(len(ft.components_of_open(space, o)) > 3 for o in space.opens):
            continue
        instances += 1
        base = rg.zmod(rng.choice([2, 3]))
        ringed = gen.locally_constant_ringed(space, base)
        opens = space.sorted_opens

        def non_hom(h):
            if h.cod.order < 2:
                return None
            return rg.RingHom(h.dom, h.cod, (h.cod.zero,) * h.dom.order)

        def changed(w, h):
            swap = component_swap(space, base, w)
            moved = swap and rg.compose_ring_hom(swap, h)
            return moved if moved != h else None

        families = [("valid", ringed.restr)] + single_corruptions(
            rng, opens, ringed.restr,
            wrong_cod=lambda h: rg.RingHom(h.dom, rg.zmod(h.cod.order + 1), h.assign),
            non_hom=non_hom,
            non_identity=lambda u: component_swap(space, base, u),
            changed=changed,
        )
        for kind, restr in families:
            expected = reference_ring_law_failures(space, ringed.sections, restr)
            got = ps.presheaf_law_failures(
                opens, ringed.sections, restr,
                rg.is_ring_hom, rg.compose_ring_hom, operator.eq, rg.identity_ring_hom, space.lower_covers,
            )
            assert got == [in_checker_words(p) for p in expected], kind
            assert bool(got) == (kind != "valid"), kind
            tried[kind] += 1
    assert len(tried) == 6 and min(tried.values()) >= 20, tried


# --- oracle: the six naturality loops that naturality_failures replaced.
# Each returns its failing squares (u, v); the loops that also visited
# v = u keep doing so, so equal lists also show those squares never fail.

def reference_enriched_squares(m):
    """check_enriched_morphism's loop."""
    v = m.cod.domain
    failing = []
    for w in m.dom.opens():
        for w2 in m.dom.opens():
            if not w2 <= w or w2 == w:
                continue
            lhs = ab.compose_hom(m.cod.res(w & v, w2 & v), m.alpha[w])
            rhs = ab.compose_hom(m.alpha[w2], m.dom.res(w, w2))
            if not ab.same_hom(lhs, rhs):
                failing.append((w, w2))
    return failing


def reference_nat_iso_squares(iso):
    """The loop of the former natural-isomorphism check, for a morphism
    whose open part is the identity."""
    failing = []
    for w in iso.dom.opens():
        for w2 in iso.dom.opens():
            if not w2 <= w or w2 == w:
                continue
            lhs = ab.compose_hom(iso.cod.res(w, w2), iso.alpha[w])
            rhs = ab.compose_hom(iso.alpha[w2], iso.dom.res(w, w2))
            if not ab.same_hom(lhs, rhs):
                failing.append((w, w2))
    return failing


def reference_comparison_squares(candidate, carrier, comps):
    """verify_sheaf_glued's loop over the comparison into the limit."""
    failing = []
    for u in candidate.opens():
        for v in candidate.opens():
            if not v <= u:
                continue
            lhs = ab.compose_hom(carrier.res(u, v), comps[u])
            rhs = ab.compose_hom(comps[v], candidate.res(u, v))
            if not ab.same_hom(lhs, rhs):
                failing.append((u, v))
    return failing


def reference_transport_squares(g, i, j):
    """ringedglue._validate's loop over the transport (i, j)."""
    opens = ps.opens_below(g.charts[i].top, g.overlaps[(i, j)])
    failing = []
    for w in opens:
        for w2 in opens:
            if not w2 <= w or w2 == w:
                continue
            lhs = rg.compose_ring_hom(g.transports[(i, j)][w2], g.charts[i].res(w, w2))
            rhs = rg.compose_ring_hom(
                g.charts[j].res(g.top_image(i, j, w), g.top_image(i, j, w2)),
                g.transports[(i, j)][w],
            )
            if lhs != rhs:
                failing.append((w, w2))
    return failing


def reference_rsm_squares(m):
    """check_rsm's loop."""
    failing = []
    for u in m.dom.top.sorted_opens:
        for v in m.dom.top.sorted_opens:
            if not v <= u:
                continue
            pu, pv = m.top.preimage_of(u), m.top.preimage_of(v)
            lhs = rg.compose_ring_hom(m.cod.res(pu, pv), m.sheaf[u])
            rhs = rg.compose_ring_hom(m.sheaf[v], m.dom.res(u, v))
            if lhs != rhs:
                failing.append((u, v))
    return failing


def reference_leg_squares(candidate, top_legs, sheaf_legs, g, i):
    """verify_ringed_glued's loop over the sheaf legs, for chart i."""
    failing = []
    for v in candidate.top.sorted_opens:
        for v2 in candidate.top.sorted_opens:
            if not v2 <= v:
                continue
            lhs = rg.compose_ring_hom(
                g.charts[i].res(top_legs[i].preimage_of(v), top_legs[i].preimage_of(v2)),
                sheaf_legs[i][v],
            )
            rhs = rg.compose_ring_hom(sheaf_legs[i][v2], candidate.res(v, v2))
            if lhs != rhs:
                failing.append((v, v2))
    return failing


def square_dicts(squares):
    return [{"square": (sorted(u), sorted(v))} for u, v in squares]


def changed_component(rng, alpha, options):
    """alpha with the component at one open replaced by one of
    ``options(h)`` that differs from it; None when no open offers one."""
    spots = []
    for w in sorted(alpha, key=sorted):
        other = [x for x in options(alpha[w]) if x is not None and x != alpha[w]]
        if other:
            spots.append((w, other))
    if not spots:
        return None
    w, other = rng.choice(spots)
    return {**alpha, w: rng.choice(other)}


def group_changes(h):
    """Homs with h's endpoints that differ from h as maps, or None."""
    for c in (ab.zero_hom(h.dom, h.cod), scale_hom(2, h), scale_hom(-1, h)):
        yield None if ab.same_hom(c, h) else c


def check_group_family(m):
    """Compare every replaced group loop that applies to m with the shared
    checker and with check_enriched_morphism; return the failing squares."""
    expected = reference_enriched_squares(m)
    ok, failures = ps.check_enriched_morphism(m)
    assert failures == square_dicts(expected) and ok == (not expected)
    if m.dom.domain == m.cod.domain:
        assert reference_nat_iso_squares(m) == expected
        same_opens = ps.naturality_failures(
            m.dom.opens(), lambda w: w, m.alpha.__getitem__, m.dom.res, m.cod.res, ab.compose_hom, ab.same_hom,
        )
        assert same_opens == reference_comparison_squares(m.dom, m.cod, m.alpha) == expected
    return expected


def test_naturality_checker_matches_oracle_on_natural_automorphisms():
    rng = random.Random(1010)
    failing = 0
    for _ in range(250):
        space = random_space(rng)
        domain = rng.choice([o for o in space.sorted_opens if o])
        base = ab.free_group(rng.randint(1, 2))
        f = ps.locally_constant_sheaf(space, domain, base)
        twist = gen.natural_automorphism(rng, f, base)
        assert check_group_family(twist) == []
        alpha = changed_component(rng, twist.alpha, group_changes)
        if alpha is not None:
            failing += bool(check_group_family(ps.EnrichedMorphism(f, f, alpha)))
    assert failing >= 100, failing


def test_naturality_checker_matches_oracle_on_sheaf_transitions_and_limit_legs():
    """The twisted charts of ``random_sheaf_data`` restrict alike, so the
    limit legs, whose two ends restrict differently and whose open parts
    are inclusions, are checked as well."""
    rng = random.Random(1011)
    failing = Counter()
    for _ in range(250):
        base, cover, charts, transitions, _ = gen.random_sheaf_data(rng, max_points=5, max_charts=3, max_rank=2)
        data = sg.sheaf_functor_from_data(sg.SheafGluingData(base, tuple(cover), charts, transitions))
        legs = sg.build_limit_sheaf(data).legs
        family = [("transition", transitions[key]) for key in sorted(transitions)]
        family.append(("leg", legs[rng.choice(sorted(legs, key=str))]))
        for kind, m in family:
            assert check_group_family(m) == []
            alpha = changed_component(rng, m.alpha, group_changes)
            if alpha is not None:
                failing[kind] += bool(check_group_family(ps.EnrichedMorphism(m.dom, m.cod, alpha)))
    assert min(failing.values()) >= 100, failing


@lru_cache(maxsize=None)
def factor_reindexings(m, k):
    """product_ring([zmod(m)] * k) with its ring endomorphisms other than
    the identity: each reads factor s[x] into factor x."""
    ring = rg.product_ring([rg.zmod(m)] * k)[0]
    tuples = list(iproduct(range(m), repeat=k))
    index = {t: e for e, t in enumerate(tuples)}
    return ring, [
        rg.RingHom(ring, ring, tuple(index[tuple(t[x] for x in s)] for t in tuples))
        for s in iproduct(range(k), repeat=k) if s != tuple(range(k))
    ]


def ring_changes(h):
    """Maps with h's endpoints: h followed by each reindexing of its
    codomain's factors, which are ring homs, and h shifted by the unity,
    which is not one."""
    cod = h.cod
    shifted = rg.RingHom(h.dom, cod, tuple(cod.add[x][cod.one] for x in h.assign))
    for m, k in ((2, 2), (3, 2), (4, 2), (6, 2), (2, 3), (3, 3)):
        ring, endos = factor_reindexings(m, k)
        if cod == ring:
            return [shifted] + [rg.compose_ring_hom(e, h) for e in endos]
    return [shifted]


def test_naturality_checker_matches_oracle_on_ringed_transports(monkeypatch):
    rng = random.Random(1012)
    failing = 0
    for _ in range(1000):
        g = gen.random_ringed_functor(rng, rng.choice(["rts", "lrts"]), max_points=5)
        if g.n < 2:
            continue
        i, j = rng.choice(list(permutations(range(g.n), 2)))
        opens = ps.opens_below(g.charts[i].top, g.overlaps[(i, j)])
        for corrupt in (False, True):
            if corrupt:
                changed = changed_component(rng, g.transports[(i, j)], ring_changes)
                if changed is None:
                    break
                # a new functor, since a functor builds its images once
                g = rgl.RingedGluingFunctor(
                    g.variant, g.charts, g.overlaps, g.trans_top, {**g.transports, (i, j): changed}
                )
            expected = reference_transport_squares(g, i, j)
            assert ps.naturality_failures(
                opens, partial(g.top_image, i, j), g.transports[(i, j)].__getitem__,
                g.charts[i].res, g.charts[j].res, rg.compose_ring_hom, operator.eq,
            ) == expected
            # the hom check runs first; pass every map so the squares are reached
            with monkeypatch.context() as patch:
                patch.setattr(rg, "is_ring_hom", lambda h: True)
                report = rgl.validate_ringed_functor(g)
            natural = [p for p in report["transports"] if "not natural" in p]
            assert natural == [f"transport ({i},{j}) not natural at {sorted(w)}->{sorted(w2)}" for w, w2 in expected]
            assert corrupt or not expected
            failing += bool(expected)
    assert failing >= 100, failing


def test_naturality_checker_matches_oracle_on_glued_ringed_legs(monkeypatch):
    rng = random.Random(1013)
    failing = 0
    for _ in range(300):
        g = gen.random_ringed_functor(rng, rng.choice(["rts", "lrts"]), max_points=5)
        glued = rgl.glue_ringed(g)
        i = rng.randrange(g.n)
        legs = {k: leg.sheaf for k, leg in glued.legs.items()}
        for corrupt in (False, True):
            if corrupt:
                changed = changed_component(rng, legs[i], ring_changes)
                if changed is None:
                    break
                legs[i] = changed
            leg = rgl.RingedSpaceMorphism(glued.space, g.charts[i], glued.top_legs[i], legs[i])
            expected = reference_rsm_squares(leg)
            assert reference_leg_squares(glued.space, glued.top_legs, legs, g, i) == expected
            assert ps.naturality_failures(
                glued.space.top.sorted_opens, glued.top_legs[i].preimage_of, legs[i].__getitem__,
                glued.space.res, g.charts[i].res, rg.compose_ring_hom, operator.eq,
            ) == expected
            with monkeypatch.context() as patch:
                patch.setattr(rg, "is_ring_hom", lambda h: True)
                assert rgl.check_rsm(leg) == (not expected)
            assert corrupt or not expected
            failing += bool(expected)
    assert failing >= 100, failing


def test_component_that_is_not_a_homomorphism_is_refused():
    """On the chain {0} < {0,1} < {0,1,2}, r_uw = 3 and r_cw ∘ r_uc = 1 agree
    into Z/2, but a component Z/2 -> Z/4 sending 1 to 1 tells them apart:
    both covering squares commute and the square of w below u fails.  The
    naturality check on covering pairs needs homomorphisms, so the
    component is refused before the squares."""
    chain = ft.FinSpace(3, (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})))
    w, c, u = chain.sorted_opens[1:]
    assert chain.lower_covers[u] == (c,) and chain.lower_covers[c] == (w,)

    def presheaf(torsion, r_uw):
        top, low = ab.free_group(1), ab.group_from_invariants(0, (torsion,))
        sections = {frozenset(): ab.free_group(0), w: low, c: top, u: top}
        maps = {(u, c): ((1,),), (c, w): ((1,),), (u, w): ((r_uw,),)}
        restrictions = {
            (a, b): ab.make_hom(sections[a], sections[b], maps.get((a, b), ((1,),) if a == b else ()))
            for a in chain.sorted_opens for b in chain.sorted_opens if b <= a
        }
        return ps.make_presheaf(chain, chain.full(), sections, restrictions)

    f, g = presheaf(2, 3), presheaf(4, 1)
    alpha = {o: ab.id_hom(f.group(o)) for o in f.opens()}
    alpha[w] = ab.AbHom(f.group(w), g.group(w), ((1,),))
    m = ps.EnrichedMorphism(f, g, alpha)
    assert not ab.is_well_defined(alpha[w])
    assert reference_enriched_squares(m) == [(u, w)]
    assert ps.check_enriched_morphism(m) == (False, [{"open": [0], "error": "not a homomorphism"}])
