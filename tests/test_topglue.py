import collections
import random
from itertools import accumulate, chain, permutations, product

import pytest

from gluekit import cli
from gluekit import fintop as ft
from gluekit import generators as gen
from gluekit import jsonio
from gluekit import ringedglue as rgl
from gluekit import topglue as tg
from gluekit.errors import FalsificationError, ValidationError
from gluekit.indexcat import Eta, EtaT, Tau, generator_path, index_category, pair, single, triple
from test_fintop import indiscrete_space, sierpinski

S = sierpinski()


def two_origins_data(open_variant=True):
    pt = ft.point_space()
    ups = {(0, 1): ft.make_map(pt, S, [0]), (1, 0): ft.make_map(pt, S, [0])}
    trans = {(0, 1): ft.identity_map(pt), (1, 0): ft.identity_map(pt)}
    return tg.TopGluingData((S, S), ups, trans, {}, {}, {}, open_variant)


def test_functor_from_single_space():
    d = tg.TopGluingData((S,), {}, {}, {}, {}, {}, True)
    g = tg.functor_from_data(d)
    assert g.n == 1 and len(g.objects) == 1
    rep = tg.standard_representative(g)
    assert rep.space.n == S.n and len(rep.space.opens) == len(S.opens)
    assert ft.is_homeomorphism(
        ft.make_map(S, rep.space, rep.iota[single(0)].assign)
    )


def test_two_origins_functor_and_representative():
    g = tg.functor_from_data(two_origins_data())
    assert len(g.objects) == 4
    rep = tg.standard_representative(g)
    assert rep.space.n == 3 and len(rep.space.opens) == 5
    report = tg.verify_glued(rep.space, rep.iota, g)
    assert report["verdict"]
    assert report["final_topology"] and report["overlap_law"] and report["triple_law"]


def test_noninvertible_transition_rejected():
    pt2 = ft.discrete_space(2)
    ups = {(0, 1): ft.make_map(pt2, S, [0, 0]), (1, 0): ft.make_map(pt2, S, [0, 0])}
    trans = {
        (0, 1): ft.make_map(pt2, pt2, [0, 0]),  # constant, not invertible
        (1, 0): ft.identity_map(pt2),
    }
    d = tg.TopGluingData((S, S), ups, trans, {}, {}, {}, True)
    with pytest.raises(ValidationError):
        tg.functor_from_data(d)


def test_data_functor_roundtrip():
    d = two_origins_data()
    g = tg.functor_from_data(d)
    d2 = tg.data_from_functor(g)
    assert d2.spaces == d.spaces
    assert d2.overlaps == d.overlaps
    assert d2.transitions == d.transitions
    assert d2.open_variant == d.open_variant
    g2 = tg.functor_from_data(d2)
    assert g2.objects == g.objects and g2.arrows == g.arrows
    # three-index cover functor round-trips as well
    x = ft.make_space(4, [[], [0], [1], [0, 1], [0, 2], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]])
    cover = [frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({0, 2})]
    functor, _ = tg.cover_functor(x, cover)
    d3 = tg.data_from_functor(functor)
    g3 = tg.functor_from_data(d3)
    assert g3.objects == functor.objects and g3.arrows == functor.arrows


def test_validate_functor_report_styles():
    x = ft.make_space(3, [[], [0], [1], [0, 1], [0, 1, 2]])
    cover = [frozenset({0, 1}), frozenset({0, 1, 2})]
    functor, _ = tg.cover_functor(x, cover)
    assert tg.validate_functor(functor)["ok"]
    # corrupt a triple on a 3-chart functor: pullback condition must fail
    rng = random.Random(1)
    for _ in range(20):
        g = gen.random_top_functor(rng, max_charts=3)
        bad = gen.corrupt_top_functor(rng, g)
        if bad is None:
            continue
        report = tg.validate_functor(bad)
        assert not report["ok"]
    # non-open attaching map in the open variant
    pt = ft.point_space()
    indiscrete2 = indiscrete_space(2)
    ups = {(0, 1): ft.make_map(indiscrete2, S, [1, 1]), (1, 0): ft.make_map(indiscrete2, S, [1, 1])}
    trans = {(0, 1): ft.identity_map(indiscrete2), (1, 0): ft.identity_map(indiscrete2)}
    d = tg.TopGluingData((S, S), ups, trans, {}, {}, {}, True)
    g2 = tg.TopGluingFunctor(
        2, True,
        {single(0): S, single(1): S, pair(0, 1): indiscrete2, pair(1, 0): indiscrete2},
        {Eta(0, 1): ups[(0, 1)], Eta(1, 0): ups[(1, 0)], Tau(0, 1): trans[(0, 1)], Tau(1, 0): trans[(1, 0)]},
    )
    report = tg.validate_functor(g2)
    assert any(item["error"] == "not open" for item in report["maps"])


def test_empty_overlap_gives_disjoint_union():
    d2 = ft.discrete_space(2)
    empty = ft.empty_space()
    nomap = ft.make_map(empty, d2, [])
    ups = {(0, 1): nomap, (1, 0): nomap}
    trans = {(0, 1): ft.identity_map(empty), (1, 0): ft.identity_map(empty)}
    g = tg.functor_from_data(tg.TopGluingData((d2, d2), ups, trans, {}, {}, {}, True))
    rep = tg.standard_representative(g)
    assert rep.space.n == 4
    assert rep.space.opens == ft.discrete_space(4).opens


def test_is_cone_characterizations():
    g = tg.functor_from_data(two_origins_data())
    rep = tg.standard_representative(g)
    assert tg.is_cone(rep.space, rep.iota, g) == (True, True, True)
    # breaking one pair leg breaks all three characterizations
    legs = dict(rep.iota)
    apex = rep.space
    legs[pair(0, 1)] = ft.make_map(legs[pair(0, 1)].dom, apex, [2])
    assert tg.is_cone(apex, legs, g) == (False, False, False)
    # a single object with identity legs
    g1 = tg.functor_from_data(tg.TopGluingData((S,), {}, {}, {}, {}, {}, True))
    legs1 = {single(0): ft.identity_map(S)}
    assert tg.is_cone(S, legs1, g1) == (True, True, True)


def test_is_cone_agreement_on_random_and_corrupted():
    rng = random.Random(17)
    agreements = 0
    for _ in range(120):
        g = gen.random_top_functor(rng)
        rep = tg.standard_representative(g)
        cone = gen.random_cone(rng, g, rep)
        verdicts = tg.is_cone(cone.apex, cone.legs, g)
        assert verdicts[0] == verdicts[1] == verdicts[2]
        bad = gen.corrupt_cone_legs(rng, g, cone)
        verdicts = tg.is_cone(bad.apex, bad.legs, g)
        assert verdicts[0] == verdicts[1] == verdicts[2]
        agreements += 1
    assert agreements == 120


def arrow_image(g, a, b):
    """Plain-map side of the unique morphism a -> b: a continuous map from
    the space at b to the space at a, composed along the generator path."""
    if a == b:
        return ft.identity_map(g.objects[a])
    path = generator_path(g.n, a, b)
    if path is None:
        raise ValidationError(f"no morphism {a} -> {b}")
    img = g.arrows[path[0]]
    for arrow in path[1:]:
        img = ft.compose(img, g.arrows[arrow])
    return img


def reference_is_cone(apex, legs, g):
    """is_cone morphism by morphism: every arrow image composed and every
    map compared whole, on each call."""
    tg._legs_match_endpoints(g, apex, legs)
    objs = index_category(g.n).objects
    first = True
    for a in objs:
        for b in objs:
            if generator_path(g.n, a, b) is None:
                continue
            if legs[b] != ft.compose(legs[a], arrow_image(g, a, b)):
                first = False
    second = True
    third = True
    for i, j in permutations(range(g.n), 2):
        if legs[pair(i, j)] != ft.compose(legs[pair(j, i)], g.arrows[Tau(i, j)]):
            second = False
        twisted = ft.compose(g.arrows[Eta(j, i)], g.arrows[Tau(i, j)])
        if legs[pair(i, j)] != ft.compose(legs[single(j)], twisted):
            third = False
        if legs[pair(i, j)] != ft.compose(legs[single(i)], g.arrows[Eta(i, j)]):
            second = False
            third = False
    for i, j, k in permutations(range(g.n), 3):
        if j < k:
            t = triple(i, j, k)
            for via, other in ((j, k), (k, j)):
                if legs[t] != ft.compose(legs[pair(i, via)], g.arrows[EtaT(i, via, other)]):
                    second = False
                    third = False
    if not (first == second == third):
        raise FalsificationError(f"cone characterizations disagree: {(first, second, third)}")
    return first, second, third


def scratch_squares(g):
    """The cone squares compiled from scratch: per characterization, each
    square (a, b, chain) of the index table as (a, b, m.assign), with m the
    whole chain composed from the identity at a, or None when some m does
    not start at the space at b.  Raises where composing fails."""

    def square(a, b, chain):
        m = ft.identity_map(g.objects[a])
        for arrow in chain:
            m = ft.compose(m, g.arrows[arrow])
        return (a, b, m.assign) if m.dom == g.objects[b] else None

    table = [[square(*sq) for sq in squares] for squares in index_category(g.n).cone_squares]
    return [None if None in squares else squares for squares in table]


def per_square_is_cone(apex, legs, g):
    """is_cone as it was before each characterization became two reads of
    the concatenated legs: every square compiled from scratch, and
    compared as one tuple."""
    assign = {a: leg.assign for a, leg in zip(g.objects, tg._legs_match_endpoints(g, apex, legs))}
    first, second, third = (
        squares is not None and all(assign[b] == tuple(map(assign[a].__getitem__, m)) for a, b, m in squares)
        for squares in scratch_squares(g)
    )
    if not (first == second == third):
        raise FalsificationError(f"cone characterizations disagree: {(first, second, third)}")
    return first, second, third


def cone_outcome(check, apex, legs, g):
    try:
        return check(apex, legs, g)
    except (ValidationError, FalsificationError) as exc:
        return type(exc).__name__, str(exc)


def with_foreign_domain(g, gen_key):
    """g with the arrow at gen_key moved onto a different space of the same
    size, so its domain no longer is the object it should start from."""
    old = g.arrows[gen_key]
    other = indiscrete_space(old.dom.n)
    if other == old.dom:
        other = ft.discrete_space(old.dom.n)
    arrows = dict(g.arrows)
    arrows[gen_key] = ft.ContinuousMap(other, old.cod, old.assign)
    return tg.TopGluingFunctor(g.n, g.open_variant, g.objects, arrows)


def test_is_cone_matches_reference_on_seeded_cones():
    """Against the morphism-by-morphism reference and the per-square loop,
    on cones, on corrupt_cone_legs cones (not cones), on legs of another
    functor and on functors whose arrows start at foreign spaces."""
    rng = random.Random(41)
    compared = 0
    outcomes = collections.Counter()
    oracles = (reference_is_cone, per_square_is_cone)
    while compared < 1000:
        g = gen.random_top_functor(rng)
        rep = tg.standard_representative(g)
        for _ in range(5):
            cone = gen.random_cone(rng, g, rep)
            bad = gen.corrupt_cone_legs(rng, g, cone)
            for c in (cone, bad):
                verdicts = tg.is_cone(c.apex, c.legs, g)
                assert all(verdicts == oracle(c.apex, c.legs, g) for oracle in oracles)
                outcomes["legs", verdicts[0]] += 1
                compared += 1
        # legs whose endpoints belong to another functor
        other = gen.random_top_functor(rng)
        other_cone = gen.random_cone(rng, other, tg.standard_representative(other))
        if other.n >= g.n and any(other.objects[a] != g.objects[a] for a in g.objects):
            for check in (tg.is_cone, *oracles):
                with pytest.raises(ValidationError, match="wrong endpoints"):
                    check(other_cone.apex, other_cone.legs, g)
        # arrows whose domains are not their objects: where they still
        # compose, no legs satisfy the squares through them; where they do
        # not, all raise, on every call
        for gen_key in g.arrows:
            if g.arrows[gen_key].dom.n >= 2:
                broken = with_foreign_domain(g, gen_key)
                expected = cone_outcome(reference_is_cone, cone.apex, cone.legs, broken)
                outcomes[expected[0]] += 1
                assert cone_outcome(per_square_is_cone, cone.apex, cone.legs, broken) == expected
                for _ in range(2):
                    assert cone_outcome(tg.is_cone, cone.apex, cone.legs, broken) == expected
    assert outcomes["legs", True] >= 500 and outcomes["legs", False] >= 100, outcomes
    assert outcomes[False] and outcomes["ValidationError"], outcomes


def scratch_verdicts(g, scratch, values):
    """Per characterization, whether legs with the concatenated assignments
    ``values`` satisfy its squares ``scratch`` compiled from scratch."""
    offsets = dict(zip(g.objects, accumulate((space.n for space in g.objects.values()), initial=0)))
    return tuple(
        squares is not None
        and all(values[offsets[b] + x] == values[offsets[a] + y] for a, b, m in squares for x, y in enumerate(m))
        for squares in scratch
    )


def compiled_verdicts(g, values):
    return tuple(readers is not None and readers[0](values) == readers[1](values) for readers in g.cone_squares)


def seeded_functors(rng):
    """(kind, functor) draws: random functors, their corruptions, the plain
    sides of ringed functors, cover functors of up to 6 charts, and random
    functors with one arrow moved onto a foreign domain."""
    kind = rng.choice(("random", "corrupt", "ringed", "cover", "foreign"))
    if kind == "corrupt":
        g = None
        while g is None:
            g = gen.corrupt_top_functor(rng, gen.random_top_functor(rng, max_charts=4))
    elif kind == "ringed":
        g = rgl.induced_top_functor(gen.random_ringed_functor(rng, rng.choice(("lrts", "rts")), max_points=5))
    elif kind == "cover":
        space = gen.random_space(rng, 6)
        g, _ = tg.cover_functor(space, gen.random_open_cover(rng, space, 6))
    elif kind == "random":
        g = gen.random_top_functor(rng, max_charts=4, open_variant=rng.random() < 0.5)
    else:
        g = gen.random_top_functor(rng, max_charts=4)
        while not g.arrows:
            g = gen.random_top_functor(rng, max_charts=4)
        g = with_foreign_domain(g, rng.choice(sorted(g.arrows, key=repr)))
    return kind, g


def leg_families(rng, g):
    """Concatenated leg assignments: the glued legs when g glues, each also
    through a random comparison map and with one value moved, and random
    values into one to three points."""
    total = sum(space.n for space in g.objects.values())
    families = [tuple(rng.randrange(m) for _ in range(total)) for m in (1, 2, 3)]
    try:
        rep = tg.standard_representative(g)
    except (ValidationError, FalsificationError):
        return families
    for cone in (tg.TopCone(rep.space, rep.iota), gen.random_cone(rng, g, rep)):
        values = tuple(chain.from_iterable(cone.legs[a].assign for a in g.objects))
        families.append(values)
        if values and cone.apex.n > 1:
            moved = list(values)
            x = rng.randrange(len(moved))
            moved[x] = (moved[x] + 1) % cone.apex.n
            families.append(tuple(moved))
    return families


def test_cone_squares_match_the_compile_from_scratch():
    """One compose per square, along the parent links, gives the squares
    that composing every chain from the identity gives: the same three
    verdicts on every leg family, the same None characterizations, and the
    same ValidationError."""
    rng = random.Random(53)
    outcomes = collections.Counter()
    for _ in range(1000):
        kind, g = seeded_functors(rng)
        try:
            scratch = scratch_squares(g)
        except ValidationError as exc:
            assert isinstance(g.cone_squares, ValidationError) and g.cone_squares.args == exc.args
            outcomes[kind, "error"] += 1
            continue
        assert [readers is None for readers in g.cone_squares] == [squares is None for squares in scratch]
        outcomes[kind, None in scratch] += 1
        for values in leg_families(rng, g):
            verdicts = compiled_verdicts(g, values)
            assert verdicts == scratch_verdicts(g, scratch, values), (kind, g)
            outcomes["verdict", verdicts] += 1
    for kind in ("random", "corrupt", "ringed", "cover"):
        assert outcomes[kind, False] >= 100, outcomes
    assert outcomes["foreign", True] + outcomes["foreign", "error"] >= 100, outcomes
    assert outcomes["verdict", (True, True, True)] >= 500, outcomes
    assert outcomes["verdict", (False, False, False)] >= 500, outcomes


def sample_every_draw(g, rep, rng, samples):
    """The sample as it was: the cone of every draw checked, repeats too.
    Returns the distinct cones it checked."""
    cones = set()
    for _ in range(samples):
        cone = gen.random_cone(rng, g, rep)
        cli._top_check_cone(g, rep, cone)
        cones.add((cone.apex, tuple(leg.assign for leg in cone.legs.values())))
    return len(cones)


def sample_outcome(sample, g, rep, seed, samples=cli.DEFAULT_SAMPLES):
    try:
        return "passed", sample(g, rep, random.Random(seed), samples)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def with_broken_chart_leg(rng, rep, g):
    """The glued space with one chart leg sent to one point, or None when
    every chart has fewer than two points."""
    charts = [i for i in range(g.n) if rep.iota[single(i)].dom.n >= 2]
    if not charts:
        return None
    i = rng.choice(charts)
    leg = rep.iota[single(i)]
    constant = ft.ContinuousMap(leg.dom, leg.cod, (leg.assign[0],) * leg.dom.n)
    return tg.GluedSpace(rep.space, {**rep.iota, single(i): constant})


def test_sample_checks_each_distinct_cone_once(monkeypatch):
    """On seeded documents of both variants, the sample passes or raises the
    same exception as checking every draw, and runs is_cone and
    mediating_morphism once per distinct comparison map.  Also on glued
    spaces with a broken chart leg, and where a mediating map is not unique
    (mediating_morphism refuses apexes of two points)."""
    calls = collections.Counter()
    real_is_cone, real_mediating = tg.is_cone, tg.mediating_morphism

    def counted_is_cone(*args):
        calls["is_cone"] += 1
        return real_is_cone(*args)

    def counted_mediating(cone, glued, g):
        calls["mediating"] += 1
        if calls["refuse"] and cone.apex.n == 2:
            raise ValidationError("glued space is not covered by its chart legs")
        return real_mediating(cone, glued, g)

    monkeypatch.setattr(tg, "is_cone", counted_is_cone)
    monkeypatch.setattr(tg, "mediating_morphism", counted_mediating)
    rng = random.Random(59)
    outcomes = collections.Counter()
    for doc in range(300):
        g = gen.random_top_functor(rng, open_variant=doc % 2 == 0)
        payload = jsonio.parse_document(jsonio.top_data_to_document(tg.data_from_functor(g)), None)
        functor, rep = cli._top_glue(payload["data"])
        broken = with_broken_chart_leg(rng, rep, functor)
        cases = [("document", rep, 0), ("not_unique", rep, 1)] + ([("broken_leg", broken, 0)] if broken else [])
        for case, glued, refuse in cases:
            seed = rng.randrange(1 << 30)
            calls.clear()
            calls["refuse"] = refuse
            expected = sample_outcome(sample_every_draw, functor, glued, seed)
            calls.clear()
            calls["refuse"] = refuse
            got = sample_outcome(cli._top_sample, functor, glued, seed)
            assert got == expected, (case, seed)
            if got[0] == "passed":
                assert calls["is_cone"] == calls["mediating"] == got[1]
            outcomes[case, got[0]] += 1
    assert outcomes["document", "passed"] == 300, outcomes
    for case in ("not_unique", "broken_leg"):
        assert outcomes[case, "FalsificationError"] >= 50, outcomes
    assert outcomes["not_unique", "passed"] >= 30, outcomes


def test_sample_keys_a_comparison_map_by_its_codomain_too(monkeypatch):
    """Two maps with one assignment into different spaces are two cones."""
    g = tg.functor_from_data(two_origins_data())
    rep = tg.standard_representative(g)
    q = rep.space
    maps = [ft.ContinuousMap(q, ft.point_space(), (0,) * q.n), ft.ContinuousMap(q, ft.discrete_space(2), (0,) * q.n)]
    draws = iter(maps * 3)
    monkeypatch.setattr(gen, "random_comparison_map", lambda rng, space: next(draws))
    apexes = []
    real_is_cone = tg.is_cone
    monkeypatch.setattr(tg, "is_cone", lambda apex, legs, g: (apexes.append(apex), real_is_cone(apex, legs, g))[1])
    assert cli._top_sample(g, rep, random.Random(0), 6) == 2
    assert apexes == [m.cod for m in maps]


def test_verify_glued_indiscrete_candidate():
    g = tg.functor_from_data(two_origins_data())
    rep = tg.standard_representative(g)
    blurred = indiscrete_space(rep.space.n)
    iota = {
        a: ft.ContinuousMap(m.dom, blurred, m.assign) for a, m in rep.iota.items()
    }
    report = tg.verify_glued(blurred, iota, g)
    assert report["d"]
    assert not report["e"]  # openness of the chart legs fails
    assert not report["final_topology"]
    assert not report["verdict"]


def test_plain_variant_surfaces_final_topology_separately():
    # without the open-map requirement, an indiscrete apex satisfies the
    # letter of conditions a-e while carrying the wrong topology; the
    # verifier keeps the final-topology check visible instead of folding it
    # into the verdict
    g = tg.functor_from_data(two_origins_data(open_variant=False))
    rep = tg.standard_representative(g)
    blurred = indiscrete_space(rep.space.n)
    iota = {
        a: ft.ContinuousMap(m.dom, blurred, m.assign) for a, m in rep.iota.items()
    }
    report = tg.verify_glued(blurred, iota, g)
    assert report["verdict"]  # a-e hold in the plain variant
    assert not report["final_topology"]  # and the divergence is reported


def reference_final_topology(q, iota, g):
    """The literal sweep: a subset of the glued points is open in q iff
    every chart leg pulls it back to an open."""
    for mask in range(1 << q.n):
        w = frozenset(p for p in range(q.n) if mask >> p & 1)
        preimages_open = all(
            iota[single(i)].preimage_of(w) in g.objects[single(i)].opens for i in range(g.n)
        )
        if preimages_open != (w in q.opens):
            return False
    return True


def test_final_topology_matches_subset_sweep_reference():
    rng = random.Random(31)
    outcomes = collections.Counter()
    for _ in range(1000):
        g = gen.random_top_functor(rng, max_points=5)
        rep = tg.standard_representative(g)
        q = rep.space
        opens = q.sorted_opens
        coarser = ft.close_family(q.n, [o for o in opens if rng.random() < 0.5])
        finer = ft.close_family(q.n, [*opens, {p for p in range(q.n) if rng.random() < 0.5}])
        for candidate in (q, coarser, finer):
            iota = {a: ft.ContinuousMap(m.dom, candidate, m.assign) for a, m in rep.iota.items()}
            expected = reference_final_topology(candidate, iota, g)
            assert tg.verify_glued(candidate, iota, g)["final_topology"] == expected
            outcomes[candidate is q, expected] += 1
    assert outcomes[True, True] == 1000
    assert outcomes[False, False] >= 300 and outcomes[False, True] >= 300, outcomes


def test_cover_functor_verifies_and_counts_objects():
    # 3-open cover of a 4-point space: 3 + 6 + 3 canonical objects
    x = ft.make_space(4, [[], [0], [1], [0, 1], [0, 2], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]])
    cover = [frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({0, 2})]
    functor, legs = tg.cover_functor(x, cover)
    assert len(functor.objects) == 12
    assert tg.validate_functor(functor)["ok"]
    report = tg.verify_glued(x, legs, functor)
    assert report["verdict"]
    # trivial cover
    g1, legs1 = tg.cover_functor(S, [S.full()])
    assert g1.n == 1
    assert tg.verify_glued(S, legs1, g1)["verdict"]
    # Sierpinski covered by the whole space and the open point
    g2, legs2 = tg.cover_functor(S, [S.full(), frozenset({0})])
    assert tg.verify_glued(S, legs2, g2)["verdict"]
    with pytest.raises(ValidationError):
        tg.cover_functor(S, [frozenset({0})])


def test_mediating_morphism_identity_and_twist():
    g = tg.functor_from_data(two_origins_data())
    rep = tg.standard_representative(g)
    mu = tg.mediating_morphism(tg.TopCone(rep.space, rep.iota), rep, g)
    assert mu.assign == tuple(range(rep.space.n))
    # compose with a homeomorphism: the mediating map recovers it
    rng = random.Random(3)
    copy, back = gen.relabeled_copy(rng, rep.space)
    h = ft.inverse_map(back)
    twisted = {a: ft.compose(h, m) for a, m in rep.iota.items()}
    mu2 = tg.mediating_morphism(tg.TopCone(copy, twisted), rep, g)
    assert mu2.assign == h.assign
    assert tg.count_mediating_functions(tg.TopCone(copy, twisted), rep, g) == 1


def test_mediating_on_random_cones():
    rng = random.Random(23)
    for _ in range(40):
        g = gen.random_top_functor(rng)
        rep = tg.standard_representative(g)
        cone = gen.random_cone(rng, g, rep)
        mu = tg.mediating_morphism(cone, rep, g)
        for i in range(g.n):
            assert ft.compose(mu, rep.iota[single(i)]) == cone.legs[single(i)]
        assert ft.is_continuous(mu)
        assert tg.count_mediating_functions(cone, rep, g) == 1


def reference_count(cone, glued, g):
    """count_mediating_functions by its definition: every function from the
    glued space to the apex, tested against every chart point."""
    count = 0
    for assign in product(range(cone.apex.n), repeat=glued.space.n):
        count += all(
            assign[glued.iota[single(i)](x)] == cone.legs[single(i)](x)
            for i in range(g.n)
            for x in range(g.objects[single(i)].n)
        )
    return count


def with_disagreeing_chart(rng, cone, glued, g):
    """The cone with one chart-leg value changed at a glued point that has
    two chart representatives, so they disagree; None if there is none."""
    reps: dict[int, list[tuple[int, int]]] = {}
    for i in range(g.n):
        for x, p in enumerate(glued.iota[single(i)].assign):
            reps.setdefault(p, []).append((i, x))
    shared = [r for p, r in sorted(reps.items()) if len(r) >= 2]
    if not shared or cone.apex.n < 2:
        return None
    i, x = rng.choice(shared)[-1]
    leg = cone.legs[single(i)]
    assign = list(leg.assign)
    assign[x] = (assign[x] + rng.randrange(1, cone.apex.n)) % cone.apex.n
    legs = dict(cone.legs)
    legs[single(i)] = ft.ContinuousMap(leg.dom, leg.cod, tuple(assign))
    return tg.TopCone(cone.apex, legs)


def test_count_matches_reference_on_seeded_cones():
    rng = random.Random(43)
    compared = disagreeing = 0
    while compared < 1000:
        g = gen.random_top_functor(rng, max_points=4)
        rep = tg.standard_representative(g)
        for _ in range(5):
            cone = gen.random_cone(rng, g, rep)
            if cone.apex.n ** rep.space.n > 4000:
                continue
            for c in (cone, gen.corrupt_cone_legs(rng, g, cone)):
                assert tg.count_mediating_functions(c, rep, g) == reference_count(c, rep, g) == 1
                assert tg.count_mediating_functions(c, rep, g, exhaustive_limit=0) == 1
                compared += 1
            bad = with_disagreeing_chart(rng, cone, rep, g)
            if bad is not None:
                assert reference_count(bad, rep, g) == 0
                assert tg.count_mediating_functions(bad, rep, g) == 0
                assert tg.count_mediating_functions(bad, rep, g, exhaustive_limit=0) == 0
                disagreeing += 1
    assert disagreeing >= 100


def sample_accepts(g, rep, cone):
    """Whether the per-cone check of ``glue verify``'s sample passes."""
    try:
        cli._top_check_cone(g, rep, cone)
    except FalsificationError:
        return False
    return True


def test_sample_accepts_a_cone_exactly_when_one_map_mediates():
    """The sample decides uniqueness from the forced map alone; the brute
    count of mediating functions is the oracle.  Corrupted non-chart legs
    leave the count at 1, and two chart legs sent apart make it 0."""
    rng = random.Random(47)
    outcomes = collections.Counter()
    while sum(outcomes.values()) < 1000:
        g = gen.random_top_functor(rng, max_points=4)
        rep = tg.standard_representative(g)
        for _ in range(5):
            cone = gen.random_cone(rng, g, rep)
            if cone.apex.n ** rep.space.n > 4000:
                continue
            disagreeing = with_disagreeing_chart(rng, cone, rep, g)
            for kind, c in (("cone", cone), ("corrupt", gen.corrupt_cone_legs(rng, g, cone)),
                            ("disagreeing", disagreeing)):
                if c is None:
                    continue
                accepted = sample_accepts(g, rep, c)
                assert accepted == (reference_count(c, rep, g) == 1) == (kind != "disagreeing"), kind
                outcomes[kind] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_overlap_and_triple_image_laws_on_random_instances():
    rng = random.Random(31)
    for _ in range(30):
        g = gen.random_top_functor(rng)
        rep = tg.standard_representative(g)
        report = tg.verify_glued(rep.space, rep.iota, g)
        assert report["overlap_law"] and report["triple_law"]


def test_roundtrip_on_random_instances():
    rng = random.Random(37)
    for _ in range(40):
        g = gen.random_top_functor(rng)
        d = tg.data_from_functor(g)
        g2 = tg.functor_from_data(d)
        assert g2.objects == g.objects and g2.arrows == g.arrows
        d2 = tg.data_from_functor(g2)
        assert d2.spaces == d.spaces and d2.overlaps == d.overlaps
        assert d2.transitions == d.transitions
        assert d2.triple_spaces == d.triple_spaces
        assert d2.triple_projs == d.triple_projs
        assert d2.triple_transitions == d.triple_transitions
