import json
import os
import random
from itertools import permutations

import pytest

from gluekit import abgroups as ab
from gluekit import cli
from gluekit import fintop as ft
from gluekit import generators as gen
from gluekit import intlinalg as il
from gluekit import jsonio
from gluekit import presheaves as ps
from gluekit import sheafglue as sg
from gluekit.errors import FalsificationError, ValidationError
from gluekit.indexcat import generator_path, index_category, single
from test_abgroups import same_element, scale_hom
from test_presheaves import inverse_enriched

Z = ab.free_group(1)


def extend_section(lim, g, i, v, coords):
    """Spread one chart section over V to a compatible family when the
    transition translates determine every component, i.e. when V meets each
    chart inside the overlap with chart i; absent otherwise."""
    v = frozenset(v)
    if any(not (v & g.cover[j]) <= g.cover[i] for j in range(g.n)):
        return None
    coords = tuple(coords)
    pieces = []
    for j in range(g.n):
        w = v & g.cover[j]
        res = g.sheaves[i].res(v & g.cover[i], w)
        pieces.append(g.transition_component(i, j, w)(res(coords)))
    assembled = tuple(x for piece in pieces for x in piece)
    incl = lim.inclusions[v]
    prod = incl.cod
    if prod.ambient == 0:
        return ()
    rel = prod.relations if (prod.relations and prod.relations[0]) else None
    block = incl.matrix if rel is None else il.hstack(incl.matrix, rel)
    sol = il.solve(block, assembled)
    if sol is None:
        return None
    return sol[: incl.dom.ambient]


def two_origins_base():
    return ft.make_space(3, [[], [0], [0, 1], [0, 2], [0, 1, 2]])


def identity_transitions(base, cover, sheaves):
    transitions = {}
    n = len(cover)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ov = cover[i] & cover[j]
            ri = ps.restrict_presheaf(sheaves[i], ov)
            rj = ps.restrict_presheaf(sheaves[j], ov)
            transitions[(i, j)] = ps.EnrichedMorphism(
                ri, rj, {o: ab.id_hom(ri.group(o)) for o in ri.opens()}
            )
    return transitions


def two_origins_sheaf_data():
    base = two_origins_base()
    cover = (frozenset({0, 1}), frozenset({0, 2}))
    sheaves = tuple(ps.locally_constant_sheaf(base, c, Z) for c in cover)
    return sg.SheafGluingData(base, cover, sheaves, identity_transitions(base, cover, sheaves))


def test_single_chart_functor():
    base = two_origins_base()
    cover = (base.full(),)
    sheaves = (ps.locally_constant_sheaf(base, base.full(), Z),)
    data = sg.SheafGluingData(base, cover, sheaves, {})
    functor = sg.sheaf_functor_from_data(data)
    lim = sg.build_limit_sheaf(functor)
    # the limit is the chart itself up to canonical isomorphism
    for v in lim.carrier.opens():
        assert ab.is_iso(lim.projections[0][v])


def test_two_origins_data_functor_and_limit():
    data = two_origins_sheaf_data()
    functor = sg.sheaf_functor_from_data(data)
    lim = sg.build_limit_sheaf(functor)
    # pairs (s1, s2) agreeing over the shared open point: a copy of Z
    assert ab.invariants(lim.carrier.group(data.base.full())) == (1, ())
    assert ps.is_sheaf(lim.carrier) == (True, None)
    assert sg.check_sheaf_cone(lim.carrier, lim.legs, functor)


def test_non_inverse_transitions_rejected():
    base = two_origins_base()
    cover = (frozenset({0, 1}), frozenset({0, 2}))
    sheaves = tuple(ps.locally_constant_sheaf(base, c, Z) for c in cover)
    ov = cover[0] & cover[1]
    r0 = ps.restrict_presheaf(sheaves[0], ov)
    r1 = ps.restrict_presheaf(sheaves[1], ov)
    transitions = {
        (0, 1): ps.EnrichedMorphism(r0, r1, {o: scale_hom(2, ab.id_hom(r0.group(o))) for o in r0.opens()}),
        (1, 0): ps.EnrichedMorphism(r1, r0, {o: scale_hom(3, ab.id_hom(r1.group(o))) for o in r1.opens()}),
    }
    data = sg.SheafGluingData(base, cover, sheaves, transitions)
    with pytest.raises(ValidationError):
        sg.sheaf_functor_from_data(data)


def test_natural_but_not_invertible_transition_is_refused_by_inverse_pair(capsys, tmp_path):
    """Transition (0, 1) doubled at the open point, whose sections are a
    free summand Z: still natural, since the only smaller open has trivial
    sections, but not invertible.  The inverse_pair relation is what
    refuses it."""
    data = two_origins_sheaf_data()
    t = data.transitions[(0, 1)]
    point = frozenset({0})
    doubled = ps.EnrichedMorphism(t.dom, t.cod, {**t.alpha, point: scale_hom(2, t.alpha[point])})
    assert ps.check_enriched_morphism(doubled) == (True, [])
    assert not ab.is_iso(doubled.alpha[point])
    broken = sg.SheafGluingData(data.base, data.cover, data.sheaves, {**data.transitions, (0, 1): doubled})
    with pytest.raises(ValidationError, match="inverse_pair"):
        sg.sheaf_functor_from_data(broken)
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(jsonio.sheaf_data_to_document(broken)))
    assert cli.main(["verify", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["conditions"]["data_valid"] is False


def test_chart_on_the_wrong_open_is_named():
    data = two_origins_sheaf_data()
    wrong = ps.locally_constant_sheaf(data.base, frozenset(), Z)
    moved = sg.SheafGluingData(data.base, data.cover, (data.sheaves[0], wrong), data.transitions)
    with pytest.raises(ValidationError, match="chart 1 does not live on its cover member"):
        sg.sheaf_functor_from_data(moved)


def test_cocycle_corruption_rejected_on_three_charts():
    rng = random.Random(55)
    for _ in range(12):
        base, cover, charts, transitions, _ = gen.random_sheaf_data(rng, max_charts=3)
        if len(cover) < 3:
            continue
        target = None
        for key, iso in transitions.items():
            for o, h in iso.alpha.items():
                if h.dom.ambient:
                    target = (key, o)
                    break
            if target:
                break
        if target is None:
            continue
        key, o = target
        broken = dict(transitions)
        comps = dict(broken[key].alpha)
        comps[o] = scale_hom(2, comps[o])
        broken[key] = ps.EnrichedMorphism(broken[key].dom, broken[key].cod, comps)
        data = sg.SheafGluingData(base, tuple(cover), charts, broken)
        with pytest.raises(ValidationError):
            sg.sheaf_functor_from_data(data)
        return
    raise AssertionError("no corruptible three-chart instance generated")


def test_disjoint_cover_gives_direct_sum():
    base = ft.discrete_space(2)
    cover = (frozenset({0}), frozenset({1}))
    sheaves = tuple(ps.locally_constant_sheaf(base, c, Z) for c in cover)
    data = sg.SheafGluingData(base, cover, sheaves, identity_transitions(base, cover, sheaves))
    functor = sg.sheaf_functor_from_data(data)
    lim = sg.build_limit_sheaf(functor)
    assert ab.invariants(lim.carrier.group(base.full())) == (2, ())
    assert ps.is_sheaf(lim.carrier) == (True, None)


def test_projections_natural_and_retraction_law():
    data = two_origins_sheaf_data()
    functor = sg.sheaf_functor_from_data(data)
    lim = sg.build_limit_sheaf(functor)
    for i in range(functor.n):
        ok, failures = ps.check_enriched_morphism(lim.legs[single(i)])
        assert ok, failures
    # retraction: extending a chart section and projecting recovers it
    for i in range(functor.n):
        for v in lim.carrier.opens():
            if any(not (v & functor.cover[j]) <= functor.cover[i] for j in range(functor.n)):
                continue
            chart_group = functor.sheaves[i].group(v & functor.cover[i])
            probe = tuple(2 for _ in range(chart_group.ambient))
            lifted = extend_section(lim, functor, i, v, probe)
            assert lifted is not None
            back = lim.projections[i][v](lifted)
            assert same_element(chart_group, back, probe)


def test_extend_section_single_chart_is_identity():
    base = two_origins_base()
    cover = (base.full(),)
    sheaves = (ps.locally_constant_sheaf(base, base.full(), Z),)
    functor = sg.sheaf_functor_from_data(sg.SheafGluingData(base, cover, sheaves, {}))
    lim = sg.build_limit_sheaf(functor)
    got = extend_section(lim, functor, 0, base.full(), (7,))
    assert got is not None
    assert lim.projections[0][base.full()](got) == (7,)


def test_extend_section_absent_outside_domain():
    data = two_origins_sheaf_data()
    functor = sg.sheaf_functor_from_data(data)
    lim = sg.build_limit_sheaf(functor)
    # V = whole base: V ∩ U_2 is not inside U_1, so the translate family
    # does not typecheck and the extension is absent
    v = data.base.full()
    chart_group = functor.sheaves[0].group(v & functor.cover[0])
    assert extend_section(lim, functor, 0, v, (1,) * chart_group.ambient) is None


def test_verify_sheaf_glued_self_twisted_and_corrupted():
    rng = random.Random(12)
    data = two_origins_sheaf_data()
    functor = sg.sheaf_functor_from_data(data)
    lim = sg.build_limit_sheaf(functor)
    report = sg.verify_sheaf_glued(lim.carrier, lim.legs, functor, lim)
    assert report["verdict"]
    # twist by a natural automorphism of the carrier
    twist = gen.natural_automorphism(rng, lim.carrier, Z)
    twisted = ps.Presheaf(
        lim.carrier.space,
        lim.carrier.domain,
        dict(lim.carrier.sections),
        {
            (u, v): ab.compose_hom(
                twist.alpha[v],
                ab.compose_hom(lim.carrier.res(u, v), ab.inverse_hom(twist.alpha[u])),
            )
            for u in lim.carrier.opens()
            for v in lim.carrier.opens()
            if v <= u
        },
    )
    inv = inverse_enriched(twist)
    twisted_legs = {
        a: ps.EnrichedMorphism(
            twisted,
            leg.cod,
            {o: ab.compose_hom(leg.alpha[o], inv.alpha[o]) for o in twisted.opens()},
        )
        for a, leg in lim.legs.items()
    }
    report2 = sg.verify_sheaf_glued(twisted, twisted_legs, functor, lim)
    assert report2["verdict"]
    # zero out one projection component: no longer a cone
    broken_legs = dict(lim.legs)
    leg0 = broken_legs[single(0)]
    alpha = dict(leg0.alpha)
    v0 = data.base.full()
    alpha[v0] = ab.zero_hom(leg0.alpha[v0].dom, leg0.alpha[v0].cod)
    broken_legs[single(0)] = ps.EnrichedMorphism(leg0.dom, leg0.cod, alpha)
    report3 = sg.verify_sheaf_glued(lim.carrier, broken_legs, functor, lim)
    assert not report3["cone"] and not report3["verdict"]


def test_limit_universal_property_against_presheaf_cones():
    data = two_origins_sheaf_data()
    functor = sg.sheaf_functor_from_data(data)
    lim = sg.build_limit_sheaf(functor)
    cones = 0
    for m in (0, 1, 2, 3):
        # scaling endomorphisms of the limit give presheaf cones
        theta = {o: scale_hom(m, ab.id_hom(lim.carrier.group(o))) for o in lim.carrier.opens()}
        legs = {
            a: ps.EnrichedMorphism(
                lim.carrier,
                leg.cod,
                {o: ab.compose_hom(leg.alpha[o], theta[o]) for o in lim.carrier.opens()},
            )
            for a, leg in lim.legs.items()
        }
        assert sg.check_sheaf_cone(lim.carrier, legs, functor)
        comps = sg.mediating_into_limit(lim.carrier, legs, lim, functor)
        assert comps is not None
        for o in lim.carrier.opens():
            # the mediating component recovers the scaling, uniquely
            assert ab.same_hom(comps[o], theta[o])
            assert ab.same_hom(
                ab.compose_hom(lim.projections[0][o], comps[o]), legs[single(0)].alpha[o]
            )
        cones += 1
    assert cones == 4


def test_sheaf_recovery_sanity_law():
    # restrictions of a sheaf glued back along its own cover recover it
    base = ft.make_space(3, [[], [0], [1], [0, 1], [0, 1, 2]])
    sheaf = ps.locally_constant_sheaf(base, base.full(), ab.group_from_invariants(1, (2,)))
    cover = (frozenset({0, 1}), base.full())
    charts = tuple(ps.restrict_presheaf(sheaf, c) for c in cover)
    data = sg.SheafGluingData(base, cover, charts, identity_transitions(base, cover, charts))
    functor = sg.sheaf_functor_from_data(data)
    lim = sg.build_limit_sheaf(functor)
    legs = {}
    for a, lim_leg in lim.legs.items():
        i = a.apex
        comps = {
            o: ps.restrict_presheaf(sheaf, lim_leg.cod.domain).res(o & lim_leg.cod.domain, o & lim_leg.cod.domain)
            for o in sheaf.opens()
        }
        legs[a] = ps.EnrichedMorphism(
            sheaf,
            lim_leg.cod,
            {o: sheaf.res(o, o & lim_leg.cod.domain) for o in sheaf.opens()},
        )
    report = sg.verify_sheaf_glued(sheaf, legs, functor, lim)
    assert report["verdict"]


def test_random_sheaf_roundtrip_and_limits():
    rng = random.Random(77)
    for _ in range(8):
        base, cover, charts, transitions, _ = gen.random_sheaf_data(rng)
        data = sg.SheafGluingData(base, tuple(cover), charts, transitions)
        functor = sg.sheaf_functor_from_data(data)
        assert functor is data
        lim = sg.build_limit_sheaf(functor)
        assert ps.is_sheaf(lim.carrier)[0]
        assert sg.verify_sheaf_glued(lim.carrier, lim.legs, functor, lim)["verdict"]


# --- oracle: the cone check morphism by morphism --------------------------

def arrow_image(g, a, b):
    """Image of the unique morphism a -> b, composed along the generator path."""
    if a == b:
        return ps.identity_enriched(g.obj(a))
    path = generator_path(g.n, a, b)
    if path is None:
        raise ValidationError(f"no morphism {a} -> {b}")
    img = g.gen_image(path[0])
    for arrow in path[1:]:
        img = ps.compose_enriched(g.gen_image(arrow), img)
    return img


def reference_check_sheaf_cone(apex, legs, g):
    """Full-diagram cone check: every index-category morphism commutes."""
    objs = index_category(g.n).objects
    if any(a not in legs for a in objs):
        return False
    for a in objs:
        for b in objs:
            if generator_path(g.n, a, b) is None:
                continue
            composite = ps.compose_enriched(arrow_image(g, a, b), legs[a])
            if not ps.same_enriched(composite, legs[b]):
                return False
    return True


def with_one_component_changed(rng, legs, change):
    """The legs with one component h, chosen among those where change(h)
    is a different hom, replaced by change(h); unchanged when there is none."""
    spots = [
        (a, w)
        for a, leg in legs.items()
        for w in sorted(leg.alpha, key=lambda o: (len(o), sorted(o)))
        if not ab.same_hom(change(leg.alpha[w]), leg.alpha[w])
    ]
    if not spots:
        return legs
    a, w = rng.choice(spots)
    leg = legs[a]
    alpha = dict(leg.alpha)
    alpha[w] = change(alpha[w])
    return {**legs, a: ps.EnrichedMorphism(leg.dom, leg.cod, alpha)}


def extended_from_charts(g, legs):
    """The chart legs, with the leg at every other object a composed from
    the chart leg at its apex along the morphism [apex] -> a."""
    charts = [legs[single(i)] for i in range(g.n)]
    return {a: ps.compose_enriched(arrow_image(g, single(a.apex), a), charts[a.apex])
            for a in index_category(g.n).objects}


def zeroed(h):
    return ab.zero_hom(h.dom, h.cod)


def test_generator_cone_check_matches_all_morphism_oracle():
    rng = random.Random(606)
    non_cones = 0
    for _ in range(300):
        base, cover, charts, transitions, _ = gen.random_sheaf_data(rng, max_points=5, max_rank=2)
        functor = sg.sheaf_functor_from_data(sg.SheafGluingData(base, tuple(cover), charts, transitions))
        lim = sg.build_limit_sheaf(functor)
        chart_legs = {single(i): lim.legs[single(i)] for i in range(functor.n)}
        families = [
            lim.legs,
            with_one_component_changed(rng, lim.legs, zeroed),
            with_one_component_changed(rng, lim.legs, lambda h: scale_hom(2, h)),
            # commutes with every arrow out of a chart; only the transitions can tell
            extended_from_charts(functor, with_one_component_changed(rng, chart_legs, zeroed)),
            # the triple legs still agree among themselves; only the triple inclusions can tell
            {a: leg if a.kind != "triple" else ps.EnrichedMorphism(
                leg.dom, leg.cod, {w: scale_hom(2, h) for w, h in leg.alpha.items()})
             for a, leg in lim.legs.items()},
        ]
        for k, legs in enumerate(families):
            verdict = sg.check_sheaf_cone(lim.carrier, legs, functor)
            assert verdict == reference_check_sheaf_cone(lim.carrier, legs, functor)
            assert verdict or k > 0
            non_cones += not verdict
    assert non_cones >= 300


# --- oracle: the inverse and cocycle loops the generator relations replaced

def reference_transition_law_failures(data):
    """The inverse and cocycle loops sheaf_functor_from_data ran before the
    generator relations ``inverse_pair`` and ``triple_composition`` were
    the only check of those laws."""
    problems = []
    for i, j in permutations(range(data.n), 2):
        fwd, bwd = data.transitions[(i, j)], data.transitions[(j, i)]
        for w in fwd.dom.opens():
            comp = ab.compose_hom(bwd.alpha[w], fwd.alpha[w])
            if not ab.same_hom(comp, ab.id_hom(fwd.dom.group(w))):
                problems.append(f"transitions ({i},{j}),({j},{i}) are not mutually inverse at {sorted(w)}")
    for i, j, k in permutations(range(data.n), 3):
        zone = data.cover[i] & data.cover[j] & data.cover[k]
        for w in ps.opens_below(data.base, zone):
            lhs = ab.compose_hom(
                data.transitions[(j, k)].alpha[w],
                data.transitions[(i, j)].alpha[w],
            )
            if not ab.same_hom(lhs, data.transitions[(i, k)].alpha[w]):
                problems.append(f"cocycle fails at ({i},{j},{k}) on {sorted(w)}")
    return problems


def negated(transitions, keys):
    """The transitions with every component of those at ``keys`` negated:
    each stays a natural isomorphism."""
    out = dict(transitions)
    for key in keys:
        iso = out[key]
        out[key] = ps.EnrichedMorphism(iso.dom, iso.cod, {w: scale_hom(-1, h) for w, h in iso.alpha.items()})
    return out


def test_generator_relations_match_inverse_and_cocycle_oracle():
    rng = random.Random(7)
    failures = {"one_negated": 0, "mirror_pair_negated": 0}
    for _ in range(150):
        base, cover, charts, transitions, _ = gen.random_sheaf_data(rng, max_charts=3, max_rank=2)
        families = {"unchanged": transitions}
        if transitions:
            i, j = rng.choice(sorted(transitions))
            families["one_negated"] = negated(transitions, [(i, j)])
            families["mirror_pair_negated"] = negated(transitions, [(i, j), (j, i)])
        for family, trans in families.items():
            data = sg.SheafGluingData(base, tuple(cover), charts, trans)
            expected = reference_transition_law_failures(data)
            try:
                sg.sheaf_functor_from_data(data)
                raised = False
            except ValidationError:
                raised = True
            assert raised == bool(expected), (family, expected)
            if family in failures:
                failures[family] += raised
            else:
                assert not raised
    assert min(failures.values()) >= 30, failures


def test_law_failure_of_the_limit_presheaf_is_a_falsification(capsys, monkeypatch):
    """The chart sheaves live below their cover opens and the limit on the
    whole 3-point space: failing the presheaf laws only on the latter is a
    fault of the construction."""
    real = ps.presheaf_law_failures

    def fail_on_limit(opens, *args):
        return ["forced law failure"] if frozenset({0, 1, 2}) in opens else real(opens, *args)

    functor = sg.sheaf_functor_from_data(two_origins_sheaf_data())
    monkeypatch.setattr(ps, "presheaf_law_failures", fail_on_limit)
    with pytest.raises(FalsificationError, match="forced law failure"):
        sg.build_limit_sheaf(functor)
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "two_origins_sheaf.json")
    assert cli.main(["verify", path]) == 3
    assert "forced law failure" in capsys.readouterr().err
