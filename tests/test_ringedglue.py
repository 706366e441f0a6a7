import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product as iproduct

import pytest

from gluekit import abgroups as ab
from gluekit import cli
from gluekit import fintop as ft
from gluekit import generators as gen
from gluekit import intlinalg as il
from gluekit import jsonio
from gluekit import presheaves as ps
from gluekit import rings as rg
from gluekit import ringedglue as rgl
from gluekit import sheafglue as sg
from gluekit import topglue as tg
from gluekit.errors import FalsificationError, ValidationError
from gluekit.indexcat import single
from test_abgroups import same_element
from test_fintop import indiscrete_space, sierpinski
from test_presheaves import every_cover, irredundant_covers, random_space, random_support
from test_rings import reference_pairing_into, reference_product_ring, relabeled

S = sierpinski()


# --- stalk, additive-group and sheaf-side helpers the tests read; the
# --- pipeline never runs them

@dataclass
class Stalk:
    minimal_open: ft.Open
    ring: rg.FinCommRing
    germ_maps: dict


def stalk_at(space, x):
    """The stalk at a point as a colimit: the sections over the point's
    minimal open, with the restrictions from every neighbourhood as the
    germ maps.  The program reads only the ring, as the ring over the
    minimal open."""
    if not 0 <= x < space.top.n:
        raise ValidationError("point outside the space")
    ux = ft.minimal_open(space.top, x)
    germ = {u: space.res(u, ux) for u in space.top.sorted_opens if x in u}
    return Stalk(ux, space.ring(ux), germ)


def restrict_ringed(space, v):
    """Ringed subspace on an open, with the local-to-ambient point list,
    built from the ambient sections and restrictions open by open."""
    v = frozenset(v)
    if v not in space.top.opens:
        raise ValidationError("can only restrict to an open")
    pts = sorted(v)
    sub = ft.subspace(space.top, pts)
    ambient_of = {o: frozenset(pts[k] for k in o) for o in sub.sorted_opens}
    sections = {o: space.ring(ambient_of[o]) for o in sub.sorted_opens}
    restr = {
        (u, w): space.res(ambient_of[u], ambient_of[w])
        for u in sub.sorted_opens for w in sub.sorted_opens if w <= u
    }
    return rgl.RingedSpace(sub, sections, restr), pts


def inclusion_rsm(space, v):
    """The restriction of a ringed space to an open, as a morphism."""
    sub, pts = restrict_ringed(space, v)
    return rgl.restriction_rsm(space, sub, ft.ContinuousMap(sub.top, space.top, tuple(pts)))


def is_stalk_cocone(space, x, target, maps):
    """Does the family commute with every restriction between
    neighbourhoods of the point?"""
    neigh = [u for u in space.top.sorted_opens if x in u]
    for u in neigh:
        h = maps.get(u)
        if h is None or h.dom != space.ring(u) or h.cod != target or not rg.is_ring_hom(h):
            return False
    for u in neigh:
        for v in neigh:
            if v <= u:
                if rg.compose_ring_hom(maps[v], space.res(u, v)) != maps[u]:
                    return False
    return True


def stalk_mediator(stalk, target, maps):
    """The unique hom out of the stalk commuting with the germ maps: it is
    forced by the component at the minimal open."""
    return maps[stalk.minimal_open]


def additive_order(ring, a):
    k, cur = 1, a
    while cur != ring.zero:
        cur = ring.add[cur][a]
        k += 1
    return k


def additive_group_presentation(ring):
    """Present the additive group of a table ring.

    Returns (group, coordinates per element, generator elements).
    Generators are chosen greedily by decreasing additive order; relations
    are the box combinations that vanish plus one order relation per
    generator.
    """
    q = ring.order
    gens = []
    span = {ring.zero}
    by_order = sorted(ring.elements(), key=lambda a: -additive_order(ring, a))
    for a in by_order:
        if a in span:
            continue
        gens.append(a)
        new_span = set()
        for s in span:
            cur = s
            while True:
                new_span.add(cur)
                cur = ring.add[cur][a]
                if cur == s:
                    break
        span = new_span
        if len(span) == q:
            break
    orders = [additive_order(ring, g) for g in gens]
    coords = {}
    rel_cols = []
    for combo in iproduct(*(range(o) for o in orders)) if gens else [()]:
        elem = ring.zero
        for g, c in zip(gens, combo):
            for _ in range(c):
                elem = ring.add[elem][g]
        if elem not in coords:
            coords[elem] = tuple(combo)
        if elem == ring.zero and any(combo):
            rel_cols.append(tuple(combo))
    k = len(gens)
    for i, o in enumerate(orders):
        rel_cols.append(tuple(o if j == i else 0 for j in range(k)))
    group = ab.FgAbGroup(k, il.from_columns(rel_cols, k) if rel_cols else ())
    return group, coords, gens


def additive_hom_matrix(h, dom_pres, cod_pres):
    """The additive part of a ring hom in presented coordinates."""
    dom_group, _, dom_gens = dom_pres
    cod_group, cod_coords, _ = cod_pres
    cols = [cod_coords[h.assign[g]] for g in dom_gens]
    mat = il.from_columns(cols, cod_group.ambient) if cols else ()
    return ab.AbHom(dom_group, cod_group, mat)


def induced_sheaf_functor(g, glued):
    """Push each chart sheaf forward onto its image in the glued space and
    package the transitions as an abelian-group sheaf gluing functor over
    the image cover; the result passes the sheaf-glue validator."""
    q = glued.space.top
    legs = glued.top_legs
    cover = tuple(legs[i].image_of(range(g.charts[i].top.n)) for i in range(g.n))
    pres_cache = {}

    def pres(i, w):
        if (i, w) not in pres_cache:
            pres_cache[(i, w)] = additive_group_presentation(g.charts[i].ring(w))
        return pres_cache[(i, w)]

    sheaves = []
    for i in range(g.n):
        opens = ps.opens_below(q, cover[i])
        sections = {o: pres(i, legs[i].preimage_of(o))[0] for o in opens}
        restrictions = {}
        for u in opens:
            for v in opens:
                if not v <= u:
                    continue
                pu = legs[i].preimage_of(u)
                pv = legs[i].preimage_of(v)
                restrictions[(u, v)] = additive_hom_matrix(g.charts[i].res(pu, pv), pres(i, pu), pres(i, pv))
        sheaves.append(ps.make_presheaf(q, cover[i], sections, restrictions))
    transitions = {}
    for i, j in permutations(range(g.n), 2):
        overlap = cover[i] & cover[j]
        dom = ps.restrict_presheaf(sheaves[i], overlap)
        cod = ps.restrict_presheaf(sheaves[j], overlap)
        comps = {}
        for w in dom.opens():
            wi = legs[i].preimage_of(w)
            comps[w] = additive_hom_matrix(g.transport(i, j, wi), pres(i, wi), pres(j, legs[j].preimage_of(w)))
        transitions[(i, j)] = ps.EnrichedMorphism(dom, cod, comps)
    return sg.sheaf_functor_from_data(sg.SheafGluingData(q, cover, tuple(sheaves), transitions))


def two_origins_ringed(base_ring=None, variant="lrts"):
    chart = gen.locally_constant_ringed(S, base_ring or rg.zmod(4))
    ov = frozenset({0})
    transports = {
        key: {
            frozenset(): rg.identity_ring_hom(chart.ring(frozenset())),
            ov: rg.identity_ring_hom(chart.ring(ov)),
        }
        for key in [(0, 1), (1, 0)]
    }
    return rgl.RingedGluingFunctor(
        variant, (chart, chart),
        {(0, 1): ov, (1, 0): ov},
        {(0, 1): {0: 0}, (1, 0): {0: 0}},
        transports,
    )


def ring_failures_on_covers(space, covers):
    """The ring sheaf axioms over ``covers(space.top, v)`` for each open v,
    decided by enumeration; the first failure, identity before gluing."""
    if space.sections[frozenset()].order != 1:
        return ["sections over the empty set are not the zero ring"]
    for v in space.top.sorted_opens:
        if not v:
            continue
        for cover in covers(space.top, v):
            restricted = {tuple(space.res(v, c)(s) for c in cover) for s in space.ring(v).elements()}
            if len(restricted) < space.ring(v).order:
                return [f"identity axiom fails over {sorted(v)}"]
            for combo in iproduct(*(space.ring(c).elements() for c in cover)):
                if combo not in restricted and all(
                    space.res(a, a & b)(x) == space.res(b, a & b)(y)
                    for (a, x), (b, y) in combinations(zip(cover, combo), 2)
                ):
                    return [f"gluing axiom fails over {sorted(v)}"]
    return []


def coordinate_ringed(space, support):
    """F(V) = (Z/2)^{f(V)} as a product ring, restrictions the coordinate
    projections; unchecked, so that non-sheaves can be built."""
    rings = {k: rg.compatible_subring([rg.zmod(2)] * k, ()) for k in {len(c) for c in support.values()}}
    opens = space.sorted_opens
    sections = {o: rings[len(support[o])][0] for o in opens}
    restr = {}
    for u in opens:
        ring_u, _, proj_u = rings[len(support[u])]
        for v in opens:
            if not v <= u:
                continue
            ring_v, members_v, _ = rings[len(support[v])]
            index_v = {t: e for e, t in enumerate(members_v)}
            keep = [support[u].index(d) for d in support[v]]
            assign = tuple(index_v[tuple(proj_u[k](e) for k in keep)] for e in ring_u.elements())
            restr[(u, v)] = rg.RingHom(ring_u, ring_v, assign)
    return rgl.RingedSpace(space, sections, restr)


def constant_ringed(space, ring):
    """The ring on every nonempty open with identity restrictions: a sheaf
    only when every open is connected."""
    sections = {o: (ring if o else rg.zmod(1)) for o in space.sorted_opens}
    restr = {}
    for u in space.sorted_opens:
        for v in space.sorted_opens:
            if v <= u:
                if sections[u] == sections[v]:
                    restr[(u, v)] = rg.identity_ring_hom(sections[u])
                else:
                    restr[(u, v)] = rg.RingHom(sections[u], sections[v], (0,) * sections[u].order)
    return rgl.RingedSpace(space, sections, restr)


def test_make_ring_validation():
    r = rg.make_ring([[0, 1], [1, 0]], [[0, 0], [0, 1]], one=1)
    assert r.order == 2
    with pytest.raises(ValidationError, match="unity"):
        rg.make_ring([[0, 1], [1, 0]], [[0, 0], [0, 0]], one=1)
    with pytest.raises(ValidationError, match="commutative|associative|distributivity"):
        rg.make_ring([[0, 1], [0, 0]], [[0, 0], [0, 1]], one=1)


def test_locality_examples():
    assert rg.is_local_ring(rg.zmod(2))
    assert rg.is_local_ring(rg.zmod(4))
    assert not rg.is_local_ring(rg.zmod(6))
    assert not rg.is_local_ring(rg.zmod(1))
    prod = rg.compatible_subring([rg.zmod(2), rg.zmod(2)], ())[0]
    assert not rg.is_local_ring(prod)


def test_ring_json_roundtrip():
    r = rg.zmod(4)
    assert rg.ring_from_json(rg.ring_to_json(r)) == r


def test_additive_presentation_matches_structure():
    for n in (1, 2, 3, 4, 6, 8):
        ring = rg.zmod(n)
        group, coords, gens = additive_group_presentation(ring)
        expected = (0, (n,)) if n > 1 else (0, ())
        assert ab.invariants(group) == expected
        for a in ring.elements():
            for b in ring.elements():
                ca, cb = coords[a], coords[b]
                csum = tuple(x + y for x, y in zip(ca, cb))
                assert same_element(group, csum, coords[ring.add[a][b]])
    prod = rg.compatible_subring([rg.zmod(2), rg.zmod(2)], ())[0]
    group, _, _ = additive_group_presentation(prod)
    assert ab.invariants(group) == (0, (2, 2))


def test_ringed_space_and_sheaf_condition():
    chart = gen.locally_constant_ringed(S, rg.zmod(4))
    assert rgl.ring_sheaf_failures(chart) == []
    disc = ft.discrete_space(2)
    # constant (not locally constant) sections fail gluing on a discrete space
    sections = {o: (rg.zmod(2) if o else rg.zmod(1)) for o in disc.sorted_opens}
    restr = {}
    for u in disc.sorted_opens:
        for v in disc.sorted_opens:
            if v <= u:
                if sections[u] == sections[v]:
                    restr[(u, v)] = rg.identity_ring_hom(sections[u])
                else:
                    restr[(u, v)] = rg.RingHom(sections[u], sections[v], (0,) * sections[u].order)
    with pytest.raises(ValidationError, match="gluing"):
        rgl.make_ringed_space(disc, sections, restr)


def test_stalks_on_sierpinski():
    chart = gen.locally_constant_ringed(S, rg.zmod(4))
    st_open = stalk_at(chart, 0)
    assert st_open.minimal_open == frozenset({0})
    st_closed = stalk_at(chart, 1)
    assert st_closed.minimal_open == frozenset({0, 1})
    pt = ft.point_space()
    one = gen.locally_constant_ringed(pt, rg.zmod(3))
    st = stalk_at(one, 0)
    assert st.ring == one.ring(pt.full())


def test_stalk_colimit_universal_property():
    chart = gen.locally_constant_ringed(S, rg.zmod(4))
    for x in range(S.n):
        stalk = stalk_at(chart, x)
        # the germ family itself is a co-cone with identity mediator
        assert is_stalk_cocone(chart, x, stalk.ring, stalk.germ_maps)
        med = stalk_mediator(stalk, stalk.ring, stalk.germ_maps)
        assert med == rg.identity_ring_hom(stalk.ring)
        # co-cones through smaller opens: restriction families
        for w in chart.top.sorted_opens:
            if not w <= stalk.minimal_open:
                continue
            maps = {
                u: chart.res(u, w)
                for u in chart.top.sorted_opens
                if x in u
            }
            assert is_stalk_cocone(chart, x, chart.ring(w), maps)
            med = stalk_mediator(stalk, chart.ring(w), maps)
            # mediator commutes with every germ map and is forced
            for u, m in maps.items():
                assert rg.compose_ring_hom(med, stalk.germ_maps[u]) == m
        # corrupted families are rejected
        if stalk.ring.order > 1:
            broken = dict(stalk.germ_maps)
            u0 = next(iter(broken))
            assign = list(broken[u0].assign)
            assign[0], assign[1] = assign[1], assign[0]
            broken[u0] = rg.RingHom(broken[u0].dom, broken[u0].cod, tuple(assign))
            assert not is_stalk_cocone(chart, x, stalk.ring, broken)


def test_stalk_cocone_sampling():
    rng = random.Random(2)
    chart = gen.locally_constant_ringed(S, rg.zmod(4))
    checked = 0
    for _ in range(50):
        x = rng.randrange(S.n)
        stalk = stalk_at(chart, x)
        opens_w = [w for w in chart.top.sorted_opens if w <= stalk.minimal_open]
        w = rng.choice(opens_w)
        maps = {u: chart.res(u, w) for u in chart.top.sorted_opens if x in u}
        if rng.random() < 0.5 or chart.ring(w).order == 1:
            assert is_stalk_cocone(chart, x, chart.ring(w), maps)
        else:
            u0 = rng.choice(sorted(maps, key=sorted))
            assign = list(maps[u0].assign)
            k = rng.randrange(len(assign))
            assign[k] = (assign[k] + 1) % chart.ring(w).order
            maps[u0] = rg.RingHom(maps[u0].dom, maps[u0].cod, tuple(assign))
            assert not is_stalk_cocone(chart, x, chart.ring(w), maps)
        checked += 1
    assert checked == 50


def test_stalk_hom_examples():
    chart = gen.locally_constant_ringed(S, rg.zmod(4))
    ident = rgl.identity_rsm(chart)
    assert rgl.check_rsm(ident)
    for x in range(S.n):
        assert rgl.stalk_hom(ident, x) == rg.identity_ring_hom(stalk_at(chart, x).ring)
        assert rgl.stalk_hom_well_defined(ident, x)
    # restriction to the open point: stalk map there is an isomorphism
    m = inclusion_rsm(chart, frozenset({0}))
    sub = m.cod
    assert rgl.check_rsm(m)
    assert rg.is_ring_iso(rgl.stalk_hom(m, 0))
    assert rgl.stalk_hom_well_defined(m, 0)
    # composite of two restrictions equals the composed stalk maps
    m2 = inclusion_rsm(sub, sub.top.full())
    comp = rgl.compose_rsm(m2, m)
    assert rgl.check_rsm(comp)
    got = rgl.stalk_hom(comp, 0)
    expected = rg.compose_ring_hom(rgl.stalk_hom(m2, 0), rgl.stalk_hom(m, 0))
    assert got == expected


def test_two_origins_ringed_gluing():
    g = two_origins_ringed()
    report = rgl.validate_ringed_functor(g)
    assert report["ok"], report
    glued = rgl.glue_ringed(g)
    assert glued.space.top.n == 3 and len(glued.space.top.opens) == 5
    full = glued.space.top.full()
    assert glued.space.ring(full).order == 4
    for x in range(3):
        st = stalk_at(glued.space, x)
        assert st.ring.order == 4 and rg.is_local_ring(st.ring)
    vr = rgl.verify_ringed_glued(glued.space, glued.legs, g, glued)
    assert vr["verdict"], vr


def test_single_chart_glues_to_itself():
    chart = gen.locally_constant_ringed(S, rg.zmod(4))
    g = rgl.RingedGluingFunctor("rts", (chart,), {}, {}, {})
    glued = rgl.glue_ringed(g)
    assert glued.space.top.n == chart.top.n
    for v in glued.space.top.sorted_opens:
        assert rg.is_ring_iso(glued.legs[0].sheaf[v])


def test_disjoint_charts_glue_to_product():
    pt = ft.point_space()
    c1 = gen.locally_constant_ringed(pt, rg.zmod(2))
    c2 = gen.locally_constant_ringed(pt, rg.zmod(3))
    empty_hom_12 = rg.RingHom(c1.ring(frozenset()), c2.ring(frozenset()), (0,))
    empty_hom_21 = rg.RingHom(c2.ring(frozenset()), c1.ring(frozenset()), (0,))
    g = rgl.RingedGluingFunctor(
        "rts", (c1, c2),
        {(0, 1): frozenset(), (1, 0): frozenset()},
        {(0, 1): {}, (1, 0): {}},
        {(0, 1): {frozenset(): empty_hom_12}, (1, 0): {frozenset(): empty_hom_21}},
    )
    glued = rgl.glue_ringed(g)
    assert glued.space.top.n == 2
    assert glued.space.ring(glued.space.top.full()).order == 6


def test_lrts_rejects_non_local_chart():
    g = two_origins_ringed(base_ring=rg.zmod(6), variant="lrts")
    report = rgl.validate_ringed_functor(g)
    assert not report["ok"]
    assert report["locality"]
    # glue_ringed validates on its own
    with pytest.raises(ValidationError, match="invalid ringed gluing data"):
        rgl.glue_ringed(g)
    # as plain rts the same data is fine
    g2 = two_origins_ringed(base_ring=rg.zmod(6), variant="rts")
    assert rgl.validate_ringed_functor(g2)["ok"]
    glued = rgl.glue_ringed(g2)
    assert glued.space.ring(glued.space.top.full()).order == 6


def verify_ringed_document(tmp_path, capsys, g):
    path = tmp_path / "ringed.json"
    path.write_text(json.dumps(jsonio.ringed_functor_to_document(g)))
    code = cli.main(["verify", str(path)])
    return code, capsys.readouterr()


def test_invalid_ringed_document_fails_verification(tmp_path, capsys):
    code, captured = verify_ringed_document(tmp_path, capsys, two_origins_ringed(rg.zmod(6), "lrts"))
    assert code == 1
    report = json.loads(captured.out)
    assert report["conditions"] == {"data_valid": False} and report["verdict"] is False


def test_refusal_of_valid_ringed_data_is_input_error(tmp_path, capsys, monkeypatch):
    def refuse(g):
        raise ValidationError("glued sections too large to enumerate")

    monkeypatch.setattr(rgl, "glue_ringed", refuse)
    code, captured = verify_ringed_document(tmp_path, capsys, two_origins_ringed())
    assert code == 2
    assert "too large" in captured.err


def test_sch_variant_unsupported():
    """The document parser refuses the scheme variant; to the library it is
    an unknown variant."""
    g = two_origins_ringed(variant="sch")
    report = rgl.validate_ringed_functor(g)
    assert not report["ok"] and report["shape"] == ["unknown variant 'sch'"]
    with pytest.raises(ValidationError, match="unknown variant 'sch'"):
        rgl.glue_ringed(g)


def test_ringed_data_is_validated_once_per_run(tmp_path, capsys, monkeypatch):
    """Valid or not, a ringed document's functor is validated once, however
    often the pipeline reads the report."""
    calls = []
    real = rgl._validate

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(rgl, "_validate", counting)
    for g, expected in ((two_origins_ringed(), 0), (two_origins_ringed(rg.zmod(6), "lrts"), 1)):
        calls.clear()
        code, captured = verify_ringed_document(tmp_path, capsys, g)
        assert code == expected, captured.err
        assert len(calls) == 1


def test_induced_functors_valid():
    g = two_origins_ringed()
    top = rgl.induced_top_functor(g)
    from gluekit import topglue as tg

    assert tg.validate_functor(top)["ok"]
    glued = rgl.glue_ringed(g)
    sheaf_side = induced_sheaf_functor(g, glued)
    lim = sg.build_limit_sheaf(sheaf_side)
    assert ps.is_sheaf(lim.carrier)[0]
    # additive invariants of the group limit match the ring orders
    for v in glued.space.top.sorted_opens:
        order = glued.space.ring(v).order
        free, torsion = ab.invariants(lim.carrier.group(v))
        assert free == 0
        total = 1
        for d in torsion:
            total *= d
        assert total == order


def test_verify_rejects_indiscrete_candidate():
    g = two_origins_ringed()
    glued = rgl.glue_ringed(g)
    blurred_top = indiscrete_space(glued.space.top.n)
    sections = {o: glued.space.ring(frozenset(range(glued.space.top.n)) if o else frozenset())
                for o in blurred_top.sorted_opens}
    restr = {}
    for u in blurred_top.sorted_opens:
        for v in blurred_top.sorted_opens:
            if v <= u:
                if sections[u] == sections[v]:
                    restr[(u, v)] = rg.identity_ring_hom(sections[u])
                else:
                    restr[(u, v)] = rg.RingHom(sections[u], sections[v], (0,) * sections[u].order)
    candidate = rgl.RingedSpace(blurred_top, sections, restr)
    legs_top = {
        i: ft.ContinuousMap(g.charts[i].top, blurred_top, glued.top_legs[i].assign)
        for i in range(g.n)
    }
    legs_sheaf = {
        i: {
            o: glued.legs[i].sheaf[frozenset(range(glued.space.top.n)) if o else frozenset()]
            for o in blurred_top.sorted_opens
        }
        for i in range(g.n)
    }
    legs = {i: rgl.RingedSpaceMorphism(candidate, g.charts[i], legs_top[i], legs_sheaf[i]) for i in range(g.n)}
    report = rgl.verify_ringed_glued(candidate, legs, g, glued)
    assert not report["verdict"]


def test_random_ringed_instances_executed_laws():
    rng = random.Random(41)
    for k in range(10):
        variant = "lrts" if k % 2 == 0 else "rts"
        g = gen.random_ringed_functor(rng, variant)
        assert rgl.validate_ringed_functor(g)["ok"]
        glued = rgl.glue_ringed(g)  # runs the executed stalk checks
        vr = rgl.verify_ringed_glued(glued.space, glued.legs, g, glued)
        assert vr["verdict"], vr
        if variant == "lrts":
            for x in range(glued.space.top.n):
                assert rg.is_local_ring(stalk_at(glued.space, x).ring)


def test_ring_minimal_cover_decides_like_the_bounded_family_and_all_covers():
    rng = random.Random(21)
    axioms = {"identity": 0, "gluing": 0}
    oracle_runs = 0
    for k in range(1000):
        space = random_space(rng)
        kind = k % 5
        if kind < 3:
            ringed = coordinate_ringed(space, random_support(rng, space, rng.randint(1, 3)))
        elif kind == 3:
            ringed = constant_ringed(space, rg.zmod(2))
        else:
            ringed = gen.locally_constant_ringed(space, rg.zmod(2))
        got = rgl.ring_sheaf_failures(ringed)
        assert got == ring_failures_on_covers(ringed, irredundant_covers), (space, k)
        if got:
            axioms[got[0].split()[0]] += 1
        if len(space.opens) <= 6:
            oracle_runs += 1
            assert (got == []) == (ring_failures_on_covers(ringed, every_cover) == []), (space, k)
    assert axioms["identity"] >= 100 and axioms["gluing"] >= 100, axioms
    assert oracle_runs >= 500, oracle_runs


def reference_glued_members(g, pre):
    """The product filter glue_ringed used before the join: every tuple of
    chart sections, kept when each ordered pair of charts agrees through
    its transport."""
    parts = [g.charts[i].ring(pre[i]) for i in range(g.n)]
    keep = []
    for combo in iproduct(*(r.elements() for r in parts)):
        ok = True
        for i, j in permutations(range(g.n), 2):
            w = pre[i] & g.overlaps[(i, j)]
            lhs = g.transport(i, j, w)(g.charts[i].res(pre[i], w)(combo[i]))
            rhs = g.charts[j].res(pre[j], g.top_image(i, j, w))(combo[j])
            if lhs != rhs:
                ok = False
                break
        if ok:
            keep.append(combo)
    return keep


def scrambled_transports(rng, g):
    """The same chart data with every transport replaced by a random map of
    the right type, drawn independently for (i, j) and (j, i)."""
    transports = {
        key: {
            w: rg.RingHom(h.dom, h.cod, tuple(rng.randrange(h.cod.order) for _ in h.dom.elements()))
            for w, h in comps.items()
        }
        for key, comps in g.transports.items()
    }
    return rgl.RingedGluingFunctor(g.variant, g.charts, g.overlaps, g.trans_top, transports)


def test_compatible_families_match_the_product_filter():
    rng = random.Random(43)
    kept = 0
    for _ in range(400):
        orders = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        agreements = []
        for a, b in permutations(range(len(orders)), 2):
            if rng.random() < 0.5:
                m = rng.randint(1, 3)
                fa = tuple(rng.randrange(m) for _ in range(orders[a]))
                fb = tuple(rng.randrange(m) for _ in range(orders[b]))
                agreements.append((a, b, fa, fb))
        expected = [
            x for x in iproduct(*(range(o) for o in orders))
            if all(fa[x[a]] == fb[x[b]] for a, b, fa, fb in agreements)
        ]
        assert rg.compatible_families(orders, agreements) == expected, (orders, agreements)
        kept += len(expected)
    assert kept > 1000


def glued_families(g, pre):
    """The glued sections' members over an open whose preimage in chart i is
    ``pre[i]``, from the join alone, which needs no ring laws."""
    orders = [g.charts[i].ring(p).order for i, p in enumerate(pre)]
    return rg.compatible_families(orders, rgl.glued_agreements(g, pre))


def test_glued_families_match_the_product_filter():
    """On valid chart data, and on the same data with transports that are
    neither homs nor inverse to each other, so that each direction of
    every overlap matters."""
    rng = random.Random(47)
    opens_checked = differing = 0
    for k in range(200):
        g = gen.random_ringed_functor(rng, "lrts" if k % 2 == 0 else "rts")
        rep = tg.standard_representative(rgl.induced_top_functor(g))
        legs = [rep.iota[single(i)] for i in range(g.n)]
        bad = scrambled_transports(rng, g)
        expected = {}
        for v in rep.space.sorted_opens:
            pre = [legs[i].preimage_of(v) for i in range(g.n)]
            expected[v] = reference_glued_members(g, pre)
            assert glued_families(g, pre) == expected[v]
            got = glued_families(bad, pre)
            assert got == reference_glued_members(bad, pre)
            opens_checked += 1
            differing += got != expected[v]
        assert rgl.glue_ringed(g).members == expected
    assert opens_checked >= 500 and differing >= 200, (opens_checked, differing)


def reference_family_table(tables, keep, index):
    """``ringedglue._family_table`` as it was before ``compatible_subring``:
    a chart-wise operation on the families ``keep``, as a table of their
    indexes, entry (a, b) the family of the chart results."""
    columns = list(zip(*keep))
    return tuple(
        tuple(map(index.__getitem__, zip(*(map(t[x].__getitem__, c) for t, x, c in zip(tables, a, columns)))))
        for a in keep
    )


def reference_glued_tables(g, glued):
    """The section rings, projections and restrictions that glue_ringed
    built by hand on the families ``glued.members`` before
    ``compatible_subring``: the rings with ``reference_family_table``, the
    projections and the restrictions by tuple loops (None where a
    restricted tuple leaves the families)."""
    opens = glued.space.top.sorted_opens
    inv = {v: [glued.top_legs[i].preimage_of(v) for i in range(g.n)] for v in opens}
    indexes = {v: {t: a for a, t in enumerate(glued.members[v])} for v in opens}
    sections, projections, restr = {}, {}, {}
    for v in opens:
        parts = [g.charts[i].ring(p) for i, p in enumerate(inv[v])]
        keep, index = glued.members[v], indexes[v]
        add = reference_family_table([r.add for r in parts], keep, index)
        mul = reference_family_table([r.mul for r in parts], keep, index)
        sections[v] = rg.FinCommRing(add, mul, index[tuple(r.zero for r in parts)], index[tuple(r.one for r in parts)])
        projections[v] = [tuple(t[i] for t in keep) for i in range(g.n)]
    for u in opens:
        for v in opens:
            if not v <= u:
                continue
            maps = [g.charts[i].res(inv[u][i], inv[v][i]).assign for i in range(g.n)]
            assign = []
            for t in glued.members[u]:
                restricted = tuple(m[x] for m, x in zip(maps, t))
                if restricted not in indexes[v]:
                    assign = None
                    break
                assign.append(indexes[v][restricted])
            restr[(u, v)] = assign and tuple(assign)
    return sections, projections, restr


def relabeled_candidate(rng, glued):
    """The glued ringed space with every section ring relabeled, its legs
    read through the relabeling, and per open the map back, which the
    comparison of a verification must find."""
    space = glued.space
    copies = {v: relabeled(rng, space.ring(v)) for v in space.top.sorted_opens}
    back = {v: tuple(sorted(range(len(perm)), key=perm.__getitem__)) for v, (_, perm) in copies.items()}
    sections = {v: copy for v, (copy, _) in copies.items()}

    def through(h, u, cod, after=lambda y: y):
        return rg.RingHom(sections[u], cod, tuple(after(h.assign[b]) for b in back[u]))

    restr = {(u, v): through(h, u, sections[v], copies[v][1].__getitem__) for (u, v), h in space.restr.items()}
    candidate = rgl.RingedSpace(space.top, sections, restr)
    legs = {
        i: rgl.RingedSpaceMorphism(candidate, leg.cod, leg.top, {u: through(h, u, h.cod) for u, h in leg.sheaf.items()})
        for i, leg in glued.legs.items()
    }
    return candidate, legs, back


def oracle_functors(rng):
    """200 seeded functors of both variants, then the ringed fixture, the
    two-origins and twisted-point charts and two discrete covers."""
    for k in range(200):
        yield gen.random_ringed_functor(rng, "lrts" if k % 2 == 0 else "rts")
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "two_origins_ringed.json")
    with open(path, encoding="utf-8") as fh:
        yield jsonio.parse_document(json.load(fh))["data"]
    yield two_origins_ringed()
    yield twisted_point_charts(set())
    yield discrete_cover_ringed(3, [(0, 1), (1, 2)], rg.zmod(2))
    yield discrete_cover_ringed(3, [(0, 1), (1, 2), (0, 2)], rg.zmod(3))


def test_glued_tables_and_maps_match_the_hand_built_ones():
    """On every glued open: the section ring's tables and projections, and
    every restriction, against the hand-built reference; and the
    comparison of a relabeled candidate, and of candidate legs with one
    image changed, against the tuple loop, with verification accepting the
    relabeled candidate.  Zero factors come in through the locally constant
    charts' empty opens, which have no components."""
    rng = random.Random(53)
    opens = changed = missed = 0
    for g in oracle_functors(rng):
        glued = rgl.glue_ringed(g)
        sections, projections, restr = reference_glued_tables(g, glued)
        space = glued.space
        for v in space.top.sorted_opens:
            assert space.ring(v) == sections[v]
            assert [glued.legs[i].sheaf[v].assign for i in range(g.n)] == projections[v]
            opens += 1
        assert {key: h.assign for key, h in space.restr.items()} == restr
        candidate, legs, back = relabeled_candidate(rng, glued)
        assert rgl.verify_ringed_glued(candidate, legs, g, glued)["verdict"]
        for v in space.top.sorted_opens:
            index = {t: a for a, t in enumerate(glued.members[v])}
            comps = [legs[i].sheaf[v] for i in range(g.n)]
            maps = [h.assign for h in comps]
            got = rg.factor_through_subring(candidate.ring(v), comps, space.ring(v), index)
            assert got.assign == reference_pairing_into(candidate.ring(v), maps, glued.members[v]) == back[v]
            i = rng.randrange(g.n)
            if comps[i].cod.order > 1:
                e = rng.randrange(candidate.ring(v).order)
                maps[i] = maps[i][:e] + ((maps[i][e] + 1) % comps[i].cod.order,) + maps[i][e + 1:]
                comps[i] = rg.RingHom(comps[i].dom, comps[i].cod, maps[i])
                got = rg.factor_through_subring(candidate.ring(v), comps, space.ring(v), index)
                expected = reference_pairing_into(candidate.ring(v), maps, glued.members[v])
                assert (got and got.assign) == expected
                changed += 1
                missed += expected is None
    assert opens >= 600 and changed >= 400 and missed >= 250, (opens, changed, missed)
    empty = rg.compatible_subring([], ())
    assert (empty[0], empty[1:]) == (reference_product_ring([])[0], ([()], []))


def discrete_cover_ringed(points, chart_points, base_ring, variant="rts"):
    """Charts of the discrete space on ``points`` points, one per point
    set, each with the locally constant ring sheaf; transitions are the
    identity on shared points."""
    space = gen.locally_constant_ringed(ft.discrete_space(points), base_ring)
    charts, local = [], []
    for pts in chart_points:
        sub, ambient = restrict_ringed(space, frozenset(pts))
        charts.append(sub)
        local.append({p: k for k, p in enumerate(ambient)})
    overlaps, trans_top, transports = {}, {}, {}
    for i, j in permutations(range(len(charts)), 2):
        shared = set(chart_points[i]) & set(chart_points[j])
        overlaps[(i, j)] = frozenset(local[i][p] for p in shared)
        trans_top[(i, j)] = {local[i][p]: local[j][p] for p in shared}
        transports[(i, j)] = {
            w: rg.identity_ring_hom(charts[i].ring(w))
            for w in ps.opens_below(charts[i].top, overlaps[(i, j)])
        }
    return rgl.RingedGluingFunctor(variant, tuple(charts), overlaps, trans_top, transports)


def test_cap_bounds_the_families_kept_not_the_product(tmp_path, capsys, monkeypatch):
    """Three 3-point charts of the 4-point discrete space with Z/4: the
    product over the whole space has 64³ = 262,144 tuples, above the cap,
    but the glued ring has 4⁴ = 256 elements."""
    g = discrete_cover_ringed(4, [(0, 1, 2), (1, 2, 3), (0, 2, 3)], rg.zmod(4))
    code, captured = verify_ringed_document(tmp_path, capsys, g)
    assert code == 0, captured.err
    assert json.loads(captured.out)["verdict"] is True
    monkeypatch.setattr(rg, "_SECTION_PRODUCT_CAP", 256)
    glued = rgl.glue_ringed(g)
    assert glued.space.ring(glued.space.top.full()).order == 256
    monkeypatch.setattr(rg, "_SECTION_PRODUCT_CAP", 255)
    code, captured = verify_ringed_document(tmp_path, capsys, g)
    assert code == 2
    assert "too large" in captured.err


def test_table_cap_bounds_the_glued_tables(tmp_path, capsys, monkeypatch):
    """The document of the test above: its glued ring over the whole space
    has 256 elements, so two tables of 65,536 entries."""
    g = discrete_cover_ringed(4, [(0, 1, 2), (1, 2, 3), (0, 2, 3)], rg.zmod(4))
    monkeypatch.setattr(rg, "_SUBRING_TABLE_CAP", 256 * 256)
    glued = rgl.glue_ringed(g)
    assert glued.space.ring(glued.space.top.full()).order == 256
    monkeypatch.setattr(rg, "_SUBRING_TABLE_CAP", 256 * 256 - 1)
    code, captured = verify_ringed_document(tmp_path, capsys, g)
    assert code == 2
    assert "too large to tabulate: 256 compatible families" in captured.err


def test_law_failure_of_the_glued_space_is_a_falsification(tmp_path, capsys, monkeypatch):
    """The charts have 3 opens each and the glued space 5: failing the
    presheaf laws only on the latter is a fault of the construction."""
    real = rgl.presheaf_law_failures

    def fail_on_glued(opens, *args):
        return ["forced law failure"] if len(opens) == 5 else real(opens, *args)

    monkeypatch.setattr(rgl, "presheaf_law_failures", fail_on_glued)
    with pytest.raises(FalsificationError, match="forced law failure"):
        rgl.glue_ringed(two_origins_ringed())
    code, captured = verify_ringed_document(tmp_path, capsys, two_origins_ringed())
    assert code == 3
    assert "forced law failure" in captured.err


# --- the generator relations are the only check of the transition inverse
# --- and cocycle laws

def reference_transport_law_failures(g):
    """The inverse and cocycle loops that ringedglue._validate ran before
    the generator relations replaced them: the failing (i, j, w) of the
    inverse law, or, when it holds, the failing (i, j, k, w) of the
    cocycle law."""
    inverse = []
    for i, j in permutations(range(g.n), 2):
        for w in ps.opens_below(g.charts[i].top, g.overlaps[(i, j)]):
            back = rg.compose_ring_hom(g.transports[(j, i)][g.top_image(i, j, w)], g.transports[(i, j)][w])
            if back != rg.identity_ring_hom(g.charts[i].ring(w)):
                inverse.append((i, j, w))
    if inverse:
        return inverse
    cocycle = []
    for i, j, k in permutations(range(g.n), 3):
        zone = g.overlaps[(i, j)] & g.overlaps[(i, k)]
        for w in ps.opens_below(g.charts[i].top, zone):
            lhs = rg.compose_ring_hom(g.transports[(j, k)][g.top_image(i, j, w)], g.transports[(i, j)][w])
            if lhs != g.transports[(i, k)][w]:
                cocycle.append((i, j, k, w))
    return cocycle


def twisted_point_charts(twists):
    """Three one-point charts of the product ring (Z/2)², glued on their
    point; the transport (i, j) is the factor swap for each (i, j) in
    ``twists`` and the identity otherwise.  Every transport is a natural
    ring isomorphism."""
    ring = rg.compatible_subring([rg.zmod(2), rg.zmod(2)], ())[0]
    swap = rg.RingHom(ring, ring, (0, 2, 1, 3))
    assert rg.is_ring_iso(swap)
    chart = gen.locally_constant_ringed(ft.point_space(), ring)
    point = frozenset({0})
    keys = list(permutations(range(3), 2))
    transports = {
        key: {
            frozenset(): rg.identity_ring_hom(chart.ring(frozenset())),
            point: swap if key in twists else rg.identity_ring_hom(ring),
        }
        for key in keys
    }
    return rgl.RingedGluingFunctor(
        "rts", (chart,) * 3, dict.fromkeys(keys, point), {key: {0: 0} for key in keys}, transports
    )


@pytest.mark.parametrize("twists, relation", [
    ({(0, 1), (1, 0)}, "triple_composition"),
    ({(0, 1)}, "inverse_pair"),
], ids=["cocycle", "mirror"])
def test_broken_transition_law_is_named_and_refused(tmp_path, capsys, twists, relation):
    """Swapping on (0, 1) and back on (1, 0) keeps each transition
    invertible but breaks the cocycle through chart 2; swapping on (0, 1)
    alone breaks the inverse law."""
    g = twisted_point_charts(twists)
    report = rgl.validate_ringed_functor(g)
    assert not report["ok"] and not report["shape"] and not report["transports"]
    assert relation in {f["relation"] for f in report["relations"]}
    with pytest.raises(ValidationError, match=relation):
        rgl.glue_ringed(g)
    code, captured = verify_ringed_document(tmp_path, capsys, g)
    assert code == 1
    report = json.loads(captured.out)
    assert report["conditions"] == {"data_valid": False} and report["verdict"] is False
    assert rgl.validate_ringed_functor(twisted_point_charts(set()))["ok"]


def test_transitions_that_are_not_inverse_on_points_are_refused(tmp_path, capsys):
    """Two charts, each the two-point discrete space with Z/2 over point 0
    and (Z/2)² over point 1: the transition (0, 1) fixes the points and
    (1, 0) swaps them, each a bijection onto its mirror, and the transports
    are typed and natural (the diagonal Z/2 -> (Z/2)² and a projection back).
    The composite of Tau(0, 1) and Tau(1, 0) would join sections over
    different rings, so the shape check must refuse the pair before the
    generator relations run."""
    a, b = frozenset({0}), frozenset({1})
    chart = coordinate_ringed(ft.discrete_space(2), {frozenset(): [], a: [0], b: [1, 2], a | b: [0, 1, 2]})

    def power(k):
        return rg.compatible_subring([rg.zmod(2)] * k, ())

    def coordinate_hom(dom, cod, f):
        (ring_d, members_d, _), (ring_c, members_c, _) = (power(k) for k in (dom, cod))
        index = {t: e for e, t in enumerate(members_c)}
        return rg.RingHom(ring_d, ring_c, tuple(index[f(t)] for t in members_d))

    identity = {w: rg.identity_ring_hom(chart.ring(w)) for w in chart.top.sorted_opens}
    swapped = {
        frozenset(): identity[frozenset()],
        a: coordinate_hom(1, 2, lambda x: (x[0], x[0])),
        b: coordinate_hom(2, 1, lambda x: x[:1]),
        a | b: coordinate_hom(3, 3, lambda x: (x[1], x[0], x[0])),
    }
    assert all(rg.is_ring_hom(h) for h in swapped.values())
    g = rgl.RingedGluingFunctor(
        "rts", (chart, chart), {(0, 1): a | b, (1, 0): a | b},
        {(0, 1): {0: 0, 1: 1}, (1, 0): {0: 1, 1: 0}}, {(0, 1): identity, (1, 0): swapped},
    )
    report = rgl.validate_ringed_functor(g)
    assert not report["ok"]
    assert report["shape"] == [f"transitions ({i},{j}) and ({j},{i}) are not inverse" for i, j in ((0, 1), (1, 0))]
    code, captured = verify_ringed_document(tmp_path, capsys, g)
    assert code == 1, captured.err
    assert json.loads(captured.out)["conditions"] == {"data_valid": False}


def test_generator_relations_decide_the_transport_laws_like_the_loops(monkeypatch):
    """One transport component, or it and its mirror, replaced by a
    relabeling of the codomain; ``rings.is_ring_hom`` accepts every map, so
    the corruptions that stay natural reach the relations.  The relations
    refuse exactly when the replaced loops do, and name the same inverse
    pairs, or else the same cocycles (the relation triple_composition at
    (i, j, k) is the loops' cocycle at (k, j, i)).  Every accepted draw
    forgets to a valid topological gluing functor."""
    rng = random.Random(1601)
    monkeypatch.setattr(rg, "is_ring_hom", lambda h: True)
    refused, accepted = Counter(), 0
    for draw in range(200):
        g = gen.random_ringed_functor(rng, rng.choice(["rts", "lrts"]), max_points=5)
        spots = [
            (i, j, w) for i, j in permutations(range(g.n), 2)
            for w in ps.opens_below(g.charts[i].top, g.overlaps[(i, j)]) if g.charts[i].ring(w).order > 1
        ]
        candidates = [g]
        if spots:
            i, j, w = rng.choice(spots)
            order = g.charts[i].ring(w).order
            phi = list(range(order))
            while phi == list(range(order)):
                rng.shuffle(phi)
            transports = {key: dict(comps) for key, comps in g.transports.items()}
            h = transports[(i, j)][w]
            transports[(i, j)][w] = rg.RingHom(h.dom, h.cod, tuple(phi[y] for y in h.assign))
            if rng.random() < 0.5:
                tw = g.top_image(i, j, w)
                back = transports[(j, i)][tw]
                undo = {b: a for a, b in enumerate(phi)}
                transports[(j, i)][tw] = rg.RingHom(
                    back.dom, back.cod, tuple(back.assign[undo[y]] for y in back.dom.elements())
                )
            candidates.append(rgl.RingedGluingFunctor(g.variant, g.charts, g.overlaps, g.trans_top, transports))
        for h in candidates:
            report = rgl.validate_ringed_functor(h)
            if report["transports"]:
                continue
            expected = reference_transport_law_failures(h)
            named = {f["relation"] for f in report["relations"]}
            assert bool(named) == bool(expected), (draw, report, expected)
            assert named <= {"inverse_pair", "triple_inverse", "triple_composition"}, named
            inverse = {(i, j) for f in report["relations"] if f["relation"] == "inverse_pair" for i, j in [f["indices"]]}
            if expected and len(expected[0]) == 3:
                assert inverse == {(i, j) for i, j, _ in expected}
                refused["inverse_pair"] += 1
            elif expected:
                cocycles = {
                    (k, j, i) for f in report["relations"] if f["relation"] == "triple_composition"
                    for i, j, k in [f["indices"]]
                }
                assert not inverse and cocycles == {(i, j, k) for i, j, k, _ in expected}
                refused["triple_composition"] += 1
            if report["ok"]:
                accepted += 1
                assert tg.validate_functor(rgl.induced_top_functor(h))["ok"]
    assert sum(refused.values()) >= 50 and min(refused.values()) >= 10, refused
    assert accepted >= 100, accepted


def test_pushed_forward_sheaf_limit_has_the_glued_additive_groups():
    """The charts' additive groups, pushed onto their images in the glued
    space with the transports as transitions, glue by the abelian-group
    limit to the glued ring's additive group on every open."""
    rng = random.Random(1602)
    opens = 0
    for k in range(40):
        g = gen.random_ringed_functor(rng, "lrts" if k % 2 == 0 else "rts", max_points=5)
        glued = rgl.glue_ringed(g)
        lim = sg.build_limit_sheaf(induced_sheaf_functor(g, glued))
        for v in glued.space.top.sorted_opens:
            expected = ab.invariants(additive_group_presentation(glued.space.ring(v))[0])
            assert ab.invariants(lim.carrier.group(v)) == expected, (k, v)
            opens += 1
    assert opens >= 120, opens


def test_verify_rejects_legs_that_break_a_square_or_are_not_morphisms():
    """Chart 0's leg followed by the factor swap is still a ringed-space
    morphism, and the plain maps still form the glued cone, but the
    square of the transport (0, 1) fails.  Every leg followed by one
    bijection that is not a ring hom keeps every square, but the legs
    are not ringed-space morphisms, so every condition fails."""
    g = twisted_point_charts(set())
    glued = rgl.glue_ringed(g)
    assert rgl.verify_ringed_glued(glued.space, glued.legs, g, glued)["verdict"]
    ring = g.charts[0].ring(frozenset({0}))

    def followed_by(leg, assign):
        after = rg.RingHom(ring, ring, assign)
        sheaf = {v: rg.compose_ring_hom(after, h) if h.cod == ring else h for v, h in leg.sheaf.items()}
        return rgl.RingedSpaceMorphism(leg.dom, leg.cod, leg.top, sheaf)

    legs = {**glued.legs, 0: followed_by(glued.legs[0], (0, 2, 1, 3))}
    assert rgl.check_rsm(legs[0])
    report = rgl.verify_ringed_glued(glued.space, legs, g, glued)
    assert report["top_cone"] and report["top_comparison"]
    assert not report["sheaf_cone"] and not report["verdict"]
    legs = {i: followed_by(leg, (0, 3, 2, 1)) for i, leg in glued.legs.items()}
    assert not rgl.check_rsm(legs[0])
    report = rgl.verify_ringed_glued(glued.space, legs, g, glued)
    assert not any(report[k] for k in report if k != "locality"), report
