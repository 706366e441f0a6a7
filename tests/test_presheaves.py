import random

import pytest

from gluekit import abgroups as ab
from gluekit import fintop as ft
from gluekit import generators as gen
from gluekit import presheaves as ps
from gluekit.errors import ValidationError

S = ft.sierpinski()
Z = ab.free_group(1)


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
        assert ps.functoriality_failures(chart) == []


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
        assert ps.all_covers_sheaf_check(sheafy)
        # the fully constant presheaf is valid but fails gluing whenever some
        # open is disconnected; both checkers must return the same verdict
        const = constant_presheaf(space, space.full(), Z)
        verdict_fast = ps.is_sheaf(const)[0]
        verdict_full = ps.all_covers_sheaf_check(const)
        assert verdict_fast == verdict_full
        if not verdict_fast:
            seen_fail += 1
    assert seen_fail >= 2  # at least the discrete spaces fail


def test_sheaf_sum_decomposition_on_disjoint_opens():
    disc = ft.discrete_space(3)
    f = ps.locally_constant_sheaf(disc, disc.full(), Z)
    assert ps.is_sheaf(f)[0]
    u, v = frozenset({0}), frozenset({1, 2})
    prod, projs, _ = ab.product([f.group(u), f.group(v)])
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
        f, f, {o: ab.scale_hom(2, ab.id_hom(f.group(o))) for o in f.opens()}
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
    m2 = ps.EnrichedMorphism(f, f, {o: ab.scale_hom(2, ab.id_hom(f.group(o))) for o in f.opens()})
    m3 = ps.EnrichedMorphism(f, f, {o: ab.scale_hom(3, ab.id_hom(f.group(o))) for o in f.opens()})
    assert ps.same_enriched(ps.compose_enriched(m2, ident), m2)
    assert ps.same_enriched(ps.compose_enriched(ident, m2), m2)
    six = ps.compose_enriched(m3, m2)
    for o in f.opens():
        assert ab.same_hom(six.alpha[o], ab.scale_hom(6, ab.id_hom(f.group(o))))
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
    ok, problems = ps.check_nat_iso(iso)
    assert ok, problems
    inv = ps.inverse_nat_iso(iso)
    both = ps.compose_nat_iso(inv, iso)
    for o in f.opens():
        assert ab.same_hom(both.components[o], ab.id_hom(f.group(o)))
