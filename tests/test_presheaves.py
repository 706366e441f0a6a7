import random
from itertools import combinations

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


def irredundant_covers(space, v, max_size=3):
    """The bounded cover family: the cover of v by all its minimal opens,
    then every irredundant cover of v by at most ``max_size`` nonempty opens."""
    yield tuple(dict.fromkeys(space.minimal[x] for x in sorted(v)))
    candidates = [o for o in space.sorted_opens() if o and o <= v]
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
    candidates = [o for o in space.sorted_opens() if o and o <= v]
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
    opens = space.sorted_opens()
    nonempty = [o for o in opens if o]
    seeds = [rng.sample(nonempty, rng.randint(1, min(3, len(nonempty)))) for _ in range(ground)]
    return {o: [e for e in range(ground) if any(g <= o for g in seeds[e])] for o in opens}


def coordinate_presheaf(space, support):
    """F(V) = Z^{f(V)}, restrictions the coordinate projections."""
    opens = space.sorted_opens()
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
