from itertools import permutations, product as iproduct

import hypothesis
import hypothesis.strategies as st
import pytest

from gluekit import fintop as ft
from gluekit import indexcat as ic
from gluekit.errors import ValidationError


def support(a):
    """The indices an object names."""
    return frozenset((a.apex,) + a.rest)


# --- independent oracle: canonical classes and closure, straight from the
# --- defining relations, sharing no code with the library -----------------

def oracle_canonical(raw):
    if len(raw) == 1:
        return ("s", raw[0])
    if len(raw) == 2:
        i, j = raw
        return ("s", i) if i == j else ("p", i, j)
    i, j, k = raw
    if i == j == k:
        return ("s", i)
    if j == k:
        return ("s", i) if i == j else ("p", i, j)
    if i == j:
        return ("p", i, k)
    if i == k:
        return ("p", i, j)
    return ("t", i, min(j, k), max(j, k))


def oracle_objects(n):
    out = set()
    for length in (1, 2, 3):
        for raw in iproduct(range(n), repeat=length):
            out.add(oracle_canonical(raw))
    return out


def oracle_hom_pairs(n):
    objs = sorted(oracle_objects(n))
    edges = {(a, a) for a in objs}
    for i in range(n):
        for j in range(n):
            if i != j:
                edges.add((("s", i), ("p", i, j)))
                edges.add((("p", j, i), ("p", i, j)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3:
                    t = ("t", i, min(j, k), max(j, k))
                    edges.add((("p", i, j), t))
                    edges.add((("p", i, k), t))
                    edges.add((("t", j, min(i, k), max(i, k)), t))
    changed = True
    while changed:
        changed = False
        for a, b in list(edges):
            for c, d in list(edges):
                if b == c and (a, d) not in edges:
                    edges.add((a, d))
                    changed = True
    return edges


def test_canonicalize_examples():
    assert ic.canonicalize((2, 2), 3) == ic.single(2)
    assert ic.canonicalize((0, 0, 1), 2) == ic.pair(0, 1)
    assert ic.canonicalize((0, 2, 1), 3) == ic.triple(0, 1, 2)


@hypothesis.given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_canonicalize_idempotent_and_matches_oracle(raw):
    raw = tuple(raw)
    obj = ic.canonicalize(raw, 4)
    key = oracle_canonical(raw)
    if key[0] == "s":
        assert obj == ic.single(key[1])
    elif key[0] == "p":
        assert obj == ic.pair(key[1], key[2])
    else:
        assert obj == ic.triple(key[1], key[2], key[3])
    # idempotence: re-canonicalizing the canonical tuple is stable
    flat = (obj.apex,) + obj.rest
    assert ic.canonicalize(flat, 4) == obj


def test_canonicalize_errors():
    with pytest.raises(ValidationError):
        ic.canonicalize((0, 5), 3)
    with pytest.raises(ValidationError):
        ic.canonicalize((0, 1, 2, 3))


def test_census_against_oracle():
    cat1 = ic.enumerate_category(1)
    assert (len(cat1.objects), cat1.morphism_count()) == (1, 1)
    cat2 = ic.enumerate_category(2)
    assert (len(cat2.objects), cat2.morphism_count()) == (4, 10)
    assert cat2.morphism_count() == len(oracle_hom_pairs(2))
    cat3 = ic.enumerate_category(3)
    assert len(cat3.objects) == 12 == len(oracle_objects(3))
    assert cat3.morphism_count() == len(oracle_hom_pairs(3))


def test_hom_exists_examples():
    cat = ic.enumerate_category(3)
    assert (ic.single(1), ic.pair(1, 2)) in cat.paths
    assert (ic.single(1), ic.single(2)) not in cat.paths
    assert (ic.pair(2, 1), ic.pair(1, 2)) in cat.paths


def _to_obj(key):
    if key[0] == "s":
        return ic.single(key[1])
    if key[0] == "p":
        return ic.pair(key[1], key[2])
    return ic.triple(key[1], key[2], key[3])


def test_hom_table_matches_closure_oracle_and_support_formula():
    for n in range(1, ic.DEFAULT_MAX_INDEX + 1):
        cat = ic.enumerate_category(n)
        oracle = {( _to_obj(a), _to_obj(b)) for a, b in oracle_hom_pairs(n)}
        assert set(cat.paths) == oracle
        for a in cat.objects:
            for b in cat.objects:
                assert ((a, b) in cat.paths) == (support(a) <= support(b))


def reference_generators(n):
    gens = []
    for i, j in permutations(range(n), 2):
        gens.append(ic.Eta(i, j))
        gens.append(ic.Tau(i, j))
    for i, j, k in permutations(range(n), 3):
        gens.append(ic.TauT(i, j, k))
        if j < k:
            gens.append(ic.EtaT(i, j, k))
            gens.append(ic.EtaT(i, k, j))
    return gens


def reference_generator_path(out_edges, a, b):
    """A shortest chain of generators from a to b, or None: a breadth-first
    search of its own from a, trying each object's out-edges in order."""
    if a == b:
        return ()
    frontier = [(a, ())]
    seen = {a}
    while frontier:
        nxt = []
        for obj, path in frontier:
            for g in out_edges.get(obj, ()):
                if g.cod == b:
                    return path + (g,)
                if g.cod not in seen:
                    seen.add(g.cod)
                    nxt.append((g.cod, path + (g,)))
        frontier = nxt
    return None


def test_paths_match_per_pair_search_oracle():
    for n in range(1, ic.DEFAULT_MAX_INDEX + 1):
        cat = ic.index_category(n)
        gens = reference_generators(n)
        assert list(cat.generators) == gens
        out_edges = {}
        for g in gens:
            out_edges.setdefault(g.dom, []).append(g)
        for a in cat.objects:
            for b in cat.objects:
                assert reference_generator_path(out_edges, a, b) == cat.paths.get((a, b)), (n, a, b)
                assert ic.generator_path(n, a, b) == cat.paths.get((a, b))


def test_cone_squares_and_leg_generators():
    for n in range(1, ic.DEFAULT_MAX_INDEX + 1):
        cat = ic.index_category(n)
        gens = cat.generators
        first, second, third = cat.cone_squares
        for a, b, chain in first + second + third:
            # each chain runs from a to b, one generator after the other
            assert [g.dom for g in chain] == [a] + [g.cod for g in chain[:-1]]
            assert chain[-1].cod == b
        oracle = {(_to_obj(a), _to_obj(b)) for a, b in oracle_hom_pairs(n) if a != b}
        assert len(first) == len(oracle) and {(a, b) for a, b, _ in first} == oracle
        assert [chain for _, _, chain in second] == [(g,) for g in gens if not isinstance(g, ic.TauT)]
        assert len(third) == len(second)
        for (_, _, (g,)), (_, _, chain) in zip(second, third):
            assert chain == ((ic.Eta(g.j, g.i), g) if isinstance(g, ic.Tau) else (g,))
        # the leg generators reach every non-single object once, each from
        # a single or an object reached before it
        reached = [ic.single(i) for i in range(n)]
        for g in cat.leg_generators:
            assert g in gens and g.dom in reached and g.cod not in reached
            reached.append(g.cod)
        assert sorted(reached, key=repr) == sorted(cat.objects, key=repr)


def test_composition_associative_and_unital():
    cat = ic.enumerate_category(3)
    # extensional morphisms: composition is concatenation of endpoints
    homs = sorted(cat.paths, key=repr)
    for a, b in homs[:80]:
        assert (a, a) in cat.paths and (b, b) in cat.paths
        for c in cat.objects:
            if (b, c) in cat.paths:
                assert (a, c) in cat.paths  # closure under composition


def test_triple_objects_receive_both_inclusion_arrows():
    n = 3
    gens = ic.index_category(n).generators
    for i in range(n):
        rest = [x for x in range(n) if x != i]
        j, k = rest
        t = ic.triple(i, j, k)
        incoming = {g.dom for g in gens if g.cod == t and isinstance(g, ic.EtaT)}
        assert incoming == {ic.pair(i, j), ic.pair(i, k)}


def test_bounds():
    with pytest.raises(ValidationError):
        ic.enumerate_category(0)
    with pytest.raises(ValidationError):
        ic.enumerate_category(7)
    assert ic.index_category(7).n == 7


def test_generator_relations_identity_assignment_passes():
    pt = ft.point_space()
    images = {g: ft.identity_map(pt) for g in ic.index_category(3).generators}
    failures = ic.check_generator_relations(
        3,
        images,
        compose=lambda f, g: ft.compose(g, f),
        eq=lambda a, b: a == b,
        identity=lambda obj: ft.identity_map(pt),
    )
    assert failures == []


def test_generator_relations_detect_broken_inverse():
    two = ft.discrete_space(2)
    swap = ft.make_map(two, two, [1, 0])
    ident = ft.identity_map(two)
    images = {}
    for g in ic.index_category(2).generators:
        images[g] = ident
    images[ic.Tau(0, 1)] = swap  # not inverse to the identity at Tau(1, 0)
    failures = ic.check_generator_relations(
        2,
        images,
        compose=lambda f, g: ft.compose(g, f),
        eq=lambda a, b: a == b,
        identity=lambda obj: ident,
    )
    assert any(f["relation"] == "inverse_pair" for f in failures)


def test_generator_relations_missing_image():
    with pytest.raises(ValidationError):
        ic.check_generator_relations(
            2, {}, compose=lambda f, g: f, eq=lambda a, b: True, identity=lambda o: None
        )


def test_dot_export():
    cat = ic.enumerate_category(2)
    dot = ic.category_dot(cat)
    assert dot.startswith("digraph")
    assert '"[0]"' in dot and '"[0,1]"' in dot
    assert "eta_0,1" in dot and "tau_0,1" in dot
