"""Ring laws and homomorphisms decided on additive generators, against the
definition-level checks over all triples and pairs."""

import random
import re
from itertools import product as iproduct

import pytest

from gluekit import rings as rg
from gluekit.errors import ValidationError


def reference_make_ring(add, mul, one, zero=None):
    """make_ring over all q³ triples, as it was before the generator
    reductions."""
    add = tuple(tuple(int(x) for x in row) for row in add)
    mul = tuple(tuple(int(x) for x in row) for row in mul)
    q = len(add)
    if q == 0:
        raise ValidationError("a ring needs at least one element")
    for name, tab in (("add", add), ("mul", mul)):
        if len(tab) != q or any(len(r) != q for r in tab):
            raise ValidationError(f"{name} table is not {q}x{q}")
        for row in tab:
            for x in row:
                if not 0 <= x < q:
                    raise ValidationError(f"{name} table entry {x} out of range")
    if zero is None:
        candidates = [z for z in range(q) if all(add[z][a] == a for a in range(q))]
        if len(candidates) != 1:
            raise ValidationError("no unique additive identity")
        zero = candidates[0]
    for a in range(q):
        for b in range(q):
            if add[a][b] != add[b][a]:
                raise ValidationError(f"addition not commutative at ({a},{b})")
            if mul[a][b] != mul[b][a]:
                raise ValidationError(f"multiplication not commutative at ({a},{b})")
    for a in range(q):
        if add[zero][a] != a:
            raise ValidationError(f"additive identity fails at {a}")
        if mul[one][a] != a:
            raise ValidationError(f"unity fails at {a}")
        if not any(add[a][b] == zero for b in range(q)):
            raise ValidationError(f"element {a} has no additive inverse")
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise ValidationError(f"addition not associative at ({a},{b},{c})")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise ValidationError(f"multiplication not associative at ({a},{b},{c})")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise ValidationError(f"distributivity fails at ({a},{b},{c})")
    return rg.FinCommRing(add, mul, zero, one)


def reference_is_ring_hom(h):
    """is_ring_hom over all q² pairs."""
    d, c, f = h.dom, h.cod, h.assign
    if f[d.one] != c.one:
        return False
    for a in d.elements():
        for b in d.elements():
            if f[d.add[a][b]] != c.add[f[a]][f[b]]:
                return False
            if f[d.mul[a][b]] != c.mul[f[a]][f[b]]:
                return False
    return True


def reference_is_local_ring(ring):
    """is_local_ring with the units recomputed per element."""
    if ring.order == 1:
        return False
    non_units = [a for a in ring.elements() if a not in rg.units(ring)]
    return all(ring.add[a][b] in non_units for a in non_units for b in non_units)


def hom_failure(h):
    """Which condition of the definition fails first: unit, add or mul."""
    d, c, f = h.dom, h.cod, h.assign
    if f[d.one] != c.one:
        return "unit"
    pairs = list(iproduct(d.elements(), repeat=2))
    if any(f[d.add[a][b]] != c.add[f[a]][f[b]] for a, b in pairs):
        return "add"
    if any(f[d.mul[a][b]] != c.mul[f[a]][f[b]] for a, b in pairs):
        return "mul"
    return None


def relabeled(rng, ring):
    """The ring with its elements renamed by a random permutation, and the
    renaming."""
    perm = list(ring.elements())
    rng.shuffle(perm)
    inv = {p: a for a, p in enumerate(perm)}

    def table(tab):
        return tuple(tuple(perm[tab[inv[x]][inv[y]]] for y in ring.elements()) for x in ring.elements())

    return rg.FinCommRing(table(ring.add), table(ring.mul), perm[ring.zero], perm[ring.one]), perm


def seeded_rings(rng):
    """Z/n, products of small Z/n and relabeled copies of both."""
    rings = [rg.zmod(n) for n in range(1, 17)]
    for factors in ([2, 2], [2, 3], [2, 4], [3, 3], [2, 2, 2], [4, 2], [2, 2, 3], [4, 4], [2, 2, 2, 2]):
        rings.append(rg.product_ring([rg.zmod(n) for n in factors])[0])
    return rings + [relabeled(rng, r)[0] for r in rings]


def check_witness(ring_tables, message):
    """Re-check by hand the law an error names at its witness."""
    add, mul, one, zero = ring_tables
    nums = [int(x) for x in re.findall(r"\d+", message.split(" at ")[-1])] if " at " in message else []
    if message.startswith("addition not associative"):
        a, b, c = nums
        return add[add[a][b]][c] != add[a][add[b][c]]
    if message.startswith("multiplication not associative"):
        a, b, c = nums
        return mul[mul[a][b]][c] != mul[a][mul[b][c]]
    if message.startswith("distributivity fails"):
        a, b, c = nums
        return mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
    if message.startswith("addition not commutative"):
        a, b = nums
        return add[a][b] != add[b][a]
    if message.startswith("multiplication not commutative"):
        a, b = nums
        return mul[a][b] != mul[b][a]
    if message.startswith("additive identity fails"):
        return add[zero][nums[0]] != nums[0]
    if message.startswith("unity fails"):
        return mul[one][nums[0]] != nums[0]
    if message.startswith("element"):
        a = int(message.split()[1])
        return all(add[a][b] != zero for b in range(len(add)))
    raise AssertionError(f"unexpected error {message!r}")


def law_of(message):
    return re.sub(r" at .*|\d+ ", "", message)


def test_generators_reach_every_element_by_right_sums():
    rng = random.Random(5)
    for ring in seeded_rings(rng):
        gens = ring.additive_generators
        reached, frontier = {ring.zero}, [ring.zero]
        for s in frontier:
            for g in gens:
                if ring.add[s][g] not in reached:
                    reached.add(ring.add[s][g])
                    frontier.append(ring.add[s][g])
        assert reached == set(ring.elements())
        assert ring.zero not in gens or ring.order == 1
        assert 2 ** len(gens) <= max(ring.order, 2)
    assert rg.zmod(2).additive_generators == (1,)
    assert rg.zero_ring().additive_generators == (0,)


def test_make_ring_on_generators_agrees_with_all_triples():
    rng = random.Random(13)
    rings = seeded_rings(rng)
    laws = {}
    for ring in rings:
        assert rg.make_ring(ring.add, ring.mul, ring.one) == reference_make_ring(ring.add, ring.mul, ring.one)
    for _ in range(6000):
        ring = rng.choice(rings)
        if ring.order < 3:
            continue
        add = [list(r) for r in ring.add]
        mul = [list(r) for r in ring.mul]
        table, fixed = (add, ring.zero) if rng.random() < 0.5 else (mul, ring.one)
        a, b = (rng.choice([x for x in ring.elements() if x != fixed]) for _ in range(2))
        table[a][b] = table[b][a] = rng.choice([x for x in ring.elements() if x != table[a][b]])
        try:
            reference_make_ring(add, mul, ring.one, ring.zero)
            expected = None
        except ValidationError as exc:
            expected = str(exc)
        try:
            rg.make_ring(add, mul, ring.one, ring.zero)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert (got is None) == (expected is None), (add, mul, got, expected)
        if got is not None:
            assert check_witness((add, mul, ring.one, ring.zero), got), got
            laws[law_of(got)] = laws.get(law_of(got), 0) + 1
    for law in ("addition not associative", "multiplication not associative", "distributivity fails"):
        assert laws.get(law, 0) >= 100, laws


def test_make_ring_agrees_on_every_three_element_table():
    """Every commutative pair of 3-element tables with identity 0 and unity
    1: both checks agree, and each witness fails by hand."""
    free = [(0, 1, 1), (0, 1, 2), (0, 2, 2), (1, 0, 0), (1, 0, 2), (1, 2, 2)]
    valid = 0
    for values in iproduct(range(3), repeat=len(free)):
        add = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
        mul = [[0, 0, 0], [0, 1, 2], [0, 2, 0]]
        for (which, a, b), x in zip(free, values):
            tab = (add, mul)[which]
            tab[a][b] = tab[b][a] = x
        try:
            reference_make_ring(add, mul, 1, 0)
            expected = True
        except ValidationError:
            expected = False
        try:
            rg.make_ring(add, mul, 1, 0)
            got = True
        except ValidationError as exc:
            got = False
            assert check_witness((add, mul, 1, 0), str(exc)), str(exc)
        assert got == expected, (add, mul)
        valid += got
    assert valid == 1  # Z/3 is the only ring on these labels


def product_elements(factors):
    """product_ring of the factors and the element index of each tuple."""
    ring, proj = rg.product_ring([rg.zmod(n) for n in factors])
    return ring, {tuple(p[e] for p in proj): e for e in ring.elements()}, proj


def unital_linear_map(rng, p, k, m):
    """A random additive map (Z/p)^k -> (Z/p)^m sending (1, ..., 1) to
    (1, ..., 1): a matrix whose rows sum to 1."""
    dom, _, dom_proj = product_elements([p] * k)
    cod, cod_index, _ = product_elements([p] * m)
    rows = []
    for _ in range(m):
        row = [rng.randrange(p) for _ in range(k - 1)]
        rows.append(row + [(1 - sum(row)) % p])
    assign = tuple(
        cod_index[tuple(sum(r[c] * dom_proj[c][e] for c in range(k)) % p for r in rows)]
        for e in dom.elements()
    )
    return rg.RingHom(dom, cod, assign)


def seeded_homs(rng):
    """Genuine homs (identities, relabelings, projections, reductions),
    their single-entry corruptions, unital additive maps and random
    unital assignments."""
    homs = []
    for ring in seeded_rings(rng)[:25]:
        homs.append(rg.identity_ring_hom(ring))
        copy, perm = relabeled(rng, ring)
        homs.append(rg.RingHom(ring, copy, tuple(perm)))
    for factors in ([2, 2], [2, 3], [4, 2], [3, 3], [2, 2, 2]):
        ring, _, proj = product_elements(factors)
        for k, n in enumerate(factors):
            homs.append(rg.RingHom(ring, rg.zmod(n), tuple(proj[k])))
    for n in range(2, 17):
        for m in range(2, n + 1):
            if n % m == 0:
                homs.append(rg.RingHom(rg.zmod(n), rg.zmod(m), tuple(a % m for a in range(n))))
    genuine = list(homs)
    for _ in range(600):
        h = rng.choice(genuine)
        if h.dom.order < 2 or h.cod.order < 2:
            continue
        assign = list(h.assign)
        a = rng.choice([x for x in h.dom.elements() if x != h.dom.one])
        assign[a] = rng.choice([y for y in h.cod.elements() if y != assign[a]])
        homs.append(rg.RingHom(h.dom, h.cod, tuple(assign)))
    for _ in range(400):
        p, k, m = rng.choice([(2, 2, 2), (2, 3, 2), (2, 3, 3), (2, 2, 3), (3, 2, 2), (2, 4, 2)])
        h = unital_linear_map(rng, p, k, m)
        homs.append(h)
        dom, dom_perm = relabeled(rng, h.dom)
        cod, cod_perm = relabeled(rng, h.cod)
        back = {x: a for a, x in enumerate(dom_perm)}
        homs.append(rg.RingHom(dom, cod, tuple(cod_perm[h.assign[back[e]]] for e in dom.elements())))
    rings = seeded_rings(rng)
    for _ in range(400):
        dom, cod = rng.choice(rings), rng.choice(rings)
        assign = [rng.randrange(cod.order) for _ in dom.elements()]
        if rng.random() < 0.5:
            assign[dom.one] = cod.one
        homs.append(rg.RingHom(dom, cod, tuple(assign)))
    return homs


def test_is_ring_hom_on_generators_agrees_with_all_pairs():
    rng = random.Random(29)
    failures = {"unit": 0, "add": 0, "mul": 0, None: 0}
    for h in seeded_homs(rng):
        expected = reference_is_ring_hom(h)
        assert rg.is_ring_hom(h) == expected, h
        failures[hom_failure(h)] += 1
        assert (hom_failure(h) is None) == expected
    assert min(failures.values()) >= 100, failures


def test_units_and_locality_agree_with_definition():
    rng = random.Random(31)
    for ring in seeded_rings(rng):
        assert rg.units(ring) == {
            a for a in ring.elements() if any(ring.mul[a][b] == ring.one for b in ring.elements())
        }
        assert rg.is_local_ring(ring) == reference_is_local_ring(ring)
    local = [rg.is_local_ring(r) for r in seeded_rings(rng)]
    assert any(local) and not all(local)


@pytest.mark.parametrize("ring", [rg.zmod(1), rg.zmod(2), rg.product_ring([rg.zmod(2)] * 3)[0]])
def test_zero_ring_hom_needs_zero_codomain(ring):
    zero = rg.zero_ring()
    to_ring = rg.RingHom(zero, ring, (ring.one,))
    assert rg.is_ring_hom(to_ring) == reference_is_ring_hom(to_ring) == (ring.order == 1)
