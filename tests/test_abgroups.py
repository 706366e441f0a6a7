import random

import pytest

from gluekit import abgroups as ab
from gluekit import intlinalg as il
from gluekit.errors import ValidationError
from test_intlinalg import int_inverse


# --- group and hom helpers the tests read; the pipeline never runs them

def group_snf(g):
    """(U, S, V) with U·R·V = S for the relation matrix R of g."""
    if g.ambient == 0:
        return (), (), ()
    return il.snf(g.relations or tuple(() for _ in range(g.ambient)))


def same_element(g, x, y):
    return ab.in_relation_span(g, tuple(a - b for a, b in zip(x, y)))


def scale_hom(c, f):
    return ab.AbHom(f.dom, f.cod, tuple(tuple(c * x for x in row) for row in f.matrix))


def normal_form(g, x):
    """Canonical representative of x: reduce in SNF coordinates."""
    if g.ambient == 0:
        return ()
    u, s, _ = group_snf(g)
    y = list(il.mat_vec(u, x))
    m = g.ambient
    ncols = len(s[0]) if s and s[0] else 0
    for i in range(min(m, ncols)):
        d = s[i][i]
        if d != 0:
            y[i] %= d
    return il.mat_vec(int_inverse(u), tuple(y))


def enumerate_elements(g):
    """All elements of a finite group, as canonical ambient vectors."""
    free, _ = ab.invariants(g)
    if free:
        raise ValidationError("cannot enumerate an infinite group")
    u, s, _ = group_snf(g)
    m = g.ambient
    if m == 0:
        return [()]
    ncols = len(s[0]) if s and s[0] else 0
    diag = [s[i][i] for i in range(min(m, ncols))]
    uinv = int_inverse(u)
    out = []

    def rec(i, acc):
        if i == m:
            out.append(il.mat_vec(uinv, tuple(acc)))
            return
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            raise ValidationError("cannot enumerate an infinite group")
        for v in range(d):
            rec(i + 1, acc + [v])

    rec(0, [])
    return out


def canonical_form(g):
    """Presentation by invariant factors, with mutually inverse homs.

    Returns (C, to, frm) with to: g -> C, frm: C -> g and both composites
    equal to identities.
    """
    free, torsion = ab.invariants(g)
    c = ab.group_from_invariants(free, torsion)
    if g.ambient == 0:
        return c, ab.zero_hom(g, c), ab.zero_hom(c, g)
    u, s, _ = group_snf(g)
    m = g.ambient
    ncols = len(s[0]) if s and s[0] else 0
    diag = [s[i][i] for i in range(min(m, ncols))]
    keep = [i for i, d in enumerate(diag) if d != 1] + list(range(len(diag), m))
    uinv = int_inverse(u)
    to_mat = tuple(u[i] for i in keep) if keep else ()
    frm_cols = [tuple(uinv[r][i] for r in range(m)) for i in keep]
    frm_mat = il.from_columns(frm_cols, m) if keep else tuple(() for _ in range(m))
    return c, ab.AbHom(g, c, to_mat), ab.AbHom(c, g, frm_mat)


def iso_witness(g1, g2):
    """Explicit isomorphisms (g1 -> g2, g2 -> g1) when the invariants match."""
    if ab.invariants(g1) != ab.invariants(g2):
        return None
    _, to1, frm1 = canonical_form(g1)
    _, to2, frm2 = canonical_form(g2)
    fwd = ab.compose_hom(frm2, ab.AbHom(to1.cod, frm2.dom, il.identity(to1.cod.ambient)))
    fwd = ab.compose_hom(fwd, to1)
    bwd = ab.compose_hom(frm1, ab.AbHom(to2.cod, frm1.dom, il.identity(to2.cod.ambient)))
    bwd = ab.compose_hom(bwd, to2)
    return fwd, bwd


def hom_to_json(h):
    return {"matrix": [list(r) for r in h.matrix]}


def hom_from_json(dom, cod, doc):
    return ab.make_hom(dom, cod, doc.get("matrix") or ())


Z = ab.free_group(1)
Z2 = ab.group_from_invariants(0, (2,))


def random_group(rng):
    free = rng.randint(0, 2)
    torsion = tuple(sorted(rng.sample([2, 3, 4, 6], rng.randint(0, 2))))
    torsion = tuple(t for t in torsion if t > 1)
    if free == 0 and not torsion:
        free = 1
    return ab.group_from_invariants(free, torsion)


def random_hom(rng, dom, cod):
    for _ in range(40):
        rows = [[rng.randint(-2, 2) for _ in range(dom.ambient)] for _ in range(cod.ambient)]
        h = ab.AbHom(dom, cod, il.freeze(rows) if rows else ())
        if ab.is_well_defined(h):
            return h
    return ab.zero_hom(dom, cod)


def test_membership_examples():
    assert il.solve(il.freeze([[2]]), (4,)) == (2,)
    assert il.solve(il.freeze([[2]]), (3,)) is None
    witness = il.solve(il.freeze([[2, 0], [0, 3]]), (2, 3))
    assert witness is not None
    # oracle: direct substitution
    assert il.mat_vec(il.freeze([[2, 0], [0, 3]]), witness) == (2, 3)
    assert witness == (1, 1)


def test_kernel_examples():
    k, incl = ab.kernel(ab.zero_hom(Z, Z))
    assert ab.invariants(k) == (1, ())
    k2, _ = ab.kernel(ab.make_hom(Z, Z, [[2]]))
    assert ab.is_trivial(k2)
    # reduction Z -> Z/2: kernel is the even integers, free of rank 1
    red = ab.make_hom(Z, Z2, [[1]])
    k3, incl3 = ab.kernel(red)
    assert ab.invariants(k3) == (1, ())
    # the inclusion lands on even numbers
    img = incl3(tuple(1 for _ in range(k3.ambient)))
    assert all(x % 2 == 0 for x in img) or same_element(Z2, red(img), (0,))


def test_product_and_equalizer_examples():
    prod, projs, injs = ab.product([Z, Z2])
    assert ab.invariants(prod) == (1, (2,))
    g = ab.group_from_invariants(1, (3,))
    e, incl = ab.equalizer(ab.id_hom(g), ab.id_hom(g))
    assert ab.invariants(e) == ab.invariants(g)
    e2, _ = ab.equalizer(ab.id_hom(Z), scale_hom(-1, ab.id_hom(Z)))
    assert ab.is_trivial(e2)


def test_hom_well_definedness_rejected():
    with pytest.raises(ValidationError):
        ab.make_hom(Z2, Z, [[1]])  # 2*1 = 2 is not 0 in Z


def test_hom_equality_is_equivalence_and_composition_compatible():
    rng = random.Random(2)
    for _ in range(25):
        a, b, c = random_group(rng), random_group(rng), random_group(rng)
        f = random_hom(rng, a, b)
        g = random_hom(rng, a, b)
        h = random_hom(rng, b, c)
        assert ab.same_hom(f, f)
        if ab.same_hom(f, g):
            assert ab.same_hom(g, f)
            assert ab.same_hom(ab.compose_hom(h, f), ab.compose_hom(h, g))
        # shifting a column by a codomain relation never changes the hom
        if b.relations and b.relations[0] and a.ambient:
            col = [row[0] for row in b.relations]
            shifted = [list(r) for r in f.matrix]
            for r in range(b.ambient):
                shifted[r][0] += col[r]
            f2 = ab.AbHom(a, b, il.freeze(shifted))
            assert ab.same_hom(f, f2)


def test_kernel_universal_property():
    rng = random.Random(4)
    for _ in range(5):
        dom, cod = random_group(rng), random_group(rng)
        h = random_hom(rng, dom, cod)
        k, incl = ab.kernel(h)
        assert ab.is_zero_hom(ab.compose_hom(h, incl))
        assert ab.is_injective(incl)
        for _ in range(100):
            t = random_group(rng)
            probe = ab.compose_hom(incl, random_hom(rng, t, k))
            assert ab.is_zero_hom(ab.compose_hom(h, probe))
            u = ab.factor_through(probe, incl)
            assert u is not None
            assert ab.same_hom(ab.compose_hom(incl, u), probe)
            # uniqueness: the inclusion is injective, so factors agree
            u2 = ab.factor_through(probe, incl)
            assert ab.same_hom(u, u2)


def test_product_universal_property():
    rng = random.Random(9)
    for _ in range(100):
        parts = [random_group(rng) for _ in range(rng.randint(1, 3))]
        prod, projs, injs = ab.product(parts)
        t = random_group(rng)
        comps = [random_hom(rng, t, g) for g in parts]
        rows = []
        for h in comps:
            rows.extend(h.matrix if h.cod.ambient else ())
        u = ab.AbHom(t, prod, tuple(rows) if prod.ambient else ())
        for proj, h in zip(projs, comps):
            assert ab.same_hom(ab.compose_hom(proj, u), h)
        # uniqueness: difference of two mediators is killed by all projections
        diff_killed = all(
            ab.is_zero_hom(ab.compose_hom(proj, ab.sub_hom(u, u))) for proj in projs
        )
        assert diff_killed


def test_equalizer_universal_property():
    rng = random.Random(14)
    for _ in range(5):
        dom, cod = random_group(rng), random_group(rng)
        f, g = random_hom(rng, dom, cod), random_hom(rng, dom, cod)
        e, incl = ab.equalizer(f, g)
        assert ab.same_hom(ab.compose_hom(f, incl), ab.compose_hom(g, incl))
        for _ in range(100):
            t = random_group(rng)
            probe = ab.compose_hom(incl, random_hom(rng, t, e))
            u = ab.factor_through(probe, incl)
            assert u is not None and ab.same_hom(ab.compose_hom(incl, u), probe)


def test_iso_invariance_with_witnesses():
    rng = random.Random(21)
    for _ in range(15):
        free = rng.randint(0, 2)
        torsion = tuple(sorted(rng.sample([2, 3, 4], rng.randint(0, 2))))
        g1 = ab.group_from_invariants(free, torsion)
        # a scrambled presentation of the same group
        extra = ab.group_from_invariants(free, torsion)
        pair = iso_witness(g1, extra)
        assert pair is not None
        fwd, bwd = pair
        assert ab.same_hom(ab.compose_hom(bwd, fwd), ab.id_hom(g1))
        assert ab.same_hom(ab.compose_hom(fwd, bwd), ab.id_hom(extra))
    assert iso_witness(Z, Z2) is None


def test_scrambled_presentation_same_invariants():
    # Z/6 presented on two generators
    g = ab.make_group(2, [[2, 1], [1, 2]])
    assert ab.invariants(g) == (0, (3,))
    h = ab.group_from_invariants(0, (3,))
    pair = iso_witness(g, h)
    assert pair is not None
    fwd, bwd = pair
    assert ab.same_hom(ab.compose_hom(bwd, fwd), ab.id_hom(g))


def test_enumerate_elements():
    g = ab.group_from_invariants(0, (2, 3))
    elems = enumerate_elements(g)
    assert len(elems) == 6
    seen = set()
    for e in elems:
        canon = normal_form(g, e)
        assert canon not in seen
        seen.add(canon)
    with pytest.raises(ValidationError):
        enumerate_elements(Z)


def test_canonical_form_roundtrip():
    g = ab.make_group(2, [[2, 0], [0, 0]])  # Z/2 x Z
    c, to, frm = canonical_form(g)
    assert ab.invariants(c) == ab.invariants(g) == (1, (2,))
    assert ab.same_hom(ab.compose_hom(to, frm), ab.id_hom(c))
    assert ab.same_hom(ab.compose_hom(frm, to), ab.id_hom(g))


def test_json_roundtrip():
    g = ab.group_from_invariants(1, (4,))
    assert ab.group_from_json(ab.group_to_json(g)) == g
    h = ab.make_hom(g, g, il.identity(2))
    assert hom_from_json(g, g, hom_to_json(h)).matrix == h.matrix
