"""Finitely generated abelian groups as integer-matrix presentations.

A group is Z^m modulo the column span of its relation matrix.  Elements are
ambient integer vectors; equality, kernels, products and equalizers are all
decided through the Smith normal form of small integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import intlinalg as il
from .errors import ValidationError

Matrix = il.Matrix
Vector = il.Vector

# entries kept by the presentation cache, so a long batch stays bounded in memory
_PRESENTATION_CACHE_SIZE = 4096


@dataclass(frozen=True)
class FgAbGroup:
    """Z^ambient / column-span(relations); relations has ``ambient`` rows."""

    ambient: int
    relations: Matrix

    def __post_init__(self):
        if self.relations and len(self.relations) != self.ambient:
            raise ValidationError(
                f"relations must have {self.ambient} rows, got {len(self.relations)}"
            )

    def __repr__(self):
        free, tor = invariants(self)
        parts = ["Z"] * free + [f"Z/{d}" for d in tor]
        return "FgAbGroup<" + (" x ".join(parts) if parts else "0") + ">"


def make_group(ambient: int, relation_rows=()) -> FgAbGroup:
    rows = il.freeze(relation_rows) if relation_rows else ()
    if rows:
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValidationError("ragged relation matrix")
    return FgAbGroup(ambient, rows)


def free_group(rank: int) -> FgAbGroup:
    return FgAbGroup(rank, ())


def cyclic_group(n: int) -> FgAbGroup:
    if n < 0:
        raise ValidationError("cyclic order must be non-negative")
    if n == 0:
        return free_group(1)
    return FgAbGroup(1, ((n,),))


def trivial_group() -> FgAbGroup:
    return FgAbGroup(0, ())


def group_from_invariants(free_rank: int, torsion=()) -> FgAbGroup:
    m = free_rank + len(torsion)
    rows = [[0] * len(torsion) for _ in range(m)]
    for j, d in enumerate(torsion):
        rows[j][j] = d
    return make_group(m, rows)


@lru_cache(maxsize=_PRESENTATION_CACHE_SIZE)
def _presentation_snf(ambient: int, relations: Matrix):
    if not relations:
        relations = tuple(() for _ in range(ambient))
    if ambient == 0:
        return (), (), ()
    return il.snf(relations)


def _group_snf(g: FgAbGroup):
    return _presentation_snf(g.ambient, g.relations)


def invariants(g: FgAbGroup) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors > 1) of the group."""
    if g.ambient == 0:
        return 0, ()
    diag = il.snf_diagonal(g.relations) if g.relations else ()
    free = g.ambient - len(diag)
    torsion = tuple(d for d in diag if d > 1)
    return free, torsion


def is_trivial(g: FgAbGroup) -> bool:
    free, torsion = invariants(g)
    return free == 0 and not torsion


def zero_vector(g: FgAbGroup) -> Vector:
    return (0,) * g.ambient


def solve_membership(a: Matrix, b: Vector) -> Vector | None:
    """Witness x with a*x = b over the integers, if one exists."""
    return il.solve(a, b)


def in_relation_span(g: FgAbGroup, v: Vector) -> bool:
    if g.ambient == 0:
        return True
    if not g.relations or not g.relations[0]:
        return all(x == 0 for x in v)
    return il.solve(g.relations, v) is not None


def same_element(g: FgAbGroup, x: Vector, y: Vector) -> bool:
    return in_relation_span(g, tuple(a - b for a, b in zip(x, y)))


def normal_form(g: FgAbGroup, x: Vector) -> Vector:
    """Canonical representative of x: reduce in SNF coordinates."""
    if g.ambient == 0:
        return ()
    u, s, _ = _group_snf(g)
    y = list(il.mat_vec(u, x))
    m = g.ambient
    ncols = len(s[0]) if s and s[0] else 0
    for i in range(min(m, ncols)):
        d = s[i][i]
        if d != 0:
            y[i] %= d
    uinv = il.int_inverse(u)
    return il.mat_vec(uinv, tuple(y))


def enumerate_elements(g: FgAbGroup) -> list[Vector]:
    """All elements of a finite group, as canonical ambient vectors."""
    free, _ = invariants(g)
    if free:
        raise ValidationError("cannot enumerate an infinite group")
    u, s, _ = _group_snf(g)
    m = g.ambient
    if m == 0:
        return [()]
    ncols = len(s[0]) if s and s[0] else 0
    diag = [s[i][i] for i in range(min(m, ncols))]
    uinv = il.int_inverse(u)
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


@dataclass(frozen=True, eq=False)
class AbHom:
    """Group homomorphism as a (cod.ambient x dom.ambient) integer matrix."""

    dom: FgAbGroup
    cod: FgAbGroup
    matrix: Matrix

    def __call__(self, x: Vector) -> Vector:
        if self.cod.ambient == 0:
            return ()
        if self.dom.ambient == 0:
            return zero_vector(self.cod)
        return il.mat_vec(self.matrix, x)


def make_hom(dom: FgAbGroup, cod: FgAbGroup, matrix_rows) -> AbHom:
    mat = il.freeze(matrix_rows) if dom.ambient and cod.ambient else _zero_matrix(cod.ambient, dom.ambient)
    if cod.ambient and dom.ambient:
        m, n = il.shape(mat)
        if (m, n) != (cod.ambient, dom.ambient):
            raise ValidationError(
                f"hom matrix must be {cod.ambient}x{dom.ambient}, got {m}x{n}"
            )
    h = AbHom(dom, cod, mat)
    if not is_well_defined(h):
        raise ValidationError("hom does not kill the domain relations")
    return h


def _zero_matrix(m: int, n: int) -> Matrix:
    return tuple((0,) * n for _ in range(m))


def is_well_defined(h: AbHom) -> bool:
    if h.dom.ambient == 0 or not h.dom.relations or (h.dom.relations and not h.dom.relations[0]):
        return True
    for col in il.columns(h.dom.relations):
        if not in_relation_span(h.cod, h(col)):
            return False
    return True


def id_hom(g: FgAbGroup) -> AbHom:
    return AbHom(g, g, il.identity(g.ambient))


def zero_hom(dom: FgAbGroup, cod: FgAbGroup) -> AbHom:
    return AbHom(dom, cod, _zero_matrix(cod.ambient, dom.ambient))


def compose_hom(f: AbHom, g: AbHom) -> AbHom:
    """f after g."""
    if g.cod is not f.dom and g.cod != f.dom:
        raise ValidationError("compose_hom: endpoint mismatch")
    if f.cod.ambient == 0 or g.dom.ambient == 0:
        return zero_hom(g.dom, f.cod)
    if f.dom.ambient == 0:
        return zero_hom(g.dom, f.cod)
    return AbHom(g.dom, f.cod, il.mat_mul(f.matrix, g.matrix))


def sub_hom(f: AbHom, g: AbHom) -> AbHom:
    return AbHom(f.dom, f.cod, il.mat_sub(f.matrix, g.matrix))


def scale_hom(c: int, f: AbHom) -> AbHom:
    return AbHom(f.dom, f.cod, il.mat_scale(c, f.matrix))


def same_hom(f: AbHom, g: AbHom) -> bool:
    """Equality as maps: the difference sends every generator into the
    codomain relation span."""
    if f.dom != g.dom or f.cod != g.cod:
        return False
    if f.dom.ambient == 0:
        return True
    diff = il.mat_sub(f.matrix, g.matrix) if f.cod.ambient else None
    if f.cod.ambient == 0:
        return True
    for col in il.columns(diff):
        if not in_relation_span(f.cod, col):
            return False
    return True


def is_zero_hom(f: AbHom) -> bool:
    return same_hom(f, zero_hom(f.dom, f.cod))


def kernel(h: AbHom) -> tuple[FgAbGroup, AbHom]:
    """Kernel of the induced quotient map, with its inclusion hom."""
    m = h.dom.ambient
    if m == 0:
        k = trivial_group()
        return k, zero_hom(k, h.dom)
    # x lies in the kernel iff h(x) lands in the codomain relation span
    rel_cod = h.cod.relations if (h.cod.relations and h.cod.relations[0]) else None
    if h.cod.ambient == 0:
        gens = il.columns(il.identity(m))
    else:
        block = h.matrix if rel_cod is None else il.hstack(h.matrix, rel_cod)
        gens = [v[:m] for v in il.kernel_basis(block)]
    rel_dom_cols = il.columns(h.dom.relations) if (h.dom.relations and h.dom.relations[0]) else []
    gens = gens + rel_dom_cols
    if not gens:
        k = trivial_group()
        return k, zero_hom(k, h.dom)
    gmat = il.from_columns(gens, m)
    t = len(gens)
    # relations of the kernel: combinations of generators falling in dom relations
    if rel_dom_cols:
        rel_dom = il.from_columns(rel_dom_cols, m)
        block2 = il.hstack(gmat, rel_dom)
        rel_cols = [v[:t] for v in il.kernel_basis(block2)]
    else:
        rel_cols = il.kernel_basis(gmat)
    k = FgAbGroup(t, il.from_columns(rel_cols, t) if rel_cols else ())
    incl = AbHom(k, h.dom, gmat)
    return k, incl


def product(groups) -> tuple[FgAbGroup, list[AbHom], list[AbHom]]:
    """Direct product with canonical projections and injections."""
    groups = list(groups)
    ambient = sum(g.ambient for g in groups)
    rel_cols = []
    offset = 0
    for g in groups:
        if g.relations and g.relations[0]:
            for col in il.columns(g.relations):
                rel_cols.append(
                    (0,) * offset + col + (0,) * (ambient - offset - g.ambient)
                )
        offset += g.ambient
    prod = FgAbGroup(ambient, il.from_columns(rel_cols, ambient) if rel_cols else ())
    projections, injections = [], []
    offset = 0
    for g in groups:
        proj = tuple(
            tuple(1 if j == offset + i else 0 for j in range(ambient))
            for i in range(g.ambient)
        )
        inj = il.transpose(proj)
        projections.append(AbHom(prod, g, proj))
        injections.append(AbHom(g, prod, inj))
        offset += g.ambient
    return prod, projections, injections


def equalizer(f: AbHom, g: AbHom) -> tuple[FgAbGroup, AbHom]:
    """Subgroup where the parallel pair f, g agree, with inclusion."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValidationError("equalizer needs a parallel pair")
    return kernel(sub_hom(f, g))


def is_injective(h: AbHom) -> bool:
    k, _ = kernel(h)
    return is_trivial(k)


def is_surjective(h: AbHom) -> bool:
    n = h.cod.ambient
    if n == 0:
        return True
    rel_cod = h.cod.relations if (h.cod.relations and h.cod.relations[0]) else None
    block = h.matrix if rel_cod is None else il.hstack(h.matrix, rel_cod)
    diag = il.snf_diagonal(block)
    return len(diag) == n and all(d == 1 for d in diag)


def is_iso(h: AbHom) -> bool:
    return is_injective(h) and is_surjective(h)


def inverse_hom(h: AbHom) -> AbHom | None:
    """Two-sided inverse of an isomorphism, else None."""
    if not is_iso(h):
        return None
    g = factor_through(id_hom(h.cod), h)
    if g is None:
        return None
    if not same_hom(compose_hom(h, g), id_hom(h.cod)):
        return None
    if not same_hom(compose_hom(g, h), id_hom(h.dom)):
        return None
    return g


def factor_through(u: AbHom, v: AbHom) -> AbHom | None:
    """h with v∘h = u, solving column by column; None if u misses im(v)."""
    if u.cod != v.cod:
        raise ValidationError("factor_through needs a common codomain")
    m = u.dom.ambient
    if m == 0:
        return zero_hom(u.dom, v.dom)
    if v.dom.ambient == 0:
        return zero_hom(u.dom, v.dom) if is_zero_hom(u) else None
    rel_cod = v.cod.relations if (v.cod.relations and v.cod.relations[0]) else None
    if v.cod.ambient == 0:
        return zero_hom(u.dom, v.dom)
    block = v.matrix if rel_cod is None else il.hstack(v.matrix, rel_cod)
    cols = []
    for e in il.columns(il.identity(m)):
        target = u(e)
        x = il.solve(block, target)
        if x is None:
            return None
        cols.append(x[: v.dom.ambient])
    h = AbHom(u.dom, v.dom, il.from_columns(cols, v.dom.ambient))
    if not is_well_defined(h):
        return None
    if not same_hom(compose_hom(v, h), u):
        return None
    return h


def canonical_form(g: FgAbGroup) -> tuple[FgAbGroup, AbHom, AbHom]:
    """Presentation by invariant factors, with mutually inverse homs.

    Returns (C, to, frm) with to: g -> C, frm: C -> g and both composites
    equal to identities.
    """
    free, torsion = invariants(g)
    c = group_from_invariants(free, torsion)
    if g.ambient == 0:
        return c, zero_hom(g, c), zero_hom(c, g)
    u, s, _ = _group_snf(g)
    m = g.ambient
    ncols = len(s[0]) if s and s[0] else 0
    diag = [s[i][i] for i in range(min(m, ncols))]
    keep = [i for i, d in enumerate(diag) if d != 1] + list(range(len(diag), m))
    uinv = il.int_inverse(u)
    to_mat = tuple(u[i] for i in keep) if keep else _zero_matrix(0, m)
    frm_cols = [tuple(uinv[r][i] for r in range(m)) for i in keep]
    frm_mat = il.from_columns(frm_cols, m) if keep else _zero_matrix(m, 0)
    to = AbHom(g, c, to_mat)
    frm = AbHom(c, g, frm_mat)
    return c, to, frm


def iso_witness(g1: FgAbGroup, g2: FgAbGroup) -> tuple[AbHom, AbHom] | None:
    """Explicit isomorphisms (g1 -> g2, g2 -> g1) when the invariants match."""
    if invariants(g1) != invariants(g2):
        return None
    _, to1, frm1 = canonical_form(g1)
    _, to2, frm2 = canonical_form(g2)
    fwd = compose_hom(frm2, AbHom(to1.cod, frm2.dom, il.identity(to1.cod.ambient)))
    fwd = compose_hom(fwd, to1)
    bwd = compose_hom(frm1, AbHom(to2.cod, frm1.dom, il.identity(to2.cod.ambient)))
    bwd = compose_hom(bwd, to2)
    return fwd, bwd


def group_to_json(g: FgAbGroup) -> dict:
    return {"ambient": g.ambient, "relations": [list(r) for r in g.relations]}


def group_from_json(doc: dict) -> FgAbGroup:
    return make_group(int(doc["ambient"]), doc.get("relations") or ())


def hom_to_json(h: AbHom) -> dict:
    return {"matrix": [list(r) for r in h.matrix]}


def hom_from_json(dom: FgAbGroup, cod: FgAbGroup, doc: dict) -> AbHom:
    return make_hom(dom, cod, doc.get("matrix") or ())
