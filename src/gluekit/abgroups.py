"""Finitely generated abelian groups as integer-matrix presentations.

A group is Z^m modulo the column span of its relation matrix.  Elements are
ambient integer vectors; equality, kernels, products and equalizers are all
decided through the Smith normal form of small integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg as il
from .errors import ValidationError

Matrix = il.Matrix
Vector = il.Vector


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


def trivial_group() -> FgAbGroup:
    return FgAbGroup(0, ())


def group_from_invariants(free_rank: int, torsion=()) -> FgAbGroup:
    m = free_rank + len(torsion)
    rows = [[0] * len(torsion) for _ in range(m)]
    for j, d in enumerate(torsion):
        rows[j][j] = d
    return make_group(m, rows)


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


def in_relation_span(g: FgAbGroup, v: Vector) -> bool:
    if g.ambient == 0:
        return True
    if not g.relations or not g.relations[0]:
        return all(x == 0 for x in v)
    return il.solve(g.relations, v) is not None


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


def group_to_json(g: FgAbGroup) -> dict:
    return {"ambient": g.ambient, "relations": [list(r) for r in g.relations]}


def group_from_json(doc: dict) -> FgAbGroup:
    return make_group(int(doc["ambient"]), doc.get("relations") or ())

