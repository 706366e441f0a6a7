"""Finite topological spaces with explicit open-set lattices.

Points are 0..n-1 and every topological predicate is an exact finite check
over the stored opens.  Quotients carry the final topology, fiber products
the initial one, and pullback squares are decided by comparing against the
standard fiber product through an explicit comparison map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product as iproduct

from .errors import ValidationError

Open = frozenset[int]


@dataclass(frozen=True)
class FinSpace:
    n: int
    opens: frozenset[Open]

    def points(self) -> range:
        return range(self.n)

    def full(self) -> Open:
        return frozenset(range(self.n))

    def is_open(self, s) -> bool:
        return frozenset(s) in self.opens

    def sorted_opens(self) -> list[Open]:
        return sorted(self.opens, key=lambda o: (len(o), sorted(o)))

    def __repr__(self):
        return f"FinSpace({self.n}, {len(self.opens)} opens)"


def make_space(n: int, opens) -> FinSpace:
    """Validated space; errors name the missing or offending set."""
    if n < 0:
        raise ValidationError("point count must be non-negative")
    fam = {frozenset(o) for o in opens}
    full = frozenset(range(n))
    for o in fam:
        if not o <= full:
            raise ValidationError(f"open {sorted(o)} is not a subset of the point set")
    if frozenset() not in fam:
        raise ValidationError("empty set missing from the opens")
    if full not in fam:
        raise ValidationError("full set missing from the opens")
    for a in fam:
        for b in fam:
            if a | b not in fam:
                raise ValidationError(f"union {sorted(a | b)} missing from the opens")
            if a & b not in fam:
                raise ValidationError(f"intersection {sorted(a & b)} missing from the opens")
    return FinSpace(n, frozenset(fam))


def discrete_space(n: int) -> FinSpace:
    opens = [frozenset(s) for s in _powerset(range(n))]
    return FinSpace(n, frozenset(opens))


def indiscrete_space(n: int) -> FinSpace:
    return FinSpace(n, frozenset({frozenset(), frozenset(range(n))}))


def sierpinski() -> FinSpace:
    """Two points; {0} open, {1} closed."""
    return FinSpace(2, frozenset({frozenset(), frozenset({0}), frozenset({0, 1})}))


def point_space() -> FinSpace:
    return FinSpace(1, frozenset({frozenset(), frozenset({0})}))


def empty_space() -> FinSpace:
    return FinSpace(0, frozenset({frozenset()}))


def _powerset(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield {items[k] for k in range(len(items)) if mask >> k & 1}


def close_family(n: int, seed_opens) -> FinSpace:
    """Smallest topology containing the seed family."""
    fam = {frozenset(o) for o in seed_opens}
    fam.add(frozenset())
    fam.add(frozenset(range(n)))
    changed = True
    while changed:
        changed = False
        current = list(fam)
        for a in current:
            for b in current:
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return FinSpace(n, frozenset(fam))


def minimal_open(space: FinSpace, x: int) -> Open:
    """Intersection of all opens containing x (open in a finite space)."""
    out = space.full()
    for o in space.opens:
        if x in o:
            out &= o
    return out


def _irredundant_covers(space: FinSpace, v: Open, max_size: int = 3):
    """Candidate covers of the open v, as the sheaf checks use them: the
    minimal-open cover of v, then every irredundant cover of v by at most
    ``max_size`` nonempty opens."""
    minimal = []
    seen = set()
    for x in sorted(v):
        ux = minimal_open(space, x)
        if ux not in seen:
            seen.add(ux)
            minimal.append(ux)
    yield tuple(minimal)
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


def components_of_open(space: FinSpace, v: Open) -> list[frozenset[int]]:
    """Connected components of an open subspace, via the adjacency x~y iff
    one lies in the minimal open of the other."""
    v = frozenset(v)
    adj = {x: set() for x in v}
    for x in v:
        for y in minimal_open(space, x):
            if y in v and y != x:
                adj[x].add(y)
                adj[y].add(x)
    seen: set[int] = set()
    comps = []
    for x in sorted(v):
        if x in seen:
            continue
        comp = {x}
        stack = [x]
        seen.add(x)
        while stack:
            cur = stack.pop()
            for y in adj[cur]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


@dataclass(frozen=True)
class ContinuousMap:
    dom: FinSpace
    cod: FinSpace
    assign: tuple[int, ...]
    require_open: bool = field(default=False, compare=False)

    def __call__(self, x: int) -> int:
        return self.assign[x]

    def image_of(self, s) -> Open:
        return frozenset(self.assign[x] for x in s)

    def preimage_of(self, s) -> Open:
        s = frozenset(s)
        return frozenset(x for x in range(self.dom.n) if self.assign[x] in s)

    def __repr__(self):
        return f"ContinuousMap({self.dom.n}->{self.cod.n}, {self.assign})"


def make_map(dom: FinSpace, cod: FinSpace, assign, require_open: bool = False) -> ContinuousMap:
    assign = tuple(int(x) for x in assign)
    if len(assign) != dom.n:
        raise ValidationError("assignment must be total on the domain")
    for y in assign:
        if not 0 <= y < cod.n:
            raise ValidationError(f"value {y} outside the codomain")
    f = ContinuousMap(dom, cod, assign, require_open)
    if not is_continuous(f):
        raise ValidationError("map is not continuous")
    if require_open and not is_open_map(f):
        raise ValidationError("map is not open")
    return f


def is_continuous(f: ContinuousMap) -> bool:
    return all(f.preimage_of(o) in f.dom.opens for o in f.cod.opens)


def is_open_map(f: ContinuousMap) -> bool:
    return all(f.image_of(o) in f.cod.opens for o in f.dom.opens)


def identity_map(space: FinSpace) -> ContinuousMap:
    return ContinuousMap(space, space, tuple(range(space.n)))


def compose(f: ContinuousMap, g: ContinuousMap) -> ContinuousMap:
    """f after g."""
    if g.cod != f.dom:
        raise ValidationError("compose: endpoint mismatch")
    return ContinuousMap(g.dom, f.cod, tuple(f.assign[g.assign[x]] for x in range(g.dom.n)))


def is_injective(f: ContinuousMap) -> bool:
    return len(set(f.assign)) == f.dom.n


def is_bijective(f: ContinuousMap) -> bool:
    return f.dom.n == f.cod.n and is_injective(f)


def inverse_map(f: ContinuousMap) -> ContinuousMap | None:
    if not is_bijective(f):
        return None
    inv = [0] * f.cod.n
    for x, y in enumerate(f.assign):
        inv[y] = x
    g = ContinuousMap(f.cod, f.dom, tuple(inv))
    return g if is_continuous(g) else None


def is_homeomorphism(f: ContinuousMap) -> bool:
    return is_continuous(f) and inverse_map(f) is not None


def subspace(space: FinSpace, pointset) -> FinSpace:
    """Subspace topology on the given points, renumbered in sorted order."""
    pts = sorted(set(pointset))
    for p in pts:
        if not 0 <= p < space.n:
            raise ValidationError(f"point {p} not in the space")
    local = {p: k for k, p in enumerate(pts)}
    opens = {frozenset(local[p] for p in (o & frozenset(pts))) for o in space.opens}
    return FinSpace(len(pts), frozenset(opens))


def subspace_with_inclusion(space: FinSpace, pointset) -> tuple[FinSpace, ContinuousMap]:
    sub = subspace(space, pointset)
    pts = sorted(set(pointset))
    incl = ContinuousMap(sub, space, tuple(pts))
    return sub, incl


def coproduct(spaces) -> tuple[FinSpace, list[ContinuousMap]]:
    """Disjoint union; opens are one open choice per summand, united."""
    spaces = list(spaces)
    offsets = []
    total = 0
    for s in spaces:
        offsets.append(total)
        total += s.n
    open_choices = [s.sorted_opens() for s in spaces]
    opens = set()
    for choice in iproduct(*open_choices) if spaces else [()]:
        u = set()
        for off, o in zip(offsets, choice):
            u |= {off + p for p in o}
        opens.add(frozenset(u))
    if not spaces:
        opens = {frozenset()}
    space = FinSpace(total, frozenset(opens))
    injections = [
        ContinuousMap(s, space, tuple(off + p for p in range(s.n)))
        for s, off in zip(spaces, offsets)
    ]
    return space, injections


def equivalence_closure(n: int, pairs) -> list[frozenset[int]]:
    """Classes of the smallest equivalence relation containing the pairs."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    classes: dict[int, set[int]] = {}
    for x in range(n):
        classes.setdefault(find(x), set()).add(x)
    return sorted((frozenset(c) for c in classes.values()), key=min)


def is_equivalence(n: int, pairs) -> bool:
    rel = set()
    for a, b in pairs:
        rel.add((a, b))
    for x in range(n):
        if (x, x) not in rel:
            return False
    for a, b in rel:
        if (b, a) not in rel:
            return False
    for a, b in rel:
        for c, d in rel:
            if b == c and (a, d) not in rel:
                return False
    return True


def quotient_final(space: FinSpace, pairs) -> tuple[FinSpace, ContinuousMap]:
    """Quotient by the closure of an arbitrary relation, with the final
    topology: a class set is open iff its preimage is open."""
    classes = equivalence_closure(space.n, pairs)
    cls_of = {}
    for k, c in enumerate(classes):
        for p in c:
            cls_of[p] = k
    m = len(classes)
    opens = set()
    for mask in range(1 << m):
        w = {k for k in range(m) if mask >> k & 1}
        pre = frozenset(p for p in range(space.n) if cls_of[p] in w)
        if pre in space.opens:
            opens.add(frozenset(w))
    q = FinSpace(m, frozenset(opens))
    proj = ContinuousMap(space, q, tuple(cls_of[p] for p in range(space.n)))
    return q, proj


def fiber_product(f: ContinuousMap, g: ContinuousMap) -> tuple[FinSpace, ContinuousMap, ContinuousMap]:
    """Standard pullback of f and g: matching pairs with the initial topology
    generated by the projection preimages."""
    if f.cod != g.cod:
        raise ValidationError("fiber product needs a common codomain")
    pts = [(a, b) for a in range(f.dom.n) for b in range(g.dom.n) if f.assign[a] == g.assign[b]]
    index = {p: k for k, p in enumerate(pts)}
    n = len(pts)
    seed = set()
    for o in f.dom.opens:
        seed.add(frozenset(index[(a, b)] for (a, b) in pts if a in o))
    for o in g.dom.opens:
        seed.add(frozenset(index[(a, b)] for (a, b) in pts if b in o))
    space = close_family(n, seed)
    p1 = ContinuousMap(space, f.dom, tuple(a for (a, b) in pts))
    p2 = ContinuousMap(space, g.dom, tuple(b for (a, b) in pts))
    return space, p1, p2


def square_commutes(p1: ContinuousMap, p2: ContinuousMap, f: ContinuousMap, g: ContinuousMap) -> bool:
    """Does f∘p1 = g∘p2 for legs p1: P->A, p2: P->B, f: A->C, g: B->C?"""
    if p1.dom != p2.dom or f.cod != g.cod or p1.cod != f.dom or p2.cod != g.dom:
        return False
    return compose(f, p1).assign == compose(g, p2).assign


def is_pullback_square(p1, p2, f, g) -> bool:
    """True iff the apex with its two legs is a pullback of (f, g): the
    comparison map into the standard fiber product is a homeomorphism.

    Raises ValidationError when the square does not even commute, so that a
    non-commuting square is reported distinctly from a failing comparison.
    """
    if not square_commutes(p1, p2, f, g):
        raise ValidationError("square does not commute")
    fp, q1, q2 = fiber_product(f, g)
    pairs = list(zip(q1.assign, q2.assign))
    index = {p: k for k, p in enumerate(pairs)}
    apex = p1.dom
    try:
        comparison = make_map(
            apex, fp, tuple(index[(p1.assign[x], p2.assign[x])] for x in range(apex.n))
        )
    except ValidationError:
        return False
    return is_homeomorphism(comparison)


def is_pushout_in_opposite(p1, p2, f, g) -> bool:
    """The same square read in the opposite category: pushouts there are
    exactly pullbacks here."""
    return is_pullback_square(p1, p2, f, g)


def space_to_json(space: FinSpace) -> dict:
    return {"points": space.n, "opens": [sorted(o) for o in space.sorted_opens()]}


def space_from_json(doc: dict) -> FinSpace:
    return make_space(int(doc["points"]), [frozenset(o) for o in doc["opens"]])


def map_to_json(f: ContinuousMap) -> dict:
    return {
        "dom": space_to_json(f.dom),
        "cod": space_to_json(f.cod),
        "assign": list(f.assign),
    }


def map_from_json(doc: dict, dom: FinSpace | None = None, cod: FinSpace | None = None) -> ContinuousMap:
    dom = dom if dom is not None else space_from_json(doc["dom"])
    cod = cod if cod is not None else space_from_json(doc["cod"])
    return make_map(dom, cod, doc["assign"])


def specialization_dot(space: FinSpace, name: str = "space") -> str:
    """DOT digraph of the specialization preorder.

    Convention: an edge x -> y is drawn when every open containing x also
    contains y (x specializes to y); loops are omitted.
    """
    lines = [f"digraph {name} {{"]
    for p in range(space.n):
        lines.append(f'    p{p} [label="{p}"];')
    for x in range(space.n):
        for y in range(space.n):
            if x != y and all(y in o for o in space.opens if x in o):
                lines.append(f"    p{x} -> p{y};")
    lines.append("}")
    return "\n".join(lines)
