"""Finite topological spaces as specialization preorders.

Points are 0..n-1 and a space stores the minimal open of each point; the
opens are exactly their unions, so continuity is monotonicity and every
construction works on the minimal opens.  Quotients carry the final
topology, fiber products the initial one, and pullback squares are decided
against the standard fiber product through an explicit comparison map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import chain, compress
from operator import or_

from .errors import ValidationError

Open = frozenset[int]


@dataclass(frozen=True)
class FinSpace:
    n: int
    minimal: tuple[Open, ...]

    @cached_property
    def opens(self) -> frozenset[Open]:
        """Every open set: the unions of minimal opens, built point by point."""
        opens = {frozenset()}
        for ux in self.minimal:
            opens |= {o | ux for o in opens}
        return frozenset(opens)

    def full(self) -> Open:
        return frozenset(range(self.n))

    @cached_property
    def sorted_opens(self) -> tuple[Open, ...]:
        """The opens by size, then by their sorted points: a total order."""
        return tuple(sorted(self.opens, key=lambda o: (len(o), sorted(o))))

    @cached_property
    def lower_covers(self) -> dict[Open, tuple[Open, ...]]:
        """Each open's maximal proper open subsets, by their points: u less
        the class {x : U_x = U_y} of a point y of u in the minimal open of
        no point of u outside that class (one point when the space is T0)."""
        above = [frozenset(x for x, ux in enumerate(self.minimal) if y in ux) for y in range(self.n)]
        same = [frozenset(x for x in above[y] if self.minimal[x] == self.minimal[y]) for y in range(self.n)]
        return {
            u: tuple(sorted({u - same[y] for y in u if above[y] & u <= same[y]}, key=sorted))
            for u in self.sorted_opens
        }

    def __repr__(self):
        return f"FinSpace({self.n}, minimal={[sorted(ux) for ux in self.minimal]})"


def make_space(n: int, opens) -> FinSpace:
    """Validated space; errors name the missing or offending set.  The family
    is a topology iff it holds every minimal open and each ``o | minimal[x]``.
    """
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
    minimal = _minimal_opens(n, fam)
    for ux in minimal:
        if ux not in fam:
            raise ValidationError(f"intersection {sorted(ux)} missing from the opens")
    for o in fam:
        for ux in minimal:
            if o | ux not in fam:
                raise ValidationError(f"union {sorted(o | ux)} missing from the opens")
    return FinSpace(n, minimal)


def _minimal_opens(n: int, family) -> tuple[Open, ...]:
    """For each point, the intersection of the family's members containing it."""
    minimal = [frozenset(range(n))] * n
    for o in family:
        for x in o:
            minimal[x] = minimal[x] & o
    return tuple(minimal)


def discrete_space(n: int) -> FinSpace:
    return FinSpace(n, tuple(frozenset({x}) for x in range(n)))


def point_space() -> FinSpace:
    return discrete_space(1)


def empty_space() -> FinSpace:
    return FinSpace(0, ())


def close_family(n: int, seed_opens) -> FinSpace:
    """Smallest topology containing the seed family: the minimal open of a
    point is the intersection of the seeds that contain it."""
    return FinSpace(n, _minimal_opens(n, {frozenset(o) for o in seed_opens}))


def minimal_open(space: FinSpace, x: int) -> Open:
    """Intersection of all opens containing x (open in a finite space)."""
    return space.minimal[x]


def minimal_cover(space: FinSpace, v: Open) -> tuple[Open, ...]:
    """The one cover of v on which the sheaf axioms are decided: the maximal
    minimal opens U_x for x in v, ordered by their points.

    It decides them exactly: U_x lies in every open containing x, so it
    refines every cover of v, and a presheaf satisfying the axioms on the
    minimal cover of each open satisfies them on every cover (McCord 1966).
    A single member is v itself, a minimal open, where they hold trivially.
    """
    opens = {space.minimal[x] for x in v}
    return tuple(sorted((u for u in opens if not any(u < w for w in opens)), key=sorted))


def components_of_open(space: FinSpace, v: Open) -> list[frozenset[int]]:
    """Connected components of an open subspace, via the adjacency x~y iff
    one lies in the minimal open of the other, ordered by their least
    points: each point's minimal open within v joins the components it
    meets."""
    v = frozenset(v)
    comps: list[frozenset[int]] = []
    for x in v:
        joined = v & space.minimal[x]
        rest = []
        for c in comps:
            if c.isdisjoint(joined):
                rest.append(c)
            else:
                joined |= c
        rest.append(joined)
        comps = rest
    return sorted(comps, key=min)


@dataclass(frozen=True)
class ContinuousMap:
    dom: FinSpace
    cod: FinSpace
    assign: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.assign[x]

    def image_of(self, s) -> Open:
        return frozenset(map(self.assign.__getitem__, s))

    def preimage_of(self, s) -> Open:
        return frozenset(compress(range(self.dom.n), map(frozenset(s).__contains__, self.assign)))

    def __repr__(self):
        return f"ContinuousMap({self.dom.n}->{self.cod.n}, {self.assign})"


def make_map(dom: FinSpace, cod: FinSpace, assign) -> ContinuousMap:
    assign = tuple(int(x) for x in assign)
    if len(assign) != dom.n:
        raise ValidationError("assignment must be total on the domain")
    for y in assign:
        if not 0 <= y < cod.n:
            raise ValidationError(f"value {y} outside the codomain")
    f = ContinuousMap(dom, cod, assign)
    if not is_continuous(f):
        raise ValidationError("map is not continuous")
    return f


def is_continuous(f: ContinuousMap) -> bool:
    """Monotone for the specialization preorders: f maps each minimal open
    into the minimal open of the image point."""
    images = map(partial(map, f.assign.__getitem__), f.dom.minimal)
    return all(map(frozenset.issuperset, map(f.cod.minimal.__getitem__, f.assign), images))


def is_open_map(f: ContinuousMap) -> bool:
    """The image of each minimal open is open, i.e. holds the minimal open
    of each of its points."""
    cod = f.cod.minimal.__getitem__
    images = map(frozenset, map(partial(map, f.assign.__getitem__), f.dom.minimal))
    return all(image.issuperset(chain.from_iterable(map(cod, image))) for image in images)


def identity_map(space: FinSpace) -> ContinuousMap:
    return ContinuousMap(space, space, tuple(range(space.n)))


def compose(f: ContinuousMap, g: ContinuousMap) -> ContinuousMap:
    """f after g."""
    if g.cod != f.dom:
        raise ValidationError("compose: endpoint mismatch")
    return ContinuousMap(g.dom, f.cod, tuple(map(f.assign.__getitem__, g.assign)))


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
    minimal = [frozenset(local[y] for y in space.minimal[p] if y in local) for p in pts]
    return FinSpace(len(pts), tuple(minimal))


def coproduct(spaces) -> tuple[FinSpace, list[ContinuousMap]]:
    """Disjoint union; the minimal opens of the summands, shifted."""
    spaces = list(spaces)
    offsets = []
    minimal = []
    for s in spaces:
        off = len(minimal)
        offsets.append(off)
        minimal.extend(frozenset(off + y for y in ux) for ux in s.minimal)
    space = FinSpace(len(minimal), tuple(minimal))
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
    cls_of = [0] * space.n
    for k, c in enumerate(classes):
        for p in c:
            cls_of[p] = k
    q = final_topology(len(classes), [(space, cls_of)])
    return q, ContinuousMap(space, q, tuple(cls_of))


def final_topology(n: int, maps) -> FinSpace:
    """Final topology on n points for (domain, assignment) maps into them: the
    minimal open of z is everything reachable from z along the steps
    f(x) -> f(y) for y in the minimal open of x.  Point sets are int
    bitmasks, closed under reachability one point k at a time (Warshall)."""
    reach = [1 << z for z in range(n)]
    for dom, assign in maps:
        bits = [1 << y for y in assign]
        for z, ux in zip(assign, dom.minimal):
            reach[z] |= reduce(or_, map(bits.__getitem__, ux), 0)
    for k in range(n):
        bit, row = 1 << k, reach[k]
        for z in range(n):
            if reach[z] & bit:
                reach[z] |= row
    return FinSpace(n, tuple(frozenset(x for x in range(n) if mask >> x & 1) for mask in reach))


def fiber_product(f: ContinuousMap, g: ContinuousMap) -> tuple[FinSpace, ContinuousMap, ContinuousMap]:
    """Standard pullback of f and g: matching pairs with the initial topology
    generated by the projection preimages."""
    if f.cod != g.cod:
        raise ValidationError("fiber product needs a common codomain")
    pts = [(a, b) for a in range(f.dom.n) for b in range(g.dom.n) if f.assign[a] == g.assign[b]]
    index = {p: k for k, p in enumerate(pts)}
    boxes = ([(x, y) for x in f.dom.minimal[a] for y in g.dom.minimal[b]] for a, b in pts)
    space = FinSpace(len(pts), tuple(frozenset(index[p] for p in box if p in index) for box in boxes))
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


def space_to_json(space: FinSpace) -> dict:
    return {"points": space.n, "opens": [sorted(o) for o in space.sorted_opens]}


def space_from_json(doc: dict) -> FinSpace:
    return make_space(int(doc["points"]), [frozenset(o) for o in doc["opens"]])


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
            if x != y and y in space.minimal[x]:
                lines.append(f"    p{x} -> p{y};")
    lines.append("}")
    return "\n".join(lines)
