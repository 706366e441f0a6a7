"""The gluing index category on a finite index set.

Objects are classes of index tuples: singles [i], ordered pairs [i,j] with
i != j, and triples [i,{j,k}] with an apex and an unordered pair of partners.
Between any two objects there is at most one morphism; existence is computed
as the transitive closure of the generating arrows.

Generator naming (one fixed convention for the several notations in use):

* ``Eta(i, j)``      : [i]      -> [i,j]
* ``Tau(i, j)``      : [j,i]    -> [i,j]
* ``EtaT(i, n, m)``  : [i,n]    -> [i,{n,m}]   (n is the route taken)
* ``TauT(i, j, k)``  : [j,{i,k}]-> [i,{j,k}]   (swap of the first two slots)

Degenerate generators (repeated indices) collapse to identities or to the
arrows above under canonicalization and are not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .errors import ValidationError

DEFAULT_MAX_INDEX = 6


@dataclass(frozen=True)
class IdxObj:
    """Canonical object: apex plus 0, 1 or 2 partner indices."""

    apex: int
    rest: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.rest) == 2 and self.rest[0] > self.rest[1]:
            raise ValidationError("triple partners must be sorted")
        if self.apex in self.rest or len(set(self.rest)) != len(self.rest):
            raise ValidationError("object indices must be distinct")

    @property
    def kind(self) -> str:
        return ("single", "pair", "triple")[len(self.rest)]

    def support(self) -> frozenset[int]:
        return frozenset((self.apex,) + self.rest)

    def label(self) -> str:
        return "[" + ",".join(str(i) for i in (self.apex,) + self.rest) + "]"

    def __repr__(self):
        return self.label()


def single(i: int) -> IdxObj:
    return IdxObj(i)


def pair(i: int, j: int) -> IdxObj:
    return IdxObj(i, (j,))


def triple(i: int, j: int, k: int) -> IdxObj:
    return IdxObj(i, (min(j, k), max(j, k)))


def canonicalize(raw: tuple[int, ...], n: int | None = None) -> IdxObj:
    """Collapse a 1-3 index tuple to its canonical class representative.

    The collapsing rules are (i,i)->(i), (i,i,i)->(i), (i,i,j)->(i,j),
    (i,j,j)->(i,j) and symmetry in the last two slots of a triple.
    """
    if not 1 <= len(raw) <= 3:
        raise ValidationError("index tuples have length 1, 2 or 3")
    if n is not None:
        for x in raw:
            if not 0 <= x < n:
                raise ValidationError(f"index {x} out of range for n={n}")
    if len(raw) == 1:
        return single(raw[0])
    if len(raw) == 2:
        i, j = raw
        return single(i) if i == j else pair(i, j)
    i, j, k = raw
    if j == k:
        return single(i) if i == j else pair(i, j)
    if i == j:
        return pair(i, k)
    if i == k:
        return pair(i, j)
    return triple(i, j, k)


@dataclass(frozen=True)
class Eta:
    i: int
    j: int

    @property
    def dom(self) -> IdxObj:
        return single(self.i)

    @property
    def cod(self) -> IdxObj:
        return pair(self.i, self.j)


@dataclass(frozen=True)
class Tau:
    i: int
    j: int

    @property
    def dom(self) -> IdxObj:
        return pair(self.j, self.i)

    @property
    def cod(self) -> IdxObj:
        return pair(self.i, self.j)


@dataclass(frozen=True)
class EtaT:
    """[i, via] -> [i, {via, other}]."""

    i: int
    via: int
    other: int

    @property
    def dom(self) -> IdxObj:
        return pair(self.i, self.via)

    @property
    def cod(self) -> IdxObj:
        return triple(self.i, self.via, self.other)


@dataclass(frozen=True)
class TauT:
    """[j, {i, k}] -> [i, {j, k}]."""

    i: int
    j: int
    k: int

    @property
    def dom(self) -> IdxObj:
        return triple(self.j, self.i, self.k)

    @property
    def cod(self) -> IdxObj:
        return triple(self.i, self.j, self.k)


Generator = Eta | Tau | EtaT | TauT


def enumerate_objects(n: int) -> list[IdxObj]:
    objs: list[IdxObj] = [single(i) for i in range(n)]
    objs += [pair(i, j) for i in range(n) for j in range(n) if i != j]
    objs += [
        triple(i, j, k)
        for i in range(n)
        for j, k in combinations((x for x in range(n) if x != i), 2)
    ]
    return objs


def generators(n: int) -> list[Generator]:
    gens: list[Generator] = []
    for i, j in permutations(range(n), 2):
        gens.append(Eta(i, j))
        gens.append(Tau(i, j))
    for i, j, k in permutations(range(n), 3):
        gens.append(TauT(i, j, k))
        if j < k:
            gens.append(EtaT(i, j, k))
            gens.append(EtaT(i, k, j))
    return gens


@dataclass(frozen=True)
class GluingIndexCategory:
    n: int
    objects: tuple[IdxObj, ...]
    hom: frozenset[tuple[IdxObj, IdxObj]]

    def hom_exists(self, a: IdxObj, b: IdxObj) -> bool:
        return (a, b) in self.hom

    def morphism_count(self) -> int:
        return len(self.hom)


def enumerate_category(n: int, max_n: int = DEFAULT_MAX_INDEX) -> GluingIndexCategory:
    """Objects and the full hom-existence relation, by transitive closure."""
    if n < 1:
        raise ValidationError("the index set must be non-empty")
    if n > max_n:
        raise ValidationError(f"index set size {n} above the configured bound {max_n}")
    objs = enumerate_objects(n)
    edges: set[tuple[IdxObj, IdxObj]] = {(a, a) for a in objs}
    for g in generators(n):
        edges.add((g.dom, g.cod))
    changed = True
    while changed:
        changed = False
        by_dom: dict[IdxObj, list[IdxObj]] = {}
        for a, b in edges:
            by_dom.setdefault(a, []).append(b)
        for a, b in list(edges):
            for c in by_dom.get(b, ()):
                if (a, c) not in edges:
                    edges.add((a, c))
                    changed = True
    return GluingIndexCategory(n, tuple(objs), frozenset(edges))


@lru_cache(maxsize=None)
def generator_path(n: int, a: IdxObj, b: IdxObj) -> tuple[Generator, ...] | None:
    """A shortest chain of generators from a to b, or None; () when a == b."""
    if a == b:
        return ()
    out_edges: dict[IdxObj, list[Generator]] = {}
    for g in generators(n):
        out_edges.setdefault(g.dom, []).append(g)
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


# (relation id, maker) pairs; each maker yields (lhs chain, rhs chain) of
# generators to compare after applying a functor, or an identity target.
def _relation_instances(n: int):
    for i, j in permutations(range(n), 2):
        # tau_{i,j} . tau_{j,i} = id_{[i,j]}
        yield ("inverse_pair", (i, j), [Tau(i, j), Tau(j, i)], "id", pair(i, j))
    for i, j, k in permutations(range(n), 3):
        # tau3 composition law
        yield (
            "triple_composition",
            (i, j, k),
            [TauT(i, j, k), TauT(j, k, i)],
            [TauT(i, k, j)],
            None,
        )
        # tau3 is an involution across the first two slots
        yield ("triple_inverse", (i, j, k), [TauT(i, j, k), TauT(j, i, k)], "id", triple(i, j, k))
    for i in range(n):
        for j, k in combinations((x for x in range(n) if x != i), 2):
            # both routes from the single into the triple agree
            yield ("square_routes", (i, j, k), [EtaT(i, j, k), Eta(i, j)], [EtaT(i, k, j), Eta(i, k)], None)
    for i, j, k in permutations(range(n), 3):
        # mixing tau with the triple inclusions
        yield ("mixed_swap", (i, j, k), [TauT(i, j, k), EtaT(j, i, k)], [EtaT(i, j, k), Tau(i, j)], None)


def check_generator_relations(n, images, compose, eq, identity) -> list[dict]:
    """Check that an assignment of generator images satisfies the category's
    defining relations.

    ``images`` maps each distinct-index generator to an arrow of the target
    category.  ``compose(f_img, g_img)`` must return the image of f∘g,
    ``eq`` compares arrows and ``identity(obj)`` gives the identity arrow on
    the image of a canonical object.  An empty report means the assignment
    extends to a functor.  Degenerate generators are identities by
    construction; if present in ``images`` they are checked against
    ``identity`` as well.
    """
    failures = []
    missing = [g for g in generators(n) if g not in images]
    if missing:
        raise ValidationError(f"missing generator images: {missing[:3]}{'...' if len(missing) > 3 else ''}")

    def chain_image(chain):
        img = images[chain[0]]
        for g in chain[1:]:
            img = compose(img, images[g])
        return img

    for rel_id, idx, lhs, rhs, id_obj in _relation_instances(n):
        left = chain_image(lhs)
        right = identity(id_obj) if rhs == "id" else chain_image(rhs)
        if not eq(left, right):
            failures.append({"relation": rel_id, "indices": idx})
    for g, img in images.items():
        if isinstance(g, (Eta, Tau)) and g.i == g.j:
            if not eq(img, identity(single(g.i))):
                failures.append({"relation": "degenerate_identity", "indices": (g.i, g.j)})
    return failures


def category_dot(cat: GluingIndexCategory) -> str:
    """DOT digraph of the canonical objects and generating arrows."""
    ids = {obj: f"o{k}" for k, obj in enumerate(cat.objects)}
    lines = ["digraph gluing_index {", "    rankdir=BT;"]
    for obj in cat.objects:
        lines.append(f'    {ids[obj]} [label="{obj.label()}"];')
    for g in generators(cat.n):
        if isinstance(g, Eta):
            label = f"eta_{g.i},{g.j}"
        elif isinstance(g, Tau):
            label = f"tau_{g.i},{g.j}"
        elif isinstance(g, EtaT):
            label = f"eta_{g.i},({g.via};{g.other})"
        else:
            label = f"tau_{g.i},({g.j};{g.k})"
        lines.append(f'    {ids[g.dom]} -> {ids[g.cod]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
