"""The gluing index category on a finite index set, as one table per n.

Objects are classes of index tuples: singles [i], ordered pairs [i,j] with
i != j, and triples [i,{j,k}] with an apex and an unordered pair of partners.
Between any two objects there is at most one morphism, and a -> b exists
exactly when supp(a) is contained in supp(b).  ``index_category(n)`` builds
the one table per n (objects, generators, shortest paths, cone squares and
leg generators) that every consumer reads; each kind of gluing supplies
only its own composition and equality.

Generator naming (one fixed convention for the several notations in use):

* ``Eta(i, j)``      : [i]      -> [i,j]
* ``Tau(i, j)``      : [j,i]    -> [i,j]
* ``EtaT(i, n, m)``  : [i,n]    -> [i,{n,m}]   (n is the route taken)
* ``TauT(i, j, k)``  : [j,{i,k}]-> [i,{j,k}]   (swap of the first two slots)

Degenerate generators (repeated indices) collapse to identities or to the
arrows above under canonicalization and are not stored.  A generator builds
its ``dom`` and ``cod`` objects once, on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations

from .errors import ValidationError

DEFAULT_MAX_INDEX = 6

# entries kept by the generator_path cache, so a long batch stays bounded in memory
_PATH_CACHE_SIZE = 4096


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

    @cached_property
    def dom(self) -> IdxObj:
        return single(self.i)

    @cached_property
    def cod(self) -> IdxObj:
        return pair(self.i, self.j)


@dataclass(frozen=True)
class Tau:
    i: int
    j: int

    @cached_property
    def dom(self) -> IdxObj:
        return pair(self.j, self.i)

    @cached_property
    def cod(self) -> IdxObj:
        return pair(self.i, self.j)


@dataclass(frozen=True)
class EtaT:
    """[i, via] -> [i, {via, other}]."""

    i: int
    via: int
    other: int

    @cached_property
    def dom(self) -> IdxObj:
        return pair(self.i, self.via)

    @cached_property
    def cod(self) -> IdxObj:
        return triple(self.i, self.via, self.other)


@dataclass(frozen=True)
class TauT:
    """[j, {i, k}] -> [i, {j, k}]."""

    i: int
    j: int
    k: int

    @cached_property
    def dom(self) -> IdxObj:
        return triple(self.j, self.i, self.k)

    @cached_property
    def cod(self) -> IdxObj:
        return triple(self.i, self.j, self.k)


Generator = Eta | Tau | EtaT | TauT
Square = tuple[IdxObj, IdxObj, tuple[Generator, ...]]


@dataclass(frozen=True)
class GluingIndexCategory:
    """``paths[(a, b)]`` is a shortest generator chain, present exactly when
    a -> b exists.  ``cone_squares`` holds per cone characterization its
    squares (a, b, chain); legs L form a cone when L_b = L_a after the
    chain's image for every square: (1) every morphism with a != b, along
    its path; (2) every generator except ``TauT``; (3) like (2), with each
    ``Tau(i, j)`` replaced by ``Eta(j, i), Tau(i, j)`` out of [j].
    ``leg_generators``: ``Eta`` into each pair, then ``EtaT(i, j, k)`` with
    j < k into each triple, each out of a single or an earlier codomain."""

    n: int
    objects: tuple[IdxObj, ...]
    generators: tuple[Generator, ...]
    paths: dict[tuple[IdxObj, IdxObj], tuple[Generator, ...]]
    cone_squares: tuple[tuple[Square, ...], tuple[Square, ...], tuple[Square, ...]]
    leg_generators: tuple[Eta | EtaT, ...]

    def morphism_count(self) -> int:
        return len(self.paths)


@lru_cache(maxsize=DEFAULT_MAX_INDEX)
def index_category(n: int) -> GluingIndexCategory:
    """The table for n charts.  The paths come from one breadth-first search
    per source object, over the generators in their listed order."""
    objects = [single(i) for i in range(n)] + [pair(i, j) for i, j in permutations(range(n), 2)]
    objects += [triple(i, j, k) for i in range(n)
                for j, k in combinations((x for x in range(n) if x != i), 2)]
    gens: list[Generator] = [g for i, j in permutations(range(n), 2) for g in (Eta(i, j), Tau(i, j))]
    for i, j, k in permutations(range(n), 3):
        gens.append(TauT(i, j, k))
        if j < k:
            gens += [EtaT(i, j, k), EtaT(i, k, j)]
    # the search runs on object positions, which hash faster than objects;
    # the singles come first, so single(j) is objects[j]
    position = {obj: k for k, obj in enumerate(objects)}
    ends = [(position[g.dom], position[g.cod]) for g in gens]
    out_edges: list[list[tuple[Generator, int]]] = [[] for _ in objects]
    for g, (a, b) in zip(gens, ends):
        out_edges[a].append((g, b))
    paths = {}
    for a, source in enumerate(objects):
        reached, queue = {a: ()}, [a]
        for obj in queue:
            for g, b in out_edges[obj]:
                if b not in reached:
                    reached[b] = reached[obj] + (g,)
                    queue.append(b)
        paths.update(((source, objects[b]), chain) for b, chain in reached.items())
    first = tuple((a, b, chain) for (a, b), chain in paths.items() if a != b)
    plain = [(g, a, b) for g, (a, b) in zip(gens, ends) if not isinstance(g, TauT)]
    second = tuple((objects[a], objects[b], (g,)) for g, a, b in plain)
    third = tuple((objects[g.j], objects[b], (Eta(g.j, g.i), g)) if isinstance(g, Tau) else square
                  for (g, _, b), square in zip(plain, second))
    legs = [g for g in gens if isinstance(g, Eta)]
    legs += [g for g in gens if isinstance(g, EtaT) and g.via < g.other]
    return GluingIndexCategory(n, tuple(objects), tuple(gens), paths,
                               (first, second, third), tuple(legs))


def enumerate_category(n: int) -> GluingIndexCategory:
    """The table for n charts, refused outside 1..DEFAULT_MAX_INDEX."""
    if n < 1:
        raise ValidationError("the index set must be non-empty")
    if n > DEFAULT_MAX_INDEX:
        raise ValidationError(f"index set size {n} above the configured bound {DEFAULT_MAX_INDEX}")
    return index_category(n)


@lru_cache(maxsize=_PATH_CACHE_SIZE)
def generator_path(n: int, a: IdxObj, b: IdxObj) -> tuple[Generator, ...] | None:
    """A shortest chain of generators from a to b, or None; () when a == b."""
    return () if a == b else index_category(n).paths.get((a, b))


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
    missing = [g for g in index_category(n).generators if g not in images]
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
    for g in cat.generators:
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
