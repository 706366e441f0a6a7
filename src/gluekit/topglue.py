"""Gluing functors on finite spaces and their standard limit representative.

Arrow images are stored as their plain-map side: the image of a generator
from a to b is a continuous map from the space at b to the space at a, so
no explicit opposite-category layer appears anywhere.  The standard
representative glues the disjoint union of the chart spaces along the
overlap identifications and carries the final topology.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, permutations, product as iproduct
from operator import countOf, itemgetter

from . import fintop as ft
from .errors import FalsificationError, ValidationError
from .fintop import ContinuousMap, FinSpace
from .indexcat import (
    Eta,
    EtaT,
    Generator,
    IdxObj,
    Tau,
    TauT,
    check_generator_relations,
    index_category,
    pair,
    single,
    triple,
)

TripleKey = tuple[int, frozenset[int]]
# reads chosen positions of the concatenated leg assignments
Reader = Callable[[Sequence[int]], tuple[int, ...] | int]


@dataclass
class TopGluingData:
    """Classical chart-and-overlap form of the gluing input.

    ``overlaps[(i, j)]`` is the attaching map from the overlap space into
    chart i; ``transitions[(i, j)]`` carries the overlap onto its mirror
    image; triple spaces are chosen pullbacks of the two attaching maps out
    of a common chart.  Degenerate entries (repeated indices) are implicit:
    the overlap of a chart with itself is the chart and the transition on it
    is the identity.
    """

    spaces: tuple[FinSpace, ...]
    overlaps: dict[tuple[int, int], ContinuousMap]
    transitions: dict[tuple[int, int], ContinuousMap]
    triple_spaces: dict[TripleKey, FinSpace]
    triple_projs: dict[tuple[int, int, int], ContinuousMap]
    triple_transitions: dict[tuple[int, int, int], ContinuousMap]
    open_variant: bool

    @property
    def n(self) -> int:
        return len(self.spaces)


@dataclass
class TopGluingFunctor:
    n: int
    open_variant: bool
    objects: dict[IdxObj, FinSpace]
    arrows: dict[Generator, ContinuousMap]

    @cached_property
    def cone_squares(self) -> tuple[tuple[Reader, Reader] | None, ...] | ValidationError:
        """Per cone characterization of ``is_cone``, its squares compiled to
        two readers of the legs' assignments concatenated in ``objects``
        order.  A square (a, b, chain) of ``index_category(n).cone_squares``
        asks the leg at b to equal the leg at a after m, the chain's plain
        map from the space at b to the space at a: the first reader takes
        the leg at b, the second the leg at a at the points of m, and the
        characterization holds when both read the same values.  Built once
        per functor.  A characterization with a square whose domain is not
        the space at b is None (no legs satisfy it); arrows that do not
        compose give their ValidationError instead."""
        offsets = dict(zip(self.objects, accumulate((space.n for space in self.objects.values()), initial=0)))

        def square(a: IdxObj, b: IdxObj, path: tuple[Generator, ...]) -> tuple[range, map] | None:
            # starting from the identity at a, which has the domain of every
            # leg at a, raises exactly where composing such a leg would
            m = ft.identity_map(self.objects[a])
            for g in path:
                m = ft.compose(m, self.arrows[g])
            if m.dom != self.objects[b]:
                return None
            return range(offsets[b], offsets[b] + m.dom.n), map(offsets[a].__add__, m.assign)

        try:
            # the identity squares (a == b) hold for every family of legs
            table = [[square(*sq) for sq in squares] for squares in index_category(self.n).cone_squares]
        except ValidationError as exc:
            return exc
        return tuple(
            None if None in squares else (_reader(chain.from_iterable(lhs for lhs, _ in squares)),
                                          _reader(chain.from_iterable(rhs for _, rhs in squares)))
            for squares in table
        )


def _reader(positions) -> Reader:
    """The values at the given positions, as one C-level call.  For one
    position itemgetter gives the bare value; so does the other reader of
    the pair, which reads as many positions."""
    positions = tuple(positions)
    return itemgetter(*positions) if positions else lambda values: ()


@dataclass
class GluedSpace:
    """Standard representative: quotient of the disjoint chart union."""

    space: FinSpace
    iota: dict[IdxObj, ContinuousMap]


@dataclass
class TopCone:
    apex: FinSpace
    legs: dict[IdxObj, ContinuousMap]


def functor_from_data(data: TopGluingData) -> TopGluingFunctor:
    n = data.n
    objects: dict[IdxObj, FinSpace] = {}
    arrows: dict[Generator, ContinuousMap] = {}
    for i in range(n):
        objects[single(i)] = data.spaces[i]
    for i, j in permutations(range(n), 2):
        if (i, j) not in data.overlaps:
            raise ValidationError(f"missing overlap ({i},{j})")
        if (i, j) not in data.transitions:
            raise ValidationError(f"missing transition ({i},{j})")
        objects[pair(i, j)] = data.overlaps[(i, j)].dom
        arrows[Eta(i, j)] = data.overlaps[(i, j)]
        arrows[Tau(i, j)] = data.transitions[(i, j)]
    for t in index_category(n).triples:
        i, (j, k) = t.apex, t.rest
        key = (i, frozenset(t.rest))
        if key not in data.triple_spaces:
            raise ValidationError(f"missing triple space {key}")
        objects[t] = data.triple_spaces[key]
        for via, other in ((j, k), (k, j)):
            proj = data.triple_projs.get((i, via, other))
            if proj is None:
                raise ValidationError(f"missing triple projection ({i},{via},{other})")
            arrows[EtaT(i, via, other)] = proj
    for i, j, k in permutations(range(n), 3):
        t = data.triple_transitions.get((i, j, k))
        if t is None:
            raise ValidationError(f"missing triple transition ({i},{j},{k})")
        arrows[TauT(i, j, k)] = t
    functor = TopGluingFunctor(n, data.open_variant, objects, arrows)
    report = validate_functor(functor)
    if not report["ok"]:
        raise ValidationError(f"invalid gluing data: {report}")
    return functor


def data_from_functor(g: TopGluingFunctor) -> TopGluingData:
    n = g.n
    spaces = tuple(g.objects[single(i)] for i in range(n))
    overlaps = {(i, j): g.arrows[Eta(i, j)] for i, j in permutations(range(n), 2)}
    transitions = {(i, j): g.arrows[Tau(i, j)] for i, j in permutations(range(n), 2)}
    triple_spaces = {(t.apex, frozenset(t.rest)): g.objects[t] for t in index_category(n).triples}
    triple_projs = {}
    triple_transitions = {}
    for i, j, k in permutations(range(n), 3):
        triple_transitions[(i, j, k)] = g.arrows[TauT(i, j, k)]
        triple_projs[(i, j, k)] = g.arrows[EtaT(i, j, k)]
    return TopGluingData(
        spaces, overlaps, transitions, triple_spaces, triple_projs, triple_transitions, g.open_variant
    )


def validate_functor(g: TopGluingFunctor) -> dict:
    """Generator relations, pullback squares for the triples, and validity
    of every arrow image; report style, with an overall verdict."""
    report = {"maps": [], "relations": [], "pullbacks": [], "ok": True}
    for gen, arrow in g.arrows.items():
        if arrow.dom != g.objects[gen.cod] or arrow.cod != g.objects[gen.dom]:
            report["maps"].append({"generator": repr(gen), "error": "endpoint mismatch"})
            continue
        if not ft.is_continuous(arrow):
            report["maps"].append({"generator": repr(gen), "error": "not continuous"})
        elif g.open_variant and not ft.is_open_map(arrow):
            report["maps"].append({"generator": repr(gen), "error": "not open"})
    if not report["maps"]:
        report["relations"] = check_generator_relations(
            g.n,
            g.arrows,
            compose=lambda fi, gi: ft.compose(gi, fi),
            eq=lambda x, y: x == y,
            identity=lambda obj: ft.identity_map(g.objects[obj]),
        )
        for t in index_category(g.n).triples:
            i, (j, k) = t.apex, t.rest
            try:
                ok = ft.is_pullback_square(
                    g.arrows[EtaT(i, j, k)],
                    g.arrows[EtaT(i, k, j)],
                    g.arrows[Eta(i, j)],
                    g.arrows[Eta(i, k)],
                )
            except ValidationError:
                ok = False
            if not ok:
                report["pullbacks"].append({"triple": (i, j, k)})
    report["ok"] = not (report["maps"] or report["relations"] or report["pullbacks"])
    return report


def glue_relation_pairs(g: TopGluingFunctor) -> set[tuple[int, int]]:
    """Point identifications on the disjoint union: the attaching image of
    each overlap point matches its transition twin."""
    offsets = []
    total = 0
    for i in range(g.n):
        offsets.append(total)
        total += g.objects[single(i)].n
    pairs = {(p, p) for p in range(total)}
    for i, j in permutations(range(g.n), 2):
        upsilon_ij = g.arrows[Eta(i, j)]
        upsilon_ji = g.arrows[Eta(j, i)]
        phi_ij = g.arrows[Tau(i, j)]
        for u in range(upsilon_ij.dom.n):
            x = offsets[i] + upsilon_ij(u)
            y = offsets[j] + upsilon_ji(phi_ij(u))
            pairs.add((x, y))
    return pairs


def standard_representative(g: TopGluingFunctor) -> GluedSpace:
    """Quotient of the disjoint union by the overlap identifications; the
    relation must already be an equivalence and every chart leg must embed.

    Failures of those conclusions on a validated functor raise
    FalsificationError: they would contradict the construction's defining
    lemma rather than reflect bad input.
    """
    chart_spaces = [g.objects[single(i)] for i in range(g.n)]
    cop, injections = ft.coproduct(chart_spaces)
    pairs = glue_relation_pairs(g)
    if not ft.is_equivalence(cop.n, pairs):
        raise FalsificationError(
            "overlap relation failed to be an equivalence on validated data"
        )
    q, proj = ft.quotient_final(cop, pairs)
    iota: dict[IdxObj, ContinuousMap] = {}
    for i in range(g.n):
        iota[single(i)] = ft.compose(proj, injections[i])
    for arrow in index_category(g.n).leg_generators:
        iota[arrow.cod] = ft.compose(iota[arrow.dom], g.arrows[arrow])
    for i in range(g.n):
        leg = iota[single(i)]
        if not ft.is_injective(leg):
            raise FalsificationError(f"chart leg {i} is not one-to-one")
        if not ft.is_continuous(leg):
            raise FalsificationError(f"chart leg {i} is not continuous")
        if g.open_variant and not ft.is_open_map(leg):
            raise FalsificationError(f"chart leg {i} is not open")
    return GluedSpace(q, iota)


def _legs_match_endpoints(g: TopGluingFunctor, apex: FinSpace, legs) -> list[ContinuousMap]:
    """The legs in ``g.objects`` order, checked to run from their objects to the apex."""
    ordered = []
    for a, space in g.objects.items():
        leg = legs.get(a)
        if leg is None:
            raise ValidationError(f"missing leg at {a}")
        if leg.dom != space or leg.cod != apex:
            raise ValidationError(f"leg at {a} has wrong endpoints")
        ordered.append(leg)
    return ordered


def is_cone(apex: FinSpace, legs: dict[IdxObj, ContinuousMap], g: TopGluingFunctor) -> tuple[bool, bool, bool]:
    """Evaluate the three equivalent cone characterizations independently.

    (1) every morphism of the index category commutes with the legs;
    (2) the transition, attaching and triple-inclusion squares commute;
    (3) like (2) with the transition square replaced by its composite form.
    Each is two reads of the concatenated leg assignments, compiled once
    per functor in ``g.cone_squares``, and one comparison.  They provably
    coincide; a disagreement is raised as falsification.
    """
    values = tuple(chain.from_iterable(leg.assign for leg in _legs_match_endpoints(g, apex, legs)))
    table = g.cone_squares
    if isinstance(table, ValidationError):
        raise ValidationError(*table.args)
    first, second, third = (
        readers is not None and readers[0](values) == readers[1](values) for readers in table
    )
    if not (first == second == third):
        raise FalsificationError(f"cone characterizations disagree: {(first, second, third)}")
    return first, second, third


def verify_glued(q: FinSpace, iota: dict[IdxObj, ContinuousMap], g: TopGluingFunctor) -> dict:
    """Per-condition report for the glued-up characterization.

    Conditions a-e form the verdict; the final-topology, overlap-image and
    triple-image laws are reported alongside without entering it.
    """
    _legs_match_endpoints(g, q, iota)
    cond = {}
    cond["a"] = all(
        iota[pair(i, j)] == ft.compose(iota[single(i)], g.arrows[Eta(i, j)])
        for i, j in permutations(range(g.n), 2)
    )
    cond["b"] = all(
        iota[triple(i, min(j, k), max(j, k))]
        == ft.compose(iota[pair(i, j)], g.arrows[EtaT(i, j, k)])
        for i, j, k in permutations(range(g.n), 3)
    )
    cond["c"] = all(
        ft.compose(iota[single(i)], g.arrows[Eta(i, j)])
        == ft.compose(
            iota[single(j)], ft.compose(g.arrows[Eta(j, i)], g.arrows[Tau(i, j)])
        )
        for i, j in permutations(range(g.n), 2)
    )
    images = {i: iota[single(i)].image_of(range(g.objects[single(i)].n)) for i in range(g.n)}
    cond["d"] = frozenset().union(*images.values()) == q.full() if g.n else q.n == 0
    cond["e"] = all(
        ft.is_injective(iota[single(i)])
        and ft.is_continuous(iota[single(i)])
        and (not g.open_variant or ft.is_open_map(iota[single(i)]))
        for i in range(g.n)
    )
    chart_legs = [iota[single(i)] for i in range(g.n)]
    cond["final_topology"] = q == ft.final_topology(q.n, [(f.dom, f.assign) for f in chart_legs])
    overlap_ok = True
    for i, j in permutations(range(g.n), 2):
        lhs = iota[single(i)].image_of(
            g.arrows[Eta(i, j)].image_of(range(g.objects[pair(i, j)].n))
        )
        rhs = iota[single(j)].image_of(
            g.arrows[Eta(j, i)].image_of(range(g.objects[pair(j, i)].n))
        )
        if lhs != rhs or lhs != images[i] & images[j]:
            overlap_ok = False
    cond["overlap_law"] = overlap_ok
    triple_ok = True
    for t in index_category(g.n).triples:
        i, (j, k) = t.apex, t.rest
        img = iota[t].image_of(range(g.objects[t].n))
        if img != images[i] & images[j] & images[k]:
            triple_ok = False
    cond["triple_law"] = triple_ok
    cond["verdict"] = all(cond[c] for c in "abcde")
    return cond


def mediating_morphism(cone: TopCone, glued: GluedSpace, g: TopGluingFunctor) -> ContinuousMap:
    """The unique comparison map from the glued space to the cone apex.

    It is forced pointwise by the chart legs, read in one pass over the
    glued positions of the chart points.  A glued point that no chart leg
    pins raises ValidationError; two representatives of one point that the
    legs send apart (the map would not commute), or a forced map that is
    not continuous, raise FalsificationError.  So a map returned is the
    only point function that commutes with the chart legs.
    """
    q = glued.space
    charts = [single(i) for i in range(g.n)]
    if any(cone.legs[a].dom != glued.iota[a].dom or cone.legs[a].cod != cone.apex for a in charts):
        raise FalsificationError("mediating map fails to commute: a chart leg has wrong endpoints")
    positions = tuple(chain.from_iterable(glued.iota[a].assign for a in charts))
    wanted = tuple(chain.from_iterable(cone.legs[a].assign for a in charts))
    forced = dict(zip(positions, wanted))
    if tuple(map(forced.__getitem__, positions)) != wanted:
        raise FalsificationError("mediating map ill-defined: chart representatives disagree")
    if len(forced) != q.n:
        raise ValidationError("glued space is not covered by its chart legs")
    mu = ContinuousMap(q, cone.apex, tuple(map(forced.__getitem__, range(q.n))))
    if not ft.is_continuous(mu):
        raise FalsificationError("mediating map is not continuous")
    return mu


def count_mediating_functions(cone: TopCone, glued: GluedSpace, g: TopGluingFunctor, exhaustive_limit: int = 4000) -> int:
    """Number of point functions from the glued space to the apex commuting
    with every chart leg.

    The chart legs are flattened once into the glued-space positions they
    constrain and the apex values wanted there.  Up to ``exhaustive_limit``
    functions are all enumerated, each tested with one comparison against
    the wanted values; more are counted from the per-point constraint
    sets, which describes the same set of functions.
    """
    q = glued.space
    napex = cone.apex.n
    charts = [single(i) for i in range(g.n)]
    positions = [p for a in charts for p in glued.iota[a].assign]
    wanted = [v for a in charts for v in cone.legs[a].assign]
    total = napex ** q.n if q.n else 1
    if 0 < total <= exhaustive_limit and napex > 0:
        # itemgetter of one position returns the value, not a 1-tuple
        pick = itemgetter(*positions) if positions else lambda assign: ()
        want = wanted[0] if len(wanted) == 1 else tuple(wanted)
        return countOf(map(pick, iproduct(range(napex), repeat=q.n)), want)
    allowed: list[set[int]] = [set() for _ in range(q.n)]
    for p, v in zip(positions, wanted):
        allowed[p].add(v)
    if any(len(values) > 1 for values in allowed):
        return 0
    return napex ** sum(not values for values in allowed)


def cover_functor(space: FinSpace, cover) -> tuple[TopGluingFunctor, dict[IdxObj, ContinuousMap]]:
    """The gluing functor of an open cover, with its inclusion legs.

    Charts are the cover members as subspaces, overlaps their pairwise
    intersections, triples the triple intersections; every structure map is
    an inclusion and every transition the identity.
    """
    cover = [frozenset(c) for c in cover]
    for c in cover:
        if c not in space.opens:
            raise ValidationError(f"cover member {sorted(c)} is not open")
    union = frozenset().union(*cover) if cover else frozenset()
    if union != space.full():
        raise ValidationError("the family does not cover the space")
    n = len(cover)
    subs = {}
    locs = {}
    legs: dict[IdxObj, ContinuousMap] = {}

    def register(key, pts):
        pts = sorted(pts)
        sub = ft.subspace(space, pts)
        subs[key] = sub
        locs[key] = {p: k for k, p in enumerate(pts)}
        legs[key] = ContinuousMap(sub, space, tuple(pts))

    for i in range(n):
        register(single(i), cover[i])
    for i, j in permutations(range(n), 2):
        register(pair(i, j), cover[i] & cover[j])
    for t in index_category(n).triples:
        register(t, cover[t.apex] & cover[t.rest[0]] & cover[t.rest[1]])

    def between(src: IdxObj, dst: IdxObj) -> ContinuousMap:
        src_pts = sorted(locs[src])
        return ContinuousMap(subs[src], subs[dst], tuple(locs[dst][p] for p in src_pts))

    objects = dict(subs)
    arrows: dict[Generator, ContinuousMap] = {}
    for i, j in permutations(range(n), 2):
        arrows[Eta(i, j)] = between(pair(i, j), single(i))
        arrows[Tau(i, j)] = between(pair(i, j), pair(j, i))
    for i, j, k in permutations(range(n), 3):
        arrows[TauT(i, j, k)] = between(triple(i, j, k), triple(j, i, k))
        arrows[EtaT(i, j, k)] = between(triple(i, j, k), pair(i, j))
    functor = TopGluingFunctor(n, True, objects, arrows)
    return functor, legs
