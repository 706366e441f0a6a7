"""Ringed finite spaces, stalks via minimal opens, and chart gluing.

A ringed space is a finite space with one table ring per open and ring-hom
restrictions satisfying the presheaf laws (``presheaves.presheaf_law_failures``
with the ring operations) and the sheaf axioms (the identity-and-gluing
condition on the minimal cover of each open).  Gluing input is the
classical chart form: ringed charts, overlap opens inside each chart, and
transition isomorphisms stored as transports from chart to chart.  The
glued object pairs the topological standard representative with the
compatible-family structure sheaf, and the executed stalk laws are
falsification checks, not input validation.  Both the gluing axiom and the
glued sections enumerate compatible families with one join
(``compatible_families``), whose work follows the families kept.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations, permutations

from . import fintop as ft
from . import rings as rg
from . import topglue as tg
from .errors import FalsificationError, UnsupportedFeature, ValidationError
from .fintop import ContinuousMap, FinSpace, Open, minimal_cover, minimal_open
from .indexcat import index_category, single
from .presheaves import opens_below, presheaf_law_failures

VARIANTS = ("rts", "lrts", "sch")

_SECTION_PRODUCT_CAP = 200_000


@dataclass
class RingedSpace:
    top: FinSpace
    sections: dict[Open, rg.FinCommRing]
    restr: dict[tuple[Open, Open], rg.RingHom]

    def ring(self, v) -> rg.FinCommRing:
        return self.sections[frozenset(v)]

    def res(self, u, v) -> rg.RingHom:
        return self.restr[(frozenset(u), frozenset(v))]


def make_ringed_space(top: FinSpace, sections, restr, check_sheaf: bool = True) -> RingedSpace:
    sections = {frozenset(k): v for k, v in sections.items()}
    restr = {(frozenset(u), frozenset(v)): h for (u, v), h in restr.items()}
    problems = presheaf_law_failures(
        top.sorted_opens(), sections, restr,
        rg.is_ring_hom, rg.compose_ring_hom, operator.eq, rg.identity_ring_hom,
    )
    if problems:
        raise ValidationError("; ".join(problems))
    space = RingedSpace(top, sections, restr)
    if check_sheaf:
        failures = ring_sheaf_failures(space)
        if failures:
            raise ValidationError("; ".join(failures))
    return space


def compatible_families(orders, agreements) -> list[tuple[int, ...]]:
    """The tuples x, with x[a] < orders[a], that satisfy fa[x[a]] == fb[x[b]]
    for every (a, b, fa, fb) in ``agreements``, in lexicographic order.

    Built one factor at a time: factor j's elements are keyed by their
    values under every agreement between j and an earlier factor, in
    either direction, and each partial family is extended with one
    lookup.  So the work follows the families kept, and more than
    ``_SECTION_PRODUCT_CAP`` of them is refused."""
    families: list[tuple[int, ...]] = [()]
    for j, order in enumerate(orders):
        own, earlier = [], []
        for a, b, fa, fb in agreements:
            if b == j and a < j:
                own.append(fb)
                earlier.append((a, fa))
            elif a == j and b < j:
                own.append(fa)
                earlier.append((b, fb))
        extensions: dict[tuple[int, ...], list[int]] = {}
        for x in range(order):
            extensions.setdefault(tuple(f[x] for f in own), []).append(x)
        families = [
            family + (x,)
            for family in families
            for x in extensions.get(tuple(f[family[a]] for a, f in earlier), ())
        ]
        if len(families) > _SECTION_PRODUCT_CAP:
            raise ValidationError(
                f"sections too large to enumerate: more than {_SECTION_PRODUCT_CAP} compatible families"
            )
    return families


def ring_sheaf_failures(space: RingedSpace) -> list[str]:
    """Identity and gluing axioms on the minimal cover of each open
    (``fintop.minimal_cover``): restriction to the cover is injective, and
    every compatible family on the cover is a restricted section."""
    if space.sections[frozenset()].order != 1:
        return ["sections over the empty set are not the zero ring"]
    for v in space.top.sorted_opens():
        cover = minimal_cover(space.top, v)
        if len(cover) < 2:
            continue
        maps = [space.res(v, c).assign for c in cover]
        restricted = set(zip(*maps))
        if len(restricted) < space.ring(v).order:
            return [f"identity axiom fails over {sorted(v)}"]
        agreements = [
            (a, b, space.res(ca, ca & cb).assign, space.res(cb, ca & cb).assign)
            for (a, ca), (b, cb) in combinations(enumerate(cover), 2)
        ]
        families = compatible_families([space.ring(c).order for c in cover], agreements)
        if any(family not in restricted for family in families):
            return [f"gluing axiom fails over {sorted(v)}"]
    return []


def restrict_ringed(space: RingedSpace, v) -> tuple[RingedSpace, list[int]]:
    """Ringed subspace on an open, with the local-to-ambient point list."""
    v = frozenset(v)
    if v not in space.top.opens:
        raise ValidationError("can only restrict to an open")
    pts = sorted(v)
    sub = ft.subspace(space.top, pts)
    to_ambient = {k: p for k, p in enumerate(pts)}
    sections = {}
    restr = {}
    local_opens = sub.sorted_opens()
    ambient_of = {
        o: frozenset(to_ambient[k] for k in o) for o in local_opens
    }
    for o in local_opens:
        sections[o] = space.ring(ambient_of[o])
    for u in local_opens:
        for w in local_opens:
            if w <= u:
                restr[(u, w)] = space.res(ambient_of[u], ambient_of[w])
    return RingedSpace(sub, sections, restr), pts


@dataclass
class Stalk:
    minimal_open: Open
    ring: rg.FinCommRing
    germ_maps: dict[Open, rg.RingHom]


def stalk_at(space: RingedSpace, x: int) -> Stalk:
    """Sections over the minimal open of the point; germ maps are the
    restrictions from every neighbourhood."""
    if not 0 <= x < space.top.n:
        raise ValidationError("point outside the space")
    ux = minimal_open(space.top, x)
    germ = {
        u: space.res(u, ux)
        for u in space.top.sorted_opens()
        if x in u
    }
    return Stalk(ux, space.ring(ux), germ)


def is_stalk_cocone(space: RingedSpace, x: int, target: rg.FinCommRing, maps: dict[Open, rg.RingHom]) -> bool:
    """Does the family commute with every restriction between
    neighbourhoods of the point?"""
    neigh = [u for u in space.top.sorted_opens() if x in u]
    for u in neigh:
        h = maps.get(u)
        if h is None or h.dom != space.ring(u) or h.cod != target or not rg.is_ring_hom(h):
            return False
    for u in neigh:
        for v in neigh:
            if v <= u:
                if rg.compose_ring_hom(maps[v], space.res(u, v)) != maps[u]:
                    return False
    return True


def stalk_mediator(stalk: Stalk, target: rg.FinCommRing, maps: dict[Open, rg.RingHom]) -> rg.RingHom:
    """The unique hom out of the stalk commuting with the germ maps: it is
    forced by the component at the minimal open."""
    return maps[stalk.minimal_open]


@dataclass
class RingedSpaceMorphism:
    """Morphism with the plain-map side stored: ``top`` runs from the
    codomain's space to the domain's space, and the sheaf part pushes
    domain sections to codomain sections over preimages."""

    dom: RingedSpace
    cod: RingedSpace
    top: ContinuousMap
    sheaf: dict[Open, rg.RingHom]


def identity_rsm(space: RingedSpace) -> RingedSpaceMorphism:
    return RingedSpaceMorphism(
        space,
        space,
        ft.identity_map(space.top),
        {u: rg.identity_ring_hom(space.ring(u)) for u in space.top.sorted_opens()},
    )


def restriction_rsm(space: RingedSpace, v) -> tuple[RingedSpaceMorphism, RingedSpace]:
    """The canonical morphism from a ringed space to its restriction."""
    sub, pts = restrict_ringed(space, v)
    incl = ContinuousMap(sub.top, space.top, tuple(pts))
    v = frozenset(v)
    sheaf = {}
    for u in space.top.sorted_opens():
        sheaf[u] = space.res(u, u & v)
    m = RingedSpaceMorphism(space, sub, incl, sheaf)
    return m, sub


def compose_rsm(m2: RingedSpaceMorphism, m1: RingedSpaceMorphism) -> RingedSpaceMorphism:
    """m2 after m1."""
    if m1.cod is not m2.dom and m1.cod.top != m2.dom.top:
        raise ValidationError("compose_rsm: endpoint mismatch")
    top = ft.compose(m1.top, m2.top)
    sheaf = {}
    for u in m1.dom.top.sorted_opens():
        mid = m1.top.preimage_of(u)
        sheaf[u] = rg.compose_ring_hom(m2.sheaf[mid], m1.sheaf[u])
    return RingedSpaceMorphism(m1.dom, m2.cod, top, sheaf)


def check_rsm(m: RingedSpaceMorphism) -> bool:
    if m.top.dom != m.cod.top or m.top.cod != m.dom.top or not ft.is_continuous(m.top):
        return False
    for u in m.dom.top.sorted_opens():
        h = m.sheaf.get(u)
        pre = m.top.preimage_of(u)
        if h is None or h.dom != m.dom.ring(u) or h.cod != m.cod.ring(pre):
            return False
        if not rg.is_ring_hom(h):
            return False
    for u in m.dom.top.sorted_opens():
        for v in m.dom.top.sorted_opens():
            if not v <= u:
                continue
            pu, pv = m.top.preimage_of(u), m.top.preimage_of(v)
            lhs = rg.compose_ring_hom(m.cod.res(pu, pv), m.sheaf[u])
            rhs = rg.compose_ring_hom(m.sheaf[v], m.dom.res(u, v))
            if lhs != rhs:
                return False
    return True


def stalk_hom(m: RingedSpaceMorphism, x: int) -> rg.RingHom:
    """Map on stalks at a point of the codomain space: germ classes travel
    through the sheaf part over the minimal neighbourhood of the image
    point, then restrict."""
    y = m.top(x)
    uy = minimal_open(m.dom.top, y)
    ux = minimal_open(m.cod.top, x)
    pre = m.top.preimage_of(uy)
    return rg.compose_ring_hom(m.cod.res(pre, ux), m.sheaf[uy])


def stalk_hom_well_defined(m: RingedSpaceMorphism, x: int) -> bool:
    """Germ-class independence: through any neighbourhood of the image
    point, the germ-level square commutes."""
    y = m.top(x)
    ux = minimal_open(m.cod.top, x)
    uy = minimal_open(m.dom.top, y)
    target = stalk_hom(m, x)
    for u in m.dom.top.sorted_opens():
        if y not in u:
            continue
        via = rg.compose_ring_hom(m.cod.res(m.top.preimage_of(u), ux), m.sheaf[u])
        direct = rg.compose_ring_hom(target, m.dom.res(u, uy))
        if via != direct:
            return False
    return True


@dataclass
class RingedGluingFunctor:
    """Chart form of the gluing input.

    ``overlaps[(i, j)]`` is an open of chart i; ``trans_top[(i, j)]`` sends
    its points to points of the mirror overlap in chart j; and
    ``transports[(i, j)][W]`` carries sections of chart i over any open W
    below the overlap to sections of chart j over the image open.
    """

    variant: str
    charts: tuple[RingedSpace, ...]
    overlaps: dict[tuple[int, int], Open]
    trans_top: dict[tuple[int, int], dict[int, int]]
    transports: dict[tuple[int, int], dict[Open, rg.RingHom]]

    @property
    def n(self) -> int:
        return len(self.charts)

    def top_image(self, i: int, j: int, w) -> Open:
        t = self.trans_top[(i, j)]
        return frozenset(t[p] for p in w)

    def transport(self, i: int, j: int, w) -> rg.RingHom:
        w = frozenset(w)
        if i == j:
            return rg.identity_ring_hom(self.charts[i].ring(w))
        return self.transports[(i, j)][w]


def _check_sch(g: RingedGluingFunctor):
    if g.variant == "sch":
        raise UnsupportedFeature("scheme verification unsupported")


def validate_ringed_functor(g: RingedGluingFunctor) -> dict:
    """Report-style validation of the chart data: overlap/transition shape,
    transport naturality, inverse and cocycle laws, the induced topological
    functor, and the locality requirements of the lrts variant."""
    return _validate(g)[0]


def _validate(g: RingedGluingFunctor) -> tuple[dict, tg.TopGluingFunctor | None]:
    """The validation report, and the validated induced topological functor
    once the report gets that far."""
    report = {"shape": [], "transports": [], "cocycle": [], "top": [], "locality": [], "ok": False}
    if g.variant not in VARIANTS:
        report["shape"].append(f"unknown variant {g.variant!r}")
        return report, None
    n = g.n
    for i, j in permutations(range(n), 2):
        ov = g.overlaps.get((i, j))
        if ov is None or ov not in g.charts[i].top.opens:
            report["shape"].append(f"overlap ({i},{j}) missing or not open")
            continue
        t = g.trans_top.get((i, j))
        mirror = g.overlaps.get((j, i), frozenset())
        if t is None or set(t) != set(ov) or set(t.values()) != set(mirror):
            report["shape"].append(f"transition ({i},{j}) is not a bijection onto its mirror")
            continue
        back = g.trans_top.get((j, i), {})
        if any(back.get(t[p]) != p for p in ov):
            report["shape"].append(f"transitions ({i},{j}) and ({j},{i}) are not inverse")
    if report["shape"]:
        return report, None
    for i, j in permutations(range(n), 2):
        ov = g.overlaps[(i, j)]
        opens = opens_below(g.charts[i].top, ov)
        for w in opens:
            im = g.top_image(i, j, w)
            if im not in g.charts[j].top.opens:
                report["transports"].append(f"transition ({i},{j}) is not open at {sorted(w)}")
                continue
            h = g.transports.get((i, j), {}).get(w)
            if h is None or h.dom != g.charts[i].ring(w) or h.cod != g.charts[j].ring(im):
                report["transports"].append(f"transport ({i},{j}) missing or mis-typed at {sorted(w)}")
                continue
            if not rg.is_ring_hom(h):
                report["transports"].append(f"transport ({i},{j}) at {sorted(w)} is not a ring hom")
    if report["transports"]:
        return report, None
    # every transport is now present and typed, including the (j, i) ones
    # that the inverse check below reads
    for i, j in permutations(range(n), 2):
        opens = opens_below(g.charts[i].top, g.overlaps[(i, j)])
        for w in opens:
            for w2 in opens:
                if not w2 <= w or w2 == w:
                    continue
                lhs = rg.compose_ring_hom(g.transports[(i, j)][w2], g.charts[i].res(w, w2))
                rhs = rg.compose_ring_hom(
                    g.charts[j].res(g.top_image(i, j, w), g.top_image(i, j, w2)),
                    g.transports[(i, j)][w],
                )
                if lhs != rhs:
                    report["transports"].append(f"transport ({i},{j}) not natural at {sorted(w)}->{sorted(w2)}")
            back = rg.compose_ring_hom(g.transports[(j, i)][g.top_image(i, j, w)], g.transports[(i, j)][w])
            if back != rg.identity_ring_hom(g.charts[i].ring(w)):
                report["transports"].append(f"transports ({i},{j}),({j},{i}) not inverse at {sorted(w)}")
    if report["transports"]:
        return report, None
    for i, j, k in permutations(range(n), 3):
        zone = g.overlaps[(i, j)] & g.overlaps[(i, k)]
        if g.top_image(i, j, zone) != g.overlaps[(j, i)] & g.overlaps[(j, k)]:
            report["cocycle"].append(f"transition ({i},{j}) does not carry the ({i},{j},{k}) zone to its mirror")
            continue
        for w in opens_below(g.charts[i].top, zone):
            lhs = rg.compose_ring_hom(
                g.transports[(j, k)][g.top_image(i, j, w)], g.transports[(i, j)][w]
            )
            if lhs != g.transports[(i, k)][w]:
                report["cocycle"].append(f"cocycle fails at ({i},{j},{k}) on {sorted(w)}")
    if report["cocycle"]:
        return report, None
    try:
        top_functor = induced_top_functor(g)
    except ValidationError as exc:
        report["top"].append(str(exc))
        return report, None
    if g.variant == "lrts":
        for i in range(n):
            for x in range(g.charts[i].top.n):
                if not rg.is_local_ring(stalk_at(g.charts[i], x).ring):
                    report["locality"].append(f"chart {i} has a non-local stalk at {x}")
        for i, j in permutations(range(n), 2):
            for x in sorted(g.overlaps[(i, j)]):
                ux = minimal_open(g.charts[i].top, x)
                h = rg.compose_ring_hom(
                    g.charts[j].res(
                        g.top_image(i, j, ux),
                        minimal_open(g.charts[j].top, g.trans_top[(i, j)][x]),
                    ),
                    g.transports[(i, j)][ux],
                )
                if not rg.is_local_hom(h):
                    report["locality"].append(f"transition ({i},{j}) stalk map at {x} is not local")
    report["ok"] = not report["locality"]
    return report, top_functor


def induced_top_functor(g: RingedGluingFunctor) -> tg.TopGluingFunctor:
    """Forget the sheaves: charts, overlap subspaces with their inclusions,
    and point-level transitions."""
    n = g.n
    spaces = tuple(c.top for c in g.charts)
    overlaps = {}
    transitions = {}
    locs = {}
    for i, j in permutations(range(n), 2):
        pts = sorted(g.overlaps[(i, j)])
        sub = ft.subspace(spaces[i], pts)
        locs[(i, j)] = {p: a for a, p in enumerate(pts)}
        overlaps[(i, j)] = ContinuousMap(sub, spaces[i], tuple(pts))
    for i, j in permutations(range(n), 2):
        pts = sorted(g.overlaps[(i, j)])
        sub = overlaps[(i, j)].dom
        mirror = overlaps[(j, i)].dom
        t = g.trans_top[(i, j)]
        transitions[(i, j)] = ContinuousMap(
            sub, mirror, tuple(locs[(j, i)][t[p]] for p in pts)
        )
    triple_spaces = {}
    triple_projs = {}
    triple_transitions = {}
    for i in range(n):
        for j, k in combinations((x for x in range(n) if x != i), 2):
            zone = g.overlaps[(i, j)] & g.overlaps[(i, k)]
            pts = sorted(zone)
            sub = ft.subspace(spaces[i], pts)
            triple_spaces[(i, frozenset({j, k}))] = sub
            for via, other in ((j, k), (k, j)):
                triple_projs[(i, via, other)] = ContinuousMap(
                    sub, overlaps[(i, via)].dom, tuple(locs[(i, via)][p] for p in pts)
                )
    for i, j, k in permutations(range(n), 3):
        zone = g.overlaps[(i, j)] & g.overlaps[(i, k)]
        pts = sorted(zone)
        sub = triple_spaces[(i, frozenset({j, k}))]
        target = triple_spaces[(j, frozenset({i, k}))]
        t = g.trans_top[(i, j)]
        target_pts = sorted(g.overlaps[(j, i)] & g.overlaps[(j, k)])
        target_loc = {p: a for a, p in enumerate(target_pts)}
        triple_transitions[(i, j, k)] = ContinuousMap(
            sub, target, tuple(target_loc[t[p]] for p in pts)
        )
    data = tg.TopGluingData(
        spaces, overlaps, transitions, triple_spaces, triple_projs, triple_transitions, True
    )
    return tg.functor_from_data(data)


@dataclass
class GluedRinged:
    top_rep: tg.GluedSpace
    space: RingedSpace
    top_legs: dict[int, ContinuousMap]
    projections: dict[int, dict[Open, rg.RingHom]]
    members: dict[Open, list[tuple[int, ...]]]
    top_functor: tg.TopGluingFunctor


def glued_families(g: RingedGluingFunctor, pre) -> list[tuple[int, ...]]:
    """Sections of the glued space over an open whose preimage in chart i
    is ``pre[i]``: the tuples of chart sections that agree on every
    overlap, through the transport (i, j) for each ordered pair."""
    agreements = []
    for i, j in permutations(range(g.n), 2):
        w = pre[i] & g.overlaps[(i, j)]
        there = g.transport(i, j, w).assign
        here = g.charts[i].res(pre[i], w).assign
        mirror = g.charts[j].res(pre[j], g.top_image(i, j, w)).assign
        agreements.append((i, j, tuple(there[x] for x in here), mirror))
    return compatible_families([g.charts[i].ring(pre[i]).order for i in range(g.n)], agreements)


def _family_table(tables, keep, index) -> rg.Table:
    """A chart-wise operation on the families ``keep``, as a table of
    their indexes: entry (a, b) is the family of the chart results."""
    columns = list(zip(*keep))
    return tuple(
        tuple(map(index.__getitem__, zip(*(map(t[x].__getitem__, c) for t, x, c in zip(tables, a, columns)))))
        for a in keep
    )


def glue_ringed(g: RingedGluingFunctor) -> GluedRinged:
    """Standard glued ringed space with its projection pairs.

    Every conclusion of the executed theorems (structure sheaf is a sheaf,
    projection stalk maps are ring isomorphisms, locality closure in the
    lrts variant) raises FalsificationError when it fails on validated
    input.
    """
    _check_sch(g)
    report, top_functor = _validate(g)
    if not report["ok"]:
        raise ValidationError(f"invalid ringed gluing data: {report}")
    rep = tg.standard_representative(top_functor)
    q = rep.space
    top_legs = {i: rep.iota[single(i)] for i in range(g.n)}
    inv = {i: {v: top_legs[i].preimage_of(v) for v in q.sorted_opens()} for i in range(g.n)}
    members: dict[Open, list[tuple[int, ...]]] = {}
    indexes: dict[Open, dict[tuple[int, ...], int]] = {}
    sections: dict[Open, rg.FinCommRing] = {}
    for v in q.sorted_opens():
        parts = [g.charts[i].ring(inv[i][v]) for i in range(g.n)]
        keep = members[v] = glued_families(g, [inv[i][v] for i in range(g.n)])
        index = indexes[v] = {t: a for a, t in enumerate(keep)}
        add = _family_table([r.add for r in parts], keep, index)
        mul = _family_table([r.mul for r in parts], keep, index)
        zero = index[tuple(r.zero for r in parts)]
        one = index[tuple(r.one for r in parts)]
        sections[v] = rg.FinCommRing(add, mul, zero, one)
    restr: dict[tuple[Open, Open], rg.RingHom] = {}
    for u in q.sorted_opens():
        for v in q.sorted_opens():
            if not v <= u:
                continue
            maps = [g.charts[i].res(inv[i][u], inv[i][v]).assign for i in range(g.n)]
            assign = []
            for t in members[u]:
                restricted = tuple(m[x] for m, x in zip(maps, t))
                if restricted not in indexes[v]:
                    raise FalsificationError("restriction leaves the compatible families")
                assign.append(indexes[v][restricted])
            restr[(u, v)] = rg.RingHom(sections[u], sections[v], tuple(assign))
    try:
        space = make_ringed_space(q, sections, restr, check_sheaf=False)
    except ValidationError as exc:
        raise FalsificationError(f"glued structure sheaf failed: {exc}") from exc
    sheaf_failures = ring_sheaf_failures(space)
    if sheaf_failures:
        raise FalsificationError(f"glued structure sheaf failed: {sheaf_failures}")
    projections = {
        i: {
            v: rg.RingHom(
                sections[v],
                g.charts[i].ring(inv[i][v]),
                tuple(t[i] for t in members[v]),
            )
            for v in q.sorted_opens()
        }
        for i in range(g.n)
    }
    for i in range(g.n):
        for v in q.sorted_opens():
            if not rg.is_ring_hom(projections[i][v]):
                raise FalsificationError("projection is not a ring hom")
    glued = GluedRinged(rep, space, top_legs, projections, members, top_functor)
    _executed_stalk_checks(g, glued)
    return glued


def projection_stalk_map(g: RingedGluingFunctor, glued: GluedRinged, i: int, x: int) -> rg.RingHom:
    """Stalk map of the chart projection at a chart point: project at the
    minimal neighbourhood of the glued image point, then restrict."""
    q = glued.space.top
    qpt = glued.top_legs[i](x)
    vq = minimal_open(q, qpt)
    ux = minimal_open(g.charts[i].top, x)
    pre = glued.top_legs[i].preimage_of(vq)
    return rg.compose_ring_hom(g.charts[i].res(pre, ux), glued.projections[i][vq])


def _executed_stalk_checks(g: RingedGluingFunctor, glued: GluedRinged) -> None:
    q = glued.space.top
    for i in range(g.n):
        for x in range(g.charts[i].top.n):
            smap = projection_stalk_map(g, glued, i, x)
            if not rg.is_ring_iso(smap):
                raise FalsificationError(
                    f"projection stalk map at chart {i}, point {x} is not an isomorphism"
                )
            qpt = glued.top_legs[i](x)
            vq = minimal_open(q, qpt)
            ux = minimal_open(g.charts[i].top, x)
            for v in q.sorted_opens():
                if qpt not in v:
                    continue
                pre = glued.top_legs[i].preimage_of(v)
                via = rg.compose_ring_hom(g.charts[i].res(pre, ux), glued.projections[i][v])
                direct = rg.compose_ring_hom(smap, glued.space.res(v, vq))
                if via != direct:
                    raise FalsificationError("stalk naturality square does not commute")
            if g.variant == "lrts":
                if not rg.is_local_ring(stalk_at(glued.space, qpt).ring):
                    raise FalsificationError("glued stalk is not local in the lrts variant")
                if not rg.is_local_hom(smap):
                    raise FalsificationError("projection stalk map is not local")


def induced_sheaf_functor(g: RingedGluingFunctor, glued: GluedRinged):
    """Push each chart sheaf forward onto its image in the glued space and
    package the transitions as an abelian-group sheaf gluing functor over
    the image cover; the result passes the sheaf-glue validator."""
    from . import presheaves as ps
    from . import sheafglue as sg

    _check_sch(g)
    q = glued.space.top
    cover = tuple(
        glued.top_legs[i].image_of(range(g.charts[i].top.n)) for i in range(g.n)
    )
    pres_cache: dict[tuple[int, Open], tuple] = {}

    def pres(i: int, w: Open):
        key = (i, w)
        if key not in pres_cache:
            pres_cache[key] = rg.additive_group_presentation(g.charts[i].ring(w))
        return pres_cache[key]

    sheaves = []
    for i in range(g.n):
        opens = opens_below(q, cover[i])
        sections = {}
        restrictions = {}
        for o in opens:
            sections[o] = pres(i, glued.top_legs[i].preimage_of(o))[0]
        for u in opens:
            for v in opens:
                if not v <= u:
                    continue
                pu = glued.top_legs[i].preimage_of(u)
                pv = glued.top_legs[i].preimage_of(v)
                restrictions[(u, v)] = rg.additive_hom_matrix(
                    g.charts[i].res(pu, pv), pres(i, pu), pres(i, pv)
                )
        sheaves.append(ps.make_presheaf(q, cover[i], sections, restrictions))
    transitions = {}
    for i, j in permutations(range(g.n), 2):
        overlap = cover[i] & cover[j]
        dom = ps.restrict_presheaf(sheaves[i], overlap)
        cod = ps.restrict_presheaf(sheaves[j], overlap)
        comps = {}
        for w in dom.opens():
            wi = glued.top_legs[i].preimage_of(w)
            comps[w] = rg.additive_hom_matrix(
                g.transport(i, j, wi), pres(i, wi), pres(j, glued.top_legs[j].preimage_of(w))
            )
        transitions[(i, j)] = ps.NatIso(dom, cod, comps)
    data = sg.SheafGluingData(q, cover, tuple(sheaves), transitions)
    return sg.sheaf_functor_from_data(data)


def verify_ringed_glued(
    candidate: RingedSpace,
    top_legs: dict[int, ContinuousMap],
    sheaf_legs: dict[int, dict[Open, rg.RingHom]],
    g: RingedGluingFunctor,
    glued: GluedRinged,
) -> dict:
    """Compare a candidate cone with the standard glued ringed space.

    Builds the topological comparison through the mediating map and the
    per-open section comparison through the leg tuples; the lrts variant
    additionally requires local stalks and local stalk maps on the
    candidate side.
    """
    _check_sch(g)
    report = {
        "top_cone": False,
        "top_comparison": False,
        "sheaf_cone": False,
        "sheaf_comparison": False,
        "projections_commute": False,
        "locality": g.variant != "lrts",
        "verdict": False,
    }
    top_functor = glued.top_functor
    legs = {single(i): top_legs[i] for i in range(g.n)}
    for arrow in index_category(g.n).leg_generators:
        legs[arrow.cod] = ft.compose(legs[arrow.dom], top_functor.arrows[arrow])
    try:
        report["top_cone"] = all(tg.is_cone(candidate.top, legs, top_functor))
    except ValidationError:
        return report
    if not report["top_cone"]:
        return report
    cone = tg.TopCone(candidate.top, legs)
    try:
        mu = tg.mediating_morphism(cone, glued.top_rep, top_functor)
    except ValidationError:
        return report
    report["top_comparison"] = ft.is_homeomorphism(mu)
    if not report["top_comparison"]:
        return report
    cand_opens = candidate.top.sorted_opens()
    sheaf_cone = True
    for i in range(g.n):
        for v in cand_opens:
            h = sheaf_legs.get(i, {}).get(v)
            gi = top_legs[i].preimage_of(v)
            if h is None or h.dom != candidate.ring(v) or h.cod != g.charts[i].ring(gi):
                sheaf_cone = False
                break
            if not rg.is_ring_hom(h):
                sheaf_cone = False
                break
        if not sheaf_cone:
            break
    if sheaf_cone:
        for v in cand_opens:
            for v2 in cand_opens:
                if not v2 <= v:
                    continue
                for i in range(g.n):
                    lhs = rg.compose_ring_hom(
                        g.charts[i].res(top_legs[i].preimage_of(v), top_legs[i].preimage_of(v2)),
                        sheaf_legs[i][v],
                    )
                    rhs = rg.compose_ring_hom(sheaf_legs[i][v2], candidate.res(v, v2))
                    if lhs != rhs:
                        sheaf_cone = False
        for v in cand_opens:
            for i, j in permutations(range(g.n), 2):
                w = top_legs[i].preimage_of(v) & g.overlaps[(i, j)]
                lhs = rg.compose_ring_hom(
                    g.transport(i, j, w),
                    rg.compose_ring_hom(
                        g.charts[i].res(top_legs[i].preimage_of(v), w), sheaf_legs[i][v]
                    ),
                )
                rhs = rg.compose_ring_hom(
                    g.charts[j].res(top_legs[j].preimage_of(v), g.top_image(i, j, w)),
                    sheaf_legs[j][v],
                )
                if lhs != rhs:
                    sheaf_cone = False
    report["sheaf_cone"] = sheaf_cone
    if not sheaf_cone:
        return report
    comparison_ok = True
    commute_ok = True
    for v in cand_opens:
        vq = mu.preimage_of(v)
        idx = {t: a for a, t in enumerate(glued.members[vq])}
        assign = []
        for s in candidate.ring(v).elements():
            t = tuple(sheaf_legs[i][v](s) for i in range(g.n))
            if t not in idx:
                comparison_ok = False
                break
            assign.append(idx[t])
        if not comparison_ok:
            break
        comp = rg.RingHom(candidate.ring(v), glued.space.ring(vq), tuple(assign))
        if not rg.is_ring_iso(comp):
            comparison_ok = False
            break
        for i in range(g.n):
            if rg.compose_ring_hom(glued.projections[i][vq], comp).assign != sheaf_legs[i][v].assign:
                commute_ok = False
    report["sheaf_comparison"] = comparison_ok
    report["projections_commute"] = comparison_ok and commute_ok
    if g.variant == "lrts" and comparison_ok:
        local_ok = True
        for x in range(candidate.top.n):
            if not rg.is_local_ring(stalk_at(candidate, x).ring):
                local_ok = False
        for i in range(g.n):
            for x in range(g.charts[i].top.n):
                qpt = top_legs[i](x)
                vq = minimal_open(candidate.top, qpt)
                ux = minimal_open(g.charts[i].top, x)
                smap = rg.compose_ring_hom(
                    g.charts[i].res(top_legs[i].preimage_of(vq), ux), sheaf_legs[i][vq]
                )
                if not rg.is_local_hom(smap):
                    local_ok = False
        report["locality"] = local_ok
    report["verdict"] = all(
        report[k]
        for k in ("top_cone", "top_comparison", "sheaf_cone", "sheaf_comparison", "projections_commute", "locality")
    )
    return report
