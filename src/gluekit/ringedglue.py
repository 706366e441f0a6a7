"""Ringed finite spaces, stalks via minimal opens, and chart gluing.

A ringed space is a finite space with one table ring per open and ring-hom
restrictions satisfying the presheaf laws (``presheaves.presheaf_law_failures``
with the ring operations) and the sheaf axioms (the identity-and-gluing
condition on the minimal cover of each open).  The naturality squares of
a morphism, a transport or a cone leg are checked by
``presheaves.naturality_failures`` with the ring operations.

Gluing input is the classical chart form: ringed charts, overlap opens
inside each chart, and transition isomorphisms stored as transports from
chart to chart.  It is a functor from the gluing index category into
ringed spaces: ``RingedGluingFunctor.obj`` restricts a chart to an overlap
or a triple zone, and ``gen_image`` gives each generator's image as a
``RingedSpaceMorphism`` (restrictions, and the stored transports).  The
transition inverse and cocycle laws are checked only as the index
category's generator relations on those images.  The images are built on
the functor's plain side, the zones as subspaces and the plain maps, which
alone is the topological gluing functor (``induced_top_functor``).  The
glued object pairs the topological standard representative with the
compatible-family structure sheaf; its legs into the charts are
ringed-space morphisms, and the cone check composes them with the
generator images.  The variant is rts or lrts (documents that ask for
schemes are refused by the parser), and each functor is validated once.  The executed stalk laws are falsification
checks, not input validation.  Both the gluing axiom and the glued sections
enumerate compatible families with one join (``compatible_families``),
whose work follows the families kept.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations, permutations

from . import fintop as ft
from . import rings as rg
from . import topglue as tg
from .errors import FalsificationError, ValidationError
from .fintop import ContinuousMap, FinSpace, Open, minimal_cover, minimal_open
from .indexcat import Eta, EtaT, Generator, IdxObj, Tau, check_generator_relations, index_category, single
from .presheaves import naturality_failures, opens_below, presheaf_law_failures

VARIANTS = ("rts", "lrts")

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


def make_ringed_space(top: FinSpace, sections, restr) -> RingedSpace:
    sections = {frozenset(k): v for k, v in sections.items()}
    restr = {(frozenset(u), frozenset(v)): h for (u, v), h in restr.items()}
    problems = presheaf_law_failures(
        top.sorted_opens, sections, restr,
        rg.is_ring_hom, rg.compose_ring_hom, operator.eq, rg.identity_ring_hom, top.lower_covers,
    )
    if problems:
        raise ValidationError("; ".join(problems))
    space = RingedSpace(top, sections, restr)
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
    for v in space.top.sorted_opens:
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


def ringed_subspace(space: RingedSpace, sub: FinSpace, pts) -> RingedSpace:
    """The ringed structure of ``space`` on the subspace ``sub`` of one of
    its opens, whose point k is the space's point ``pts[k]``, numbered as
    ``fintop.subspace`` numbers them."""
    ambient_of = {o: frozenset(pts[k] for k in o) for o in sub.sorted_opens}
    sections = {o: space.ring(a) for o, a in ambient_of.items()}
    restr = {
        (u, w): space.res(ambient_of[u], ambient_of[w])
        for u in sub.sorted_opens for w in sub.sorted_opens if w <= u
    }
    return RingedSpace(sub, sections, restr)


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
        {u: rg.identity_ring_hom(space.ring(u)) for u in space.top.sorted_opens},
    )


def restriction_rsm(space: RingedSpace, sub: RingedSpace, inclusion: ContinuousMap) -> RingedSpaceMorphism:
    """The canonical morphism from a ringed space to its restriction ``sub``
    to an open, along the ``inclusion`` of ``sub``'s points into the
    space's, as ``ringed_subspace`` numbers them."""
    v = frozenset(inclusion.assign)
    sheaf = {u: space.res(u, u & v) for u in space.top.sorted_opens}
    return RingedSpaceMorphism(space, sub, inclusion, sheaf)


def compose_rsm(m2: RingedSpaceMorphism, m1: RingedSpaceMorphism) -> RingedSpaceMorphism:
    """m2 after m1."""
    if m1.cod is not m2.dom and m1.cod.top != m2.dom.top:
        raise ValidationError("compose_rsm: endpoint mismatch")
    top = ft.compose(m1.top, m2.top)
    sheaf = {}
    for u in m1.dom.top.sorted_opens:
        mid = m1.top.preimage_of(u)
        sheaf[u] = rg.compose_ring_hom(m2.sheaf[mid], m1.sheaf[u])
    return RingedSpaceMorphism(m1.dom, m2.cod, top, sheaf)


def same_rsm(m1: RingedSpaceMorphism, m2: RingedSpaceMorphism) -> bool:
    """Equal plain maps and equal sheaf parts."""
    return m1.top == m2.top and m1.sheaf == m2.sheaf


def check_rsm(m: RingedSpaceMorphism) -> bool:
    if m.top.dom != m.cod.top or m.top.cod != m.dom.top or not ft.is_continuous(m.top):
        return False
    for u in m.dom.top.sorted_opens:
        h = m.sheaf.get(u)
        pre = m.top.preimage_of(u)
        if h is None or h.dom != m.dom.ring(u) or h.cod != m.cod.ring(pre):
            return False
        if not rg.is_ring_hom(h):
            return False
    return not naturality_failures(
        m.dom.top.sorted_opens, m.top.preimage_of, m.sheaf.__getitem__, m.dom.res, m.cod.res,
        rg.compose_ring_hom, operator.eq,
    )


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
    for u in m.dom.top.sorted_opens:
        if y not in u:
            continue
        via = rg.compose_ring_hom(m.cod.res(m.top.preimage_of(u), ux), m.sheaf[u])
        direct = rg.compose_ring_hom(target, m.dom.res(u, uy))
        if via != direct:
            return False
    return True


@dataclass
class RingedGluingFunctor:
    """Chart form of the gluing input, and the functor it defines from the
    index category into ringed spaces.

    ``overlaps[(i, j)]`` is an open of chart i; ``trans_top[(i, j)]`` sends
    its points to points of the mirror overlap in chart j; and
    ``transports[(i, j)][W]`` carries sections of chart i over any open W
    below the overlap to sections of chart j over the image open.  The
    plain side (``plain``), the images of objects and generators on top of
    it, and the validation are built once per functor, on first use, so the
    chart data is not changed afterwards.
    """

    variant: str
    charts: tuple[RingedSpace, ...]
    overlaps: dict[tuple[int, int], Open]
    trans_top: dict[tuple[int, int], dict[int, int]]
    transports: dict[tuple[int, int], dict[Open, rg.RingHom]]

    def __post_init__(self):
        self._objects: dict[IdxObj, RingedSpace] = {}
        self._images: dict[Generator, RingedSpaceMorphism] = {}

    @property
    def n(self) -> int:
        return len(self.charts)

    @cached_property
    def validation(self) -> tuple[dict, tg.TopGluingFunctor | None]:
        """The validation report, and the induced topological functor if valid."""
        return _validate(self)

    def top_image(self, i: int, j: int, w) -> Open:
        t = self.trans_top[(i, j)]
        return frozenset(t[p] for p in w)

    def transport(self, i: int, j: int, w) -> rg.RingHom:
        w = frozenset(w)
        if i == j:
            return rg.identity_ring_hom(self.charts[i].ring(w))
        return self.transports[(i, j)][w]

    @cached_property
    def plain(self) -> tuple[dict[IdxObj, list[int]], tg.TopGluingFunctor]:
        """The plain side, built once from the overlaps and the transitions
        alone: each object's zone in chart ``a.apex`` as its sorted points
        (the whole chart, an overlap, or a triple zone), and the
        topological functor of the zones as subspaces and of the plain
        maps of the generators' images."""
        table = index_category(self.n)
        zones: dict[IdxObj, list[int]] = {}
        spaces: dict[IdxObj, FinSpace] = {}
        local: dict[IdxObj, dict[int, int]] = {}  # chart point -> zone point
        for a in table.objects:
            top = self.charts[a.apex].top
            if a.kind == "single":
                zones[a], spaces[a] = list(range(top.n)), top
            else:
                zones[a] = sorted(frozenset.intersection(*(self.overlaps[(a.apex, j)] for j in a.rest)))
                spaces[a] = ft.subspace(top, zones[a])
            local[a] = {p: k for k, p in enumerate(zones[a])}
        maps: dict[Generator, ContinuousMap] = {}
        for g in table.generators:
            dom, cod = g.dom, g.cod
            there = zones[cod]
            if not isinstance(g, (Eta, EtaT)):
                there = map(self.trans_top[(g.i, g.j)].__getitem__, there)
            maps[g] = ContinuousMap(spaces[cod], spaces[dom], tuple(map(local[dom].__getitem__, there)))
        return zones, tg.TopGluingFunctor(self.n, True, spaces, maps)

    def obj(self, a: IdxObj) -> RingedSpace:
        """Chart ``a.apex`` restricted to the object's zone."""
        if a not in self._objects:
            zones, plain = self.plain
            chart = self.charts[a.apex]
            self._objects[a] = chart if a.kind == "single" else ringed_subspace(chart, plain.objects[a], zones[a])
        return self._objects[a]

    def gen_image(self, g: Generator) -> RingedSpaceMorphism:
        """The generator's plain map with a sheaf part: ``Eta`` and ``EtaT``
        give restrictions; ``Tau(i, j)`` and ``TauT(i, j, k)`` give the
        transition from chart j to chart i, whose sheaf part is the stored
        transport (j, i), keyed by local opens."""
        if g not in self._images:
            zones, plain = self.plain
            dom, cod, top = self.obj(g.dom), self.obj(g.cod), plain.arrows[g]
            if isinstance(g, (Eta, EtaT)):
                image = restriction_rsm(dom, cod, top)
            else:
                pts, stored = zones[g.dom], self.transports[(g.j, g.i)]
                sheaf = {u: stored[frozenset(pts[x] for x in u)] for u in dom.top.sorted_opens}
                image = RingedSpaceMorphism(dom, cod, top, sheaf)
            self._images[g] = image
        return self._images[g]


def validate_ringed_functor(g: RingedGluingFunctor) -> dict:
    """Report-style validation of the chart data: overlap/transition shape,
    transport typing and naturality, the generator relations (among them
    ``inverse_pair``, each transport inverse to its mirror, and
    ``triple_composition``, the cocycle law), and the locality
    requirements of the lrts variant."""
    return g.validation[0]


def _validate(g: RingedGluingFunctor) -> tuple[dict, tg.TopGluingFunctor | None]:
    report = {"shape": [], "transports": [], "relations": [], "locality": [], "ok": False}
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
        elif any(g.trans_top.get((j, i), {}).get(t[p]) != p for p in ov):
            report["shape"].append(f"transitions ({i},{j}) and ({j},{i}) are not inverse")
    if report["shape"]:
        return report, None
    for i, j, k in permutations(range(n), 3):
        zone = g.overlaps[(i, j)] & g.overlaps[(i, k)]
        if g.top_image(i, j, zone) != g.overlaps[(j, i)] & g.overlaps[(j, k)]:
            report["shape"].append(f"transition ({i},{j}) does not carry the ({i},{j},{k}) zone to its mirror")
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
    for i, j in permutations(range(n), 2):
        squares = naturality_failures(
            opens_below(g.charts[i].top, g.overlaps[(i, j)]), partial(g.top_image, i, j),
            g.transports[(i, j)].__getitem__, g.charts[i].res, g.charts[j].res, rg.compose_ring_hom, operator.eq,
        )
        for w, w2 in squares:
            report["transports"].append(f"transport ({i},{j}) not natural at {sorted(w)}->{sorted(w2)}")
    if report["transports"]:
        return report, None
    # every transport is present, typed and natural, and each transition
    # open both ways, so every generator has an image
    images = {x: g.gen_image(x) for x in index_category(n).generators}
    report["relations"] = check_generator_relations(
        n, images, compose=compose_rsm, eq=same_rsm, identity=lambda a: identity_rsm(g.obj(a)),
    )
    if report["relations"]:
        return report, None
    if g.variant == "lrts":
        for i in range(n):
            for x in range(g.charts[i].top.n):
                if not rg.is_local_ring(g.charts[i].ring(minimal_open(g.charts[i].top, x))):
                    report["locality"].append(f"chart {i} has a non-local stalk at {x}")
        for i, j in permutations(range(n), 2):
            # the image of Tau(j, i) carries the transport (i, j)
            m = images[Tau(j, i)]
            pts = sorted(g.overlaps[(i, j)])
            for x in range(m.cod.top.n):
                if not rg.is_local_hom(stalk_hom(m, x)):
                    report["locality"].append(f"transition ({i},{j}) stalk map at {pts[m.top(x)]} is not local")
    report["ok"] = not report["locality"]
    return report, induced_top_functor(g) if report["ok"] else None


def induced_top_functor(g: RingedGluingFunctor) -> tg.TopGluingFunctor:
    """Forget the sheaves: the functor's plain side, which builds no ring
    restrictions.  On data that ``validate_ringed_functor`` accepts it is a
    valid topological gluing functor: the generator relations hold for the
    plain maps too, and every transition is open both ways."""
    return g.plain[1]


@dataclass
class GluedRinged:
    top_rep: tg.GluedSpace
    space: RingedSpace
    legs: dict[int, RingedSpaceMorphism]
    members: dict[Open, list[tuple[int, ...]]]
    top_functor: tg.TopGluingFunctor

    @property
    def top_legs(self) -> dict[int, ContinuousMap]:
        return {i: leg.top for i, leg in self.legs.items()}


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
    """Standard glued ringed space with its legs, the chart projections as
    ringed-space morphisms.

    Every conclusion of the executed theorems (structure sheaf is a sheaf,
    projection stalk maps are ring isomorphisms, locality closure in the
    lrts variant) raises FalsificationError when it fails on validated
    input.
    """
    report, top_functor = g.validation
    if not report["ok"]:
        raise ValidationError(f"invalid ringed gluing data: {report}")
    rep = tg.standard_representative(top_functor)
    q = rep.space
    top_legs = {i: rep.iota[single(i)] for i in range(g.n)}
    inv = {i: {v: top_legs[i].preimage_of(v) for v in q.sorted_opens} for i in range(g.n)}
    members: dict[Open, list[tuple[int, ...]]] = {}
    indexes: dict[Open, dict[tuple[int, ...], int]] = {}
    sections: dict[Open, rg.FinCommRing] = {}
    for v in q.sorted_opens:
        parts = [g.charts[i].ring(inv[i][v]) for i in range(g.n)]
        keep = members[v] = glued_families(g, [inv[i][v] for i in range(g.n)])
        index = indexes[v] = {t: a for a, t in enumerate(keep)}
        add = _family_table([r.add for r in parts], keep, index)
        mul = _family_table([r.mul for r in parts], keep, index)
        zero = index[tuple(r.zero for r in parts)]
        one = index[tuple(r.one for r in parts)]
        sections[v] = rg.FinCommRing(add, mul, zero, one)
    restr: dict[tuple[Open, Open], rg.RingHom] = {}
    for u in q.sorted_opens:
        for v in q.sorted_opens:
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
        space = make_ringed_space(q, sections, restr)
    except ValidationError as exc:
        raise FalsificationError(f"glued structure sheaf failed: {exc}") from exc
    legs = {
        i: RingedSpaceMorphism(space, g.charts[i], top_legs[i], {
            v: rg.RingHom(sections[v], g.charts[i].ring(inv[i][v]), tuple(t[i] for t in members[v]))
            for v in q.sorted_opens
        })
        for i in range(g.n)
    }
    glued = GluedRinged(rep, space, legs, members, top_functor)
    _executed_stalk_checks(g, glued)
    return glued


def _executed_stalk_checks(g: RingedGluingFunctor, glued: GluedRinged) -> None:
    for i, leg in glued.legs.items():
        for x in range(g.charts[i].top.n):
            smap = stalk_hom(leg, x)
            if not rg.is_ring_iso(smap):
                raise FalsificationError(
                    f"projection stalk map at chart {i}, point {x} is not an isomorphism"
                )
            if not stalk_hom_well_defined(leg, x):
                raise FalsificationError("stalk naturality square does not commute")
            if g.variant == "lrts":
                if not rg.is_local_ring(glued.space.ring(minimal_open(glued.space.top, leg.top(x)))):
                    raise FalsificationError("glued stalk is not local in the lrts variant")
                if not rg.is_local_hom(smap):
                    raise FalsificationError("projection stalk map is not local")


def verify_ringed_glued(
    candidate: RingedSpace,
    legs: dict[int, RingedSpaceMorphism],
    g: RingedGluingFunctor,
    glued: GluedRinged,
) -> dict:
    """Compare a candidate cone with the standard glued ringed space.

    The chart legs must be ringed-space morphisms from the candidate
    (``check_rsm``); legs that are not fail every condition.  They are
    extended to every object along the leg generators; their plain maps
    give the topological cone and its mediating map, and the squares of
    every generator but ``TauT`` give the ringed cone (the ``mixed_swap``
    relation gives the rest, as in ``sheafglue.check_sheaf_cone``).  The
    per-open section comparison goes through the leg tuples; the lrts
    variant additionally requires local stalks and local stalk maps on the
    candidate side.
    """
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
    table = index_category(g.n)
    if not all(
        (leg := legs.get(i)) is not None and leg.dom == candidate and leg.cod == g.charts[i] and check_rsm(leg)
        for i in range(g.n)
    ):
        return report
    cone = {single(i): legs[i] for i in range(g.n)}
    for arrow in table.leg_generators:
        cone[arrow.cod] = compose_rsm(g.gen_image(arrow), cone[arrow.dom])
    top_cone = tg.TopCone(candidate.top, {a: m.top for a, m in cone.items()})
    try:
        report["top_cone"] = all(tg.is_cone(top_cone.apex, top_cone.legs, top_functor))
    except ValidationError:
        return report
    if not report["top_cone"]:
        return report
    try:
        mu = tg.mediating_morphism(top_cone, glued.top_rep, top_functor)
    except ValidationError:
        return report
    report["top_comparison"] = ft.is_homeomorphism(mu)
    if not report["top_comparison"]:
        return report
    # the squares of the leg generators hold by the extension
    extended = set(table.leg_generators)
    report["sheaf_cone"] = all(
        same_rsm(compose_rsm(g.gen_image(arrow), cone[a]), cone[b])
        for a, b, (arrow,) in table.cone_squares[1] if arrow not in extended
    )
    if not report["sheaf_cone"]:
        return report
    comparison_ok = True
    commute_ok = True
    for v in candidate.top.sorted_opens:
        vq = mu.preimage_of(v)
        idx = {t: a for a, t in enumerate(glued.members[vq])}
        assign = []
        for s in candidate.ring(v).elements():
            t = tuple(legs[i].sheaf[v](s) for i in range(g.n))
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
            if rg.compose_ring_hom(glued.legs[i].sheaf[vq], comp).assign != legs[i].sheaf[v].assign:
                commute_ok = False
    report["sheaf_comparison"] = comparison_ok
    report["projections_commute"] = comparison_ok and commute_ok
    if g.variant == "lrts" and comparison_ok:
        report["locality"] = all(
            rg.is_local_ring(candidate.ring(minimal_open(candidate.top, x))) for x in range(candidate.top.n)
        ) and all(
            rg.is_local_hom(stalk_hom(legs[i], x)) for i in range(g.n) for x in range(g.charts[i].top.n)
        )
    report["verdict"] = all(
        report[k]
        for k in ("top_cone", "top_comparison", "sheaf_cone", "sheaf_comparison", "projections_commute", "locality")
    )
    return report
