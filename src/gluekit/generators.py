"""Seeded random instances for verification sweeps.

Valid gluing inputs are produced from a random space, a random open cover
and random relabelings of every constituent space, so validity holds by
construction; adversarial inputs corrupt a single field of a valid
instance in a way that is guaranteed to break a checked law.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations

from . import abgroups as ab
from . import fintop as ft
from . import intlinalg as il
from . import presheaves as ps
from . import ringedglue as rgl
from . import rings as rgs
from . import topglue as tg
from .fintop import ContinuousMap, FinSpace
from .indexcat import EtaT, Tau, TauT, pair


def random_space(rng: random.Random, max_points: int = 5, max_opens: int | None = None) -> FinSpace:
    n = rng.randint(1, max_points)
    seeds = []
    for _ in range(rng.randint(0, n + 1)):
        seeds.append({p for p in range(n) if rng.random() < 0.5})
    space = ft.close_family(n, seeds)
    if max_opens is not None and len(space.opens) > max_opens:
        return random_space(rng, max_points, max_opens)
    return space


def random_open_cover(rng: random.Random, space: FinSpace, max_charts: int = 3) -> list[frozenset[int]]:
    n_charts = rng.randint(1, max_charts)
    nonempty = [o for o in space.sorted_opens if o] or [space.full()]
    cover = [rng.choice(nonempty) for _ in range(n_charts)]
    union = frozenset().union(*cover)
    if union != space.full():
        cover[rng.randrange(n_charts)] = space.full()
    return cover


def relabeled_copy(rng: random.Random, space: FinSpace) -> tuple[FinSpace, ContinuousMap]:
    """A homeomorphic copy with shuffled point labels and the map back."""
    perm = list(range(space.n))
    rng.shuffle(perm)
    # perm[k] = old label of new point k
    inv = _inverse_permutation(perm)
    copy = FinSpace(space.n, tuple(frozenset(map(inv.__getitem__, space.minimal[old])) for old in perm))
    back = ContinuousMap(copy, space, tuple(perm))
    return copy, back


def random_top_functor(
    rng: random.Random,
    max_charts: int = 3,
    max_points: int = 5,
    open_variant: bool = True,
) -> tg.TopGluingFunctor:
    """Valid gluing functor: a cover functor conjugated by relabelings."""
    space = random_space(rng, max_points)
    cover = random_open_cover(rng, space, max_charts)
    functor, _ = tg.cover_functor(space, cover)
    objects = {}
    back = {}  # per object: copy point -> cover point
    fwd = {}  # per object: cover point -> copy point
    for a, sp in functor.objects.items():
        objects[a], back_map = relabeled_copy(rng, sp)
        back[a] = back_map.assign
        fwd[a] = _inverse_permutation(back_map.assign)
    # each arrow runs from the zone of its generator's codomain to that of
    # its domain, so it is read through back there and fwd here
    arrows = {
        gen: ContinuousMap(objects[gen.cod], objects[gen.dom],
                           tuple(map(fwd[gen.dom].__getitem__, map(arrow.assign.__getitem__, back[gen.cod]))))
        for gen, arrow in functor.arrows.items()
    }
    return tg.TopGluingFunctor(functor.n, open_variant, objects, arrows)


def _inverse_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    return tuple(inv)


def corrupt_top_functor(rng: random.Random, g: tg.TopGluingFunctor) -> tg.TopGluingFunctor | None:
    """Single-field corruption guaranteed to break validation, or None when
    the instance offers no breakable field."""
    modes = []
    for (i, j) in permutations(range(g.n), 2):
        if g.objects[pair(i, j)].n >= 2:
            modes.append(("constant_transition", (i, j)))
    for key, sp in g.objects.items():
        if key.kind == "triple" and sp.n >= 1:
            modes.append(("shrink_triple", key))
    if not modes:
        return None
    mode, target = modes[rng.randrange(len(modes))]
    arrows = dict(g.arrows)
    objects = dict(g.objects)
    if mode == "constant_transition":
        i, j = target
        old = arrows[Tau(i, j)]
        arrows[Tau(i, j)] = ContinuousMap(old.dom, old.cod, (old.assign[0],) * old.dom.n)
    else:
        sp = objects[target]
        keep = list(range(sp.n - 1))
        smaller = ft.subspace(sp, keep)
        objects[target] = smaller
        i = target.apex
        j, k = sorted(target.rest)
        for via, other in ((j, k), (k, j)):
            old = arrows[EtaT(i, via, other)]
            arrows[EtaT(i, via, other)] = ContinuousMap(
                smaller, old.cod, old.assign[: sp.n - 1]
            )
        for a, b, c in permutations(range(g.n), 3):
            t = TauT(a, b, c)
            if t.dom == target:
                old = arrows[t]
                arrows[t] = ContinuousMap(smaller, old.cod, old.assign[: sp.n - 1])
            if t.cod == target:
                return None  # incoming arrows may now miss the subspace; skip
    return tg.TopGluingFunctor(g.n, g.open_variant, objects, arrows)


def random_comparison_map(rng: random.Random, q: FinSpace) -> ContinuousMap:
    """A random continuous surjection out of q: a relabeling, a quotient
    by random pairs, or the map onto one point."""
    style = rng.random()
    if style < 0.3:
        copy, back_map = relabeled_copy(rng, q)
        return ft.inverse_map(back_map)
    if style < 0.9:
        pairs = []
        for _ in range(rng.randint(0, q.n)):
            pairs.append((rng.randrange(q.n), rng.randrange(q.n))) if q.n else None
        return ft.quotient_final(q, pairs)[1]
    target = ft.point_space() if q.n else ft.empty_space()
    return ContinuousMap(q, target, (0,) * q.n)


def cone_through(h: ContinuousMap, glued: tg.GluedSpace) -> tg.TopCone:
    """The cone of the glued legs pushed through h, a map out of the glued space."""
    return tg.TopCone(h.cod, {a: ft.compose(h, leg) for a, leg in glued.iota.items()})


def random_cone(rng: random.Random, g: tg.TopGluingFunctor, glued: tg.GluedSpace) -> tg.TopCone:
    """A cone over the functor: the glued legs pushed through a random
    continuous map out of the glued space."""
    return cone_through(random_comparison_map(rng, glued.space), glued)


def corrupt_cone_legs(rng: random.Random, g: tg.TopGluingFunctor, cone: tg.TopCone) -> tg.TopCone:
    """Replace one non-single leg by a constant map (still continuous)."""
    legs = dict(cone.legs)
    candidates = [a for a in legs if a.kind != "single" and legs[a].dom.n >= 1 and cone.apex.n >= 1]
    if not candidates:
        return cone
    a = candidates[rng.randrange(len(candidates))]
    old = legs[a]
    legs[a] = ContinuousMap(old.dom, old.cod, (old.assign[0],) * old.dom.n)
    return tg.TopCone(cone.apex, legs)


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> il.Matrix:
    m = [list(row) for row in il.identity(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for col in range(n):
            m[i][col] += c * m[j][col]
    return il.freeze(m)


def random_group(rng: random.Random, max_rank: int = 2, allow_torsion: bool = True) -> ab.FgAbGroup:
    free = rng.randint(0, max_rank)
    torsion = []
    if allow_torsion and rng.random() < 0.5:
        torsion.append(rng.choice([2, 3, 4]))
    if free == 0 and not torsion:
        free = 1
    return ab.group_from_invariants(free, tuple(torsion))


def random_hom(rng: random.Random, dom: ab.FgAbGroup, cod: ab.FgAbGroup, tries: int = 30) -> ab.AbHom:
    """A random well-defined hom; falls back to the zero hom."""
    for _ in range(tries):
        rows = [
            [rng.randint(-2, 2) for _ in range(dom.ambient)] for _ in range(cod.ambient)
        ]
        h = ab.AbHom(dom, cod, il.freeze(rows) if rows else ())
        if ab.is_well_defined(h):
            return h
    return ab.zero_hom(dom, cod)


def _draw_twists(rng: random.Random, f: ps.Presheaf, base_group: ab.FgAbGroup) -> list[ab.AbHom]:
    """One random unimodular automorphism of the base group per component
    of the presheaf's domain, in component order."""
    g_amb = base_group.ambient
    return [
        ab.AbHom(base_group, base_group, random_unimodular(rng, g_amb) if g_amb else ())
        for _ in ft.components_of_open(f.space, f.domain)
    ]


def componentwise_morphism(f: ps.Presheaf, base_group: ab.FgAbGroup, twists) -> ps.EnrichedMorphism:
    """The endomorphism of a locally constant presheaf that acts on the
    factor of each component by ``twists[k]``, k the component of the
    domain holding it."""
    domain_comps = ft.components_of_open(f.space, f.domain)
    components = {}
    for o in f.opens():
        comps = ft.components_of_open(f.space, o)
        blocks = [
            ab.compose_hom(next(t for c, t in zip(domain_comps, twists) if comp <= c), proj)
            for comp, proj in zip(comps, ps.power_projections(base_group, len(comps)))
        ]
        components[o] = ab.pairing(f.group(o), f.group(o), blocks)
    return ps.EnrichedMorphism(f, f, components)


def natural_automorphism(rng: random.Random, f: ps.Presheaf, base_group: ab.FgAbGroup) -> ps.EnrichedMorphism:
    """Natural automorphism of a locally constant presheaf: one unimodular
    twist per component of the domain, routed to every smaller open."""
    return componentwise_morphism(f, base_group, _draw_twists(rng, f, base_group))


def random_sheaf_data(rng: random.Random, max_points: int = 4, max_charts: int = 3, max_rank: int = 1):
    """Sheaf gluing input over a random cover: twisted restrictions of one
    locally constant sheaf, so the cocycle law holds by construction.  Each
    twist is inverted once per domain component, and the inverse routed
    like the twist.

    Returns (base, cover, sheaves, transitions, base_group).
    """
    space = random_space(rng, max_points, max_opens=24)
    cover = random_open_cover(rng, space, max_charts)
    base_group = ab.free_group(rng.randint(1, max_rank))
    global_sheaf = ps.locally_constant_sheaf(space, space.full(), base_group)
    charts = []
    twists = []
    inverses = []
    for c in cover:
        restricted = ps.restrict_presheaf(global_sheaf, c)
        drawn = _draw_twists(rng, restricted, base_group)
        theta = componentwise_morphism(restricted, base_group, drawn)
        inverse = componentwise_morphism(restricted, base_group, [ab.inverse_hom(t) for t in drawn]).alpha
        twisted = ps.Presheaf(
            space,
            c,
            {o: restricted.group(o) for o in restricted.opens()},
            {
                (u, v): ab.compose_hom(theta.alpha[v], ab.compose_hom(restricted.res(u, v), inverse[u]))
                for u in restricted.opens()
                for v in restricted.opens()
                if v <= u
            },
        )
        charts.append(twisted)
        twists.append(theta)
        inverses.append(inverse)
    transitions = {}
    for i, j in permutations(range(len(cover)), 2):
        overlap = cover[i] & cover[j]
        comps = {}
        for o in ps.opens_below(space, overlap):
            comps[o] = ab.compose_hom(twists[j].alpha[o], inverses[i][o])
        transitions[(i, j)] = ps.EnrichedMorphism(
            ps.restrict_presheaf(charts[i], overlap), ps.restrict_presheaf(charts[j], overlap), comps
        )
    return space, cover, tuple(charts), transitions, base_group


@lru_cache(maxsize=64)
def power_ring(base_ring: rgs.FinCommRing, k: int):
    """``rings.compatible_subring([base_ring] * k, ())``: k copies of the
    base ring, with its members and projections, shared by every caller."""
    return rgs.compatible_subring([base_ring] * k, ())


@lru_cache(maxsize=256)
def component_restriction(base_ring: rgs.FinCommRing, k_u: int, parents: tuple[int, ...]) -> rgs.RingHom:
    """The restriction of a locally constant ring sheaf from an open with
    ``k_u`` components to a smaller open whose components lie in components
    ``parents`` of the larger: the hom from k_u copies of the base ring to
    ``len(parents)`` copies that reads factor ``parents[m]`` into factor m."""
    ring_u, _, proj_u = power_ring(base_ring, k_u)
    ring_v, members_v, _ = power_ring(base_ring, len(parents))
    index_v = {t: a for a, t in enumerate(members_v)}
    return rgs.factor_through_subring(ring_u, [proj_u[p] for p in parents], ring_v, index_v)


def locally_constant_ringed(space: FinSpace, base_ring: rgs.FinCommRing) -> rgl.RingedSpace:
    """Ring-valued analog of the locally constant sheaf: one copy of the
    base ring per connected component of each open."""
    comps = {o: ft.components_of_open(space, o) for o in space.sorted_opens}
    return _locally_constant_ringed(space, comps, base_ring)


def _locally_constant_ringed(space: FinSpace, comps, base_ring: rgs.FinCommRing) -> rgl.RingedSpace:
    """``locally_constant_ringed`` with the components of each open given."""
    opens = space.sorted_opens
    sections = {o: power_ring(base_ring, len(comps[o]))[0] for o in opens}
    restr = {}
    for u in opens:
        holder = {p: k for k, cu in enumerate(comps[u]) for p in cu}  # point -> its component of u
        for v in opens:
            if v <= u:
                parents = tuple(holder[min(cv)] for cv in comps[v])
                restr[(u, v)] = component_restriction(base_ring, len(comps[u]), parents)
    return rgl.RingedSpace(space, sections, restr)


def random_ringed_functor(rng: random.Random, variant: str = "lrts", max_points: int = 4, max_charts: int = 3):
    """Valid chart-form ringed gluing input: restrictions of one locally
    constant structure sheaf, relabeled chart by chart.  The components of
    the opens are found once per draw, and the sheaf's rings and
    restrictions come from the power-ring caches."""
    base_ring = rgs.zmod(rng.choice([2, 3, 4] if variant == "lrts" else [2, 4, 6]))
    while True:
        space = random_space(rng, max_points, max_opens=20)
        comps = {o: ft.components_of_open(space, o) for o in space.sorted_opens}
        if all(len(c) <= 2 for c in comps.values()):
            break
    cover = random_open_cover(rng, space, max_charts)
    sheaf = _locally_constant_ringed(space, comps, base_ring)
    charts = []
    position = []  # per chart: base point -> chart point
    local = []  # per chart: open of the space below the member -> open of the chart
    for c in cover:
        pts = sorted(c)
        top, back = relabeled_copy(rng, ft.subspace(space, pts))
        to_chart = {pts[old]: new for new, old in enumerate(back.assign)}
        opens = {o: frozenset(map(to_chart.__getitem__, o)) for o in space.sorted_opens if o <= c}
        sections = {opens[o]: sheaf.sections[o] for o in opens}
        restr = {(opens[u], opens[v]): h for (u, v), h in sheaf.restr.items() if u <= c}
        charts.append(rgl.RingedSpace(top, sections, restr))
        position.append(to_chart)
        local.append(opens)
    overlaps = {}
    trans_top = {}
    transports = {}
    for i, j in permutations(range(len(cover)), 2):
        inter = cover[i] & cover[j]
        overlaps[(i, j)] = local[i][inter]
        trans_top[(i, j)] = {position[i][p]: position[j][p] for p in inter}
        # the sheaf's identity restrictions are the identity transports
        transports[(i, j)] = {local[i][o]: sheaf.restr[(o, o)] for o in local[i] if o <= inter}
    return rgl.RingedGluingFunctor(variant, tuple(charts), overlaps, trans_top, transports)
