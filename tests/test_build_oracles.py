"""Oracles for the corpus-building paths that reuse their parts.

Each fast path is compared with the direct construction it replaced, on
seeded draws:

- a ringed chart is read off one locally constant ring sheaf per draw,
  whose power rings and restriction homs are cached, and its transports
  are the sheaf's identity restrictions; the oracle builds the sheaf with
  fresh product rings, restricts it to each member open by open, and
  builds each identity transport;
- the induced topological functor is the ringed functor's plain side; the
  oracle restricts every zone as a ringed space, builds every generator's
  image on it, and forgets the sheaves;
- the components of an open are merged from the points' minimal opens;
  the oracle searches the adjacency graph;
- a sheaf chart's inverse twist is built from each component's twist
  inverted once, with the projections built once per component count; the
  oracle inverts the twist at every open and builds the projections at
  every open;
- a random topological functor conjugates each arrow of its cover functor
  in one pass through the relabelings, and the cover functor sorts each
  zone once; the oracle inverts a relabeling and composes twice per arrow,
  and sorts a zone for every arrow out of it.

The draws must agree to the last matrix entry and leave the generator in
the same state, since the benchmark corpora are built from them.
"""

import random
from itertools import combinations, permutations, product as iproduct

import pytest

from gluekit import abgroups as ab
from gluekit import fintop as ft
from gluekit import generators as gen
from gluekit import presheaves as ps
from gluekit import rings as rg
from gluekit import ringedglue as rgl
from gluekit import topglue as tg
from gluekit.indexcat import Eta, EtaT, Tau, TauT, index_category, pair, single, triple
from test_ringedglue import restrict_ringed
from test_rings import reference_product_ring

DRAWS = 200
VARIANTS = ("lrts", "rts")


def reference_components(space, v):
    """Depth-first search over the adjacency x~y iff one lies in the
    minimal open of the other, started at each unseen point in order."""
    v = frozenset(v)
    adj = {x: {y for y in v if y != x and (y in space.minimal[x] or x in space.minimal[y])} for x in v}
    seen, comps = set(), []
    for x in sorted(v):
        if x in seen:
            continue
        comp, stack = {x}, [x]
        seen.add(x)
        while stack:
            for y in adj[stack.pop()] - seen:
                seen.add(y)
                comp.add(y)
                stack.append(y)
        comps.append(frozenset(comp))
    return comps


def reference_locally_constant_ringed(space, base_ring):
    """One copy of the base ring per component of each open, every product
    ring and restriction built afresh."""
    opens = space.sorted_opens
    comps = {o: reference_components(space, o) for o in opens}
    sections = {o: reference_product_ring([base_ring] * len(comps[o]))[0] for o in opens}
    restr = {}
    for u in opens:
        _, proj_u = reference_product_ring([base_ring] * len(comps[u]))
        for v in opens:
            if v <= u:
                parents = [next(k for k, cu in enumerate(comps[u]) if cv <= cu) for cv in comps[v]]
                index_v = {t: a for a, t in enumerate(iproduct(*(base_ring.elements() for _ in comps[v])))}
                assign = [index_v[tuple(proj_u[p][e] for p in parents)] for e in sections[u].elements()]
                restr[(u, v)] = rg.RingHom(sections[u], sections[v], tuple(assign))
    return rgl.RingedSpace(space, sections, restr)


def reference_random_ringed_functor(rng, variant, max_points=4, max_charts=3):
    """``generators.random_ringed_functor`` with each chart restricted from
    the locally constant sheaf on the whole space."""
    base_ring = rg.zmod(rng.choice([2, 3, 4] if variant == "lrts" else [2, 4, 6]))
    while True:
        space = gen.random_space(rng, max_points, max_opens=20)
        if all(len(ft.components_of_open(space, o)) <= 2 for o in space.opens):
            break
    cover = gen.random_open_cover(rng, space, max_charts)
    global_ringed = reference_locally_constant_ringed(space, base_ring)
    charts, amb = [], []
    for c in cover:
        restricted, pts = restrict_ringed(global_ringed, c)
        top, back = gen.relabeled_copy(rng, restricted.top)
        relabel = back.preimage_of
        sections = {relabel(o): restricted.ring(o) for o in restricted.top.opens}
        restr = {(relabel(u), relabel(v)): h for (u, v), h in restricted.restr.items()}
        charts.append(rgl.RingedSpace(top, sections, restr))
        amb.append([pts[old] for old in back.assign])
    overlaps, trans_top, transports = {}, {}, {}
    for i, j in permutations(range(len(cover)), 2):
        back_i = {p: k for k, p in enumerate(amb[i])}
        back_j = {p: k for k, p in enumerate(amb[j])}
        overlaps[(i, j)] = frozenset(back_i[p] for p in cover[i] & cover[j])
        trans_top[(i, j)] = {p: back_j[amb[i][p]] for p in overlaps[(i, j)]}
        transports[(i, j)] = {
            w: rg.identity_ring_hom(charts[i].ring(w)) for w in ps.opens_below(charts[i].top, overlaps[(i, j)])
        }
    return rgl.RingedGluingFunctor(variant, tuple(charts), overlaps, trans_top, transports)


def reference_images(g):
    """Every object's zone restricted as a ringed space, and every
    generator's image built on those restrictions."""
    table = index_category(g.n)
    objects = {}
    for a in table.objects:
        chart = g.charts[a.apex]
        if a.kind == "single":
            objects[a] = chart, list(range(chart.top.n))
        else:
            objects[a] = restrict_ringed(chart, frozenset.intersection(*(g.overlaps[(a.apex, j)] for j in a.rest)))
    images = {}
    for x in table.generators:
        (dom, pts), (cod, there) = objects[x.dom], objects[x.cod]
        local = {p: k for k, p in enumerate(pts)}
        if isinstance(x, (Eta, EtaT)):
            top = ft.ContinuousMap(cod.top, dom.top, tuple(local[p] for p in there))
            v = frozenset(top.assign)
            sheaf = {u: dom.res(u, u & v) for u in dom.top.sorted_opens}
        else:
            t = g.trans_top[(x.i, x.j)]
            top = ft.ContinuousMap(cod.top, dom.top, tuple(local[t[p]] for p in there))
            stored = g.transports[(x.j, x.i)]
            sheaf = {u: stored[frozenset(pts[k] for k in u)] for u in dom.top.sorted_opens}
        images[x] = rgl.RingedSpaceMorphism(dom, cod, top, sheaf)
    return {a: space for a, (space, _) in objects.items()}, images


def reference_natural_automorphism(rng, f, base_group):
    """``generators.natural_automorphism`` with the projections built at
    every open."""
    domain_comps = ft.components_of_open(f.space, f.domain)
    g_amb = base_group.ambient
    twists = [ab.AbHom(base_group, base_group, gen.random_unimodular(rng, g_amb) if g_amb else ()) for _ in domain_comps]
    components = {}
    for o in f.opens():
        comps = ft.components_of_open(f.space, o)
        blocks = [
            ab.compose_hom(next(t for c, t in zip(domain_comps, twists) if comp <= c), proj)
            for comp, proj in zip(comps, ab.projections([base_group] * len(comps)))
        ]
        components[o] = ab.pairing(f.group(o), f.group(o), blocks)
    return ps.EnrichedMorphism(f, f, components)


def reference_random_sheaf_data(rng, max_points=4, max_charts=3, max_rank=1):
    """``generators.random_sheaf_data`` with each twist inverted open by
    open."""
    space = gen.random_space(rng, max_points, max_opens=24)
    cover = gen.random_open_cover(rng, space, max_charts)
    base_group = ab.free_group(rng.randint(1, max_rank))
    global_sheaf = ps.locally_constant_sheaf(space, space.full(), base_group)
    charts, twists, inverses = [], [], []
    for c in cover:
        restricted = ps.restrict_presheaf(global_sheaf, c)
        theta = reference_natural_automorphism(rng, restricted, base_group)
        inverse = {o: ab.inverse_hom(h) for o, h in theta.alpha.items()}
        restrictions = {
            (u, v): ab.compose_hom(theta.alpha[v], ab.compose_hom(restricted.res(u, v), inverse[u]))
            for u in restricted.opens() for v in restricted.opens() if v <= u
        }
        charts.append(ps.Presheaf(space, c, {o: restricted.group(o) for o in restricted.opens()}, restrictions))
        twists.append(theta)
        inverses.append(inverse)
    transitions = {}
    for i, j in permutations(range(len(cover)), 2):
        overlap = cover[i] & cover[j]
        comps = {o: ab.compose_hom(twists[j].alpha[o], inverses[i][o]) for o in ps.opens_below(space, overlap)}
        transitions[(i, j)] = ps.EnrichedMorphism(
            ps.restrict_presheaf(charts[i], overlap), ps.restrict_presheaf(charts[j], overlap), comps
        )
    return space, cover, tuple(charts), transitions, base_group


def reference_cover_functor(space, cover):
    """``topglue.cover_functor`` with each zone sorted again for every arrow
    out of it."""
    cover = [frozenset(c) for c in cover]
    n = len(cover)
    subs, locs, legs = {}, {}, {}

    def register(key, pts):
        pts = sorted(pts)
        subs[key] = ft.subspace(space, pts)
        locs[key] = {p: k for k, p in enumerate(pts)}
        legs[key] = ft.ContinuousMap(subs[key], space, tuple(pts))

    for i in range(n):
        register(single(i), cover[i])
    for i, j in permutations(range(n), 2):
        register(pair(i, j), cover[i] & cover[j])
    for t in index_category(n).triples:
        register(t, cover[t.apex] & cover[t.rest[0]] & cover[t.rest[1]])

    def between(src, dst):
        return ft.ContinuousMap(subs[src], subs[dst], tuple(locs[dst][p] for p in sorted(locs[src])))

    arrows = {}
    for i, j in permutations(range(n), 2):
        arrows[Eta(i, j)] = between(pair(i, j), single(i))
        arrows[Tau(i, j)] = between(pair(i, j), pair(j, i))
    for i, j, k in permutations(range(n), 3):
        arrows[TauT(i, j, k)] = between(triple(i, j, k), triple(j, i, k))
        arrows[EtaT(i, j, k)] = between(triple(i, j, k), pair(i, j))
    return tg.TopGluingFunctor(n, True, dict(subs), arrows), legs


def reference_random_top_functor(rng, max_charts=3, max_points=5, open_variant=True):
    """``generators.random_top_functor`` with each arrow conjugated by an
    inverted relabeling and two composes."""
    space = gen.random_space(rng, max_points)
    cover = gen.random_open_cover(rng, space, max_charts)
    functor, _ = reference_cover_functor(space, cover)
    objects, back = {}, {}
    for a, sp in functor.objects.items():
        objects[a], back[a] = gen.relabeled_copy(rng, sp)
    arrows = {
        x: ft.compose(ft.inverse_map(back[x.dom]), ft.compose(arrow, back[x.cod]))
        for x, arrow in functor.arrows.items()
    }
    return tg.TopGluingFunctor(functor.n, open_variant, objects, arrows)


def ordered(g):
    """A topological functor with the order of its objects and arrows,
    which sets the layout of concatenated legs."""
    return g.n, g.open_variant, list(g.objects.items()), list(g.arrows.items())


@pytest.mark.parametrize("open_variant", (True, False))
def test_top_functors_match_the_composed_conjugation(open_variant):
    rng, oracle = random.Random(f"top/{open_variant}"), random.Random(f"top/{open_variant}")
    for draw in range(DRAWS):
        charts = 3 + draw % 2
        g = gen.random_top_functor(rng, max_charts=charts, max_points=5, open_variant=open_variant)
        assert ordered(g) == ordered(reference_random_top_functor(oracle, charts, 5, open_variant))
        assert rng.getstate() == oracle.getstate()


def test_cover_functors_match_the_zone_sorting_per_arrow():
    rng = random.Random("cover")
    for _ in range(DRAWS):
        space = gen.random_space(rng, 6)
        cover = gen.random_open_cover(rng, space, 4)
        g, legs = tg.cover_functor(space, cover)
        h, oracle_legs = reference_cover_functor(space, cover)
        assert ordered(g) == ordered(h) and list(legs.items()) == list(oracle_legs.items())


def exact(x):
    """Sheaf data with every group hom as its groups and matrix, since
    ``AbHom`` compares by identity."""
    if isinstance(x, ab.AbHom):
        return x.dom, x.cod, x.matrix
    if isinstance(x, ps.Presheaf):
        return x.space, x.domain, x.sections, exact(x.restrictions)
    if isinstance(x, ps.EnrichedMorphism):
        return exact(x.dom), exact(x.cod), exact(x.alpha)
    if isinstance(x, dict):
        return {k: exact(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return tuple(map(exact, x))
    return x


def same_functor(g, h):
    return (g.variant, g.charts, g.overlaps, g.trans_top, g.transports) == (
        h.variant, h.charts, h.overlaps, h.trans_top, h.transports
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_charts_match_freshly_restricted_global_charts(variant):
    rng, oracle = random.Random(f"charts/{variant}"), random.Random(f"charts/{variant}")
    for _ in range(DRAWS):
        g = gen.random_ringed_functor(rng, variant, max_points=5)
        assert same_functor(g, reference_random_ringed_functor(oracle, variant, max_points=5))
        assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("variant", VARIANTS)
def test_plain_side_matches_the_forgotten_ringed_images(variant, monkeypatch):
    rng = random.Random(f"plain/{variant}")
    for _ in range(DRAWS):
        g = gen.random_ringed_functor(rng, variant, max_points=5)
        objects, images = reference_images(g)
        with monkeypatch.context() as m:
            m.setattr(rgl, "ringed_subspace", None)  # the plain side restricts no ring
            top = rgl.induced_top_functor(g)
        assert top == tg.TopGluingFunctor(
            g.n, True, {a: s.top for a, s in objects.items()}, {x: im.top for x, im in images.items()}
        )
        assert rgl.validate_ringed_functor(g)["ok"]
        assert {a: g.obj(a) for a in objects} == objects
        assert {x: g.gen_image(x) for x in images} == images


def test_inverse_twists_per_component_match_per_open_inverses():
    rng, oracle = random.Random("twists"), random.Random("twists")
    for _ in range(DRAWS):
        data = gen.random_sheaf_data(rng, max_points=5, max_charts=3, max_rank=3)
        assert exact(data) == exact(reference_random_sheaf_data(oracle, max_points=5, max_charts=3, max_rank=3))
        assert rng.getstate() == oracle.getstate()


def test_natural_automorphisms_match_over_groups_with_torsion():
    rng, oracle = random.Random("automorphisms"), random.Random("automorphisms")
    for _ in range(DRAWS):
        space = gen.random_space(rng, 5)
        domain = rng.choice(space.sorted_opens)
        base = gen.random_group(rng)
        oracle.setstate(rng.getstate())
        f = ps.locally_constant_sheaf(space, domain, base)
        assert exact(gen.natural_automorphism(rng, f, base)) == exact(reference_natural_automorphism(oracle, f, base))
        assert rng.getstate() == oracle.getstate()


def test_components_match_the_graph_search():
    rng = random.Random("components")
    subsets = 0
    for _ in range(DRAWS):
        space = gen.random_space(rng, 6)
        for size in range(space.n + 1):
            for v in map(frozenset, combinations(range(space.n), size)):
                assert ft.components_of_open(space, v) == reference_components(space, v), (space, v)
                subsets += 1
    assert subsets > 3000
