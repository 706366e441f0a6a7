"""Gluing sheaves of abelian groups along an open cover of a fixed base.

One datum, ``SheafGluingData``, is both the gluing input and, once
``sheaf_functor_from_data`` accepts it, the gluing functor.  Every arrow's
image is a ``presheaves.EnrichedMorphism``: the attaching arrows have
inclusion open parts, and the transitions, stored as they are given, have
identity open parts.  Each transition's naturality is checked by
``check_enriched_morphism``; its other laws (inverse to its mirror, which
makes it an isomorphism, and the cocycle law) only as the index category's
generator relations.  The limit sheaf is materialized per open as the
compatible families of chart sections (``abgroups.compatible_subgroup``),
whose legs are the limit cone's chart legs; restrictions are factored on
covering pairs of opens only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from . import abgroups as ab
from . import presheaves as ps
from .errors import FalsificationError, ValidationError
from .fintop import FinSpace, Open
from .indexcat import (
    Eta,
    EtaT,
    Generator,
    IdxObj,
    Tau,
    check_generator_relations,
    index_category,
    pair,
    single,
)


@dataclass
class SheafGluingData:
    """Gluing input, and once ``sheaf_functor_from_data`` accepts it, the
    gluing functor itself: charts, overlap restrictions and transitions are
    the images of the index category's objects and generators."""

    base: FinSpace
    cover: tuple[Open, ...]
    sheaves: tuple[ps.Presheaf, ...]
    transitions: dict[tuple[int, int], ps.EnrichedMorphism]

    def __post_init__(self):
        self._objects: dict[IdxObj, ps.Presheaf] = {}

    @property
    def n(self) -> int:
        return len(self.cover)

    def obj(self, a: IdxObj) -> ps.Presheaf:
        """Chart ``a.apex`` restricted to the object's zone, built once."""
        if a.kind == "single":
            return self.sheaves[a.apex]
        if a not in self._objects:
            zone = frozenset.intersection(*(self.cover[j] for j in (a.apex, *a.rest)))
            self._objects[a] = ps.restrict_presheaf(self.sheaves[a.apex], zone)
        return self._objects[a]

    def transition_component(self, i: int, j: int, w) -> ab.AbHom:
        """Component of the transition from chart i to chart j at an open
        below their overlap."""
        if i == j:
            return ab.id_hom(self.sheaves[i].group(frozenset(w)))
        return self.transitions[(i, j)].component(w)

    def gen_image(self, g: Generator) -> ps.EnrichedMorphism:
        if isinstance(g, Tau):
            return self.transitions[(g.j, g.i)]
        dom, cod = self.obj(g.dom), self.obj(g.cod)
        if isinstance(g, (Eta, EtaT)):
            return ps.EnrichedMorphism(dom, cod, {w: dom.res(w, w & cod.domain) for w in dom.opens()})
        comps = {w: self.transition_component(g.j, g.i, w) for w in dom.opens()}
        return ps.EnrichedMorphism(dom, cod, comps)


def sheaf_functor_from_data(data: SheafGluingData) -> SheafGluingData:
    """Validate a gluing input as a functor on the index category and
    return it.

    Checks the cover, the chart domains, that each transition is a natural
    transformation between the two charts' restrictions to their overlap
    (``check_enriched_morphism``: homomorphisms, natural on the covering
    pairs, which decide every square because the charts satisfy the
    presheaf laws, as ``make_presheaf`` checks on parse), the generator
    relations (among them ``inverse_pair``, each transition inverse to its
    mirror in both orders, so an isomorphism, and ``triple_composition``,
    the cocycle law), and that every chart is a sheaf.
    """
    n = data.n
    if n == 0:
        raise ValidationError("the cover must be non-empty")
    union = frozenset().union(*data.cover)
    if union != data.base.full():
        raise ValidationError("the family does not cover the base")
    for c in data.cover:
        if c not in data.base.opens:
            raise ValidationError(f"cover member {sorted(c)} is not open")
    problems = []
    for i, f in enumerate(data.sheaves):
        if f.space != data.base or f.domain != data.cover[i]:
            problems.append(f"chart {i} does not live on its cover member")
    if problems:
        raise ValidationError("; ".join(problems))
    for i, j in permutations(range(n), 2):
        t = data.transitions.get((i, j))
        if t is None:
            problems.append(f"missing transition ({i},{j})")
            continue
        if t.dom != data.obj(pair(i, j)) or t.cod != data.obj(pair(j, i)):
            problems.append(f"transition ({i},{j}) does not run between the charts' restrictions to the overlap")
            continue
        ok, errs = ps.check_enriched_morphism(t)
        if not ok:
            problems.append(f"transition ({i},{j}): {errs[0]}")
    if problems:
        raise ValidationError("; ".join(problems))
    failures = check_generator_relations(
        n,
        {g: data.gen_image(g) for g in index_category(n).generators},
        compose=ps.compose_enriched,
        eq=ps.same_enriched,
        identity=lambda a: ps.identity_enriched(data.obj(a)),
    )
    if failures:
        raise ValidationError(f"generator relations fail: {failures[:3]}")
    for i, f in enumerate(data.sheaves):
        ok, cert = ps.is_sheaf(f)
        if not ok:
            raise ValidationError(f"chart {i} is not a sheaf: {cert}")
    return data


@dataclass
class LimitSheaf:
    carrier: ps.Presheaf
    inclusions: dict[Open, ab.AbHom]
    legs: dict[IdxObj, ps.EnrichedMorphism]


def build_limit_sheaf(g: SheafGluingData) -> LimitSheaf:
    """Sections over V are the transition-compatible tuples of chart
    sections (``abgroups.compatible_subgroup``); restrictions act
    componentwise through a factorization that must exist, and the chart
    projections assemble into a limit cone.

    The factorization runs on u -> u and the covering pairs u -> c
    (``FinSpace.lower_covers``); another u -> v is r_cv after r_uc for a
    lower cover c above v, the one map with the defining property, as the
    charts satisfy the presheaf laws and the inclusions are injective.
    """
    base = g.base
    opens = base.sorted_opens
    inclusions: dict[Open, ab.AbHom] = {}
    section_groups: dict[Open, ab.FgAbGroup] = {}
    chart_legs: dict[Open, list[ab.AbHom]] = {}
    for v in opens:
        agreements = []
        for i, j in permutations(range(g.n), 2):
            w = v & g.cover[i] & g.cover[j]
            through = ab.compose_hom(g.transition_component(i, j, w), g.sheaves[i].res(v & g.cover[i], w))
            agreements.append((i, j, through, g.sheaves[j].res(v & g.cover[j], w)))
        parts = [g.sheaves[i].group(v & g.cover[i]) for i in range(g.n)]
        section_groups[v], inclusions[v], chart_legs[v] = ab.compatible_subgroup(parts, agreements)
    restrictions: dict[tuple[Open, Open], ab.AbHom] = {}
    for u in opens:
        covers = base.lower_covers[u]
        for c in (u, *covers):
            blocks = [
                ab.compose_hom(g.sheaves[i].res(u & g.cover[i], c & g.cover[i]), chart_legs[u][i])
                for i in range(g.n)
            ]
            fac = ab.factor_through(ab.pairing(section_groups[u], inclusions[c].cod, blocks), inclusions[c])
            if fac is None:
                raise FalsificationError(
                    "limit-sheaf restriction does not preserve compatibility"
                )
            restrictions[(u, c)] = fac
        for v in opens:
            if v < u and (u, v) not in restrictions:
                c = next(c for c in covers if v <= c)
                restrictions[(u, v)] = ab.compose_hom(restrictions[(c, v)], restrictions[(u, c)])
    try:
        carrier = ps.make_presheaf(base, base.full(), section_groups, restrictions)
    except ValidationError as exc:
        raise FalsificationError(f"limit presheaf failed a presheaf law: {exc}") from exc
    legs: dict[IdxObj, ps.EnrichedMorphism] = {}
    for i in range(g.n):
        legs[single(i)] = ps.EnrichedMorphism(carrier, g.sheaves[i], {v: chart_legs[v][i] for v in opens})
    for arrow in index_category(g.n).leg_generators:
        legs[arrow.cod] = ps.compose_enriched(g.gen_image(arrow), legs[arrow.dom])
    return LimitSheaf(carrier, inclusions, legs)


def check_sheaf_cone(apex: ps.Presheaf, legs: dict[IdxObj, ps.EnrichedMorphism], g: SheafGluingData) -> bool:
    """Cone check on the squares of the generators other than ``TauT``: each
    one's image after the leg at its domain is the leg at its codomain.  The
    ``mixed_swap`` relation then gives the ``TauT`` squares, and every
    morphism is a composite of generators, so every morphism commutes."""
    table = index_category(g.n)
    if any(a not in legs for a in table.objects):
        return False
    return all(
        ps.same_enriched(ps.compose_enriched(g.gen_image(arrow), legs[a]), legs[b])
        for a, b, (arrow,) in table.cone_squares[1]
    )


def mediating_into_limit(
    apex: ps.Presheaf, legs: dict[IdxObj, ps.EnrichedMorphism], lim: LimitSheaf, g: SheafGluingData
) -> dict[Open, ab.AbHom] | None:
    """Componentwise comparison into the limit: at every open, the tuple of
    single-chart leg components, factored through the compatible-family
    subgroup.  Returns None when some tuple is incompatible."""
    chart_legs, comps = [legs[single(i)] for i in range(g.n)], {}
    for v in lim.carrier.opens():
        parts = [leg.component(v) for leg in chart_legs]
        fac = ab.factor_through(ab.pairing(apex.group(v), lim.inclusions[v].cod, parts), lim.inclusions[v])
        if fac is None:
            return None
        comps[v] = fac
    return comps


def verify_sheaf_glued(
    candidate: ps.Presheaf,
    legs: dict[IdxObj, ps.EnrichedMorphism],
    g: SheafGluingData,
    lim: LimitSheaf,
) -> dict:
    """Report: is the candidate with its projection family a glued-up
    object, i.e. a cone comparing isomorphically with the limit sheaf."""
    report = {"cone": False, "comparison_exists": False, "comparison_iso": False,
              "projections_commute": False, "verdict": False}
    report["cone"] = check_sheaf_cone(candidate, legs, g)
    if not report["cone"]:
        return report
    comps = mediating_into_limit(candidate, legs, lim, g)
    if comps is None:
        return report
    report["comparison_exists"] = True
    # the carrier passed make_presheaf and factor_through gives homomorphisms;
    # another candidate's laws are unchecked
    checked = candidate.space.lower_covers if candidate is lim.carrier else None
    report["comparison_iso"] = all(ab.is_iso(h) for h in comps.values()) and not ps.naturality_failures(
        candidate.opens(), lambda w: w, comps.__getitem__, candidate.res, lim.carrier.res,
        ab.compose_hom, ab.same_hom, checked,
    )
    commute_ok = all(
        ab.same_hom(ab.compose_hom(lim.legs[a].component(v), comps[v]), legs[a].component(v))
        for a in map(single, range(g.n)) for v in candidate.opens()
    )
    report["projections_commute"] = commute_ok
    report["verdict"] = report["cone"] and report["comparison_iso"] and commute_ok
    return report

