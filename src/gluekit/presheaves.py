"""Presheaves of finitely generated abelian groups on finite spaces.

A presheaf lives on an open ``domain`` of an ambient space and stores one
group per open below the domain together with every restriction hom.  The
presheaf laws are checked in one place, ``presheaf_law_failures``, and the
naturality squares of a morphism in another, ``naturality_failures``; both
take the section operations as arguments, so ``make_presheaf`` and
``check_enriched_morphism`` pass the group ones and ``ringedglue`` the
ring ones.  ``EnrichedMorphism`` is the one morphism type: a natural
transformation on one domain is the case whose open part is the identity.
The sheaf condition is decided through equalizers on one cover per open,
its minimal cover: the canonical map into the compatible-family subgroup
must be an isomorphism.

Convention: sections over the empty set form the trivial group.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import abgroups as ab
from .errors import ValidationError
from .fintop import FinSpace, Open, components_of_open, minimal_cover

RestrKey = tuple[Open, Open]


@dataclass
class Presheaf:
    space: FinSpace
    domain: Open
    sections: dict[Open, ab.FgAbGroup]
    restrictions: dict[RestrKey, ab.AbHom]

    def opens(self) -> list[Open]:
        return opens_below(self.space, self.domain)

    def group(self, v) -> ab.FgAbGroup:
        return self.sections[frozenset(v)]

    def res(self, u, v) -> ab.AbHom:
        return self.restrictions[(frozenset(u), frozenset(v))]


def opens_below(space: FinSpace, domain: Open) -> list[Open]:
    domain = frozenset(domain)
    return [o for o in space.sorted_opens if o <= domain]


def presheaf_law_failures(opens, sections, restrictions, is_hom, compose, same, identity) -> list[str]:
    """The presheaf laws over ``opens``, for any kind of sections: ``is_hom``
    tells a homomorphism, ``compose(f, g)`` is f after g, ``same`` compares
    homs and ``identity`` gives the identity on a section object.

    The laws are checked in stages, each only when the one before holds:
    sections present; restrictions present, typed and homomorphisms; the
    identity on each open and every composite.  The failures of the first
    failing stage are returned, in the order of ``opens``.
    """
    problems = [f"missing sections over {sorted(o)}" for o in opens if o not in sections]
    if problems:
        return problems
    for u in opens:
        for v in opens:
            if not v <= u:
                continue
            h = restrictions.get((u, v))
            if h is None:
                problems.append(f"missing restriction {sorted(u)} -> {sorted(v)}")
            elif h.dom != sections[u] or h.cod != sections[v]:
                problems.append(f"restriction {sorted(u)} -> {sorted(v)} has wrong endpoints")
            elif not is_hom(h):
                problems.append(f"restriction {sorted(u)} -> {sorted(v)} is not a homomorphism")
    if problems:
        return problems
    for u in opens:
        if not same(restrictions[(u, u)], identity(sections[u])):
            problems.append(f"restriction on {sorted(u)} is not the identity")
    for u in opens:
        for v in opens:
            if not v < u:
                continue
            for w in opens:
                if not w < v:
                    continue
                composite = compose(restrictions[(v, w)], restrictions[(u, v)])
                if not same(composite, restrictions[(u, w)]):
                    problems.append(f"composite {sorted(u)} -> {sorted(v)} -> {sorted(w)} disagrees")
    return problems


def naturality_failures(opens, image, component, dom_res, cod_res, compose, same) -> list[tuple[Open, Open]]:
    """The naturality squares over ``opens`` that fail, for any kind of
    sections.  ``component(w)`` runs from the domain's sections over w to
    the codomain's over ``image(w)``; the square of v below u commutes when
    ``cod_res(image(u), image(v))`` after ``component(u)`` equals
    ``component(v)`` after ``dom_res(u, v)``.  ``compose(f, g)`` is f after
    g and ``same`` compares homs, as in ``presheaf_law_failures``.

    Returns the failing squares (u, v) with v < u, in the order of
    ``opens``.  The square with v = u is not checked: both of its
    restrictions are identities by the identity law, which both ends
    already satisfy, so it commutes.
    """
    images = {w: image(w) for w in opens}
    failures = []
    for u in opens:
        for v in opens:
            if v < u and not same(
                compose(cod_res(images[u], images[v]), component(u)), compose(component(v), dom_res(u, v))
            ):
                failures.append((u, v))
    return failures


def make_presheaf(space: FinSpace, domain, sections, restrictions) -> Presheaf:
    """Validated presheaf; the error message names every violated law of
    the first failing stage of ``presheaf_law_failures``."""
    domain = frozenset(domain)
    if domain not in space.opens:
        raise ValidationError("presheaf domain must be an open of the space")
    sections = {frozenset(k): v for k, v in sections.items()}
    restrictions = {(frozenset(u), frozenset(v)): h for (u, v), h in restrictions.items()}
    problems = presheaf_law_failures(
        opens_below(space, domain), sections, restrictions,
        ab.is_well_defined, ab.compose_hom, ab.same_hom, ab.id_hom,
    )
    if problems:
        raise ValidationError("; ".join(problems))
    return Presheaf(space, domain, sections, restrictions)


def restrict_presheaf(f: Presheaf, u) -> Presheaf:
    """Reindex the presheaf to the opens below u."""
    u = frozenset(u)
    if u not in f.space.opens or not u <= f.domain:
        raise ValidationError("can only restrict to an open below the domain")
    opens = opens_below(f.space, u)
    sections = {o: f.sections[o] for o in opens}
    restrictions = {
        (a, b): f.restrictions[(a, b)] for a in opens for b in opens if b <= a
    }
    return Presheaf(f.space, u, sections, restrictions)


def _stack_homs(parts: list[ab.AbHom], dom: ab.FgAbGroup, cod_product: ab.FgAbGroup) -> ab.AbHom:
    """The hom into a product whose components are ``parts``."""
    rows: list[tuple[int, ...]] = []
    for h in parts:
        rows.extend(h.matrix if h.cod.ambient else ())
    return ab.AbHom(dom, cod_product, tuple(rows) if cod_product.ambient else ())


def sheaf_condition_on_cover(f: Presheaf, v: Open, cover) -> tuple[bool, bool]:
    """(identity axiom, gluing axiom) for one open and one cover of it."""
    cover = [frozenset(c) for c in cover]
    p_prod, proj, _ = ab.product([f.group(c) for c in cover])
    r = _stack_homs([f.res(v, c) for c in cover], f.group(v), p_prod)
    n = len(cover)
    pairs = [(a, b, cover[a] & cover[b]) for a in range(n) for b in range(a + 1, n)]
    d_prod, _, _ = ab.product([f.group(inter) for _, _, inter in pairs])
    first_parts = [ab.compose_hom(f.res(cover[a], inter), proj[a]) for a, _, inter in pairs]
    second_parts = [ab.compose_hom(f.res(cover[b], inter), proj[b]) for _, b, inter in pairs]
    p_hom = _stack_homs(first_parts, p_prod, d_prod)
    q_hom = _stack_homs(second_parts, p_prod, d_prod)
    eq_group, incl = ab.equalizer(p_hom, q_hom)
    factored = ab.factor_through(r, incl)
    if factored is None:
        return (ab.is_injective(r), False)
    return (ab.is_injective(factored), ab.is_surjective(factored))


def is_sheaf(f: Presheaf) -> tuple[bool, dict | None]:
    """Decide the sheaf axioms on the minimal cover of each open
    (``fintop.minimal_cover``), smallest opens first.

    Returns (verdict, certificate).  The certificate names the failing open,
    axiom and cover, or reports a nontrivial group of sections over the
    empty set as a distinct diagnostic.
    """
    empty = frozenset()
    if empty in f.sections and not ab.is_trivial(f.sections[empty]):
        return False, {"axiom": "empty_sections", "open": []}
    for v in f.opens():
        cover = minimal_cover(f.space, v)
        if len(cover) < 2:
            continue
        ident, glue = sheaf_condition_on_cover(f, v, cover)
        if not (ident and glue):
            axiom = "gluing" if ident else "identity"
            return False, {"axiom": axiom, "open": sorted(v), "cover": [sorted(c) for c in cover]}
    return True, None


def locally_constant_sheaf(space: FinSpace, domain, group: ab.FgAbGroup) -> Presheaf:
    """Sections over V are one copy of the group per connected component."""
    domain = frozenset(domain)
    opens = opens_below(space, domain)
    comps = {o: components_of_open(space, o) for o in opens}
    sections = {}
    for o in opens:
        prod, _, _ = ab.product([group] * len(comps[o]))
        sections[o] = prod
    restrictions = {}
    g_amb = group.ambient
    for u in opens:
        for v in opens:
            if not v <= u:
                continue
            rows = []
            for cv in comps[v]:
                parent = next(k for k, cu in enumerate(comps[u]) if cv <= cu)
                for i in range(g_amb):
                    row = [0] * sections[u].ambient
                    row[parent * g_amb + i] = 1
                    rows.append(tuple(row))
            restrictions[(u, v)] = ab.AbHom(
                sections[u], sections[v], tuple(rows) if rows else ()
            )
    return make_presheaf(space, domain, sections, restrictions)


@dataclass
class EnrichedMorphism:
    """Morphism (U, F) -> (V, G) with V below U: an open part and a family
    alpha_W: F(W) -> G(W ∩ V) over the opens W below U.  With V = U the open
    part is the identity and the family is a natural transformation."""

    dom: Presheaf
    cod: Presheaf
    alpha: dict[Open, ab.AbHom]

    def component(self, w) -> ab.AbHom:
        return self.alpha[frozenset(w)]


def identity_enriched(f: Presheaf) -> EnrichedMorphism:
    return EnrichedMorphism(f, f, {o: ab.id_hom(f.group(o)) for o in f.opens()})


def check_enriched_morphism(m: EnrichedMorphism) -> tuple[bool, list[dict]]:
    """Exhaustive check of the components' endpoints, then of the
    naturality squares (``naturality_failures``)."""
    failures = []
    u, v = m.dom.domain, m.cod.domain
    if not v <= u:
        return False, [{"error": "codomain open not below domain open"}]
    if m.dom.space != m.cod.space:
        return False, [{"error": "mismatched ambient space"}]
    for w in m.dom.opens():
        h = m.alpha.get(w)
        if h is None:
            failures.append({"open": sorted(w), "error": "missing component"})
        elif h.dom != m.dom.group(w) or h.cod != m.cod.group(w & v):
            failures.append({"open": sorted(w), "error": "wrong endpoints"})
    if failures:
        return False, failures
    squares = naturality_failures(
        m.dom.opens(), lambda w: w & v, m.alpha.__getitem__, m.dom.res, m.cod.res, ab.compose_hom, ab.same_hom
    )
    failures = [{"square": (sorted(w), sorted(w2))} for w, w2 in squares]
    return not failures, failures


def compose_enriched(m2: EnrichedMorphism, m1: EnrichedMorphism) -> EnrichedMorphism:
    """m2 after m1; open parts compose by intersection."""
    if m1.cod is not m2.dom and (
        m1.cod.domain != m2.dom.domain or m1.cod.space != m2.dom.space
    ):
        raise ValidationError("compose_enriched: endpoint mismatch")
    v = m1.cod.domain
    alpha = {}
    for w in m1.dom.opens():
        alpha[w] = ab.compose_hom(m2.alpha[w & v], m1.alpha[w])
    return EnrichedMorphism(m1.dom, m2.cod, alpha)


def same_enriched(m1: EnrichedMorphism, m2: EnrichedMorphism) -> bool:
    if m1.dom.domain != m2.dom.domain or m1.cod.domain != m2.cod.domain:
        return False
    return all(ab.same_hom(m1.alpha[w], m2.alpha[w]) for w in m1.dom.opens())

