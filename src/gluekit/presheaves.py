"""Presheaves of finitely generated abelian groups on finite spaces.

A presheaf lives on an open ``domain`` of an ambient space and stores one
group per open below the domain together with every restriction hom.  The
sheaf condition is decided through equalizers on one cover per open, its
minimal cover: the canonical map into the compatible-family subgroup must
be an isomorphism.

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
    return sorted(
        (o for o in space.opens if o <= domain), key=lambda o: (len(o), sorted(o))
    )


def make_presheaf(space: FinSpace, domain, sections, restrictions) -> Presheaf:
    """Validated presheaf; the error message names every violated composite."""
    domain = frozenset(domain)
    if domain not in space.opens:
        raise ValidationError("presheaf domain must be an open of the space")
    sections = {frozenset(k): v for k, v in sections.items()}
    restrictions = {(frozenset(u), frozenset(v)): h for (u, v), h in restrictions.items()}
    needed = opens_below(space, domain)
    problems = []
    for o in needed:
        if o not in sections:
            problems.append(f"missing sections over {sorted(o)}")
    if problems:
        raise ValidationError("; ".join(problems))
    for u in needed:
        for v in needed:
            if v <= u:
                h = restrictions.get((u, v))
                if h is None:
                    problems.append(f"missing restriction {sorted(u)} -> {sorted(v)}")
                    continue
                if h.dom != sections[u] or h.cod != sections[v]:
                    problems.append(f"restriction {sorted(u)} -> {sorted(v)} has wrong endpoints")
                elif not ab.is_well_defined(h):
                    problems.append(f"restriction {sorted(u)} -> {sorted(v)} not well-defined")
    if problems:
        raise ValidationError("; ".join(problems))
    f = Presheaf(space, domain, sections, restrictions)
    problems = functoriality_failures(f)
    if problems:
        raise ValidationError("; ".join(problems))
    return f


def functoriality_failures(f: Presheaf) -> list[str]:
    out = []
    opens = f.opens()
    for u in opens:
        if not ab.same_hom(f.res(u, u), ab.id_hom(f.group(u))):
            out.append(f"restriction on {sorted(u)} is not the identity")
    for u in opens:
        for v in opens:
            if not v <= u or v == u:
                continue
            for w in opens:
                if not w <= v or w == v:
                    continue
                lhs = ab.compose_hom(f.res(v, w), f.res(u, v))
                if not ab.same_hom(lhs, f.res(u, w)):
                    out.append(
                        f"composite {sorted(u)} -> {sorted(v)} -> {sorted(w)} disagrees"
                    )
    return out


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
    alpha_W: F(W) -> G(W ∩ V) over the opens W below U."""

    dom: Presheaf
    cod: Presheaf
    alpha: dict[Open, ab.AbHom]

    def component(self, w) -> ab.AbHom:
        return self.alpha[frozenset(w)]


def identity_enriched(f: Presheaf) -> EnrichedMorphism:
    return EnrichedMorphism(f, f, {o: ab.id_hom(f.group(o)) for o in f.opens()})


def check_enriched_morphism(m: EnrichedMorphism) -> tuple[bool, list[dict]]:
    """Exhaustive check of the defining naturality squares."""
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
            continue
        if h.dom != m.dom.group(w) or h.cod != m.cod.group(w & v):
            failures.append({"open": sorted(w), "error": "wrong endpoints"})
    if failures:
        return False, failures
    for w in m.dom.opens():
        for w2 in m.dom.opens():
            if not w2 <= w or w2 == w:
                continue
            lhs = ab.compose_hom(m.cod.res(w & v, w2 & v), m.alpha[w])
            rhs = ab.compose_hom(m.alpha[w2], m.dom.res(w, w2))
            if not ab.same_hom(lhs, rhs):
                failures.append({"square": (sorted(w), sorted(w2))})
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


@dataclass
class NatIso:
    """Per-open isomorphism between presheaves on the same domain."""

    dom: Presheaf
    cod: Presheaf
    components: dict[Open, ab.AbHom]

    def component(self, w) -> ab.AbHom:
        return self.components[frozenset(w)]


def check_nat_iso(iso: NatIso) -> tuple[bool, list[str]]:
    problems = []
    if iso.dom.domain != iso.cod.domain or iso.dom.space != iso.cod.space:
        return False, ["domains differ"]
    for w in iso.dom.opens():
        h = iso.components.get(w)
        if h is None:
            problems.append(f"missing component at {sorted(w)}")
            continue
        if h.dom != iso.dom.group(w) or h.cod != iso.cod.group(w):
            problems.append(f"wrong endpoints at {sorted(w)}")
        elif not ab.is_iso(h):
            problems.append(f"component at {sorted(w)} is not an isomorphism")
    if problems:
        return False, problems
    for w in iso.dom.opens():
        for w2 in iso.dom.opens():
            if not w2 <= w or w2 == w:
                continue
            lhs = ab.compose_hom(iso.cod.res(w, w2), iso.components[w])
            rhs = ab.compose_hom(iso.components[w2], iso.dom.res(w, w2))
            if not ab.same_hom(lhs, rhs):
                problems.append(f"naturality fails for {sorted(w)} -> {sorted(w2)}")
    return not problems, problems


def inverse_nat_iso(iso: NatIso) -> NatIso:
    comps = {}
    for w, h in iso.components.items():
        inv = ab.inverse_hom(h)
        if inv is None:
            raise ValidationError(f"component at {sorted(w)} is not invertible")
        comps[w] = inv
    return NatIso(iso.cod, iso.dom, comps)


def compose_nat_iso(i2: NatIso, i1: NatIso) -> NatIso:
    return NatIso(
        i1.dom,
        i2.cod,
        {w: ab.compose_hom(i2.components[w], i1.components[w]) for w in i1.components},
    )
