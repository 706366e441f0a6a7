"""Finite commutative rings with unity as explicit operation tables.

Ring axioms, unit groups, locality and homomorphism conditions are decided
exactly on the tables.  The laws that quantify over triples, and the
homomorphism conditions, are decided on the additive generators
(``FinCommRing.additive_generators``), because each law holds on a set
that is closed under +:

- associativity of +: the elements g with (x+y)+g = x+(y+g) for all x, y
  (Light's argument);
- distributivity: the elements g with a·(b+g) = a·b + a·g for all a, b,
  once + is associative;
- associativity of ·: the elements g with (a·b)·g = a·(b·g) for all a, b,
  once · distributes;
- a map of rings f: the elements g with f(g+b) = f(g)+f(b) for all b, and
  then, f being additive, those with f(g·b) = f(g)·f(b).

Zero is a sum of generators in a finite group, so those sets are
everything.  ``make_ring`` thus costs O(q²·|G|) and ``is_ring_hom``
O(q·|G|), with |G| ≤ log₂ q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

from .errors import ValidationError

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FinCommRing:
    add: Table
    mul: Table
    zero: int
    one: int

    @property
    def order(self) -> int:
        return len(self.add)

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def additive_generators(self) -> tuple[int, ...]:
        """Elements whose right-appended sums (((g1+g2)+g3)+...) reach every
        element, in O(q·|G|): the span of {zero} grows by right-adding
        generators, and each element it has not reached becomes the next
        one.  Sound for any table with identity zero, before associativity
        is known.  Zero is a generator only of the zero ring, which has no
        nonempty sum of other elements."""
        add = self.add
        reached = [False] * self.order
        reached[self.zero] = True
        span = [self.zero]
        gens: list[int] = []
        for a in self.elements():
            if reached[a]:
                continue
            gens.append(a)
            # the old span is closed under the old generators, so it needs
            # only the new one; the elements it reaches need every generator
            fresh = []
            for s in span:
                t = add[s][a]
                if not reached[t]:
                    reached[t] = True
                    fresh.append(t)
            for s in fresh:
                for g in gens:
                    t = add[s][g]
                    if not reached[t]:
                        reached[t] = True
                        fresh.append(t)
            span += fresh
        return tuple(gens) or (self.zero,)

    def __repr__(self):
        return f"FinCommRing(order={self.order})"


def make_ring(add, mul, one: int, zero: int | None = None) -> FinCommRing:
    """Validated commutative ring with unity; errors carry a witness."""
    add = tuple(tuple(int(x) for x in row) for row in add)
    mul = tuple(tuple(int(x) for x in row) for row in mul)
    q = len(add)
    if q == 0:
        raise ValidationError("a ring needs at least one element")
    for name, tab in (("add", add), ("mul", mul)):
        if len(tab) != q or any(len(r) != q for r in tab):
            raise ValidationError(f"{name} table is not {q}x{q}")
        for row in tab:
            for x in row:
                if not 0 <= x < q:
                    raise ValidationError(f"{name} table entry {x} out of range")
    for name, x in (("one", one), ("zero", zero)):
        if x is not None and not 0 <= x < q:
            raise ValidationError(f"{name} {x} out of range for {q} elements")
    if zero is None:
        candidates = [z for z in range(q) if all(add[z][a] == a for a in range(q))]
        if len(candidates) != 1:
            raise ValidationError("no unique additive identity")
        zero = candidates[0]
    for a in range(q):
        for b in range(q):
            if add[a][b] != add[b][a]:
                raise ValidationError(f"addition not commutative at ({a},{b})")
            if mul[a][b] != mul[b][a]:
                raise ValidationError(f"multiplication not commutative at ({a},{b})")
    for a in range(q):
        if add[zero][a] != a:
            raise ValidationError(f"additive identity fails at {a}")
        if mul[one][a] != a:
            raise ValidationError(f"unity fails at {a}")
        if not any(add[a][b] == zero for b in range(q)):
            raise ValidationError(f"element {a} has no additive inverse")
    ring = FinCommRing(add, mul, zero, one)
    gens = ring.additive_generators
    for a in range(q):
        add_a, mul_a = add[a], mul[a]
        for b in range(q):
            add_ab, add_b, mul_b = add[add_a[b]], add[b], mul[b]
            add_mab, mul_mab = add[mul_a[b]], mul[mul_a[b]]
            for g in gens:
                if add_ab[g] != add_a[add_b[g]]:
                    raise ValidationError(f"addition not associative at ({a},{b},{g})")
                if mul_a[add_b[g]] != add_mab[mul_a[g]]:
                    raise ValidationError(f"distributivity fails at ({a},{b},{g})")
                if mul_mab[g] != mul_a[mul_b[g]]:
                    raise ValidationError(f"multiplication not associative at ({a},{b},{g})")
    return ring


def zmod(n: int) -> FinCommRing:
    if n < 1:
        raise ValidationError("modulus must be positive")
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
    return FinCommRing(add, mul, 0, 1 % n)


def product_ring(rings) -> tuple[FinCommRing, list[list[int]]]:
    """Componentwise product; returns the ring and, per factor, the
    projection table element -> factor element."""
    rings = list(rings)
    tuples = list(iproduct(*(r.elements() for r in rings))) if rings else [()]
    index = {t: k for k, t in enumerate(tuples)}
    q = len(tuples)
    add = tuple(
        tuple(
            index[tuple(r.add[a[k]][b[k]] for k, r in enumerate(rings))]
            for b in tuples
        )
        for a in tuples
    )
    mul = tuple(
        tuple(
            index[tuple(r.mul[a[k]][b[k]] for k, r in enumerate(rings))]
            for b in tuples
        )
        for a in tuples
    )
    zero = index[tuple(r.zero for r in rings)]
    one = index[tuple(r.one for r in rings)]
    ring = FinCommRing(add, mul, zero, one)
    projections = [[tuples[e][k] for e in range(q)] for k in range(len(rings))]
    return ring, projections


def units(ring: FinCommRing) -> set[int]:
    return {a for a in ring.elements() if ring.one in ring.mul[a]}


def is_local_ring(ring: FinCommRing) -> bool:
    """Local iff the non-units are closed under addition (they always absorb
    multiplication in a finite commutative ring); the zero ring is not
    local."""
    if ring.order == 1:
        return False
    unit_set = units(ring)
    non_units = [a for a in ring.elements() if a not in unit_set]
    return all(ring.add[a][b] not in unit_set for a in non_units for b in non_units)


@dataclass(frozen=True)
class RingHom:
    dom: FinCommRing
    cod: FinCommRing
    assign: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.assign[a]


def make_ring_hom(dom: FinCommRing, cod: FinCommRing, assign) -> RingHom:
    assign = tuple(int(x) for x in assign)
    if len(assign) != dom.order:
        raise ValidationError("assignment must be total")
    h = RingHom(dom, cod, assign)
    if not is_ring_hom(h):
        raise ValidationError("not a unital ring homomorphism")
    return h


def is_ring_hom(h: RingHom) -> bool:
    """Unital, additive and multiplicative, decided on the additive
    generators of the domain; both ends must be rings."""
    d, c, f = h.dom, h.cod, h.assign
    if f[d.one] != c.one:
        return False
    for g in d.additive_generators:
        add_g, mul_g = d.add[g], d.mul[g]
        add_fg, mul_fg = c.add[f[g]], c.mul[f[g]]
        for b in d.elements():
            if f[add_g[b]] != add_fg[f[b]] or f[mul_g[b]] != mul_fg[f[b]]:
                return False
    return True


def identity_ring_hom(ring: FinCommRing) -> RingHom:
    return RingHom(ring, ring, tuple(ring.elements()))


def compose_ring_hom(f: RingHom, g: RingHom) -> RingHom:
    """f after g."""
    if g.cod != f.dom:
        raise ValidationError("compose_ring_hom: endpoint mismatch")
    return RingHom(g.dom, f.cod, tuple(map(f.assign.__getitem__, g.assign)))


def is_ring_iso(h: RingHom) -> bool:
    return len(set(h.assign)) == h.dom.order == h.cod.order and is_ring_hom(h)


def is_local_hom(h: RingHom) -> bool:
    """Non-units land on non-units."""
    dom_units = units(h.dom)
    cod_units = units(h.cod)
    return all(h.assign[a] not in cod_units for a in h.dom.elements() if a not in dom_units)


def ring_to_json(ring: FinCommRing) -> dict:
    return {
        "order": ring.order,
        "add": [list(r) for r in ring.add],
        "mul": [list(r) for r in ring.mul],
        "one": ring.one,
        "zero": ring.zero,
    }


def ring_from_json(doc: dict) -> FinCommRing:
    return make_ring(doc["add"], doc["mul"], int(doc["one"]), doc.get("zero"))
