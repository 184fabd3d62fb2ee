"""Recovery groups acting on tower places, and their orbits.

y-tower automorphisms are pairs (c, a) with c in GF(l)* and a in the
Artin-Schreier kernel, acting on a place tuple by

    (a_1, ..., a_m)  ->  (c*a_1, ..., c*a_{m-1}, c*a_m + a).

xz-tower automorphisms are pairs (s, a) with s^(l+1) = 1 and a in the
kernel, acting by (a_1, ..., a_m) -> (s*a_1, a_2, ..., a_m + a).

A recovery group is either additive (scalar part trivial, shifts form an
additive subgroup W of the kernel) or multiplicative (shift part trivial,
scalars form a cyclic group).  Orbits of evaluation places under these
groups become the per-coordinate recovery sets of the codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IllegalOrder,
    NontrivialIntersection,
    NotASubgroup,
    UnsupportedDepth,
    VariantMismatch,
)
from .field import FiniteField, artin_schreier_kernel, norm_one_group, subfield_units
from .tower import GS95, GS96, Place, TowerSpec

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class Automorphism:
    """Group element (scalar, shift) for one tower variant."""

    variant: str
    scalar: int
    shift: int
    field: FiniteField

    def is_identity(self) -> bool:
        return self.scalar == 1 and self.shift == 0

    def __repr__(self):
        return f"Aut({self.variant}, c={self.scalar}, a={self.shift})"


def compose(s: Automorphism, t: Automorphism) -> Automorphism:
    """Composition as field maps: (s o t)(z) = s(t(z))."""
    if (s.variant, s.field) != (t.variant, t.field):
        raise VariantMismatch("cannot compose automorphisms of different towers")
    f = s.field
    if s.variant == GS96:
        # t(y_m) = c_t y_m + a_t, then apply s: scalar c_s c_t, shift c_t a_s + a_t
        return Automorphism(GS96, f.mul(s.scalar, t.scalar),
                            f.add(f.mul(t.scalar, s.shift), t.shift), f)
    return Automorphism(GS95, f.mul(s.scalar, t.scalar), f.add(s.shift, t.shift), f)


def inverse(s: Automorphism) -> Automorphism:
    f = s.field
    ci = f.inv(s.scalar)
    if s.variant == GS96:
        return Automorphism(GS96, ci, f.neg(f.mul(ci, s.shift)), f)
    return Automorphism(GS95, ci, f.neg(s.shift), f)


def apply(s: Automorphism, place: Place) -> Place:
    """Image place under the group action (one fixed convention)."""
    spec = place.spec
    if s.variant != spec.variant or s.field != spec.field:
        raise VariantMismatch("automorphism and place live on different towers")
    f = s.field
    co = place.coords
    if s.variant == GS96:
        new = tuple(f.mul(s.scalar, a) for a in co[:-1])
        new = new + (f.add(f.mul(s.scalar, co[-1]), s.shift),)
    else:
        if s.shift and len(co) < 2:
            raise UnsupportedDepth("additive shifts need level m >= 2 on the xz-tower")
        new = (f.mul(s.scalar, co[0]),) + co[1:-1]
        if len(co) > 1:
            new = new + (f.add(co[-1], s.shift),)
    return Place(coords=new, spec=spec, index=spec.place_index(new))


@dataclass(frozen=True)
class RecoveryGroup:
    """Additive or multiplicative subgroup used to carve recovery sets."""

    kind: str
    spec: TowerSpec
    elements: tuple[Automorphism, ...]

    @property
    def w_index(self) -> int:
        """Index of the repair variable w: x_1 under xz-tower scalars, the last generator otherwise."""
        return 0 if self.kind == MULTIPLICATIVE and self.spec.variant == GS95 else self.spec.m - 1

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def r(self) -> int:
        """Locality contributed by this group: orbit size minus one."""
        return self.order - 1

    @property
    def shifts(self) -> tuple[int, ...]:
        return tuple(e.shift for e in self.elements)

    @property
    def scalars(self) -> tuple[int, ...]:
        return tuple(e.scalar for e in self.elements)


def _additive_closure(field: FiniteField, gens) -> list[int]:
    w = {0}
    frontier = set(gens)
    while frontier:
        new = set()
        for a in frontier:
            for b in list(w):
                c = field.add(a, b)
                if c not in w:
                    new.add(c)
            if a not in w:
                new.add(a)
        w |= new
        frontier = new
    return sorted(w)


def build_recovery_group(spec: TowerSpec, kind: str, *, shifts=None, order: int | None = None) -> RecoveryGroup:
    """Build a recovery group for the given tower.

    additive:       ``shifts`` is "kernel" or an iterable of shift codes;
                    the additive closure is taken and checked against the
                    Artin-Schreier kernel.
    multiplicative: ``order`` selects the unique cyclic subgroup of that
                    order inside GF(l)* (y-tower) or the norm-one group
                    (xz-tower).
    """
    f = spec.field
    kernel = set(artin_schreier_kernel(f))
    if kind == ADDITIVE:
        if spec.variant == GS95 and spec.m < 2:
            raise UnsupportedDepth("additive recovery groups need level m >= 2 on the xz-tower")
        if shifts == "kernel":
            w = sorted(kernel)
        else:
            if shifts is None:
                raise ValueError("additive group needs shifts")
            gens = [int(a) for a in shifts]
            bad = [a for a in gens if a not in kernel]
            if bad:
                raise NotASubgroup(f"shift {bad[0]} is outside the additive kernel")
            w = _additive_closure(f, gens)
        elems = tuple(Automorphism(spec.variant, 1, a, f) for a in w)
        return RecoveryGroup(ADDITIVE, spec, elems)
    if kind == MULTIPLICATIVE:
        if order is None or order < 1:
            raise IllegalOrder("multiplicative group needs a positive order")
        if spec.variant == GS96:
            pool = subfield_units(f)
            ambient = f.ell - 1
        else:
            pool = norm_one_group(f)
            ambient = f.ell + 1
        if ambient % order != 0:
            raise IllegalOrder(f"order {order} does not divide {ambient}")
        scal = sorted(c for c in pool if f.pow(c, order) == 1)
        if len(scal) != order:
            raise NotASubgroup("scalar pool does not contain the requested subgroup")
        elems = tuple(Automorphism(spec.variant, c, 0, f) for c in scal)
        return RecoveryGroup(MULTIPLICATIVE, spec, elems)
    raise ValueError(f"unknown recovery-group kind {kind!r}")


@dataclass(frozen=True)
class CombinedGroup:
    """Product group H1*H2 with its structure report."""

    elements: tuple[Automorphism, ...]
    structure: str  # "direct" | "semidirect"

    @property
    def order(self) -> int:
        return len(self.elements)


def combine(h1: RecoveryGroup, h2: RecoveryGroup) -> CombinedGroup:
    """Form G = H1*H2, checking that it is a group of order |H1|*|H2|.

    H1 and H2 are subgroups, as ``build_recovery_group`` builds every
    RecoveryGroup.  One pass over H1 x H2 requires t^-1 s t in H1 for s in
    H1, t in H2.  That alone makes G a group: if H2 normalizes H1, then
    (ab)(a'b') = a (b a' b^-1) (b b') lies in H1*H2.  The pair is direct iff
    every such conjugate is s itself.
    """
    if h1.spec != h2.spec:
        raise VariantMismatch("recovery groups built for different towers")
    s1 = {(e.scalar, e.shift) for e in h1.elements}
    inter = s1 & {(e.scalar, e.shift) for e in h2.elements}
    if inter != {(1, 0)}:
        raise NontrivialIntersection(
            f"groups share {len(inter)} elements; only the identity is allowed"
        )
    products = {}
    direct = True
    for t in h2.elements:
        t_inv = inverse(t)
        for s in h1.elements:
            g = compose(s, t)
            products[(g.scalar, g.shift)] = g
            conj = compose(t_inv, g)  # t^-1 s t
            if (conj.scalar, conj.shift) not in s1:
                raise NotASubgroup("H2 does not normalize H1")
            direct = direct and (conj.scalar, conj.shift) == (s.scalar, s.shift)
    if len(products) != h1.order * h2.order:
        raise NontrivialIntersection("product set is smaller than |H1|*|H2|")
    ordered = tuple(products[k] for k in sorted(products))
    return CombinedGroup(ordered, "direct" if direct else "semidirect")


def orbit(h: RecoveryGroup, place: Place) -> list[Place]:
    """[g(P) for g in H]; always |H| distinct places (the action is free)."""
    out = [apply(g, place) for g in h.elements]
    coords = {p.coords for p in out}
    if len(coords) != len(out):
        raise NotASubgroup("orbit collapsed: action is not free on this place")
    return out


def orbits_disjoint(h1: RecoveryGroup, h2: RecoveryGroup, place: Place) -> bool:
    """True iff the two orbits of ``place`` meet only in ``place`` itself."""
    o1 = {p.coords for p in orbit(h1, place)}
    o2 = {p.coords for p in orbit(h2, place)}
    return o1 & o2 == {place.coords}
