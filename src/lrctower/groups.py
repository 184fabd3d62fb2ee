"""Recovery groups acting on tower places, and their orbit tables.

y-tower automorphisms are pairs (c, a) with c in GF(l)* and a in the
Artin-Schreier kernel, acting on a place tuple by

    (a_1, ..., a_m)  ->  (c*a_1, ..., c*a_{m-1}, c*a_m + a).

xz-tower automorphisms are pairs (s, a) with s^(l+1) = 1 and a in the
kernel, acting by (a_1, ..., a_m) -> (s*a_1, a_2, ..., a_m + a).

A recovery group is either additive (scalar part trivial, shifts form an
additive subgroup W of the kernel) or multiplicative (shift part trivial,
scalars form a cyclic group).  ``orbit`` acts with a whole group on the
coordinate array of the places at once; each column of its table is one
place's orbit, and becomes that coordinate's recovery set.  The table is
built once per group, on first use, and kept on it read-only.  The action
is stated there alone: ``combine`` checks a pair on its two orbit tables,
where each element is known by its image of place 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IllegalOrder,
    NontrivialIntersection,
    NotASubgroup,
    UnsupportedDepth,
    VariantMismatch,
)
from .field import FiniteField, artin_schreier_kernel, norm_one_group, subfield_units
from .tower import GS95, GS96, TowerSpec, place_keys

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


def scaled_generators(variant: str, m: int) -> range:
    """The generators a scalar multiplies: every y_i on the y-tower, only
    x_1 on the xz-tower."""
    return range(m) if variant == GS96 else range(1)


@dataclass(frozen=True)
class RecoveryGroup:
    """Additive or multiplicative subgroup used to carve recovery sets."""

    kind: str
    spec: TowerSpec
    scalars: tuple[int, ...]  # element e is (scalars[e], shifts[e])
    shifts: tuple[int, ...]

    def __post_init__(self):
        if len(self.scalars) != len(self.shifts):
            raise NotASubgroup(f"scalars has {len(self.scalars)} entries and shifts has {len(self.shifts)}; "
                               "element e is (scalars[e], shifts[e])")

    @property
    def w_index(self) -> int:
        """Index of the repair variable w: the last generator the group moves."""
        scaled = scaled_generators(self.spec.variant, self.spec.m)
        return scaled[-1] if self.kind == MULTIPLICATIVE else self.spec.m - 1

    @property
    def order(self) -> int:
        return len(self.scalars)

    @property
    def r(self) -> int:
        """Locality contributed by this group: orbit size minus one."""
        return self.order - 1

    @cached_property
    def _orbits(self) -> np.ndarray:
        table = _orbit_table(self)
        table.flags.writeable = False
        return table


def _additive_closure(field: FiniteField, gens) -> list[int]:
    w = {0}
    for a in gens:  # w + {0, a, 2a, ...}: add a until nothing new appears
        while (step := {field.add(a, b) for b in w}) - w:
            w |= step
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
    if kind == ADDITIVE:
        if spec.variant == GS95 and spec.m < 2:
            raise UnsupportedDepth("additive recovery groups need level m >= 2 on the xz-tower")
        kernel = set(artin_schreier_kernel(f))
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
        return RecoveryGroup(ADDITIVE, spec, (1,) * len(w), tuple(w))
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
        return RecoveryGroup(MULTIPLICATIVE, spec, tuple(scal), (0,) * order)
    raise ValueError(f"unknown recovery-group kind {kind!r}")


def combine(h1: RecoveryGroup, h2: RecoveryGroup) -> str:
    """Check that G = H1*H2 is a group of order |H1|*|H2|; return "direct" or "semidirect".

    Every automorphism but the identity moves every place (c != 1 scales a
    nonzero first coordinate; c = 1, a != 0 shifts the last), so an element
    is known by its image of place 0, read off the orbit tables.  H1 and H2
    are subgroups, as ``build_recovery_group`` builds every RecoveryGroup;
    meeting only in the identity, they give |H1|*|H2| distinct products.
    Each conjugate t^-1 s t (s in H1, t in H2; composed as field maps, so
    it sends place 0 to t(s(t^-1(0))) on the coordinates) must lie in H1.  That makes G a group: if H2 normalizes H1, then
    (ab)(a'b') = a (b a' b^-1) (b b') lies in H1*H2.  The pair is direct
    iff every such conjugate is s itself.
    """
    if h1.spec != h2.spec:
        raise VariantMismatch("recovery groups built for different towers")
    t1, t2 = orbit(h1), orbit(h2)
    inter = set(t1[:, 0].tolist()) & set(t2[:, 0].tolist())
    if inter != {0}:
        raise NontrivialIntersection(f"groups share {len(inter)} elements; only the identity is allowed")
    pre = (t2 == 0).argmax(axis=1)  # t^-1(0) for each t in H2
    conj = t2[np.arange(h2.order), t1[:, pre]]  # [s, t]: t(s(t^-1(0)))
    if not np.isin(conj, t1[:, 0]).all():
        raise NotASubgroup("H2 does not normalize H1")
    return "direct" if (conj == t1[:, :1]).all() else "semidirect"


def orbit(h: RecoveryGroup) -> np.ndarray:
    """Read-only table (|H|, n) of H on the canonical places: [e, j] indexes
    the e-th element's image of place j, so column j is place j's orbit.
    Built on first use and kept on ``h``."""
    return h._orbits


def _orbit_table(h: RecoveryGroup) -> np.ndarray:
    """The action of ``h`` on the places, as ``orbit`` returns it.

    Image rows are found by their base-q keys, which sort like the places.
    An image off the tower or a collapsed orbit (the action is not free)
    raises NotASubgroup naming the elements."""
    spec = h.spec
    f = spec.field
    coords = spec.places()
    keys = place_keys(f.q, coords)
    scaled = list(scaled_generators(spec.variant, spec.m))
    images = np.repeat(coords[None], h.order, axis=0)
    images[:, :, scaled] = f.vec_mul(np.array(h.scalars)[:, None, None], images[:, :, scaled])
    images[:, :, -1] = f.vec_add(images[:, :, -1], np.array(h.shifts)[:, None])
    image_keys = place_keys(f.q, images)
    table = np.searchsorted(keys, image_keys).clip(max=len(coords) - 1)
    off = keys[table] != image_keys
    if off.any():
        e, j = np.argwhere(off)[0]
        raise NotASubgroup(f"Aut({spec.variant}, c={h.scalars[e]}, a={h.shifts[e]}) maps place "
                           f"{tuple(coords[j].tolist())} off the tower")
    ranked = np.sort(table, axis=0)
    repeats = np.argwhere(ranked[1:] == ranked[:-1])
    if len(repeats):
        i, j = repeats[0]
        a, b = np.flatnonzero(table[:, j] == ranked[i, j])[:2]
        raise NotASubgroup(f"orbit of place {tuple(coords[j].tolist())} collapsed: "
                           f"Aut({spec.variant}, c={h.scalars[a]}, a={h.shifts[a]}) and "
                           f"Aut({spec.variant}, c={h.scalars[b]}, a={h.shifts[b]}) map it to the same place")
    return table
