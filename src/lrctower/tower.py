"""Rational places of the two recursive tower families at small depth.

Two variants over GF(q), q = l^2:

* ``gs96`` -- the y-tower: T_1 = GF(q)(y_1) and, for each new level,
  y_m^l + y_m = y_{m-1}^l / (y_{m-1}^{l-1} + 1).  Supported to depth 3.
* ``gs95`` -- the xz-tower: T_1 = GF(q)(x_1) and z_2^l + z_2 = x_1^{l+1}.
  Supported to depth 2, where it is the Hermitian function field.

A completely-splitting rational place is identified with its coordinates
(a_1, ..., a_m), one row of the spec's place array.  The y-tower places are
the rows whose first coordinate avoids the Artin-Schreier kernel and which
satisfy the recursion level by level; the xz-tower places need only a
nonzero first coordinate.  Only ``_enumerate`` evaluates the recursion;
``check_place`` looks a tuple's prefixes up in the enumeration by their
base-q keys (``place_keys``, which ``groups.orbit`` also uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnsupportedDepth, VariantMismatch
from .field import FiniteField

GS96 = "gs96"
GS95 = "gs95"

_DEPTH_CAP = {GS96: 3, GS95: 2}


@dataclass(frozen=True)
class TowerSpec:
    """Tower variant, base field GF(l^2) and level m; the places are
    enumerated once per spec, on first use."""

    variant: str
    field: FiniteField
    m: int

    def __post_init__(self):
        if self.variant not in _DEPTH_CAP:
            raise VariantMismatch(f"unknown tower variant {self.variant!r}")
        self.field.require_square()
        if not 1 <= self.m <= _DEPTH_CAP[self.variant]:
            raise UnsupportedDepth(
                f"{self.variant} supports 1 <= m <= {_DEPTH_CAP[self.variant]}, got {self.m}"
            )

    @property
    def ell(self) -> int:
        return self.field.ell

    @property
    def q(self) -> int:
        return self.field.q

    def pole_weights(self) -> tuple[int, ...]:
        """Pole-divisor degree of each generator as a function on the tower."""
        if self.variant == GS96:
            return (self.ell ** (self.m - 1),) * self.m
        if self.m == 1:
            return (1,)
        return (self.ell, self.ell + 1)

    def places(self) -> np.ndarray:
        """All completely-splitting places as one read-only (n, m) int64
        array of coordinates, rows in canonical (lexicographic) order.

        Counts: (q - l) * l^(m-1) for the y-tower, (q - 1) * l^(m-1) for the
        xz-tower.
        """
        return self._places

    @cached_property
    def _places(self) -> np.ndarray:
        places = _enumerate(self)
        places.flags.writeable = False
        return places


def _gs96_rhs(field: FiniteField, alpha):
    """y^l / (y^(l-1) + 1) at alpha, elementwise; defined off the kernel."""
    ell = field.ell
    den = field.vec_add(field.vec_pow(alpha, ell - 1), 1)
    return field.vec_mul(field.vec_pow(alpha, ell), field.vec_inv(den))


def _enumerate(spec: TowerSpec) -> np.ndarray:
    """The places level by level: each row extended by the l sorted roots of
    x^l + x = beta, read from a (q, l) table of every trace fibre."""
    f = spec.field
    codes = np.arange(f.q)
    trace = f.vec_add(f.vec_pow(codes, f.ell), codes)  # the trace onto GF(l)
    by_trace = np.argsort(trace, kind="stable").reshape(-1, f.ell)  # each fibre has l elements
    roots = np.full((f.q, f.ell), -1, dtype=np.int64)
    roots[trace[by_trace[:, 0]]] = by_trace
    level1 = codes[trace != 0] if spec.variant == GS96 else codes[1:]
    places = level1[:, None]
    for _ in range(1, spec.m):
        beta = _gs96_rhs(f, places[:, -1]) if spec.variant == GS96 else f.vec_pow(places[:, 0], f.ell + 1)
        nxt = roots[beta]
        if (nxt < 0).any():
            raise AssertionError("recursion target left the trace image")
        places = np.column_stack([np.repeat(places, f.ell, axis=0), nxt.ravel()])
    return places


def place_keys(q: int, rows) -> np.ndarray:
    """Base-q key of each coordinate row (the last axis), first coordinate
    most significant, so keys sort like the rows."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ q ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


def check_place(spec: TowerSpec, coords) -> tuple[bool, str]:
    """Membership test for a coordinate tuple, with a diagnostic string.

    The tuple's prefix at each level i is looked up by key among the
    i-column prefixes of ``spec.places()``; the first level whose prefix is
    absent names the failure."""
    q = spec.q
    coords = tuple(int(c) for c in coords)
    if len(coords) != spec.m:
        return False, f"expected {spec.m} coordinates, got {len(coords)}"
    for i, v in enumerate(coords):
        if not 0 <= v < q:
            return False, f"coordinate {i + 1} = {v} is outside [0, {q})"
    for i in range(1, spec.m + 1):
        if place_keys(q, coords[:i]) not in place_keys(q, spec.places()[:, :i]):
            if i == 1:
                return False, ("coordinate 1 lies in the additive kernel" if spec.variant == GS96
                               else "first coordinate is zero")
            return False, f"level {i} recursion equation fails"
    return True, "ok"


def genus(spec: TowerSpec) -> int:
    """Genus of the level-m function field."""
    ell, m = spec.ell, spec.m
    if spec.variant == GS95:
        return 0 if m == 1 else ell * (ell - 1) // 2
    if m % 2 == 0:
        return (ell ** (m // 2) - 1) ** 2
    return (ell ** ((m + 1) // 2) - 1) * (ell ** ((m - 1) // 2) - 1)
