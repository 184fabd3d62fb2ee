"""Evaluation-code construction with two disjoint recovery sets.

For each recovery group H the spanning set collects the monomials that are
H-invariant up to powers of the repair variable w:

* additive H with shift set W: (monomials in the other generators) *
  g(w)^j * w^l, where g is the monic polynomial with root set W and
  0 <= l <= |W| - 2;
* multiplicative H of order u: monomials whose scaled-generator degree sum
  is divisible by u, times w^l with 0 <= l <= u - 2.

Every spanning function obeys a pole-degree budget of n - d_target, so both
spaces sit inside the functions with at most n - d_target zeros and the
intersection code has designed distance d_target.  On the y-tower at level
m >= 2 the generators have poles at different places, so a single budget is
not enough: per-generator degree caps with cap-sum <= budget / l^(m-1) keep
the joint pole divisor of all spanning functions below the budget.  The
construction scores each cap split by dim V1 + dim V2 - dim(V1 + V2), keeps
the first best one and runs the Zassenhaus intersection on that split alone.

The cap splits share most of their monomials, so every distinct spanning
monomial of every split and both groups is evaluated once, into one union
matrix E, and E is reduced once to R with pivot columns P.  Every space
searched lies in rowspace(E), whose RREF pivots are P: a subspace's pivots
are a subset of P, and v -> v[P] is an isomorphism on rowspace(E) that keeps
leading positions.  So each split's bases, ranks, score and the winner's
intersection are computed on the |P| columns E[:, P], and the winner's
projected RREF basis W is lifted once, as W * R[:|P|], which already is the
full-width RREF basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gflinalg
from .errors import BudgetTooSmall, EmptyCode, IllegalOrder
from .field import FiniteField
from .groups import ADDITIVE, MULTIPLICATIVE, RecoveryGroup, combine, orbit
from .tower import GS95, GS96, MonomialFunction, Place, TowerSpec, evaluate_vec, pole_degree


@dataclass(frozen=True)
class FunctionSpace:
    """Spanning monomials for one recovery group under a degree budget."""

    functions: tuple[MonomialFunction, ...]
    budget: int
    group: RecoveryGroup
    caps: tuple[int, ...] | None = None

    @property
    def w_index(self) -> int:
        return self.group.w_index

    def __len__(self):
        return len(self.functions)


def _bounded_tuples(bounds: list[int]) -> list[tuple[int, ...]]:
    out = [()]
    for b in bounds:
        out = [t + (v,) for t in out for v in range(b + 1)]
    return out


def spanning_set(
    spec: TowerSpec,
    group: RecoveryGroup,
    budget: int,
    caps: tuple[int, ...] | None = None,
) -> FunctionSpace:
    """Invariant-monomial spanning set with pole degree <= budget.

    ``caps`` optionally limits the expanded exponent of each generator
    (used by the y-tower construction at m >= 2 to keep the joint pole
    divisor inside the budget).
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    weights = spec.pole_weights()
    m = spec.m
    widx = group.w_index
    r = group.r
    found: list[MonomialFunction] = []

    def gen_cap(i: int) -> int:
        by_budget = budget // weights[i]
        return min(by_budget, caps[i]) if caps is not None else by_budget

    if group.kind == ADDITIVE:
        roots = group.shifts
        gdeg = len(roots)
        w_cap = gen_cap(widx)
        other = [i for i in range(m) if i != widx]
        for evec in _bounded_tuples([gen_cap(i) for i in other]):
            base = sum(weights[i] * e for i, e in zip(other, evec))
            if base > budget:
                continue
            for l in range(max(r, 1)):
                for j in range(0, w_cap + 1):
                    t_w = gdeg * j + l
                    if t_w > w_cap or base + weights[widx] * t_w > budget:
                        break
                    exps = [0] * m
                    for i, e in zip(other, evec):
                        exps[i] = e
                    found.append(
                        MonomialFunction(tuple(exps), widx, w_power=l,
                                         g_roots=roots, g_power=j)
                    )
    elif group.kind == MULTIPLICATIVE:
        u = group.order
        scaled = range(m) if spec.variant == GS96 else (0,)
        for tvec in _bounded_tuples([gen_cap(i) for i in range(m)]):
            if sum(weights[i] * t for i, t in enumerate(tvec)) > budget:
                continue
            s = sum(tvec[i] for i in scaled) % u
            if s > max(u - 2, 0) or tvec[widx] < s:
                continue
            exps = list(tvec)
            exps[widx] -= s
            found.append(MonomialFunction(tuple(exps), widx, w_power=s))
    else:
        raise ValueError(f"unknown group kind {group.kind!r}")

    uniq = sorted(
        set(found),
        key=lambda f: (pole_degree(f, spec), f.total_exponents(), f.g_power, f.w_power),
    )
    return FunctionSpace(tuple(uniq), budget, group, caps)


def evaluation_matrix(space: FunctionSpace | list, places: list[Place], fld: FiniteField | None = None) -> np.ndarray:
    """Row per spanning function, column per place, in ``fld.dtype``."""
    functions = space.functions if isinstance(space, FunctionSpace) else space
    if fld is None:
        fld = places[0].spec.field
    coords = np.array([p.coords for p in places], dtype=np.int64)
    out = np.empty((len(functions), len(places)), dtype=fld.dtype)
    for row, f in zip(out, functions):
        row[:] = evaluate_vec(f, coords, fld)
    return out


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d_designed: int
    r1: int
    r2: int
    q: int
    ell: int
    m: int
    variant: str


@dataclass(frozen=True)
class CodeDims:
    dim_v1: int
    dim_v2: int
    dim_sum: int
    budget: int
    caps: tuple[int, ...] | None


@dataclass
class LrcCode:
    """Constructed code: generator matrix, places and recovery layout."""

    spec: TowerSpec
    group1: RecoveryGroup
    group2: RecoveryGroup
    places: list[Place]
    generator_matrix: np.ndarray
    recovery_sets: list[tuple[tuple[int, ...], tuple[int, ...]]]
    params: CodeParams
    dims: CodeDims

    @property
    def field(self) -> FiniteField:
        return self.spec.field

    def w_values(self, set_choice: int) -> np.ndarray:
        """Repair-variable value of every place, for the chosen set's group."""
        g = self.group1 if set_choice == 1 else self.group2
        return np.array([p.coords[g.w_index] for p in self.places], dtype=np.int64)

    def encode(self, message) -> np.ndarray:
        msg = np.asarray(message, dtype=np.int64).reshape(1, -1)
        if msg.shape[1] != self.params.k:
            raise ValueError(f"message length must be k={self.params.k}")
        return gflinalg.matmul(self.field, msg, self.generator_matrix)[0]


def _cap_profiles(spec: TowerSpec, budget: int) -> list[tuple[int, ...] | None]:
    """Cap splits to try; None means the plain budget-only enumeration."""
    if spec.variant == GS96 and spec.m >= 2:
        beta = budget // spec.pole_weights()[0]
        profiles: list[tuple[int, ...] | None] = []
        for tvec in _bounded_tuples([beta] * spec.m):
            if sum(tvec) == beta:
                profiles.append(tvec)
        return profiles
    return [None]


def _union_rows(spec: TowerSpec, h1: RecoveryGroup, h2: RecoveryGroup, budget: int, places: list[Place]):
    """Every cap split's spanning monomials for both groups, evaluated once.

    Returns (splits, E): E has one row per distinct monomial, in order of
    first appearance, and each split is (caps, (rows1, rows2)), the rows of
    E that span V1 and V2 under those caps.
    """
    splits = [
        (caps, [spanning_set(spec, h, budget, caps).functions for h in (h1, h2)])
        for caps in _cap_profiles(spec, budget)
    ]
    union = list(dict.fromkeys(f for _, spaces in splits for fs in spaces for f in fs))
    row_of = {f: i for i, f in enumerate(union)}
    splits = [(caps, tuple([row_of[f] for f in fs] for fs in spaces)) for caps, spaces in splits]
    return splits, evaluation_matrix(union, places, spec.field)


def _split_bases(fld: FiniteField, projected: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray, int]:
    """RREF bases of one split's two spaces and dim(V1 + V2), on E[:, P]."""
    b1, b2 = (gflinalg.row_basis(fld, projected[r]) for r in rows)
    return b1, b2, gflinalg.rank(fld, np.vstack([b1, b2]))


def construct_lrc(spec: TowerSpec, h1: RecoveryGroup, h2: RecoveryGroup, d_target: int) -> LrcCode:
    """Build the two invariant spaces, intersect their evaluation images and
    assemble the finished code with per-coordinate recovery sets."""
    combine(h1, h2)  # validates the pair: trivial intersection and closure
    if h1.order < 2 or h2.order < 2:
        raise IllegalOrder("recovery groups must have order >= 2")
    places = spec.places()
    n = len(places)
    if not 1 <= d_target <= n:
        raise ValueError(f"d_target must be in [1, {n}]")
    budget = n - d_target
    weights = spec.pole_weights()
    for g in (h1, h2):
        need = (g.r - 1) * weights[g.w_index]
        if budget < need:
            raise BudgetTooSmall(
                f"budget {budget} cannot host w^{g.r - 1} (needs {need})"
            )

    fld = spec.field
    splits, evals = _union_rows(spec, h1, h2, budget, places)
    reduced, pivots = gflinalg.rref(fld, evals)
    projected = evals[:, pivots]
    best = None
    for caps, rows in splits:
        b1, b2, dim_sum = _split_bases(fld, projected, rows)
        score = len(b1) + len(b2) - dim_sum
        if best is None or score > best[0]:
            best = (score, b1, b2, dim_sum, caps, rows)
    k, b1, b2, dim_sum, caps, rows = best
    basis = gflinalg.rowspace_intersection(fld, b1, b2)
    if basis.shape[0] != k:
        raise AssertionError("Zassenhaus intersection disagrees with the rank identity")
    if k == 0:
        raise EmptyCode("the two evaluation spaces only meet in zero")
    basis = gflinalg.matmul(fld, basis, reduced[: len(pivots)])

    # Stacked on a factor space's raw full-width rows, the basis must keep
    # the rank at the projected dimension: so the basis lies in the space,
    # and the projection lost no dimension of it.
    for r, b in zip(rows, (b1, b2)):
        if gflinalg.rank(fld, np.vstack([evals[r], basis])) != len(b):
            raise AssertionError("intersection basis escaped a factor space")

    recovery = []
    for p in places:
        sets = []
        for g in (h1, h2):
            idx = tuple(q.index for q in orbit(g, p) if q.index != p.index)
            if len(idx) != g.r or p.index in idx:
                raise AssertionError("malformed recovery orbit")
            sets.append(idx)
        if set(sets[0]) & set(sets[1]):
            raise AssertionError("recovery sets overlap")
        recovery.append((sets[0], sets[1]))

    params = CodeParams(
        n=n, k=k, d_designed=d_target, r1=h1.r, r2=h2.r,
        q=fld.q, ell=fld.ell, m=spec.m, variant=spec.variant,
    )
    dims = CodeDims(dim_v1=len(b1), dim_v2=len(b2), dim_sum=dim_sum, budget=budget, caps=caps)
    return LrcCode(
        spec=spec, group1=h1, group2=h2, places=places,
        generator_matrix=basis, recovery_sets=recovery, params=params, dims=dims,
    )
