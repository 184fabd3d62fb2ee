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
construction scores cap splits by dim V1 + dim V2 - dim(V1 + V2), keeps the
first best one in profile order and runs the Zassenhaus intersection on that
split alone.  A split's score is at most min(|rows1|, |rows2|), so the splits
are visited by falling bound and the search stops once no bound can reach
the best score; a split whose bound only ties it is scored only if it comes
earlier in profile order.

A split's spanning set is the budget-only one less the monomials whose
expanded exponents exceed its caps, in the same order.  So each group's
monomials are enumerated once, without caps, their union is evaluated once,
into one union matrix E, and each split's rows of E are a mask over each
group's list.  E is reduced once to R with pivot columns P.  Every space
searched lies in rowspace(E), whose RREF pivots are P: a subspace's pivots
are a subset of P, and v -> v[P] is an isomorphism on rowspace(E) that keeps
leading positions.  So each split's bases, ranks, score and the winner's
intersection are computed on the |P| columns E[:, P].  A split's bases are
row-echelon, not reduced: only their lengths and spans are read.  The
intersection alone is reduced, and the winner's projected RREF basis W is
lifted once, as W * R[:|P|], which already is the full-width RREF basis.
So a construction runs Gauss-Jordan twice, on E and on the k-row
intersection tail; every rank stops at row echelon.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
from itertools import product

import numpy as np

from . import gflinalg
from .errors import BudgetTooSmall, EmptyCode, IllegalOrder
from .field import FiniteField
from .groups import ADDITIVE, MULTIPLICATIVE, RecoveryGroup, combine, orbit, scaled_generators
from .tower import GS96, MonomialFunction, TowerSpec, pole_degree


def spanning_set(spec: TowerSpec, group: RecoveryGroup, budget: int) -> tuple[MonomialFunction, ...]:
    """Invariant monomials with pole degree <= budget, sorted by pole degree,
    expanded exponents, g_power and w_power."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    weights = spec.pole_weights()
    m = spec.m
    widx = group.w_index
    r = group.r
    bounds = [budget // wt for wt in weights]
    found: list[MonomialFunction] = []

    if group.kind == ADDITIVE:
        roots = group.shifts
        gdeg = len(roots)
        other = [i for i in range(m) if i != widx]
        for evec in product(*(range(bounds[i] + 1) for i in other)):
            base = sum(weights[i] * e for i, e in zip(other, evec))
            if base > budget:
                continue
            for l in range(max(r, 1)):
                for j in range(0, bounds[widx] + 1):
                    if base + weights[widx] * (gdeg * j + l) > budget:
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
        scaled = scaled_generators(spec.variant, m)
        for tvec in product(*(range(b + 1) for b in bounds)):
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

    return tuple(sorted(
        set(found),
        key=lambda f: (pole_degree(f, spec), f.total_exponents(), f.g_power, f.w_power),
    ))


def evaluation_matrix(functions: Sequence[MonomialFunction], coords: np.ndarray, fld: FiniteField) -> np.ndarray:
    """Row per function, column per row of the (n, m) place array ``coords``,
    in ``fld.dtype``.

    Each generator's powers are tabulated once, by repeated products, up to
    the largest exponent it carries (the w-power folded into the w column),
    and each distinct root set's g(w)^j likewise; a row is the product of its
    gathered table rows.
    """
    exps = np.zeros((len(functions), coords.shape[1]), dtype=np.intp)
    for row, f in zip(exps, functions):
        row[:] = f.exponents
        row[f.w_index] += f.w_power
    out = reduce(fld.vec_mul, (_powers(fld, x, e.max(initial=0))[e] for x, e in zip(coords.T, exps.T)))
    by_roots: dict[tuple, list[int]] = {}
    for i, f in enumerate(functions):
        if f.g_power and f.g_roots:
            by_roots.setdefault((f.g_roots, f.w_index), []).append(i)
    for (roots, w), rows in by_roots.items():
        g = reduce(fld.vec_mul, (fld.vec_sub(coords[:, w], root) for root in roots))
        j = [functions[i].g_power for i in rows]
        out[rows] = fld.vec_mul(out[rows], _powers(fld, g, max(j))[j])
    return out


def _powers(fld: FiniteField, x: np.ndarray, top: int) -> np.ndarray:
    """(top + 1, len(x)) table of x^0, ..., x^top, by repeated products."""
    table = np.ones((top + 1, len(x)), dtype=fld.dtype)
    for e in range(1, top + 1):
        table[e] = fld.vec_mul(table[e - 1], x)
    return table


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d_designed: int
    r1: int
    r2: int


@dataclass(frozen=True)
class CodeDims:
    dim_v1: int
    dim_v2: int
    dim_sum: int
    budget: int
    caps: tuple[int, ...] | None


@dataclass
class LrcCode:
    """Constructed code: generator matrix and recovery layout on the
    places of ``spec``.

    ``params`` is derived, not given: n is the spec's place count, k the
    generator's row count and r1, r2 the groups' localities.  A generator
    without one column per place, ``recovery_sets`` without one entry per
    place, a ``d_designed`` outside [1, n] or a ``dims.budget`` other than
    n - d_designed raises ValueError.
    """

    spec: TowerSpec
    group1: RecoveryGroup
    group2: RecoveryGroup
    generator_matrix: np.ndarray
    recovery_sets: list[tuple[tuple[int, ...], tuple[int, ...]]]
    d_designed: int
    dims: CodeDims
    params: CodeParams = dc_field(init=False)

    def __post_init__(self):
        n, (k, cols) = len(self.spec.places()), self.generator_matrix.shape
        if cols != n:
            raise ValueError(f"params.n = {n} does not match the column count {cols} of generator_matrix")
        if len(self.recovery_sets) != n:
            raise ValueError(f"params.n = {n} does not match the {len(self.recovery_sets)} "
                             "entries of recovery_sets")
        if not 1 <= self.d_designed <= n:
            raise ValueError(f"params.d_designed = {self.d_designed} is not in [1, n] = [1, {n}]")
        if self.dims.budget != n - self.d_designed:
            raise ValueError(f"dims.budget = {self.dims.budget} does not match "
                             f"n - d_designed = {n - self.d_designed}")
        self.params = CodeParams(n, k, self.d_designed, self.group1.r, self.group2.r)

    @property
    def field(self) -> FiniteField:
        return self.spec.field

    @cached_property
    def repair_plan(self):
        """Lagrange repair weights of every (coordinate, set), built on first
        use and kept; see ``repair.RepairPlan``."""
        from .repair import build_repair_plan  # repair imports this module

        return build_repair_plan(self)

    def encode(self, message) -> np.ndarray:
        msg = np.asarray(message, dtype=np.int64).reshape(1, -1)
        if msg.shape[1] != self.params.k:
            raise ValueError(f"message length must be k={self.params.k}")
        return gflinalg.matmul(self.field, msg, self.generator_matrix)[0]


def _cap_profiles(spec: TowerSpec, budget: int) -> list[tuple[int, ...] | None]:
    """Cap splits to try; None means the plain budget-only enumeration."""
    if spec.variant == GS96 and spec.m >= 2:
        beta = budget // spec.pole_weights()[0]
        return [tvec for tvec in product(range(beta + 1), repeat=spec.m) if sum(tvec) == beta]
    return [None]


def _union_rows(spec: TowerSpec, h1: RecoveryGroup, h2: RecoveryGroup, budget: int):
    """Both groups' spanning monomials, evaluated once, and every cap split's
    rows of them.

    Returns (splits, E): E has one row per distinct monomial, H1's first,
    and each split is (caps, (rows1, rows2)), the rows of E that span V1 and
    V2 under those caps: the group's monomials whose expanded exponents are
    all <= caps (every one for caps None), in ``spanning_set`` order.
    """
    spaces = [spanning_set(spec, h, budget) for h in (h1, h2)]
    union = list(dict.fromkeys(spaces[0] + spaces[1]))
    row_of = {f: i for i, f in enumerate(union)}
    indexed = [(np.array([row_of[f] for f in fs], dtype=np.intp),
                np.array([f.total_exponents() for f in fs])) for fs in spaces]
    splits = [
        (caps, tuple(rows if caps is None else rows[(exps <= caps).all(axis=1)] for rows, exps in indexed))
        for caps in _cap_profiles(spec, budget)
    ]
    return splits, evaluation_matrix(union, spec.places(), spec.field)


def _split_bases(fld: FiniteField, projected: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-echelon bases of one split's two spaces and dim(V1 + V2), on E[:, P]."""
    b1, b2 = (gflinalg.echelon(fld, projected[r])[0] for r in rows)
    return b1, b2, gflinalg.rank(fld, np.vstack([b1, b2]))


def construct_lrc(spec: TowerSpec, h1: RecoveryGroup, h2: RecoveryGroup, d_target: int) -> LrcCode:
    """Build the two invariant spaces, intersect their evaluation images and
    assemble the finished code with per-coordinate recovery sets."""
    combine(h1, h2)  # validates the pair: trivial intersection, H2 normalizes H1
    if h1.order < 2 or h2.order < 2:
        raise IllegalOrder("recovery groups must have order >= 2")
    n = len(spec.places())
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
    splits, evals = _union_rows(spec, h1, h2, budget)
    reduced, pivots = gflinalg.rref(fld, evals)
    projected = evals[:, pivots]
    # k <= min(|rows1|, |rows2|); the stable sort keeps profile order among
    # equal bounds, and equal scores go to the lower index
    bounds = [min(len(r) for r in rows) for _, rows in splits]
    best = None
    for i in sorted(range(len(splits)), key=lambda i: -bounds[i]):
        if best is not None:
            if bounds[i] < best[0]:
                break
            if bounds[i] == best[0] and i > best[1]:
                continue
        caps, rows = splits[i]
        b1, b2, dim_sum = _split_bases(fld, projected, rows)
        score = len(b1) + len(b2) - dim_sum
        if best is None or (score, -i) > (best[0], -best[1]):
            best = (score, i, b1, b2, dim_sum, caps, rows)
    k, _, b1, b2, dim_sum, caps, rows = best
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

    # place i's recovery sets: column i of each orbit table, less i itself
    recovery = []
    for i, cols in enumerate(zip(orbit(h1).T.tolist(), orbit(h2).T.tolist())):
        sets = tuple(tuple(x for x in col if x != i) for col in cols)
        if (len(sets[0]), len(sets[1])) != (h1.r, h2.r):
            raise AssertionError("malformed recovery orbit")
        if set(sets[0]) & set(sets[1]):
            raise AssertionError("recovery sets overlap")
        recovery.append(sets)

    dims = CodeDims(dim_v1=len(b1), dim_v2=len(b2), dim_sum=dim_sum, budget=budget, caps=caps)
    return LrcCode(spec=spec, group1=h1, group2=h2, generator_matrix=basis,
                   recovery_sets=recovery, d_designed=d_target, dims=dims)
