"""Evaluation-code construction with two disjoint recovery sets.

For each recovery group H the spanning set collects the monomials that are
H-invariant up to powers of the repair variable w, each held as its
expanded exponent vector t, one row of an integer array:

* additive H with shift set W: (monomials in the other generators) *
  g(w)^j * w^l, where g is the monic polynomial with root set W and
  0 <= l <= |W| - 2; g(w)^j is kept unexpanded, and t_w = |W| j + l, so
  t_w mod |W| <= |W| - 2 and the function at t is read back from t alone;
* multiplicative H of order u: monomials whose scaled-generator degree sum
  is divisible by u, times w^l with 0 <= l <= u - 2; with s the sum of t's
  scaled-generator exponents mod u, that is s <= u - 2 and t_w >= s.

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

A split's spanning set is the budget-only one less the functions whose
expanded exponents exceed its caps, in the same order.  So each group's
functions are enumerated once, without caps, and evaluated once; the union
matrix E keeps each distinct evaluation row once, in first-occurrence order
over H1's functions then H2's (a function of both groups, or two functions
that agree on every place, such as y^0 and y^(q-1) on the y-tower, share a
row).  Each split's rows of E are a mask over each group's list, so its
matrices equal the group's own evaluation matrices row for row.  E is
reduced once to R with pivot columns P.  Every space searched lies in
rowspace(E), whose RREF pivots are P: a subspace's pivots are a subset of
P, and v -> v[P] is an isomorphism on rowspace(E) that keeps leading
positions.  So each split's bases, ranks, score and the winner's
intersection are computed on the |P| columns E[:, P].  A split's bases are
row-echelon, not reduced: only their lengths and spans are read.  The
intersection alone is reduced, and the winner's projected RREF basis W is
lifted once, as W * R[:|P|], which already is the full-width RREF basis.
So a construction runs Gauss-Jordan twice, on E and on the k-row
intersection tail; every rank stops at row echelon.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
from itertools import product

import numpy as np

from . import gflinalg
from .errors import BudgetTooSmall, EmptyCode, IllegalOrder, VariantMismatch
from .field import FiniteField
from .groups import ADDITIVE, MULTIPLICATIVE, RecoveryGroup, combine, orbit, scaled_generators
from .tower import GS96, TowerSpec


def spanning_set(group: RecoveryGroup, budget: int) -> np.ndarray:
    """The group's invariant functions of pole degree <= budget on
    ``group.spec``, as one (N, m) array of expanded exponent vectors t,
    sorted by pole degree t . pole_weights, then by t."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    spec = group.spec
    weights = np.array(spec.pole_weights())
    box = np.indices([budget // wt + 1 for wt in weights]).reshape(spec.m, -1).T
    box = box[box @ weights <= budget]
    top = max(group.order - 2, 0)
    t_w = box[:, group.w_index]
    if group.kind == ADDITIVE:
        keep = t_w % group.order <= top
    elif group.kind == MULTIPLICATIVE:
        s = box[:, scaled_generators(spec.variant, spec.m)].sum(axis=1) % group.order
        keep = (s <= top) & (t_w >= s)
    else:
        raise ValueError(f"unknown group kind {group.kind!r}")
    box = box[keep]
    return box[np.lexsort((*box.T[::-1], box @ weights))]


def evaluation_matrix(exps: np.ndarray, coords: np.ndarray, fld: FiniteField,
                      group: RecoveryGroup | None) -> np.ndarray:
    """Row per exponent vector of the (N, m) array ``exps``, column per row
    of the (n, m) place array ``coords``, in ``fld.dtype``.

    A row is the plain monomial x^t (``group`` None or multiplicative),
    except under an additive group, whose w column t_w reads as
    g(w)^(t_w div |W|) * w^(t_w mod |W|), g the monic polynomial with the
    group's shifts as roots.  Each generator's powers, and g's, are
    tabulated once, by repeated products, up to the largest exponent
    needed; a row is the product of its gathered table rows.
    """
    exps = np.array(exps, dtype=np.intp)  # a copy: an additive group splits its w column
    g_power = None
    if group is not None and group.kind == ADDITIVE:
        w = group.w_index
        g_power, exps[:, w] = np.divmod(exps[:, w], group.order)
    out = reduce(fld.vec_mul, (_powers(fld, x, e.max(initial=0))[e] for x, e in zip(coords.T, exps.T)))
    if g_power is not None and g_power.any():
        g = reduce(fld.vec_mul, (fld.vec_sub(coords[:, w], root) for root in group.shifts))
        out = fld.vec_mul(out, _powers(fld, g, g_power.max())[g_power])
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


def _union_rows(h1: RecoveryGroup, h2: RecoveryGroup, budget: int):
    """Both groups' spanning functions, evaluated once, and every cap split's
    rows of them.

    Returns (splits, E): E holds each distinct evaluation row once, in
    first-occurrence order over H1's functions then H2's, and each split is
    (caps, (rows1, rows2)), the rows of E that span V1 and V2 under those
    caps: the E row of each of the group's functions whose expanded
    exponents are all <= caps (every one for caps None), in ``spanning_set``
    order.
    """
    spec = h1.spec
    exps = [spanning_set(h, budget) for h in (h1, h2)]
    stacked = np.vstack([evaluation_matrix(t, spec.places(), spec.field, h) for t, h in zip(exps, (h1, h2))])
    seen: dict[bytes, int] = {}
    first = [seen.setdefault(row.tobytes(), i) for i, row in enumerate(stacked)]
    kept, row_of = np.unique(first, return_inverse=True)
    indexed = list(zip(np.split(row_of, [len(exps[0])]), exps))
    splits = [
        (caps, tuple(rows if caps is None else rows[(t <= caps).all(axis=1)] for rows, t in indexed))
        for caps in _cap_profiles(spec, budget)
    ]
    return splits, stacked[kept]


def _split_bases(fld: FiniteField, projected: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-echelon bases of one split's two spaces and dim(V1 + V2), on E[:, P]."""
    b1, b2 = (gflinalg.echelon(fld, projected[r])[0] for r in rows)
    return b1, b2, gflinalg.rank(fld, np.vstack([b1, b2]))


def construct_lrc(spec: TowerSpec, h1: RecoveryGroup, h2: RecoveryGroup, d_target: int) -> LrcCode:
    """Build the two invariant spaces, intersect their evaluation images and
    assemble the finished code with per-coordinate recovery sets."""
    for h in (h1, h2):
        if h.spec != spec:
            raise VariantMismatch(f"recovery group built on {h.spec!r}, but the code is on {spec!r}")
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
    splits, evals = _union_rows(h1, h2, budget)
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
