"""Evaluation-code construction with two disjoint recovery sets.

The groups H_1, ..., H_t are one tuple in every layer, and ``check_groups``
alone holds the rule t = 2.  For each group H the spanning set collects the
monomials that are H-invariant up to powers of the repair variable w, each
held as its expanded exponent vector t, one row of an integer array:

* additive H with shift set W: (monomials in the other generators) *
  g(w)^j * w^l, where g is the monic polynomial with root set W and
  0 <= l <= |W| - 2; g(w)^j is kept unexpanded, and t_w = |W| j + l, so
  t_w mod |W| <= |W| - 2 and the function at t is read back from t alone;
* multiplicative H of order u: monomials whose scaled-generator degree sum
  is divisible by u, times w^l with 0 <= l <= u - 2; with s the sum of t's
  scaled-generator exponents mod u, that is s <= u - 2 and t_w >= s.

Every spanning function obeys a pole-degree budget of n - d_target, so each
space V_j sits inside the functions with at most n - d_target zeros and the
intersection code has designed distance d_target.  On the y-tower at level
m >= 2 the generators have poles at different places, so a single budget is
not enough: per-generator degree caps with cap-sum <= budget / l^(m-1) keep
the joint pole divisor of all spanning functions below the budget.  The
construction keeps the first cap split, in profile order, of largest score
dim(V_1 ∩ ... ∩ V_t), visiting the splits by falling bound until no bound
can reach the best score (one that only ties it must come earlier).

A split's spanning set is the budget-only one less the functions whose
expanded exponents exceed its caps, in the same order.  So each group's
functions are enumerated once, without caps, and evaluated once, and a
split is a list of row indices into each group's evaluation matrix.  Rows
are gathered only for the splits the search scores.

The search and the intersection run one character at a time.  Let H be the
groups' multiplicative group of largest order (trivial, of order u = 1, if
all are additive), scaling the scaled generators by c.  Every spanning
function f is an eigenvector of H: f(cP) = c^s f(P), with s the sum of t's
scaled-generator exponents mod u.  Where H scales an additive group's w (the
y-tower), it normalizes W, so cW = W and g(cw) = c^|W| g(w), which
t_w = |W| j + l already counts.  So each V_j and their intersection are
direct sums over the u characters, and a vector of character s is fixed by
its values on one place per H-orbit, the n/u representatives on which the
functions are evaluated.  A split's bound sums, per s, the least of n/u and
each group's row count of character s.  Its score runs one Zassenhaus
elimination per character and group after the first, whose tail right of
column n/u is a basis of the intersection so far, and stops once the tails
so far plus the bounds still to come cannot win.  The winner alone gets its
dims, as ranks of its raw blocks, and its tails, lifted to every place by
v(cP) = c^s v(P), are reduced once.  RREF is canonical, so the generator is
the one a full-width elimination gives.  Only that reduction is
Gauss-Jordan; every other elimination stops at row echelon.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial, reduce
from itertools import product

import numpy as np

from . import gflinalg
from .errors import BudgetTooSmall, EmptyCode, IllegalOrder, VariantMismatch
from .field import FiniteField
from .groups import (
    ADDITIVE, MULTIPLICATIVE, RecoveryGroup, build_recovery_group, combine, orbit, scaled_generators,
)
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
    r: tuple[int, ...]  # r[s - 1] is group s's locality


@dataclass(frozen=True)
class CodeDims:
    dim_v: tuple[int, ...]  # dim_v[s - 1] is dim V_s
    dim_sum: int  # dim(V_1 + V_2) at t = 2, by the rank identity with k
    budget: int
    caps: tuple[int, ...] | None


@dataclass
class LrcCode:
    """Constructed code: generator matrix and recovery layout on the
    places of ``spec``.

    ``params`` is derived, not given: n is the spec's place count, k the
    generator's row count and ``r`` the groups' localities.  ``groups`` must
    pass ``check_groups``.  The generator is read by ``gflinalg.as_matrix``
    into a read-only copy in ``field.dtype``; one without one column per
    place, a ``d_designed`` outside [1, n] or a ``dims.budget`` other than
    n - d_designed raises ValueError.

    ``recovery_sets`` is derived too: per group H_s, a read-only (n, r_s)
    intp array whose row i is place i's orbit under H_s less i itself,
    in element order (column i of ``orbit(H_s)`` without i).  The action is
    free, so each row has |H_s| - 1 members and omits i; the groups meet
    only in the identity, and every other automorphism moves every place,
    so the rows of a place are disjoint.
    """

    spec: TowerSpec
    groups: tuple[RecoveryGroup, ...]
    generator_matrix: np.ndarray
    d_designed: int
    dims: CodeDims
    params: CodeParams = dc_field(init=False)
    recovery_sets: tuple[np.ndarray, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_groups(self.spec, self.groups)
        self.generator_matrix = gen = gflinalg.as_matrix(self.field, self.generator_matrix).astype(self.field.dtype)
        gen.flags.writeable = False
        n, (k, cols) = len(self.spec.places()), gen.shape
        if cols != n:
            raise ValueError(f"params.n = {n} does not match the column count {cols} of generator_matrix")
        if not 1 <= self.d_designed <= n:
            raise ValueError(f"params.d_designed = {self.d_designed} is not in [1, n] = [1, {n}]")
        if self.dims.budget != n - self.d_designed:
            raise ValueError(f"dims.budget = {self.dims.budget} does not match "
                             f"n - d_designed = {n - self.d_designed}")
        self.params = CodeParams(n, k, self.d_designed, tuple(h.r for h in self.groups))
        self.recovery_sets = tuple(map(_orbit_rows, self.groups))

    @property
    def field(self) -> FiniteField:
        return self.spec.field

    @cached_property
    def repair_plan(self):
        """Lagrange repair weights of every recovery set, built on first use
        and kept; see ``repair.RepairPlan``."""
        from .repair import build_repair_plan  # repair imports this module

        return build_repair_plan(self)

    def encode(self, message) -> np.ndarray:
        msg = np.asarray(gflinalg.integer_array(message), dtype=np.int64).reshape(1, -1)
        if msg.shape[1] != self.params.k:
            raise ValueError(f"message length must be k={self.params.k}")
        return gflinalg.matmul(self.field, msg, self.generator_matrix)[0]


def check_groups(spec: TowerSpec, groups) -> None:
    """The one rule on a code's groups: t = 2 of them, each on ``spec``, that
    ``combine`` accepts (trivial intersection, the second normalizing the first)."""
    if len(groups) != 2:
        raise ValueError(f"groups must hold 2 entries, got {len(groups)}")
    for h in groups:
        if h.spec != spec:
            raise VariantMismatch(f"recovery group built on {h.spec!r}, but the code is on {spec!r}")
    combine(*groups)


def _orbit_rows(h: RecoveryGroup) -> np.ndarray:
    """Read-only (n, r) array: row i is column i of ``orbit(h)`` less i."""
    cols = orbit(h).T
    rows = cols[cols != np.arange(len(cols))[:, None]].reshape(len(cols), h.r)
    rows.flags.writeable = False
    return rows


def _cap_profiles(spec: TowerSpec, budget: int) -> list[tuple[int, ...] | None]:
    """Cap splits to try; None means the plain budget-only enumeration."""
    if spec.variant == GS96 and spec.m >= 2:
        beta = budget // spec.pole_weights()[0]
        return [tvec for tvec in product(range(beta + 1), repeat=spec.m) if sum(tvec) == beta]
    return [None]


def _scalar_group(groups) -> RecoveryGroup:
    """H: the groups' multiplicative group of largest order (the first on a
    tie), or the trivial one, of order 1, when every group is additive."""
    scalar = [h for h in groups if h.kind == MULTIPLICATIVE]
    if not scalar:
        return build_recovery_group(groups[0].spec, MULTIPLICATIVE, order=1)
    return max(scalar, key=lambda h: h.order)


@dataclass(frozen=True)
class _Blocks:
    """Each group's spanning functions on one place per orbit of the scalar
    group H of order u: row i of ``mats[g]`` is group g's function i on the
    representatives, of character ``chars[g][i]``.  A vector v of character
    s has v(cP) = c^s v(P), so element e of H lifts a representative's value
    to the place ``columns[e]`` with the factor ``scalars[e]`` ** s."""

    mats: tuple[np.ndarray, ...]
    chars: tuple[np.ndarray, ...]
    scalars: np.ndarray  # (u,) H's scalars, in orbit-table order
    columns: np.ndarray  # (u, n/u) orbit(H) at the representatives


def _split_rows(groups, budget: int):
    """The groups' spanning functions, evaluated once on the representatives,
    and every cap split's rows of them.

    Returns (splits, blocks): blocks is the ``_Blocks`` of the groups, and
    each split is (caps, rows), rows[g] the indices of group g's functions
    whose expanded exponents are all <= caps (every one for caps None), in
    ``spanning_set`` order.  A representative is the first place of its
    orbit under H, and a row's character is the sum of its scaled-generator
    exponents mod |H|.
    """
    spec = groups[0].spec
    scalar = _scalar_group(groups)
    table = orbit(scalar)
    reps = np.flatnonzero(table.min(axis=0) == np.arange(table.shape[1]))
    exps = [spanning_set(h, budget) for h in groups]
    blocks = _Blocks(
        mats=tuple(evaluation_matrix(t, spec.places()[reps], spec.field, h) for t, h in zip(exps, groups)),
        chars=tuple(t[:, scaled_generators(spec.variant, spec.m)].sum(axis=1) % scalar.order for t in exps),
        scalars=np.array(scalar.scalars),
        columns=table[:, reps],
    )
    splits = [
        (caps, tuple(np.arange(len(t)) if caps is None else np.flatnonzero((t <= caps).all(axis=1))
                     for t in exps))
        for caps in _cap_profiles(spec, budget)
    ]
    return splits, blocks


def _char_bounds(blocks: _Blocks, rows) -> np.ndarray:
    """(u,) bounds on a split's intersection of character s: the least of
    n/u and each group's row count of character s."""
    counts = [np.bincount(c[r], minlength=len(blocks.scalars)) for c, r in zip(blocks.chars, rows)]
    return np.minimum(np.min(counts, axis=0), blocks.columns.shape[1])


def _split_intersection(fld: FiniteField, blocks: _Blocks, rows, bounds: np.ndarray, floor: int):
    """One split's intersection on the representatives: (s, raws, tail) per
    character s of its rows, in increasing s, raws[g] group g's rows of
    character s and tail a basis of their spaces' intersection, reduced by
    Zassenhaus group by group (empty, with no elimination, where
    ``bounds[s]`` is 0).  None as soon as the tails so far plus the bounds
    still to come fall below ``floor``."""
    chars = [c[r] for c, r in zip(blocks.chars, rows)]
    per_char, reach = [], int(bounds.sum())
    for s in np.unique(np.concatenate(chars)).tolist():
        raws = [m[r[c == s]] for m, r, c in zip(blocks.mats, rows, chars)]
        tail = reduce(partial(gflinalg.zassenhaus, fld), raws) if bounds[s] else raws[0][:0]
        reach -= int(bounds[s]) - len(tail)
        if reach < floor:
            return None
        per_char.append((s, raws, tail))
    return per_char


def construct_lrc(spec: TowerSpec, groups, d_target: int) -> LrcCode:
    """Build each group's invariant space, intersect their evaluation images
    and assemble the finished code, whose recovery sets are the groups' orbits."""
    check_groups(spec, groups)
    if min(h.order for h in groups) < 2:
        raise IllegalOrder("recovery groups must have order >= 2")
    n = len(spec.places())
    if not 1 <= d_target <= n:
        raise ValueError(f"d_target must be in [1, {n}]")
    budget = n - d_target
    weights = spec.pole_weights()
    for g in groups:
        need = (g.r - 1) * weights[g.w_index]
        if budget < need:
            raise BudgetTooSmall(f"budget {budget} cannot host w^{g.r - 1} (needs {need})")

    fld = spec.field
    splits, blocks = _split_rows(groups, budget)
    # A split must reach the best score, or pass it if the best comes earlier (equal scores go to the lower
    # index); the stable sort keeps profile order among equal bounds, so once a bound cannot, no later one can.
    bounds = [_char_bounds(blocks, rows) for _, rows in splits]
    best = (-1, -1, None)  # (score, index, per_char); the first split scored replaces it
    for i in sorted(range(len(splits)), key=lambda i: -bounds[i].sum()):
        floor = best[0] + (best[1] < i)
        if bounds[i].sum() < floor:
            break
        per_char = _split_intersection(fld, blocks, splits[i][1], bounds[i], floor)
        if per_char is not None:
            best = (sum(len(tail) for *_, tail in per_char), i, per_char)
    k, i, per_char = best

    # The winner's dims, and each tail lifted to full width by v(cP) = c^s v(P).  Stacked on a factor
    # space's basis of its character, a tail must keep the rank at that basis's length: so it lies in the space.
    lifted, dims = [np.zeros((0, n), dtype=fld.dtype)], np.zeros(len(groups), dtype=int)
    for s, raws, tail in per_char:
        bases = [gflinalg.echelon(fld, raw)[0] for raw in raws]
        dims += [len(b) for b in bases]
        for b in bases:
            if len(tail) and gflinalg.rank(fld, np.vstack([b, tail])) != len(b):
                raise AssertionError("intersection basis escaped a factor space")
        full = np.zeros((len(tail), n), dtype=fld.dtype)
        full[:, blocks.columns] = fld.vec_mul(fld.vec_pow(blocks.scalars, s)[:, None], tail[:, None, :])
        lifted.append(full)
    basis, pivots = gflinalg.rref(fld, np.vstack(lifted))
    if len(pivots) != k:
        raise AssertionError("Zassenhaus intersection disagrees with the rank identity")
    if k == 0:
        raise EmptyCode("the two evaluation spaces only meet in zero")

    return LrcCode(spec=spec, groups=tuple(groups), generator_matrix=basis, d_designed=d_target,
                   dims=CodeDims(tuple(dims.tolist()), int(dims.sum()) - k, budget, splits[i][0]))
