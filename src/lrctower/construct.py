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
construction keeps the first cap split, in profile order, of largest score
dim(V1 ∩ V2) = dim V1 + dim V2 - dim(V1 + V2), visiting the splits by
falling bound until no bound can reach the best score (a bound that only
ties it must come earlier in profile order).

A split's spanning set is the budget-only one less the functions whose
expanded exponents exceed its caps, in the same order.  So each group's
functions are enumerated once, without caps, and evaluated once, and a
split is a list of row indices into each group's evaluation matrix.  Rows
are gathered only for the splits the search scores.

The search and the intersection run one character at a time.  Let H be the
pair's multiplicative group of larger order (the trivial group, order u = 1,
for an additive pair), scaling the scaled generators by c.  Every spanning
function f is an eigenvector of H: f(cP) = c^s f(P), with s the sum of t's
scaled-generator exponents mod u.  Where H scales an additive group's w (the
y-tower), it normalizes W, so cW = W and g(cw) = c^|W| g(w), which
t_w = |W| j + l already counts.  So V1, V2 and V1 ∩ V2 are direct sums over
the u characters, and a vector of character s is fixed by its values on one
place per H-orbit: the functions are evaluated on those n/u representatives
only.  A split's bound sums min(#rows1, #rows2, n/u) of each character s,
as V1_s ∩ V2_s sits in GF(q)^(n/u).  Its score takes one Zassenhaus
elimination of the raw rows per character, whose tail right of column n/u
is a basis of V1_s ∩ V2_s, and stops once the tails so far plus the bounds
still to come cannot win.  The winner alone gets its dims, as ranks of its
raw blocks, and its tails, lifted to every place by v(cP) = c^s v(P), are
reduced once.  RREF is canonical, so the generator is the one a full-width
elimination gives.  Only that reduction is Gauss-Jordan; every other
elimination stops at row echelon.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
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
    generator's row count and r1, r2 the groups' localities.  A group built
    on another spec raises VariantMismatch; a generator without one column
    per place, a ``d_designed`` outside [1, n] or a ``dims.budget`` other
    than n - d_designed raises ValueError.

    ``recovery_sets`` is derived too: per group H_s, a read-only (n, r_s)
    intp array whose row i is place i's orbit under H_s less i itself,
    in element order (column i of ``orbit(H_s)`` without i).  The action is
    free, so each row has |H_s| - 1 members and omits i; H1 and H2 meet
    only in the identity, and every other automorphism moves every place,
    so the two rows of a place are disjoint.
    """

    spec: TowerSpec
    group1: RecoveryGroup
    group2: RecoveryGroup
    generator_matrix: np.ndarray
    d_designed: int
    dims: CodeDims
    params: CodeParams = dc_field(init=False)
    recovery_sets: tuple[np.ndarray, np.ndarray] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_specs(self.spec, self.group1, self.group2)
        n, (k, cols) = len(self.spec.places()), self.generator_matrix.shape
        if cols != n:
            raise ValueError(f"params.n = {n} does not match the column count {cols} of generator_matrix")
        if not 1 <= self.d_designed <= n:
            raise ValueError(f"params.d_designed = {self.d_designed} is not in [1, n] = [1, {n}]")
        if self.dims.budget != n - self.d_designed:
            raise ValueError(f"dims.budget = {self.dims.budget} does not match "
                             f"n - d_designed = {n - self.d_designed}")
        self.params = CodeParams(n, k, self.d_designed, self.group1.r, self.group2.r)
        self.recovery_sets = tuple(map(_orbit_rows, (self.group1, self.group2)))

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


def _check_specs(spec: TowerSpec, *groups: RecoveryGroup) -> None:
    for h in groups:
        if h.spec != spec:
            raise VariantMismatch(f"recovery group built on {h.spec!r}, but the code is on {spec!r}")


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


def _scalar_group(h1: RecoveryGroup, h2: RecoveryGroup) -> RecoveryGroup:
    """H: the pair's multiplicative group of larger order (the first on a
    tie), or the trivial one, of order 1, when both groups are additive."""
    scalar = [h for h in (h1, h2) if h.kind == MULTIPLICATIVE]
    if not scalar:
        return build_recovery_group(h1.spec, MULTIPLICATIVE, order=1)
    return max(scalar, key=lambda h: h.order)


@dataclass(frozen=True)
class _Blocks:
    """Both groups' spanning functions on one place per orbit of the scalar
    group H of order u: row i of ``mats[g]`` is group g's function i on the
    representatives, of character ``chars[g][i]``.  A vector v of character
    s has v(cP) = c^s v(P), so element e of H lifts a representative's value
    to the place ``columns[e]`` with the factor ``scalars[e]`` ** s."""

    mats: tuple[np.ndarray, np.ndarray]
    chars: tuple[np.ndarray, np.ndarray]
    scalars: np.ndarray  # (u,) H's scalars, in orbit-table order
    columns: np.ndarray  # (u, n/u) orbit(H) at the representatives


def _split_rows(h1: RecoveryGroup, h2: RecoveryGroup, budget: int):
    """Both groups' spanning functions, evaluated once on the representatives,
    and every cap split's rows of them.

    Returns (splits, blocks): blocks is the ``_Blocks`` of the pair, and
    each split is (caps, (rows1, rows2)), the indices of the group's
    functions whose expanded exponents are all <= caps (every one for caps
    None), in ``spanning_set`` order.  A representative is the first place
    of its orbit under H, and a row's character is the sum of its
    scaled-generator exponents mod |H|.
    """
    spec = h1.spec
    scalar = _scalar_group(h1, h2)
    table = orbit(scalar)
    reps = np.flatnonzero(table.min(axis=0) == np.arange(table.shape[1]))
    exps = [spanning_set(h, budget) for h in (h1, h2)]
    blocks = _Blocks(
        mats=tuple(evaluation_matrix(t, spec.places()[reps], spec.field, h) for t, h in zip(exps, (h1, h2))),
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
    """(u,) bounds on a split's dim(V1_s ∩ V2_s): min(#rows1, #rows2, n/u) of character s."""
    counts = [np.bincount(c[r], minlength=len(blocks.scalars)) for c, r in zip(blocks.chars, rows)]
    return np.minimum(np.minimum(*counts), blocks.columns.shape[1])


def _split_intersection(fld: FiniteField, blocks: _Blocks, rows, bounds: np.ndarray, floor: int):
    """One split's V1 ∩ V2 on the representatives: (s, raw1, raw2, tail) per
    character s of its rows, in increasing s, raw a space's rows of character
    s and tail the Zassenhaus basis of V1_s ∩ V2_s from them (empty, with no
    elimination, where ``bounds[s]`` is 0).  None as soon as the tails so far
    plus the bounds still to come fall below ``floor``."""
    chars = [c[r] for c, r in zip(blocks.chars, rows)]
    per_char, reach = [], int(bounds.sum())
    for s in np.unique(np.concatenate(chars)).tolist():
        raw1, raw2 = (m[r[c == s]] for m, r, c in zip(blocks.mats, rows, chars))
        tail = gflinalg.zassenhaus(fld, raw1, raw2) if bounds[s] else raw1[:0]
        reach -= int(bounds[s]) - len(tail)
        if reach < floor:
            return None
        per_char.append((s, raw1, raw2, tail))
    return per_char


def construct_lrc(spec: TowerSpec, h1: RecoveryGroup, h2: RecoveryGroup, d_target: int) -> LrcCode:
    """Build the two invariant spaces, intersect their evaluation images and
    assemble the finished code, whose recovery sets are the groups' orbits."""
    _check_specs(spec, h1, h2)
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
            raise BudgetTooSmall(f"budget {budget} cannot host w^{g.r - 1} (needs {need})")

    fld = spec.field
    splits, blocks = _split_rows(h1, h2, budget)
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
    lifted, dims = [np.zeros((0, n), dtype=fld.dtype)], np.zeros(2, dtype=int)
    for s, raw1, raw2, tail in per_char:
        bases = [gflinalg.echelon(fld, raw)[0] for raw in (raw1, raw2)]
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

    return LrcCode(spec=spec, group1=h1, group2=h2, generator_matrix=basis, d_designed=d_target,
                   dims=CodeDims(*dims.tolist(), int(dims.sum()) - k, budget, splits[i][0]))
