"""Local repair, locality verification and exact minimum distance.

Repair reads the symbols on one recovery set, interpolates the unique
polynomial of degree < |set| through the (repair-variable, symbol) pairs
and evaluates it at the erased place's repair-variable value.  Codeword
functions restrict to exactly such polynomials on every orbit, so the
round trip is exact.

The erased symbol is therefore a fixed linear combination sum_h lambda_h c_h
of the set's symbols, whose Lagrange weights depend on the code alone.
``build_repair_plan`` computes them for every (coordinate, set) at once,
and ``LrcCode.repair_plan`` builds that plan on first use and keeps it on
the code, so construction and loading never pay for it.  A code is treated
as immutable after construction: its plan is not rebuilt if its groups are
changed in place.  A bulk rebuild is one gather and one reduction per set
for all coordinates and codewords at once.

The recovery sets are the groups' orbits (``LrcCode.recovery_sets``, one
(n, r) array per set), so their geometry holds by construction: each set has
|H| - 1 members and omits its coordinate (the action is free), the sets of
a coordinate are disjoint (the groups meet only in the identity), and the
repair-variable values of a set and its coordinate are pairwise distinct.
Nothing here checks an arbitrary layout; the loader refuses any other.

``repair`` serves one degraded read, so it runs on Python ints throughout:
``RepairPlan.terms`` holds each coordinate's (index, weight) pairs of
nonzero weight, made from the arrays on the first single-symbol repair (so
``verify_code`` never pays for them).  For q <= TABLE_CAP each term of the
sum is one inline lookup, ``add[out, mul[l, c]]``, in the field's 2-D table
memoryviews, with no field method called; above TABLE_CAP the sum runs on
the scalar field ops.  No numpy scalar is formed unless the caller's word is
itself a numpy array.  A set choice or coordinate that is not an integer is
refused by name, never used as an index or read as 0 or 1.

``verify_code`` checks repair once, on the k generator rows: a rebuild is
linear in the word, so a round trip exact on every row is exact on every
codeword, and no other codeword is formed.

Locality is checked by the linear determination criterion: coordinate i is
a function of the coordinates in I iff generator column g_i lies in the
span of the columns indexed by I.  The rebuild gathers only through the
set arrays, so where every generator row rebuilds exactly that is the
explicit relation g_i = sum_h lambda_h g_{I_h}, checked over all of GF(q),
and ``verify_code`` passes the pair to ``verify_definition1`` as proven
local, with no elimination; the rank test runs only on the pairs the round
trip leaves unproven, the only coordinates visited in Python.

Exact minimum distance enumerates one codeword per scalar class: Hamming
weight does not change under multiplication by a nonzero scalar, so the
messages whose leading nonzero symbol is 1 reach every weight, and the
sweep costs (q^k - 1)/(q - 1) codewords instead of q^k.  The enumeration
cap is still compared with q^k.  No codeword is formed: ``span_parts``
splits each lead row's words into an (n, B) prefix block, a word per column,
and a stream of shifts s; the weight of column + s is n minus its agreements
with -s, so each shift costs one comparison and one column-wise sum.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field, fields
from functools import cached_property

import numpy as np

from . import gflinalg
from .construct import LrcCode
from .errors import NotACodeword, TooLarge

DEFAULT_ENUM_CAP = 10**7
BLOCK_ROWS = 1 << 14  # words (columns) per enumeration block; bounds its memory, not its result


@dataclass(frozen=True)
class ErasurePattern:
    """Codeword with one erased coordinate and the recovery set to use (``repair`` checks it)."""

    codeword: tuple[int, ...]
    coord: int
    set_choice: int  # s in [1, t]


def _check_integer(name: str, x) -> None:
    """Refuse ``x`` unless it is a Python int other than bool, or a numpy
    integer, with a ValueError naming it."""
    if type(x) is not int and not isinstance(x, np.integer):
        raise ValueError(f"{name} {x!r} is not an integer")


def check_coord(code: LrcCode, i: int) -> None:
    """Reject a coordinate that is not an integer, or is outside [0, n)
    rather than letting it wrap."""
    _check_integer("coordinate", i)
    if not 0 <= i < code.params.n:
        raise ValueError(f"coordinate {i} out of range for n={code.params.n}")


@dataclass(frozen=True)
class RepairPlan:
    """Lagrange repair of every coordinate through one of its recovery sets.

    Row i holds the set (the code's read-only set array itself) and weights
    with symbol i = sum_h weights[i, h] * c[index[i, h]].
    """

    index: np.ndarray    # (n, r) intp
    weights: np.ndarray  # (n, r) field.dtype

    @cached_property
    def terms(self) -> list[list[tuple[int, int]]]:
        """Per coordinate, its (index, weight) pairs of nonzero weight as
        Python ints; made on first use."""
        return [[(h, l) for h, l in zip(idx, lam) if l]
                for idx, lam in zip(self.index.tolist(), self.weights.tolist())]


def build_repair_plan(code: LrcCode) -> tuple[RepairPlan, ...]:
    """The plan of each recovery set s, vectorized over the coordinates.

    With nodes x_h (the set's repair-variable values) and x0 (the erased
    place's), lambda_h = prod_{h' != h} (x0 - x_h') / (x_h - x_h'): one
    (n, r) array of numerators, one (n, r, r) array of denominators, one
    batched inverse and r products.  The nodes of an orbit are distinct, so
    only the diagonal h = h' is masked; a collision would raise
    ZeroDivisionError in the inverse rather than give a wrong weight.
    """
    fld = code.field
    coords = code.spec.places()
    plans = []
    for index, group in zip(code.recovery_sets, code.groups):
        r = index.shape[1]
        w = coords[:, group.w_index]
        xs = w[index]
        num = fld.vec_sub(w[:, None], xs)                   # [i, h'] = x0 - x_h'
        den = fld.vec_sub(xs[:, :, None], xs[:, None, :])  # [i, h, h'] = x_h - x_h'
        off = ~np.eye(r, dtype=bool)
        factor = np.where(off, fld.vec_mul(num[:, None, :], fld.vec_inv(np.where(off, den, 1))), 1)
        weights = np.ones(index.shape, dtype=fld.dtype)
        for h in range(r):
            weights = fld.vec_mul(weights, factor[:, :, h])
        plans.append(RepairPlan(index, weights))
    return tuple(plans)


def repair(code: LrcCode, pattern: ErasurePattern, strict: bool = False) -> int:
    """Recover the erased symbol through the chosen recovery set.

    A set choice or coordinate that is not an integer (a Python int other
    than bool, or a numpy integer), a set choice outside [1, t], a word
    whose length is not n, or a symbol on the set that is not an integer in
    [0, q), raises ValueError naming it; the erased symbol itself is never
    read.
    """
    fld = code.field
    i, s, word = pattern.coord, pattern.set_choice, pattern.codeword
    _check_integer("set_choice", s)
    if not 1 <= s <= len(code.recovery_sets):
        raise ValueError(f"set_choice {s} is outside [1, {len(code.recovery_sets)}]")
    check_coord(code, i)
    if len(word) != code.params.n:
        raise ValueError(f"word has {len(word)} symbols, expected n={code.params.n}")
    terms = code.repair_plan[s - 1].terms[i]
    if strict:
        known = [h for h in range(code.params.n) if h != i]
        rhs = np.array([word[h] for h in known], dtype=np.int64)
        if not gflinalg.in_span(fld, code.generator_matrix[:, known], rhs):
            raise NotACodeword("unerased symbols are not consistent with the code")
    q, add, mul = fld.q, fld._add, fld._mul  # the 2-D table views; None above TABLE_CAP
    out = 0
    for h, l in terms:
        c = word[h]
        if type(c) is not int and not isinstance(c, np.integer):
            raise ValueError(f"symbol {c!r} at coordinate {h} is not an integer")
        if not 0 <= c < q:
            raise ValueError(f"symbol {c} at coordinate {h} is outside [0, {q})")
        out = add[out, mul[l, c]] if add is not None else fld.add(out, fld.mul(l, c))
    return out


# ---------------------------------------------------------------------------
# codeword enumeration and sampling
# ---------------------------------------------------------------------------

def span_parts(fld, rows, offset=None):
    """``(prefix, suffixes)``: the columns of ``prefix + s[:, None]`` over the
    suffixes s are ``offset`` plus every GF(q)-combination of ``rows``
    (q^len(rows) words, offset alone first; zero offset by default), in
    ``fld.dtype``; an entry outside [0, q) raises ValueError.

    ``prefix`` is (n, q^j), a word per column, spanned by the first j rows
    (q^j <= BLOCK_ROWS, j >= 1 if there is a row) with one ``vec_axpy`` per
    row and nonzero scalar; ``suffixes`` is an odometer over the coefficients
    of the other rows, one n-vector per coefficient tuple, the zero first.
    """
    rows = gflinalg.as_matrix(fld, rows)
    (k, n), q = rows.shape, fld.q
    j = min(k, max(1, next(i for i in itertools.count() if q ** (i + 1) > BLOCK_ROWS)))
    prefix = np.empty((n, q**j), dtype=fld.dtype)
    prefix[:, 0] = 0 if offset is None else gflinalg.as_matrix(fld, offset)[0]
    for t, row in enumerate(rows[:j]):
        w = q**t  # columns [c w, (c + 1) w) are the first w plus c * row
        for c in range(1, q):
            prefix[:, c * w:(c + 1) * w] = fld.vec_axpy(prefix[:, :w], c, row[:, None])

    def suffixes():
        for tail in itertools.product(range(q), repeat=k - j):
            suffix = np.zeros(n, dtype=fld.dtype)
            for c, row in zip(tail, rows[j:]):
                suffix = fld.vec_axpy(suffix, c, row)
            yield suffix

    return prefix, suffixes()


def random_codewords(code: LrcCode, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, code.field.q, size=(count, code.generator_matrix.shape[0]))
    return gflinalg.matmul(code.field, msgs, code.generator_matrix)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class LocalityReport:
    """Per-coordinate, per-set verdicts of the determination property."""

    set_checks: list[tuple[bool, ...]] = dc_field(default_factory=list)
    failures: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(map(all, self.set_checks))


def verify_definition1(code: LrcCode, proven: np.ndarray | None = None) -> LocalityReport:
    """Check that each coordinate is determined by each of its sets.

    ``proven`` is an optional (t, n) mask of (set, coordinate) pairs already
    proven local (``verify_code`` passes those its round trip rebuilds
    exactly); the rank test runs only on the others.  Without it every pair
    gets the rank test and no repair plan is built.  Only coordinates with a
    pair left to test are visited, in order.
    """
    fld = code.field
    g = code.generator_matrix
    n = code.params.n
    proven = np.zeros((len(code.recovery_sets), n), dtype=bool) if proven is None else proven
    report = LocalityReport(set_checks=[(True,) * len(proven)] * n)
    for i in np.flatnonzero(~proven.all(axis=0)).tolist():
        report.set_checks[i] = verdicts = tuple(
            bool(proven[s, i]) or gflinalg.in_span(fld, g[:, sets[i]].T, g[:, i])
            for s, sets in enumerate(code.recovery_sets))
        report.failures += [f"coordinate {i} not determined by set {s}"
                            for s, ok in enumerate(verdicts, 1) if not ok]
    return report


def repair_roundtrip_wrong(code: LrcCode, codewords: np.ndarray) -> np.ndarray:
    """(t, B, n) mask of wrong rebuilds: [s, b, i] is True when repairing
    coordinate i of word b through set s + 1 does not give back its symbol.

    Per set, every coordinate of every codeword is rebuilt at once, in
    ``field.dtype``: for each of the r columns of the set array, one (B, n)
    gather of the symbols and one ``vec_axpy`` with the plan's weights for
    that column.  Column by column keeps the temporaries at (B, n); a
    (B, n, r) gather would widen to intp and raise the peak memory of a
    128-word rebuild by about 2 MB.
    """
    fld = code.field
    words = gflinalg.as_matrix(fld, codewords).astype(fld.dtype, copy=False)
    n = code.params.n
    if words.shape[1] != n:
        raise ValueError(f"words have {words.shape[1]} symbols, expected n={n}")
    wrong = np.empty((len(code.recovery_sets), *words.shape), dtype=bool)
    for s, (sets, plan) in enumerate(zip(code.recovery_sets, code.repair_plan)):
        rebuilt = np.zeros(words.shape, dtype=fld.dtype)
        for h, col in enumerate(sets.T):
            rebuilt = fld.vec_axpy(rebuilt, plan.weights[:, h], words[:, col])
        np.not_equal(rebuilt, words, out=wrong[s])
    return wrong


def repair_roundtrip_counts(code: LrcCode, codewords: np.ndarray) -> int:
    """Number of (codeword, coordinate, set) repair mismatches; 0 when exact."""
    return int(np.count_nonzero(repair_roundtrip_wrong(code, codewords)))


def brute_force_distance(code: LrcCode, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Exact minimum Hamming weight over all nonzero codewords.

    Weight is invariant under nonzero scaling, so one message per scalar
    class is enough: the one whose leading nonzero symbol is 1.  For each
    lead row g[l] that is g[l] + span(g[l+1:]), (q^k - 1)/(q - 1) codewords
    in all, and the minimum over them is the minimum over all q^k - 1
    nonzero messages (a rank-deficient generator still yields its zero
    words, at weight 0).  The cap still applies to q^k, so exactly the same
    codes are enumerated or raise TooLarge.

    Weights are counted by agreement, with no codeword formed: ``span_parts``
    splits each lead's words into an (n, B) prefix block, a word per column,
    and shifts s, and wt(col + s) = n - #{i : col_i = -s_i}.  Each shift
    costs one comparison with the block, into the bool view of one reused
    uint8 buffer, and one column-wise sum in the narrowest unsigned type that
    holds n; a lead's block and buffer go before the next lead's are built.
    """
    fld = code.field
    g = code.generator_matrix
    q, (k, width) = fld.q, g.shape
    if q**k > cap:
        raise TooLarge(f"q^k = {q**k} exceeds enumeration cap {cap}")
    count = np.min_scalar_type(width)
    best = code.params.n
    for lead in range(k):
        prefix, suffixes = span_parts(fld, g[lead + 1:], offset=g[lead])
        agree = np.empty(prefix.shape, dtype=np.uint8)
        for suffix in suffixes:
            np.equal(prefix, fld.vec_neg(suffix)[:, None], out=agree.view(bool))
            best = min(best, width - int(agree.sum(axis=0, dtype=count).max()))
        del prefix, agree
    return best


@dataclass
class VerificationReport:
    """Results of ``verify_code``; ``distance`` and ``distance_ok`` are None
    when the distance phase was skipped."""

    ok: bool
    locality_passed: bool
    locality_checks: list[tuple[bool, ...]]
    repair_mismatches: int
    distance: int | None
    d_designed: int
    distance_ok: bool | None
    runtimes: dict
    failures: list[str]

    def to_json(self) -> dict:
        # shallow, field by field: asdict would deep-copy the n pairs of
        # locality_checks only for them to be replaced
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "locality_checks": [list(c) for c in self.locality_checks],
                "runtimes": {k: round(v, 6) for k, v in self.runtimes.items()},
                "failures": list(self.failures)}


def verify_code(
    code: LrcCode,
    distance_cap: int = DEFAULT_ENUM_CAP,
    exact_distance: bool | None = None,
) -> VerificationReport:
    """Run the full check suite: integrity, repair, locality, distance.

    Repair runs once, right after integrity, on the k generator rows (timed
    under "repair"): by linearity a round trip exact on every row is exact on
    every codeword, and ``repair_mismatches`` counts the wrong row rebuilds.
    Each pair those round trips rebuild exactly through its set is proven
    local: the rebuild gathers only through ``code.recovery_sets``, so a
    pair exact on every row satisfies g_i = sum_h w_h g_{I_h} as columns, I
    its recovery set, whatever the plan's weights.  The rank test of
    ``verify_definition1`` runs only on the rest (both timed under
    "locality").  The verdicts and failure lines are those of the rank test
    alone.  Distance is enumerated exactly when q^k <= distance_cap;
    ``exact_distance=True`` forces the attempt (raising TooLarge beyond the
    cap), ``False`` skips it.
    """
    runtimes = {}
    failures = []
    q, k = code.field.q, code.params.k

    t0 = time.perf_counter()
    if gflinalg.rank(code.field, code.generator_matrix) != k:
        failures.append("generator matrix is not full row rank")
    runtimes["integrity"] = time.perf_counter() - t0
    integrity_ok = not failures

    t0 = time.perf_counter()
    row_wrong = repair_roundtrip_wrong(code, code.generator_matrix)
    mismatches = int(np.count_nonzero(row_wrong))
    runtimes["repair"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    loc = verify_definition1(code, ~row_wrong.any(axis=1))
    runtimes["locality"] = time.perf_counter() - t0
    failures.extend(loc.failures)
    if mismatches:
        failures.append(f"repair is not exact: {mismatches} round trips on generator rows "
                        "returned a wrong symbol")

    distance = None
    distance_ok = None
    if exact_distance is None:
        exact_distance = q**k <= distance_cap
    if exact_distance:
        t0 = time.perf_counter()
        distance = brute_force_distance(code, cap=distance_cap)
        runtimes["distance"] = time.perf_counter() - t0
        distance_ok = distance >= code.params.d_designed
        if not distance_ok:
            failures.append(
                f"true distance {distance} below designed {code.params.d_designed}"
            )

    ok = integrity_ok and loc.passed and mismatches == 0 and distance_ok is not False
    return VerificationReport(
        ok=ok,
        locality_passed=loc.passed,
        locality_checks=loc.set_checks,
        repair_mismatches=mismatches,
        distance=distance,
        d_designed=code.params.d_designed,
        distance_ok=distance_ok,
        runtimes=runtimes,
        failures=failures,
    )
