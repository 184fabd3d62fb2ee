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
as immutable after construction: its plan is not rebuilt if its places,
groups or recovery sets are changed in place.  A bulk rebuild is one gather
and one reduction per set for all coordinates and codewords at once.

``repair`` serves one degraded read, so it runs on Python ints throughout:
``RepairPlan.terms`` holds each coordinate's (index, weight) pairs of
nonzero weight, made from the arrays on the first single-symbol repair (so
``verify_code`` never pays for them), and the sum of products uses the
scalar field ops, which read the field's tables through memoryviews.  No
numpy scalar is formed unless the caller's word is itself a numpy array.

Locality is checked by the linear determination criterion: coordinate i is
a function of the coordinates in I iff generator column g_i lies in the
span of the columns indexed by I.  ``verify_code`` first runs the repair
plan on the generator rows.  Where every row rebuilds exactly and the plan
weights only members of I, that is the explicit relation
g_i = sum_h lambda_h g_{I_h}, checked over all of GF(q), so the pair is
proven local with no elimination; the rank test runs only on the pairs the
round trip leaves unproven.

Exact minimum distance enumerates one codeword per scalar class: Hamming
weight does not change under multiplication by a nonzero scalar, so the
messages whose leading nonzero symbol is 1 reach every weight, and the
sweep costs (q^k - 1)/(q - 1) codewords instead of q^k.  The enumeration
cap is still compared with q^k.  No codeword is formed: ``span_parts``
splits each lead row's words into one prefix block and a stream of shifts,
and the weight of prefix + s is n minus the number of positions where the
prefix equals -s, so each shift costs one comparison and one row sum.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import gflinalg
from .construct import LrcCode
from .errors import DuplicateWValues, NotACodeword, TooLarge

DEFAULT_ENUM_CAP = 10**7
BLOCK_ROWS = 1 << 14  # rows per enumeration block; bounds its memory, not its result
EXHAUSTIVE_REPAIR_CAP = 10**4


@dataclass(frozen=True)
class ErasurePattern:
    """Codeword with one erased coordinate and the recovery set to use."""

    codeword: tuple[int, ...]
    coord: int
    set_choice: int  # 1 or 2

    def __post_init__(self):
        if self.set_choice not in (1, 2):
            raise ValueError("set_choice must be 1 or 2")


def check_coord(code: LrcCode, i: int) -> None:
    """Reject a coordinate outside [0, n) rather than letting it wrap."""
    if not 0 <= i < code.params.n:
        raise ValueError(f"coordinate {i} out of range for n={code.params.n}")


@dataclass(frozen=True)
class RepairPlan:
    """Lagrange repair of every coordinate through one of its recovery sets.

    Row i holds the set's indices, padded to the longest set, and weights
    with symbol i = sum_h weights[i, h] * c[index[i, h]]; padding has index
    0 and weight 0.  ``collide[i]`` flags a row whose interpolation nodes
    are not distinct, where no repair exists.
    """

    index: np.ndarray    # (n, r_max) intp
    weights: np.ndarray  # (n, r_max) field.dtype
    collide: np.ndarray  # (n,) bool

    @cached_property
    def terms(self) -> list[list[tuple[int, int]] | None]:
        """Per coordinate, its (index, weight) pairs of nonzero weight as
        Python ints, or None where the nodes collide; made on first use."""
        rows = zip(self.index.tolist(), self.weights.tolist(), self.collide.tolist())
        return [None if bad else [(h, l) for h, l in zip(idx, lam) if l] for idx, lam, bad in rows]


def build_repair_plan(code: LrcCode) -> tuple[RepairPlan, RepairPlan]:
    """The plans of set 1 and set 2, vectorized over the coordinates.

    With nodes x_h (the set's repair-variable values) and x0 (the erased
    place's), lambda_h = prod_{h' != h} (x0 - x_h') / (x_h - x_h'): one
    (n, r) array of numerators, one (n, r, r) array of denominators, one
    batched inverse and r products.
    """
    fld = code.field
    coords = np.array([p.coords for p in code.places], dtype=np.int64)
    plans = []
    for s, group in enumerate((code.group1, code.group2)):
        sets = [pair[s] for pair in code.recovery_sets]
        n, r = len(sets), max(map(len, sets), default=0)
        index = np.zeros((n, r), dtype=np.intp)
        real = np.zeros((n, r), dtype=bool)
        for i, idx in enumerate(sets):
            index[i, :len(idx)] = idx
            real[i, :len(idx)] = True
        w = coords[:, group.w_index]
        xs = w[index]
        num = fld.vec_sub(w[:, None], xs)                   # [i, h'] = x0 - x_h'
        den = fld.vec_sub(xs[:, :, None], xs[:, None, :])  # [i, h, h'] = x_h - x_h'
        pair = real[:, :, None] & real[:, None, :] & ~np.eye(r, dtype=bool)
        collide = (real & (num == 0)).any(axis=1) | (pair & (den == 0)).any(axis=(1, 2))
        used = pair & (den != 0)
        factor = np.where(used, fld.vec_mul(num[:, None, :], fld.vec_inv(np.where(used, den, 1))), 1)
        weights = real.astype(fld.dtype)
        for h in range(r):
            weights = fld.vec_mul(weights, factor[:, :, h])
        plans.append(RepairPlan(index, weights, collide))
    return tuple(plans)


def repair(code: LrcCode, pattern: ErasurePattern, strict: bool = False) -> int:
    """Recover the erased symbol through the chosen recovery set.

    A word whose length is not n, or a symbol on the set that is not an
    integer (a Python int other than bool, or a numpy integer) in [0, q),
    raises ValueError naming its coordinate; the erased symbol itself is
    never read.
    """
    fld = code.field
    i, s, word = pattern.coord, pattern.set_choice, pattern.codeword
    check_coord(code, i)
    if len(word) != code.params.n:
        raise ValueError(f"word has {len(word)} symbols, expected n={code.params.n}")
    terms = code.repair_plan[s - 1].terms[i]
    if terms is None:
        widx = (code.group1, code.group2)[s - 1].w_index
        nodes = [int(code.places[h].coords[widx]) for h in (*code.recovery_sets[i][s - 1], i)]
        raise DuplicateWValues(f"repair nodes for coordinate {i} collide: {nodes}")
    if strict:
        known = [h for h in range(code.params.n) if h != i]
        rhs = np.array([word[h] for h in known], dtype=np.int64)
        if not gflinalg.in_span(fld, code.generator_matrix[:, known], rhs):
            raise NotACodeword("unerased symbols are not consistent with the code")
    q, add, mul = fld.q, fld.add, fld.mul
    out = 0
    for h, l in terms:
        c = word[h]
        if type(c) is not int and not isinstance(c, np.integer):
            raise ValueError(f"symbol {c!r} at coordinate {h} is not an integer")
        if not 0 <= c < q:
            raise ValueError(f"symbol {c} at coordinate {h} is outside [0, {q})")
        out = add(out, mul(l, c))
    return out


# ---------------------------------------------------------------------------
# codeword enumeration and sampling
# ---------------------------------------------------------------------------

def span_parts(fld, rows, offset=None, block_rows: int = BLOCK_ROWS):
    """``(prefix, suffixes)`` whose sums ``prefix + s`` are ``offset`` plus
    every GF(q)-combination of ``rows`` (q^len(rows) words, offset alone
    first; zero offset by default), in ``fld.dtype``.

    The first j rows, with q^j <= block_rows, span the prefix block (offset
    included); ``suffixes`` is an odometer over the coefficients of the
    remaining rows, yielding one n-vector per coefficient tuple, the zero
    vector first.
    """
    rows = np.asarray(rows)
    k, n = rows.shape
    q = fld.q
    j = 0
    while j < k and q ** (j + 1) <= block_rows:
        j += 1
    j = max(j, 1) if k >= 1 else 0
    zero = np.zeros(n, dtype=fld.dtype)
    prefix = (zero if offset is None else fld.vec_add(zero, offset))[None, :]
    scalars = np.arange(q, dtype=fld.dtype)[:, None]
    for row in rows[:j]:
        scaled = fld.vec_mul(scalars, row[None, :])
        prefix = fld.vec_add(prefix[:, None, :], scaled[None, :, :]).reshape(-1, n)

    def suffixes():
        for tail in itertools.product(range(q), repeat=k - j):
            suffix = np.zeros(n, dtype=fld.dtype)
            for c, row in zip(tail, rows[j:]):
                if c:
                    suffix = fld.vec_add(suffix, fld.vec_mul(c, row))
            yield suffix

    return prefix, suffixes()


def all_codewords(code: LrcCode, cap: int = EXHAUSTIVE_REPAIR_CAP) -> np.ndarray:
    """Every codeword, the all-zero one first."""
    fld = code.field
    q, k = fld.q, code.generator_matrix.shape[0]
    if q**k > cap:
        raise TooLarge(f"q^k = {q**k} exceeds cap {cap}")
    prefix, suffixes = span_parts(fld, code.generator_matrix)
    next(suffixes)  # the zero shift: the prefix block itself
    return np.vstack([prefix, *(fld.vec_add(prefix, s[None, :]) for s in suffixes)])


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

    n: int
    set_checks: list[tuple[bool, bool]] = dc_field(default_factory=list)
    geometry_ok: bool = True
    failures: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.geometry_ok and all(a and b for a, b in self.set_checks)


def verify_definition1(code: LrcCode, proven: np.ndarray | None = None) -> LocalityReport:
    """Check that each coordinate is determined by each of its two sets.

    ``proven`` is an optional (2, n) mask of (set, coordinate) pairs already
    proven local (``locality_certificate``); the rank test runs only on the
    others.  Without it every pair gets the rank test, so codes without
    recovery groups need no repair plan.
    """
    fld = code.field
    g = code.generator_matrix
    n = code.params.n
    report = LocalityReport(n=n)
    for i, (i1, i2) in enumerate(code.recovery_sets):
        if i in i1 or i in i2:
            report.geometry_ok = False
            report.failures.append(f"coordinate {i} contained in its own recovery set")
        if set(i1) & set(i2):
            report.geometry_ok = False
            report.failures.append(f"recovery sets of coordinate {i} overlap")
        if len(i1) > code.params.r1 or len(i2) > code.params.r2:
            report.geometry_ok = False
            report.failures.append(f"recovery set of coordinate {i} too large")
        verdicts = []
        for s, idx in enumerate((i1, i2)):
            ok = ((proven is not None and bool(proven[s, i]))
                  or gflinalg.in_span(fld, g[:, list(idx)].T, g[:, i]))
            verdicts.append(ok)
            if not ok:
                report.failures.append(
                    f"coordinate {i} not determined by set {len(verdicts)}"
                )
        report.set_checks.append((verdicts[0], verdicts[1]))
    return report


def repair_roundtrip_wrong(code: LrcCode, codewords: np.ndarray) -> np.ndarray:
    """(2, B, n) mask of wrong rebuilds: [s, b, i] is True when repairing
    coordinate i of word b through set s + 1 does not give back its symbol.

    Per set, every coordinate of every codeword is rebuilt at once, in
    ``field.dtype``: for each of the r columns of the plan, one (B, n) gather
    of the symbols and one ``vec_axpy`` with that column's weights.  Column
    by column keeps the temporaries at (B, n); a (B, n, r) gather would widen
    to intp and raise the peak memory of a 128-word rebuild by about 2 MB.
    A (coordinate, set) whose interpolation nodes collide cannot repair at
    all, so it is wrong for every codeword.
    """
    fld = code.field
    words = gflinalg.as_matrix(fld, codewords).astype(fld.dtype, copy=False)
    n = len(code.recovery_sets)
    if words.shape[1] != n:
        raise ValueError(f"words have {words.shape[1]} symbols, expected n={n}")
    wrong = np.empty((2, *words.shape), dtype=bool)
    for s, plan in enumerate(code.repair_plan):
        rebuilt = np.zeros(words.shape, dtype=fld.dtype)
        for h in range(plan.index.shape[1]):
            rebuilt = fld.vec_axpy(rebuilt, plan.weights[:, h], words[:, plan.index[:, h]])
        np.not_equal(rebuilt, words, out=wrong[s])
        wrong[s][:, plan.collide] = True
    return wrong


def repair_roundtrip_counts(code: LrcCode, codewords: np.ndarray) -> int:
    """Number of (codeword, coordinate, set) repair mismatches; 0 when exact."""
    return int(np.count_nonzero(repair_roundtrip_wrong(code, codewords)))


def locality_certificate(code: LrcCode, row_wrong: np.ndarray) -> np.ndarray:
    """(2, n) mask of the (set, coordinate) pairs that the round trip on the
    generator rows proves local.

    ``row_wrong`` is ``repair_roundtrip_wrong`` of the generator matrix.  A
    pair rebuilt exactly on every row satisfies g_i = sum_h w_h g_{index_h}
    as columns; it is proven when every nonzero weight sits on a member of
    its own recovery set, so neither padding (index 0) nor a stale or
    corrupted plan can prove it.
    """
    proven = ~row_wrong.any(axis=1)
    for s, plan in enumerate(code.repair_plan):
        member = np.zeros((len(code.recovery_sets), row_wrong.shape[2]), dtype=bool)
        for i, pair in enumerate(code.recovery_sets):
            member[i, list(pair[s])] = True
        on_set = np.take_along_axis(member, plan.index, axis=1) | (plan.weights == 0)
        proven[s] &= on_set.all(axis=1)
    return proven


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
    splits each lead's words into a prefix block and shifts s, and
    wt(prefix + s) = n - #{j : prefix[:, j] = -s_j}.  Each shift costs one
    comparison with the block, into one reused bool buffer, and one row sum
    in the narrowest unsigned type that holds n.
    """
    fld = code.field
    g = code.generator_matrix
    q, (k, width) = fld.q, g.shape
    total = q**k
    if total > cap:
        raise TooLarge(f"q^k = {total} exceeds enumeration cap {cap}")
    count = np.min_scalar_type(width)
    best = code.params.n
    for lead in range(k):
        prefix, suffixes = span_parts(fld, g[lead + 1:], offset=g[lead])
        same = np.empty(prefix.shape, dtype=bool)
        for suffix in suffixes:
            np.equal(prefix, fld.vec_neg(suffix), out=same)
            best = min(best, width - int(same.sum(axis=1, dtype=count).max()))
    return best


@dataclass
class DimensionReport:
    k: int
    dim_v1: int
    dim_v2: int
    dim_sum: int
    budget: int
    identity_holds: bool
    rational_bound: int | None = None
    rational_bound_holds: bool | None = None


def dimension_report(code: LrcCode) -> DimensionReport:
    """k = dim V1 + dim V2 - dim(V1 + V2), plus the rational-level (m = 1)
    lower bound k >= dim V1 + dim V2 - (budget + 1)."""
    d = code.dims
    k = code.params.k
    rep = DimensionReport(
        k=k,
        dim_v1=d.dim_v1,
        dim_v2=d.dim_v2,
        dim_sum=d.dim_sum,
        budget=d.budget,
        identity_holds=(k == d.dim_v1 + d.dim_v2 - d.dim_sum),
    )
    if code.spec.m == 1:
        rep.rational_bound = d.dim_v1 + d.dim_v2 - (d.budget + 1)
        rep.rational_bound_holds = k >= rep.rational_bound
    return rep


@dataclass
class VerificationReport:
    """Results of ``verify_code``; ``distance`` and ``distance_ok`` are None
    when the distance phase was skipped."""

    ok: bool
    locality_passed: bool
    locality_checks: list[tuple[bool, bool]]
    repair_mismatches: int
    repair_words: int
    repair_exact: bool
    distance: int | None
    d_designed: int
    distance_ok: bool | None
    seed: int
    runtimes: dict
    failures: list[str]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "locality_passed": self.locality_passed,
            "locality_checks": [[a, b] for a, b in self.locality_checks],
            "repair_mismatches": self.repair_mismatches,
            "repair_words": self.repair_words,
            "repair_exact": self.repair_exact,
            "distance": self.distance,
            "d_designed": self.d_designed,
            "distance_ok": self.distance_ok,
            "seed": self.seed,
            "runtimes": {k: round(v, 6) for k, v in self.runtimes.items()},
            "failures": self.failures,
        }


def verify_code(
    code: LrcCode,
    seed: int = 0,
    rounds: int = 100,
    distance_cap: int = DEFAULT_ENUM_CAP,
    exact_distance: bool | None = None,
) -> VerificationReport:
    """Run the full check suite: locality, repair round trips, distance.

    Repair uses every codeword when q^k <= 10^4, otherwise ``rounds`` seeded
    random ones.  The round trips on the generator rows run once, right after
    integrity, and serve twice: by linearity they prove repair exact for
    every codeword (``repair_exact``), and each pair they rebuild exactly
    through its own set's members is proven local, so the rank test of
    ``verify_definition1`` runs only on the rest (timed under "locality").
    The verdicts and failure lines are those of the rank test alone.  Distance is
    enumerated exactly when q^k <= distance_cap; ``exact_distance=True``
    forces the attempt (raising TooLarge beyond the cap), ``False`` skips it.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    runtimes = {}
    failures = []
    q, k = code.field.q, code.params.k

    t0 = time.perf_counter()
    canonical = [p.coords for p in code.spec.places()]
    if [p.coords for p in code.places] != canonical:
        failures.append("place list differs from the canonical enumeration")
    if gflinalg.rank(code.field, code.generator_matrix) != k:
        failures.append("generator matrix is not full row rank")
    runtimes["integrity"] = time.perf_counter() - t0
    integrity_ok = not failures

    t0 = time.perf_counter()
    row_wrong = repair_roundtrip_wrong(code, code.generator_matrix)
    loc = verify_definition1(code, locality_certificate(code, row_wrong))
    runtimes["locality"] = time.perf_counter() - t0
    failures.extend(loc.failures)

    t0 = time.perf_counter()
    if q**k <= EXHAUSTIVE_REPAIR_CAP:
        words = all_codewords(code)
    else:
        words = random_codewords(code, rounds, seed)
    mismatches = repair_roundtrip_counts(code, words)
    row_mismatches = int(np.count_nonzero(row_wrong))
    runtimes["repair"] = time.perf_counter() - t0
    if mismatches:
        failures.append(f"{mismatches} repair round trips returned a wrong symbol")
    if row_mismatches:
        failures.append(f"repair is not exact: {row_mismatches} round trips on generator rows "
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

    ok = (integrity_ok and loc.passed and mismatches == 0 and row_mismatches == 0
          and distance_ok is not False)
    return VerificationReport(
        ok=ok,
        locality_passed=loc.passed,
        locality_checks=loc.set_checks,
        repair_mismatches=mismatches,
        repair_words=int(words.shape[0]),
        repair_exact=row_mismatches == 0,
        distance=distance,
        d_designed=code.params.d_designed,
        distance_ok=distance_ok,
        seed=seed,
        runtimes=runtimes,
        failures=failures,
    )
