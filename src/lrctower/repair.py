"""Local repair, locality verification and exact minimum distance.

Repair reads the symbols on one recovery set, interpolates the unique
polynomial of degree < |set| through the (repair-variable, symbol) pairs
and evaluates it at the erased place's repair-variable value.  Codeword
functions restrict to exactly such polynomials on every orbit, so the
round trip is exact.

Locality is checked by the linear determination criterion: coordinate i is
a function of the coordinates in I iff generator column g_i lies in the
span of the columns indexed by I.

Exact minimum distance enumerates one codeword per scalar class: Hamming
weight does not change under multiplication by a nonzero scalar, so the
messages whose leading nonzero symbol is 1 reach every weight, and the
sweep costs (q^k - 1)/(q - 1) codewords instead of q^k.  The enumeration
cap is still compared with q^k.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field

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


def repair(code: LrcCode, pattern: ErasurePattern, strict: bool = False) -> int:
    """Recover the erased symbol through the chosen recovery set."""
    fld = code.field
    i = pattern.coord
    check_coord(code, i)
    idx, lam = _repair_weights(code, i, pattern.set_choice)
    if strict:
        known = [h for h in range(code.params.n) if h != i]
        rhs = np.array([pattern.codeword[h] for h in known], dtype=np.int64)
        if not gflinalg.in_span(fld, code.generator_matrix[:, known], rhs):
            raise NotACodeword("unerased symbols are not consistent with the code")
    out = 0
    for h, l in zip(idx, lam):
        out = fld.add(out, fld.mul(l, int(pattern.codeword[h])))
    return out


def _repair_weights(code: LrcCode, i: int, set_choice: int) -> tuple[tuple[int, ...], list[int]]:
    """Recovery-set indices and the Lagrange coefficients lambda_h such that
    the erased symbol equals sum_h lambda_h * c_h, for the unique polynomial
    of degree < |set| through the (repair-variable, symbol) pairs."""
    fld = code.field
    idx = code.recovery_sets[i][set_choice - 1]
    wv = code.w_values(set_choice)
    xs = [int(wv[h]) for h in idx]
    x0 = int(wv[i])
    nodes = xs + [x0]
    if len(set(nodes)) != len(nodes):
        raise DuplicateWValues(f"repair nodes for coordinate {i} collide: {nodes}")
    lam = []
    for h, xh in enumerate(xs):
        v = 1
        for h2, x2 in enumerate(xs):
            if h2 != h:
                v = fld.mul(v, fld.mul(fld.sub(x0, x2), fld.inv(fld.sub(xh, x2))))
        lam.append(v)
    return idx, lam


# ---------------------------------------------------------------------------
# codeword enumeration and sampling
# ---------------------------------------------------------------------------

def span_blocks(fld, rows, offset=None, block_rows: int = BLOCK_ROWS):
    """Yield ``offset`` plus every GF(q)-combination of ``rows`` (q^len(rows)
    words, offset alone first; zero offset by default) as stacked blocks in
    ``fld.dtype``.

    The first j rows, with q^j <= block_rows, form one prefix block; the
    odometer over the coefficients of the remaining rows shifts it, one
    block per coefficient tuple.
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
    if j == k:
        yield prefix
        return
    for tail in itertools.product(range(q), repeat=k - j):
        suffix = np.zeros(n, dtype=fld.dtype)
        for c, row in zip(tail, rows[j:]):
            if c:
                suffix = fld.vec_add(suffix, fld.vec_mul(c, row))
        yield fld.vec_add(prefix, suffix[None, :])


def all_codewords(code: LrcCode, cap: int = EXHAUSTIVE_REPAIR_CAP) -> np.ndarray:
    """Every codeword, the all-zero one first."""
    q, k = code.field.q, code.generator_matrix.shape[0]
    if q**k > cap:
        raise TooLarge(f"q^k = {q**k} exceeds cap {cap}")
    return np.vstack(list(span_blocks(code.field, code.generator_matrix)))


def random_codewords(code: LrcCode, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, code.field.q, size=(count, code.generator_matrix.shape[0]))
    return gflinalg.matmul(code.field, msgs.astype(np.int64), code.generator_matrix)


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


def verify_definition1(code: LrcCode) -> LocalityReport:
    """Check that each coordinate is determined by each of its two sets."""
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
        for idx in (i1, i2):
            ok = gflinalg.in_span(fld, g[:, list(idx)].T, g[:, i])
            verdicts.append(ok)
            if not ok:
                report.failures.append(
                    f"coordinate {i} not determined by set {len(verdicts)}"
                )
        report.set_checks.append((verdicts[0], verdicts[1]))
    return report


def repair_roundtrip_counts(code: LrcCode, codewords: np.ndarray) -> int:
    """Number of (codeword, coordinate, set) repair mismatches; 0 when exact.

    A (coordinate, set) whose interpolation nodes collide cannot repair at
    all, so it counts as a mismatch for every codeword.
    """
    fld = code.field
    mism = 0
    for i in range(code.params.n):
        for j in (1, 2):
            try:
                idx, lam = _repair_weights(code, i, j)
            except DuplicateWValues:
                mism += codewords.shape[0]
                continue
            acc = np.zeros(codewords.shape[0], dtype=np.int64)
            for h, l in zip(idx, lam):
                acc = fld.vec_add(acc, fld.vec_mul(codewords[:, h], l))
            mism += int(np.count_nonzero(acc != codewords[:, i]))
    return mism


def brute_force_distance(code: LrcCode, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Exact minimum Hamming weight over all nonzero codewords.

    Weight is invariant under nonzero scaling, so one message per scalar
    class is enough: the one whose leading nonzero symbol is 1.  For each
    lead row g[l] that is g[l] + span(g[l+1:]), (q^k - 1)/(q - 1) codewords
    in all, and the minimum over them is the minimum over all q^k - 1
    nonzero messages (a rank-deficient generator still yields its zero
    words, at weight 0).  The cap still applies to q^k, so exactly the same
    codes are enumerated or raise TooLarge.
    """
    g = code.generator_matrix
    q, k = code.field.q, g.shape[0]
    total = q**k
    if total > cap:
        raise TooLarge(f"q^k = {total} exceeds enumeration cap {cap}")
    best = code.params.n
    for lead in range(k):
        for block in span_blocks(code.field, g[lead + 1:], offset=g[lead]):
            best = min(best, int(np.count_nonzero(block, axis=1).min()))
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
    if code.params.m == 1:
        rep.rational_bound = d.dim_v1 + d.dim_v2 - (d.budget + 1)
        rep.rational_bound_holds = k >= rep.rational_bound
    return rep


@dataclass
class VerificationReport:
    ok: bool
    locality_passed: bool
    locality_checks: list[tuple[bool, bool]]
    repair_mismatches: int
    repair_words: int
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
    random ones.  Distance is enumerated exactly when q^k <= distance_cap;
    ``exact_distance=True`` forces the attempt (raising TooLarge beyond the
    cap), ``False`` skips it.  k counts the generator's rows, not ``params.k``.
    """
    runtimes = {}
    failures = []
    q, k = code.field.q, code.generator_matrix.shape[0]

    t0 = time.perf_counter()
    canonical = [p.coords for p in code.spec.places()]
    if [p.coords for p in code.places] != canonical:
        failures.append("place list differs from the canonical enumeration")
    if code.params.n != len(code.places) or code.generator_matrix.shape != (code.params.k, code.params.n):
        failures.append("parameter block inconsistent with matrix shape")
    elif gflinalg.rank(code.field, code.generator_matrix) != k:
        failures.append("generator matrix is not full row rank")
    runtimes["integrity"] = time.perf_counter() - t0
    integrity_ok = not failures

    t0 = time.perf_counter()
    loc = verify_definition1(code)
    runtimes["locality"] = time.perf_counter() - t0
    failures.extend(loc.failures)

    t0 = time.perf_counter()
    if q**k <= EXHAUSTIVE_REPAIR_CAP:
        words = all_codewords(code)
    else:
        words = random_codewords(code, rounds, seed)
    mismatches = repair_roundtrip_counts(code, words)
    runtimes["repair"] = time.perf_counter() - t0
    if mismatches:
        failures.append(f"{mismatches} repair round trips returned a wrong symbol")

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
        repair_words=int(words.shape[0]),
        distance=distance,
        d_designed=code.params.d_designed,
        distance_ok=distance_ok,
        seed=seed,
        runtimes=runtimes,
        failures=failures,
    )
