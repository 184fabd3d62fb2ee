"""Singleton-type distance bounds and asymptotic rate/distance trade-off lines.

The six upper bounds on the minimum distance of an [n, k, d] code with
availability t and localities (r_1, ..., r_t):

    singleton:  d <= n - k - ceil(k/r) + 2                      (t = 1)
    tb:         d <= n - sum_{i=0}^{t} floor((k-1)/r^i)          (equal r)
    wz:         d <= n - k - ceil(((k-1)t+1)/((r-1)t+1)) + 2     (equal r)
    rpdv:       d <= n - k - ceil(kt/r) + t + 1                  (equal r)
    bt:         d <= n - k + 1 - sum_i floor((k-1)/prod tail)    (sorted r_i)
    bmq:        d <= n - k - ceil(((k-1)t+1)/(1+sum (r_i-1))) + 2

Trade-off lines live in the (relative distance, rate) plane; all constants
are exact fractions.  Lines whose intercept is not positive are returned
with a ``vacuous`` flag instead of being rejected.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DenominatorZero, FieldTooLarge, NotAPrimePower, RegimeViolation
from .field import MAX_ORDER, prime_factors

REGIME_CAP = 64

# regime tokens accepted by gs_line and emitted by regimes()
BTV = "btv"
THM33 = "thm33"
THM34 = "thm34"
THM35 = "thm35"


def _additive_pair(ell: int, a: int, b: int) -> bool:
    return ell % a == 0 and ell % b == 0 and a * b <= ell


# The admissible regimes: token -> (condition on l, a = r1 + 1, b = r2 + 1;
# its wording).  Under btv, (r1+1) | l+1 and (r2+1) | l already make the two
# orders coprime.
REGIME_TABLE = {
    BTV: (lambda ell, a, b: (ell + 1) % a == 0 and ell % b == 0,
          "(r1+1) | l+1 and (r2+1) | l"),
    THM33: (lambda ell, a, b: ell % a == 0 and gcd(a - 1, ell - 1) % b == 0,
            "(r1+1) | l and (r2+1) | gcd(r1, l-1)"),
    f"{THM34}.1": (lambda ell, a, b: (ell - 1) % a == 0 and (ell - 1) % b == 0 and gcd(a, b) == 1,
                   "(r_i+1) | l-1 with coprime orders"),
    f"{THM34}.2": (_additive_pair, "(r_i+1) | l with (r1+1)(r2+1) <= l"),
    f"{THM35}.1": (lambda ell, a, b: (ell + 1) % a == 0 and (ell + 1) % b == 0 and gcd(a, b) == 1,
                   "(r_i+1) | l+1 with coprime orders"),
    f"{THM35}.2": (_additive_pair, "(r_i+1) | l with (r1+1)(r2+1) <= l"),
}


def check_regime(family: str, ell: int, r1: int, r2: int) -> None:
    """Raise RegimeViolation unless (l, r1, r2) meets the regime ``family``,
    a token of REGIME_TABLE or a theorem name (thm34) admitting any case;
    l must be a prime power, as in ``regimes``."""
    cases = [t for t in REGIME_TABLE if family in (t, t.partition(".")[0])]
    if not cases:
        raise ValueError(f"unknown regime {family!r}")
    prime_power(ell)
    if not any(REGIME_TABLE[t][0](ell, r1 + 1, r2 + 1) for t in cases):
        need = " or ".join(REGIME_TABLE[t][1] for t in cases)
        raise RegimeViolation(f"{family}: need {need} (l={ell}, r1={r1}, r2={r2})")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_locality(r: int) -> None:
    if r < 1:
        raise ValueError("locality must be >= 1")


def _check_nkr(n: int, k: int, r: int, t: int = 1):
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    _check_locality(r)
    if t < 1:
        raise ValueError("availability must be >= 1")


def singleton_lrc(n: int, k: int, r: int) -> int:
    """Singleton-type bound for a single recovery set: bmq at t = 1."""
    _check_nkr(n, k, r)
    return bmq_bound(n, k, [r])


def tb_bound(n: int, k: int, r: int, t: int) -> int:
    """bt at t equal localities."""
    _check_nkr(n, k, r, t)
    return bt_bound(n, k, [r] * t)


def wz_bound(n: int, k: int, r: int, t: int) -> int:
    """bmq at t equal localities."""
    _check_nkr(n, k, r, t)
    return bmq_bound(n, k, [r] * t)


def rpdv_bound(n: int, k: int, r: int, t: int) -> int:
    _check_nkr(n, k, r, t)
    return n - k - _ceil_div(k * t, r) + t + 1


def bt_bound(n: int, k: int, localities: list[int]) -> int:
    """Bound for ascending localities r_1 <= ... <= r_t."""
    rs = list(localities)
    if not rs:
        raise ValueError("need at least one locality")
    if rs != sorted(rs):
        raise ValueError("localities must be sorted ascending")
    _check_nkr(n, k, rs[0], len(rs))
    t = len(rs)
    total = 0
    for i in range(1, t + 1):
        prod = 1
        for j in range(t - i, t):
            prod *= rs[j]
        total += (k - 1) // prod
    return n - k + 1 - total


def bmq_bound(n: int, k: int, localities: list[int]) -> int:
    """Wang-Zhang bound for distinct localities r_1, ..., r_t."""
    rs = list(localities)
    if not rs:
        raise ValueError("need at least one locality")
    _check_nkr(n, k, min(rs), len(rs))
    t = len(rs)
    return n - k - _ceil_div((k - 1) * t + 1, 1 + sum(r - 1 for r in rs)) + 2


@dataclass(frozen=True)
class TradeoffLine:
    """Line  delta + slope * R >= intercept  in the (delta, R) plane."""

    ell: int
    r1: int
    r2: int
    family: str
    slope: Fraction
    intercept: Fraction
    vacuous: bool

    def csv_row(self) -> list:
        return [
            self.ell, self.r1, self.r2, self.family,
            self.slope.numerator, self.slope.denominator,
            self.intercept.numerator, self.intercept.denominator,
            self.vacuous,
        ]


TRADEOFF_CSV_HEADER = [
    "ell", "r1", "r2", "theorem",
    "slope_num", "slope_den", "intercept_num", "intercept_den", "vacuous",
]


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, w) with n = p^w, or None; an n above MAX_ORDER is refused before
    it is factored."""
    if n > MAX_ORDER:
        raise FieldTooLarge(f"l = {n} exceeds cap {MAX_ORDER}")
    f = prime_factors(n)
    return (f[0], len(f)) if f and f[0] == f[-1] else None


def prime_power(ell: int) -> tuple[int, int]:
    """(p, w) with l = p^w; NotAPrimePower otherwise, the one refusal of
    such an l."""
    pw = is_prime_power(ell)
    if pw is None:
        raise NotAPrimePower(f"l = {ell} is not a prime power")
    return pw


def btv_line(ell: int, r1: int, r2: int, check: bool = True) -> TradeoffLine:
    """Direct-product line on the xz-tower: slope (r1+1)(r2+1)/(r1 r2),
    intercept (l-2)/(l-1) - (r1+r2-2)/(q-1)."""
    if r1 * r2 == 0:
        raise DenominatorZero("trade-off line undefined at r1 = 0 or r2 = 0")
    _check_locality(min(r1, r2))
    if check:
        check_regime(BTV, ell, r1, r2)
    q = ell * ell
    slope = Fraction((r1 + 1) * (r2 + 1), r1 * r2)
    intercept = Fraction(ell - 2, ell - 1) - Fraction(r1 + r2 - 2, q - 1)
    return TradeoffLine(ell, r1, r2, BTV, slope, intercept, intercept <= 0)


def gs_line(ell: int, r1: int, r2: int, family: str, check: bool = True) -> TradeoffLine:
    """Tower construction line: slope (r1+1)(r2+1)/(r1 r2 - 1), intercept
    (l-2)/(l-1) - (r1+r2)/(q-c) - (r1-r2)^2 / ((q-c)(r1 r2 - 1)) with
    c = l on the y-tower families and c = 1 on the xz-tower family."""
    _check_locality(min(r1, r2))
    if r1 * r2 == 1:
        raise DenominatorZero("trade-off line undefined at r1 = r2 = 1")
    if check:
        if family not in (THM33, THM34, THM35):
            raise ValueError(f"unknown line family {family!r}")
        check_regime(family, ell, r1, r2)
    c = 1 if family == THM35 else ell
    q = ell * ell
    slope = Fraction((r1 + 1) * (r2 + 1), r1 * r2 - 1)
    intercept = (
        Fraction(ell - 2, ell - 1)
        - Fraction(r1 + r2, q - c)
        - Fraction(1, q - c) * Fraction((r1 - r2) ** 2, r1 * r2 - 1)
    )
    return TradeoffLine(ell, r1, r2, family, slope, intercept, intercept <= 0)


@dataclass(frozen=True)
class RegimeRow:
    ell: int
    r1: int
    r2: int
    theorem: str
    line_defined: bool


REGIME_CSV_HEADER = ["ell", "r1", "r2", "theorem", "line_defined"]


def regimes(ell: int) -> list[RegimeRow]:
    """All admissible locality pairs per family, for one l.

    Rows where the trade-off line is undefined (r1 = r2 = 1) are kept and
    footnoted via ``line_defined``; btv never admits r1 = r2 = 1.
    """
    prime_power(ell)
    if ell > REGIME_CAP:
        raise ValueError(f"l capped at {REGIME_CAP}")
    return [
        RegimeRow(ell, r1, r2, token, r1 * r2 > 1)
        for r1 in range(1, ell + 1)
        for r2 in range(1, ell + 1)
        for token, (holds, _) in REGIME_TABLE.items()
        if holds(ell, r1 + 1, r2 + 1)
    ]


def csv_text(header: list[str], rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def tradeoff_csv(lines: list[TradeoffLine]) -> str:
    return csv_text(TRADEOFF_CSV_HEADER, [ln.csv_row() for ln in lines])


def regimes_csv(rows: list[RegimeRow]) -> str:
    return csv_text(
        REGIME_CSV_HEADER,
        [[r.ell, r.r1, r.r2, r.theorem, r.line_defined] for r in rows],
    )
