from fractions import Fraction

import pytest

from lrctower import (
    bmq_bound,
    bt_bound,
    btv_line,
    gs_line,
    regimes,
    rpdv_bound,
)
from lrctower.bounds import prime_power, regimes_csv, tradeoff_csv
from lrctower.errors import DenominatorZero, FieldTooLarge, NotAPrimePower, RegimeViolation

from conftest import bound_formulas, primes_upto


def test_frozen_examples():
    # the Singleton-type bound is bmq (and bt) at t = 1
    assert bmq_bound(18, 8, [2]) == bt_bound(18, 8, [2]) == 8
    assert bmq_bound(6, 2, [2]) == bt_bound(6, 2, [2]) == 5
    assert bmq_bound(10, 4, [7]) == 10 - 4 + 1  # r >= k: classical Singleton
    assert bmq_bound(6, 3, [1]) == 2
    assert rpdv_bound(18, 8, 2, 2) == 5
    assert rpdv_bound(120, 40, 2, 2) == 43
    assert bt_bound(18, 8, [2, 2]) == 7
    # bmq was pinned at 9 and 8 while its denominator read 1 + sum r_i.  At
    # equal localities it must equal wz, so [2, 2] gives 7.  [2, 1] gives 4,
    # and 8 was never attainable: if every symbol has a one-symbol recovery
    # set, the nonzero columns of a generator matrix fall into at least k = 8
    # classes of scalar copies, each of size >= 2.  With 9 classes each holds
    # 2 of the 18 coordinates and the code is a doubled [9, 8] code, so
    # d <= 2 * 2 = 4; with 8 classes, puncturing to one coordinate per class
    # gives all of F^8, so some codeword is nonzero on one class alone, and
    # some class has at most 2 coordinates, so d <= 2.
    assert bmq_bound(18, 8, [2, 2]) == 7
    assert bmq_bound(18, 8, [2, 1]) == 4


def grid_points():
    pts = []
    for n in range(3, 55):
        for k in range(1, n):
            for r in range(1, 9):
                pts.append((n, k, r))
    assert len(pts) >= 10**4
    return pts


def test_availability_one_collapse_identities():
    for n, k, r in grid_points():
        one = bound_formulas(n, k, [r])
        s = one["singleton"]
        # at availability 1 both multi-locality bounds reduce to the
        # Singleton-type bound, and so do the closed forms of tb and wz
        assert bt_bound(n, k, [r]) == s
        assert bmq_bound(n, k, [r]) == s
        assert one["tb"] == one["wz"] == s
        for t in (2, 3):
            assert bmq_bound(n, k, [r] * t) == bound_formulas(n, k, [r] * t)["wz"]


def test_equal_locality_bounds_match_their_own_formulas():
    """singleton, tb and wz are bmq and bt at equal localities: bmq and bt
    give their closed forms, written out in ``bound_formulas``."""
    for n in range(1, 40):
        for k in range(1, n + 1):
            for r in range(1, 12):
                want = bound_formulas(n, k, [r])["singleton"]
                assert bmq_bound(n, k, [r]) == bt_bound(n, k, [r]) == want
                for t in range(1, 5):
                    want = bound_formulas(n, k, [r] * t)
                    assert bt_bound(n, k, [r] * t) == want["tb"]
                    assert bmq_bound(n, k, [r] * t) == want["wz"]
    # and both keep the input checks: k > n, r = 0 and no locality (t = 0)
    for (n, k, rs), message in [((4, 5, [2]), "need 1 <= k <= n"), ((5, 2, [0]), "locality must be >= 1"),
                                ((5, 2, [0, 2]), "locality must be >= 1"),
                                ((5, 2, []), "need at least one locality")]:
        for bound in (bt_bound, bmq_bound):
            with pytest.raises(ValueError, match=message):
                bound(n, k, rs)


def test_bounds_monotone_in_k():
    # singleton, tb and wz are the t = 1 and equal-locality cases of bt and bmq
    for n in (12, 18, 30):
        for r in (1, 2, 3):
            for t in (1, 2, 3):
                prev = None
                for k in range(1, n):
                    vals = (
                        rpdv_bound(n, k, r, t),
                        bt_bound(n, k, [r] * t),
                        bmq_bound(n, k, [r] * t),
                    )
                    if prev is not None:
                        assert all(v <= p for v, p in zip(vals, prev))
                    prev = vals


def test_constructed_code_respects_upper_bounds(golden_code):
    from lrctower import brute_force_distance

    d = brute_force_distance(golden_code)
    n, k = golden_code.params.n, golden_code.params.k
    r1, r2 = golden_code.params.r1, golden_code.params.r2
    closed = bound_formulas(n, k, [r1, r2])
    assert d <= closed["singleton"]
    assert d <= closed["tb"]
    assert d <= closed["wz"]
    assert d <= rpdv_bound(n, k, max(r1, r2), 2)
    assert d <= bt_bound(n, k, sorted([r1, r2]))
    assert d <= bmq_bound(n, k, [r1, r2])


def test_bt_requires_sorted_localities():
    with pytest.raises(ValueError):
        bt_bound(18, 8, [2, 1])


def test_tradeoff_lines():
    ln = gs_line(8, 3, 1, "thm35")
    assert ln.intercept == Fraction(48, 63) == Fraction(16, 21)
    assert ln.slope == Fraction(8, 2)
    assert not ln.vacuous

    ln2 = btv_line(8, 2, 3)
    assert ln2.intercept == Fraction(6, 7) - Fraction(3, 63) == Fraction(17, 21)

    ln3 = gs_line(3, 2, 1, "thm33")
    assert ln3.intercept == Fraction(-1, 6) and ln3.vacuous

    ln4 = btv_line(4, 4, 1)
    assert ln4.slope == Fraction(10, 4)


def test_tradeoff_errors():
    with pytest.raises(DenominatorZero):
        gs_line(4, 1, 1, "thm34")
    with pytest.raises(DenominatorZero):
        gs_line(4, 1, 1, "thm35")
    for r1, r2 in ((0, 3), (3, 0), (0, 0)):
        for check in (True, False):
            with pytest.raises(DenominatorZero, match="r1 = 0 or r2 = 0"):
                btv_line(8, r1, r2, check=check)
    with pytest.raises(RegimeViolation):
        btv_line(8, 3, 1)  # 4 does not divide 9
    with pytest.raises(RegimeViolation):
        gs_line(8, 2, 2, "thm33")
    with pytest.raises(RegimeViolation):
        gs_line(5, 3, 3, "thm35")


def test_intercepts_increase_along_ell():
    prev_gs = prev_btv = None
    for ell in (8, 16, 32, 64):
        cur = gs_line(ell, 3, 1, "thm35").intercept
        if prev_gs is not None:
            assert cur > prev_gs
        prev_gs = cur
        cur = btv_line(ell, 3, 1, check=False).intercept
        if prev_btv is not None:
            assert cur > prev_btv
        prev_btv = cur
        assert cur < Fraction(ell - 2, ell - 1)


@pytest.mark.parametrize("make", [
    lambda check: btv_line(8, -1, -1, check=check),
    lambda check: btv_line(8, 2, -3, check=check),
    lambda check: gs_line(8, -1, 2, "thm34", check=check),
    lambda check: gs_line(8, -1, -1, "thm34", check=check),  # r1 * r2 = 1, but no line at r = -1
    lambda check: gs_line(8, 0, 6, "thm33", check=check),
], ids=["btv(-1,-1)", "btv(2,-3)", "thm34(-1,2)", "thm34(-1,-1)", "thm33(0,6)"])
def test_tradeoff_refuses_locality_below_one(make):
    """A locality below 1 has no line, whatever the regime check says."""
    for check in (True, False):
        with pytest.raises(ValueError, match="^locality must be >= 1$"):
            make(check)


def test_regime_tables_spot_checks():
    r3 = regimes(3)
    assert any(r.theorem == "thm33" and (r.r1, r.r2) == (2, 1) for r in r3)
    r4 = regimes(4)
    row = next(r for r in r4 if r.theorem == "thm34.2" and (r.r1, r.r2) == (1, 1))
    assert not row.line_defined
    r5 = regimes(5)
    assert any(r.theorem == "thm35.1" and (r.r1, r.r2) == (1, 2) for r in r5)
    with pytest.raises(NotAPrimePower):
        regimes(6)
    with pytest.raises(NotAPrimePower, match="^l = 6 is not a prime power$"):
        gs_line(6, 1, 2, "thm34")  # a line's regime check refuses the same l


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    for n in (6, 1):
        with pytest.raises(NotAPrimePower, match=f"^l = {n} is not a prime power$"):
            prime_power(n)
    assert prime_power(2**16) == (2, 16)  # the largest l that is factored


def test_prime_power_against_sieve():
    oracle = {p**w: (p, w) for p in primes_upto(10**4) for w in range(1, 14) if p**w <= 10**4}
    for n in range(-5, 10**4 + 1):
        if n in oracle:
            assert prime_power(n) == oracle[n], n
        else:
            with pytest.raises(NotAPrimePower):
                prime_power(n)


@pytest.mark.parametrize("n", [2**16 + 1, 2**61 - 1])
def test_prime_power_refuses_oversized_l_before_factoring(n):
    with pytest.raises(FieldTooLarge, match=f"^l = {n} exceeds cap 65536$"):
        prime_power(n)


def test_csv_emission():
    lines = [gs_line(8, 3, 1, "thm35"), btv_line(8, 2, 3)]
    text = tradeoff_csv(lines)
    rows = text.strip().split("\n")
    assert rows[0] == "ell,r1,r2,theorem,slope_num,slope_den,intercept_num,intercept_den,vacuous"
    assert rows[1] == "8,3,1,thm35,4,1,16,21,False"
    text2 = regimes_csv(regimes(3))
    assert text2.startswith("ell,r1,r2,theorem,line_defined\n")
    assert "3,2,1,thm33,True" in text2
