"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from fractions import Fraction
from math import gcd

import pytest

from lrctower import (
    FiniteField,
    TowerSpec,
    bmq_bound,
    bt_bound,
    brute_force_distance,
    build_recovery_group,
    combine,
    construct_lrc,
    genus,
    gs_line,
    orbit,
    regimes,
    rpdv_bound,
    verify_code,
    verify_definition1,
)
from lrctower.descriptor import code_from_descriptor, code_to_descriptor
from lrctower.errors import DenominatorZero
from lrctower.repair import repair_roundtrip_counts

from conftest import all_codewords, bound_formulas, compose, elements, inverse


def _report(cid: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def _mixed_pair(spec):
    return (build_recovery_group(spec, "additive", shifts="kernel"),
            build_recovery_group(spec, "multiplicative", order={3: 2, 4: 3, 5: 4}[spec.field.ell]))


def test_c1_golden_rational_code():
    t0 = time.perf_counter()
    f9 = FiniteField(3, 2)
    spec = TowerSpec("gs96", f9, 1)
    h1, h2 = _mixed_pair(spec)
    code = construct_lrc(spec, (h1, h2), 2)
    d = brute_force_distance(code)
    loc = verify_definition1(code)
    elapsed = time.perf_counter() - t0
    ok = (
        code.params.n == 6
        and code.params.k == 2
        and d == 4
        and code.params.r == (2, 1)
        and loc.passed
        and all(len(s1) and len(s2) and not set(s1) & set(s2)
                for s1, s2 in zip(*(sets.tolist() for sets in code.recovery_sets)))
        and elapsed < 1.0
    )
    _report("C1", ok, f"[6,{code.params.k}] d={d} localities=(2,1) in {elapsed:.3f}s")
    assert ok


def test_c2_tower_level_code():
    t0 = time.perf_counter()
    f9 = FiniteField(3, 2)
    spec = TowerSpec("gs96", f9, 2)
    h1, h2 = _mixed_pair(spec)
    code = construct_lrc(spec, (h1, h2), 6)
    d = brute_force_distance(code)
    words = all_codewords(code)  # 9^k <= 10^4: every codeword
    mismatches = repair_roundtrip_counts(code, words)
    t1, t2 = orbit(h1), orbit(h2)
    disjoint = all(set(t1[:, j]) & set(t2[:, j]) == {j} for j in range(code.params.n))
    elapsed = time.perf_counter() - t0
    ok = (
        code.params.n == 18
        and code.params.k >= 2
        and d >= 6
        and mismatches == 0
        and disjoint
        and elapsed < 10.0
    )
    _report("C2", ok, f"n=18 k={code.params.k} d={d} repaired {len(words)} codewords "
                      f"x 18 coords x 2 sets in {elapsed:.2f}s")
    assert ok


def test_c3_hermitian_code(hermitian_code):
    code = hermitian_code
    report = verify_code(code, exact_distance=True)
    d = report.distance
    ok = (
        code.params.n == 120
        and code.params.r == (1, 2)
        and report.locality_passed
        and report.repair_mismatches == 0
        and code.dims.budget == code.params.n - code.params.d_designed
        and d is not None
        and d >= code.params.d_designed
    )
    _report("C3", ok, f"n=120 k={code.params.k} localities=(1,2) exact d={d} "
                      f">= designed {code.params.d_designed}")
    assert ok


def test_c4_group_structure_suite():
    t0 = time.perf_counter()
    fields = {9: FiniteField(3, 2), 16: FiniteField(2, 4), 25: FiniteField(5, 2)}
    checked_pairs = 0
    checked_orbits = 0
    for q, fld in fields.items():
        for m in (1, 2):
            spec = TowerSpec("gs96", fld, m)
            h1, h2 = _mixed_pair(spec)
            assert combine(h1, h2) == "semidirect"
            for s in elements(h1):
                for t in elements(h2):
                    assert compose(spec, compose(spec, inverse(spec, t), s), t) == (1, fld.mul(t[0], s[1]))
                    checked_pairs += 1
            # G acts freely: the images t(s(P)) of each place (s in H1, t in
            # H2), read off the two orbit tables, are |H1|*|H2| distinct places
            t1, t2 = orbit(h1), orbit(h2)
            for j in range(len(spec.places())):
                assert len(set(t2[:, t1[:, j]].ravel().tolist())) == h1.order * h2.order
                checked_orbits += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _report("C4", ok, f"{checked_pairs} conjugation pairs, free action on "
                      f"{checked_orbits} places in {elapsed:.2f}s")
    assert ok


def test_c5_counting_and_genus_suite():
    fields = {2: FiniteField(2, 2), 3: FiniteField(3, 2),
              4: FiniteField(2, 4), 5: FiniteField(5, 2)}
    for ell, fld in fields.items():
        q = fld.q
        for m in (1, 2, 3):
            assert len(TowerSpec("gs96", fld, m).places()) == (q - ell) * ell ** (m - 1)
        for m in (1, 2):
            assert len(TowerSpec("gs95", fld, m).places()) == (q - 1) * ell ** (m - 1)
    genus_table = {
        (2, 1): 0, (2, 2): 1, (2, 3): 3,
        (3, 1): 0, (3, 2): 4, (3, 3): 16,
        (4, 1): 0, (4, 2): 9, (4, 3): 45,
        (5, 1): 0, (5, 2): 16, (5, 3): 96,
    }
    for (ell, m), g in genus_table.items():
        assert genus(TowerSpec("gs96", fields[ell], m)) == g
    _report("C5", True, "place counts (2 variants x 4 fields) and 12 genus values exact")


def test_c6a_bound_golden_values():
    # singleton, tb and wz are bmq at t = 1, bt and bmq at equal localities;
    # each is also checked against its own closed form
    vals = (
        bmq_bound(18, 8, [2]),
        bt_bound(18, 8, [2, 2]),
        bmq_bound(18, 8, [2, 2]),
        rpdv_bound(18, 8, 2, 2),
        bt_bound(18, 8, [2, 2]),
        bmq_bound(18, 8, [2, 2]),
    )
    closed = tuple(bound_formulas(18, 8, [2, 2]).values())
    intercept = gs_line(8, 3, 1, "thm35").intercept
    # bmq was pinned at 9, a value of the old denominator 1 + sum r_i; at
    # equal localities bmq must equal wz, pinned here at 7
    ok = vals == closed == (8, 7, 7, 5, 7, 7) and intercept == Fraction(48, 63)
    _report("C6a", ok, f"six bounds {vals}, intercept {intercept}")
    assert ok


def _grid():
    return [(n, k, r) for n in range(3, 55) for k in range(1, n) for r in range(1, 9)]


def test_c6b_availability_one_collapse_tb_wz_bt():
    grid = _grid()
    assert len(grid) >= 10**4
    # tb and wz at t = 1 are bt and bmq at one locality
    bad = [
        (n, k, r)
        for n, k, r in grid
        if not (bt_bound(n, k, [r]) == bmq_bound(n, k, [r]) == n - k - -(-k // r) + 2)
    ]
    ok = not bad
    _report("C6b", ok, f"{len(grid)} grid points, {len(bad)} exceptions")
    assert ok, f"collapse failed at {bad[:3]}"


def test_c6c_availability_one_collapse_bmq():
    """The multi-locality bound collapses to the Singleton-type bound at
    availability 1: bmq_bound(n, k, [r]) == n - k - ceil(k/r) + 2 exactly at
    every point of the C6b grid, since its denominator 1 + sum(r_i - 1) is r
    at t = 1."""
    grid = _grid()
    bad = [(n, k, r) for n, k, r in grid if bmq_bound(n, k, [r]) != n - k - -(-k // r) + 2]
    ok = not bad
    detail = ""
    if bad:
        n, k, r = bad[0]
        detail = (f"{len(bad)}/{len(grid)} exceptions; first (n,k,r)={bad[0]}: "
                  f"bmq={bmq_bound(n, k, [r])} vs singleton={n - k - -(-k // r) + 2}")
    _report("C6c", ok, detail)
    assert ok, (
        "availability-1 reduction of the multi-locality bound does not equal the "
        f"Singleton-type locality bound: {detail}"
    )


def test_c7_regime_tables():
    def divisors(x):
        return {d for d in range(1, x + 1) if x % d == 0}

    for ell in (3, 4, 5, 7, 8, 9):
        emitted = {(r.r1, r.r2, r.theorem) for r in regimes(ell)}
        expected = set()
        for r1 in range(1, ell + 1):
            for r2 in range(1, ell + 1):
                a, b = r1 + 1, r2 + 1
                if a in divisors(ell + 1) and b in divisors(ell) and gcd(a, b) == 1:
                    expected.add((r1, r2, "btv"))
                if a in divisors(ell) and b in divisors(gcd(r1, ell - 1)):
                    expected.add((r1, r2, "thm33"))
                if a in divisors(ell - 1) and b in divisors(ell - 1) and gcd(a, b) == 1:
                    expected.add((r1, r2, "thm34.1"))
                if a in divisors(ell) and b in divisors(ell) and a * b <= ell:
                    expected.add((r1, r2, "thm34.2"))
                if a in divisors(ell + 1) and b in divisors(ell + 1) and gcd(a, b) == 1:
                    expected.add((r1, r2, "thm35.1"))
                if a in divisors(ell) and b in divisors(ell) and a * b <= ell:
                    expected.add((r1, r2, "thm35.2"))
        assert emitted == expected, f"regime table mismatch at l={ell}"
    _report("C7", True, "tables for l in {3,4,5,7,8,9} match the divisor scan")


def test_c8_negative_controls(golden_code):
    # each single-index corruption of a recovery set is detected: the loader
    # refuses the set, by path, as not the orbit the code derives
    desc = code_to_descriptor(golden_code)
    n = desc["params"]["n"]
    flips = 0
    total = 0
    for entry in desc["recovery_sets"]:
        for setname in ("set1", "set2"):
            for pos in range(len(entry[setname])):
                mutated = json.loads(json.dumps(desc))
                sets = mutated["recovery_sets"][entry["coord"]][setname]
                sets[pos] = (sets[pos] + 1) % n
                total += 1
                try:
                    code_from_descriptor(mutated)
                except ValueError as err:
                    flips += str(err).startswith(f"recovery_sets[{entry['coord']}].{setname} = ")
    with pytest.raises(DenominatorZero):
        gs_line(4, 1, 1, "thm34")
    ok = flips == total == 18
    _report("C8", ok, f"{flips}/{total} single-index corruptions detected; "
                      "r1=r2=1 trade-off line raises DenominatorZero")
    assert ok
