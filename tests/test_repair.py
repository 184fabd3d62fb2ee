import dataclasses
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from lrctower import (
    ErasurePattern,
    FiniteField,
    TowerSpec,
    brute_force_distance,
    build_recovery_group,
    construct_lrc,
    dimension_report,
    make_field,
    repair,
    verify_code,
    verify_definition1,
)
from lrctower.construct import CodeDims, CodeParams, LrcCode
from lrctower.errors import DuplicateWValues, NotACodeword, TooLarge
from lrctower.gflinalg import matmul, rank
from lrctower.repair import all_codewords, random_codewords, span_blocks


def scalar_min_distance(code):
    """Independent oracle: per-symbol scalar enumeration of all codewords."""
    f = code.field
    g = code.generator_matrix
    best = None
    for msg in product(range(f.q), repeat=code.params.k):
        if not any(msg):
            continue
        weight = 0
        for col in range(code.params.n):
            s = 0
            for i, m in enumerate(msg):
                s = f.add(s, f.mul(m, int(g[i, col])))
            weight += s != 0
        best = weight if best is None else min(best, weight)
    return best


def test_golden_distance_exactly_four(golden_code):
    assert scalar_min_distance(golden_code) == 4
    assert brute_force_distance(golden_code) == 4


def test_block_enumeration_matches_scalar_oracle(tower_code):
    assert brute_force_distance(tower_code) == scalar_min_distance(tower_code)


def _bare_code(fld, gen):
    """Just what the distance routines read: field, generator and (n, k)."""
    gen = np.asarray(gen, dtype=np.int64)
    return SimpleNamespace(field=fld, generator_matrix=gen,
                           params=SimpleNamespace(k=gen.shape[0], n=gen.shape[1]))


def _reed_solomon(fld, n, k):
    """Rows x^0 .. x^(k-1) evaluated at the points 0 .. n-1; d = n - k + 1."""
    pts = np.arange(n)
    return np.array([fld.vec_pow(pts, i) for i in range(k)], dtype=np.int64)


@pytest.mark.parametrize("p, e, k, n", [(2, 2, 5, 9), (3, 2, 4, 8), (5, 2, 3, 7)])
def test_projective_enumeration_matches_scalar_oracle_on_random_codes(p, e, k, n):
    fld = make_field(p, e)
    rng = np.random.default_rng(1000 * p + e)
    for _ in range(3):
        gen = rng.integers(0, fld.q, size=(k, n))
        while rank(fld, gen) < k:
            gen = rng.integers(0, fld.q, size=(k, n))
        code = _bare_code(fld, gen)
        assert brute_force_distance(code) == scalar_min_distance(code)


@pytest.mark.parametrize("block_rows", [1, 10, 100, 10**6])
def test_span_blocks_cover_offset_plus_span(gf9, block_rows):
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 9, size=(3, 7))
    offset = rng.integers(0, 9, size=7)
    got = np.vstack(list(span_blocks(gf9, rows, offset, block_rows=block_rows)))
    assert got.dtype == gf9.dtype == np.uint8
    msgs = np.array(list(product(range(9), repeat=3)), dtype=np.int64)
    want = gf9.vec_add(matmul(gf9, msgs, rows), offset[None, :])
    assert got[0].tolist() == offset.tolist()
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))


def test_distance_uint16_tables_reed_solomon():
    fld = make_field(257, 1)
    assert fld.dtype == np.uint16 and fld.add_table is not None
    n, k = 16, 3
    code = _bare_code(fld, _reed_solomon(fld, n, k))
    assert brute_force_distance(code, cap=fld.q**k) == n - k + 1


def test_distance_digit_loop_path():
    fld = FiniteField(1031, 1)
    assert fld.add_table is None and fld.dtype == np.uint16
    n = 12
    code = _bare_code(fld, _reed_solomon(fld, n, 2))
    assert brute_force_distance(code) == n - 1
    # plant a weight-2 word w as the last row, then as g0 - 3 * g1 with
    # g0 = w + 3u and g1 = u; every other class has weight >= n - 2
    u = np.ones(n, dtype=np.int64)
    w = np.zeros(n, dtype=np.int64)
    w[[2, 7]] = [5, 1030]
    for gen in ([u, w], [fld.vec_add(w, fld.vec_mul(3, u)), u]):
        assert brute_force_distance(_bare_code(fld, gen)) == 2


def test_repair_worked_example(gf9, golden_code):
    # codeword = evaluations of x^4 + x^2; erase the coordinate of place 1
    word = tuple(
        gf9.add(gf9.pow(p.coords[0], 4), gf9.pow(p.coords[0], 2))
        for p in golden_code.places
    )
    assert word == (2, 2, 8, 5, 5, 8)
    got = repair(golden_code, ErasurePattern(word, 0, 2))
    assert got == 2
    got = repair(golden_code, ErasurePattern(word, 0, 1))
    assert got == 2


def test_repair_all_zero_codeword(golden_code):
    zero = (0,) * 6
    for i in range(6):
        for j in (1, 2):
            assert repair(golden_code, ErasurePattern(zero, i, j)) == 0


def test_repair_random_codewords_both_sets(golden_code, tower_code):
    for code in (golden_code, tower_code):
        words = random_codewords(code, 25, seed=11)
        for w in words:
            word = tuple(int(x) for x in w)
            for i in range(code.params.n):
                for j in (1, 2):
                    assert repair(code, ErasurePattern(word, i, j)) == word[i]


def test_repair_strict_mode(golden_code):
    word = list(all_codewords(golden_code)[5])
    repair(golden_code, ErasurePattern(tuple(word), 0, 1), strict=True)
    word[3] = (word[3] + 1) % 9  # corrupt a symbol outside the recovery set
    with pytest.raises(NotACodeword):
        repair(golden_code, ErasurePattern(tuple(word), 0, 1), strict=True)


def _duplicate_w_code(code):
    """Tamper: point a recovery set at two places sharing the repair value."""
    widx = code.group1.w_index
    by_w = {}
    for p in code.places:
        by_w.setdefault(p.coords[widx], []).append(p.index)
    dup = next(v for v in by_w.values() if len(v) >= 2)
    bad_sets = list(code.recovery_sets)
    bad_sets[0] = (tuple(dup[:2]), bad_sets[0][1])
    tampered = LrcCode(
        spec=code.spec, group1=code.group1, group2=code.group2,
        places=code.places,
        generator_matrix=code.generator_matrix, recovery_sets=bad_sets,
        params=code.params, dims=code.dims,
    )
    return tampered


def test_repair_duplicate_w_values_detected(tower_code):
    zero = (0,) * tower_code.params.n
    with pytest.raises(DuplicateWValues):
        repair(_duplicate_w_code(tower_code), ErasurePattern(zero, 0, 1))


def test_verify_reports_duplicate_w_values(tower_code):
    # colliding nodes fail every round trip of that (coordinate, set)
    rep = verify_code(_duplicate_w_code(tower_code))
    assert rep.ok is False
    assert rep.repair_mismatches >= rep.repair_words


def test_repair_rejects_out_of_range_coord(golden_code):
    zero = (0,) * 6
    for i in (-1, 6):
        with pytest.raises(ValueError, match=f"coordinate {i} out of range for n=6"):
            repair(golden_code, ErasurePattern(zero, i, 1))


def test_definition1_passes_and_slow_mode_agrees(golden_code):
    """Oracle: the exhaustive projection check over all codewords, where a
    set determines coordinate i iff no two codewords agree on the set and
    differ at i."""
    fast = verify_definition1(golden_code)
    words = all_codewords(golden_code)
    slow = []
    for i, sets in enumerate(golden_code.recovery_sets):
        verdicts = []
        for idx in sets:
            seen = {}
            verdicts.append(all(seen.setdefault(w[list(idx)].tobytes(), int(w[i])) == int(w[i])
                                for w in words))
        slow.append(tuple(verdicts))
    assert fast.passed and all(a and b for a, b in slow)
    assert fast.set_checks == slow
    assert len(fast.set_checks) == 6


def test_definition1_repetition_code(gf9):
    # length-3 repetition code, each coordinate recoverable from one other
    spec = TowerSpec("gs96", gf9, 1)
    code = LrcCode(
        spec=spec, group1=None, group2=None,
        places=spec.places()[:3],
        generator_matrix=np.array([[1, 1, 1]], dtype=np.int64),
        recovery_sets=[((1,), (2,)), ((0,), (2,)), ((0,), (1,))],
        params=CodeParams(3, 1, 3, 1, 1, 9, 3, 1, "gs96"),
        dims=CodeDims(1, 1, 1, 0, None),
    )
    assert verify_definition1(code).passed


def test_definition1_fails_for_unstructured_code(gf9, golden_code):
    rng = np.random.default_rng(2)
    found_failure = False
    for _ in range(20):
        gen = rng.integers(0, 9, size=(2, 6))
        code = LrcCode(
            spec=golden_code.spec, group1=golden_code.group1,
            group2=golden_code.group2,
            places=golden_code.places,
            generator_matrix=gen.astype(np.int64),
            recovery_sets=golden_code.recovery_sets,
            params=golden_code.params, dims=golden_code.dims,
        )
        if not verify_definition1(code).passed:
            found_failure = True
            break
    assert found_failure


def test_brute_force_cap(golden_code):
    with pytest.raises(TooLarge):
        brute_force_distance(golden_code, cap=80)


def test_enumeration_caps_count_generator_rows(tower_code):
    # params.k understates the four generator rows: the caps must still see 9^4
    code = dataclasses.replace(tower_code, params=dataclasses.replace(tower_code.params, k=1))
    with pytest.raises(TooLarge):
        brute_force_distance(code, cap=9**3)
    with pytest.raises(TooLarge):
        all_codewords(code, cap=9**3)
    assert random_codewords(code, 5).shape == (5, 18)


def test_dimension_report_golden(golden_code):
    rep = dimension_report(golden_code)
    assert rep.k == 2 and rep.identity_holds
    assert (rep.dim_v1, rep.dim_v2, rep.dim_sum) == (4, 3, 5)
    assert rep.rational_bound == 4 + 3 - (4 + 1) == 2
    assert rep.rational_bound_holds
    assert rep.k <= min(rep.dim_v1, rep.dim_v2)


def test_dimension_report_tower(tower_code):
    rep = dimension_report(tower_code)
    assert rep.identity_holds
    assert rep.rational_bound is None
    assert rep.k <= min(rep.dim_v1, rep.dim_v2)


def test_verify_code_reports(golden_code, tower_code):
    rep = verify_code(golden_code)
    assert rep.ok and rep.distance == 4 and rep.repair_words == 81
    rep2 = verify_code(tower_code)
    assert rep2.ok and rep2.distance >= 6 and rep2.repair_words == 9**4
    blob = rep.to_json()
    assert blob["ok"] is True and "runtimes" in blob
    assert blob["locality_checks"] == [[True, True]] * 6


def test_verify_code_flags_bad_recovery_set(golden_code):
    bad_sets = list(golden_code.recovery_sets)
    s1, s2 = bad_sets[0]
    bad_sets[0] = (s1, ((s2[0] + 1) % 6,))
    tampered = LrcCode(
        spec=golden_code.spec, group1=golden_code.group1,
        group2=golden_code.group2,
        places=golden_code.places, generator_matrix=golden_code.generator_matrix,
        recovery_sets=bad_sets, params=golden_code.params, dims=golden_code.dims,
    )
    assert not verify_code(tampered).ok
