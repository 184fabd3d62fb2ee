import copy
import dataclasses
import importlib
import json
import re
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrctower import (
    ErasurePattern,
    FiniteField,
    TowerSpec,
    brute_force_distance,
    build_recovery_group,
    construct_lrc,
    orbit,
    repair,
    verify_code,
    verify_definition1,
)
from lrctower.construct import CodeDims, CodeParams, LrcCode
from lrctower.descriptor import code_from_descriptor, code_to_descriptor
from lrctower.errors import NotACodeword, TooLarge
from lrctower.field import shared_field
from lrctower.gflinalg import in_span, matmul, rank
from lrctower.repair import (
    random_codewords, repair_roundtrip_counts, repair_roundtrip_wrong, span_parts,
)

from conftest import DIGIT_LOOP_BUDGET, all_codewords

repair_module = importlib.import_module("lrctower.repair")  # the name `repair` is the function


def scalar_min_distance(code):
    """Independent oracle: per-symbol scalar enumeration of all codewords."""
    f = code.field
    cols = code.generator_matrix.T.tolist()
    best = None
    for msg in product(range(f.q), repeat=code.params.k):
        if not any(msg):
            continue
        weight = 0
        for col in cols:
            s = f.mul(msg[0], col[0])
            for m, x in zip(msg[1:], col[1:]):
                s = f.add(s, f.mul(m, x))
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


@pytest.mark.parametrize("p, e, k, n", [
    (2, 2, 5, 9), (3, 2, 4, 8), (5, 2, 3, 7), (257, 1, 2, 5),  # table path
    (1031, 1, 2, 3),  # digit loop: its scalar oracle takes several seconds
])
def test_projective_enumeration_matches_scalar_oracle_on_random_codes(p, e, k, n, monkeypatch):
    """Seeded random generators, three per field below q = 256 and one
    above.  With ``BLOCK_ROWS`` at 1 and at q the prefix block holds one
    row's span, so for k >= 3 the odometer yields many suffixes."""
    fld = FiniteField(p, e)
    rng = np.random.default_rng(1000 * p + e)
    for _ in range(3 if fld.q < 256 else 1):
        gen = rng.integers(0, fld.q, size=(k, n))
        while rank(fld, gen) < k:
            gen = rng.integers(0, fld.q, size=(k, n))
        code = _bare_code(fld, gen)
        want = scalar_min_distance(code)
        for block_rows in (1, fld.q, repair_module.BLOCK_ROWS):
            monkeypatch.setattr(repair_module, "BLOCK_ROWS", block_rows)
            assert brute_force_distance(code) == want


@pytest.mark.parametrize("block_rows", [1, 10, 100, 10**6])
def test_span_blocks_cover_offset_plus_span(gf9, block_rows, monkeypatch):
    """The prefix block, one word per column, shifted by each of
    ``span_parts``' suffixes."""
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 9, size=(3, 7))
    offset = rng.integers(0, 9, size=7)
    monkeypatch.setattr(repair_module, "BLOCK_ROWS", block_rows)
    prefix, suffixes = span_parts(gf9, rows, offset)
    got = np.hstack([gf9.vec_add(prefix, s[:, None]) for s in suffixes]).T
    assert prefix.dtype == got.dtype == gf9.dtype == np.uint8
    msgs = np.array(list(product(range(9), repeat=3)), dtype=np.int64)
    want = gf9.vec_add(matmul(gf9, msgs, rows), offset[None, :])
    assert got[0].tolist() == offset.tolist()
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))


@pytest.mark.parametrize("bad", ["row", "offset"])
@pytest.mark.parametrize("value", [-1, 9])
def test_span_parts_refuses_entries_outside_the_field(gf9, bad, value):
    rows = np.ones((2, 4), dtype=np.int64)
    offset = np.zeros(4, dtype=np.int64)
    (rows[1] if bad == "row" else offset)[2] = value
    with pytest.raises(ValueError, match="outside field range"):
        span_parts(gf9, rows, offset)


def test_distance_uint16_tables_reed_solomon():
    fld = FiniteField(257, 1)
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


def test_hermitian_distance_exactly_100(hermitian_code):
    assert brute_force_distance(hermitian_code) == 100


@pytest.mark.parametrize("p, e, dtype, tables", [
    (3, 2, np.uint8, True), (257, 1, np.uint16, True), (1031, 1, np.uint16, False),
])
@pytest.mark.parametrize("deficient", ["repeated", "zero"])
def test_rank_deficient_generator_has_distance_zero(p, e, dtype, tables, deficient):
    """A repeated row, or a zero row (as a lead and inside a lead's span),
    gives a zero word: every position agrees with its negated shift."""
    fld = FiniteField(p, e)
    assert fld.dtype == dtype and (fld.add_table is not None) == tables
    n = 8
    r0, r1 = _reed_solomon(fld, n, 2)
    gen = [r0, r1, r1] if deficient == "repeated" else [r0, np.zeros(n, dtype=np.int64), r1]
    assert brute_force_distance(_bare_code(fld, gen), cap=fld.q**3) == 0


def test_agreement_count_holds_n_above_255(gf9):
    """The agreement count is uint8 up to n = 255 and uint16 from n = 256:
    a uint8 column sum would wrap and read the zero word of a repeated row
    as weight 256 at n = 256 and at n = 300."""
    for n in (255, 256, 300):
        u = np.ones(n, dtype=np.int64)
        assert brute_force_distance(_bare_code(gf9, [u])) == n
        assert brute_force_distance(_bare_code(gf9, [u, u])) == 0


@pytest.mark.parametrize("p, e, n", [(3, 2, 6), (257, 1, 5)])
def test_all_codewords_match_message_oracle(p, e, n):
    """Every message times the generator, once each, the zero word first; on
    GF(257) the q^2 words exceed ``BLOCK_ROWS``, so they come from many
    shifts of the prefix block."""
    fld = FiniteField(p, e)
    gen = _reed_solomon(fld, n, 2)
    got = all_codewords(_bare_code(fld, gen), cap=fld.q**2)
    msgs = np.array(list(product(range(fld.q), repeat=2)), dtype=np.int64)
    want = matmul(fld, msgs, gen)
    assert got.shape == want.shape and not got[0].any()
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))


def test_distance_forms_no_codewords(hermitian_code, monkeypatch):
    """Structural guard: forming each of the Hermitian code's 406,901
    enumerated codewords would add 406,901 x 120 = 48.8 M elements, through
    ``vec_add`` or ``vec_axpy``; the agreement count adds only to build the
    prefix blocks (about 4 M)."""
    elems = []

    def counting(method):
        def counted(self, *args):
            out = method(self, *args)
            elems.append(out.size)
            return out
        return counted

    for name in ("vec_add", "vec_axpy"):
        monkeypatch.setattr(FiniteField, name, counting(getattr(FiniteField, name)))
    assert brute_force_distance(hermitian_code) == 100
    assert sum(elems) < 5_000_000


def test_repair_worked_example(gf9, golden_code):
    # codeword = evaluations of x^4 + x^2; erase the coordinate of place 1
    word = tuple(
        gf9.add(gf9.pow(a, 4), gf9.pow(a, 2))
        for a in golden_code.spec.places()[:, 0].tolist()
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


def test_repair_duplicate_w_values_detected(golden_code):
    """A group's elements are distinct, so an orbit's repair-variable values
    never collide (see test_recovery_set_geometry).  Were two elements
    equal, two nodes of every set would collide, and the plan's inverse
    would raise ZeroDivisionError rather than give a wrong weight: here on
    a stand-in whose group 1 holds one shift twice."""
    h1, h2 = golden_code.groups
    twice = dataclasses.replace(h1, shifts=(h1.shifts[0], h1.shifts[1], h1.shifts[1]))
    stand_in = SimpleNamespace(field=golden_code.field, groups=(twice, h2),
                               recovery_sets=golden_code.recovery_sets)
    with pytest.raises(ZeroDivisionError):
        repair_module.build_repair_plan(stand_in)
    stand_in.groups = (h1, h2)
    plans = repair_module.build_repair_plan(stand_in)
    assert all((a.weights == b.weights).all() for a, b in zip(plans, golden_code.repair_plan))


def oracle_weights(code, i, s):
    """The scalar Lagrange loop: set s's indices for coordinate i and the
    weights lambda_h with c_i = sum_h lambda_h c_h."""
    fld = code.field
    widx = code.groups[s - 1].w_index
    idx = code.recovery_sets[s - 1][i].tolist()
    ws = code.spec.places()[:, widx].tolist()
    xs = [ws[h] for h in idx]
    x0 = ws[i]
    lam = []
    for h, xh in enumerate(xs):
        v = 1
        for h2, x2 in enumerate(xs):
            if h2 != h:
                v = fld.mul(v, fld.mul(fld.add(x0, fld.neg(x2)), fld.inv(fld.add(xh, fld.neg(x2)))))
        lam.append(v)
    return idx, lam


def _assert_plan_matches_oracle(code):
    """The set's one weight vector is the scalar Lagrange loop's weights on
    every coordinate: the weights depend on the group alone."""
    n = code.params.n
    for s, plan in zip((1, 2), code.repair_plan):
        r = code.params.r[s - 1]
        assert plan.index is code.recovery_sets[s - 1]  # the plan reads the set array itself
        assert plan.index.shape == (n, r) and plan.weights.shape == (r,)
        assert plan.index.dtype == np.intp and plan.weights.dtype == code.field.dtype
        assert not plan.weights.flags.writeable and plan.weights.all()
        for i in range(n):
            idx, lam = oracle_weights(code, i, s)
            assert plan.index[i].tolist() == idx
            assert plan.weights.tolist() == lam
            # the scalar repair's terms: the set's row with the weights, as Python ints
            assert plan.terms[i] == list(zip(idx, lam))
            assert all(type(x) is int for term in plan.terms[i] for x in term)


def _additive_pair_code(variant, d):
    """The l = 4, m = 2 code of the shift groups add:gens=1 and add:gens=10."""
    spec = TowerSpec(variant, shared_field(2, 4), 2)
    return construct_lrc(spec, tuple(build_recovery_group(spec, "additive", shifts=[a]) for a in (1, 10)), d)


def test_repair_plan_matches_scalar_oracle(golden_code, tower_code, hermitian_code, gf81_code):
    for code in (golden_code, tower_code, hermitian_code, gf81_code,
                 _additive_pair_code("gs96", 24), _additive_pair_code("gs95", 30)):
        _assert_plan_matches_oracle(code)


def _scalar_roundtrip_count(code, words):
    """One scalar repair per (codeword, coordinate, set)."""
    count = 0
    for w in words:
        word = tuple(int(x) for x in w)
        for i in range(code.params.n):
            for s in (1, 2):
                count += repair(code, ErasurePattern(word, i, s)) != word[i]
    return count


def test_roundtrip_counts_match_scalar_repair(golden_code, tower_code, hermitian_code):
    rng = np.random.default_rng(29)
    for code in (golden_code, tower_code, hermitian_code):
        words = random_codewords(code, 12, seed=7)
        clean = repair_roundtrip_counts(code, words)
        assert clean == _scalar_roundtrip_count(code, words)
        # plant symbol errors: a different symbol in about one cell in six
        bad = words.copy()
        hit = rng.random(bad.shape) < 1 / 6
        bad[hit] = (bad[hit] + rng.integers(1, code.field.q, size=hit.sum())) % code.field.q
        got = repair_roundtrip_counts(code, bad)
        assert got == _scalar_roundtrip_count(code, bad) > clean == 0


@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_repair_round_trip_property(golden_code, tower_code, data):
    code = data.draw(st.sampled_from([golden_code, tower_code]))
    q, n = code.field.q, code.params.n
    msg = data.draw(st.lists(st.integers(0, q - 1), min_size=code.params.k, max_size=code.params.k))
    i = data.draw(st.integers(0, n - 1))
    s = data.draw(st.sampled_from([1, 2]))
    word = [int(x) for x in code.encode(msg)]
    truth, word[i] = word[i], data.draw(st.integers(0, q - 1))  # erase symbol i
    assert repair(code, ErasurePattern(tuple(word), i, s)) == truth


def test_repair_rejects_out_of_range_coord(golden_code):
    zero = (0,) * 6
    for i in (-1, 6):
        with pytest.raises(ValueError, match=f"coordinate {i} out of range for n=6"):
            repair(golden_code, ErasurePattern(zero, i, 1))


@pytest.mark.parametrize("bad", [2.0, np.float64(2.0), "2", True, np.bool_(True)],
                         ids=["float", "float64", "str", "bool", "bool_"])
def test_repair_refuses_non_integer_coord_and_set_choice(golden_code, bad):
    """A coordinate or set choice that is not an integer is named, not read
    as an index: a float or a string would escape as a TypeError from the
    plan's list, and True would be read as 1.  Numpy integers are read as
    they are."""
    word = tuple(int(x) for x in golden_code.encode([1, 2]))
    for name, pattern in (("coordinate", ErasurePattern(word, bad, 1)),
                          ("set_choice", ErasurePattern(word, 0, bad))):
        with pytest.raises(ValueError, match=f"{name} {re.escape(repr(bad))} is not an integer"):
            repair(golden_code, pattern)
    for i, s in ((np.int64(1), np.int64(1)), (np.uint8(5), np.int64(2)), (1, np.uint16(2))):
        got = repair(golden_code, ErasurePattern(word, i, s))
        assert type(got) is int and got == word[i]


def test_repair_refuses_set_choice_outside_range(golden_code):
    """The golden code has two recovery sets: ``repair`` refuses set 0 and
    set 3 with a ValueError naming the range [1, 2]; the pattern itself
    is made, as it does not know the code."""
    word = tuple(int(x) for x in golden_code.encode([1, 2]))
    for s in (0, 3):
        pattern = ErasurePattern(word, 0, s)
        with pytest.raises(ValueError, match=re.escape(f"set_choice {s} is outside [1, 2]")):
            repair(golden_code, pattern)


def test_repair_rejects_bad_words(golden_code, tower_code):
    """A word of the wrong length (tuple or array) and a read symbol outside
    [0, q) are named, not wrapped by the tables; so is a read symbol that is
    not an integer (a float, a Python or numpy bool, a numpy float), not
    truncated or read as 0 or 1, while numpy integers in a tuple are read as
    they are.  The erased symbol and every other symbol off the recovery set
    are never read."""
    word = [int(x) for x in golden_code.encode([1, 2])]
    assert word == [1, 1, 2, 0, 0, 2] and golden_code.recovery_sets[0][0].tolist() == [2, 4]
    for bad in (-1, -8, 9):
        with pytest.raises(ValueError, match=f"symbol {bad} at coordinate 2 is outside \\[0, 9\\)"):
            repair(golden_code, ErasurePattern((1, 1, bad, 0, 0, 2), 0, 1))
    for bad in (2.7, 2.0, True, False, np.float64(2.0), np.bool_(True), "2", None):
        with pytest.raises(ValueError, match=f"symbol {re.escape(repr(bad))} at coordinate 2 is not an integer"):
            repair(golden_code, ErasurePattern((1, 1, bad, 0, 0, 2), 0, 1))
    assert repair(golden_code, ErasurePattern((1, 1, np.int64(2), 0, np.uint8(0), 2), 0, 1)) == 1
    assert repair(golden_code, ErasurePattern((2.7, True, 2, 0.5, 0, 2), 0, 1)) == 1
    for length in (2, 7):
        for w in (tuple(word * 2)[:length], np.array(word * 2)[:length]):
            with pytest.raises(ValueError, match=f"word has {length} symbols, expected n=6"):
                repair(golden_code, ErasurePattern(w, 0, 1))
    assert repair(golden_code, ErasurePattern((-1, *word[1:]), 0, 1)) == 1
    n = tower_code.params.n
    word = [int(x) for x in random_codewords(tower_code, 1, seed=3)[0]]
    for i in (0, 7, n - 1):
        for s in (1, 2):
            on_set = tower_code.recovery_sets[s - 1][i].tolist()
            for bad in (-1, 9, 10):
                hit = [bad if h not in on_set else x for h, x in enumerate(word)]
                assert repair(tower_code, ErasurePattern(tuple(hit), i, s)) == word[i]
                hit[on_set[-1]] = bad
                with pytest.raises(ValueError, match=f"symbol {bad} at coordinate {on_set[-1]} "):
                    repair(tower_code, ErasurePattern(tuple(hit), i, s))


@pytest.mark.parametrize("fixture", ["golden_code", "tower_code", "hermitian_code", "gf81_code", "gf625_code"])
def test_scalar_repair_agrees_with_bulk_rebuild(fixture, request):
    """Pointwise parity on seeded codewords, clean and with planted symbol
    errors: repair() gives back the symbol exactly where
    repair_roundtrip_wrong marks the (word, coordinate, set) correct, and
    returns a Python int from a tuple, an int64 array or a ``dtype`` array.
    The GF(81) and GF(625) codes reduce their lanes inside a set."""
    code = request.getfixturevalue(fixture)
    fld, n = code.field, code.params.n
    words = random_codewords(code, 6, seed=17)
    bad = words.copy()
    rng = np.random.default_rng(n)
    hit = rng.random(bad.shape) < 1 / 8
    bad[hit] = fld.vec_add(bad[hit], rng.integers(1, fld.q, size=hit.sum()))
    both = np.vstack([words, bad])
    wrong = repair_roundtrip_wrong(code, both)
    assert not wrong[:, :len(words)].any() and wrong[:, len(words):].any()
    for b, row in enumerate(both):
        word = tuple(int(x) for x in row)
        for i in range(n):
            for s in (1, 2):
                got = repair(code, ErasurePattern(word, i, s))
                assert type(got) is int and (got != word[i]) == wrong[s - 1, b, i]
        for cast in (np.int64, fld.dtype):
            i = b % n
            got = repair(code, ErasurePattern(row.astype(cast), i, 1 + b % 2))
            assert type(got) is int and (got != word[i]) == wrong[b % 2, b, i]


def test_lane_codes_reduce_inside_a_set(gf81_code, gf625_code):
    """Both codes' sets hold more products than a lane does, so their bulk
    rebuilds reduce and carry inside a set."""
    for code, shape, r, capacity in ((gf81_code, (72, 26), (8, 7), 7), (gf625_code, (600, 93), (24, 23), 3)):
        assert (code.params.n, code.params.k, code.params.r) == (*shape, r)
        assert code.field.lane_tables is not None and code.field.lane_capacity == capacity < max(r)


def _stand_in(fld, sets, weights):
    """A code with one recovery set per coordinate: the rows of ``sets``,
    with the (r,) ``weights`` as its plan."""
    return SimpleNamespace(field=fld, params=SimpleNamespace(n=len(sets)), recovery_sets=(sets,),
                           repair_plan=(SimpleNamespace(weights=weights),))


LANE_FIELDS = [(2, 4), (3, 2), (3, 4), (3, 5), (5, 4), (31, 2), (1021, 1)]
FALLBACK_FIELDS = [(3, 6), (2, 10), (37, 2)]  # a lane holds one product, or q > TABLE_CAP


@pytest.mark.parametrize("p, k", LANE_FIELDS + FALLBACK_FIELDS)
def test_bulk_sums_match_scalar_oracle(p, k):
    """On a stand-in code with random sets and random (r,) weights, then
    all-1 weights, for set sizes 1, 2, G, G + 1, 3G and 40 (G the field's
    lane capacity), every rebuilt symbol is the scalar ``add``/``mul`` sum.
    The sets draw only on the first half of the coordinates, whose words
    are random, and the second half's words are their scalar sums, so each
    of those cells must rebuild exactly; weight 1 on word 0's all-(q - 1)
    symbols fills every lane to its largest digits."""
    fld = shared_field(p, k)
    q, capacity = fld.q, fld.lane_capacity
    assert (fld.lane_tables is None) == ((p, k) in FALLBACK_FIELDS)
    n, B = 16, 4
    for r in sorted({1, 2, capacity, capacity + 1, 3 * capacity, 40}):
        rng = np.random.default_rng([q, r])
        sets = rng.integers(0, n // 2, size=(n, r))
        for weights in (rng.integers(0, q, size=r).astype(fld.dtype), np.ones(r, dtype=fld.dtype)):
            words = rng.integers(0, q, size=(B, n))
            words[0, :n // 2] = q - 1
            sums = np.zeros((B, n), dtype=np.int64)
            for b, i in product(range(B), range(n)):
                for h, l in zip(sets[i].tolist(), weights.tolist()):
                    sums[b, i] = fld.add(int(sums[b, i]), fld.mul(l, int(words[b, h])))
            words[:, n // 2:] = sums[:, n // 2:]
            wrong = repair_roundtrip_wrong(_stand_in(fld, sets, weights), words)
            assert wrong.shape == (1, B, n)
            assert np.array_equal(wrong[0], sums != words) and not wrong[0, :, n // 2:].any(), r


@pytest.mark.parametrize("p, k, lanes", [(3, 4, True), (7, 2, True), (3, 6, False), (2, 10, False), (37, 2, False)])
def test_lane_path_calls_no_vec_axpy(p, k, lanes, monkeypatch):
    """A field whose lanes hold two products rebuilds with no ``vec_axpy``;
    any other runs one per set member."""
    fld = FiniteField(p, k)
    calls, axpy = [], fld.vec_axpy

    def counted(*args):
        calls.append(1)
        return axpy(*args)

    monkeypatch.setattr(fld, "vec_axpy", counted)
    rng = np.random.default_rng(p)
    sets = rng.integers(0, 10, size=(10, 5))
    weights = rng.integers(0, fld.q, size=5).astype(fld.dtype)
    repair_roundtrip_wrong(_stand_in(fld, sets, weights), rng.integers(0, fld.q, size=(3, 10)))
    assert len(calls) == (0 if lanes else 5)


def test_bulk_rebuild_peak_memory():
    """A 128-word rebuild of gs96-294, its plan and lane tables built, peaks
    under 20 n B bytes: the (n, B) words, mask, one member's symbols, lane
    sum and product, and the intp copy of the member's symbols that numpy's
    ``take`` makes (8 n B).  A (B, n, r) gather would widen to 8 n B r
    alone."""
    spec = TowerSpec("gs96", FiniteField(7, 2), 2)
    code = construct_lrc(spec, (build_recovery_group(spec, "additive", shifts="kernel"),
                                build_recovery_group(spec, "multiplicative", order=6)), 150)
    words = random_codewords(code, 128, seed=3).astype(np.int64)
    assert repair_roundtrip_counts(code, words) == 0  # builds the plan and the lane tables
    n, B = code.params.n, len(words)
    tracemalloc.start()
    try:
        wrong = repair_roundtrip_wrong(code, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (n, code.params.r) == (294, (6, 5)) and not wrong.any()
    assert peak < 20 * n * B


@pytest.mark.parametrize("kind", ["float", "np.float64", "bool", "np.bool_", "str", "object"])
def test_non_integer_input_is_refused(golden_code, kind):
    """Float, bool, string and object inputs are refused with a ValueError
    naming their dtype, by every entry point that reads element codes; none
    is truncated, parsed or read as 0 and 1.  Integer types and an empty
    list are still read."""
    def bad(rows):
        rows = [[int(x) for x in row] for row in np.atleast_2d(rows)]
        if kind == "object":  # an int numpy holds only as an object
            return np.array([[2**63 + 1, *rows[0][1:]], *rows[1:]], dtype=object)
        cast = {"float": lambda x: x + 0.5, "np.float64": lambda x: np.float64(x + 0.5),
                "bool": lambda x: bool(x % 2), "np.bool_": lambda x: np.bool_(x % 2), "str": str}[kind]
        return [[cast(x) for x in row] for row in rows]

    fld, g = golden_code.field, golden_code.generator_matrix
    words = random_codewords(golden_code, 3, seed=1)
    calls = [lambda: rank(fld, bad(g)),
             lambda: matmul(fld, bad([[1, 2]]), g),
             lambda: matmul(fld, [[1, 2]], bad(g)),
             lambda: repair_roundtrip_counts(golden_code, bad(words)),
             lambda: span_parts(fld, bad(g)),
             lambda: span_parts(fld, g, offset=bad(words[:1])[0]),
             lambda: golden_code.encode(bad([[1, 2]])[0])]
    dtype = np.asarray(bad(g)).dtype
    assert dtype.kind not in "iu"
    for call in calls:
        with pytest.raises(ValueError, match=f"^entries of dtype {re.escape(str(dtype))} are not integers$"):
            call()
    assert rank(fld, []) == rank(fld, [[]]) == 0
    for cast in (np.uint8, np.int32, np.uint64):
        assert rank(fld, g.astype(cast)) == 2 and repair_roundtrip_counts(golden_code, words.astype(cast)) == 0
        assert np.array_equal(golden_code.encode(np.array([1, 2], dtype=cast)), matmul(fld, [[1, 2]], g)[0])


def test_repair_reads_only_terms_and_table_views(golden_code, hermitian_code):
    """The per-call path touches no numpy array: on a stand-in code whose
    plans hold only ``terms`` and whose field copy has its numpy tables
    removed (the memoryviews stay), every repair still comes out right."""
    for code in (golden_code, hermitian_code):
        fld = copy.copy(code.field)
        for name in ("add_table", "mul_table", "exp_table", "log_table", "neg_table",
                     "_add_flat", "_mul_flat"):
            setattr(fld, name, None)
        bare = SimpleNamespace(field=fld, params=code.params, recovery_sets=code.recovery_sets,
                               repair_plan=[SimpleNamespace(terms=plan.terms) for plan in code.repair_plan])
        for row in random_codewords(code, 3, seed=5):
            word = tuple(int(x) for x in row)
            for i in range(code.params.n):
                assert repair(bare, ErasurePattern(word, i, 1 + i % 2)) == word[i]


def test_repair_table_path_calls_no_field_op(golden_code, tower_code, hermitian_code):
    """Below TABLE_CAP each term is one lookup in each of the field's 2-D
    table views: on a stand-in code whose field copy's ``add`` and ``mul``
    raise, every coordinate still repairs through both sets."""
    def refuse(*args):
        raise AssertionError(f"scalar field op called on {args}")

    for code in (golden_code, tower_code, hermitian_code):
        fld = copy.copy(code.field)
        fld.add = fld.mul = refuse
        bare = SimpleNamespace(field=fld, params=code.params, recovery_sets=code.recovery_sets,
                               repair_plan=code.repair_plan)
        word = tuple(int(x) for x in random_codewords(code, 1, seed=13)[0])
        for i in range(code.params.n):
            for s in (1, 2):
                assert repair(bare, ErasurePattern(word, i, s)) == word[i]


def test_scalar_repair_above_table_cap():
    """GF(37^2) = GF(1369) has no q x q tables, so ``repair`` runs the scalar
    field ops (log/antilog products, digit-loop sums).  On a small-budget
    build with localities (36, 35), clean and error-planted words, as tuples
    and as int64 and uint16 arrays, repair gives back the symbol exactly
    where repair_roundtrip_wrong marks the (word, coordinate, set) correct,
    always as a Python int."""
    spec = TowerSpec("gs96", FiniteField(37, 2), 1)
    assert spec.field._add is None and spec.field.dtype == np.uint16
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=36)
    code = construct_lrc(spec, (h1, h2), len(spec.places()) - DIGIT_LOOP_BUDGET)
    fld, n = code.field, code.params.n
    assert code.params.r == (36, 35)
    words = random_codewords(code, 1, seed=19)
    bad = words.copy()
    hit = np.random.default_rng(37).random(n) < 1 / 400
    bad[0, hit] = fld.vec_add(bad[0, hit], np.arange(1, hit.sum() + 1))
    both = np.vstack([words, bad])
    wrong = repair_roundtrip_wrong(code, both)
    assert not wrong[:, 0].any() and wrong[:, 1].any() and not wrong[:, 1].all()
    for b, row in enumerate(both):
        word = tuple(int(x) for x in row)
        sample = range(b, n, 11)
        for w, coords in ((word, range(n)), (row.astype(np.int64), sample), (row.astype(np.uint16), sample)):
            for i in coords:
                for s in (1, 2):
                    got = repair(code, ErasurePattern(w, i, s))
                    assert type(got) is int and (got != word[i]) == wrong[s - 1, b, i]


def test_bulk_rebuild_rejects_wrong_width(golden_code):
    words = all_codewords(golden_code)
    assert repair_roundtrip_counts(golden_code, words) == 0
    for width in (5, 7):
        cut = np.hstack([words, words])[:, :width]
        with pytest.raises(ValueError, match=f"words have {width} symbols, expected n=6"):
            repair_roundtrip_counts(golden_code, cut)


def test_definition1_passes_and_slow_mode_agrees(golden_code):
    """Oracle: the exhaustive projection check over all codewords, where a
    set determines coordinate i iff no two codewords agree on the set and
    differ at i."""
    fast = verify_definition1(golden_code)
    words = all_codewords(golden_code)
    slow = []
    for i, sets in enumerate(zip(*golden_code.recovery_sets)):
        verdicts = []
        for idx in sets:
            seen = {}
            verdicts.append(all(seen.setdefault(w[idx].tobytes(), int(w[i])) == int(w[i])
                                for w in words))
        slow.append(tuple(verdicts))
    assert fast.passed and all(a and b for a, b in slow)
    assert fast.set_checks == slow
    assert len(fast.set_checks) == 6


def test_definition1_repetition_code(golden_code):
    # repetition code on golden's 6 places and derived layout: every
    # coordinate is recoverable from any other, so from either of its sets
    code = LrcCode(
        spec=golden_code.spec, groups=golden_code.groups,
        generator_matrix=np.ones((1, 6), dtype=np.int64),
        d_designed=6,
        dims=CodeDims((1, 1), 1, 0, None),
    )
    assert code.params == CodeParams(n=6, k=1, d_designed=6, r=(2, 1))
    assert all((a == b).all() for a, b in zip(code.recovery_sets, golden_code.recovery_sets))
    assert verify_definition1(code).passed
    assert verify_code(code).ok


def _unstructured_codes(golden_code):
    """Golden's places and sets over 20 seeded random generators."""
    rng = np.random.default_rng(2)
    return [dataclasses.replace(golden_code, generator_matrix=rng.integers(0, 9, size=(2, 6)))
            for _ in range(20)]


def test_definition1_fails_for_unstructured_code(golden_code):
    assert not all(verify_definition1(code).passed for code in _unstructured_codes(golden_code))


def _locality_lines(failures):
    return [f for f in failures if "coordinate" in f]


def _assert_locality_matches_rank_test(code, **kwargs):
    """verify_code's locality verdicts and failure lines equal those of the
    rank test run on every pair; returns the verify report."""
    rep = verify_code(code, **kwargs)
    rank_only = verify_definition1(code)
    assert rep.locality_checks == rank_only.set_checks
    assert rep.locality_passed == rank_only.passed
    assert _locality_lines(rep.failures) == rank_only.failures
    return rep


def test_locality_certificate_matches_rank_test(golden_code, tower_code, hermitian_code):
    for code in (golden_code, tower_code, hermitian_code):
        rep = _assert_locality_matches_rank_test(code, exact_distance=False)
        assert rep.locality_passed and rep.repair_mismatches == 0
        # the round trip proves every pair: no rank test is left to run
        assert not repair_roundtrip_wrong(code, code.generator_matrix).any()
    for code in _unstructured_codes(golden_code):
        _assert_locality_matches_rank_test(code)


def test_brute_force_cap(golden_code):
    with pytest.raises(TooLarge):
        brute_force_distance(golden_code, cap=80)


def test_enumeration_caps_count_generator_rows(tower_code):
    # the caps see 9^4 for the four generator rows; params.k is derived from
    # them and cannot be set to understate them
    with pytest.raises(ValueError, match="field params is declared with init=False"):
        dataclasses.replace(tower_code, params=dataclasses.replace(tower_code.params, k=1))
    code = tower_code
    with pytest.raises(TooLarge):
        brute_force_distance(code, cap=9**3)
    with pytest.raises(TooLarge):
        all_codewords(code, cap=9**3)
    assert random_codewords(code, 5).shape == (5, 18)


def test_dimension_report_golden(golden_code):
    # the code's dimension accounting, with the rational-level (m = 1) bound
    # k >= dim V1 + dim V2 - (budget + 1)
    d, k = golden_code.dims, golden_code.params.k
    assert (*d.dim_v, d.dim_sum, d.budget, k) == (4, 3, 5, 4, 2)
    assert k == sum(d.dim_v) - d.dim_sum
    assert k >= sum(d.dim_v) - (d.budget + 1) == 2
    assert k <= min(d.dim_v)


def test_dimension_report_tower(tower_code):
    d, k = tower_code.dims, tower_code.params.k
    assert k == sum(d.dim_v) - d.dim_sum
    assert k <= min(d.dim_v)


def test_verify_code_reports(golden_code, tower_code):
    rep = verify_code(golden_code)
    assert rep.ok and rep.distance == 4 and rep.repair_mismatches == 0
    rep2 = verify_code(tower_code)
    assert rep2.ok and rep2.distance >= 6 and rep2.repair_mismatches == 0
    blob = rep.to_json()
    assert blob["ok"] is True and blob["repair_mismatches"] == 0 and "runtimes" in blob
    assert blob["locality_checks"] == [[True, True]] * 6


@pytest.mark.parametrize("fixture", ["golden_code", "tower_code", "hermitian_code"])
def test_report_json_matches_asdict_form(fixture, request):
    """``to_json`` gives the JSON bytes of the ``dataclasses.asdict`` form,
    on a passing report and on one with failures, and shares no list with
    the report."""
    rep = verify_code(request.getfixturevalue(fixture))
    failed = dataclasses.replace(rep, ok=False, failures=["distance 3 below designed 4"],
                                 locality_checks=[(True, False)] + rep.locality_checks[1:])
    for r in (rep, failed):
        deep = {**dataclasses.asdict(r), "locality_checks": [list(c) for c in r.locality_checks],
                "runtimes": {k: round(v, 6) for k, v in r.runtimes.items()}}
        blob = r.to_json()
        assert json.dumps(blob, sort_keys=True, indent=2) == json.dumps(deep, sort_keys=True, indent=2)
        blob["failures"].append("x")
        assert "x" not in r.failures


def test_repair_exact_needs_no_sampled_words(hermitian_code):
    # a wrong weight in the plan and an intact generator: set 2's member 0
    # of every coordinate reads it, so the round trips on the generator rows
    # see it on each (row, coordinate) whose member-0 symbol is nonzero.
    # Locality still holds; those pairs fall back to the rank test
    code = _wrong_weight(hermitian_code)
    proven = ~repair_roundtrip_wrong(code, code.generator_matrix).any(axis=1)
    member0 = code.generator_matrix[:, code.recovery_sets[1][:, 0]]  # [row, i]: coordinate i's member 0
    assert proven[0].all() and np.array_equal(proven[1], ~member0.any(axis=0)) and not proven[1].all()
    rep = _assert_locality_matches_rank_test(code, exact_distance=False)
    wrong_rows = np.count_nonzero(member0)
    assert rep.locality_passed and rep.repair_mismatches == wrong_rows > 0 and rep.ok is False
    assert len(rep.failures) == 1 and rep.failures[0].startswith("repair is not exact: ")
    assert verify_code(hermitian_code, exact_distance=False).repair_mismatches == 0


def test_verify_code_flags_bad_recovery_set(golden_code):
    """A recovery set other than the orbit never reaches verify_code: the
    code derives its sets, so none can be handed in, and the loader refuses
    a descriptor whose set differs, by path."""
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(golden_code, recovery_sets=golden_code.recovery_sets)
    desc = code_to_descriptor(golden_code)
    desc["recovery_sets"][0]["set2"] = [2]
    with pytest.raises(ValueError) as err:
        code_from_descriptor(desc)
    assert str(err.value) == "recovery_sets[0].set2 = [2] is not the orbit set [1]"


def _wrong_weight(code):
    """A copy with its own plan, whose set-2 weight of member 0 is wrong: it
    breaks every coordinate of set 2 whose member-0 column is nonzero on
    some generator row."""
    code = dataclasses.replace(code)
    plan1, plan2 = code.repair_plan
    weights = plan2.weights.copy()
    weights[0] = (int(weights[0]) + 1) % code.field.q
    code.repair_plan = (plan1, dataclasses.replace(plan2, weights=weights))
    return code


def _moved_index(code):
    """The sets index the wrong symbols: the generator columns of place 0
    and of the first place outside its two sets are swapped."""
    j = min(set(range(1, code.params.n)) - {int(h) for sets in code.recovery_sets for h in sets[0]})
    gen = code.generator_matrix.copy()
    gen[:, [0, j]] = gen[:, [j, 0]]
    return dataclasses.replace(code, generator_matrix=gen)


def _wrong_generator_entry(code):
    gen = code.generator_matrix.copy()
    gen[0, 0] = (int(gen[0, 0]) + 1) % code.field.q
    return dataclasses.replace(code, generator_matrix=gen)


@pytest.mark.parametrize("fault", [None, _wrong_weight, _moved_index, _wrong_generator_entry],
                         ids=["intact", "weight", "index", "generator"])
@pytest.mark.parametrize("fixture", ["golden_code", "tower_code", "hermitian_code"])
def test_generator_rows_see_what_codewords_see(fixture, fault, request):
    """The round trip over every codeword (or 100 seeded ones where q^k >
    10^4) fails iff the one on the generator rows does, intact and with
    each planted fault; verify_code, which runs only the latter, keeps the
    verdict it gave while it ran both (distance skipped on Hermitian)."""
    code = request.getfixturevalue(fixture)
    if fault is not None:
        code = fault(code)
    q, k = code.field.q, code.params.k
    words = all_codewords(code) if q**k <= 10**4 else random_codewords(code, 100, seed=0)
    rows = repair_roundtrip_counts(code, code.generator_matrix)
    assert (repair_roundtrip_counts(code, words) > 0) == (rows > 0) == (fault is not None)
    rep = verify_code(code, exact_distance=False if fixture == "hermitian_code" else None)
    assert rep.ok == (fault is None) and rep.repair_mismatches == rows


# ---------------------------------------------------------------------------
# per-coordinate oracles for the set arrays
# ---------------------------------------------------------------------------

def _oracle_sets(code, s):
    """Set s + 1 of every coordinate, one place at a time: column i of the
    group's orbit table, less i, in element order."""
    table = orbit(code.groups[s]).tolist()
    return [[row[i] for row in table if row[i] != i] for i in range(code.params.n)]


def _oracle_definition1(code, proven=None):
    """``verify_definition1`` with the rank test run per coordinate."""
    fld = code.field
    g = code.generator_matrix
    report = repair_module.LocalityReport()
    for i in range(code.params.n):
        verdicts = []
        for s, sets in enumerate(code.recovery_sets):
            ok = ((proven is not None and bool(proven[s, i]))
                  or in_span(fld, g[:, sets[i].tolist()].T, g[:, i]))
            verdicts.append(ok)
            if not ok:
                report.failures.append(f"coordinate {i} not determined by set {len(verdicts)}")
        report.set_checks.append((verdicts[0], verdicts[1]))
    return report


def _assert_matches_oracles(code):
    """Set arrays, plan and Definition 1 report equal the oracles', with the
    rank test on every pair and on the certificate's leftovers; the plan's
    weights against the scalar Lagrange loop."""
    for s, sets in enumerate(code.recovery_sets):
        assert sets.dtype == np.intp and not sets.flags.writeable
        assert sets.tolist() == _oracle_sets(code, s)
    _assert_plan_matches_oracle(code)
    row_wrong = repair_roundtrip_wrong(code, code.generator_matrix)
    proven = ~row_wrong.any(axis=1)  # the pairs verify_code passes as proven
    for given_proven in (None, proven):
        got, want = verify_definition1(code, given_proven), _oracle_definition1(code, given_proven)
        assert got.set_checks == want.set_checks
        assert all(type(v) is bool for pair in got.set_checks for v in pair)
        assert got.failures == want.failures


def test_set_arrays_match_per_coordinate_oracles(golden_code, tower_code, hermitian_code):
    codes = [golden_code, tower_code, hermitian_code, *_unstructured_codes(golden_code)]
    for code in codes:
        _assert_matches_oracles(code)
    assert not all(verify_definition1(code).passed for code in codes)


def test_recovery_sets_are_read_only_orbit_rows(golden_code, tower_code):
    """Each code derives its sets once, when it is made; they cannot be
    written, so neither the plan nor the rebuild can read a stale layout."""
    assert [sets.tolist() for sets in golden_code.recovery_sets] == [
        [[2, 4], [3, 5], [4, 0], [5, 1], [0, 2], [1, 3]], [[1], [0], [5], [4], [3], [2]]]
    for code in (golden_code, tower_code):
        for sets in code.recovery_sets:
            with pytest.raises(ValueError, match="read-only"):
                sets[0, 0] = 1
        assert code.recovery_sets is code.recovery_sets


@pytest.mark.parametrize("coord, s, members, bad", [(0, 1, (-4, -2), -4), (0, 1, (2, 99), 99), (3, 2, (6,), 6)])
def test_recovery_set_members_outside_the_places_are_refused(golden_code, coord, s, members, bad):
    """A member outside [0, n) is refused on load, by path: the set is not
    the orbit the code derives.  numpy would wrap -4 and -2 and fail on 99
    with a raw IndexError, had the set been read."""
    desc = code_to_descriptor(golden_code)
    want = desc["recovery_sets"][coord][f"set{s}"]
    desc["recovery_sets"][coord][f"set{s}"] = list(members)
    assert bad in members and not 0 <= bad < 6
    with pytest.raises(ValueError) as err:
        code_from_descriptor(desc)
    assert str(err.value) == f"recovery_sets[{coord}].set{s} = {list(members)} is not the orbit set {want}"


def test_locality_certificate_allocates_no_n_by_n_mask():
    # gs96-500: the per-coordinate certificate's (n, n) bool mask per set
    # peaked at about 2 n^2 bytes; the certificate and the locality check
    # that reads it now stay far below
    spec = TowerSpec("gs96", FiniteField(5, 2), 3)
    code = construct_lrc(spec, (build_recovery_group(spec, "additive", shifts="kernel"),
                                build_recovery_group(spec, "multiplicative", order=4)), 250)
    row_wrong = repair_roundtrip_wrong(code, code.generator_matrix)  # builds the plan and the arrays
    n = code.params.n
    tracemalloc.start()
    try:
        assert verify_definition1(code, ~row_wrong.any(axis=1)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 500 and peak < n * n // 8
