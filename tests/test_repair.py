import copy
import dataclasses
import re
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
    dimension_report,
    make_field,
    repair,
    verify_code,
    verify_definition1,
)
from lrctower.construct import CodeDims, CodeParams, LrcCode
from lrctower.errors import DuplicateWValues, NotACodeword, TooLarge
from lrctower.gflinalg import matmul, rank
from lrctower.repair import (
    all_codewords, locality_certificate, random_codewords, repair_roundtrip_counts,
    repair_roundtrip_wrong, span_parts,
)


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
    """The prefix block shifted by each of ``span_parts``' suffixes."""
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 9, size=(3, 7))
    offset = rng.integers(0, 9, size=7)
    prefix, suffixes = span_parts(gf9, rows, offset, block_rows=block_rows)
    got = np.vstack([gf9.vec_add(prefix, s[None, :]) for s in suffixes])
    assert prefix.dtype == got.dtype == gf9.dtype == np.uint8
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


def test_hermitian_distance_exactly_100(hermitian_code):
    assert brute_force_distance(hermitian_code) == 100


@pytest.mark.parametrize("p, e, dtype, tables", [
    (3, 2, np.uint8, True), (257, 1, np.uint16, True), (1031, 1, np.uint16, False),
])
@pytest.mark.parametrize("deficient", ["repeated", "zero"])
def test_rank_deficient_generator_has_distance_zero(p, e, dtype, tables, deficient):
    """A repeated row, or a zero row (as a lead and inside a lead's span),
    gives a zero word: every position agrees with its negated shift."""
    fld = make_field(p, e)
    assert fld.dtype == dtype and (fld.add_table is not None) == tables
    n = 8
    r0, r1 = _reed_solomon(fld, n, 2)
    gen = [r0, r1, r1] if deficient == "repeated" else [r0, np.zeros(n, dtype=np.int64), r1]
    assert brute_force_distance(_bare_code(fld, gen), cap=fld.q**3) == 0


def test_agreement_count_holds_n_above_255(gf9):
    """n = 300 agreements do not fit in uint8: a wrapped row sum would read
    the zero word of a repeated row as weight 256."""
    u = np.ones(300, dtype=np.int64)
    assert brute_force_distance(_bare_code(gf9, [u])) == 300
    assert brute_force_distance(_bare_code(gf9, [u, u])) == 0


@pytest.mark.parametrize("p, e, n", [(3, 2, 6), (257, 1, 5)])
def test_all_codewords_match_message_oracle(p, e, n):
    """Every message times the generator, once each, the zero word first; on
    GF(257) the q^2 words exceed ``BLOCK_ROWS``, so they come from many
    shifts of the prefix block."""
    fld = make_field(p, e)
    gen = _reed_solomon(fld, n, 2)
    got = all_codewords(_bare_code(fld, gen), cap=fld.q**2)
    msgs = np.array(list(product(range(fld.q), repeat=2)), dtype=np.int64)
    want = matmul(fld, msgs, gen)
    assert got.shape == want.shape and not got[0].any()
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))


def test_distance_forms_no_codewords(hermitian_code, monkeypatch):
    """Structural guard: forming each of the Hermitian code's 406,901
    enumerated codewords would add 406,901 x 120 = 48.8 M elements; the
    agreement count adds only to build the prefix blocks (about 4 M)."""
    elems = []
    vec_add = FiniteField.vec_add

    def counting(self, a, b):
        out = vec_add(self, a, b)
        elems.append(out.size)
        return out

    monkeypatch.setattr(FiniteField, "vec_add", counting)
    assert brute_force_distance(hermitian_code) == 100
    assert sum(elems) < 5_000_000


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
        d_designed=code.d_designed, dims=code.dims,
    )
    return tampered


def test_repair_duplicate_w_values_detected(golden_code, tower_code):
    # the message lists the set's repair-variable values, then the erased place's
    repeated = dataclasses.replace(
        golden_code, recovery_sets=[((2, 2), golden_code.recovery_sets[0][1])]
        + golden_code.recovery_sets[1:])
    for code, nodes in ((_duplicate_w_code(tower_code), "[1, 1, 1]"), (repeated, "[4, 4, 1]")):
        # raised before any symbol is read, so even a word of codes >= q gets it
        for word in ((0,) * code.params.n, np.full(code.params.n, 9)):
            with pytest.raises(DuplicateWValues) as err:
                repair(code, ErasurePattern(word, 0, 1))
            assert str(err.value) == f"repair nodes for coordinate 0 collide: {nodes}"


def test_verify_reports_duplicate_w_values(tower_code):
    # colliding nodes fail every round trip of that (coordinate, set)
    rep = verify_code(_duplicate_w_code(tower_code))
    assert rep.ok is False and rep.repair_exact is False
    assert rep.repair_mismatches >= rep.repair_words


def oracle_weights(code, i, s):
    """The scalar Lagrange loop: set s's indices for coordinate i and the
    weights lambda_h with c_i = sum_h lambda_h c_h, or None for the weights
    when the interpolation nodes collide."""
    fld = code.field
    widx = (code.group1, code.group2)[s - 1].w_index
    idx = code.recovery_sets[i][s - 1]
    xs = [int(code.places[h].coords[widx]) for h in idx]
    x0 = int(code.places[i].coords[widx])
    if len(set(xs + [x0])) != len(xs) + 1:
        return idx, None
    lam = []
    for h, xh in enumerate(xs):
        v = 1
        for h2, x2 in enumerate(xs):
            if h2 != h:
                v = fld.mul(v, fld.mul(fld.sub(x0, x2), fld.inv(fld.sub(xh, x2))))
        lam.append(v)
    return idx, lam


def _with_sets(code, edit):
    """A copy of ``code`` whose recovery sets are ``edit(list of pairs)``;
    the copy builds its own plan."""
    sets = [list(pair) for pair in code.recovery_sets]
    edit(sets)
    return dataclasses.replace(code, recovery_sets=[tuple(pair) for pair in sets])


def _ragged(sets):
    sets[0][0] = sets[0][0][:1]


def _one_empty(sets):
    sets[1][1] = ()


def _all_empty(sets):
    for pair in sets:
        pair[1] = ()


def _own_coord(sets):
    sets[2][0] = (2,) + sets[2][0][1:]  # node x0 repeated inside the set


def _tampered_codes(golden_code, tower_code):
    return [_with_sets(c, edit) for c in (golden_code, tower_code)
            for edit in (_ragged, _one_empty, _all_empty, _own_coord)] + [_duplicate_w_code(tower_code)]


def _assert_plan_matches_oracle(code):
    n = len(code.recovery_sets)
    for s, plan in zip((1, 2), code.repair_plan):
        r = max(len(pair[s - 1]) for pair in code.recovery_sets)
        assert plan.index.shape == plan.weights.shape == (n, r)
        assert plan.index.dtype == np.intp and plan.weights.dtype == code.field.dtype
        assert plan.collide.shape == (n,)
        for i in range(n):
            idx, lam = oracle_weights(code, i, s)
            pad = [0] * (r - len(idx))
            assert plan.index[i].tolist() == list(idx) + pad
            assert bool(plan.collide[i]) == (lam is None)
            assert plan.weights[i, len(idx):].tolist() == pad
            if lam is not None:
                assert plan.weights[i, :len(idx)].tolist() == lam
            # the scalar repair's terms: the nonzero weights, as Python ints
            terms = None if lam is None else [(h, l) for h, l in zip(idx, lam) if l]
            assert plan.terms[i] == terms
            assert all(type(x) is int for term in plan.terms[i] or () for x in term)


def test_repair_plan_matches_scalar_oracle(golden_code, tower_code, hermitian_code):
    for code in (golden_code, tower_code, hermitian_code):
        _assert_plan_matches_oracle(code)
        assert not any(plan.collide.any() for plan in code.repair_plan)


def test_repair_plan_on_tampered_sets(golden_code, tower_code):
    codes = _tampered_codes(golden_code, tower_code)
    for code in codes:
        _assert_plan_matches_oracle(code)
    # the all-empty set 2 has no columns at all: every repair through it gives 0
    assert codes[2].repair_plan[1].index.shape == (6, 0)
    word = tuple(int(x) for x in golden_code.encode([1, 2]))
    assert repair(codes[2], ErasurePattern(word, 3, 2)) == 0
    assert codes[3].repair_plan[0].collide.tolist() == [False, False, True, False, False, False]
    assert codes[-1].repair_plan[0].collide.tolist() == [True] + [False] * 17


def _scalar_roundtrip_count(code, words):
    """One scalar repair per (codeword, coordinate, set); a colliding
    (coordinate, set) counts once per codeword."""
    count = 0
    for w in words:
        word = tuple(int(x) for x in w)
        for i in range(code.params.n):
            for s in (1, 2):
                try:
                    count += repair(code, ErasurePattern(word, i, s)) != word[i]
                except DuplicateWValues:
                    count += 1
    return count


def test_roundtrip_counts_match_scalar_repair(golden_code, tower_code, hermitian_code):
    rng = np.random.default_rng(29)
    codes = [golden_code, tower_code, hermitian_code, *_tampered_codes(golden_code, tower_code)]
    for code in codes:
        words = random_codewords(code, 12, seed=7)
        clean = repair_roundtrip_counts(code, words)
        assert clean == _scalar_roundtrip_count(code, words)
        # plant symbol errors: a different symbol in about one cell in six
        bad = words.copy()
        hit = rng.random(bad.shape) < 1 / 6
        bad[hit] = (bad[hit] + rng.integers(1, code.field.q, size=hit.sum())) % code.field.q
        got = repair_roundtrip_counts(code, bad)
        assert got == _scalar_roundtrip_count(code, bad) > clean
    # on clean codewords only the colliding pair fails, once per codeword
    dup = codes[-1]
    flagged = sum(int(plan.collide.sum()) for plan in dup.repair_plan)
    words = random_codewords(dup, 12, seed=7)
    assert flagged == 1 and repair_roundtrip_counts(dup, words) == 12 * flagged


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


def test_repair_rejects_bad_words(golden_code, tower_code):
    """A word of the wrong length (tuple or array) and a read symbol outside
    [0, q) are named, not wrapped by the tables; so is a read symbol that is
    not an integer (a float, a Python or numpy bool, a numpy float), not
    truncated or read as 0 or 1, while numpy integers in a tuple are read as
    they are.  The erased symbol and every other symbol off the recovery set
    are never read."""
    word = [int(x) for x in golden_code.encode([1, 2])]
    assert word == [1, 1, 2, 0, 0, 2] and golden_code.recovery_sets[0][0] == (2, 4)
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
            on_set = tower_code.recovery_sets[i][s - 1]
            for bad in (-1, 9, 10):
                hit = [bad if h not in on_set else x for h, x in enumerate(word)]
                assert repair(tower_code, ErasurePattern(tuple(hit), i, s)) == word[i]
                hit[on_set[-1]] = bad
                with pytest.raises(ValueError, match=f"symbol {bad} at coordinate {on_set[-1]} "):
                    repair(tower_code, ErasurePattern(tuple(hit), i, s))


@pytest.mark.parametrize("fixture", ["golden_code", "tower_code", "hermitian_code"])
def test_scalar_repair_agrees_with_bulk_rebuild(fixture, request):
    """Pointwise parity on seeded codewords, clean and with planted symbol
    errors: repair() gives back the symbol exactly where
    repair_roundtrip_wrong marks the (word, coordinate, set) correct, and
    returns a Python int from a tuple, an int64 array or a ``dtype`` array."""
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


def test_repair_reads_only_terms_and_table_views(golden_code, hermitian_code):
    """The per-call path touches no numpy array: on a stand-in code whose
    plans hold only ``terms`` and whose field copy has its numpy tables
    removed (the memoryviews stay), every repair still comes out right."""
    for code in (golden_code, hermitian_code):
        fld = copy.copy(code.field)
        for name in ("add_table", "mul_table", "exp_table", "log_table", "neg_table",
                     "_add_flat", "_mul_flat"):
            setattr(fld, name, None)
        bare = SimpleNamespace(field=fld, params=code.params, places=code.places,
                               repair_plan=[SimpleNamespace(terms=plan.terms) for plan in code.repair_plan])
        for row in random_codewords(code, 3, seed=5):
            word = tuple(int(x) for x in row)
            for i in range(code.params.n):
                assert repair(bare, ErasurePattern(word, i, 1 + i % 2)) == word[i]


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
    # length-3 repetition code, each coordinate recoverable from one other;
    # the order-2 scalar group {1, -1} gives the localities r1 = r2 = 1
    spec = TowerSpec("gs96", gf9, 1)
    pair = build_recovery_group(spec, "multiplicative", order=2)
    code = LrcCode(
        spec=spec, group1=pair, group2=pair,
        places=spec.places()[:3],
        generator_matrix=np.array([[1, 1, 1]], dtype=np.int64),
        recovery_sets=[((1,), (2,)), ((0,), (2,)), ((0,), (1,))],
        d_designed=3,
        dims=CodeDims(1, 1, 1, 0, None),
    )
    assert code.params == CodeParams(n=3, k=1, d_designed=3, r1=1, r2=1)
    assert verify_definition1(code).passed


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
        assert rep.locality_passed and rep.repair_exact
        # the round trip proves every pair: no rank test is left to run
        assert locality_certificate(code, repair_roundtrip_wrong(code, code.generator_matrix)).all()
    ragged = _with_sets(golden_code, _ragged)
    for code in (_duplicate_w_code(tower_code), ragged, _with_sets(tower_code, _ragged),
                 *_unstructured_codes(golden_code)):
        _assert_locality_matches_rank_test(code)
    assert not verify_definition1(ragged).set_checks[0][0]


def test_locality_certificate_ignores_padding(golden_code):
    # coordinate 0's set 1 is cut to one member, which cannot determine it;
    # weight 1 on the padding (index 0, the coordinate itself) rebuilds it
    # exactly, yet proves nothing
    code = _with_sets(golden_code, _ragged)
    plan = code.repair_plan[0]
    assert plan.index[0].tolist() == [2, 0]
    plan.weights[0] = [0, 1]
    row_wrong = repair_roundtrip_wrong(code, code.generator_matrix)
    assert not row_wrong[0, :, 0].any()
    assert not locality_certificate(code, row_wrong)[0, 0]
    rep = _assert_locality_matches_rank_test(code)
    assert rep.locality_checks[0] == (False, True)
    assert "coordinate 0 not determined by set 1" in rep.failures


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
    assert rep.ok and rep.distance == 4 and rep.repair_words == 81 and rep.repair_exact
    rep2 = verify_code(tower_code)
    assert rep2.ok and rep2.distance >= 6 and rep2.repair_words == 9**4 and rep2.repair_exact
    blob = rep.to_json()
    assert blob["ok"] is True and blob["repair_exact"] is True and "runtimes" in blob
    assert blob["locality_checks"] == [[True, True]] * 6


def test_repair_exact_needs_no_sampled_words(hermitian_code):
    # a wrong weight in the plan, no sampled codewords and an intact
    # generator: only the round trips on the generator rows can see it.
    # Locality still holds; that one pair falls back to the rank test
    code = dataclasses.replace(hermitian_code)  # a copy with its own plan
    weights = code.repair_plan[1].weights
    weights[0, 0] = (int(weights[0, 0]) + 1) % code.field.q
    proven = locality_certificate(code, repair_roundtrip_wrong(code, code.generator_matrix))
    assert proven.sum() == proven.size - 1 and not proven[1, 0]
    rep = _assert_locality_matches_rank_test(code, rounds=0, exact_distance=False)
    assert rep.locality_passed and rep.repair_words == 0 and rep.repair_mismatches == 0
    assert rep.repair_exact is False and rep.ok is False
    assert len(rep.failures) == 1 and rep.failures[0].startswith("repair is not exact: ")
    assert verify_code(hermitian_code, rounds=0, exact_distance=False).repair_exact is True


def test_verify_code_flags_bad_recovery_set(golden_code):
    bad_sets = list(golden_code.recovery_sets)
    s1, s2 = bad_sets[0]
    bad_sets[0] = (s1, ((s2[0] + 1) % 6,))
    tampered = LrcCode(
        spec=golden_code.spec, group1=golden_code.group1,
        group2=golden_code.group2,
        places=golden_code.places, generator_matrix=golden_code.generator_matrix,
        recovery_sets=bad_sets, d_designed=golden_code.d_designed, dims=golden_code.dims,
    )
    rep = verify_code(tampered)
    assert not rep.ok and rep.repair_exact is False


@pytest.mark.parametrize("fixture, exact_distance", [("golden_code", None), ("hermitian_code", False)])
def test_verify_code_rejects_negative_rounds(fixture, exact_distance, request):
    """Enumerated (golden) and sampled (Hermitian) repair words alike."""
    code = request.getfixturevalue(fixture)
    with pytest.raises(ValueError, match="rounds must be >= 0, got -1"):
        verify_code(code, rounds=-1, exact_distance=exact_distance)
