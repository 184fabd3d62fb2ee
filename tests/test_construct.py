from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrctower import (
    TowerSpec,
    artin_schreier_kernel,
    build_recovery_group,
    construct_lrc,
    evaluation_matrix,
    make_field,
    spanning_set,
)
from lrctower.construct import _cap_profiles, _split_bases, _union_rows
from lrctower.errors import BudgetTooSmall, IllegalOrder
from lrctower import gflinalg


def _groups_m1(gf9):
    spec = TowerSpec("gs96", gf9, 1)
    return (spec,
            build_recovery_group(spec, "additive", shifts="kernel"),
            build_recovery_group(spec, "multiplicative", order=2))


def test_spanning_set_additive_worked_example(gf9):
    spec, h1, _ = _groups_m1(gf9)
    v = spanning_set(spec, h1, 4)
    shapes = [(f.g_power, f.w_power) for f in v.functions]
    # {1, x, g, g*x} with g of degree 3
    assert sorted(shapes) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(f.g_roots in ((), (0, 3, 6)) for f in v.functions)


def test_spanning_set_multiplicative_worked_example(gf9):
    spec, _, h2 = _groups_m1(gf9)
    v = spanning_set(spec, h2, 4)
    assert [f.total_exponents() for f in v.functions] == [(0,), (2,), (4,)]


def test_spanning_set_budget_zero(gf9):
    spec, h1, h2 = _groups_m1(gf9)
    for h in (h1, h2):
        v = spanning_set(spec, h, 0)
        assert len(v) == 1 and v.functions[0].total_exponents() == (0,)


def closed_form_dim(budget, r, order):
    """Rational-level dimension count: sum over w-powers of the invariant
    monomial counts that fit the budget."""
    return sum(
        (budget - l) // order + 1
        for l in range(max(r, 1))
        if budget - l >= 0
    )


@pytest.mark.parametrize("budget", range(0, 12))
def test_rational_level_dimension_formula(gf9, budget):
    spec, h1, h2 = _groups_m1(gf9)
    places = spec.places()
    for h in (h1, h2):
        v = spanning_set(spec, h, budget)
        mat = evaluation_matrix(v, places)
        expect = closed_form_dim(budget, h.r, h.order)
        # dimension == count at the rational level (distinct monomial degrees)
        assert len(v) == expect
        if budget < len(places):
            assert gflinalg.rank(gf9, mat) == expect


def test_evaluation_matrix_rows(gf9):
    spec, h1, _ = _groups_m1(gf9)
    places = spec.places()
    v = spanning_set(spec, h1, 4)
    mat = evaluation_matrix(v, places)
    assert mat.shape == (len(v), 6)
    assert (mat[0] == 1).all()  # constant row
    assert list(mat[1]) == [p.coords[0] for p in places]  # projection row


def test_rowspace_intersection_trivial_cases(gf9):
    eye = np.eye(3, dtype=np.int64)
    out = gflinalg.rowspace_intersection(gf9, eye, eye)
    assert (out == eye).all()
    a = np.array([[1, 0, 0]])
    b = np.array([[0, 1, 0]])
    assert gflinalg.rowspace_intersection(gf9, a, b).shape == (0, 3)


def _doubled_block_intersection(fld, a, b):
    """The doubled-block elimination written out with no shortcut: keep the
    rows whose left half vanished and whose right half did not, then reduce
    those candidates to their RREF basis."""
    n = a.shape[1]
    reduced, _ = gflinalg.rref(fld, np.vstack([np.hstack([a, a]), np.hstack([b, np.zeros_like(b)])]))
    cand = reduced[~reduced[:, :n].any(axis=1) & reduced[:, n:].any(axis=1), n:]
    if cand.size == 0:
        return np.zeros((0, n), dtype=np.int64)
    return gflinalg.row_basis(fld, cand)


@pytest.mark.parametrize("p, e", [(2, 2), (3, 2), (5, 2), (1031, 1)])
def test_rowspace_intersection_matches_candidate_oracle(p, e):
    """Random pairs sharing a planted subspace, full rank and rank-deficient,
    over GF(4), GF(9), GF(25) (table path) and GF(1031) (digit loop)."""
    fld = make_field(p, e)
    rng = np.random.default_rng(p * 100 + e)
    n = 9
    for shared, extra_a, extra_b, rows_a, rows_b in [
        (0, 3, 3, 3, 3), (2, 2, 3, 4, 5), (3, 1, 1, 6, 4), (1, 4, 4, 5, 5), (0, 5, 5, 5, 5),
    ]:
        common = rng.integers(0, fld.q, size=(shared, n))
        gens_a = np.vstack([common, rng.integers(0, fld.q, size=(extra_a, n))])
        gens_b = np.vstack([common, rng.integers(0, fld.q, size=(extra_b, n))])
        a = gflinalg.matmul(fld, rng.integers(0, fld.q, size=(rows_a, len(gens_a))), gens_a)
        b = gflinalg.matmul(fld, rng.integers(0, fld.q, size=(rows_b, len(gens_b))), gens_b)
        out = gflinalg.rowspace_intersection(fld, a, b)
        expect = _doubled_block_intersection(fld, a, b)
        assert out.shape == expect.shape and (out == expect).all()
        assert (out == gflinalg.row_basis(fld, out)).all()
        dim = gflinalg.rank(fld, a) + gflinalg.rank(fld, b) - gflinalg.rank(fld, np.vstack([a, b]))
        assert out.shape == (dim, n)
        assert out.base is None  # a copy, not a view into the doubled block


def _rref_oracle(fld, mat):
    """Gauss-Jordan as written before the fused kernel: an int64 copy,
    full-width row updates, and a Python scan for the rows to clear."""
    m = np.array(mat, dtype=np.int64)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = fld.vec_mul(m[r], fld.inv(int(m[r, c])))
        others = [i for i in range(rows) if i != r and m[i, c] != 0]
        if others:
            neg_factors = fld.vec_neg(m[others, c])
            m[others] = fld.vec_add(m[others], fld.vec_mul(neg_factors[:, None], m[r][None, :]))
        pivots.append(c)
        r += 1
    return m, pivots


@pytest.mark.parametrize("p, e", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 8), (1031, 1)])
def test_rref_matches_unfused_oracle(p, e, monkeypatch):
    """Cell for cell, with the same pivots and in field.dtype: seeded random
    matrices over GF(4), GF(9), GF(25), GF(49), GF(256) (table path) and
    GF(1031) (digit loop), with zero columns, repeated and dependent rows,
    and 0-row, tall, square and wide shapes; row updates in one block and
    in blocks of 3 rows."""
    fld = make_field(p, e)
    rng = np.random.default_rng(p * 100 + e)
    mats = [np.zeros((0, 6), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
            np.zeros((4, 5), dtype=np.int64)]
    for rows, cols in [(1, 7), (3, 10), (6, 6), (12, 5), (9, 14), (20, 8)]:
        m = rng.integers(0, fld.q, size=(rows, cols))
        m[:, rng.integers(0, cols)] = 0
        mats.append(m)
        rep = m.copy()
        rep[-1] = rep[0]
        mats.append(rep)
        low = gflinalg.matmul(fld, rng.integers(0, fld.q, size=(rows, 2)),
                              rng.integers(0, fld.q, size=(2, cols)))
        mats.append(np.hstack([np.zeros((rows, 1), dtype=np.int64), low]))
    for m, block in product(mats, (gflinalg.ROW_BLOCK, 3)):
        monkeypatch.setattr(gflinalg, "ROW_BLOCK", block)
        expect, expect_pivots = _rref_oracle(fld, m)
        for given in (m, m.astype(fld.dtype)):
            got, pivots = gflinalg.rref(fld, given)
            assert got.dtype == fld.dtype
            assert got.shape == expect.shape and (got == expect).all()
            assert pivots == expect_pivots
            assert (given == m).all()  # the input is not reduced in place


@pytest.mark.parametrize("p, e", [(7, 2), (1031, 1)])
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_rref_invariant_under_row_permutation(p, e, data):
    """The RREF, zero rows included, and its pivots depend only on the row
    space and row count: GF(49) (table path) and GF(1031) (digit loop), on
    products of a random (rows, j) and (j, cols) matrix, so rank <= j."""
    fld = make_field(p, e)
    rows, cols, j = (data.draw(st.integers(0, hi)) for hi in (8, 8, 5))

    def matrix(r, c):
        cells = data.draw(st.lists(st.integers(0, fld.q - 1), min_size=r * c, max_size=r * c))
        return np.array(cells, dtype=np.int64).reshape(r, c)

    m = gflinalg.matmul(fld, matrix(rows, j), matrix(j, cols))
    perm = data.draw(st.permutations(range(rows)))
    expect, expect_pivots = gflinalg.rref(fld, m)
    got, pivots = gflinalg.rref(fld, m[list(perm)])
    assert pivots == expect_pivots and got.shape == (rows, cols)
    assert (got == expect).all()


@pytest.mark.parametrize("fixture", ["golden_code", "tower_code", "hermitian_code"])
def test_projected_split_dims_equal_full_width_ranks(fixture, request):
    """Every cap split's (dim V1, dim V2, dim sum) computed on the pivot
    columns of the union matrix equals the full-width rank of the split's
    own evaluation matrices, whose rows the union matrix holds."""
    code = request.getfixturevalue(fixture)
    spec, fld, budget = code.spec, code.field, code.dims.budget
    places = spec.places()
    splits, evals = _union_rows(spec, code.group1, code.group2, budget, places)
    assert [caps for caps, _ in splits] == _cap_profiles(spec, budget)
    _, pivots = gflinalg.rref(fld, evals)
    assert len(pivots) < evals.shape[1]  # the projection drops columns
    for caps, rows in splits:
        m1, m2 = (evaluation_matrix(spanning_set(spec, h, budget, caps), places, fld)
                  for h in (code.group1, code.group2))
        assert (evals[rows[0]] == m1).all() and (evals[rows[1]] == m2).all()
        b1, b2, dim_sum = _split_bases(fld, evals[:, pivots], rows)
        ranks = (gflinalg.rank(fld, m1), gflinalg.rank(fld, m2), gflinalg.rank(fld, np.vstack([m1, m2])))
        assert (len(b1), len(b2), dim_sum) == ranks


def test_cap_profile_choice_matches_per_profile_zassenhaus(tower_code):
    """Rerun the full intersection on every cap split of the 18-place code:
    the chosen caps are the first split of largest intersection, and the
    recorded dims are the ranks of that split's evaluation matrices."""
    spec, fld, budget = tower_code.spec, tower_code.field, tower_code.dims.budget
    places = spec.places()

    def matrices(caps):
        return [evaluation_matrix(spanning_set(spec, h, budget, caps), places, fld)
                for h in (tower_code.group1, tower_code.group2)]

    profiles = _cap_profiles(spec, budget)
    sizes = [_doubled_block_intersection(fld, *matrices(caps)).shape[0] for caps in profiles]
    assert sizes == [2, 3, 3, 4, 3]
    assert tower_code.dims.caps == profiles[sizes.index(max(sizes))] == (3, 1)
    m1, m2 = matrices(tower_code.dims.caps)
    assert (tower_code.generator_matrix == _doubled_block_intersection(fld, m1, m2)).all()
    d = tower_code.dims
    ranks = (gflinalg.rank(fld, m1), gflinalg.rank(fld, m2), gflinalg.rank(fld, np.vstack([m1, m2])))
    assert (d.dim_v1, d.dim_v2, d.dim_sum) == ranks == (8, 4, 8)
    assert tower_code.params.k == max(sizes) == 4


def test_golden_intersection_matches_coefficient_model(gf9, golden_code):
    """Independent oracle: the intersection must be exactly the evaluations
    of span{1, x^4 + x^2} (solve the parity constraints by hand)."""
    places = [p.coords[0] for p in golden_code.places]
    one = [1] * 6
    h = [gf9.add(gf9.pow(a, 4), gf9.pow(a, 2)) for a in places]
    oracle = np.array([one, h], dtype=np.int64)
    gen = golden_code.generator_matrix
    stacked = np.vstack([gen, oracle])
    assert gflinalg.rank(gf9, oracle) == 2
    assert gflinalg.rank(gf9, gen) == 2
    assert gflinalg.rank(gf9, stacked) == 2  # same row space


def test_golden_code_parameters(gf9, golden_code):
    p = golden_code.params
    assert (p.n, p.k, p.d_designed, p.r1, p.r2) == (6, 2, 2, 2, 1)
    d = golden_code.dims
    assert (d.dim_v1, d.dim_v2, d.dim_sum, d.budget) == (4, 3, 5, 4)
    assert p.k == d.dim_v1 + d.dim_v2 - d.dim_sum


def test_tower_code_parameters(tower_code):
    p = tower_code.params
    assert p.n == 18 and p.k == 4 and (p.r1, p.r2) == (2, 1)
    assert tower_code.dims.caps is not None
    assert sum(tower_code.dims.caps) * 3 <= tower_code.dims.budget


def test_hermitian_code_parameters(hermitian_code):
    p = hermitian_code.params
    assert p.n == 120 and p.k == 5 and (p.r1, p.r2) == (1, 2)
    d = hermitian_code.dims
    assert p.k == d.dim_v1 + d.dim_v2 - d.dim_sum == 7 + 9 - 11


def test_generator_rows_live_in_both_spaces(golden_code, tower_code):
    for code in (golden_code, tower_code):
        fld = code.field
        places = code.places
        for h, caps in ((code.group1, code.dims.caps), (code.group2, code.dims.caps)):
            v = spanning_set(code.spec, h, code.dims.budget, caps)
            mat = evaluation_matrix(v, places)
            for row in code.generator_matrix:
                assert gflinalg.in_span(fld, mat, row)


def test_recovery_set_geometry(golden_code, tower_code, hermitian_code):
    for code in (golden_code, tower_code, hermitian_code):
        for i, (s1, s2) in enumerate(code.recovery_sets):
            assert len(s1) == code.params.r1
            assert len(s2) == code.params.r2
            assert i not in s1 and i not in s2
            assert not set(s1) & set(s2)


def test_every_codeword_meets_designed_distance(golden_code, tower_code):
    from lrctower import brute_force_distance

    for code in (golden_code, tower_code):
        assert brute_force_distance(code) >= code.params.d_designed


def test_construct_errors(gf9):
    spec, h1, h2 = _groups_m1(gf9)
    with pytest.raises(ValueError):
        construct_lrc(spec, h1, h2, 0)
    with pytest.raises(ValueError):
        construct_lrc(spec, h1, h2, 7)
    # d = n leaves budget 0 < (r1 - 1) * pole degree of w
    with pytest.raises(BudgetTooSmall):
        construct_lrc(spec, h1, h2, 6)
    trivial = build_recovery_group(spec, "multiplicative", order=1)
    with pytest.raises(IllegalOrder):
        construct_lrc(spec, h1, trivial, 2)


def test_full_distance_target_gives_repetition_code(gf16):
    """Both groups of order 2: budget 0 leaves only constants, a weight-n code."""
    spec = TowerSpec("gs96", gf16, 1)
    ker = [a for a in artin_schreier_kernel(gf16) if a]
    h1 = build_recovery_group(spec, "additive", shifts=ker[:1])
    h2 = build_recovery_group(spec, "additive", shifts=ker[1:2])
    n = len(spec.places())
    code = construct_lrc(spec, h1, h2, n)
    assert code.params.k == 1
    from lrctower import brute_force_distance

    assert brute_force_distance(code) == n


def test_xz_tower_additive_pair_code(gf16):
    """Pair of shift groups on the Hermitian level (orders 2 x 2 <= l = 4)."""
    spec = TowerSpec("gs95", gf16, 2)
    ker = [a for a in artin_schreier_kernel(gf16) if a]
    h1 = build_recovery_group(spec, "additive", shifts=ker[:1])
    h2 = build_recovery_group(spec, "additive", shifts=ker[1:2])
    code = construct_lrc(spec, h1, h2, 40)
    assert code.params.n == 60 and (code.params.r1, code.params.r2) == (1, 1)
    assert code.params.k >= 2
    from lrctower import verify_code

    assert verify_code(code).ok


def test_spanning_functions_respect_budget(gf9, gf25):
    from lrctower import pole_degree

    cases = [
        (TowerSpec("gs96", gf9, 2), "additive", {"shifts": "kernel"}),
        (TowerSpec("gs96", gf9, 2), "multiplicative", {"order": 2}),
        (TowerSpec("gs95", gf25, 2), "multiplicative", {"order": 3}),
    ]
    for spec, kind, kwargs in cases:
        h = build_recovery_group(spec, kind, **kwargs)
        for budget in (0, 5, 11, 20):
            v = spanning_set(spec, h, budget)
            for f in v.functions:
                assert pole_degree(f, spec) <= budget
                assert 0 <= f.w_power <= max(h.r - 1, 0)


def test_scalar_pair_on_y_tower_gf49():
    """Coprime scalar groups (orders 2 and 3) both act on every coordinate."""
    f49 = make_field(7, 2)
    spec = TowerSpec("gs96", f49, 1)
    h1 = build_recovery_group(spec, "multiplicative", order=2)
    h2 = build_recovery_group(spec, "multiplicative", order=3)
    from lrctower import combine, verify_code

    assert combine(h1, h2).structure == "direct"
    code = construct_lrc(spec, h1, h2, 30)
    assert code.params.n == 42 and (code.params.r1, code.params.r2) == (1, 2)
    assert code.params.k >= 2
    assert verify_code(code).ok


def test_level_three_code(gf9):
    spec = TowerSpec("gs96", gf9, 3)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    code = construct_lrc(spec, h1, h2, 18)
    assert code.params.n == 54 and code.params.k >= 2
    assert sum(code.dims.caps) * 9 <= code.dims.budget
    from lrctower import verify_code

    assert verify_code(code).ok


def test_mixed_pair_on_y_tower_gf16(gf16):
    """Kernel shifts with the full scalar group (orders 4 x 3)."""
    spec = TowerSpec("gs96", gf16, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=3)
    code = construct_lrc(spec, h1, h2, 12)
    assert code.params.n == 48 and (code.params.r1, code.params.r2) == (3, 2)
    from lrctower import verify_code

    assert verify_code(code).ok
