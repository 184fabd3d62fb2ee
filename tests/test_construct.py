from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrctower import (
    FiniteField,
    TowerSpec,
    artin_schreier_kernel,
    build_recovery_group,
    construct_lrc,
    evaluation_matrix,
    regimes,
    spanning_set,
)
from lrctower.construct import CodeDims, _cap_profiles, _char_bounds, _split_intersection, _split_rows
from lrctower.errors import BudgetTooSmall, IllegalOrder, LrcError, VariantMismatch
from lrctower.field import shared_field
from lrctower.groups import scaled_generators
from lrctower import construct, gflinalg
from lrctower.cli import _field_for_ell, parse_group_spec, validate_regime


def _capped(h, budget, caps):
    """A cap split's spanning set: the expanded exponent vectors that are
    all <= caps, every one for caps None."""
    t = spanning_set(h, budget)
    return t if caps is None else t[(t <= caps).all(axis=1)]


def _groups_m1(gf9):
    spec = TowerSpec("gs96", gf9, 1)
    return (spec,
            build_recovery_group(spec, "additive", shifts="kernel"),
            build_recovery_group(spec, "multiplicative", order=2))


def test_spanning_set_additive_worked_example(gf9):
    _, h1, _ = _groups_m1(gf9)
    v = spanning_set(h1, 4)
    shapes = [divmod(int(t_w), h1.order) for (t_w,) in v]
    # {1, x, g, g*x} with g of degree 3: (g power, w power) read off t_w
    assert sorted(shapes) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert v.tolist() == [[0], [1], [3], [4]]
    assert h1.shifts == (0, 3, 6)


def test_spanning_set_multiplicative_worked_example(gf9):
    _, _, h2 = _groups_m1(gf9)
    v = spanning_set(h2, 4)
    assert v.tolist() == [[0], [2], [4]]


def test_spanning_set_budget_zero(gf9):
    _, h1, h2 = _groups_m1(gf9)
    for h in (h1, h2):
        v = spanning_set(h, 0)
        assert v.tolist() == [[0]]


def _spanning_oracle(h, budget):
    """The loop enumerator: additive H with shift set W gives (monomials in
    the other generators) * g(w)^j * w^l with 0 <= l <= |W| - 2, a
    multiplicative H of order u the monomials whose scaled-generator
    degree sum s is divisible by u, times w^s with s <= u - 2; each as its
    expanded exponent vector, sorted by (pole degree, t, j, l)."""
    spec = h.spec
    weights, m, widx = spec.pole_weights(), spec.m, h.w_index
    bounds = [budget // wt for wt in weights]
    found = []
    if h.kind == "additive":
        gdeg = h.order
        other = [i for i in range(m) if i != widx]
        for evec in product(*(range(bounds[i] + 1) for i in other)):
            base = sum(weights[i] * e for i, e in zip(other, evec))
            if base > budget:
                continue
            for l in range(max(h.r, 1)):
                for j in range(0, bounds[widx] + 1):
                    if base + weights[widx] * (gdeg * j + l) > budget:
                        break
                    t = [0] * m
                    for i, e in zip(other, evec):
                        t[i] = e
                    t[widx] = gdeg * j + l
                    found.append((tuple(t), j, l))
    else:
        u = h.order
        scaled = range(m) if spec.variant == "gs96" else range(1)
        for tvec in product(*(range(b + 1) for b in bounds)):
            if sum(weights[i] * t for i, t in enumerate(tvec)) > budget:
                continue
            s = sum(tvec[i] for i in scaled) % u
            if s > max(u - 2, 0) or tvec[widx] < s:
                continue
            found.append((tvec, 0, s))
    found.sort(key=lambda f: (sum(w * t for w, t in zip(weights, f[0])), *f))
    return np.array([t for t, _, _ in found], dtype=np.int64).reshape(-1, m)


def _oracle_groups():
    """(spec, group) over gs96 at l = 2..5 (m = 1..3 for l <= 3) and gs95 at l = 3,
    4, 5 (m = 1, 2): kernel shifts, a proper shift subgroup, the trivial
    shift group and every scalar order the tower admits."""
    for variant, (p, e), depths in [("gs96", (2, 2), (1, 2, 3)), ("gs96", (3, 2), (1, 2, 3)),
                                    ("gs96", (2, 4), (1, 2)), ("gs96", (5, 2), (1, 2)),
                                    ("gs95", (3, 2), (1, 2)),
                                    ("gs95", (2, 4), (1, 2)), ("gs95", (5, 2), (1, 2))]:
        fld = FiniteField(p, e)
        ambient = fld.ell - 1 if variant == "gs96" else fld.ell + 1
        for m in depths:
            spec = TowerSpec(variant, fld, m)
            groups = [build_recovery_group(spec, "multiplicative", order=u)
                      for u in range(1, ambient + 1) if ambient % u == 0]
            if variant == "gs96" or m == 2:
                ker = [a for a in artin_schreier_kernel(fld) if a]
                groups += [build_recovery_group(spec, "additive", shifts="kernel"),
                           build_recovery_group(spec, "additive", shifts=ker[:1]),
                           build_recovery_group(spec, "additive", shifts=[0])]
            for h in groups:
                yield spec, h


def test_spanning_set_matches_loop_oracle():
    """Row for row, over both variants, l = 2..5, every depth, additive and
    multiplicative groups of every order (the trivial ones included) and
    budgets from 0 to 1.5 n."""
    cases = 0
    for spec, h in _oracle_groups():
        n = len(spec.places())
        for budget in sorted({*range(0, 3 * n // 2 + 1, max(1, n // 8)), 3 * n // 2}):
            got, expect = spanning_set(h, budget), _spanning_oracle(h, budget)
            assert got.shape == expect.shape and (got == expect).all(), (spec, h.kind, h.order, budget)
            cases += 1
    assert cases > 1000


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
        v = spanning_set(h, budget)
        mat = evaluation_matrix(v, places, gf9, h)
        expect = closed_form_dim(budget, h.r, h.order)
        # dimension == count at the rational level (distinct monomial degrees)
        assert len(v) == expect
        if budget < len(places):
            assert gflinalg.rank(gf9, mat) == expect


def test_evaluation_matrix_rows(gf9):
    spec, h1, _ = _groups_m1(gf9)
    places = spec.places()
    v = spanning_set(h1, 4)
    mat = evaluation_matrix(v, places, gf9, h1)
    assert mat.shape == (len(v), 6)
    assert (mat[0] == 1).all()  # constant row
    assert (mat[1] == places[:, 0]).all()  # projection row


def test_rowspace_intersection_trivial_cases(gf9):
    eye = np.eye(3, dtype=np.int64)
    out = gflinalg.rowspace_intersection(gf9, eye, eye)
    assert (out == eye).all()
    a = np.array([[1, 0, 0]])
    b = np.array([[0, 1, 0]])
    assert gflinalg.rowspace_intersection(gf9, a, b).shape == (0, 3)


def _row_basis(fld, mat):
    """Canonical (RREF) basis of the row space, zero rows dropped."""
    reduced, pivots = gflinalg.rref(fld, mat)
    return reduced[: len(pivots)]


def _doubled_block_intersection(fld, a, b):
    """The doubled-block elimination written out with no shortcut: keep the
    rows whose left half vanished and whose right half did not, then reduce
    those candidates to their RREF basis."""
    n = a.shape[1]
    reduced, _ = gflinalg.rref(fld, np.vstack([np.hstack([a, a]), np.hstack([b, np.zeros_like(b)])]))
    cand = reduced[~reduced[:, :n].any(axis=1) & reduced[:, n:].any(axis=1), n:]
    if cand.size == 0:
        return np.zeros((0, n), dtype=np.int64)
    return _row_basis(fld, cand)


@pytest.mark.parametrize("p, e", [(2, 2), (3, 2), (5, 2), (1031, 1)])
def test_rowspace_intersection_matches_candidate_oracle(p, e):
    """Random pairs sharing a planted subspace, full rank and rank-deficient,
    over GF(4), GF(9), GF(25) (table path) and GF(1031) (digit loop)."""
    fld = FiniteField(p, e)
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
        assert (out == _row_basis(fld, out)).all()
        dim = gflinalg.rank(fld, a) + gflinalg.rank(fld, b) - gflinalg.rank(fld, np.vstack([a, b]))
        assert out.shape == (dim, n)
        assert out.base is None  # a copy, not a view into the doubled block


def _rref_oracle(fld, mat, full=True, steps=None):
    """Gauss-Jordan as written before the fused kernel: an int64 copy,
    full-width row updates, and a Python scan for the rows to clear.  With
    ``full`` false only the rows below each pivot are cleared (row echelon).
    A ``steps`` list gets the number of rows each pivot step cleared."""
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
        others = [i for i in range(0 if full else r + 1, rows) if i != r and m[i, c] != 0]
        if steps is not None:
            steps.append(len(others))
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
    fld = FiniteField(p, e)
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
    fld = FiniteField(p, e)
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


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("p, e", [(2, 2), (3, 2), (7, 2), (2, 8), (37, 2), (2, 12)])
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_echelon_rank_span_intersection_match_oracle(p, e, block, data):
    """``echelon``, ``rank``, ``in_span`` and ``rowspace_intersection``
    against the scalar oracle, over GF(4), GF(9), GF(49), GF(256) (table
    path) and GF(37^2), GF(2^12) (digit loop).  Inputs are products of a
    random (rows, j) and (j, cols) matrix, so zero (j = 0) and
    rank-deficient; on the table path 2q + 1 rows put pivot steps on both
    sides of the q-row rule.  Row updates in one block and in blocks of 3."""
    fld = shared_field(p, e)
    tall = 2 * fld.q + 1 if fld.mul_table is not None else 40
    rows, rows_b = (data.draw(st.sampled_from([0, 1, 3, tall])) for _ in range(2))
    cols, j = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def product_of(r, gens):
        return gflinalg.matmul(fld, rng.integers(0, fld.q, size=(r, len(gens))), gens).astype(np.int64)

    gens = rng.integers(0, fld.q, size=(j + 2, cols))
    a = product_of(rows, gens[:j])
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(gflinalg, "ROW_BLOCK", block)
        reduced, pivots = _rref_oracle(fld, a)
        forward, _ = _rref_oracle(fld, a, full=False)
        basis, got_pivots = gflinalg.echelon(fld, a)
        assert basis.dtype == fld.dtype and basis.shape == (len(pivots), cols)
        assert got_pivots == pivots and (basis == forward[: len(pivots)]).all()
        for i, c in enumerate(pivots):
            assert not basis[i, :c].any() and basis[i, c] == 1 and not basis[i + 1:, c].any()
        assert (_row_basis(fld, basis) == reduced[: len(pivots)]).all()
        assert gflinalg.rank(fld, a) == len(pivots)

        # rows from the span, then one drawn from a wider space
        extra = np.vstack([product_of(2, gens[:j]), product_of(1, gens)])
        for k in (2, 3):
            spanned = len(_rref_oracle(fld, np.vstack([a, extra[:k]]))[1]) == len(pivots)
            assert gflinalg.in_span(fld, a, extra[:k]) == spanned

        # B shares the top j - 1 generators of A's span and adds two more
        b = product_of(rows_b, gens[1:])
        doubled, dpivots = _rref_oracle(fld, np.vstack([np.hstack([a, a]), np.hstack([b, 0 * b])]))
        expect = doubled[sum(c < cols for c in dpivots):len(dpivots), cols:]
        got = gflinalg.rowspace_intersection(fld, a, b)
        assert got.dtype == fld.dtype and got.shape == expect.shape and (got == expect).all()


@pytest.mark.parametrize("full", [True, False])
def test_pivot_steps_of_q_rows_or_more_use_the_multiples_table(monkeypatch, full):
    """The row-update rule reads only the step's row count and q: over GF(9)
    a step that updates at least 9 rows gathers from its table of pivot
    multiples and never calls ``vec_axpy``; every smaller nonempty step calls
    it once (one row block).  16 rows of rank 3 over 3 random rows give
    steps on both sides of the rule, in both depths."""
    fld = FiniteField(3, 2)
    rng = np.random.default_rng(9)
    low = gflinalg.matmul(fld, rng.integers(0, fld.q, size=(16, 3)), rng.integers(0, fld.q, size=(3, 6)))
    m = np.vstack([low, rng.integers(0, fld.q, size=(3, 6))]).astype(np.int64)
    calls, axpy = [], fld.vec_axpy

    def counted(y, a, x):
        calls.append(len(y))
        return axpy(y, a, x)

    monkeypatch.setattr(fld, "vec_axpy", counted)
    got, pivots = (gflinalg.rref if full else gflinalg.echelon)(fld, m)
    steps = []
    expect, _ = _rref_oracle(fld, m, full, steps)
    assert (got == expect[: len(got)]).all() and len(steps) == len(pivots)
    assert min(steps) < fld.q <= max(steps)
    assert calls == [s for s in steps if 0 < s < fld.q]


def _matmul_oracle(fld, a, b):
    """The product as a scalar triple loop on ``field.mul`` and ``field.add``."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            acc = 0
            for h in range(a.shape[1]):
                acc = fld.add(acc, fld.mul(int(a[i, h]), int(b[h, j])))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("p, e", [(3, 2), (257, 1), (1031, 1)])
def test_matmul_matches_scalar_oracle(p, e):
    """Cell for cell, in field.dtype, from int64 and from field.dtype inputs:
    GF(9) (uint8 tables), GF(257) (uint16 tables) and GF(1031) (digit loop),
    on seeded random and all-(q-1) matrices; a zero inner dimension gives
    zeros and mismatched shapes raise."""
    fld = FiniteField(p, e)
    rng = np.random.default_rng(p * 100 + e)
    pairs = [(rng.integers(0, fld.q, size=(r, j)), rng.integers(0, fld.q, size=(j, c)))
             for r, j, c in [(1, 1, 1), (3, 4, 5), (7, 2, 9), (1, 9, 12), (6, 6, 6)]]
    pairs.append((np.full((4, 5), fld.q - 1), np.full((5, 3), fld.q - 1)))
    for a, b in pairs:
        expect = _matmul_oracle(fld, a, b)
        for cast in (np.int64, fld.dtype):
            got = gflinalg.matmul(fld, a.astype(cast), b.astype(cast))
            assert got.dtype == fld.dtype
            assert got.shape == expect.shape and (got == expect).all()
    for rows, cols in [(3, 4), (0, 2), (2, 0)]:
        got = gflinalg.matmul(fld, np.zeros((rows, 0), dtype=np.int64),
                              np.zeros((0, cols), dtype=np.int64))
        assert got.dtype == fld.dtype and got.shape == (rows, cols) and not got.any()
    with pytest.raises(ValueError, match="shape mismatch"):
        gflinalg.matmul(fld, np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="outside field range"):
        gflinalg.matmul(fld, [[fld.q]], [[1]])


@pytest.mark.parametrize("p, e", [(7, 2), (1031, 1)])
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_matmul_property_matches_scalar_oracle(p, e, data):
    """Random shapes, inner dimension 0 included, over GF(49) (table path)
    and GF(1031) (digit loop): the product equals the scalar triple loop."""
    fld = FiniteField(p, e)
    rows, inner, cols = (data.draw(st.integers(0, 6)) for _ in range(3))

    def matrix(r, c):
        cells = data.draw(st.lists(st.integers(0, fld.q - 1), min_size=r * c, max_size=r * c))
        return np.array(cells, dtype=np.int64).reshape(r, c)

    a, b = matrix(rows, inner), matrix(inner, cols)
    got = gflinalg.matmul(fld, a, b)
    assert got.dtype == fld.dtype and (got == _matmul_oracle(fld, a, b)).all()


def test_matmul_runs_one_fused_update_per_inner_index(monkeypatch):
    """On the table path the product is one ``vec_axpy`` per inner index and
    never the separate ``vec_mul`` and ``vec_add`` gathers."""
    fld = FiniteField(7, 2)
    calls = []
    axpy = fld.vec_axpy

    def counted(y, a, x):
        calls.append(np.shape(a))
        return axpy(y, a, x)

    def forbidden(*args):
        raise AssertionError("matmul left the fused kernel")

    monkeypatch.setattr(fld, "vec_axpy", counted)
    monkeypatch.setattr(fld, "vec_add", forbidden)
    monkeypatch.setattr(fld, "vec_mul", forbidden)
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, fld.q, size=(4, 7)), rng.integers(0, fld.q, size=(7, 3))
    got = gflinalg.matmul(fld, a, b)
    assert calls == [(4, 1)] * 7
    assert (got == _matmul_oracle(fld, a, b)).all()


@pytest.mark.parametrize("fixture", ["tower_code", "hermitian_code"])
def test_construct_reduces_to_rref_only_e_and_the_intersection_tail(fixture, request, monkeypatch):
    """Ranks, split bases, the per-character intersections and the escape
    checks stop at row echelon, and the lift is elementwise: the one
    Gauss-Jordan pass on the k x n lifted intersection is the only ``rref``
    call of a construction, and no ``matmul`` runs."""
    code = request.getfixturevalue(fixture)
    shapes, rref = [], gflinalg.rref

    def counted(field, mat):
        shapes.append(np.shape(mat))
        return rref(field, mat)

    def forbidden(*args):
        raise AssertionError("construct_lrc ran a matrix product")

    monkeypatch.setattr(gflinalg, "rref", counted)
    monkeypatch.setattr(gflinalg, "matmul", forbidden)
    rebuilt = construct_lrc(code.spec, code.groups, code.d_designed)
    assert (rebuilt.generator_matrix == code.generator_matrix).all()
    assert shapes == [(code.params.k, code.params.n)]


def _full_width_dims(spec, groups, budget, rows):
    """(dim V1, dim V2, dim(V1 + V2)) of a split, as the ranks of its two
    evaluation matrices on every place of ``spec`` and of their stack, with
    the matrices."""
    fld = spec.field
    m1, m2 = (evaluation_matrix(spanning_set(h, budget)[r], spec.places(), fld, h) for h, r in zip(groups, rows))
    ranks = (gflinalg.rank(fld, m1), gflinalg.rank(fld, m2), gflinalg.rank(fld, np.vstack([m1, m2])))
    return ranks, (m1, m2)


def _check_split_against_full_width(spec, groups, budget, blocks, rows):
    """Score one split per character with nothing to beat and check it
    against the full-width ranks: the tails' lengths sum to dim V1 + dim V2
    - dim(V1 + V2), the per-character bound is at least that score, and the
    raw blocks' ranks sum to dim V1 and dim V2.  Returns the per-character
    list."""
    fld = spec.field
    bounds = _char_bounds(blocks, rows)
    per_char = _split_intersection(fld, blocks, rows, bounds, 0)
    score = sum(len(tail) for *_, tail in per_char)
    dim_v1, dim_v2, dim_sum = _full_width_dims(spec, groups, budget, rows)[0]
    assert score == dim_v1 + dim_v2 - dim_sum
    assert bounds.sum() >= score
    ranks = [sum(gflinalg.rank(fld, raws[g]) for _, raws, _ in per_char) for g in (0, 1)]
    assert ranks == [dim_v1, dim_v2]
    return per_char


@pytest.mark.parametrize("fixture", ["golden_code", "tower_code", "hermitian_code"])
def test_projected_split_dims_equal_full_width_ranks(fixture, request):
    """Every cap split's rows are its capped spanning set, and its score,
    summed over the characters on the representatives, is dim V1 + dim V2
    - dim(V1 + V2) from the ranks of the two evaluation matrices on every
    place and of their stack, under its per-character bound."""
    code = request.getfixturevalue(fixture)
    spec, budget = code.spec, code.dims.budget
    groups = code.groups
    splits, blocks = _split_rows(groups, budget)
    assert [caps for caps, _ in splits] == _cap_profiles(spec, budget)
    for caps, rows in splits:
        for h, r in zip(groups, rows):
            assert (spanning_set(h, budget)[r] == _capped(h, budget, caps)).all()
        _check_split_against_full_width(spec, groups, budget, blocks, rows)


@pytest.mark.parametrize("spec_m, group_m, d", [(2, 1, 6), (1, 2, 2)])
def test_construct_refuses_groups_of_another_spec(gf9, monkeypatch, spec_m, group_m, d):
    """Groups built on another level of the y-tower over GF(9) are refused
    by name, both ways round, before any spanning set is enumerated; so are
    they by LrcCode, which derives its recovery sets from their orbits."""
    spec = TowerSpec("gs96", gf9, spec_m)
    other = TowerSpec("gs96", gf9, group_m)
    h1 = build_recovery_group(other, "additive", shifts="kernel")
    h2 = build_recovery_group(other, "multiplicative", order=2)

    def forbidden(*args):
        raise AssertionError("construct_lrc started work on mismatched specs")

    monkeypatch.setattr(construct, "spanning_set", forbidden)
    with pytest.raises(VariantMismatch) as err:
        construct_lrc(spec, (h1, h2), d)
    assert repr(spec) in str(err.value) and repr(other) in str(err.value)
    n = len(spec.places())
    with pytest.raises(VariantMismatch, match="recovery group built on"):
        construct.LrcCode(spec=spec, groups=(h1, h2), generator_matrix=np.ones((1, n), dtype=np.int64),
                          d_designed=n, dims=CodeDims((1, 1), 1, 0, None))


def test_spanning_set_runs_once_per_group(tower_code, monkeypatch):
    """Cap splits are masks over each group's one enumeration, however many
    splits there are (five on the 18-place code)."""
    code = tower_code
    seen = []

    def counted(*args, **kwargs):
        seen.append(args)
        return spanning_set(*args, **kwargs)

    monkeypatch.setattr(construct, "spanning_set", counted)
    rebuilt = construct_lrc(code.spec, code.groups, code.params.d_designed)
    assert len(seen) == 2
    assert rebuilt.dims == code.dims and (rebuilt.generator_matrix == code.generator_matrix).all()


def test_cap_profile_choice_matches_per_profile_zassenhaus(tower_code):
    """Rerun the full intersection on every cap split of the 18-place code:
    the chosen caps are the first split of largest intersection, and the
    recorded dims are the ranks of that split's evaluation matrices."""
    spec, fld, budget = tower_code.spec, tower_code.field, tower_code.dims.budget

    def matrices(caps):
        return [evaluation_matrix(_capped(h, budget, caps), spec.places(), fld, h)
                for h in tower_code.groups]

    profiles = _cap_profiles(spec, budget)
    sizes = [_doubled_block_intersection(fld, *matrices(caps)).shape[0] for caps in profiles]
    assert sizes == [2, 3, 3, 4, 3]
    assert tower_code.dims.caps == profiles[sizes.index(max(sizes))] == (3, 1)
    m1, m2 = matrices(tower_code.dims.caps)
    assert (tower_code.generator_matrix == _doubled_block_intersection(fld, m1, m2)).all()
    d = tower_code.dims
    ranks = (gflinalg.rank(fld, m1), gflinalg.rank(fld, m2), gflinalg.rank(fld, np.vstack([m1, m2])))
    assert (*d.dim_v, d.dim_sum) == ranks == (8, 4, 8)
    assert tower_code.params.k == max(sizes) == 4


def _kernel_scalar_pair(p, e, m):
    """The y-tower over GF(p^e) at level m with the ladder's group pair:
    additive kernel shifts and the scalars of order l - 1."""
    spec = TowerSpec("gs96", FiniteField(p, e), m)
    return (spec,
            build_recovery_group(spec, "additive", shifts="kernel"),
            build_recovery_group(spec, "multiplicative", order=spec.field.ell - 1))


def _exhaustive_choice(spec, h1, h2, d_target):
    """Score every cap split, keep the first of largest score and intersect
    its two evaluation matrices, all on every place: the search construct_lrc
    prunes and splits by character, written out at full width with no bound.
    Reads the splits through the module, so a patched ``_split_rows`` applies
    here too."""
    budget = len(spec.places()) - d_target
    splits, _ = construct._split_rows((h1, h2), budget)
    scored = []
    for caps, rows in splits:
        dims, mats = _full_width_dims(spec, (h1, h2), budget, rows)
        scored.append((dims[0] + dims[1] - dims[2], caps, mats, dims))
    _, caps, mats, dims = max(scored, key=lambda s: s[0])  # max keeps the first maximum
    return CodeDims(dims[:2], dims[2], budget=budget, caps=caps), _doubled_block_intersection(spec.field, *mats)


@pytest.mark.parametrize("p, e, m, d", [(3, 2, 2, 6), (2, 4, 2, 20), (5, 2, 2, 40), (2, 4, 3, 77)],
                         ids=["ytower18", "l4-m2-d20", "l5-m2-d40", "l4-m3-d77"])
def test_pruned_choice_matches_exhaustive_scoring(p, e, m, d):
    spec, h1, h2 = _kernel_scalar_pair(p, e, m)
    code = construct_lrc(spec, (h1, h2), d)
    dims, gen = _exhaustive_choice(spec, h1, h2, d)
    assert code.dims == dims
    assert code.generator_matrix.shape == gen.shape and (code.generator_matrix == gen).all()


@pytest.mark.parametrize("layout", ["same-bound", "later-has-larger-bound"])
def test_equal_scores_go_to_the_lower_index(monkeypatch, layout):
    """Two splits of the 18-place code's best rows (score 4) behind its
    first split: the lower index wins whether the later one has the same
    bound (a copy) or a larger one (each row list doubled, so it is visited
    and scored first)."""
    spec, h1, h2 = _kernel_scalar_pair(3, 2, 2)
    real = construct._split_rows

    def tied(*args):
        splits, evals = real(*args)
        rows = dict(splits)[(3, 1)]
        later = rows if layout == "same-bound" else tuple(np.concatenate([r, r]) for r in rows)
        return [splits[0], ("first", rows), ("second", later)], evals

    monkeypatch.setattr(construct, "_split_rows", tied)
    code = construct_lrc(spec, (h1, h2), 6)
    dims, gen = _exhaustive_choice(spec, h1, h2, 6)
    assert code.dims.caps == dims.caps == "first" and code.params.k == 4
    assert code.dims == dims and (code.generator_matrix == gen).all()


def test_a_split_that_cannot_win_stops_after_one_character(monkeypatch):
    """A decoy split behind the l = 4, m = 2 code's winner (caps (3, 4),
    score 10, bound 11): the winner's rows, but V2's rows of character 0
    are copies of one row.  Its bound, 11, is above the winner's score, and
    ties the winner's bound from a later index, so it is visited after the
    winner; its first Zassenhaus elimination leaves at most 1 + 6 < 11 in
    reach, so it stops there, and the build is the exhaustive one."""
    spec, h1, h2 = _kernel_scalar_pair(2, 4, 2)
    real_rows, real_intersection, real_zassenhaus = construct._split_rows, _split_intersection, gflinalg.zassenhaus
    scored = []  # per _split_intersection call: [rows, bound, zassenhaus calls, result]
    made = {}  # the winner's and the decoy's rows of the last _split_rows call

    def with_decoy(*args):
        splits, blocks = real_rows(*args)
        rows1, rows2 = made["winner"] = dict(splits)[(3, 4)]
        zero = blocks.chars[1][rows2] == 0
        made["decoy"] = (rows1, np.concatenate([np.repeat(rows2[zero][:1], zero.sum()), rows2[~zero]]))
        return [*splits, ("decoy", made["decoy"])], blocks

    def tracked(fld, blocks, rows, bounds, floor):
        scored.append([rows, int(bounds.sum()), 0, None])
        scored[-1][3] = real_intersection(fld, blocks, rows, bounds, floor)
        return scored[-1][3]

    def counted(*args):
        scored[-1][2] += 1
        return real_zassenhaus(*args)

    monkeypatch.setattr(construct, "_split_rows", with_decoy)
    monkeypatch.setattr(construct, "_split_intersection", tracked)
    monkeypatch.setattr(gflinalg, "zassenhaus", counted)
    code = construct_lrc(spec, (h1, h2), 20)
    visits = [next(i for i, (rows, *_) in enumerate(scored) if rows is made[name]) for name in ("winner", "decoy")]
    assert visits[0] < visits[1]
    _, bound, zassenhaus_calls, result = scored[visits[1]]
    assert bound == 11 > code.params.k == 10
    assert zassenhaus_calls == 1 and result is None
    dims, gen = _exhaustive_choice(spec, h1, h2, 20)
    assert code.dims == dims and code.dims.caps == (3, 4)
    assert code.generator_matrix.shape == gen.shape and (code.generator_matrix == gen).all()


@pytest.mark.parametrize("p, e, m, d, profiles, scored", [(7, 2, 2, 150, 21, 7), (5, 2, 3, 250, 66, 1)],
                         ids=["gs96-294", "gs96-500"])
def test_bound_pruning_scores_few_splits(monkeypatch, p, e, m, d, profiles, scored):
    """Structural guard on the pruning, not a timing test: of the 21 and 66
    cap splits of the two large ladder codes, the search by falling
    per-character bound scores 7 and 1 (exhaustive scoring ran every one)."""
    spec, h1, h2 = _kernel_scalar_pair(p, e, m)
    calls = []

    def counted(*args):
        calls.append(args)
        return _split_intersection(*args)

    monkeypatch.setattr(construct, "_split_intersection", counted)
    code = construct_lrc(spec, (h1, h2), d)
    assert len(_cap_profiles(spec, code.dims.budget)) == profiles
    assert len(calls) == scored


# Small builds for the character split: (variant, (p, e), m, group1, group2,
# u), the groups in the CLI's spec language and u the order of the pair's
# scalar group H, its multiplicative group of larger order (1 for an
# additive pair).  GF(37^2) (q = 1369) runs the digit-loop arithmetic.
CHARACTER_CASES = {
    "gs96-l3-m2": ("gs96", (3, 2), 2, "add:kernel", "mul:2", 2),
    "gs96-l3-m3": ("gs96", (3, 2), 3, "add:kernel", "mul:2", 2),
    "gs96-l4-m2": ("gs96", (2, 4), 2, "add:kernel", "mul:3", 3),
    "gs96-l4-m2-add-add": ("gs96", (2, 4), 2, "add:gens=1", "add:gens=10", 1),
    "gs96-l5-m2": ("gs96", (5, 2), 2, "add:kernel", "mul:4", 4),
    "gs96-l7-m1-mul-mul": ("gs96", (7, 2), 1, "mul:2", "mul:3", 3),
    "gs95-l4-m2-add-add": ("gs95", (2, 4), 2, "add:gens=1", "add:gens=10", 1),
    "gs95-l5-m2": ("gs95", (5, 2), 2, "norm1:2", "norm1:3", 3),
    "gs96-l37-m1": ("gs96", (37, 2), 1, "add:kernel", "mul:36", 36),
}
DIGIT_LOOP_BUDGET = 60  # keeps the q = 1369 case under about a second


@cache
def _character_case(name):
    variant, (p, e), m, g1, g2, _ = CHARACTER_CASES[name]
    spec = TowerSpec(variant, shared_field(p, e), m)
    return spec, parse_group_spec(spec, g1), parse_group_spec(spec, g2)


@pytest.mark.parametrize("name", sorted(CHARACTER_CASES))
def test_representatives_are_one_place_per_orbit(name):
    """H has the expected order u, and lifting from the n/u representatives
    reaches every place once: row e of ``columns`` is element e's image of
    each representative, and the identity's row (scalar 1) holds the
    representatives, each the least place of its orbit."""
    spec, h1, h2 = _character_case(name)
    n, u = len(spec.places()), CHARACTER_CASES[name][-1]
    _, blocks = _split_rows((h1, h2), 0)
    assert blocks.columns.shape == (u, n // u) and len(blocks.scalars) == u
    assert sorted(blocks.columns.ravel().tolist()) == list(range(n))
    assert blocks.scalars[0] == 1 and (np.diff(blocks.columns[0]) > 0).all()
    assert (blocks.columns.min(axis=0) == blocks.columns[0]).all()
    assert all(m.shape[1] == n // u for m in blocks.mats)


@pytest.mark.parametrize("name", ["gs96-l4-m2-add-add", "gs95-l4-m2-add-add"])
def test_additive_pair_is_one_block_of_every_place(name):
    """No multiplicative group: H is trivial, every place a representative,
    every row of character 0, and each split one block, whose score is the
    full-width one."""
    spec, h1, h2 = _character_case(name)
    n = len(spec.places())
    splits, blocks = _split_rows((h1, h2), n // 2)
    assert blocks.scalars.tolist() == [1] and blocks.columns.tolist() == [list(range(n))]
    assert not any(c.any() for c in blocks.chars)
    for _, rows in splits:
        per_char = _check_split_against_full_width(spec, (h1, h2), n // 2, blocks, rows)
        assert [s for s, *_ in per_char] == [0]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_character_dims_sum_to_full_width_ranks(data):
    """On every cap split of small gs96 and gs95 builds, on both arithmetic
    paths, the per-character score, summed, is dim V1 + dim V2 - dim(V1 +
    V2) from the ranks of the split's evaluation matrices on every place and
    of their stack, and the per-character bound is at least that score."""
    name = data.draw(st.sampled_from(sorted(CHARACTER_CASES)), label="case")
    spec, h1, h2 = _character_case(name)
    n = len(spec.places())
    budget = data.draw(st.integers(0, DIGIT_LOOP_BUDGET if spec.field.q > 1024 else n), label="budget")
    splits, blocks = _split_rows((h1, h2), budget)
    for _, rows in splits:
        _check_split_against_full_width(spec, (h1, h2), budget, blocks, rows)


def test_digit_loop_generator_matches_full_width_reference():
    """q = 1369: the generator built on 37 representatives per character and
    lifted is the full-width Zassenhaus RREF of the same split, entry for
    entry, with the same dims."""
    spec, h1, h2 = _character_case("gs96-l37-m1")
    assert spec.field.mul_table is None  # the digit-loop path
    d = len(spec.places()) - DIGIT_LOOP_BUDGET
    code = construct_lrc(spec, (h1, h2), d)
    dims, gen = _exhaustive_choice(spec, h1, h2, d)
    assert code.dims == dims and code.params.k == 59
    assert code.generator_matrix.tolist() == gen.tolist()


def test_golden_intersection_matches_coefficient_model(gf9, golden_code):
    """Independent oracle: the intersection must be exactly the evaluations
    of span{1, x^4 + x^2} (solve the parity constraints by hand)."""
    places = golden_code.spec.places()[:, 0].tolist()
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
    assert (p.n, p.k, p.d_designed, *p.r) == (6, 2, 2, 2, 1)
    d = golden_code.dims
    assert (*d.dim_v, d.dim_sum, d.budget) == (4, 3, 5, 4)
    assert p.k == sum(d.dim_v) - d.dim_sum


def test_tower_code_parameters(tower_code):
    p = tower_code.params
    assert p.n == 18 and p.k == 4 and p.r == (2, 1)
    assert tower_code.dims.caps is not None
    assert sum(tower_code.dims.caps) * 3 <= tower_code.dims.budget


def test_hermitian_code_parameters(hermitian_code):
    p = hermitian_code.params
    assert p.n == 120 and p.k == 5 and p.r == (1, 2)
    d = hermitian_code.dims
    assert p.k == sum(d.dim_v) - d.dim_sum == 7 + 9 - 11


def test_generator_rows_live_in_both_spaces(golden_code, tower_code):
    for code in (golden_code, tower_code):
        fld = code.field
        for h in code.groups:
            v = _capped(h, code.dims.budget, code.dims.caps)
            mat = evaluation_matrix(v, code.spec.places(), fld, h)
            for row in code.generator_matrix:
                assert gflinalg.in_span(fld, mat, row)


def _regime_flags(row, fld):
    """(variant, m, group1 flag, group2 flag) of a code in the regime of
    ``row``, or None for btv, which the CLI does not build.  An additive
    group of order p^j is spanned by j kernel elements, the second group's
    taken after the first's, so the two meet only in 0."""
    if row.theorem == "btv":
        return None
    variant, m = ("gs96", 1) if row.theorem.startswith(("thm33", "thm34")) else ("gs95", 2)
    basis, span = [], {0}
    for a in artin_schreier_kernel(fld):
        if a not in span:
            basis.append(a)
            span |= {fld.add(x, fld.mul(c, a)) for x in span for c in range(fld.p)}
    flags, used = [], 0
    for order, additive in ((row.r1 + 1, row.theorem.endswith(("33", ".2"))), (row.r2 + 1, row.theorem.endswith(".2"))):
        if additive:
            j = next(j for j in range(len(basis) + 1) if fld.p**j == order)
            flags.append("add:gens=" + ",".join(map(str, basis[used:used + j])))
            used += j
        else:
            flags.append(f"{'mul' if variant == 'gs96' else 'norm1'}:{order}")
    return variant, m, *flags


def _regime_codes():
    """One code per ``regimes`` row at l <= 5 that the CLI admits, built as
    ``construct`` builds it at the largest d <= n/2 that gives a code."""
    codes = {}
    for ell in (2, 3, 4, 5):
        fld = _field_for_ell(ell)
        for row in regimes(ell):
            flags = _regime_flags(row, fld)
            if flags is None:
                continue
            spec = TowerSpec(flags[0], fld, flags[1])
            g1, g2 = (parse_group_spec(spec, flag) for flag in flags[2:])
            assert validate_regime(spec, g1, g2) == row.theorem
            n = len(spec.places())
            for d in range(n // 2, 0, -1):
                try:
                    codes[row] = construct_lrc(spec, (g1, g2), d)
                    break
                except LrcError:
                    continue
    return codes


def _assert_orbit_geometry(code):
    """The geometry ``verify_definition1`` used to check at run time: each
    set of place i has r_s members in [0, n), none of them i, the two sets
    are disjoint, and a set's repair-variable values and i's are pairwise
    distinct (so its Lagrange nodes never collide)."""
    n = code.params.n
    own = np.arange(n)[:, None]
    sets1, sets2 = code.recovery_sets
    assert (sets1.shape, sets2.shape) == ((n, code.params.r[0]), (n, code.params.r[1]))
    assert not (sets1[:, :, None] == sets2[:, None, :]).any()
    for sets, g in zip(code.recovery_sets, code.groups):
        assert sets.dtype == np.intp and ((0 <= sets) & (sets < n)).all()
        assert not (sets == own).any()
        nodes = np.sort(code.spec.places()[np.hstack([sets, own]), g.w_index], axis=1)
        assert not (nodes[:, 1:] == nodes[:, :-1]).any()


# the ladder codes' construct flags past the golden and y-tower fixtures, and the two add/add pins
_GEOMETRY_FLAGS = [
    ("gs95", 5, 2, "norm1:2", "norm1:3", 100),
    ("gs96", 7, 2, "add:kernel", "mul:6", 150),
    ("gs96", 5, 3, "add:kernel", "mul:4", 250),
    ("gs96", 4, 2, "add:gens=1", "add:gens=10", 24),
    ("gs95", 4, 2, "add:gens=1", "add:gens=10", 30),
]


def test_recovery_set_geometry(golden_code, tower_code):
    """The derived sets have the geometry of Definition 1 on every regime
    the CLI builds at l <= 5, on the five ladder codes and on both add/add
    pins: the group theory (a free action, H1 and H2 meeting only in the
    identity) that replaced the run-time checks, tested."""
    codes = _regime_codes()
    assert sorted({row.theorem for row in codes}) == ["thm33", "thm34.2", "thm35.1", "thm35.2"]
    assert len(codes) == 8
    codes = [*codes.values(), golden_code, tower_code]
    for variant, ell, m, flag1, flag2, d in _GEOMETRY_FLAGS:
        spec = TowerSpec(variant, _field_for_ell(ell), m)
        codes.append(construct_lrc(spec, (parse_group_spec(spec, flag1), parse_group_spec(spec, flag2)), d))
    for code in codes:
        _assert_orbit_geometry(code)


def test_char_bounds_cap_a_character_at_its_representatives():
    """The bound of character s is min(#rows1, #rows2, n/u): character 0
    has 5 and 4 rows on 3 representatives, so at most 3 independent vectors
    lie in V1_0 ∩ V2_0, where min(#rows1, #rows2) alone would allow 4."""
    blocks = construct._Blocks(
        mats=(np.zeros((6, 3), dtype=np.uint8), np.zeros((6, 3), dtype=np.uint8)),
        chars=(np.array([0, 0, 0, 0, 0, 1]), np.array([0, 0, 0, 0, 1, 1])),
        scalars=np.array([1, 8]),
        columns=np.arange(6).reshape(2, 3),
    )
    rows = (np.arange(6), np.arange(6))
    assert _char_bounds(blocks, rows).tolist() == [3, 1]
    assert _char_bounds(blocks, (np.arange(2), np.arange(6))).tolist() == [2, 0]


def test_every_codeword_meets_designed_distance(golden_code, tower_code):
    from lrctower import brute_force_distance

    for code in (golden_code, tower_code):
        assert brute_force_distance(code) >= code.params.d_designed


def test_construct_errors(gf9):
    spec, h1, h2 = _groups_m1(gf9)
    with pytest.raises(ValueError):
        construct_lrc(spec, (h1, h2), 0)
    with pytest.raises(ValueError):
        construct_lrc(spec, (h1, h2), 7)
    # d = n leaves budget 0 < (r1 - 1) * pole degree of w
    with pytest.raises(BudgetTooSmall):
        construct_lrc(spec, (h1, h2), 6)
    trivial = build_recovery_group(spec, "multiplicative", order=1)
    with pytest.raises(IllegalOrder):
        construct_lrc(spec, (h1, trivial), 2)


@pytest.mark.parametrize("count", [1, 3])
def test_construct_and_code_refuse_other_than_two_groups(gf9, golden_code, monkeypatch, count):
    """t = 2 is one check, ``check_groups``: construct_lrc and LrcCode
    refuse one group and three groups by name, and construct_lrc does so
    before any spanning set is enumerated."""
    spec, h1, h2 = _groups_m1(gf9)
    groups = (h1, h2, h1)[:count]

    def forbidden(*args):
        raise AssertionError("construct_lrc started work on a group count other than 2")

    monkeypatch.setattr(construct, "spanning_set", forbidden)
    message = f"groups must hold 2 entries, got {count}"
    with pytest.raises(ValueError, match=message):
        construct_lrc(spec, groups, 2)
    with pytest.raises(ValueError, match=message):
        construct.LrcCode(spec=spec, groups=groups, generator_matrix=golden_code.generator_matrix,
                          d_designed=2, dims=golden_code.dims)


def test_full_distance_target_gives_repetition_code(gf16):
    """Both groups of order 2: budget 0 leaves only constants, a weight-n code."""
    spec = TowerSpec("gs96", gf16, 1)
    ker = [a for a in artin_schreier_kernel(gf16) if a]
    h1 = build_recovery_group(spec, "additive", shifts=ker[:1])
    h2 = build_recovery_group(spec, "additive", shifts=ker[1:2])
    n = len(spec.places())
    code = construct_lrc(spec, (h1, h2), n)
    assert code.params.k == 1
    from lrctower import brute_force_distance

    assert brute_force_distance(code) == n


def test_xz_tower_additive_pair_code(gf16):
    """Pair of shift groups on the Hermitian level (orders 2 x 2 <= l = 4)."""
    spec = TowerSpec("gs95", gf16, 2)
    ker = [a for a in artin_schreier_kernel(gf16) if a]
    h1 = build_recovery_group(spec, "additive", shifts=ker[:1])
    h2 = build_recovery_group(spec, "additive", shifts=ker[1:2])
    code = construct_lrc(spec, (h1, h2), 40)
    assert code.params.n == 60 and code.params.r == (1, 1)
    assert code.params.k >= 2
    from lrctower import verify_code

    assert verify_code(code).ok


def test_spanning_functions_respect_budget(gf9, gf25):
    cases = [
        (TowerSpec("gs96", gf9, 2), "additive", {"shifts": "kernel"}),
        (TowerSpec("gs96", gf9, 2), "multiplicative", {"order": 2}),
        (TowerSpec("gs95", gf25, 2), "multiplicative", {"order": 3}),
    ]
    for spec, kind, kwargs in cases:
        h = build_recovery_group(spec, kind, **kwargs)
        for budget in (0, 5, 11, 20):
            t = spanning_set(h, budget)
            assert (t @ spec.pole_weights() <= budget).all()
            # the power of w beside g(w)^j, or beside the scalar-invariant monomial
            if kind == "additive":
                w_power = t[:, h.w_index] % h.order
            else:
                w_power = t[:, scaled_generators(spec.variant, spec.m)].sum(axis=1) % h.order
            assert ((0 <= w_power) & (w_power <= max(h.r - 1, 0))).all()


def test_scalar_pair_on_y_tower_gf49():
    """Coprime scalar groups (orders 2 and 3) both act on every coordinate."""
    f49 = FiniteField(7, 2)
    spec = TowerSpec("gs96", f49, 1)
    h1 = build_recovery_group(spec, "multiplicative", order=2)
    h2 = build_recovery_group(spec, "multiplicative", order=3)
    from lrctower import combine, verify_code

    assert combine(h1, h2) == "direct"
    code = construct_lrc(spec, (h1, h2), 30)
    assert code.params.n == 42 and code.params.r == (1, 2)
    assert code.params.k >= 2
    assert verify_code(code).ok


def test_level_three_code(gf9):
    spec = TowerSpec("gs96", gf9, 3)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=2)
    code = construct_lrc(spec, (h1, h2), 18)
    assert code.params.n == 54 and code.params.k >= 2
    assert sum(code.dims.caps) * 9 <= code.dims.budget
    from lrctower import verify_code

    assert verify_code(code).ok


def test_mixed_pair_on_y_tower_gf16(gf16):
    """Kernel shifts with the full scalar group (orders 4 x 3)."""
    spec = TowerSpec("gs96", gf16, 2)
    h1 = build_recovery_group(spec, "additive", shifts="kernel")
    h2 = build_recovery_group(spec, "multiplicative", order=3)
    code = construct_lrc(spec, (h1, h2), 12)
    assert code.params.n == 48 and code.params.r == (3, 2)
    from lrctower import verify_code

    assert verify_code(code).ok
