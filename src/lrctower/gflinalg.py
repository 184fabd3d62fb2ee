"""Dense linear algebra over GF(q) on integer-coded matrices.

Gaussian elimination uses first-nonzero pivoting, so echelon forms, ranks
and intersection bases are identical across runs and platforms.  One loop
eliminates at two depths: ``rref`` clears every other row of each pivot
column (the canonical form), ``echelon`` only the rows below it, which is
all a rank, a span test or a Zassenhaus split needs.  The loop works on a
copy in ``field.dtype``, and each pivot step updates the rows it clears
from the pivot column rightward.  A step that updates at least q rows, on
the table path, builds the (q x w) table of the negated pivot row's
multiples once and needs one row gather and one add-table gather per row;
smaller steps, and every step above ``TABLE_CAP``, run the fused
``FiniteField.vec_axpy``.  ``matmul`` keeps one ``vec_axpy`` per inner
index, accumulating in ``field.dtype``: its hot caller, ``encode``,
multiplies one row, for which a table of multiples would serve one row.
"""

from __future__ import annotations

import numpy as np

from .field import FiniteField

# Rows per row update in an elimination step: bounds the gather-index
# temporaries (numpy widens each index to intp), not the result.
ROW_BLOCK = 128


def as_matrix(field: FiniteField, rows) -> np.ndarray:
    """Two-dimensional array of element codes: ``field.dtype`` input is kept,
    anything else becomes int64; entries are range-checked."""
    m = np.asarray(rows)
    if m.dtype != field.dtype:
        m = np.asarray(m, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.size and (m.min() < 0 or m.max() >= field.q):
        raise ValueError("matrix entries outside field range")
    return m


def _eliminate(field: FiniteField, mat, full: bool) -> tuple[np.ndarray, list[int]]:
    """The one elimination loop.  Pivot search scans columns left to right
    and takes the first nonzero entry at or below the current row, scaled to
    1.  ``full`` clears the pivot column in every other row (RREF), else only
    below the pivot.  The pivot row is zero left of its pivot column, so
    every row update runs from that column rightward."""
    m = np.array(as_matrix(field, mat), dtype=field.dtype)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        pivot = m[r, c:]
        pivot[:] = field.vec_mul(pivot, field.inv(int(pivot[0])))
        if full:
            pivot[0] = 0  # hide the pivot row from the row search
            others = m[:, c].nonzero()[0]
            pivot[0] = 1
        else:
            others = r + 1 + m[r + 1:, c].nonzero()[0]
        if others.size >= field.q and field.mul_table is not None:
            # f * (-pivot) for every f: one row gather per row, one add gather
            multiples = field.mul_table[:, field.neg_table[pivot]]
            for lo in range(0, others.size, ROW_BLOCK):
                block = others[lo:lo + ROW_BLOCK]
                flat = m[block, c:].astype(field._flat_index)
                flat *= field._flat_q
                flat += multiples[m[block, c]]
                m[block, c:] = field._add_flat.take(flat)
        elif others.size:
            # -(f * x) = (-f) * x: negate the factors, not the product
            neg_factors = field.vec_neg(m[others, c])[:, None]
            for lo in range(0, others.size, ROW_BLOCK):
                block = others[lo:lo + ROW_BLOCK]
                m[block, c:] = field.vec_axpy(m[block, c:], neg_factors[lo:lo + ROW_BLOCK], pivot)
        pivots.append(c)
        r += 1
    return m, pivots


def rref(field: FiniteField, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form, in ``field.dtype``: (R, pivot_cols)."""
    return _eliminate(field, mat, True)


def echelon(field: FiniteField, mat) -> tuple[np.ndarray, list[int]]:
    """Row-echelon basis with unit pivots, zero rows dropped, in
    ``field.dtype``: (B, pivot_cols).  Rows above a pivot are not cleared,
    so B spans the row space but is not canonical."""
    m, pivots = _eliminate(field, mat, False)
    return m[: len(pivots)], pivots


def rank(field: FiniteField, mat) -> int:
    return len(echelon(field, mat)[1])


def in_span(field: FiniteField, mat, rows) -> bool:
    """True iff every row of ``rows`` lies in the row space of ``mat``."""
    m = as_matrix(field, mat)
    return rank(field, m) == rank(field, np.vstack([m, as_matrix(field, rows)]))


def zassenhaus(field: FiniteField, mat_a, mat_b) -> np.ndarray:
    """Row-echelon basis of rowspace(A) ∩ rowspace(B), by the doubled-block
    (Zassenhaus) elimination; not canonical.

    Stack [[A A], [B 0]] and bring it to row-echelon form.  The rows
    pivoting right of column n have a zero left half, and their right
    halves are a basis of the intersection.
    """
    a = as_matrix(field, mat_a)
    b = as_matrix(field, mat_b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("column counts differ")
    n = a.shape[1]
    top = np.hstack([a, a])
    bot = np.hstack([b, np.zeros_like(b)])
    basis, pivots = echelon(field, np.vstack([top, bot]))
    split = sum(c < n for c in pivots)
    return basis[split:, n:]


def rowspace_intersection(field: FiniteField, mat_a, mat_b) -> np.ndarray:
    """Canonical (RREF) basis of rowspace(A) ∩ rowspace(B): the k-row
    ``zassenhaus`` basis reduced, which has no zero row to drop."""
    return rref(field, zassenhaus(field, mat_a, mat_b))[0]


def matmul(field: FiniteField, a, b) -> np.ndarray:
    """Matrix product over GF(q), in ``field.dtype``: one fused ``vec_axpy``
    per inner index h adds the outer product of column h of ``a`` and row h
    of ``b``."""
    a = as_matrix(field, a).astype(field.dtype, copy=False)
    b = as_matrix(field, b).astype(field.dtype, copy=False)
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=field.dtype)
    for h in range(a.shape[1]):
        out = field.vec_axpy(out, a[:, h:h + 1], b[h])
    return out
