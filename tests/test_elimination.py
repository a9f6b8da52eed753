"""Elimination kernels against a pure-Python Gauss-Jordan reference built on
Field.cmul / Field.cinv, over small and large primes and extension degrees,
on row counts that cover zero, one and several row blocks of rref."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from hopfgal import Field
from hopfgal import _arrays as ar
from hopfgal.errors import PremiseFailed
from hopfgal.exactfield import P_MAX

# extension degree shrinks as p grows, to keep the reference loops fast
FIELDS = [Field(p, k) for p, k in [(2, 1), (2, 4), (3, 1), (3, 3), (5, 1),
                                   (5, 2), (7, 1), (7, 2), (65537, 1),
                                   (65537, 2), (P_MAX, 1)]]


def to_rows(M):
    return [[tuple(int(c) for c in x) for x in row] for row in M]


def to_array(field, rows, n):
    out = ar.zeros(field, (len(rows), n))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def gauss_jordan(field, rows, n):
    """Reduced row echelon rows and pivot columns, one pivot at a time."""
    rows = [list(r) for r in rows]
    zero = field.czero
    pivots = []
    r = 0
    for c in range(n):
        i = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = field.cinv(rows[r][c])
        rows[r] = [field.cmul(inv, x) for x in rows[r]]
        for j in range(len(rows)):
            fac = rows[j][c]
            if j != r and fac != zero:
                rows[j] = [field.csub(x, field.cmul(fac, y))
                           for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def null_basis(field, R, pivots, n):
    """Kernel basis of the rref rows R: one vector per free column."""
    out = []
    for c in (c for c in range(n) if c not in pivots):
        v = [field.czero] * n
        v[c] = field.cone
        for row, pc in zip(R, pivots):
            v[pc] = field.cneg(row[c])
        out.append(v)
    return out


@st.composite
def systems(draw):
    """(field, M): an (m, n, k) matrix, often rank-deficient or sparse, with
    zero rows."""
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 200))
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p, k = field.p, field.k
    kind = draw(st.sampled_from(["thin", "dense", "sparse"]))
    if kind == "thin":
        # product of thin random matrices: rank at most r
        r = draw(st.integers(0, 6))
        A = rng.integers(0, p, size=(m, r, k))
        B = rng.integers(0, p, size=(r, n, k))
        M = ar.fmatmul(field, A, B) if r else ar.zeros(field, (m, n))
    elif kind == "dense":
        M = rng.integers(0, p, size=(m, n, k))
    else:
        # at most a fifth of the cells nonzero, like the center and
        # idempotent systems of a fiber scan: most pivots skip most rows
        M = ar.zeros(field, (m, n))
        cells = rng.choice(m * n, draw(st.integers(0, m * n // 5)), replace=False)
        M.reshape(m * n, k)[cells] = rng.integers(0, p, size=(cells.size, k))
    M[rng.random(m) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0
    return field, M


@settings(max_examples=100, deadline=None)
@given(case=systems())
def test_rref_matches_gauss_jordan(case):
    field, M = case
    n = M.shape[1]
    R, pivots = ar.rref(field, M)
    ref_rows, ref_pivots = gauss_jordan(field, to_rows(M), n)
    assert pivots == ref_pivots
    assert np.array_equal(R, to_array(field, ref_rows, n))
    # the single-pivot routine over all rows gives the same bits
    R1, pivots1 = ar._rref_rows(field, M % field.p)
    assert pivots1 == pivots and np.array_equal(R1, R)


@settings(max_examples=40, deadline=None)
@given(case=systems())
def test_nullspace_matches_gauss_jordan(case):
    field, M = case
    n = M.shape[1]
    ref_rows, ref_pivots = gauss_jordan(field, to_rows(M), n)
    ref_null = null_basis(field, ref_rows, ref_pivots, n)
    want, _ = gauss_jordan(field, ref_null, n)
    got = ar.nullspace(field, M)
    assert np.array_equal(got, to_array(field, want, n))
    if got.shape[0]:
        assert not np.any(ar.fmatmul(field, M, got.transpose(1, 0, 2)))


@settings(max_examples=40, deadline=None)
@given(case=systems(), consistent=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_matches_gauss_jordan(case, consistent, seed):
    field, M = case
    m, n = M.shape[0], M.shape[1]
    rng = np.random.default_rng(seed)
    if consistent:
        x0 = rng.integers(0, field.p, size=(n, 1, field.k))
        b = ar.fmatmul(field, M, x0)[:, 0]
    else:
        b = rng.integers(0, field.p, size=(m, field.k))
    aug = [row + [tuple(int(c) for c in b[i])] for i, row in enumerate(to_rows(M))]
    ref_rows, ref_pivots = gauss_jordan(field, aug, n + 1)
    got = ar.solve(field, M, b)
    if n in ref_pivots:
        assert got is None and not consistent
        return
    want = [field.czero] * n
    for row, pc in zip(ref_rows, ref_pivots):
        want[pc] = row[n]
    assert np.array_equal(got, to_array(field, [want], n)[0])


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), m=st.integers(0, 12), r=st.integers(0, 12),
       n=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
# over F_{p^k} fmatmul takes the images of A when m < n, else of B
@example(field=Field(3, 3), m=2, r=5, n=9, seed=1)
@example(field=Field(3, 3), m=9, r=5, n=2, seed=2)
@example(field=Field(2, 4), m=0, r=3, n=4, seed=3)
@example(field=Field(2, 4), m=4, r=0, n=3, seed=4)
@example(field=Field(5, 2), m=3, r=4, n=0, seed=5)
def test_fmatmul_matches_cmul_sums(field, m, r, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, field.p, size=(m, r, field.k))
    B = rng.integers(0, field.p, size=(r, n, field.k))
    rows_a, rows_b = to_rows(A), to_rows(B)
    want = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = field.czero
            for t in range(r):
                acc = field.cadd(acc, field.cmul(rows_a[i][t], rows_b[t][j]))
            row.append(acc)
        want.append(row)
    assert np.array_equal(ar.fmatmul(field, A, B), to_array(field, want, n))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([Field(2, 2), Field(3, 2), Field(65537, 2),
                              Field(2, 3), Field(5, 3), Field(2, 4),
                              Field(3, 4)]),
       shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fmul_matches_cmul_on_broadcast_shapes(field, shapes, seed):
    rng = np.random.default_rng(seed)
    k = field.k
    a = rng.integers(0, field.p, size=shapes.input_shapes[0] + (k,))
    b = rng.integers(0, field.p, size=shapes.input_shapes[1] + (k,))
    got = ar.fmul(field, a, b)
    assert got.shape == shapes.result_shape + (k,)
    a, b = np.broadcast_to(a, got.shape), np.broadcast_to(b, got.shape)
    for idx in np.ndindex(shapes.result_shape):
        want = field.cmul(tuple(a[idx].tolist()), tuple(b[idx].tolist()))
        assert tuple(got[idx].tolist()) == want


@settings(max_examples=60, deadline=None)
@given(case=systems(), extra=st.integers(1, 150), seed=st.integers(0, 2 ** 32 - 1))
def test_rref_ignores_interleaved_zero_rows(case, extra, seed):
    # rref drops all-zero rows before folding blocks; rows that are zero only
    # mod p (multiples of p) must not change the result either
    field, M = case
    m, n, k = M.shape
    rng = np.random.default_rng(seed)
    keep = np.zeros(m + extra, dtype=bool)
    keep[rng.choice(m + extra, m, replace=False)] = True
    padded = field.p * rng.integers(0, 2, size=(m + extra, n, k))
    padded[keep] = M
    R, pivots = ar.rref(field, M)
    R2, pivots2 = ar.rref(field, padded)
    assert pivots2 == pivots and np.array_equal(R2, R)


def test_row_space_coordinates_need_an_rref_basis():
    # over F_5, (1, 2) = 1 (1, 1) + 1 (0, 1): its pivot entries (1, 2) are
    # coordinates only in an rref basis, so [[1, 1], [0, 1]] is refused
    f = Field(5)
    v = np.array([[[1], [2]]], dtype=np.int64)
    with pytest.raises(PremiseFailed):
        ar.coords_in_row_space_many(f, np.array([[[1], [1]], [[0], [1]]]), v)
    coords = ar.coords_in_row_space_many(f, ar.identity(f, 2), v)
    assert coords[0, :, 0].tolist() == [1, 2]
