"""Dense exact linear algebra over a Field on numpy int64 arrays.

Arrays carry a trailing axis of length field.k holding coefficient vectors
over F_p (low degree first).  All kernels reduce mod p and mod the field
modulus.  Products go through one integer matmul, `_imatmul`, which uses
float64 BLAS whenever every dot product stays below 2^52 and is exact.

Sparse rows are CSR triples (row pointers, columns, (nnz, k) values);
`csr_expand` lists the entries of chosen rows, the step of every row-wise
sparse product in the package, and `scatter_add` sums terms into cells.

Elimination is row-batched: `rref` folds ROW_BLOCK rows at a time into a
running RREF basis.  Each block is reduced against the basis with one
matmul, its remainder is eliminated one pivot at a time (on at most
ROW_BLOCK rows), and the new pivot columns are cleared from the basis with
one more matmul.  Tall systems such as the 15625 x 125 dual-integral system
thus cost a few hundred small matmuls, not one full-height update per pivot.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .exactfield import Field, Scalar

# rows folded into the running basis per step of rref
ROW_BLOCK = 64


def asarray(field: Field, data) -> np.ndarray:
    """Coerce nested data (ints, coeff lists, or Scalars) to a (... , k) array.
    An int64 array already reduced mod p is returned as is, not copied."""
    if isinstance(data, np.ndarray) and data.dtype == np.int64:
        if data.shape[-1:] == (field.k,):
            if data.size == 0 or (data.min() >= 0 and data.max() < field.p):
                return data
            return data % field.p
    def conv(x):
        if isinstance(x, Scalar):
            return list(x.coeffs)
        if isinstance(x, (int, np.integer)):
            return [int(x)] + [0] * (field.k - 1)
        x = list(x)
        if len(x) == field.k and all(isinstance(y, (int, np.integer)) for y in x):
            return [int(y) for y in x]  # an explicit coefficient vector
        return [conv(y) for y in x]
    arr = np.array(conv(data), dtype=np.int64)
    if arr.shape[-1] != field.k:
        raise ShapeMismatch(f"trailing axis {arr.shape[-1]} != field degree {field.k}")
    return arr % field.p


def zeros(field: Field, shape) -> np.ndarray:
    return np.zeros(tuple(shape) + (field.k,), dtype=np.int64)


def identity(field: Field, n: int) -> np.ndarray:
    out = zeros(field, (n, n))
    out[np.arange(n), np.arange(n), 0] = 1
    return out


def unit_scalar(field: Field, value=1) -> np.ndarray:
    out = np.zeros(field.k, dtype=np.int64)
    out[0] = int(value) % field.p
    return out


def scalar_of(field: Field, arr) -> Scalar:
    return Scalar(field, tuple(int(c) for c in np.asarray(arr)))


def fadd(field: Field, a, b):
    return (a + b) % field.p


def fsub(field: Field, a, b):
    return (a - b) % field.p


def fmul(field: Field, a, b):
    """Elementwise field product of broadcastable coefficient arrays."""
    p, k = field.p, field.k
    if k == 1:
        return (a * b) % p
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    full = np.zeros(shape + (2 * k - 1,), dtype=np.int64)
    for i in range(k):
        full[..., i:i + k] += a[..., i, None] * b
    return np.tensordot(full % p, field._red, axes=([-1], [0])) % p


def fmatmul(field: Field, A, B):
    """Matrix product: A (m, r, k) @ B (r, n, k) -> (m, n, k)."""
    p, k = field.p, field.k
    if k == 1:
        return _imatmul(A[..., 0], B[..., 0], p)[..., None]
    m, r = A.shape[0], A.shape[1]
    n = B.shape[1]
    full = np.zeros((m, n, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            full[:, :, i + j] += _imatmul(A[:, :, i], B[:, :, j], p)
    return np.tensordot(full % p, field._red, axes=([-1], [0])) % p


def _imatmul(a, b, mod):
    """Exact integer matmul mod `mod` of operands with entries in [0, mod),
    batched over leading axes as np.matmul; uses float64 BLAS when every
    dot product stays below 2^52."""
    inner = a.shape[-1]
    # the float64 BLAS path wins only on large products; small integer
    # matmuls are exact and avoid the conversion overhead
    if a.size * b.shape[-1] > 32768 and inner * (mod - 1) * (mod - 1) < 2 ** 52:
        c = np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    else:
        c = a @ b
    return c % mod


def binary_power(x, e: int, mul, last=None):
    """x^e for e >= 1 by left-to-right square and multiply under the
    associative product mul(a, b).  `last(a, b)`, when given, computes the
    final product in its place (say, only its trace); e = 1 returns x."""
    ops = "".join("sm" if bit == "1" else "s" for bit in bin(e)[3:])
    acc = x
    for t, op in enumerate(ops):
        step = last if last is not None and t == len(ops) - 1 else mul
        acc = step(acc, acc) if op == "s" else step(acc, x)
    return acc


def scalar_inv(field: Field, a) -> np.ndarray:
    return np.array(field.cinv(tuple(int(c) for c in a)), dtype=np.int64)


def _outer(field: Field, col, row):
    """col (m, k) x row (n, k) -> (m, n, k) of field products."""
    return fmul(field, col[:, None, :], row[None, :, :])


def rref(field: Field, M: np.ndarray):
    """Reduced row echelon form of M (m, n, k).  Returns (R, pivot_columns).

    Rows are folded into a running RREF basis ROW_BLOCK at a time: a block
    is reduced against the basis by one fmatmul, its remainder is brought to
    RREF by single-pivot elimination, and the new pivot columns are cleared
    from the basis by one more fmatmul.  The RREF of a row space is unique,
    so R and the pivots do not depend on the blocking.  All-zero rows are
    dropped first: they add nothing to the row space."""
    p = field.p
    M = M[M.any(axis=(1, 2))]
    m, n = M.shape[0], M.shape[1]
    basis, pivots = zeros(field, (0, n)), []
    for s in range(0, m, ROW_BLOCK):
        if len(pivots) == n:
            break
        block = M[s:s + ROW_BLOCK] % p
        if pivots:
            block = (block - fmatmul(field, block[:, pivots], basis)) % p
        new, new_pivots = _rref_rows(field, block)
        if not new_pivots:
            continue
        if pivots:
            basis = (basis - fmatmul(field, basis[:, new_pivots], new)) % p
        pivots = pivots + new_pivots
        order = np.argsort(pivots, kind="stable")
        basis = np.concatenate([basis, new])[order]
        pivots = [pivots[i] for i in order]
    return basis, pivots


def _rref_rows(field: Field, M: np.ndarray):
    """rref by single-pivot elimination, each pivot updating every row; M is
    reduced mod p and is overwritten."""
    p = field.p
    m, n = M.shape[0], M.shape[1]
    pivots = []
    r = 0
    c = 0
    while r < m and c < n:
        # the next pivot column is the first nonzero one below row r
        nz = np.flatnonzero(np.any(M[r:, c:, :], axis=(0, 2)))
        if nz.size == 0:
            break
        c += int(nz[0])
        i = r + int(np.flatnonzero(np.any(M[r:, c, :], axis=1))[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        inv = scalar_inv(field, M[r, c])
        M[r] = fmul(field, M[r], inv[None, :])
        factors = M[:, c, :].copy()
        factors[r] = 0
        M = (M - _outer(field, factors, M[r])) % p
        pivots.append(c)
        r += 1
        c += 1
    return M[:r], pivots


def rank(field: Field, M: np.ndarray) -> int:
    return len(rref(field, M)[1])


def nullspace(field: Field, M: np.ndarray) -> np.ndarray:
    """RREF basis (d, n, k) of {x : M @ x = 0} with M of shape (m, n, k),
    treating x as a column vector."""
    p = field.p
    R, pivots = rref(field, M)
    m, n = M.shape[0], M.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = zeros(field, (len(free), n))
    for idx, c in enumerate(free):
        basis[idx, c, 0] = 1
        for rrow, pc in enumerate(pivots):
            basis[idx, pc] = (-R[rrow, c]) % p
    if len(free):
        basis, _ = rref(field, basis)
    return basis


def row_space(field: Field, M: np.ndarray) -> np.ndarray:
    return rref(field, M)[0]


def solve(field: Field, M: np.ndarray, b: np.ndarray):
    """One solution x of M (m,n,k) @ x = b (m,k) treating x as a column, or
    None if inconsistent."""
    aug = np.concatenate([M, b[:, None, :]], axis=1)
    R, pivots = rref(field, aug)
    n = M.shape[1]
    if n in pivots:
        return None
    x = zeros(field, (n,))
    for rrow, pc in enumerate(pivots):
        x[pc] = R[rrow, n]
    return x


def inv_matrix(field: Field, M: np.ndarray) -> np.ndarray | None:
    """Inverse of a square matrix (n, n, k), or None if singular."""
    n = M.shape[0]
    eye = identity(field, n)
    aug = np.concatenate([M, eye], axis=1)
    R, pivots = rref(field, aug)
    if pivots != list(range(n)):
        return None
    return R[:, n:, :]


def in_row_space(field: Field, basis: np.ndarray, v: np.ndarray) -> bool:
    """Is v (n, k) in the span of rref basis rows (d, n, k)?"""
    return coords_in_row_space(field, basis, v) is not None


def coords_in_row_space(field: Field, basis: np.ndarray, v: np.ndarray):
    """Coordinates (d, k) of v in the rref basis rows, or None."""
    d = basis.shape[0]
    if d == 0:
        return None if np.any(v) else zeros(field, (0,))
    pivots = _pivot_columns(basis)
    if len(set(pivots)) == d:
        sub = basis[:, pivots, :]
        eye = identity(field, d)
        if np.array_equal(sub, eye):
            # basis is in rref: the only candidate coordinates are the pivot
            # entries of v, so a residual check settles membership
            coords = v[pivots, :].copy()
            residual = (v - fmatmul(field, coords[None, :, :], basis)[0]) % field.p
            return None if np.any(residual) else coords
    stacked = np.concatenate([basis, v[None, :, :]], axis=0)
    R, _ = rref(field, stacked)
    if R.shape[0] != d:
        return None
    pivots = _pivot_columns(basis)
    coords = v[pivots, :].copy()
    return coords


def coords_in_row_space_many(field: Field, basis: np.ndarray, V: np.ndarray):
    """Coordinates (t, d, k) of each row of V (t, n, k) in the rref basis
    rows, or None if any row falls outside the span."""
    d = basis.shape[0]
    t = V.shape[0]
    if d == 0:
        return None if np.any(V) else zeros(field, (t, 0))
    pivots = _pivot_columns(basis)
    if len(set(pivots)) == d:
        sub = basis[:, pivots, :]
        eye = identity(field, d)
        if np.array_equal(sub, eye):
            coords = V[:, pivots, :].copy()
            residual = (V - fmatmul(field, coords, basis)) % field.p
            return None if np.any(residual) else coords
    out = zeros(field, (t, d))
    for i in range(t):
        c = coords_in_row_space(field, basis, V[i])
        if c is None:
            return None
        out[i] = c
    return out


def _pivot_columns(basis: np.ndarray):
    pivots = []
    for row in basis:
        nz = np.flatnonzero(np.any(row, axis=1))
        pivots.append(int(nz[0]))
    return pivots


def csr_rows(m: int, n: int, cells: np.ndarray, vals: np.ndarray):
    """CSR (row pointers, columns, values) of the (m, n) matrix with
    nonzeros `vals` at the sorted flat cells r n + c."""
    return np.searchsorted(cells, np.arange(m + 1) * n), cells % n, vals


def csr(X: np.ndarray):
    """CSR rows of a dense (m, n, k) array, values (nnz, k)."""
    cells = np.flatnonzero(X.any(axis=-1))
    return csr_rows(X.shape[0], X.shape[1], cells,
                    X.reshape(-1, X.shape[-1])[cells])


def csr_expand(indptr: np.ndarray, rows: np.ndarray):
    """The entries of the CSR rows `rows`, in order, as (src, pos): CSR
    entry pos[e] lies in row rows[src[e]]."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    src = np.arange(rows.size).repeat(counts)
    pos = (starts - counts.cumsum() + counts).repeat(counts)
    pos += np.arange(pos.size)
    return src, pos


def scatter_add(out: np.ndarray, cells: np.ndarray, vals: np.ndarray):
    """out[cells[e]] += vals[e] in int64, repeated cells summed, for a
    contiguous out (N, k) and vals (E, k)."""
    k = out.shape[-1]
    np.add.at(out.reshape(-1), (cells[:, None] * k + np.arange(k)).reshape(-1),
              vals.reshape(-1))


def embed_array(small: Field, big: Field, arr: np.ndarray) -> np.ndarray:
    """Map a (... , k_small) array into (... , k_big) along the canonical
    embedding."""
    mat = small.embedding_matrix(big)
    return np.tensordot(arr, mat, axes=([-1], [0])) % big.p
