"""Dense exact linear algebra over a Field on numpy int64 arrays.

Arrays carry a trailing axis of length field.k holding coefficient vectors
over F_p (low degree first).  All kernels reduce mod p and mod the field
modulus.  Products go through one integer matmul, `_imatmul`, which uses
float32 BLAS when every dot product stays below 2^24, float64 BLAS when it
stays below 2^52, and int64 otherwise; each is exact under its bound.

At k > 1 a product x * b is sum_a x_a (t^a * b): `mul_images` gives the k
multiplication images t^a * b (a < k) as rows of a k x k block, so `fmul`,
`fmatmul` and the pivot update are each one integer matmul against the
images of one operand.  `fmatmul` is (m, r k) x (r k, n k), with the images
of the smaller operand; its dot products stay below r k (p - 1)^2, exact in
int64 while that is below 2^63, and `_imatmul` splits longer inner sums.

Sparse rows are CSR triples (row pointers, columns, (nnz, k) values);
`csr_expand` lists the entries of chosen rows, the step of every row-wise
sparse product in the package, `scatter_add` and `sum_by_key` sum terms
into cells, and `sparse_times_csr` and `sparse_times_dense` multiply a
sparse matrix by a CSR or a dense one.  When no column of the CSR factor
holds two entries (left multiplication by e in sl2), no two terms of
`sparse_times_csr` meet in a cell: it sorts them and sums no keys.

Elimination is row-batched: `rref` folds ROW_BLOCK rows at a time into a
running RREF basis.  Each block is reduced against the basis with one
matmul, its remainder is eliminated one pivot at a time (on at most
ROW_BLOCK rows), and the new pivot columns are cleared from the basis with
one more matmul.  Tall systems such as the 15625 x 125 dual-integral system
thus cost a few hundred small matmuls, not one full-height update per pivot.
A pivot step finds its column and row by argmax over a nonzero mask and
updates only the rows with a nonzero entry in its column, from that column
on, by one rank-1 product; pivot inverses are memoised per field.
"""

from __future__ import annotations

import numpy as np

from .errors import PremiseFailed, ShapeMismatch
# mul_images, binary_power and the memoised pivot inverses live with the
# polynomials, which use them too; the names are kept here
from .exactfield import Field, Scalar, _inv_images, binary_power, mul_images

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


def fadd(field: Field, a, b):
    return (a + b) % field.p


def fmul(field: Field, a, b):
    """Elementwise field product of broadcastable coefficient arrays."""
    if field.k == 1:
        return (a * b) % field.p
    if a.size > b.size:
        a, b = b, a
    # the images of the smaller operand, contracted with the larger
    return (b[..., None, :] @ mul_images(field, a))[..., 0, :] % field.p


def fmul_sum(field: Field, a, b, count: int):
    """a * b as the terms of int64 sums of at most `count` terms: over F_p
    left unreduced while count (p - 1)^2 < 2^63, so no such sum wraps."""
    if field.k == 1 and count * (field.p - 1) ** 2 < 2 ** 63:
        return a * b
    return fmul(field, a, b)


def fmatmul(field: Field, A, B):
    """Matrix product: A (m, r, k) @ B (r, n, k) -> (m, n, k).  At k > 1 it
    is one _imatmul of A against the images of B, (m, r k) x (r k, n k), or
    of the images of A against B when A is the smaller operand."""
    p, k = field.p, field.k
    if k == 1:
        return _imatmul(A[..., 0], B[..., 0], p)[..., None]
    m, r, n = A.shape[0], A.shape[1], B.shape[1]
    if m < n:
        img = mul_images(field, A).transpose(0, 3, 1, 2).reshape(m * k, r * k)
        C = _imatmul(img, B.transpose(0, 2, 1).reshape(r * k, n), p)
        return C.reshape(m, k, n).transpose(0, 2, 1)
    img = mul_images(field, B).transpose(0, 2, 1, 3).reshape(r * k, n * k)
    return _imatmul(A.reshape(m, r * k), img, p).reshape(m, n, k)


def _imatmul(a, b, mod):
    """Exact integer matmul mod `mod` of operands with entries in [0, mod),
    batched over leading axes as np.matmul.  Every dot product c is at most
    inner (mod - 1)^2: in float32 BLAS when that is below 2^24, in float64
    BLAS when it is below 2^52, else (and for small products, where the
    conversions cost more than the matmul saves) in int64.

    The float paths are exact, and reduce mod `mod` before their one cast
    back to int64.  With B the bound (2^24 or 2^52) and c < B:
    - the terms of c are non-negative integers, so every partial sum the
      GEMM forms, in any order, is an integer in [0, c], exact in the type
      (float32 holds the integers up to 2^24, float64 up to 2^53);
    - with c = k mod + s, 0 <= s < mod, the correctly rounded quotient
      q = fl(c / mod) is at least k (k is exact, rounding is monotone) and
      below k + 1: rounding moves c / mod by at most c / mod 2^-24 in
      float32 (2^-53 in float64), below 1 / mod as c < 2^24 (2^53), while
      k + 1 - c / mod >= 1 / mod.  So floor(q) = k, and the integers
      k mod <= c and c - k mod = s are exact."""
    inner = a.shape[-1]
    # int64 dot products of more than `step` terms could wrap: an F_{p^k}
    # image matmul has inner r k, which can pass MAX_INNER when p is large
    step = (2 ** 63 - 1) // (mod - 1) ** 2
    if inner > step:
        c = _imatmul(a[..., :step], b[..., :step, :], mod)
        return (c + _imatmul(a[..., step:], b[..., step:, :], mod)) % mod
    bound = inner * (mod - 1) ** 2
    if a.size * b.shape[-1] <= 32768 or bound >= 2 ** 52:
        return a @ b % mod
    ftype = np.float32 if bound < 2 ** 24 else np.float64
    c = a.astype(ftype) @ b.astype(ftype)
    q = c / ftype(mod)
    np.floor(q, out=q)
    q *= mod
    c -= q
    return c.astype(np.int64)


def scalar_inv(field: Field, a) -> np.ndarray:
    return _inv_images(field, tuple(int(c) for c in a))[0].copy()


def rref(field: Field, M: np.ndarray):
    """Reduced row echelon form of M (m, n, k).  Returns (R, pivot_columns).

    Rows are folded into a running RREF basis ROW_BLOCK at a time: a block
    is reduced against the basis by one fmatmul, its remainder is brought to
    RREF by single-pivot elimination, and the new pivot columns are cleared
    from the basis by one more fmatmul.  The RREF of a row space is unique,
    so R and the pivots do not depend on the blocking.  The all-zero rows of
    each block are dropped: they add nothing to the row space."""
    p = field.p
    m, n = M.shape[0], M.shape[1]
    basis, pivots = zeros(field, (0, n)), []
    for s in range(0, m, ROW_BLOCK):
        if len(pivots) == n:
            break
        block = M[s:s + ROW_BLOCK] % p
        block = block[block.any(axis=(1, 2))]
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
    """rref by single-pivot elimination; M is reduced mod p and is
    overwritten.  A pivot updates only the rows with a nonzero entry in its
    column, and only from that column on; nz tracks the nonzero cells."""
    p, k = field.p, field.k
    m, n = M.shape[0], M.shape[1]
    W = M[..., 0] if k == 1 else M
    nz = W != 0 if k == 1 else M.any(axis=2)
    pivots = []
    r = c = 0
    while r < m and c < n:
        # the next pivot column is the first nonzero one below row r
        cols = nz[r:, c:].any(axis=0)
        j = int(cols.argmax())
        if not cols[j]:
            break
        c += j
        i = r + int(nz[r:, c].argmax())
        if i != r:
            W[[r, i]] = W[[i, r]]
            nz[[r, i]] = nz[[i, r]]
        if k == 1:
            row = W[r, c:] * pow(int(W[r, c]), -1, p) % p
        else:
            row = W[r, c:] @ _inv_images(field, tuple(W[r, c].tolist())) % p
        W[r, c:] = row
        # no later step reads column c of row r, so it leaves the mask
        nz[r, c] = False
        rows = np.flatnonzero(nz[:, c])
        if rows.size:
            sub = W[rows, c:]
            if k == 1:
                sub = (sub - sub[:, :1] * row) % p
            else:
                # the rank-1 update: factors against the images t^a * row
                img = mul_images(field, row).transpose(1, 0, 2).reshape(k, -1)
                sub = (sub - (sub[:, 0] @ img).reshape(sub.shape)) % p
            W[rows, c:] = sub
            nz[rows, c:] = sub != 0 if k == 1 else sub.any(axis=2)
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


def coords_in_row_space(field: Field, basis: np.ndarray, v: np.ndarray):
    """Coordinates (d, k) of v in the rref basis rows, or None."""
    coords = coords_in_row_space_many(field, basis, v[None])
    return None if coords is None else coords[0]


def coords_in_row_space_many(field: Field, basis: np.ndarray, V: np.ndarray):
    """Coordinates (t, d, k) of each row of V (t, n, k) in the rref basis
    rows, or None if any row falls outside the span; PremiseFailed if the
    basis is not in rref, where pivot entries are not coordinates."""
    d, t = basis.shape[0], V.shape[0]
    if d == 0:
        return None if np.any(V) else zeros(field, (t, 0))
    pivots = _pivot_columns(basis)
    if not np.array_equal(basis[:, pivots], identity(field, d)):
        raise PremiseFailed("basis is not in reduced row echelon form")
    coords = V[:, pivots, :].copy()
    residual = (V - fmatmul(field, coords, basis)) % field.p
    return None if np.any(residual) else coords


def _pivot_columns(basis: np.ndarray):
    return basis.any(axis=2).argmax(axis=1).tolist()


def csr_rows(m: int, n: int, cells: np.ndarray, vals: np.ndarray):
    """CSR (row pointers, columns, values) of the (m, n) matrix with
    nonzeros `vals` at the sorted flat cells r n + c."""
    return np.searchsorted(cells, np.arange(m + 1) * n), cells % n, vals


def csr(X: np.ndarray):
    """CSR rows of a dense (m, n, k) array, values (nnz, k)."""
    cells = np.flatnonzero(X[..., 0] != 0 if X.shape[-1] == 1 else
                           X.any(axis=-1))
    return csr_rows(X.shape[0], X.shape[1], cells,
                    X.reshape(-1, X.shape[-1])[cells])


def csr_expand(indptr: np.ndarray, rows: np.ndarray, ends=None):
    """The entries of the CSR rows `rows`, in order, as (src, pos): CSR
    entry pos[e] lies in row rows[src[e]].  Row r ends at indptr[r + 1], or
    at ends[r] for rows that are not stored back to back."""
    starts = indptr[rows]
    counts = (indptr[rows + 1] if ends is None else ends[rows]) - starts
    src = np.arange(rows.size).repeat(counts)
    pos = (starts - counts.cumsum() + counts).repeat(counts)
    pos += np.arange(pos.size)
    return src, pos


def sparse_times_csr(field: Field, n: int, cells: np.ndarray,
                     vals: np.ndarray, csr):
    """X @ C for a sparse X with n columns, given as the flat cells r n + t
    of its nonzeros and their (nnz, k) values, and a CSR matrix C of n rows
    and at most n columns; the product comes back in the same form, its
    cells sorted, distinct and nonzero.  A cell sums at most n terms in
    int64 (`fmul_sum`).  When no column of C holds two entries, no two terms
    X[r, t] C[t, c] share a cell, and none is zero (C's stored entries are
    nonzero, as X's), so the terms are only sorted, with no key sum."""
    indptr, cols, cvals = csr
    r, t = np.divmod(cells, n)
    # nonzero m of X meets the entries of CSR row t[m]
    src, pos = csr_expand(indptr, t)
    keys = r[src] * n + cols[pos]
    if np.bincount(cols, minlength=1).max() > 1:
        return sum_by_key(field, keys,
                          fmul_sum(field, vals[src], cvals[pos], n))
    order = np.argsort(keys, kind="stable")
    return keys[order], fmul(field, vals[src[order]], cvals[pos[order]])


def sum_by_key(field: Field, keys: np.ndarray, vals: np.ndarray):
    """The distinct keys (>= 0), sorted, whose values (E, k) sum to nonzero,
    and those sums, reduced: keyed by cell, the terms of two sides of an
    identity, one side negated, sum to nonzero where the sides differ."""
    # timsort: the keys of a row product come in nearly sorted runs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    acc = np.add.reduceat(vals[order], start, axis=0) % field.p
    keep = acc.any(axis=1)
    return keys[start[keep]], acc[keep]


def sparse_times_dense(field: Field, n: int, rows: np.ndarray,
                       cols: np.ndarray, vals: np.ndarray, X: np.ndarray):
    """S @ X for the sparse S of n rows with entries vals (E, k) at (rows,
    cols) and a dense X (m, ..., k): the rows X[cols], scaled, summed into
    their rows by `scatter_add`.  Returns (n, ..., k); a cell sums at most
    E reduced products in int64."""
    out = zeros(field, (n,) + X.shape[1:-1])
    w = out[0].size // field.k if n else 0
    terms = fmul(field, vals.reshape((-1,) + (1,) * (X.ndim - 2)
                                     + (field.k,)), X[cols])
    scatter_add(out.reshape(-1, field.k),
                (rows[:, None] * w + np.arange(w)).reshape(-1),
                terms.reshape(-1, field.k))
    out %= field.p
    return out


def scatter_add(out: np.ndarray, cells: np.ndarray, vals: np.ndarray):
    """out[cells[e]] += vals[e] in int64, repeated cells summed, for a
    contiguous out (N, k) and vals (E, k)."""
    k = out.shape[-1]
    if k > 1:
        cells = (cells[:, None] * k + np.arange(k)).reshape(-1)
    np.add.at(out.reshape(-1), cells, vals.reshape(-1))


def embed_array(small: Field, big: Field, arr: np.ndarray) -> np.ndarray:
    """Map a (... , k_small) array into (... , k_big) along the canonical
    embedding."""
    mat = small.embedding_matrix(big)
    return np.tensordot(arr, mat, axes=([-1], [0])) % big.p
