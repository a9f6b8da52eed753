"""Finite-dimensional associative algebras given by structure constants,
with linear algebra that stays correct in characteristic p: center, radical,
blocks, simple-module dimensions, scalar extension, bilinear-form rank.
The blocks come from the primitive idempotents of the Frobenius-fixed
subalgebra {z : z^q = z} of the center, which is F_q^r.

Conventions: mul has shape (n, n, n, k) with b_i b_j = sum_m mul[i,j,m] b_m;
vectors are coordinate rows of shape (n, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _arrays as ar
from .errors import (
    ConsistencyCheckFailed,
    DimCapExceeded,
    NotAnExtension,
    RadicalChainFailed,
    ShapeMismatch,
    SplittingCapExceeded,
)
from .exactfield import Field, Poly

DIM_CAP = 512
SPLITTING_DEGREE_CAP = 12
# cells of the radical's trace-power stack raised together
TRACE_BLOCK_CELLS = 2 ** 20


class Subspace:
    """A subspace of F^n held as a reduced-row-echelon basis matrix."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: Field, ambient: int, basis: np.ndarray):
        self.field = field
        self.ambient = ambient
        self.basis = ar.row_space(field, basis) if basis.shape[0] else basis

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v: np.ndarray) -> bool:
        return self.coords(v) is not None

    def coords(self, v: np.ndarray):
        return ar.coords_in_row_space(self.field, self.basis, v)


def check_lengths(data, shape: tuple, what: str):
    """Check that nested lists from a JSON description have the lengths
    `shape` along their leading axes, else ShapeMismatch."""
    if not isinstance(data, list) or len(data) != shape[0]:
        raise ShapeMismatch(f"{what} is not a list of length {shape[0]}")
    if len(shape) > 1:
        for row in data:
            check_lengths(row, shape[1:], what)


def encode_array(field: Field, arr: np.ndarray):
    """Nested lists of a coefficient array (..., k) for JSON: integer
    leaves if k = 1, length-k coefficient lists if k > 1."""
    return arr[..., 0].tolist() if field.k == 1 else arr.tolist()


def decode_array(field: Field, data, shape: tuple, what: str) -> np.ndarray:
    """Inverse of encode_array: nested lists of lengths `shape` with integer
    leaves if k = 1 and length-k integer lists if k > 1, as a reduced
    (*shape, k) array; any other input raises ShapeMismatch."""
    check_lengths(data, shape, what)
    if 0 in shape:
        return np.zeros(shape + (field.k,), dtype=np.int64)
    want = shape if field.k == 1 else shape + (field.k,)
    try:
        arr = np.array(data)
    except (ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"{what} entries are malformed: {exc}") from None
    if arr.shape != want or arr.dtype.kind != "i":
        raise ShapeMismatch(f"{what} entries must be " + (
            "integers" if field.k == 1 else f"lists of {field.k} integers"))
    return arr.astype(np.int64).reshape(shape + (field.k,)) % field.p


class SCAlgebra:
    """Associative unital algebra over a Field, given by a multiplication
    tensor and a unit vector.  check=False vouches that both are int64,
    of shapes (n, n, n, k) and (n, k) and reduced: no pass over them.
    generators, basis indices, vouches that the algebra is associative and
    unital and generated by those basis vectors (see `algebra_verify`);
    None claims nothing."""

    def __init__(self, field: Field, mul: np.ndarray, unit: np.ndarray,
                 labels=None, check: bool = True, generators=None):
        if check:
            mul = ar.asarray(field, mul)
            unit = ar.asarray(field, unit)
        n = unit.shape[0]
        if check and mul.shape != (n, n, n, field.k):
            raise ShapeMismatch(f"mul tensor {mul.shape} vs dim {n}")
        if n > DIM_CAP:
            raise DimCapExceeded(f"dimension {n} exceeds cap {DIM_CAP}")
        self.field = field
        self.dim = n
        self.mul = mul
        self.unit = unit
        self.labels = list(labels) if labels is not None else None
        self.generators = (tuple(generators) if generators is not None
                           else None)
        # set by center(); nothing mutates an algebra after construction
        self._center = None

    # -- basic operations ----------------------------------------------------

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Product of coordinate vectors x, y (n, k)."""
        return _products(self, x[None], y[None])[0, 0]

    def left_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """(n, n, k) matrix of y -> x*y acting on coordinate rows: row j is
        the image of b_j."""
        return _left_table(self, x[None])[0]

    def right_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        f = self.field
        # R[i, m] = sum_j x_j mul[i, j, m]
        t = self.mul.transpose(1, 0, 2, 3).reshape(
            self.dim, self.dim ** 2, f.k)
        out = ar.fmatmul(f, x[None, :, :], t)
        return out.reshape(self.dim, self.dim, f.k)

    def power(self, x: np.ndarray, e: int) -> np.ndarray:
        if e == 0:
            return self.unit.copy()
        return ar.binary_power(x, e, self.multiply)

    def basis_vector(self, i: int) -> np.ndarray:
        v = ar.zeros(self.field, (self.dim,))
        v[i, 0] = 1
        return v

    def scalar_coeffs(self, V: np.ndarray):
        """(C, ok) for a stack of vectors V (t, n, k): C (t, k) holds the
        coefficients c with V[r] = c 1 when ok[r], read off the first
        nonzero coordinate of the unit; all zero and True in the zero
        algebra."""
        f = self.field
        if self.dim == 0:
            return ar.zeros(f, (V.shape[0],)), np.ones(V.shape[0], dtype=bool)
        i = int(np.flatnonzero(np.any(self.unit, axis=1))[0])
        C = ar.fmul(f, V[:, i], ar.scalar_inv(f, self.unit[i])[None, :])
        ok = ~np.any((V - ar.fmul(f, C[:, None], self.unit[None])) % f.p,
                     axis=(1, 2))
        return C, ok

    def is_commutative(self) -> bool:
        return not np.any((self.mul - self.mul.transpose(1, 0, 2, 3)) % self.field.p)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "field": self.field.to_json(),
            "dim": self.dim,
            "unit": encode_array(self.field, self.unit),
            "mul": encode_array(self.field, self.mul),
        }
        if self.labels is not None:
            out["labels"] = self.labels
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SCAlgebra":
        f = Field.from_json(data["field"])
        n = int(data["dim"])
        # check the declared size before building the n^3 nested list
        if n > DIM_CAP:
            raise DimCapExceeded(f"dimension {n} exceeds cap {DIM_CAP}")
        return cls(f, decode_array(f, data["mul"], (n, n, n), "mul"),
                   decode_array(f, data["unit"], (n,), "unit"),
                   labels=data.get("labels"))


@dataclass
class BlockReport:
    center_dim: int | None = None
    radical_dim: int | None = None
    semisimple: bool | None = None
    blocks: list[int] | None = None
    simple_dims: list[int] | None = None
    splitting_degree: int | None = None
    split_blocks: int | None = None

    def to_json(self) -> dict:
        return {
            "center_dim": self.center_dim,
            "radical_dim": self.radical_dim,
            "semisimple": self.semisimple,
            "blocks": self.blocks,
            "simple_dims": self.simple_dims,
            "splitting_degree": self.splitting_degree,
            "split_blocks": self.split_blocks,
        }


@dataclass
class BilForm:
    field: Field
    matrix: np.ndarray  # (n, n, k)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def algebra_verify(A: SCAlgebra, max_reports: int = 20) -> list[str]:
    """Empty iff associativity and the unit axioms hold; otherwise a list of
    violated triples/indices.  Once the unit axioms hold, the rows of the
    `generating_set` are checked first: the x with (x y) z = x (y z) for
    all y, z form a subalgebra holding 1, so if it holds them it is A, and
    they are kept as A.generators.  Otherwise every row is checked."""
    f = A.field
    n = A.dim
    out = []
    uL = A.left_mult_matrix(A.unit)
    uR = A.right_mult_matrix(A.unit)
    eye = ar.identity(f, n)
    if np.any((uL - eye) % f.p):
        out.append("unit: left multiplication by the unit is not the identity")
    if np.any((uR - eye) % f.p):
        out.append("unit: right multiplication by the unit is not the identity")
    if not out:
        gens = generating_set(A)
        if all(_first_associator(A, g) is None for g in gens):
            if A.generators is None:
                A.generators = gens
            return out
    for i in range(n):
        bad = _first_associator(A, i)
        if bad is not None:
            out.append(f"associativity violated at triple ({i},{bad[0]},"
                       f"{bad[1]})")
        if len(out) >= max_reports:
            out.append("... further violations suppressed")
            return out
    return out


def _first_associator(A: SCAlgebra, i: int, proj=None):
    """The first (j, k') with (b_i b_j) b_k' != b_i (b_j b_k'), or None;
    with proj (n, e, k), the first whose difference proj does not kill."""
    f, n = A.field, A.dim
    # lhs[j, k', m] = sum_t mul[i,j,t] mul[t,k',m]
    lhs = _left_table(A, A.mul[i])
    # rhs[(j, k'), m] = sum_t mul[j,k',t] mul[i,t,m]
    rhs = ar.fmatmul(f, A.mul.reshape(n * n, n, f.k), A.mul[i])
    diff = (lhs.reshape(n * n, n, f.k) - rhs) % f.p
    if proj is not None:
        diff = ar.fmatmul(f, diff, proj)
    bad = np.flatnonzero(diff.any(axis=(1, 2)))
    return divmod(int(bad[0]), n) if bad.size else None


# ---------------------------------------------------------------------------
# center / radical
# ---------------------------------------------------------------------------

def center(A: SCAlgebra) -> Subspace:
    """Solution space of [x, b_g] = 0 for the generators g of A, or for every
    basis element when A.generators is None: x commuting with a generating
    set commutes with its products.  Computed once per algebra and kept on
    it."""
    if A._center is not None:
        return A._center
    f = A.field
    n = A.dim
    # constraint on x: sum_j x_j (mul[j,g,m] - mul[g,j,m]) = 0 for all m,
    # imposed one element g at a time so the working space shrinks early
    basis = ar.identity(f, n)
    for g in range(n) if A.generators is None else A.generators:
        if basis.shape[0] == 0:
            break
        # (d, n, k): [x, b_g] for the span rows x
        img = ar.fmatmul(f, basis, (A.mul[:, g] - A.mul[g]) % f.p)
        if not np.any(img):
            continue
        coeffs = ar.nullspace(f, img.transpose(1, 0, 2))
        if coeffs.shape[0] == basis.shape[0]:
            continue
        basis = ar.row_space(f, ar.fmatmul(f, coeffs, basis))
    A._center = Subspace(f, n, basis)
    return A._center


def _restrict_scalars(A: SCAlgebra) -> SCAlgebra:
    """View A over F_{p^k} as an algebra over F_p of dimension n*k, on the
    basis b_i t^a with index i*k + a: an (n, k) vector of A is the (n*k, 1)
    vector of the result, and back by reshaping."""
    f = A.field
    p, k, n = f.p, f.k, A.dim
    if k == 1:
        return A
    # check before the (n k)^3 tensor is built
    if n * k > DIM_CAP:
        raise DimCapExceeded(
            f"dimension {n} over {f} is {n * k} over F_{p}, above cap {DIM_CAP}")
    # (b_i t^a)(b_j t^b) = sum_m mul[i,j,m] t^(a+b) b_m, with mul[i,j,m] =
    # sum_c1 mul[i,j,m,c1] t^c1: T[c1, a, b, c] is coefficient c of t^(c1+a+b)
    T = ar.mul_images(f, f._t_images.reshape(k, k, k))
    mul = np.tensordot(A.mul, T, axes=([3], [0])) % p    # [i, j, m, a, b, c]
    mul = mul.transpose(0, 3, 1, 4, 2, 5).reshape(n * k, n * k, n * k, 1)
    return SCAlgebra(Field(p), mul, A.unit.reshape(n * k, 1))


def _radical_prime(A: SCAlgebra) -> np.ndarray:
    """Radical of an algebra over a prime field, as an RREF basis, by the
    generalized trace chain of Cohen, Ivanyos and Wales (JPAA 117/118, 1997).

    Level i = 0 .. l, p^l <= n < p^(l+1), cuts the ideal I down to the kernel
    of (x, y) -> f_i(xy), f_i(v) = Tr(lift(L_v)^(p^i)) / p^i mod p.  Level 0
    is linear: f_0(v) = v . t, t_i = sum_j mul[i,j,j].  A full-rank I is the
    identity, so its lifts, products and coordinates are mul itself.  A
    non-divisible trace or a non-ideal I raises RadicalChainFailed."""
    f = A.field
    p, n = f.p, A.dim
    mul = A.mul[:, :, :, 0]
    # mul[i] as [j, m] is the transpose of left multiplication by b_i on
    # column vectors; traces of powers do not see the transpose
    traces = np.trace(mul, axis1=1, axis2=2) % p
    space = ar.identity(f, n)  # current ideal, rref rows
    l = 0
    while p ** (l + 1) <= n:
        l += 1
    for i in range(l + 1):
        d = space.shape[0]
        if d == 0:
            break
        full = _full_rank(space)
        e, mod = p ** i, p ** (i + 1)
        # integer lifts of the d left multiplications, W[r, s, m]; mod p
        # they are all products space[r] * b_s at once
        W = mul if full else ar._imatmul(
            space[:, :, 0], mul.reshape(n, n * n), mod).reshape(d, n, n)
        # the level map is additive and F_p-linear on the current ideal, so
        # its values on the ideal basis determine all constraint entries
        if i == 0:
            valv = space[:, :, 0] @ traces % p
        else:
            tr = _stack_trace_power(W, e, mod)
            if np.any(tr % e):
                raise RadicalChainFailed(
                    f"level-{i} generalized trace not divisible by {p}^{i}")
            valv = tr // e % p
        if full:
            coords = mul
        else:
            cc = ar.coords_in_row_space_many(f, space,
                                             (W % p).reshape(d * n, n, 1))
            if cc is None:
                raise RadicalChainFailed("trace-chain space is not an ideal")
            coords = cc.reshape(d, n, d)  # (r, s, t): ideal coordinates
        # constraint per s on unknowns r: sum_t coords[r, s, t] vals[t]
        M = (coords.reshape(d * n, d) @ valv % p).reshape(d, n).T[:, :, None]
        ker = ar.nullspace(f, M)  # coordinates in the ideal basis
        if ker.shape[0] == 0:
            return ar.zeros(f, (0, n))
        space = ker if full else ar.row_space(f, ar.fmatmul(f, ker, space))
    return space


def _full_rank(space: np.ndarray) -> bool:
    """Whether an RREF basis is full rank, and so the identity matrix."""
    return space.shape[0] == space.shape[1]


def _stack_trace_power(W, e, mod):
    """Tr(W[t]^e) mod `mod` for each matrix of the stack W (d, n, n), with
    entries in [0, mod).  Square and multiply ends in the sum Tr(A B) =
    sum(A * B^T) instead of its last product.  The sum is exact in int64
    when n^2 mod^2 < 2^63; the trace chain has mod <= n^2 <= 2^18 at every
    level i >= 1 (mod = p^(i+1) with p^i <= n).

    The stack is raised TRACE_BLOCK_CELLS cells (and at least one matrix)
    at a time: a square or multiply holds the block's power in int64 and
    `_imatmul`'s float copies and result, about 32 bytes a cell, so 32 MB a
    block, where the p = 7 stack of 343 (343, 343) matrices has 40 M cells.
    The p = 5 stack of 125 (125, 125) matrices takes two blocks."""
    if e == 1:
        return np.trace(W, axis1=1, axis2=2) % mod
    size = max(1, TRACE_BLOCK_CELLS // (W.shape[1] * W.shape[2]))
    return np.concatenate([ar.binary_power(
        W[s:s + size], e, lambda a, b: ar._imatmul(a, b, mod),
        last=lambda a, b: np.einsum("tjk,tkj->t", a, b) % mod)
        for s in range(0, W.shape[0], size)])


def radical(A: SCAlgebra) -> Subspace:
    """The Jacobson radical, computed by a positive-characteristic-correct
    generalized-trace chain over the prime field."""
    f = A.field
    rad_base = _radical_prime(_restrict_scalars(A))
    if rad_base.shape[0] == 0:
        return Subspace(f, A.dim, ar.zeros(f, (0, A.dim)))
    sub = Subspace(f, A.dim, rad_base.reshape(-1, A.dim, f.k))
    # sanity: the result must be nilpotent (guards the chain endpoint)
    if not _is_nilpotent_subspace(A, sub.basis):
        raise RadicalChainFailed("radical chain produced a non-nilpotent space")
    return sub


def _left_table(A: SCAlgebra, U: np.ndarray) -> np.ndarray:
    """The left table U mul: for each row u of U (d, n, k) the matrix of
    y -> u y on coordinate rows, row j = u b_j, as a (d, n, n, k) array.
    Every product of coordinate vectors through mul goes through it."""
    f, n = A.field, A.dim
    return ar.fmatmul(f, U, A.mul.reshape(n, n * n, f.k)).reshape(
        U.shape[0], n, n, f.k)


def _products(A: SCAlgebra, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """All products u v, u a row of U and v a row of V, as a (len U, len V,
    n, k) array: the transposed view of a contiguous (len V, len U, n, k)
    one."""
    f, n = A.field, A.dim
    d = U.shape[0]
    # u_i v_j = sum_b v_j[b] (u_i b_b): V against the left table of U
    X = _left_table(A, U)
    prods = ar.fmatmul(f, V, X.transpose(1, 0, 2, 3).reshape(n, d * n, f.k))
    return prods.reshape(V.shape[0], d, n, f.k).transpose(1, 0, 2, 3)


def _product_space(A: SCAlgebra, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """RREF basis of the span of all products u v, u a row of U, v of V."""
    f, n = A.field, A.dim
    if U.shape[0] == 0 or V.shape[0] == 0:
        return ar.zeros(f, (0, n))
    return ar.row_space(f, _products(A, U, V).reshape(-1, n, f.k))


def _is_nilpotent_subspace(A: SCAlgebra, basis: np.ndarray) -> bool:
    cur = basis
    for _ in range(A.dim + 1):
        if cur.shape[0] == 0:
            return True
        cur = _product_space(A, cur, basis)
    return False


def generating_set(A: SCAlgebra) -> tuple:
    """Basis indices whose left-nested words ((g_1 g_2) ...) g_r span A,
    given a two-sided unit: in basis order, each b_j outside the span S of
    the words so far joins them, and S <- span(S u S g) over them until S
    is stable.  `algebra_verify` keeps them as A.generators."""
    f, n = A.field, A.dim
    eye = ar.identity(f, n)
    gens, S = [], ar.row_space(f, A.unit[None])
    for j in range(n):
        # b_j lies in the RREF span S iff it is a row of S
        if S.shape[0] == n or (S == eye[j]).all(axis=(1, 2)).any():
            continue
        gens.append(j)
        right = A.mul[:, gens].reshape(n, len(gens) * n, f.k)
        size = 0
        while size < S.shape[0] < n:
            size, S = S.shape[0], ar.row_space(f, np.concatenate(
                [S, ar.fmatmul(f, S, right).reshape(-1, n, f.k)]))
    return tuple(gens)


def _is_algebra_map(R: SCAlgebra, S: SCAlgebra, fmap) -> bool:
    """Whether the linear map fmap: R -> S (a LinMap) sends 1 to 1 and
    b_i b_j to fmap(b_i) fmap(b_j) for all i, j, checked on blocks of i of
    at most 2^20 product cells.  When R and S carry generators (both are
    vouched associative), i runs over R's generators only: fmap(g x) = fmap(g)
    fmap(x) for the generators g gives fmap(g_1 ... g_r x) = fmap(g_1) ...
    fmap(g_r) fmap(x) by induction on r."""
    f = R.field
    M = fmap.matrix
    n, nS = R.dim, S.dim
    if np.any((ar.fmatmul(f, R.unit[None], M)[0] - S.unit) % f.p):
        return False
    rows = (np.array(R.generators, dtype=np.int64) if R.generators is not None
            and S.generators is not None else np.arange(n))
    step = max(1, 2 ** 20 // max(n * nS, nS * nS, 1))
    for lo in range(0, rows.size, step):
        I = rows[lo:lo + step]
        lhs = ar.fmatmul(f, R.mul[I].reshape(-1, n, f.k), M)
        rhs = _products(S, M[I], M).reshape(lhs.shape)
        if np.any((lhs - rhs) % f.p):
            return False
    return True


# ---------------------------------------------------------------------------
# quotients / subalgebras
# ---------------------------------------------------------------------------

def quotient_algebra(A: SCAlgebra, ideal: Subspace):
    """(B, proj) with B = A/ideal and proj an (n, m, k) matrix sending
    coordinates of A onto coordinates of B (rows act from the left:
    image = v @ proj)."""
    f, n = A.field, A.dim
    I = ideal.basis
    pivots = ar._pivot_columns(I)
    complement = sorted(set(range(n)) - set(pivots))
    m = len(complement)
    # b_c for c off the pivots is the c-th quotient coordinate; the ideal's
    # pivot rows give b_pc == -sum_c I[r, c] b_c modulo the ideal
    proj = ar.zeros(f, (n, m))
    proj[complement, np.arange(m), 0] = 1
    proj[pivots] = (-I[:, complement]) % f.p
    # the lifts b_c of the quotient basis multiply by A's own table
    lifted = A.mul[np.ix_(complement, complement)].reshape(m * m, n, f.k)
    mul = ar.fmatmul(f, lifted, proj).reshape(m, m, m, f.k)
    unit = ar.fmatmul(f, A.unit[None, :, :], proj)[0]
    B = SCAlgebra(f, mul, unit)
    return B, proj


def subalgebra_on(A: SCAlgebra, sub: Subspace, unit_vec: np.ndarray | None = None):
    """Subalgebra structure on a multiplicatively closed subspace; returns
    (B, basis) where basis rows are the chosen basis inside A.  unit_vec
    defaults to A's unit (which must lie in the subspace)."""
    f = A.field
    basis = sub.basis
    m = basis.shape[0]
    if unit_vec is None:
        unit_vec = A.unit
    ucoords = ar.coords_in_row_space(f, basis, unit_vec)
    if ucoords is None:
        raise ShapeMismatch("unit does not lie in the subspace")
    prods = _products(A, basis, basis).reshape(m * m, A.dim, f.k)
    coords = ar.coords_in_row_space_many(f, basis, prods)
    if coords is None:
        raise ShapeMismatch("subspace is not multiplicatively closed")
    mul = coords.reshape(m, m, m, f.k)
    B = SCAlgebra(f, mul, ucoords)
    return B, basis


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def _primitive_idempotents_split_commutative(E: SCAlgebra):
    """Primitive idempotents of a commutative semisimple algebra all of whose
    residue fields equal the base field (so minimal polynomials split into
    distinct linear factors)."""
    f = E.field
    # represent each component by (basis rows inside E, unit vector inside E)
    full = ar.identity(f, E.dim)
    comps = [(full, E.unit)]
    done = []
    while comps:
        basis, unit = comps.pop()
        if basis.shape[0] == 1:
            done.append(unit)
            continue
        split = False
        for gi in range(basis.shape[0]):
            z = basis[gi]
            minpoly, _ = _minimal_polynomial(f, E.multiply, z, unit,
                                             basis.shape[0])
            fac = minpoly.factor()
            if any(g.degree > 1 or m > 1 for g, m in fac):
                raise ConsistencyCheckFailed("component not split semisimple")
            if len(fac) <= 1:
                continue
            for g, _ in fac:
                c = -g.coeffs[0]
                # projector: prod_{c' != c} (z - c' u)/(c - c')
                proj = unit.copy()
                for g2, _ in fac:
                    c2 = -g2.coeffs[0]
                    if c2 == c:
                        continue
                    diff = (z - ar.fmul(f, np.array(c2.coeffs)[None, :],
                                        unit)) % f.p
                    scale = (c - c2).inverse()
                    diff = ar.fmul(f, np.array(scale.coeffs)[None, :], diff)
                    proj = E.multiply(proj, diff)
                # new component: proj * (old basis)
                nb = ar.row_space(f, _products(E, proj[None], basis)[0])
                comps.append((nb, proj))
            split = True
            break
        if not split:
            raise ConsistencyCheckFailed(
                "no basis element splits a non-local component")
    return done


def _minimal_polynomial(field: Field, product, z: np.ndarray,
                        unit: np.ndarray, dim: int):
    """(mu, powers): the minimal polynomial mu of z under `product`, a
    unital associative product with identity `unit` on a space of dimension
    dim that holds the powers of z, and the powers z^0, ..., z^(deg mu - 1)
    it made, each flattened to one row of coordinates: (deg mu, n, k)."""
    powers = [unit]
    cur = unit
    while True:
        cur = product(cur, z)
        stacked = np.stack(powers + [cur]).reshape(len(powers) + 1, -1,
                                                   field.k)
        R, piv = ar.rref(field, stacked)
        if R.shape[0] < len(powers) + 1:
            # dependence: solve for coefficients
            sol = ar.solve(field, stacked[:-1].transpose(1, 0, 2),
                           stacked[-1])
            if sol is None:
                raise ConsistencyCheckFailed(
                    "dependent power is not a combination of the lower ones")
            mu = Poly(field, list(-sol % field.p) + [field.one])
            return mu, stacked[:-1]
        powers.append(cur)
        if len(powers) > dim + 1:
            raise ConsistencyCheckFailed(
                "minimal polynomial search exceeded dimension")


def central_idempotents(A: SCAlgebra) -> list[np.ndarray]:
    """Complete list of orthogonal primitive central idempotents, summing to
    the unit, ordered by their coordinate vectors (none if A = 0).

    They are the primitive idempotents of E = ker(x -> x^q - x) on the
    center Z, q = |base field| (Berlekamp's subalgebra):
    - Z is commutative of characteristic p, so x -> x^q - x is F_q-linear;
    - its kernel E is a subalgebra holding 1;
    - E is reduced: a nilpotent x = x^q = x^(q^2) = ... is 0;
    - every x in E has x^q = x, so E is F_q^r;
    - every idempotent of Z lies in E, so the primitive idempotents of E
      are those of Z, the primitive central idempotents of A."""
    if A.dim == 0:
        return []
    f = A.field
    ZA, zbasis = subalgebra_on(A, center(A))
    eye = ar.identity(f, ZA.dim)
    M = np.stack([(ZA.power(v, f.order) - v) % f.p for v in eye])
    EA, ebasis = subalgebra_on(
        ZA, Subspace(f, ZA.dim, ar.nullspace(f, M.transpose(1, 0, 2))))
    basis = ar.fmatmul(f, ebasis, zbasis)  # E's basis in A's coordinates
    idems = [ar.fmatmul(f, e[None], basis)[0]
             for e in _primitive_idempotents_split_commutative(EA)]
    idems.sort(key=lambda v: v.reshape(-1).tolist())
    return idems


def block_decompose(A: SCAlgebra) -> BlockReport:
    """Blocks of A: dimensions of the two-sided ideals cut out by the
    primitive central idempotents, in deterministic order."""
    f = A.field
    idems = central_idempotents(A)
    dims = []
    for e in idems:
        L = A.left_mult_matrix(e)
        dims.append(ar.rank(f, L))
    rep = BlockReport(center_dim=center(A).dim, blocks=dims)
    total = sum(dims)
    if total != A.dim:
        raise ConsistencyCheckFailed(
            f"block dimensions {dims} do not sum to {A.dim}")
    return rep


def block_ideals(A: SCAlgebra):
    """The block ideals as unital subalgebras: list of (B, basis, idempotent)."""
    out = []
    for e in central_idempotents(A):
        L = A.left_mult_matrix(e)
        basis = ar.row_space(A.field, L)
        B, bas = subalgebra_on(A, Subspace(A.field, A.dim, basis), unit_vec=e)
        out.append((B, bas, e))
    return out


# ---------------------------------------------------------------------------
# scalar extension and simples
# ---------------------------------------------------------------------------

def extend_scalars(A: SCAlgebra, big: Field) -> SCAlgebra:
    f = A.field
    if big == f:
        return A
    if big.p != f.p or big.k % f.k != 0:
        raise NotAnExtension(f"{big} does not extend {f}")
    mul = ar.embed_array(f, big, A.mul)
    unit = ar.embed_array(f, big, A.unit)
    return SCAlgebra(big, mul, unit, labels=A.labels)


def simples(A: SCAlgebra) -> BlockReport:
    """Dimensions of the simple modules of A over a minimal splitting
    extension, with the extension degree, all computed over the base field
    F_q.

    A finite division ring is a field (Wedderburn), so a block B of A/J(A)
    is M_r(F_{q^d}) with d = dim Z(B) and dim B = d r^2.  Over F_{q^m} with
    d | m it splits into d copies of M_r, so B contributes d simples of
    dim r, and the minimal splitting degree is the lcm of the d.

    split_blocks is the number of blocks of A over that extension.
    Z(A)/J(Z(A)) is the product of the residue fields F_{q^d_e} of A's
    blocks, each splitting into d_e blocks, so the count is
    dim Z(A) - dim J(Z(A)), and J(Z(A)) = Z(A) n J(A)."""
    f = A.field
    rad = radical(A)
    Z = center(A)
    S = A if rad.dim == 0 else quotient_algebra(A, rad)[0]
    SZ = center(S)
    sizes, degs, dims = [], [], []
    for e in central_idempotents(S):
        L = S.left_mult_matrix(e)
        size = ar.rank(f, L)
        # the rows z L = e z span Z(S) e, the center of the block S e
        d = ar.rank(f, ar.fmatmul(f, SZ.basis, L))
        r = math.isqrt(size // d)
        if d * r * r != size:
            raise ConsistencyCheckFailed(
                f"semisimple block of dim {size} is not a matrix algebra "
                f"over its {d}-dimensional center")
        sizes.append(size)
        degs.append(d)
        dims += [r] * d
    if sum(sizes) != S.dim:
        raise ConsistencyCheckFailed(
            f"semisimple block dimensions {sizes} do not sum to {S.dim}")
    deg = math.lcm(*degs)
    if f.k * deg > SPLITTING_DEGREE_CAP:
        raise SplittingCapExceeded(
            f"splitting needs total degree {f.k * deg}, cap is "
            f"{SPLITTING_DEGREE_CAP}")
    # a semisimple A is its own quotient S
    blocks = sizes if rad.dim == 0 else block_decompose(A).blocks
    # dim Z - dim (Z n J) = dim (Z + J) - dim J
    split_blocks = ar.rank(f, np.concatenate([Z.basis, rad.basis])) - rad.dim
    return BlockReport(
        center_dim=Z.dim,
        radical_dim=rad.dim,
        semisimple=rad.dim == 0,
        blocks=blocks,
        splitting_degree=deg,
        simple_dims=sorted(dims),
        split_blocks=split_blocks,
    )


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------

def form_rank(s: BilForm) -> tuple[int, bool]:
    n = s.matrix.shape[0]
    r = ar.rank(s.field, s.matrix)
    return r, r == n


def form_is_symmetric(s: BilForm) -> bool:
    return not np.any((s.matrix - s.matrix.transpose(1, 0, 2)) % s.field.p)
