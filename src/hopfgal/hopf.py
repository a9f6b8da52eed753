"""Hopf algebra structure on structure-constant algebras: axiom checking,
the convolution algebra of linear maps, the two-argument convolution over
the terms of a coaction and the two-pass cocycle of a cleaving map, dual
integrals, unimodularity, and group algebras.

A coproduct or coaction is held once, as its term list `Terms`, which
contractions gather along and sum with `_arrays.scatter_add`; only JSON
and tests see a dense tensor.  The antipode matrix row i holds the
coordinates of S(b_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _arrays as ar
from .errors import (
    ConsistencyCheckFailed,
    IntegralNotFound,
    NotAGroup,
    NotConvInvertible,
    ShapeMismatch,
)
from .exactfield import Field
from .fdalg import (
    SCAlgebra,
    _is_algebra_map,
    _minimal_polynomial,
    _products,
    algebra_verify,
    decode_array,
    encode_array,
)


class LinMap:
    """A linear map between coordinate spaces over a common field, stored as
    a (source_dim, target_dim, k) matrix; row i is the image of b_i."""

    __slots__ = ("field", "matrix")

    def __init__(self, field: Field, matrix):
        self.field = field
        self.matrix = ar.asarray(field, matrix)
        if self.matrix.ndim != 3:
            raise ShapeMismatch("linear map matrix must be 2-d over the field")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return ar.fmatmul(self.field, v[None, :, :], self.matrix)[0]

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.field == other.field
                and self.matrix.shape == other.matrix.shape
                and not np.any((self.matrix - other.matrix) % self.field.p))

    def __hash__(self):
        return hash((self.field, self.matrix.tobytes()))


class Terms(NamedTuple):
    """The nonzero terms of a coproduct or coaction rho: V -> L (x) R as
    CSR rows: term t, ptr[i] <= t < ptr[i + 1], is coef[t] l_A[t] (x)
    r_B[t] in rho(v_i), i = I[t], coef (T, k)."""
    ptr: np.ndarray
    I: np.ndarray
    A: np.ndarray
    B: np.ndarray
    coef: np.ndarray

    @classmethod
    def of(cls, field: Field, data, shape: tuple, what: str) -> "Terms":
        """data, Terms or a dense (n, nL, nR, k) array, as the Terms of
        shape (n, nL, nR): the one nonzero scan of a dense Delta or rho."""
        if not isinstance(data, cls):
            rho = ar.asarray(field, data)
            if rho.shape != shape + (field.k,):
                raise ShapeMismatch(f"{what} shape {rho.shape}")
            n, nL, nR = shape
            ptr, cols, coef = ar.csr(rho.reshape(n, nL * nR, field.k))
            data = cls(ptr, np.arange(n).repeat(np.diff(ptr)),
                       *np.divmod(cols, nR), coef)
        elif data.ptr.size != shape[0] + 1 or any(
                np.any((x < 0) | (x >= m)) for x, m in zip(data[1:4], shape)):
            raise ShapeMismatch(f"{what} terms do not fit shape {shape}")
        return data

    def dense(self, nL: int, nR: int) -> np.ndarray:
        """The (n, nL, nR, k) tensor of the terms, for JSON and tests."""
        out = np.zeros((self.ptr.size - 1, nL, nR, self.coef.shape[1]),
                       dtype=np.int64)
        out[self.I, self.A, self.B] = self.coef
        return out


def fixed_space(field: Field, n: int, x, y, z, coef, unit) -> np.ndarray:
    """RREF basis of the v in F^n with sum_t coef[t] v_z[t] e(x[t], y[t]) =
    sum_y v_x unit_y e(x, y) for all x < n; only the rows (x, y) that a
    term or the unit (ny, k) touches are built, the others being zero."""
    ny, u = unit.shape[0], np.flatnonzero(unit.any(axis=1))
    ux, uy = np.arange(n).repeat(u.size), np.tile(u, n)
    rows, inv = np.unique(np.concatenate([x * ny + y, ux * ny + uy]),
                          return_inverse=True)
    M = ar.zeros(field, (rows.size * n,))
    ar.scatter_add(M, inv * n + np.concatenate([z, ux]),
                   np.concatenate([coef, (-unit[uy]) % field.p]))
    M %= field.p
    return ar.nullspace(field, M.reshape(rows.size, n, field.k))


@dataclass
class Integral:
    """A functional on a Hopf algebra, stored by its values on the basis."""
    field: Field
    functional: np.ndarray  # (n, k)


class HopfAlgebra:
    """An SCAlgebra together with comultiplication (`Terms.of`), counit,
    and antipode."""

    def __init__(self, alg: SCAlgebra, comul, counit, antipode):
        f = alg.field
        n = alg.dim
        self.alg = alg
        self.comul = Terms.of(f, comul, (n, n, n), "comul")
        self.counit = ar.asarray(f, counit)
        self.antipode = ar.asarray(f, antipode)
        if self.counit.shape != (n, f.k):
            raise ShapeMismatch(f"counit shape {self.counit.shape}")
        if self.antipode.shape != (n, n, f.k):
            raise ShapeMismatch(f"antipode shape {self.antipode.shape}")
        # set by galois._is_connected; nothing mutates H after construction
        self._connected = None

    @property
    def field(self) -> Field:
        return self.alg.field

    @property
    def dim(self) -> int:
        return self.alg.dim

    def to_json(self) -> dict:
        out = self.alg.to_json()
        out["comul"] = encode_array(self.field,
                                    self.comul.dense(self.dim, self.dim))
        out["counit"] = encode_array(self.field, self.counit)
        out["antipode"] = encode_array(self.field, self.antipode)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "HopfAlgebra":
        alg = SCAlgebra.from_json(data)
        f, n = alg.field, alg.dim
        return cls(alg, decode_array(f, data["comul"], (n, n, n), "comul"),
                   decode_array(f, data["counit"], (n,), "counit"),
                   decode_array(f, data["antipode"], (n, n), "antipode"))


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def hopf_verify(H: HopfAlgebra, max_reports: int = 20) -> list[str]:
    """Empty iff H satisfies all bialgebra and antipode axioms, including
    associativity of the underlying algebra.

    Under Delta, H is an H-comodule algebra (the trivial Hopf-Galois
    extension of the base field), so the right counit law, coassociativity,
    Delta(1) = 1 (x) 1 and multiplicativity of Delta are checked as the
    axioms of that regular coaction by ComoduleAlgebra.verify.  The left
    counit law, eps as an algebra map H -> F and the antipode axioms are
    checked here.

    Multiplicativity is checked on generators: once algebra_verify has
    passed, H is associative and unital and H.alg carries basis vectors g
    that generate H (found by `algebra_verify` unless H.alg had them), and
    Delta(g b_j) = Delta(g) Delta(b_j) for all g and j, with Delta(1) = 1
    (x) 1, gives multiplicativity on all of H by induction on word length;
    the same holds for eps.  A failing generator row falls back to the
    check of every pair, which writes the reports."""
    from .galois import ComoduleAlgebra

    f = H.field
    n = H.dim
    out = list(algebra_verify(H.alg, max_reports=max_reports))
    if out:
        return out
    out += ["regular coaction: " + m for m in ComoduleAlgebra(
        H.alg, H, H.comul, check=False).verify(max_reports)]
    # left counit law: sum eps(b_a) c b_b over the terms c b_a (x) b_b = b_i
    eps = H.counit
    _, I, A, B, c = H.comul
    left = ar.sparse_times_dense(f, n * n, I * n + B, A, c, eps)
    if np.any((left.reshape(n, n, f.k) - ar.identity(f, n)) % f.p):
        out.append("counit law (eps (x) id) fails")
    one = ar.unit_scalar(f)
    scalars = SCAlgebra(f, one[None, None, None], one[None], generators=())
    if not _is_algebra_map(H.alg, scalars, LinMap(f, eps[:, None])):
        out.append("counit is not an algebra map")

    # antipode axiom: S * id = eta eps = id * S in the convolution algebra
    S, ident = LinMap(f, H.antipode), LinMap(f, ar.identity(f, n))
    unit = conv_unit(H, H.alg).matrix
    for side, (a, b) in (("S (x) id", (S, ident)), ("id (x) S", (ident, S))):
        conv = convolution(H, H.alg, a, b).matrix
        bad = np.flatnonzero(((conv - unit) % f.p).any(axis=(1, 2)))
        if bad.size:
            out.append(f"antipode axiom ({side}) fails at basis index "
                       f"{bad[0]}")
    return out


def is_cocommutative(H: HopfAlgebra) -> bool:
    """Whether the terms keyed (i, a, b) and (i, b, a) sum alike."""
    f, n = H.field, H.dim
    _, I, A, B, c = H.comul
    keys = np.concatenate([(I * n + A) * n + B, (I * n + B) * n + A])
    return not ar.sum_by_key(f, keys, np.concatenate([c, (-c) % f.p]))[0].size


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv_unit(H: HopfAlgebra, A: SCAlgebra) -> LinMap:
    """The convolution unit: h -> eps(h) 1_A."""
    f = H.field
    mat = ar.fmul(f, H.counit[:, None, :], A.unit[None, :, :])
    return LinMap(f, mat)


def convolution(H: HopfAlgebra, A: SCAlgebra, fmap: LinMap,
                g: LinMap) -> LinMap:
    """(f * g)(h) = f(h_1) g(h_2) computed in A."""
    f = H.field
    nH, nA = H.dim, A.dim
    if fmap.matrix.shape != (nH, nA, f.k) or g.matrix.shape != (nH, nA, f.k):
        raise ShapeMismatch("convolution operands must map H into A")
    # P[b, a] = f(b_a) g(b_b) in A, `_products`' own contiguous layout
    P = _products(A, fmap.matrix, g.matrix).transpose(1, 0, 2, 3)
    # out[i] = sum c P[b, a] over the terms c h_a (x) h_b of Delta(h_i)
    _, I, Ia, Ib, c = H.comul
    return LinMap(f, ar.sparse_times_dense(
        f, nH, I, Ib * nH + Ia, c, P.reshape(nH * nH, nA, f.k)))


# the bound on each chunk of convolve_pairs (its term pairs plus its
# (pair, a, b) cells) and of cocycle_pairs (its pairs' and V rows' cells and
# head terms), and on each run of entries either one expands
CONV_CHUNK_TERMS = 2 ** 16


def chunk_runs(cost: np.ndarray):
    """(lo, hi) runs of consecutive items, cut where the running cost
    passes a multiple of CONV_CHUNK_TERMS: the items of a run but its last
    cost less than that together."""
    run = (cost.cumsum() - cost) // CONV_CHUNK_TERMS
    starts = np.flatnonzero(np.diff(run, prepend=-1)).tolist()
    return zip(starts, starts[1:] + [cost.size])


def convolve_pairs(field: Field, terms, F, G, m, I: np.ndarray,
                   J: np.ndarray, shape):
    """out[q] = sum m(F(x_1, y_1), G(x_2, y_2)) over the terms x_1 (x) x_2
    of rho(b_I[q]) and y_1 (x) y_2 of rho(b_J[q]), for any list of pairs
    (repeats and any order allowed); terms = (ptr, I, A, B, coef) are the
    CSR rows of rho, a `Terms`.  F, G and m are CSR triples
    (`_arrays.csr`) of the rows x_1 nL + y_1, x_2 nR + y_2 and a nG + b,
    shape = (nL, nR, nF, nG, nOut); m None is the outer product (out index
    a nG + b).  Yields (lo, hi, out[lo:hi]), an (hi - lo, nOut, k) array,
    chunk by chunk, so a caller may stop early.

    Row-wise sparse products (Gustavson, ACM TOMS 4(3), 1978): each term
    pair meets the entries of its F row, each of those the entries of its G
    row; the products are summed per (q, a, b) cell in int64, and each
    nonzero cell meets its row m[a, b] once.  A chunk's term pairs plus its
    nF nG cells per pair stay within CONV_CHUNK_TERMS unless it is one
    pair; its F x G entries are expanded in runs of at most that many.
    Exact for p <= P_MAX: products of two residues are summed unreduced
    only while no int64 sum can pass 2^63 (`_arrays.fmul_sum`)."""
    p, k = field.p, field.k
    ptr, _, A, B, coef = terms
    (fptr, fcol, fval), (gptr, gcol, gval) = F, G
    nL, nR, nF, nG, nOut = shape
    nT, nnzF, nnzG = np.diff(ptr), np.diff(fptr), np.diff(gptr)

    for lo, hi in chunk_runs(nT[I] * nT[J] + nF * nG):
        # the term pairs (t, s) of each pair q of the chunk
        q, t = ar.csr_expand(ptr, I[lo:hi])
        u, s = ar.csr_expand(ptr, J[lo:hi][q])
        q, t = q[u], t[u]
        c = ar.fmul(field, coef[t], coef[s])
        frow, grow = A[t] * nL + A[s], B[t] * nR + B[s]
        size = nnzF[frow] * nnzG[grow]
        acc = ar.zeros(field, ((hi - lo) * nF * nG,))
        for a, b in chunk_runs(size):
            e, fp = ar.csr_expand(fptr, frow[a:b])
            w = ar.fmul(field, c[a:b][e], fval[fp])
            cell = (q[a:b][e] * nF + fcol[fp]) * nG
            g, gp = ar.csr_expand(gptr, grow[a:b][e])
            ar.scatter_add(acc, cell[g] + gcol[gp], ar.fmul_sum(
                field, w[g], gval[gp], int(size.sum())))
        # only the nonzero cells are reduced, each once, and meet m
        cells = np.flatnonzero(acc.any(axis=1))
        vals = acc[cells] % p
        if m is None:
            acc[cells] = vals
        else:
            mptr, mcol, mval = m
            r, mp = ar.csr_expand(mptr, cells % (nF * nG))
            acc = ar.zeros(field, ((hi - lo) * nOut,))
            ar.scatter_add(acc, cells[r] // (nF * nG) * nOut + mcol[mp],
                           ar.fmul_sum(field, vals[r], mval[mp], r.size))
            acc %= p
        yield lo, hi, acc.reshape(hi - lo, nOut, k)


def _left_sums(field: Field, mul, nA: int, n: int, dst, left, coef, vecs,
               rows) -> np.ndarray:
    """(n nA, k): row q sums coef[e] b_left[e] v over the terms e with
    dst[e] = q, v the sparse row rows[e] of vecs = (lo, hi, cols, vals); a
    cell sums at most nA products per term (`_arrays.fmul_sum`)."""
    lo, hi, cols, vals = vecs
    mptr, mcol, mval = mul
    acc = ar.zeros(field, (n * nA,))
    for a, b in chunk_runs(hi[rows] - lo[rows]):
        e, vp = ar.csr_expand(lo, rows[a:b], hi)
        e += a
        # np.take gathers (E, k) rows faster than indexing
        w = ar.fmul(field, np.take(coef, e, 0), np.take(vals, vp, 0))
        mrow = left[e] * nA + cols[vp]
        for c, d in chunk_runs(mptr[mrow + 1] - mptr[mrow]):
            g, mp = ar.csr_expand(mptr, mrow[c:d])
            g += c
            ar.scatter_add(acc, dst[e[g]] * nA + mcol[mp], ar.fmul_sum(
                field, np.take(w, g, 0), np.take(mval, mp, 0), rows.size * nA))
    return acc % field.p


def cocycle_pairs(field: Field, heads, mul, tails, I: np.ndarray,
                  J: np.ndarray, nA: int):
    """out[q] = sum gamma(x_1) gamma(y_1) T(x_2, y_2) in an algebra A of
    dimension nA over the terms x_1 (x) x_2 of Delta(h_I[q]) and y_1 (x)
    y_2 of Delta(h_J[q]), for any list of pairs: the cocycle of a cleaving
    map gamma: H -> A when T(b, d) = gamma^-1(h_b h_d).  heads = (ptr, B, M,
    coef) are CSR rows by h of the terms coef b_M (x) h_B of (gamma (x) id)
    Delta(h); mul holds A's CSR rows a nA + b; tails(b), b an array of x_2
    labels, returns sparse rows (lo, hi, cols, vals), row b nH + d holding
    T(b, d).  Yields (lo, hi, out[lo:hi]), an (hi - lo, nA, k) array, chunk
    by chunk, so a caller may stop early.

    Two one-sided passes of left products on the rows of mul, as A is
    associative: V(x_2, y) = sum gamma(y_1) T(x_2, y_2), then out[q] = sum
    gamma(x_1) V(x_2, y).  A V row serves the pairs of its chunk with its
    y, so pairs listed column by column share them.  A pair costs its nA
    cells and head terms, as does each V row it is the first of its chunk
    to need; a chunk of more than one pair costs less than CONV_CHUNK_TERMS
    without its last."""
    hptr, B, M, coef = heads
    nH, nT = hptr.size - 1, np.diff(hptr)
    # a pair costs more than nA, so a chunk holds fewer than `width`
    width = CONV_CHUNK_TERMS // nA + 1
    lo = 0
    while lo < I.size:
        x, y = I[lo:lo + width], J[lo:lo + width]
        q, t = ar.csr_expand(hptr, x)
        _, first = np.unique(y[q] * nH + B[t], return_index=True)
        n = next(chunk_runs(nA + nT[x] + (nA + nT[y]) * np.bincount(
            q[first], minlength=x.size)))[1]
        t = t[:np.searchsorted(q, n)]
        q = q[:t.size]
        keys, inv = np.unique(y[q] * nH + B[t], return_inverse=True)
        ky, kb = np.divmod(keys, nH)
        r, s = ar.csr_expand(hptr, ky)
        V = _left_sums(field, mul, nA, keys.size, r, M[s], coef[s],
                       tails(kb), kb[r] * nH + B[s])
        ptr, cols, vals = ar.csr(V.reshape(keys.size, nA, field.k))
        out = _left_sums(field, mul, nA, n, q, M[t], coef[t],
                         (ptr[:-1], ptr[1:], cols, vals), inv)
        yield lo, lo + n, out.reshape(n, nA, field.k)
        lo += n


def convolution2(C, F: np.ndarray, G: np.ndarray, m: np.ndarray | None,
                 rows: slice = slice(None)) -> np.ndarray:
    """The two-argument convolution over a coaction: out[i, j] = sum
    m(F(x_1, y_1), G(x_2, y_2)) over the terms x_1 (x) x_2 of rho(b_i) and
    y_1 (x) y_2 of rho(b_j), rho the comul of a HopfAlgebra C (its regular
    coaction) or C.coaction of a ComoduleAlgebra.  F is (nL, nL, nF, k), G
    (nR, nR, nG, k) and m an (nF, nG, nOut, k) structure tensor, m(u, v) =
    sum u_a v_b m[a, b], or None for the outer product u (x) v (index a nG
    + b).  Returns out[rows], rows a slice of consecutive i: (len(rows), n,
    nOut, k).  `convolve_pairs` on the pairs of the rows x n grid."""
    f, k = C.field, C.field.k
    rho = C.comul if isinstance(C, HopfAlgebra) else C.coaction
    n, nL, nR = rho.ptr.size - 1, F.shape[0], G.shape[0]
    nF, nG = F.shape[-2], G.shape[-2]
    if (F.shape != (nL, nL, nF, k) or G.shape != (nR, nR, nG, k) or (
            m is not None and m.shape[:2] + m.shape[3:] != (nF, nG, k))
            or np.any(rho.A >= nL) or np.any(rho.B >= nR)):
        raise ShapeMismatch("convolution2 operands do not match the "
                            "coaction and m")
    nOut = nF * nG if m is None else m.shape[2]
    i0, i1, _ = rows.indices(n)
    I, J = np.divmod(np.arange(i0 * n, i1 * n), n)
    out = ar.zeros(f, (I.size, nOut))
    for lo, hi, vals in convolve_pairs(
            f, rho, ar.csr(F.reshape(nL * nL, nF, k)),
            ar.csr(G.reshape(nR * nR, nG, k)),
            None if m is None else ar.csr(m.reshape(nF * nG, nOut, k)),
            I, J, (nL, nR, nF, nG, nOut)):
        out[lo:hi] = vals
    return out.reshape(i1 - i0, n, nOut, k)


def _conv_inverse(field: Field, product, x: np.ndarray,
                  unit: np.ndarray) -> np.ndarray:
    """The two-sided inverse of x under `product`, the convolution of a
    finite-dimensional coalgebra into an associative algebra, with unit
    `unit`; NotConvInvertible if there is none.  Under convolution the maps
    form a unital algebra (Montgomery, CBMS 82, 1993), so an invertible x is
    a polynomial in x: with mu its minimal polynomial
    (`fdalg._minimal_polynomial`), x^-1 = -mu(0)^-1 (mu(x) - mu(0))/x.
    mu(0) = 0 makes x a zero divisor.  The inverse is checked by one
    product on each side."""
    mu, powers = _minimal_polynomial(field, product, x, unit,
                                     x.size // field.k)
    c0, *rest = mu.coeffs
    if c0.is_zero():
        raise NotConvInvertible("map is a zero divisor under convolution")
    scale = -c0.inverse()
    w = np.array([(scale * c).coeffs for c in rest], dtype=np.int64)
    inv = ar.fmatmul(field, w[None], powers)[0].reshape(x.shape)
    for left, right in ((inv, x), (x, inv)):
        if np.any((product(left, right) - unit) % field.p):
            raise NotConvInvertible("solution is not a two-sided inverse")
    return inv


def conv_inverse(H: HopfAlgebra, A: SCAlgebra, fmap: LinMap) -> LinMap:
    """Two-sided convolution inverse of f: H -> A (`_conv_inverse` under
    `convolution`)."""
    f = H.field
    if fmap.matrix.shape != (H.dim, A.dim, f.k):
        raise ShapeMismatch("map must go from H into A")
    return LinMap(f, _conv_inverse(f, lambda x, y: convolution(
        H, A, LinMap(f, x), LinMap(f, y)).matrix, fmap.matrix,
        conv_unit(H, A).matrix))


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def _dual_integral_space(H: HopfAlgebra, side: str) -> np.ndarray:
    """RREF basis of the space of one-sided integrals in the dual algebra.

    A left integral: mu * L = mu(1) L for all functionals mu; in coordinates
    sum_b comul[i,j,b] L_b = unit_j L_i for all (i, j), comul[i,j,b] the
    coefficient of b_j (x) b_b in Delta(b_i).  Right integrals use the
    other coproduct leg.
    """
    _, I, A, B, c = H.comul
    if side == "right":
        A, B = B, A
    return fixed_space(H.field, H.dim, I, A, B, c, H.alg.unit)


def left_integral_dual(H: HopfAlgebra) -> Integral:
    """The left integral of the dual algebra, normalized so its first
    nonzero coordinate is 1."""
    basis = _dual_integral_space(H, "left")
    if basis.shape[0] != 1:
        raise IntegralNotFound(
            f"integral space has dimension {basis.shape[0]}, expected 1")
    return Integral(H.field, basis[0])


def is_unimodular_s2(H: HopfAlgebra) -> tuple[bool, bool, bool]:
    """(unimodular, antipode squared is the identity, dual integral is a
    symmetric functional).  The first two must imply the third; that
    consistency is enforced here."""
    f = H.field
    n = H.dim
    left = _dual_integral_space(H, "left")
    right = _dual_integral_space(H, "right")
    unimodular = (left.shape[0] == right.shape[0]
                  and not np.any((left - right) % f.p))
    S2 = ar.fmatmul(f, H.antipode, H.antipode)
    eye = ar.identity(f, n)
    s2_is_id = not np.any((S2 - eye) % f.p)
    lam = left_integral_dual(H)
    # vals[i, j] = Lambda(b_i b_j)
    vals = ar.fmatmul(f, H.alg.mul.reshape(n * n, n, f.k),
                      lam.functional[:, None, :]).reshape(n, n, f.k)
    lambda_symmetric = not np.any((vals - vals.transpose(1, 0, 2)) % f.p)
    if unimodular and s2_is_id and not lambda_symmetric:
        raise ConsistencyCheckFailed(
            "unimodular with involutive antipode but the dual integral is "
            "not symmetric")
    return unimodular, s2_is_id, lambda_symmetric


# ---------------------------------------------------------------------------
# group algebras
# ---------------------------------------------------------------------------

def group_algebra(field: Field, table) -> HopfAlgebra:
    """Group algebra F[G] from a Cayley table (table[i][j] = index of g_i g_j),
    with the grouplike Hopf structure."""
    tab = [[int(x) for x in row] for row in table]
    n = len(tab)
    if any(len(row) != n for row in tab) or any(
            x < 0 or x >= n for row in tab for x in row):
        raise NotAGroup("table is not an n x n array of indices")
    T, ix = np.array(tab, dtype=np.int64).reshape(n, n), np.arange(n)
    ident = np.flatnonzero((T == ix).all(axis=1) & (T.T == ix).all(axis=1))
    if not ident.size:
        raise NotAGroup("no identity element")
    # T[T][i, j, m] = (g_i g_j) g_m and T[:, T][i, j, m] = g_i (g_j g_m)
    bad = np.argwhere(T[T] != T[:, T]).tolist()
    if bad:
        raise NotAGroup("associativity fails at ({},{},{})".format(*bad[0]))
    inverse = (T == ident[0]) & (T.T == ident[0])
    if not inverse.any(axis=1).all():
        raise NotAGroup(f"element {np.argmin(inverse.any(axis=1))} has no "
                        "inverse")
    mul = ar.zeros(field, (n, n, n))
    mul[ix[:, None], ix, T, 0] = 1
    comul = Terms(np.arange(n + 1), ix, ix, ix,
                  np.tile(ar.unit_scalar(field), (n, 1)))
    unit, counit = ar.zeros(field, (n,)), ar.zeros(field, (n,))
    unit[ident[0], 0] = counit[:, 0] = 1
    antipode = ar.zeros(field, (n, n))
    antipode[ix, inverse.argmax(axis=1), 0] = 1
    return HopfAlgebra(SCAlgebra(field, mul, unit), comul, counit, antipode)


def cyclic_group_table(m: int):
    return [[(i + j) % m for j in range(m)] for i in range(m)]
