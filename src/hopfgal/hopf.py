"""Hopf algebra structure on structure-constant algebras: axiom checking,
the convolution algebra of linear maps, the two-argument convolution over
the terms of a coaction, dual integrals, unimodularity, and group algebras.

Comultiplication tensor convention: comul[i, a, b] is the coefficient of
b_a (x) b_b in the coproduct of b_i.  The antipode matrix row i holds the
coordinates of S(b_i).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class Integral:
    """A functional on a Hopf algebra, stored by its values on the basis."""
    field: Field
    functional: np.ndarray  # (n, k)


class HopfAlgebra:
    """An SCAlgebra together with comultiplication, counit, and antipode."""

    def __init__(self, alg: SCAlgebra, comul, counit, antipode):
        f = alg.field
        n = alg.dim
        self.alg = alg
        self.comul = ar.asarray(f, comul)
        self.counit = ar.asarray(f, counit)
        self.antipode = ar.asarray(f, antipode)
        if self.comul.shape != (n, n, n, f.k):
            raise ShapeMismatch(f"comul shape {self.comul.shape}")
        if self.counit.shape != (n, f.k):
            raise ShapeMismatch(f"counit shape {self.counit.shape}")
        if self.antipode.shape != (n, n, f.k):
            raise ShapeMismatch(f"antipode shape {self.antipode.shape}")

    @property
    def field(self) -> Field:
        return self.alg.field

    @property
    def dim(self) -> int:
        return self.alg.dim

    def to_json(self) -> dict:
        out = self.alg.to_json()
        out["comul"] = encode_array(self.field, self.comul)
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
    checked here."""
    from .galois import ComoduleAlgebra

    f = H.field
    n = H.dim
    out = list(algebra_verify(H.alg, max_reports=max_reports))
    if out:
        return out
    out += ["regular coaction: " + m for m in ComoduleAlgebra(
        H.alg, H, H.comul, check=False).verify(max_reports, full=True)]
    # left counit law: sum_a eps(a) comul[i, a, b] = delta_ib
    eps = H.counit
    left = ar.fmatmul(f, eps[None],
                      H.comul.transpose(1, 0, 2, 3).reshape(n, n * n, f.k))
    if np.any((left.reshape(n, n, f.k) - ar.identity(f, n)) % f.p):
        out.append("counit law (eps (x) id) fails")
    one = ar.unit_scalar(f)
    if not _is_algebra_map(H.alg, SCAlgebra(f, one[None, None, None], one[None]),
                           LinMap(f, eps[:, None])):
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
    return not np.any((H.comul - H.comul.transpose(0, 2, 1, 3)) % H.field.p)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv_unit(H: HopfAlgebra, A: SCAlgebra) -> LinMap:
    """The convolution unit: h -> eps(h) 1_A."""
    f = H.field
    mat = ar.fmul(f, H.counit[:, None, :], A.unit[None, :, :])
    return LinMap(f, mat)


def convolution(H: HopfAlgebra, A: SCAlgebra, fmap: LinMap, g: LinMap) -> LinMap:
    """(f * g)(h) = f(h_1) g(h_2) computed in A."""
    f = H.field
    nH, nA = H.dim, A.dim
    if fmap.matrix.shape != (nH, nA, f.k) or g.matrix.shape != (nH, nA, f.k):
        raise ShapeMismatch("convolution operands must map H into A")
    # X[a, m2, c] = coords of f(b_a) b_m2, then P[b, a, c] = coords of
    # f(b_a) g(b_b) in A
    X = ar.fmatmul(f, fmap.matrix, A.mul.reshape(nA, nA * nA, f.k))
    P = ar.fmatmul(f, g.matrix, X.reshape(nH, nA, nA, f.k).transpose(
        1, 0, 2, 3).reshape(nA, nH * nA, f.k))
    # out[i, c] = sum_{a,b} comul[i,a,b] P[b,a,c]
    D = H.comul.transpose(0, 2, 1, 3).reshape(nH, nH * nH, f.k)
    out = ar.fmatmul(f, D, P.reshape(nH * nH, nA, f.k))
    return LinMap(f, out)


# expanded terms (term pair, F, G and m entry) of one chunk of convolution2
CONV_CHUNK_TERMS = 2 ** 16


def coaction_terms(rho: np.ndarray):
    """The nonzero terms of rho (n, nL, nR, k) as CSR rows (ptr, I, A, B,
    coef): term t, ptr[i] <= t < ptr[i + 1], is coef[t] b_A[t] (x) h_B[t]
    in rho(b_i), i = I[t]."""
    I, A, B = np.nonzero(rho.any(axis=-1))
    ptr = np.searchsorted(I, np.arange(rho.shape[0] + 1))
    return ptr, I, A, B, rho[I, A, B]


def convolution2(C, F: np.ndarray, G: np.ndarray, m: np.ndarray | None,
                 rows: slice = slice(None)) -> np.ndarray:
    """The two-argument convolution over a coaction,

        out[i, j] = sum m(F(x_1, y_1), G(x_2, y_2)),

    over the terms x_1 (x) x_2 of rho(b_i) and y_1 (x) y_2 of rho(b_j),
    rho (n, nL, nR, k) the comul of a HopfAlgebra C (its regular coaction)
    or C.coaction of a ComoduleAlgebra.  F is (nL, nL, nF, k), G is
    (nR, nR, nG, k) and m an (nF, nG, nOut, k) structure tensor,
    m(u, v) = sum u_a v_b m[a, b], or None for the outer product u (x) v
    (index a nG + b).  Returns out[rows], rows a slice of consecutive i:
    (len(rows), n, nOut, k).

    Products of sparse rows (Gustavson, ACM TOMS 4(3), 1978): each term
    pair meets the entries of F(x_1, y_1), each of those the entries of
    G(x_2, y_2), each such (a, b) those of m[a, b].  Chunks are runs of t
    cut where the running count of expanded terms passes a multiple of
    CONV_CHUNK_TERMS; t counts T pairs plus, per pair, nnz F nnz G times
    the longest row of m.  Exact for p <= P_MAX < 2^23: each term is reduced
    below p and each chunk reduces the rows it touched, so an int64 cell
    holds a residue plus one chunk's terms, below 2^63 for chunks under
    2^40 terms (a chunk's terms are all held in memory at once)."""
    f = C.field
    p, k = f.p, f.k
    rho = C.comul if isinstance(C, HopfAlgebra) else C.coaction
    n, nL, nR = rho.shape[:3]
    nF, nG = F.shape[-2], G.shape[-2]
    if (F.shape != (nL, nL, nF, k) or G.shape != (nR, nR, nG, k) or (
            m is not None and m.shape[:2] + m.shape[3:] != (nF, nG, k))):
        raise ShapeMismatch("convolution2 operands do not match the "
                            "coaction and m")
    if m is None:
        nOut = nF * nG
        mptr, mcol = np.arange(nOut + 1), np.arange(nOut)
        mval = np.tile(ar.unit_scalar(f), (nOut, 1))
    else:
        nOut = m.shape[2]
        mptr, mcol, mval = ar.csr(m.reshape(nF * nG, nOut, k))
    ptr, I, A, B, coef = coaction_terms(rho)
    T = I.size
    i0, i1, _ = rows.indices(n)
    fptr, fcol, fval = ar.csr(F.reshape(nL * nL, nF, k))
    gptr, gcol, gval = ar.csr(G.reshape(nR * nR, nG, k))
    # cost of t: its T pairs, plus nnz F(A_t, A_s) nnz G(B_t, B_s) over s
    # times the longest row of m; that sum over s is
    # sum_b W[A_t, b] nnz G(B_t, b), W = nnz F @ (terms s at each (A_s, B_s))
    nnzF = np.diff(fptr).reshape(nL, nL)
    nnzG = np.diff(gptr).reshape(nR, nR)
    W = nnzF @ np.bincount(A * nR + B, minlength=nL * nR).reshape(nL, nR)
    t0, t1 = ptr[i0], ptr[i1]
    mlen = np.diff(mptr).max(initial=0)
    cost = T + (W[A[t0:t1]] * nnzG[B[t0:t1]]).sum(axis=1) * mlen
    run = (cost.cumsum() - cost) // CONV_CHUNK_TERMS
    starts = t0 + np.flatnonzero(np.diff(run, prepend=-1))
    out = ar.zeros(f, ((i1 - i0) * n * nOut,))
    for lo, hi in zip(starts, [*starts[1:], t1]):
        t = np.arange(lo, hi).repeat(T)
        s = np.tile(np.arange(T), hi - lo)
        # the F entries of each pair, the G entries of each of those, and
        # the m entries of each (a, b), weighted as they are met
        e, fp = ar.csr_expand(fptr, A[t] * nL + A[s])
        w = ar.fmul(f, ar.fmul(f, coef[t[e]], coef[s[e]]), fval[fp])
        g, gp = ar.csr_expand(gptr, (B[t] * nR + B[s])[e])
        e, w = e[g], ar.fmul(f, w[g], gval[gp])
        h, mp = ar.csr_expand(mptr, fcol[fp[g]] * nG + gcol[gp])
        e, w = e[h], ar.fmul(f, w[h], mval[mp])
        cells = ((I[t[e]] - i0) * n + I[s[e]]) * nOut + mcol[mp]
        ar.scatter_add(out, cells, w)
        out[(I[lo] - i0) * n * nOut:(I[hi - 1] - i0 + 1) * n * nOut] %= p
    return out.reshape(i1 - i0, n, nOut, k)


def conv_inverse(H: HopfAlgebra, A: SCAlgebra, fmap: LinMap) -> LinMap:
    """Two-sided convolution inverse of f: H -> A, by a direct linear solve."""
    f = H.field
    nH, nA = H.dim, A.dim
    if fmap.matrix.shape != (nH, nA, f.k):
        raise ShapeMismatch("map must go from H into A")
    # unknowns g[b, m2]; equations (i, c):
    #   sum_{a,b,m1,m2} comul[i,a,b] f[a,m1] mul[m1,m2,c] g[b,m2] = eps_i 1_c
    # K[(i, b), (m2, c)] = sum_{a,m1} comul[i,a,b] f[a,m1] mul[m1,m2,c]
    K = ar.fmatmul(f, ar.fmatmul(f, H.comul.transpose(0, 2, 1, 3).reshape(
        nH * nH, nH, f.k), fmap.matrix), A.mul.reshape(nA, nA * nA, f.k))
    M = K.reshape(nH, nH, nA, nA, f.k).transpose(0, 3, 1, 2, 4).reshape(
        nH * nA, nH * nA, f.k)  # ((i,c), (b,m2))
    target = ar.fmul(f, H.counit[:, None, :], A.unit[None, :, :])
    rhs = target.reshape(nH * nA, f.k)
    sol = ar.solve(f, M, rhs)
    if sol is None:
        raise NotConvInvertible("no right convolution inverse exists")
    g = LinMap(f, sol.reshape(nH, nA, f.k))
    unit = conv_unit(H, A)
    if convolution(H, A, g, fmap) != unit or convolution(H, A, fmap, g) != unit:
        raise NotConvInvertible("solution is not a two-sided inverse")
    return g


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def _dual_integral_space(H: HopfAlgebra, side: str) -> np.ndarray:
    """RREF basis of the space of one-sided integrals in the dual algebra.

    A left integral: mu * L = mu(1) L for all functionals mu; in coordinates
    sum_b comul[i,j,b] L_b = unit_j L_i for all (i, j).  Right integrals use
    the other coproduct leg.
    """
    f = H.field
    n = H.dim
    d = H.comul
    M = (d.copy() if side == "left" else
         d.transpose(0, 2, 1, 3).copy())  # rows (i, j), unknown index last
    ix = np.arange(n)
    M[ix, :, ix] = (M[ix, :, ix] - H.alg.unit) % f.p
    return ar.nullspace(f, M.reshape(n * n, n, f.k))


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
    # identity
    ident = None
    for e in range(n):
        if all(tab[e][j] == j and tab[j][e] == j for j in range(n)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no identity element")
    for i in range(n):
        for j in range(n):
            for m in range(n):
                if tab[tab[i][j]][m] != tab[i][tab[j][m]]:
                    raise NotAGroup(f"associativity fails at ({i},{j},{m})")
    inv = [None] * n
    for i in range(n):
        for j in range(n):
            if tab[i][j] == ident and tab[j][i] == ident:
                inv[i] = j
                break
        if inv[i] is None:
            raise NotAGroup(f"element {i} has no inverse")
    mul = np.zeros((n, n, n, field.k), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            mul[i, j, tab[i][j], 0] = 1
    unit = np.zeros((n, field.k), dtype=np.int64)
    unit[ident, 0] = 1
    alg = SCAlgebra(field, mul, unit)
    comul = np.zeros((n, n, n, field.k), dtype=np.int64)
    counit = np.zeros((n, field.k), dtype=np.int64)
    antipode = np.zeros((n, n, field.k), dtype=np.int64)
    for i in range(n):
        comul[i, i, i, 0] = 1
        counit[i, 0] = 1
        antipode[i, inv[i], 0] = 1
    return HopfAlgebra(alg, comul, counit, antipode)


def cyclic_group_table(m: int):
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def group_from_json(field: Field, data: dict) -> HopfAlgebra:
    if set(data) - {"order", "table"}:
        raise NotAGroup("unexpected keys in group description")
    table = data["table"]
    if len(table) != int(data["order"]):
        raise NotAGroup("order does not match table size")
    return group_algebra(field, table)


# ---------------------------------------------------------------------------
# internal dual
# ---------------------------------------------------------------------------

def _dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra on the dual basis; internal helper for tests
    and pointedness-free dualization."""
    f = H.field
    mul = H.comul.transpose(1, 2, 0, 3).copy()
    unit = H.counit.copy()
    comul = H.alg.mul.transpose(2, 0, 1, 3).copy()
    counit = H.alg.unit.copy()
    antipode = H.antipode.transpose(1, 0, 2).copy()
    return HopfAlgebra(SCAlgebra(f, mul, unit), comul, counit, antipode)
