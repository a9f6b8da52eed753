"""Hopf algebra structure on structure-constant algebras: axiom checking,
the convolution algebra of linear maps, the two-argument convolution over
H (x) H, dual integrals, unimodularity, and group algebras.

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
    mul = H.alg.mul
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

    # antipode axiom: m (S (x) id) Delta = eta eps = m (id (x) S) Delta
    S = H.antipode
    dflat = H.comul.reshape(n, n * n, f.k)
    target = ar.fmul(f, eps[:, None, :], H.alg.unit[None, :, :])  # [i, m]
    # left[i, m] = sum_{a,b,t} d[i,a,b] S[a,t] mul[t,b,m]
    SB = ar.fmatmul(f, S, mul.reshape(n, n * n, f.k)).reshape(n, n, n, f.k)
    # SB[a, b, m] = S(b_a) b_b coords
    left = ar.fmatmul(f, dflat, SB.reshape(n * n, n, f.k))  # [i, m]
    if np.any((left - target) % f.p):
        bad = np.argwhere(np.any((left - target) % f.p, axis=2))
        out.append(f"antipode axiom (S (x) id) fails at basis index {int(bad[0][0])}")
    BS = ar.fmatmul(
        f, S, mul.transpose(1, 0, 2, 3).reshape(n, n * n, f.k))
    BS = BS.reshape(n, n, n, f.k).transpose(1, 0, 2, 3)  # [a, b, m] = b_a S(b_b)
    right = ar.fmatmul(f, dflat, BS.reshape(n * n, n, f.k))
    if np.any((right - target) % f.p):
        bad = np.argwhere(np.any((right - target) % f.p, axis=2))
        out.append(f"antipode axiom (id (x) S) fails at basis index {int(bad[0][0])}")
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
    # P[a, b, c] = coords of f(b_a) g(b_b) in A
    X = ar.fmatmul(f, fmap.matrix, A.mul.reshape(nA, nA * nA, f.k))
    X = X.reshape(nH, nA, nA, f.k)  # [a, m2, c]
    P = np.stack([ar.fmatmul(f, g.matrix, X[a]) for a in range(nH)])
    # out[i, c] = sum_{a,b} comul[i,a,b] P[a,b,c]
    out = ar.fmatmul(f, H.comul.reshape(nH, nH * nH, f.k),
                     P.reshape(nH * nH, nA, f.k))
    return LinMap(f, out)


# gathered term-pair temporaries of convolution2 hold at most this many
# cells, or one table of the first argument if that is larger
_CHUNK_CELLS = 1 << 18


def convolution2(H: HopfAlgebra, F: np.ndarray, G: np.ndarray,
                 m: np.ndarray) -> np.ndarray:
    """The two-argument convolution over the coalgebra H (x) H:

        out[i, j] = sum m(F(x_1, y_1), G(x_2, y_2))

    over the coproduct terms Delta(h_i) = x_1 (x) x_2, Delta(h_j) =
    y_1 (x) y_2.  F is (nH, nH, nF, k), G is (nH, nH, nG, k), and the
    bilinear map m is an (nF, nG, nOut, k) structure tensor:
    m(u, v) = sum u_a v_b m[a, b].  Returns (nH, nH, nOut, k)."""
    f = H.field
    p, k = f.p, f.k
    nH = H.dim
    nF, nG, nOut = m.shape[:3]
    if F.shape != (nH, nH, nF, k) or G.shape != (nH, nH, nG, k):
        raise ShapeMismatch("convolution2 operands do not match H and m")
    # the coproduct as flat terms: term t of Delta(h_I[t]) is h_A[t] (x) h_B[t]
    # with coefficient D[I[t], t]; the term pairs of (i, j) are the pairs
    # (t, s) with I[t] = i and I[s] = j
    I, A, B = np.nonzero(np.any(H.comul, axis=-1))
    T = I.size
    D = ar.zeros(f, (nH, T))
    D[I, np.arange(T)] = H.comul[I, A, B]
    # L[x nH + y] is the matrix of v -> m(F(h_x, h_y), v)
    L = ar.fmatmul(f, F.reshape(nH * nH, nF, k),
                   m.reshape(nF, nG * nOut, k)).reshape(nH * nH, nG, nOut, k)
    Gf = G.reshape(nH * nH, nG, k)
    pairs = max(nH * nH, _CHUNK_CELLS // max(nG * nOut * k, 1))
    step = max(1, pairs // max(T, 1))
    out = ar.zeros(f, (nH, nH * nOut))
    for t0 in range(0, T, step):
        t = slice(t0, min(t0 + step, T))
        tc = t.stop - t0
        # X[t, s] = m(F(h_A[t], h_A[s]), G(h_B[t], h_B[s]))
        X = _rows_times_matrices(f, Gf[(B[t, None] * nH + B).ravel()],
                                 L[(A[t, None] * nH + A).ravel()])
        # weight by the coefficient of s and sum into column I[s], then by
        # the coefficient of t into row I[t]
        X = X.reshape(tc, T, nOut, k).transpose(1, 0, 2, 3)
        Y = ar.fmatmul(f, D, X.reshape(T, tc * nOut, k))
        Y = Y.reshape(nH, tc, nOut, k).transpose(1, 0, 2, 3)
        out = (out + ar.fmatmul(f, D[:, t], Y.reshape(tc, nH * nOut, k))) % p
    return out.reshape(nH, nH, nOut, k)


def _rows_times_matrices(f: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise field products of rows a (P, g, k) with matrices
    b (P, g, o, k): out[q] = a[q] @ b[q], shape (P, o, k)."""
    p, k = f.p, f.k
    if k == 1:
        return (np.einsum("qg,qgo->qo", a[..., 0], b[..., 0]) % p)[..., None]
    full = np.zeros(b.shape[:1] + b.shape[2:3] + (2 * k - 1,), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            full[..., i + j] += np.einsum("qg,qgo->qo", a[..., i],
                                          b[..., j]) % p
    return np.tensordot(full % p, f._red, axes=([-1], [0])) % p


def conv_inverse(H: HopfAlgebra, A: SCAlgebra, fmap: LinMap) -> LinMap:
    """Two-sided convolution inverse of f: H -> A, by a direct linear solve."""
    f = H.field
    nH, nA = H.dim, A.dim
    if fmap.matrix.shape != (nH, nA, f.k):
        raise ShapeMismatch("map must go from H into A")
    # unknowns g[b, m2]; equations (i, c):
    #   sum_{a,b,m1,m2} comul[i,a,b] f[a,m1] mul[m1,m2,c] g[b,m2] = eps_i 1_c
    # B[i, b, m1] = sum_a comul[i,a,b] f[a, m1]
    B = np.stack([ar.fmatmul(f, H.comul[i].transpose(1, 0, 2), fmap.matrix)
                  for i in range(nH)])
    rows = []
    for i in range(nH):
        K = ar.fmatmul(f, B[i], A.mul.reshape(nA, nA * nA, f.k))
        K = K.reshape(nH, nA, nA, f.k)  # [b, m2, c]
        rows.append(K.transpose(2, 0, 1, 3).reshape(nA, nH * nA, f.k))
    M = np.concatenate(rows, axis=0)  # ((i,c), (b,m2))
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
    for i in range(n):
        M[i, :, i] = ar.fsub(f, M[i, :, i], H.alg.unit)
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
