"""Comodule algebras and descent machinery: invariants, the canonical map,
two-cocycles and twisted products, cocycle equivalence and pushforward,
splittings and their cocycles, equivariance predicates, Frobenius forms, and
winding isomorphisms for enveloping-algebra fibers.

Conventions.  A coaction is held, like a coproduct, as its `hopf.Terms`:
term t is coef[t] b_A[t] (x) h_B[t] in rho(b_I[t]).  Cocycle values
sigma(h_i (x) h_j) are coordinate vectors in a commutative target algebra
R, stored as (nH, nH, nR, k).

Two product conventions are supported for the twisted product on R (x) H:

  "standard":  (a (x) g)(b (x) h) = a b sigma(g_1 (x) h_1) (x) g_2 h_2
  "paper":     (a (x) g)(b (x) h) = a b sigma(h_1 (x) g_1) (x) h_2 g_2

Since R is commutative, the "paper" product of x and y is the "standard"
product of y and x: the "paper" twisted product is the opposite algebra of
the "standard" one.  So for a cleaving map gamma: H -> A with cocycle
sigma, the "standard" twisted product rebuilds A and the "paper" one
rebuilds A^op.  cocycle_verify checks the associativity identity matching
the chosen convention; for cocommutative H the two agree.

Sums over the terms of two arguments of a coaction (Delta or a comodule
algebra's rho) run through hopf.convolve_pairs, and the cocycle of a
cleaving map and cocycle_transform's gauge sum through hopf.cocycle_pairs.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _arrays as ar
from .errors import (
    CocycleInvalid,
    InvariantsNotCentralScalars,
    NoOneDimRep,
    NotAlgebraMap,
    NotCocommutative,
    NotConvInvertible,
    PremiseFailed,
    ShapeMismatch,
    UnknownKind,
    ValueNotInvariant,
)
from .exactfield import Field
from .fdalg import (
    BilForm,
    SCAlgebra,
    Subspace,
    _is_algebra_map,
    _products,
    algebra_verify,
    center,
    decode_array,
    encode_array,
    subalgebra_on,
)
from .hopf import (
    HopfAlgebra,
    Integral,
    LinMap,
    Terms,
    chunk_runs,
    cocycle_pairs,
    conv_inverse,
    conv_unit,
    convolution,
    convolution2,
    convolve_pairs,
    fixed_space,
    is_cocommutative,
    tensor_square,
)

# without a generating set, the algebra-map law is checked on every pair
# (the full pair scan) only up to this dimension at construction time;
# larger comodule algebras with no known generators get the other axioms
# only, and the full scan is exercised on small instances in the test suite
FULL_VERIFY_DIM = 81

# exhaustive triple check of the cocycle identity up to this Hopf dimension;
# beyond it a fixed deterministic sample of triples is used
COCYCLE_TRIPLE_DIM = 12

def _check_convention(convention: str):
    """UnknownKind unless convention is one of the two product conventions."""
    if convention not in ("paper", "standard"):
        raise UnknownKind(f"unknown convention {convention!r}")


def _counit_right(H: HopfAlgebra, X: np.ndarray) -> np.ndarray:
    """The (nH, nH, n, k) table (x, y) -> eps(y) X[x] of rows X (nH, n, k):
    as the second argument of convolution2 it leaves y unsplit."""
    return ar.fmul(H.field, X[:, None, :, :], H.counit[None, :, None, :])


class ComoduleAlgebra:
    """An algebra A together with a right coaction of a Hopf algebra H
    that is counital, coassociative, unital, and an algebra map; the
    coaction is read by `hopf.Terms.of`."""

    def __init__(self, alg: SCAlgebra, hopf: HopfAlgebra, coaction,
                 check: bool = True):
        f = alg.field
        if hopf.field != f:
            raise ShapeMismatch("algebra and Hopf algebra over different fields")
        self.alg = alg
        self.hopf = hopf
        self.coaction = Terms.of(f, coaction, (alg.dim, alg.dim, hopf.dim),
                                 "coaction")
        if check:
            msgs = self.verify()
            if msgs:
                raise ShapeMismatch("; ".join(msgs))

    @property
    def field(self) -> Field:
        return self.alg.field

    def verify(self, max_reports: int = 10,
               full: bool | None = None) -> list[str]:
        """The failed comodule-algebra axioms, as messages (empty if none):
        the counit law, coassociativity, rho(1) = 1 (x) 1 and the
        algebra-map law rho(xy) = rho(x) rho(y).

        The algebra-map law is checked on generators when A and H carry
        them (`SCAlgebra.generators`, which vouches that both algebras are
        associative and unital) and rho(1) = 1 (x) 1 has passed: then
        rho(g b_j) = rho(g) rho(b_j) for every generator g and basis vector
        b_j gives rho(g_1 ... g_r y) = rho(g_1) ... rho(g_r) rho(y) by
        induction on r, so rho is multiplicative on all of A.  Otherwise,
        and whenever a generator row fails, every pair (i, j) is checked by
        the full pair scan and each failing i reported with its first
        failing j.  The full scan runs when full is True, or when full is
        None and dim A <= FULL_VERIFY_DIM; where it does not, failing
        generator rows are reported alone.  full=False skips the law."""
        f = self.field
        nA, nH = self.alg.dim, self.hopf.dim
        _, I, A, U, c = self.coaction
        out = []
        # counit law: (id (x) eps) rho = id
        ce = ar.sparse_times_dense(f, nA * nA, I * nA + A, U, c,
                                   self.hopf.counit).reshape(nA, nA, f.k)
        if np.any((ce - ar.identity(f, nA)) % f.p):
            out.append("coaction counit law fails")
        i = self._first_coassociativity_failure()
        if i is not None:
            out.append(f"coaction coassociativity fails at basis index {i}")
        # rho(1) = 1 (x) 1
        r1 = ar.sparse_times_dense(f, nA * nH, A * nH + U, I, c,
                                   self.alg.unit).reshape(nA, nH, f.k)
        uu = ar.fmul(f, self.alg.unit[:, None, :],
                     self.hopf.alg.unit[None, :, :])
        unital = not np.any((r1 - uu) % f.p)
        if not unital:
            out.append("coaction does not send the unit to 1 (x) 1")
        if full is False:
            return out
        gens = self.alg.generators
        bad = None
        if unital and gens is not None and self.hopf.alg.generators is not None:
            bad = self._verify_algebra_map(gens)
        if (full or nA <= FULL_VERIFY_DIM) and (bad is None or bad.any()):
            bad = self._verify_algebra_map()
        if bad is not None:
            out += [f"coaction is not an algebra map at pair "
                    f"({i},{np.argmax(bad[i])})" for i in np.flatnonzero(
                        bad.any(axis=1))][:max(max_reports - len(out), 1)]
        return out

    def _first_coassociativity_failure(self) -> int | None:
        """The first i with (rho (x) id) rho(b_i) != (id (x) Delta) rho(b_i),
        or None.  Both sides are keyed term lists: the left side sends each
        term c b_a (x) h_u of rho(b_i) to c rho(b_a) (x) h_u, the right side
        to c b_a (x) Delta(h_u), each term keyed by its cell (i, a, u, v).
        The terms of both sides, the right side negated, are sorted by key
        and equal keys summed (`_arrays.sum_by_key`); the smallest i with a
        nonzero sum fails.
        Runs of rows i with fewer than hopf.CONV_CHUNK_TERMS terms together
        (`hopf.chunk_runs`) are checked in turn, so the first failing run
        ends the search."""
        f = self.field
        nA, nH = self.alg.dim, self.hopf.dim
        ptr, I, A, U, c = self.coaction
        dptr, _, U1, U2, d = self.hopf.comul
        # row i costs the terms both sides expand it into
        run = np.concatenate([[0], np.cumsum(np.diff(ptr)[A]
                                             + np.diff(dptr)[U])])
        for lo, hi in chunk_runs(np.diff(run[ptr])):
            t = np.arange(ptr[lo], ptr[hi])
            e, s = ar.csr_expand(ptr, A[t])
            left = ((I[t[e]] * nA + A[s]) * nH + U[s]) * nH + U[t[e]]
            lval = ar.fmul(f, c[t[e]], c[s])
            e, s = ar.csr_expand(dptr, U[t])
            right = ((I[t[e]] * nA + A[t[e]]) * nH + U1[s]) * nH + U2[s]
            rval = f.p - ar.fmul(f, c[t[e]], d[s])
            bad, _ = ar.sum_by_key(f, np.concatenate([left, right]),
                                   np.concatenate([lval, rval]))
            if bad.size:
                return int(bad[0] // (nA * nH * nH))
        return None

    def _verify_algebra_map(self, rows=None) -> np.ndarray:
        """The (nA, nA) table of the pairs (i, j) with rho(b_i b_j) !=
        rho(b_i) rho(b_j), i in rows (every i by default; other rows are
        False).  rho(b_i) rho(b_j) is hopf.convolve_pairs over rho with
        F = mulA, G = mulH and m the outer product A x H -> A (x) H, chunk
        by chunk; rho(b_i b_j) = sum_c mulA[i, j, c] rho(b_c) is subtracted
        on the terms of rho, from the sparse rows of mulA."""
        f = self.field
        nA, nH = self.alg.dim, self.hopf.dim
        terms = ptr, _, A, U, c = self.coaction
        mulA = mptr, mcol, mval = ar.csr(self.alg.mul.reshape(nA * nA, nA,
                                                               f.k))
        rows = np.arange(nA) if rows is None else np.array(rows, np.int64)
        I, J = rows.repeat(nA), np.tile(np.arange(nA), rows.size)
        bad = np.zeros((nA, nA), dtype=bool)
        for lo, hi, vals in convolve_pairs(
                f, terms, mulA, ar.csr(self.hopf.alg.mul.reshape(
                    nH * nH, nH, f.k)), None, I, J, (nA, nH, nA, nH, nA * nH)):
            # pair q meets the terms of rho(b_c), c in b_I[q] b_J[q]
            q, mp = ar.csr_expand(mptr, I[lo:hi] * nA + J[lo:hi])
            e, s = ar.csr_expand(ptr, mcol[mp])
            ar.scatter_add(vals.reshape(-1, f.k),
                           (q[e] * nA + A[s]) * nH + U[s],
                           f.p - ar.fmul(f, mval[mp[e]], c[s]))
            bad[I[lo:hi], J[lo:hi]] = (vals % f.p).any(axis=(1, 2))
        return bad


def coinvariants(CA: ComoduleAlgebra) -> Subspace:
    """The subspace {x in A : rho(x) = x (x) 1}; always a unital
    subalgebra, which is checked (ShapeMismatch if not: the coaction
    breaks the comodule-algebra axioms)."""
    f, nA = CA.field, CA.alg.dim
    _, I, A, U, c = CA.coaction
    sub = Subspace(f, nA, fixed_space(f, nA, A, U, I, c, CA.hopf.alg.unit))
    if not sub.contains(CA.alg.unit):
        raise ShapeMismatch("unit is not coinvariant")
    prods = _products(CA.alg, sub.basis, sub.basis).reshape(-1, nA, f.k)
    if ar.coords_in_row_space_many(f, sub.basis, prods) is None:
        raise ShapeMismatch("coinvariants not closed under product")
    return sub


def _canonical_map_matrix(CA: ComoduleAlgebra) -> np.ndarray:
    """Matrix of can: A (x) A -> A (x) H, x (x) y -> (x (x) 1) rho(y);
    rows indexed (i, j), columns (a, u)."""
    f = CA.field
    nA, nH = CA.alg.dim, CA.hopf.dim
    # B[(j, u), (i, a)] = sum c b_i b_a0 over the terms c b_a0 (x) h_u
    _, J, A0, U, c = CA.coaction
    B = ar.sparse_times_dense(f, nA * nH, J * nH + U, A0, c,
                              CA.alg.mul.transpose(1, 0, 2, 3))
    return B.reshape(nA, nH, nA, nA, f.k).transpose(2, 0, 3, 1, 4).reshape(
        nA * nA, nA * nH, f.k)


def _balanced_relations(A: SCAlgebra, Bbasis: np.ndarray) -> np.ndarray:
    """RREF basis of the relations x b (x) y - x (x) b y, b a row of Bbasis,
    that cut A (x)_B A out of A (x) A (coordinate a nA + c)."""
    f, nA = A.field, A.dim
    eye = ar.identity(f, nA)
    ix = np.arange(nA)
    rels = ar.zeros(f, (Bbasis.shape[0], nA, nA, nA, nA))  # [t, i, j, a, c]
    rels[:, :, ix, :, ix] = _products(A, eye, Bbasis).transpose(1, 0, 2, 3)
    rels[:, ix, :, ix] = (rels[:, ix, :, ix] - _products(A, Bbasis, eye)) % f.p
    return ar.row_space(f, rels.reshape(-1, nA * nA, f.k))


def galois_check(CA: ComoduleAlgebra) -> bool:
    """Whether the canonical map A (x)_B A -> A (x) H is bijective, where B
    is the coinvariant subalgebra.  B must be the scalars or central and
    commutative; anything else raises InvariantsNotCentralScalars."""
    f = CA.field
    nA, nH = CA.alg.dim, CA.hopf.dim
    B = coinvariants(CA)
    M = _canonical_map_matrix(CA)
    if B.dim == 1:
        # invariants are the scalars: the tensor product is over the field
        return ar.rank(f, M) == nA * nH
    Z = center(CA.alg)
    Balg, _ = subalgebra_on(CA.alg, B)
    if not Balg.is_commutative() or any(
            not Z.contains(B.basis[i]) for i in range(B.dim)):
        raise InvariantsNotCentralScalars(
            "coinvariants are neither the scalars nor central commutative")
    R = _balanced_relations(CA.alg, B.basis)
    rel_dim = nA * nA - R.shape[0]
    # can must kill the relations (so it factors through the quotient);
    # bijectivity then means matching dimension plus surjectivity
    if np.any(ar.fmatmul(f, R, M) % f.p):
        return False
    return rel_dim == nA * nH and ar.rank(f, M) == nA * nH


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------

class Cocycle:
    """A bilinear map sigma: H (x) H -> R with R commutative."""

    def __init__(self, hopf: HopfAlgebra, target: SCAlgebra, values):
        f = hopf.field
        if target.field != f:
            raise ShapeMismatch("cocycle target over a different field")
        self.hopf = hopf
        self.target = target
        self.values = ar.asarray(f, values)
        nH, nR = hopf.dim, target.dim
        if self.values.shape != (nH, nH, nR, f.k):
            raise ShapeMismatch(
                f"cocycle value tensor shape {self.values.shape}")

    @property
    def field(self) -> Field:
        return self.hopf.field

    def to_json(self) -> dict:
        return {
            "hopf": self.hopf.to_json(),
            "target": self.target.to_json(),
            "values": encode_array(self.field, self.values),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cocycle":
        H = HopfAlgebra.from_json(data["hopf"])
        R = SCAlgebra.from_json(data["target"])
        return cls(H, R, decode_array(H.field, data["values"],
                                      (H.dim, H.dim, R.dim), "values"))


def trivial_cocycle(H: HopfAlgebra, R: SCAlgebra) -> Cocycle:
    """sigma(h (x) g) = eps(h) eps(g) 1."""
    f = H.field
    eps2 = ar.fmul(f, H.counit[:, None, :], H.counit[None, :, :])
    vals = ar.fmul(f, eps2[:, :, None, :], R.unit[None, None, :, :])
    return Cocycle(H, R, vals)


def _sigma_conv_inverse(sig: Cocycle):
    """Convolution inverse of sigma as an (nH, nH, nR, k) tensor, or None
    if sigma is not invertible: `hopf.conv_inverse` over the coalgebra
    H (x) H."""
    f, nH, nR = sig.field, sig.hopf.dim, sig.target.dim
    try:
        inv = conv_inverse(tensor_square(sig.hopf), sig.target, LinMap(
            f, sig.values.reshape(nH * nH, nR, f.k)))
    except NotConvInvertible:
        return None
    return inv.matrix.reshape(nH, nH, nR, f.k)


def cocycle_verify(sig: Cocycle, convention: str = "paper") -> list[str]:
    """Empty iff sigma has a commutative target, satisfies the unit
    conditions, satisfies the associativity identity of the chosen
    convention, and is convolution invertible.  The triple identity is
    checked exhaustively for dim(H) <= 12 and on a fixed deterministic
    sample of triples above that."""
    _check_convention(convention)
    f = sig.field
    H, R = sig.hopf, sig.target
    nH, nR = H.dim, R.dim
    out = []
    if not R.is_commutative():
        out.append("cocycle target algebra is not commutative")
        return out
    vals = sig.values
    mulH = H.alg.mul
    # unit conditions sigma(h (x) 1) = sigma(1 (x) h) = eps(h) 1
    uH = H.alg.unit
    s_h1 = ar.fmatmul(
        f, uH[None, :, :],
        vals.transpose(1, 0, 2, 3).reshape(nH, nH * nR, f.k)
    ).reshape(nH, nR, f.k)
    s_1h = ar.fmatmul(f, uH[None, :, :],
                      vals.reshape(nH, nH * nR, f.k)).reshape(nH, nR, f.k)
    want = ar.fmul(f, H.counit[:, None, :], R.unit[None, :, :])
    if np.any((s_h1 - want) % f.p):
        out.append("unit condition sigma(h (x) 1) = eps(h) 1 fails")
    if np.any((s_1h - want) % f.p):
        out.append("unit condition sigma(1 (x) h) = eps(h) 1 fails")

    # tables: A1[(x, y), t] = sigma(h_x h_y (x) h_t),
    #         A2[(x, y), s] = sigma(h_s (x) h_x h_y)
    A1 = ar.fmatmul(f, mulH.reshape(nH * nH, nH, f.k),
                    vals.reshape(nH, nH * nR, f.k)
                    ).reshape(nH, nH, nH, nR, f.k)
    A2 = ar.fmatmul(f, mulH.reshape(nH * nH, nH, f.k),
                    vals.transpose(1, 0, 2, 3).reshape(nH, nH * nR, f.k)
                    ).reshape(nH, nH, nH, nR, f.k)
    # S<a>[x, y, u] = sum sigma(x_1, y_1) A<a>[x_2, y_2, u] for every u at
    # once: m multiplies in R, mR[r, (u, r1), (u, r2)] = mulR[r, r1, r2]
    mR = ar.zeros(f, (nR, nH, nR, nH, nR))
    ix = np.arange(nH)
    mR[:, ix, :, ix] = R.mul
    mR = mR.reshape(nR, nH * nR, nH * nR, f.k)
    S1, S2 = (convolution2(H, vals, T.reshape(nH, nH, nH * nR, f.k), mR
                           ).reshape(nH, nH, nH, nR, f.k) for T in (A1, A2))
    if convention == "standard":
        # sigma(h1, g1) sigma(h2 g2, t) = sigma(g1, t1) sigma(h, g2 t2)
        lhs, rhs = S1, S2.transpose(2, 0, 1, 3, 4)
    else:
        # sigma(h1, g1) sigma(t, h2 g2) = sigma(t1, h1) sigma(t2 h2, g)
        lhs, rhs = S2, S1.transpose(1, 2, 0, 3, 4)
    bad = ((lhs - rhs) % f.p).any(axis=(3, 4))
    if nH <= COCYCLE_TRIPLE_DIM:
        triples = np.argwhere(bad).tolist()
    else:
        rng = np.random.default_rng(0)
        triples = [t for t in rng.integers(0, nH, (60, 3)).tolist()
                   if bad[tuple(t)]]
    out += [f"cocycle identity fails at triple ({ih},{ig},{it})"
            for ih, ig, it in triples][:10 - len(out)]
    if len(out) >= 10:
        return out
    if _sigma_conv_inverse(sig) is None:
        out.append("sigma is not convolution invertible")
    return out


# ---------------------------------------------------------------------------
# twisted products
# ---------------------------------------------------------------------------

def twisted_product(R: SCAlgebra, sig: Cocycle,
                    convention: str = "paper") -> SCAlgebra:
    """The algebra R #_sigma H on R (x) H; basis index r * dim(H) + i for
    a_r (x) h_i.  The "paper" convention gives the opposite algebra of the
    "standard" one (see the module docstring): on the cocycle of a cleaving
    map gamma: H -> A, "standard" rebuilds A and "paper" rebuilds A^op.
    The cocycle is verified first and associativity of the result is
    re-verified; failure of either raises CocycleInvalid."""
    _check_convention(convention)
    if R.dim != sig.target.dim:
        raise ShapeMismatch("ring does not match the cocycle target")
    msgs = cocycle_verify(sig, convention)
    if msgs:
        raise CocycleInvalid("; ".join(msgs))
    return _twisted_product(R, sig, convention)


def _twisted_product(R: SCAlgebra, sig: Cocycle, convention: str) -> SCAlgebra:
    """`twisted_product` of a cocycle the caller has verified."""
    f = sig.field
    H = sig.hopf
    nH, nR = H.dim, R.dim
    dim = nR * nH
    # val[i, j] = (1 (x) h_i)(1 (x) h_j) = sum sigma(i_1, j_1) (x) i_2 j_2
    # in R (x) H, m the outer product
    val = convolution2(H, sig.values, H.alg.mul, None)
    if convention == "paper":
        val = val.transpose(1, 0, 2, 3)
    # trip[r, s, r1, t] = coordinate t of a_r a_s a_r1 in R
    trip = ar.fmatmul(f, R.mul.reshape(nR * nR, nR, f.k),
                      R.mul.reshape(nR, nR * nR, f.k))
    trip = trip.reshape(nR, nR, nR, nR, f.k).transpose(0, 1, 3, 2, 4)
    # mul[(r, i), (s, j), (t, m)] = sum_r1 trip[r, s, r1, t] val[i, j, (r1, m)]
    val = val.reshape(nH * nH, nR, nH, f.k).transpose(1, 0, 2, 3)
    mul = ar.fmatmul(f, trip.reshape(nR ** 3, nR, f.k),
                     val.reshape(nR, nH ** 3, f.k))
    mul = mul.reshape(nR, nR, nR, nH, nH, nH, f.k).transpose(
        0, 3, 1, 4, 2, 5, 6).reshape(dim, dim, dim, f.k)
    unit = ar.fmul(f, R.unit[:, None, :],
                   H.alg.unit[None, :, :]).reshape(dim, f.k)
    labels = None
    if R.labels and H.alg.labels:
        labels = [f"{rl}*{hl}" for rl in R.labels for hl in H.alg.labels]
    A = SCAlgebra(f, mul, unit, labels=labels)
    bad = algebra_verify(A)
    if bad:
        raise CocycleInvalid("twisted product fails verification: " + bad[0])
    return A


# ---------------------------------------------------------------------------
# cocycle equivalence and pushforward
# ---------------------------------------------------------------------------

def cocycle_transform(sig: Cocycle, u: LinMap, convention: str = "paper"):
    """Gauge a cocycle by a convolution-invertible map u: H -> R:

        tau(h (x) g) = u^-1(g_1) u^-1(h_1) sigma(h_2 (x) g_2) u(h_3 g_3)

    Returns (tau, iso) where iso is a verified algebra isomorphism
    R #_sigma H -> R #_tau H, given on elements by a (x) h -> a u(h_1) (x) h_2
    (inverted when the gauge formula moves in the opposite direction)."""
    _check_convention(convention)
    f = sig.field
    H, R = sig.hopf, sig.target
    nH, nR = H.dim, R.dim
    if u.matrix.shape != (nH, nR, f.k):
        raise ShapeMismatch("gauge map must go from H to the cocycle target")
    uinv = conv_inverse(H, R, u)
    # by coassociativity h_1 (x) h_2 (x) h_3 = h_1 (x) (h_2)_1 (x) (h_2)_2,
    # so tau(h, g) = sum u^-1(g_1) u^-1(h_1) inner(h_2, g_2) with the
    # convolution inner(h, g) = sigma(h_1 (x) g_1) u(h_2 g_2): the cocycle
    # kernel on the pair (g, h) with gamma = u^-1 and tails inner(d, b)
    Umul = ar.fmatmul(f, H.alg.mul.reshape(nH * nH, nH, f.k),
                      u.matrix).reshape(nH, nH, nR, f.k)
    inner = convolution2(H, sig.values, Umul, R.mul)
    tau = Cocycle(H, R, _cocycle_table(H, uinv.matrix, R.mul, ar.csr(
        inner.transpose(1, 0, 2, 3).reshape(nH * nH, nR, f.k))))
    msgs = cocycle_verify(tau, convention)
    if msgs:
        raise CocycleInvalid("transformed cocycle fails: " + msgs[0])
    A_sig = twisted_product(R, sig, convention)
    A_tau = _twisted_product(R, tau, convention)
    dim = nR * nH
    # phi(a_r (x) h_i) = sum a_r u(h_i1) (x) h_i2: with au[c1, r] = a_r u(h_c1),
    # phi[(r, i), (t, c2)] = sum d au[c1, r, t] over the terms d h_c1 (x) h_c2
    au = ar.fmatmul(f, u.matrix, R.mul.transpose(1, 0, 2, 3).reshape(
        nR, nR * nR, f.k)).reshape(nH, nR, nR, f.k)        # [c1, r, t]
    _, I, C1, C2, d = H.comul
    phi = ar.sparse_times_dense(f, nH * nH, I * nH + C2, C1, d,
                                au)                         # [(i, c2), r, t]
    phi = phi.reshape(nH, nH, nR, nR, f.k).transpose(2, 0, 3, 1, 4).reshape(
        dim, dim, f.k)
    inv = ar.inv_matrix(f, phi)
    if inv is None:
        raise NotAlgebraMap("gauge map is not bijective")
    if _is_algebra_map(A_sig, A_tau, LinMap(f, phi)):
        return tau, LinMap(f, phi)
    # the elementwise formula may implement the inverse direction
    if _is_algebra_map(A_tau, A_sig, LinMap(f, phi)) and \
            _is_algebra_map(A_sig, A_tau, LinMap(f, inv)):
        return tau, LinMap(f, inv)
    raise NotAlgebraMap("gauge map does not induce an algebra isomorphism")


def cocycle_pushforward(sig: Cocycle, fmap: LinMap, target: SCAlgebra,
                        convention: str = "paper") -> Cocycle:
    """Push a cocycle forward along a unital algebra map f: R -> S."""
    _check_convention(convention)
    f = sig.field
    R = sig.target
    if fmap.matrix.shape != (R.dim, target.dim, f.k):
        raise ShapeMismatch("pushforward map has the wrong shape")
    if not _is_algebra_map(R, target, fmap):
        raise NotAlgebraMap("pushforward along a map that is not an algebra map")
    nH = sig.hopf.dim
    vals = ar.fmatmul(f, sig.values.reshape(nH * nH, R.dim, f.k),
                      fmap.matrix).reshape(nH, nH, target.dim, f.k)
    out = Cocycle(sig.hopf, target, vals)
    msgs = cocycle_verify(out, convention)
    if msgs:
        raise CocycleInvalid("pushforward fails verification: " + msgs[0])
    return out


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------

class Splitting:
    """A convolution-invertible comodule map gamma: H -> A for a comodule
    algebra A; the comodule property and two-sided convolution
    invertibility are verified."""

    def __init__(self, CA: ComoduleAlgebra, gamma: LinMap,
                 inverse: LinMap | None = None, check: bool = True):
        f = CA.field
        nA, nH = CA.alg.dim, CA.hopf.dim
        if gamma.matrix.shape != (nH, nA, f.k):
            raise ShapeMismatch("splitting must map H into A")
        self.CA = CA
        self.gamma = gamma
        if inverse is None:
            inverse = conv_inverse(CA.hopf, CA.alg, gamma)
        self.inverse = inverse
        if check:
            self._verify()

    @property
    def field(self) -> Field:
        return self.CA.field

    def _verify(self):
        f = self.field
        CA = self.CA
        H = CA.hopf
        nA, nH = CA.alg.dim, H.dim
        # rho(gamma(h)) against (gamma (x) id) Delta(h) as terms keyed
        # (h, a, u): an entry g of gamma(h) at b_i meets the terms c b_a (x)
        # h_u of rho(b_i), a term d h_b (x) h_u of Delta(h), negated, the
        # entries g' of gamma(h_b) at b_a
        gptr, gcol, gval = ar.csr(self.gamma.matrix)
        h = np.arange(nH).repeat(np.diff(gptr))
        ptr, _, A, U, c = CA.coaction
        e, s = ar.csr_expand(ptr, gcol)
        left = (h[e] * nA + A[s]) * nH + U[s]
        _, I, B, V, d = H.comul
        t, gp = ar.csr_expand(gptr, B)
        right = (I[t] * nA + gcol[gp]) * nH + V[t]
        vals = [ar.fmul(f, gval[e], c[s]), -ar.fmul(f, d[t], gval[gp]) % f.p]
        bad, _ = ar.sum_by_key(f, np.concatenate([left, right]),
                               np.concatenate(vals))
        if bad.size:
            raise ShapeMismatch("splitting is not a comodule map at basis "
                                f"index {bad[0] // (nA * nH)}")
        unit = conv_unit(H, CA.alg)
        left = convolution(H, CA.alg, self.gamma, self.inverse)
        right = convolution(H, CA.alg, self.inverse, self.gamma)
        if left != unit or right != unit:
            raise NotConvInvertible(
                "declared inverse is not a two-sided convolution inverse")


def _cocycle_table(H: HopfAlgebra, gamma: np.ndarray, mul: np.ndarray,
                   tails) -> np.ndarray:
    """The (nH, nH, nA, k) table [y, x] = sum gamma(x_1) gamma(y_1) T(x_2,
    y_2) in the algebra of structure tensor mul, T(b, d) the CSR row
    b nH + d of tails: hopf.cocycle_pairs over every pair, column by
    column.  Its head terms meet each term c h_a (x) h_b of Delta(h) with
    the nonzero entries of gamma's row a."""
    f, nH, nA = H.field, H.dim, mul.shape[0]
    _, h, a, b, c = H.comul
    gptr, gcol, gval = ar.csr(gamma)
    e, gp = ar.csr_expand(gptr, a)
    heads = (np.searchsorted(h[e], np.arange(nH + 1)), b[e], gcol[gp],
             ar.fmul(f, c[e], gval[gp]))
    ptr, cols, vals = tails
    J, I = np.divmod(np.arange(nH * nH), nH)
    chunks = cocycle_pairs(f, heads, ar.csr(mul.reshape(nA * nA, nA, f.k)),
                           lambda _: (ptr[:-1], ptr[1:], cols, vals), I, J,
                           nA)
    return np.concatenate([v for _, _, v in chunks]).reshape(
        nH, nH, nA, f.k)


def splitting_to_cocycle(sp: Splitting, convention: str = "paper",
                         verify: bool | None = None) -> Cocycle:
    """The cocycle sigma(h (x) g) = gamma(h_1) gamma(g_1) gamma^-1(h_2 g_2)
    of a splitting.  Every value must land in the coinvariant subalgebra,
    else ValueNotInvariant; the returned cocycle has the coinvariant
    subalgebra as its target, with the inclusion basis in the attribute
    target_embedding."""
    _check_convention(convention)
    f = sp.field
    CA = sp.CA
    H, A = CA.hopf, CA.alg
    nA, nH = A.dim, H.dim
    # the tails gamma^-1(h_b h_d), rows b nH + d, as the sparse product of
    # H's mul and gamma^-1; cells r n + c with n = max(nH, nA) hold both
    n, mulH = max(nH, nA), H.alg.mul.reshape(nH * nH, nH, f.k)
    r, c = np.nonzero(mulH.any(axis=-1))
    tails = ar.csr_rows(nH * nH, n, *ar.sparse_times_csr(
        f, n, r * n + c, mulH[r, c], ar.csr(sp.inverse.matrix)))
    vals = _cocycle_table(H, sp.gamma.matrix, A.mul, tails).transpose(
        1, 0, 2, 3).reshape(nH * nH, nA, f.k)
    B = coinvariants(CA)
    Balg, bbasis = subalgebra_on(A, B)
    coords = ar.coords_in_row_space_many(f, B.basis, vals)
    if coords is None:
        bad = next(q for q in range(nH * nH) if B.coords(vals[q]) is None)
        raise ValueNotInvariant(
            "sigma value at pair ({},{}) is not coinvariant".format(
                *divmod(bad, nH)))
    sig = Cocycle(H, Balg, coords.reshape(nH, nH, B.dim, f.k))
    sig.target_embedding = bbasis
    if verify is None:
        verify = nH <= COCYCLE_TRIPLE_DIM
    if verify:
        msgs = cocycle_verify(sig, convention)
        if msgs:
            raise CocycleInvalid("splitting cocycle fails: " + msgs[0])
    return sig


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def is_equivariant_map(H: HopfAlgebra, alpha: LinMap) -> bool:
    """Whether a linear map alpha on H (x) H satisfies
    alpha(a (x) b) = alpha(a_1 b S(a_2) (x) a_3) on all basis pairs."""
    f = H.field
    nH = H.dim
    M = alpha.matrix
    if M.shape[0] != nH * nH:
        raise ShapeMismatch("map must be defined on the tensor square of H")
    nT = M.shape[1]
    # by coassociativity a_1 (x) a_2 (x) a_3 = (a_1)_1 (x) (a_1)_2 (x) a_2:
    # rhs[a, b] = sum over Delta(h_a) = x (x) a_3 of alpha(ad(x)(h_b) (x) a_3)
    N = ar.fmatmul(f, _adjoint(H).reshape(nH * nH, nH, f.k),
                   M.reshape(nH, nH * nT, f.k))             # [(x, b), (a3, t)]
    N = N.reshape(nH, nH, nH, nT, f.k).transpose(0, 2, 1, 3, 4)
    _, I, X, A3, c = H.comul
    rhs = ar.sparse_times_dense(f, nH, I, X * nH + A3, c, N.reshape(
        nH * nH, nH, nT, f.k))                               # [a, b, t]
    return not np.any((M - rhs.reshape(nH * nH, nT, f.k)) % f.p)


def _adjoint(H: HopfAlgebra) -> np.ndarray:
    """ad[x, b] = x_1 h_b S(x_2) in H, as an (nH, nH, nH, k) table."""
    return convolution2(H, H.alg.mul, _counit_right(H, H.antipode),
                        H.alg.mul)


def is_equivariant_splitting(sp: Splitting) -> bool:
    """Whether gamma(h_1 g S(h_2)) = gamma(h_1) gamma(g) gamma^-1(h_2) for
    all h, g; H must be cocommutative.  Computed along two independent
    routes (the direct identity, and the invariance law of the associated
    cocycle) which must agree, else PremiseFailed."""
    f = sp.field
    CA = sp.CA
    H = CA.hopf
    if not is_cocommutative(H):
        raise NotCocommutative("equivariance requires a cocommutative H")
    A = CA.alg
    nH = H.dim
    g = sp.gamma.matrix
    # lhs[h, g] = gamma(ad(h)(g)); rhs[h, g] = gamma(h_1) gamma(g) gamma^-1(h_2)
    lhs = ar.fmatmul(f, _adjoint(H).reshape(nH * nH, nH, f.k), g)
    rhs = convolution2(H, _products(A, g, g),
                       _counit_right(H, sp.inverse.matrix), A.mul)
    direct = not np.any((lhs - rhs.reshape(lhs.shape)) % f.p)
    # independent route through the associated cocycle
    sig = splitting_to_cocycle(sp, verify=False)
    via_cocycle = is_equivariant_map(
        H, LinMap(f, sig.values.reshape(nH * nH, sig.target.dim, f.k)))
    if direct != via_cocycle:
        raise PremiseFailed(
            "equivariance criteria disagree: direct identity vs cocycle law")
    return direct


def lemma25_transfer_check(tau: Cocycle, pi: Cocycle, x,
                           convention: str = "paper") -> dict:
    """Centrality transfer between two twisted products over the same Hopf
    algebra and target.  Premise (verified, else PremiseFailed): the
    convolution product tau * pi^-1 is equivariant.  Returns centrality of
    the element x (in R (x) H coordinates) in both twisted products and
    whether the two flags agree."""
    _check_convention(convention)
    f = tau.field
    H, R = tau.hopf, tau.target
    if pi.hopf.dim != H.dim or pi.target.dim != R.dim:
        raise ShapeMismatch("cocycles are not over matching data")
    nH, nR = H.dim, R.dim
    piinv = _sigma_conv_inverse(pi)
    if piinv is None:
        raise NotConvInvertible("pi has no convolution inverse")
    prod = convolution2(H, tau.values, piinv, R.mul)
    if not is_equivariant_map(H, LinMap(f, prod.reshape(nH * nH, nR, f.k))):
        raise PremiseFailed("tau * pi^-1 is not equivariant")
    A_tau = twisted_product(R, tau, convention)
    A_pi = twisted_product(R, pi, convention)
    xv = ar.asarray(f, x)
    if xv.shape != (nR * nH, f.k):
        raise ShapeMismatch("element must be given in R (x) H coordinates")

    def central(A, v):
        eye = ar.identity(f, A.dim)
        return not np.any((_products(A, v[None], eye)[0]
                           - _products(A, eye, v[None])[:, 0]) % f.p)

    ct = central(A_tau, xv)
    cp = central(A_pi, xv)
    return {"premise": True, "central_in_first": ct,
            "central_in_second": cp, "agree": ct == cp}


# ---------------------------------------------------------------------------
# Frobenius forms
# ---------------------------------------------------------------------------

def frobenius_form(CA: ComoduleAlgebra, lam: Integral) -> BilForm:
    """The bilinear form s(x, y) = E(x y) with E = (id (x) Lambda) rho, for
    a comodule algebra whose E-values are scalars.  Every E(b_m) must be a
    scalar multiple of the unit, else ValueNotInvariant."""
    f = CA.field
    nA, nH = CA.alg.dim, CA.hopf.dim
    Lam = lam.functional
    if Lam.shape != (nH, f.k):
        raise ShapeMismatch("integral has the wrong dimension")
    _, I, A, U, coef = CA.coaction
    E = ar.sparse_times_dense(f, nA * nA, I * nA + A, U, coef,
                              Lam).reshape(nA, nA, f.k)
    evec = ar.zeros(f, (nA,))
    for m in range(nA):
        c = CA.alg.scalar_coeff(E[m])
        if c is None:
            raise ValueNotInvariant(
                f"E(b_{m}) is not a scalar multiple of the unit")
        evec[m] = c
    s = ar.fmatmul(f, CA.alg.mul.reshape(nA * nA, nA, f.k),
                   evec[:, None, :]).reshape(nA, nA, f.k)
    return BilForm(f, s)


# ---------------------------------------------------------------------------
# winding isomorphisms for enveloping-algebra fibers
# ---------------------------------------------------------------------------

def find_one_dim_rep(F):
    """A one-dimensional representation alpha of the fiber algebra: scalars
    alpha_i killing all brackets with alpha_i^p - alpha(e_i^[p]) = lambda_i.
    The bracket constraints are linear and solved first; the power
    equations are settled by enumerating the solution space (at most two
    free parameters) over the coefficient field.  Raises NoOneDimRep if no
    representation exists over that field."""
    f = F.field
    L = F.L
    n = L.dim
    # one row per bracket [e_i, e_j], i < j: alpha kills each
    i, j = np.triu_indices(n, 1)
    rows = ar.zeros(f, (i.size, n))
    rows[..., 0] = L.bracket[i, j]
    basis = ar.nullspace(f, rows) if i.size else ar.identity(f, n)
    dfree = basis.shape[0]
    if f.order ** dfree > 10000:
        raise NoOneDimRep(
            "one-dimensional representation search space too large")
    lam = list(F.point.values)

    def satisfies(cand):
        for i in range(n):
            lhs = cand[i].frobenius()
            pb = f.scalar(0)
            for m in range(n):
                pb = pb + cand[m] * int(L.pmap[i, m])
            if lhs - pb != lam[i]:
                return False
        return True

    for coeffs in itertools.product(list(f.elements()), repeat=dfree):
        vec = ar.zeros(f, (n,))
        for t, c in enumerate(coeffs):
            cv = np.array(c.coeffs, dtype=np.int64)
            vec = ar.fadd(f, vec, ar.fmul(f, cv[None, :], basis[t]))
        cand = [f.scalar(tuple(int(x) for x in vec[i])) for i in range(n)]
        if satisfies(cand):
            return cand
    raise NoOneDimRep("no one-dimensional representation over the field")


def winding_iso(F, alpha=None) -> LinMap:
    """The algebra isomorphism from the fiber algebra at lambda to the
    fiber at zero induced by a one-dimensional representation alpha: on a
    PBW monomial,

      e^gamma -> sum over beta <= gamma of
                 binom(gamma, beta) alpha^beta e^(gamma - beta).

    The matrix is scattered from the binomial splittings of F.splittings().
    It is verified to be a bijective algebra map (fdalg._is_algebra_map);
    raises NotAlgebraMap otherwise and NoOneDimRep if no alpha exists."""
    from .resliealg import Fiber, FiberPoint

    f = F.field
    L = F.L
    n, p = L.dim, L.p
    if alpha is None:
        alpha = find_one_dim_rep(F)
    else:
        alpha = [f.scalar(a) for a in alpha]
    # apow[b] = alpha^beta for the label beta of index b
    labels = np.array(F.labels)
    apow = np.tile(ar.unit_scalar(f), (F.dim, 1))
    for t in range(n):
        pows = np.array([(alpha[t] ** e).coeffs for e in range(p)])
        apow = ar.fmul(f, apow, pows[labels[:, t]])
    _, gamma, beta, rest, coef = F.splittings()
    W = ar.zeros(f, (F.dim, F.dim))
    W[gamma, rest] = ar.fmul(f, apow[beta], coef)
    F0 = F if F.point.is_zero() else Fiber(L, FiberPoint.make(f, [0] * n))
    if not _is_algebra_map(F.alg, F0.alg, LinMap(f, W)):
        raise NotAlgebraMap("winding map is not an algebra map")
    if ar.inv_matrix(f, W) is None:
        raise NotAlgebraMap("winding map is not bijective")
    return LinMap(f, W)


# ---------------------------------------------------------------------------
# helpers for group-algebra examples
# ---------------------------------------------------------------------------

def group_quotient_coaction(HG: HopfAlgebra, qmap,
                            HQ: HopfAlgebra) -> ComoduleAlgebra:
    """The coaction of a quotient group algebra F[Q] on F[G]: each group
    basis element g of G maps to g (x) qmap[g]."""
    f = HG.field
    nG, nQ = HG.dim, HQ.dim
    if len(qmap) != nG:
        raise ShapeMismatch("quotient map must be defined on all of G")
    ix = np.arange(nG)
    rho = Terms(np.arange(nG + 1), ix, ix, np.array(qmap, dtype=np.int64),
                np.tile(ar.unit_scalar(f), (nG, 1)))
    return ComoduleAlgebra(HG.alg, HQ, rho)
