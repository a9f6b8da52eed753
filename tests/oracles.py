"""Independent oracles and reference routines that only the tests use.

Each one cross-checks a package routine by another construction, or keeps
the construction that a package routine replaced; nothing in the package
calls them.
"""

import functools

import numpy as np

from hopfgal import _arrays as ar
from hopfgal import fdalg, galois
from hopfgal.errors import (
    ConsistencyCheckFailed,
    RelationCheckFailed,
    ValueNotInvariant,
)
from hopfgal.exactfield import Scalar
from hopfgal.fdalg import SCAlgebra, Subspace
from hopfgal.hopf import HopfAlgebra


def separability_idempotent_exists(A: SCAlgebra) -> bool:
    """Independent semisimplicity certificate: solve for e in A (x) A^op with
    (x (x) 1) e = (1 (x) x) e for all x and mu(e) = 1.  Intended for small
    algebras (the system has dim^2 unknowns and dim^5 cells)."""
    f = A.field
    n = A.dim
    # unknown e[a,b]; constraint (c,d) of x=b_i: sum_a mul[i,a,c] e[a,d] -
    # sum_b e[c,b] mul[b,i,d] = 0, so e[a,b] has the coefficient
    # mul[i,a,c] delta_{b,d} - delta_{a,c} mul[b,i,d]
    eye = np.eye(n, dtype=np.int64)
    C = (np.einsum("iack,bd->icdabk", A.mul, eye)
         - np.einsum("ac,bidk->icdabk", eye, A.mul)) % f.p
    # mu(e) = sum_{a,b} e[a,b] b_a b_b = 1
    mu = A.mul.transpose(2, 0, 1, 3).reshape(n, n * n, f.k)
    M = np.concatenate([C.reshape(n ** 3, n * n, f.k), mu], axis=0)
    rhs = ar.zeros(f, (M.shape[0],))
    rhs[-n:] = A.unit
    sol = ar.solve(f, M, rhs)
    return sol is not None


def is_ideal(A: SCAlgebra, sub: Subspace) -> bool:
    """Whether the subspace is closed under products with A on both sides."""
    f, n = A.field, A.dim
    eye = ar.identity(f, n)
    prods = np.concatenate(
        [fdalg._products(A, eye, sub.basis).reshape(-1, n, f.k),
         fdalg._products(A, sub.basis, eye).reshape(-1, n, f.k)])
    return ar.coords_in_row_space_many(f, sub.basis, prods) is not None


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra H* on the dual basis."""
    f, n = H.field, H.dim
    mul = ar.zeros(f, (n, n, n))
    _, I, A, B, c = H.comul
    mul[A, B, I] = c
    unit = H.counit.copy()
    comul = H.alg.mul.transpose(2, 0, 1, 3).copy()
    counit = H.alg.unit.copy()
    antipode = H.antipode.transpose(1, 0, 2).copy()
    return HopfAlgebra(SCAlgebra(f, mul, unit), comul, counit, antipode)


def matrix_algebra_rank(field, mats) -> int:
    """Dimension of the unital algebra of n x n matrices generated by the
    given (n, n, k) matrices."""
    n = mats[0].shape[0]
    ident = ar.identity(field, n)
    span = ar.row_space(field, np.stack(
        [ident.reshape(n * n, field.k)]
        + [m.reshape(n * n, field.k) for m in mats]))
    while True:
        # close under multiplication by the generators on either side
        rows = [span]
        cur = span.reshape(-1, n, n, field.k)
        for m in mats:
            left = ar.fmatmul(field, m, cur.transpose(1, 0, 2, 3).reshape(
                n, -1, field.k)).reshape(n, -1, n, field.k)
            rows += [left.transpose(1, 0, 2, 3).reshape(-1, n * n, field.k),
                     ar.fmatmul(field, cur.reshape(-1, n, field.k), m)
                     .reshape(-1, n * n, field.k)]
        new = ar.row_space(field, np.concatenate(rows, axis=0))
        if new.shape[0] == span.shape[0]:
            return span.shape[0]
        span = new


def central_idempotents_by_lift(A: SCAlgebra) -> list:
    """The primitive central idempotents by the earlier route: the center Z,
    its nilradical N (the kernel of the p^m-power map), the Frobenius-fixed
    subalgebra of Z/N, its split idempotents, each lifted back into Z by a
    preimage raised to p-th powers until idempotent."""
    if A.dim == 0:
        return []
    f = A.field
    ZA, zbasis = fdalg.subalgebra_on(A, fdalg.center(A))
    # nilradical of Z: kernel of x -> x^(p^m), F_p-linear, p^m >= dim Z
    m = 0
    while f.p ** m < max(ZA.dim, 2):
        m += 1
    R = fdalg._restrict_scalars(ZA)
    M = np.stack([R.power(R.basis_vector(i), f.p ** m)
                  for i in range(R.dim)]).transpose(1, 0, 2)
    ker = ar.nullspace(R.field, M)
    N = Subspace(f, ZA.dim, ker.reshape(-1, ZA.dim, f.k) if ker.shape[0]
                 else ar.zeros(f, (0, ZA.dim)))
    B, proj = fdalg.quotient_algebra(ZA, N)
    # fixed points of the q-power Frobenius on Z/N
    M = np.stack([(B.power(B.basis_vector(i), f.order) - B.basis_vector(i))
                  % f.p for i in range(B.dim)]).transpose(1, 0, 2)
    EA, ebasis = fdalg.subalgebra_on(
        B, Subspace(f, B.dim, ar.nullspace(f, M)))
    idems = []
    for e in fdalg._primitive_idempotents_split_commutative(EA):
        eb = ar.fmatmul(f, e[None], ebasis)[0]
        lift = ar.solve(f, proj.transpose(1, 0, 2), eb)
        if lift is None:
            raise ConsistencyCheckFailed(
                "idempotent of the quotient has no preimage in the center")
        for _ in range(2 * (ZA.dim + 2)):
            if not np.any((ZA.multiply(lift, lift) - lift) % f.p):
                break
            lift = ZA.power(lift, f.p)
        else:
            raise ConsistencyCheckFailed("idempotent lifting did not converge")
        idems.append(ar.fmatmul(f, lift[None], zbasis)[0])
    idems.sort(key=lambda v: v.reshape(-1).tolist())
    return idems


def scalar_coeff(A: SCAlgebra, v: np.ndarray):
    """The (k,) coefficient c with v = c 1, read at the first nonzero
    coordinate of the unit, or None; 0 in the zero algebra."""
    f = A.field
    if A.dim == 0:
        return ar.zeros(f, ())
    i = int(np.flatnonzero(np.any(A.unit, axis=1))[0])
    c = ar.fmul(f, v[i][None, :], ar.scalar_inv(f, A.unit[i])[None, :])[0]
    if np.any((v - ar.fmul(f, c[None, None, :], A.unit[None, :, :])[0])
              % f.p):
        return None
    return c


def sl2_central_elements_by_products(F):
    """(x, y, z, t_vec, t_op) of an sl2 fiber by the earlier route: vector
    powers e^p, f^p, h^p, products h h and e f, the left multiplication
    matrix of t, and t checked central by operator commutators with the
    left multiplications of e, f and h."""
    f, p, A = F.field, F.L.p, F.alg
    evec, fvec, hvec = (A.basis_vector(F.index[a])
                        for a in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def as_scalar(v):
        c = scalar_coeff(A, v)
        if c is None:
            raise RelationCheckFailed("expected a scalar multiple of the unit")
        return Scalar(f, tuple(int(ci) for ci in c))

    x = as_scalar(A.power(evec, p))
    y = as_scalar(A.power(fvec, p))
    z = as_scalar((A.power(hvec, p) - hvec) % p)
    t_vec = (A.multiply(hvec, hvec) + 2 * hvec + A.unit
             - 4 * A.multiply(evec, fvec)) % p
    t_op = A.left_mult_matrix(t_vec)
    for g in (evec, fvec, hvec):
        Lg = A.left_mult_matrix(g)
        if np.any((ar.fmatmul(f, t_op, Lg) - ar.fmatmul(f, Lg, t_op)) % p):
            raise RelationCheckFailed("t is not central")
    return x, y, z, t_vec, t_op


def sl2_eq4_by_products(F) -> bool:
    """Whether T^p - 2 T^((p+1)/2) + T - (z^2 - 4xy) vanishes for the
    operator T = L_t of `sl2_central_elements_by_products`, by binary
    powers of T."""
    x, y, z, _, T = sl2_central_elements_by_products(F)
    f, p = F.field, F.L.p
    c = z * z - f.scalar(4) * x * y
    matmul = functools.partial(ar.fmatmul, f)
    M = (ar.binary_power(T, p, matmul)
         - 2 * ar.binary_power(T, (p + 1) // 2, matmul) + T) % p
    ix = np.arange(T.shape[0])
    M[ix, ix] = (M[ix, ix] - np.array(c.coeffs, dtype=np.int64)) % p
    return not np.any(M)


def frobenius_form_by_rows(CA, lam) -> np.ndarray:
    """The matrix of s(x, y) = E(x y) by the earlier route: E(b_m) tested
    one row at a time, then contracted with all of mul."""
    f, nA = CA.field, CA.alg.dim
    _, I, A, U, coef = CA.coaction
    E = ar.sparse_times_dense(f, nA * nA, I * nA + A, U, coef,
                              lam.functional).reshape(nA, nA, f.k)
    evec = ar.zeros(f, (nA,))
    for m in range(nA):
        c = scalar_coeff(CA.alg, E[m])
        if c is None:
            raise ValueNotInvariant(
                f"E(b_{m}) is not a scalar multiple of the unit")
        evec[m] = c
    return ar.fmatmul(f, CA.alg.mul.reshape(nA * nA, nA, f.k),
                      evec[:, None, :]).reshape(nA, nA, f.k)


def balanced_relations_loop(CA, B):
    """The relation rows x b (x) y - x (x) b y of A (x)_B A, built one
    (t, i, j) at a time with two products each."""
    f, nA = CA.field, CA.alg.dim
    rels = []
    for t in range(B.dim):
        bvec = B.basis[t]
        for i in range(nA):
            xb = CA.alg.multiply(CA.alg.basis_vector(i), bvec)
            for j in range(nA):
                by = CA.alg.multiply(bvec, CA.alg.basis_vector(j))
                v = ar.zeros(f, (nA, nA))
                v[:, j] = xb
                v[i] = (v[i] - by) % f.p
                rels.append(v.reshape(nA * nA, f.k))
    return ar.row_space(f, np.stack(rels))


def galois_check_loop(CA) -> bool:
    """Whether A (x)_B A -> A (x) H is bijective, B the coinvariants, with
    the quotient A (x)_B A cut out by the relations of
    balanced_relations_loop: can must kill them, and the quotient must have
    dimension nA nH and can rank nA nH."""
    f = CA.field
    nA, nH = CA.alg.dim, CA.hopf.dim
    M = galois._canonical_map_matrix(CA)
    R = balanced_relations_loop(CA, galois.coinvariants(CA))
    if np.any(ar.fmatmul(f, R, M) % f.p):
        return False
    return nA * nA - R.shape[0] == nA * nH and ar.rank(f, M) == nA * nH
