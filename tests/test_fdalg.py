"""Structure-constant algebra tests: verification, center, radical, blocks,
simple-module dimensions, with independently computed expected values."""

import itertools
import math
import random
import time

import numpy as np
import pytest

from hopfgal import Field, Poly
from hopfgal import fdalg, resliealg
from hopfgal import _arrays as ar
from hopfgal.errors import (
    ConsistencyCheckFailed,
    DimCapExceeded,
    HopfgalError,
    RadicalChainFailed,
    ShapeMismatch,
    SplittingCapExceeded,
)
from hopfgal.exactfield import P_MAX
from hopfgal.speclab import borel_algebra, sl2_algebra
from oracles import (
    central_idempotents_by_lift,
    is_ideal,
    separability_idempotent_exists,
)


def matrix_algebra(field, n):
    """M_n(F) on the elementary-matrix basis E_{ab}, index a*n+b."""
    d = n * n
    mul = np.zeros((d, d, d, field.k), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    if b == c:
                        mul[a * n + b, c * n + e, a * n + e, 0] = 1
    unit = np.zeros((d, field.k), dtype=np.int64)
    for a in range(n):
        unit[a * n + a, 0] = 1
    return fdalg.SCAlgebra(field, mul, unit)


def cyclic_group_algebra(field, m):
    """F[Z/m] on the basis g^0 .. g^(m-1)."""
    mul = np.zeros((m, m, m, field.k), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            mul[i, j, (i + j) % m, 0] = 1
    unit = np.zeros((m, field.k), dtype=np.int64)
    unit[0, 0] = 1
    return fdalg.SCAlgebra(field, mul, unit)


def dual_numbers(field):
    """F[t]/(t^2) on the basis 1, t."""
    mul = np.zeros((2, 2, 2, field.k), dtype=np.int64)
    mul[0, 0, 0, 0] = 1
    mul[0, 1, 1, 0] = 1
    mul[1, 0, 1, 0] = 1
    unit = np.zeros((2, field.k), dtype=np.int64)
    unit[0, 0] = 1
    return fdalg.SCAlgebra(field, mul, unit)


def upper_triangular_2(field):
    """2x2 upper triangular matrices, basis E11, E12, E22."""
    d = 3
    mul = np.zeros((d, d, d, field.k), dtype=np.int64)
    # E11*E11=E11, E11*E12=E12, E12*E22=E12, E22*E22=E22
    mul[0, 0, 0, 0] = 1
    mul[0, 1, 1, 0] = 1
    mul[1, 2, 1, 0] = 1
    mul[2, 2, 2, 0] = 1
    unit = np.zeros((d, field.k), dtype=np.int64)
    unit[0, 0] = 1
    unit[2, 0] = 1
    return fdalg.SCAlgebra(field, mul, unit)


def test_algebra_verify_accepts_good():
    f = Field(3)
    for A in (matrix_algebra(f, 2), cyclic_group_algebra(f, 4),
              dual_numbers(f), upper_triangular_2(f)):
        assert fdalg.algebra_verify(A) == []


def test_algebra_verify_flags_broken_unit_and_associativity():
    f = Field(5)
    A = cyclic_group_algebra(f, 3)
    bad_unit = fdalg.SCAlgebra(f, A.mul, A.basis_vector(1))
    assert any("unit" in msg for msg in fdalg.algebra_verify(bad_unit))
    mul = A.mul.copy()
    mul[1, 1, 0, 0] = 3  # g*g picks up a junk term
    broken = fdalg.SCAlgebra(f, mul, A.unit)
    assert any("associativity" in msg for msg in fdalg.algebra_verify(broken))


def algebra_verify_loop(A, max_reports=20):
    """Reference for algebra_verify: the unit axioms, then associativity on
    every row i, each failing i reported with its first failing (j, k')."""
    f, n = A.field, A.dim
    eye = ar.identity(f, n)
    out = []
    if np.any((A.left_mult_matrix(A.unit) - eye) % f.p):
        out.append("unit: left multiplication by the unit is not the identity")
    if np.any((A.right_mult_matrix(A.unit) - eye) % f.p):
        out.append("unit: right multiplication by the unit is not the identity")
    mulflat = A.mul.reshape(n, n * n, f.k)
    for i in range(n):
        lhs = ar.fmatmul(f, A.mul[i], mulflat).reshape(n, n, n, f.k)
        rhs = ar.fmatmul(f, A.mul.reshape(n * n, n, f.k),
                         A.mul[i]).reshape(n, n, n, f.k)
        bad = np.argwhere(np.any((lhs - rhs) % f.p, axis=3)).tolist()
        out += [f"associativity violated at triple ({i},{j},{kk})"
                for j, kk, _ in bad[:1]]
        if len(out) >= max_reports:
            return out + ["... further violations suppressed"]
    return out


def _u_sl2_algebra(field):
    """u(sl2) at p = 3 read back from JSON: no generators carried."""
    return fdalg.SCAlgebra.from_json(
        resliealg.u_restricted(sl2_algebra(3), field)[0].alg.to_json())


def _with_entry(A, cell):
    """A with one structure constant moved by 1."""
    mul = A.mul.copy()
    mul[cell] = (mul[cell] + 1) % A.field.p
    return fdalg.SCAlgebra(A.field, mul, A.unit)


def _non_associative(f, n, seed):
    """Random structure constants with b_0 a two-sided unit."""
    rng = np.random.default_rng(seed)
    mul = rng.integers(0, f.p, (n, n, n, f.k))
    mul[0], mul[:, 0] = ar.identity(f, n), ar.identity(f, n)
    return fdalg.SCAlgebra(f, mul, ar.identity(f, n)[0])


@pytest.mark.parametrize("case", ["intact", "intact F_9", "non-associative",
                                  "broken unit", "generator row",
                                  "other row"])
def test_algebra_verify_on_spanning_rows_matches_the_full_loop(monkeypatch,
                                                               case):
    """The rows of the generating set decide associativity: on an intact
    algebra only they are checked and they are kept; on a broken one the
    reports are those of the check of every row."""
    f = Field(3, 2) if case == "intact F_9" else Field(3)
    A = _u_sl2_algebra(f)
    gens = fdalg.generating_set(A)
    assert gens == (1, 3, 9)
    if case == "non-associative":
        A = _non_associative(f, 5, 11)
    elif case == "broken unit":
        A = fdalg.SCAlgebra(f, A.mul, A.basis_vector(1))
    elif case == "generator row":
        A = _with_entry(A, (3, 4, 7, 0))
    elif case == "other row":
        A = _with_entry(A, (13, 5, 7, 0))
    rows = []
    first = fdalg._first_associator
    monkeypatch.setattr(fdalg, "_first_associator",
                        lambda A, i: rows.append(i) or first(A, i))
    for cap in (3, 20, 10 ** 6):
        want = algebra_verify_loop(A, cap)
        rows.clear()
        assert fdalg.algebra_verify(A, cap) == want, cap
    if case.startswith("intact"):
        assert want == [] and rows == list(gens) and A.generators == gens
    else:
        assert want and A.generators is None


def test_multiply_and_power():
    f = Field(7)
    A = cyclic_group_algebra(f, 5)
    g = A.basis_vector(1)
    g3 = A.power(g, 3)
    assert np.array_equal(g3, A.basis_vector(3))
    assert np.array_equal(A.power(g, 5), A.unit)
    assert np.array_equal(A.multiply(g3, g), A.basis_vector(4))


def test_center_of_matrix_algebra_is_scalars():
    f = Field(3)
    A = matrix_algebra(f, 2)
    Z = fdalg.center(A)
    assert Z.dim == 1
    assert Z.contains(A.unit)


def test_center_of_commutative_algebra_is_everything():
    f = Field(5)
    A = cyclic_group_algebra(f, 6)
    assert fdalg.center(A).dim == 6


def test_center_of_upper_triangular():
    f = Field(3)
    A = upper_triangular_2(f)
    assert fdalg.center(A).dim == 1


def test_center_is_computed_once_per_algebra(monkeypatch):
    A = upper_triangular_2(Field(3))
    solves = []
    nullspace = ar.nullspace
    monkeypatch.setattr(
        ar, "nullspace", lambda f, M: solves.append(1) or nullspace(f, M))
    Z = fdalg.center(A)
    count = len(solves)
    assert count > 0 and fdalg.center(A) is Z and len(solves) == count
    # an algebra built from the same arrays has its own center
    B = fdalg.SCAlgebra(A.field, A.mul, A.unit)
    assert fdalg.center(B) is not Z and len(solves) > count


def center_reference(A):
    """RREF basis of the x with sum_j x_j (mul[j,i,m] - mul[i,j,m]) = 0 for
    every basis element i and every m, as one stacked system."""
    f, n = A.field, A.dim
    K = (A.mul.transpose(1, 0, 2, 3) - A.mul) % f.p  # K[i, j, m], rows j
    return ar.nullspace(f, K.transpose(0, 2, 1, 3).reshape(n * n, n, f.k))


def _center_case(case):
    f = Field(3, 2) if "F_9" in case else Field(3)
    if case.startswith("fiber"):
        lam = {"fiber regular": [1, 2, 0], "fiber cone F_9": [[1, 0], 0, 0],
               "fiber zero": [0, 0, 0], "fiber p=5": [1, 2, 3]}[case]
        p = 5 if case == "fiber p=5" else 3
        f = Field(p, f.k)
        return resliealg.Fiber(sl2_algebra(p),
                               resliealg.FiberPoint.make(f, lam)).alg
    if case.startswith("u(L)"):
        return resliealg.u_restricted(sl2_algebra(3), f)[0].alg
    if case.startswith("json"):
        A = _u_sl2_algebra(f)
        if case.startswith("json verified"):
            assert fdalg.algebra_verify(A) == []
        return A
    A = upper_triangular_2(f) if case == "no generators" else matrix_algebra(
        f, 2)
    if case == "matrix verified":
        assert fdalg.algebra_verify(A) == []
    return A


@pytest.mark.parametrize("case", [
    "fiber regular", "fiber cone F_9", "fiber zero", "fiber p=5", "u(L)",
    "u(L) F_9", "json", "json verified", "json verified F_9",
    "no generators", "matrix verified"])
def test_center_on_generators_matches_every_row(case):
    """With generators, center imposes [x, b_g] = 0 for them only; the
    result is the center imposed on every row, with generators or without."""
    A = _center_case(case)
    has_gens = not case.startswith(("json", "no")) or "verified" in case
    assert (A.generators is not None) == has_gens
    every_row = fdalg.SCAlgebra(A.field, A.mul, A.unit, check=False)
    Z = fdalg.center(A).basis
    assert np.array_equal(Z, fdalg.center(every_row).basis)
    assert np.array_equal(Z, center_reference(A))


def test_center_imposes_the_generators_only():
    """center takes A.generators at their word: on M_2 with the false claim
    that E11 generates it, the result is the centralizer of E11, the
    diagonal span(E11, E22), not the scalars."""
    A = matrix_algebra(Field(3), 2)
    B = fdalg.SCAlgebra(A.field, A.mul, A.unit, generators=[0])
    diagonal = ar.zeros(A.field, (2, 4))
    diagonal[0, 0, 0] = diagonal[1, 3, 0] = 1
    assert np.array_equal(fdalg.center(B).basis, diagonal)
    assert fdalg.center(A).dim == 1


def check_radical_certificate(A, rad):
    """Independent certification: rad is a nilpotent two-sided ideal and the
    quotient admits a separability idempotent."""
    assert is_ideal(A, rad)
    assert fdalg._is_nilpotent_subspace(A, rad.basis)
    Q, _ = fdalg.quotient_algebra(A, rad)
    assert separability_idempotent_exists(Q)


def test_radical_matrix_algebra_zero():
    f = Field(3)
    A = matrix_algebra(f, 2)
    rad = fdalg.radical(A)
    assert rad.dim == 0
    check_radical_certificate(A, rad)


def test_radical_dual_numbers():
    for p in (2, 3, 5):
        f = Field(p)
        A = dual_numbers(f)
        rad = fdalg.radical(A)
        assert rad.dim == 1
        assert rad.contains(A.basis_vector(1))
        check_radical_certificate(A, rad)


def test_radical_group_algebra_order_divisible_by_p():
    # F_3[Z/3] = F_3[t]/((t-1)^3): radical has dimension 2
    f = Field(3)
    A = cyclic_group_algebra(f, 3)
    rad = fdalg.radical(A)
    assert rad.dim == 2
    check_radical_certificate(A, rad)
    g = A.basis_vector(1)
    assert rad.contains((g - A.unit) % 3)


def test_radical_group_algebra_coprime_order_is_zero():
    f = Field(3)
    A = cyclic_group_algebra(f, 4)
    rad = fdalg.radical(A)
    assert rad.dim == 0
    check_radical_certificate(A, rad)


def test_radical_upper_triangular():
    f = Field(2)
    A = upper_triangular_2(f)
    rad = fdalg.radical(A)
    assert rad.dim == 1
    assert rad.contains(A.basis_vector(1))
    check_radical_certificate(A, rad)


def test_radical_over_extension_field():
    f = Field(3, 2)
    A = cyclic_group_algebra(f, 3)
    rad = fdalg.radical(A)
    assert rad.dim == 2
    check_radical_certificate(A, rad)


@pytest.mark.parametrize("p", [65537, P_MAX])
def test_radical_dual_numbers_at_large_primes(p):
    # tiny products take the int64 matmul
    A = dual_numbers(Field(p))
    rad = fdalg.radical(A)
    assert rad.dim == 1
    assert rad.contains(A.basis_vector(1))
    check_radical_certificate(A, rad)


@pytest.mark.parametrize("p, float_path", [(65537, True), (P_MAX, False)])
def test_radical_on_both_matmul_paths(p, float_path):
    # F_p^128 x F_p[t]/(t^2) with p > n = 130: the trace chain has only its
    # linear level 0, so no trace lift is multiplied.  The two _imatmul
    # branches are reached by the products of the radical's nilpotency
    # check, of inner dimension 130, where 130 (p - 1)^2 < 2^52 holds at
    # 65537 (float64) and fails at P_MAX (int64)
    n = 130
    assert (n * (p - 1) ** 2 < 2 ** 52) == float_path
    f = Field(p)
    mul = np.zeros((n, n, n, 1), dtype=np.int64)
    idx = np.arange(n - 2)
    mul[idx, idx, idx, 0] = 1
    u, t = n - 2, n - 1
    mul[u, u, u, 0] = mul[u, t, t, 0] = mul[t, u, t, 0] = 1
    unit = np.zeros((n, 1), dtype=np.int64)
    unit[:u + 1, 0] = 1
    A = fdalg.SCAlgebra(f, mul, unit)
    rad = fdalg.radical(A)
    assert rad.dim == 1
    assert rad.contains(A.basis_vector(t))


def test_radical_deep_trace_chain():
    # F_2[Z/8]: 2^3 <= 8 runs the chain to level 3, mod 2^4 = 16; the radical
    # is the augmentation ideal
    f = Field(2)
    A = cyclic_group_algebra(f, 8)
    rad = fdalg.radical(A)
    assert rad.dim == 7
    assert rad.contains((A.basis_vector(1) - A.unit) % 2)
    check_radical_certificate(A, rad)


def test_radical_chain_failure_is_a_typed_error(monkeypatch):
    A = dual_numbers(Field(3))
    monkeypatch.setattr(fdalg, "_is_nilpotent_subspace", lambda A, basis: False)
    with pytest.raises(RadicalChainFailed):
        fdalg.radical(A)
    assert issubclass(RadicalChainFailed, HopfgalError)


def test_product_space_matches_pairwise_products():
    # the batched span of all u v equals the span of the d^2 pair products
    rng = np.random.default_rng(11)
    for A in (upper_triangular_2(Field(5)), matrix_algebra(Field(3, 2), 2),
              cyclic_group_algebra(Field(2), 8)):
        f, n = A.field, A.dim
        for du, dv in ((1, 1), (2, 3), (n, n)):
            U = rng.integers(0, f.p, (du, n, f.k))
            V = rng.integers(0, f.p, (dv, n, f.k))
            pairwise = np.stack([A.multiply(u, v) for u in U for v in V])
            assert np.array_equal(fdalg._product_space(A, U, V),
                                  ar.row_space(f, pairwise))
        assert fdalg._product_space(A, U[:0], V).shape == (0, n, f.k)


def test_subalgebra_and_quotient_tables_match_pairwise_products():
    for A in (upper_triangular_2(Field(5)), matrix_algebra(Field(3, 2), 2),
              cyclic_group_algebra(Field(2), 8),
              cyclic_group_algebra(Field(3), 4)):
        f, n = A.field, A.dim
        # on the center and on each block ideal:
        # basis_i basis_j = sum_m mul[i, j, m] basis_m
        subs = [fdalg.subalgebra_on(A, fdalg.center(A))]
        subs += [(B, basis) for B, basis, _ in fdalg.block_ideals(A)]
        for B, basis in subs:
            for i in range(B.dim):
                for j in range(B.dim):
                    assert np.array_equal(
                        ar.fmatmul(f, B.mul[i, j][None], basis)[0],
                        A.multiply(basis[i], basis[j]))
        # quotients by the radical and by each proper block ideal:
        # proj(b_a) proj(b_b) = proj(b_a b_b) on all basis pairs
        ideals = [fdalg.radical(A)] + [
            fdalg.Subspace(f, n, A.left_mult_matrix(e))
            for e in fdalg.central_idempotents(A)]
        for ideal in ideals:
            if ideal.dim == n:
                continue
            Q, proj = fdalg.quotient_algebra(A, ideal)
            image = [ar.fmatmul(f, A.basis_vector(a)[None], proj)[0]
                     for a in range(n)]
            for a in range(n):
                for b in range(n):
                    prod = A.multiply(A.basis_vector(a), A.basis_vector(b))
                    assert np.array_equal(
                        Q.multiply(image[a], image[b]),
                        ar.fmatmul(f, prod[None], proj)[0])


def test_block_dimension_mismatch_is_a_typed_error(monkeypatch):
    A = matrix_algebra(Field(3), 2)
    monkeypatch.setattr(fdalg, "central_idempotents", lambda A: [])
    with pytest.raises(ConsistencyCheckFailed):
        fdalg.block_decompose(A)
    assert issubclass(ConsistencyCheckFailed, HopfgalError)


def test_scalgebra_keeps_reduced_input_and_reduces_the_rest():
    f = Field(5)
    A = cyclic_group_algebra(f, 3)
    B = fdalg.SCAlgebra(f, A.mul, A.unit)
    assert np.shares_memory(B.mul, A.mul) and np.shares_memory(B.unit, A.unit)
    C = fdalg.SCAlgebra(f, A.mul + 5, A.unit - 5)
    assert np.array_equal(C.mul, A.mul) and np.array_equal(C.unit, A.unit)


def test_quotient_algebra_of_dual_numbers():
    f = Field(5)
    A = dual_numbers(f)
    rad = fdalg.radical(A)
    Q, proj = fdalg.quotient_algebra(A, rad)
    assert Q.dim == 1
    assert fdalg.algebra_verify(Q) == []


def test_quotient_is_algebra_map():
    f = Field(3)
    A = cyclic_group_algebra(f, 9)
    rad = fdalg.radical(A)
    assert rad.dim == 8
    Q, proj = fdalg.quotient_algebra(A, rad)
    assert fdalg.algebra_verify(Q) == []
    rng = random.Random(11)
    for _ in range(20):
        x = np.array([[rng.randrange(3)] for _ in range(9)], dtype=np.int64)
        y = np.array([[rng.randrange(3)] for _ in range(9)], dtype=np.int64)
        lhs = ar.fmatmul(f, A.multiply(x, y)[None], proj)[0]
        rhs = Q.multiply(ar.fmatmul(f, x[None], proj)[0],
                         ar.fmatmul(f, y[None], proj)[0])
        assert np.array_equal(lhs % 3, rhs % 3)


def test_blocks_matrix_algebra():
    f = Field(3)
    rep = fdalg.block_decompose(matrix_algebra(f, 2))
    assert rep.center_dim == 1
    assert rep.blocks == [4]


def test_blocks_split_group_algebra():
    # F_5[Z/4]: four one-dimensional blocks
    f = Field(5)
    rep = fdalg.block_decompose(cyclic_group_algebra(f, 4))
    assert rep.blocks == [1, 1, 1, 1]


def test_blocks_with_nonsplit_semisimple_part():
    # F_3[Z/4] = F_3 x F_3 x F_9: three blocks of dimensions 1, 1, 2
    f = Field(3)
    rep = fdalg.block_decompose(cyclic_group_algebra(f, 4))
    assert sorted(rep.blocks) == [1, 1, 2]


def test_blocks_local_algebra():
    f = Field(3)
    rep = fdalg.block_decompose(cyclic_group_algebra(f, 3))
    assert rep.blocks == [3]


def test_blocks_mixed():
    # F_3[Z/6] = F_3[Z/3] x F_3[Z/3] as Z/6 = Z/3 x Z/2
    f = Field(3)
    rep = fdalg.block_decompose(cyclic_group_algebra(f, 6))
    assert sorted(rep.blocks) == [3, 3]


def test_block_count_matches_polynomial_factorization():
    # F_p[t]/(f) has one block per irreducible power factor of f
    rng = random.Random(5)
    for trial in range(15):
        p = rng.choice([2, 3, 5])
        f = Field(p)
        deg = rng.randrange(2, 7)
        coeffs = [f.scalar(rng.randrange(p)) for _ in range(deg)] + [f.one]
        poly = Poly(f, coeffs)
        if poly.coeffs[0] == f.scalar(0) and all(
                c == f.scalar(0) for c in poly.coeffs[:-1]):
            continue
        mul = np.zeros((deg, deg, deg, 1), dtype=np.int64)
        red = np.zeros((2 * deg - 1, deg), dtype=np.int64)
        for i in range(deg):
            red[i, i] = 1
        for i in range(deg, 2 * deg - 1):
            # t^i = t^(i-deg) * (t^deg reduced)
            top = [(-poly.coeffs[j].coeffs[0]) % p for j in range(deg)]
            row = np.zeros(deg, dtype=np.int64)
            for j, c in enumerate(top):
                row = (row + c * red[i - deg + j]) % p
            red[i] = row
        for i in range(deg):
            for j in range(deg):
                mul[i, j, :, 0] = red[i + j]
        unit = np.zeros((deg, 1), dtype=np.int64)
        unit[0, 0] = 1
        A = fdalg.SCAlgebra(f, mul, unit)
        assert fdalg.algebra_verify(A) == []
        expected_blocks = len(poly.factor())
        rep = fdalg.block_decompose(A)
        assert len(rep.blocks) == expected_blocks, (p, [int(c.coeffs[0]) for c in poly.coeffs])


def idempotent_route_algebras():
    """(name, algebra) pairs on which the primitive central idempotents
    are compared with the earlier route: sl2 fibers over F_3, F_9 and F_5
    (with the radical quotients of the p = 5 cone and zero fibers), Borel
    fibers over F_3, and cyclic group algebras, two of them at large p."""
    f3, f9, f5 = Field(3), Field(3, 2), Field(5)
    sl2, borel = sl2_algebra(3), borel_algebra(3)

    def fiber(L, field, pt):
        return resliealg.Fiber(L, resliealg.FiberPoint.make(field, pt)).alg

    for pt in itertools.product(range(3), repeat=3):
        yield f"sl2 F_3 {pt}", fiber(sl2, f3, pt)
    # one point per stratum and splitting degree over F_9
    for pt in ([[0, 0], [0, 0], [0, 1]], [[1, 2], [0, 2], [0, 0]],
               [[0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, 0]],
               [[0, 0], [0, 0], [0, 0]]):
        yield f"sl2 F_9 {pt}", fiber(sl2, f9, pt)
    for pt in ((0, 0, 1), (1, 2, 3), (1, 0, 0), (0, 0, 0)):
        A = fiber(sl2_algebra(5), f5, pt)
        yield f"sl2 F_5 {pt}", A
        if pt in ((1, 0, 0), (0, 0, 0)):
            yield (f"sl2 F_5 {pt} / J",
                   fdalg.quotient_algebra(A, fdalg.radical(A))[0])
    for pt in itertools.product(range(3), repeat=2):
        yield f"Borel F_3 {pt}", fiber(borel, f3, pt)
    for field, m in ((f3, 12), (Field(2), 14), (f3, 9), (Field(2), 8),
                     (f9, 8), (f5, 10), (Field(2), 15), (f3, 13)):
        yield f"{field}[Z/{m}]", cyclic_group_algebra(field, m)
    for p, m in itertools.product((65537, P_MAX), (4, 6)):
        yield f"F_{p}[Z/{m}]", cyclic_group_algebra(Field(p), m)


def test_central_idempotents_match_the_lifted_route():
    # the primitive central idempotents are unique, so the Frobenius-fixed
    # subalgebra of the center and the earlier nilradical-quotient-lift
    # route must give the same reduced vectors in the same order
    for name, A in idempotent_route_algebras():
        got = fdalg.central_idempotents(A)
        want = central_idempotents_by_lift(A)
        assert len(got) == len(want), name
        for e, w in zip(got, want):
            assert e.dtype == w.dtype and np.array_equal(e, w), name


def multiplicative_order(p, d):
    return next(r for r in range(1, d + 1) if pow(p, r, d) == 1 % d)


@pytest.mark.parametrize("p", [65537, P_MAX])
@pytest.mark.parametrize("m", [4, 6])
def test_central_idempotents_at_large_p(p, m):
    # F_p[Z/m] with p prime to m is the product of the fields F_p[t]/(g),
    # g running over the irreducible factors of t^m - 1: phi(d) / ord_d(p)
    # of them for each d | m
    f = Field(p)
    A = cyclic_group_algebra(f, m)
    idems = fdalg.central_idempotents(A)
    assert len(idems) == sum(
        sum(math.gcd(a, d) == 1 for a in range(d)) // multiplicative_order(p, d)
        for d in range(1, m + 1) if m % d == 0)
    basis = ar.identity(f, m)
    for i, e in enumerate(idems):
        assert np.array_equal(A.multiply(e, e), e)
        for b in basis:
            assert np.array_equal(A.multiply(e, b), A.multiply(b, e))
        for other in idems[i + 1:]:
            assert not A.multiply(e, other).any()
    assert np.array_equal(np.sum(idems, axis=0) % p, A.unit)


def test_simples_matrix_algebra():
    f = Field(3)
    rep = fdalg.simples(matrix_algebra(f, 2))
    assert rep.simple_dims == [2]
    assert rep.splitting_degree == 1
    assert rep.semisimple


def test_simples_nonsplit_needs_extension():
    # F_3[Z/4]: simples are 1,1 over F_3 plus a 2-dim one that splits over F_9
    f = Field(3)
    rep = fdalg.simples(cyclic_group_algebra(f, 4))
    assert rep.simple_dims == [1, 1, 1, 1]
    assert rep.splitting_degree == 2
    assert rep.radical_dim == 0


def test_simples_modular_group_algebra():
    f = Field(3)
    rep = fdalg.simples(cyclic_group_algebra(f, 3))
    assert rep.simple_dims == [1]
    assert rep.radical_dim == 2
    assert not rep.semisimple


def test_simples_splitting_cap():
    f = Field(3)
    with pytest.raises(SplittingCapExceeded):
        # F_3[t]/(t^13 - t - 1): the modulus is irreducible, residue field
        # F_3^13 exceeds the splitting search cap
        poly = Poly(f, [f.scalar(-1), f.scalar(-1)] +
                    [f.scalar(0)] * 11 + [f.one])
        assert poly.is_irreducible()
        deg = 13
        mul = np.zeros((deg, deg, deg, 1), dtype=np.int64)
        tv = [f.scalar(0)] * deg
        for i in range(deg):
            for j in range(deg):
                r = Poly(f, [f.scalar(0)] * (i + j) + [f.one]) % poly
                for m, c in enumerate(r.coeffs):
                    mul[i, j, m, 0] = c.coeffs[0]
        unit = np.zeros((deg, 1), dtype=np.int64)
        unit[0, 0] = 1
        A = fdalg.SCAlgebra(f, mul, unit)
        fdalg.simples(A)


def test_extend_scalars_preserves_structure():
    f = Field(3)
    big = Field(3, 2)
    A = matrix_algebra(f, 2)
    B = fdalg.extend_scalars(A, big)
    assert B.field == big
    assert fdalg.algebra_verify(B) == []
    assert fdalg.center(B).dim == 1


def test_separability_idempotent_oracle_direct():
    f = Field(3)
    assert separability_idempotent_exists(matrix_algebra(f, 2))
    assert separability_idempotent_exists(cyclic_group_algebra(f, 2))
    assert not separability_idempotent_exists(dual_numbers(f))
    assert not separability_idempotent_exists(
        cyclic_group_algebra(f, 3))


def test_separability_system_matches_the_loop_reference(monkeypatch):
    """The system separability_idempotent_exists solves, against one built
    per basis element x = b_i with Python loops over the slots (c, d)."""
    systems, solve = [], ar.solve
    monkeypatch.setattr(ar, "solve",
                        lambda f, M, rhs: systems.append(M) or solve(f, M, rhs))
    rng = np.random.default_rng(41)
    for f in (Field(3), Field(3, 2)):
        for n in (1, 2, 3):
            mul = rng.integers(0, 3, (n, n, n, f.k))
            A = fdalg.SCAlgebra(f, mul, ar.identity(f, n)[0], check=False)
            separability_idempotent_exists(A)
            rows = []
            for i in range(n):
                C = np.zeros((n, n, n, n, f.k), dtype=np.int64)
                for c in range(n):
                    C[c, :, c] -= mul[:, i].transpose(1, 0, 2)
                for d in range(n):
                    C[:, d, :, d] += mul[i].transpose(1, 0, 2)
                rows.append(C.reshape(n * n, n * n, f.k) % 3)
            mu = mul.transpose(2, 0, 1, 3).reshape(n, n * n, f.k)
            assert np.array_equal(systems[-1], np.concatenate(rows + [mu]))


def test_form_rank():
    f = Field(3)
    M = np.zeros((3, 3, 1), dtype=np.int64)
    M[0, 1, 0] = 1
    M[1, 0, 0] = 1
    s = fdalg.BilForm(f, M)
    rank, nondeg = fdalg.form_rank(s)
    assert rank == 2 and not nondeg
    assert fdalg.form_is_symmetric(s)
    M2 = M.copy()
    M2[2, 2, 0] = 2
    M2[0, 2, 0] = 1
    rank2, nondeg2 = fdalg.form_rank(fdalg.BilForm(f, M2))
    assert rank2 == 3 and nondeg2
    assert not fdalg.form_is_symmetric(fdalg.BilForm(f, M2))


def test_serialization_round_trip():
    f = Field(3, 2)
    A = cyclic_group_algebra(f, 3)
    data = A.to_json()
    B = fdalg.SCAlgebra.from_json(data)
    assert B.field == A.field
    assert np.array_equal(B.mul, A.mul)
    assert np.array_equal(B.unit, A.unit)


def test_subalgebra_on_closed_subspace():
    f = Field(3)
    A = matrix_algebra(f, 2)
    # diagonal matrices: E11, E22 (basis indices 0 and 3)
    basis = np.zeros((2, 4, 1), dtype=np.int64)
    basis[0, 0, 0] = 1
    basis[1, 3, 0] = 1
    D, _ = fdalg.subalgebra_on(A, fdalg.Subspace(f, 4, basis))
    assert D.dim == 2
    assert fdalg.algebra_verify(D) == []
    assert fdalg.block_decompose(D).blocks == [1, 1]


def test_subalgebra_rejects_unclosed_subspace():
    f = Field(3)
    A = matrix_algebra(f, 2)
    basis = np.zeros((1, 4, 1), dtype=np.int64)
    basis[0, 1, 0] = 1  # span(E12) misses the unit
    with pytest.raises(ShapeMismatch):
        fdalg.subalgebra_on(A, fdalg.Subspace(f, 4, basis))


def test_random_commutative_radical_properties():
    # quotient by the radical of F_p[t]/(f) must be separable, and the
    # radical dimension matches deg(f) - deg(squarefree part)
    rng = random.Random(7)
    for trial in range(10):
        p = rng.choice([2, 3])
        f = Field(p)
        deg = rng.randrange(2, 6)
        coeffs = [f.scalar(rng.randrange(p)) for _ in range(deg)] + [f.one]
        poly = Poly(f, coeffs)
        mul = np.zeros((deg, deg, deg, 1), dtype=np.int64)
        for i in range(deg):
            for j in range(deg):
                r = Poly(f, [f.scalar(0)] * (i + j) + [f.one]) % poly
                for m, c in enumerate(r.coeffs):
                    mul[i, j, m, 0] = c.coeffs[0]
        unit = np.zeros((deg, 1), dtype=np.int64)
        unit[0, 0] = 1
        A = fdalg.SCAlgebra(f, mul, unit)
        fac = poly.factor()
        sqfree_deg = sum(g.degree for g, _ in fac)
        rad = fdalg.radical(A)
        assert rad.dim == deg - sqfree_deg, (p, trial)
        check_radical_certificate(A, rad)


@pytest.mark.parametrize("field", [Field(3), Field(3, 2)])
def test_zero_algebra_gives_empty_results(field):
    """A / A is the zero algebra: products, multiplication matrices,
    powers and the structure report are empty, not numpy errors."""
    A = dual_numbers(field)
    full = fdalg.Subspace(field, 2, ar.asarray(
        field, np.eye(2, dtype=np.int64)[:, :, None]
        * np.eye(1, field.k, dtype=np.int64)[0]))
    Z, proj = fdalg.quotient_algebra(A, full)
    assert Z.dim == 0 and proj.shape == (2, 0, field.k)
    z = ar.zeros(field, (0,))
    assert Z.multiply(z, z).shape == (0, field.k)
    assert Z.power(z, 5).shape == (0, field.k)
    assert Z.left_mult_matrix(z).shape == (0, 0, field.k)
    assert Z.right_mult_matrix(z).shape == (0, 0, field.k)
    assert fdalg.algebra_verify(Z) == []
    assert fdalg.central_idempotents(Z) == []
    assert fdalg.block_decompose(Z).blocks == []
    rep = fdalg.simples(Z)
    assert (rep.center_dim, rep.radical_dim, rep.semisimple) == (0, 0, True)
    assert (rep.blocks, rep.simple_dims, rep.split_blocks) == ([], [], 0)
    assert rep.splitting_degree == 1


def test_binary_power_square_and_multiply():
    for e in range(1, 70):
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return a * b

        assert ar.binary_power(3, e, mul) == 3 ** e
        # (bit length - 1) squarings and (popcount - 1) multiplications
        assert len(calls) == e.bit_length() + bin(e).count("1") - 2
        got = ar.binary_power(3, e, mul, last=lambda a, b: ("last", a * b))
        assert got == (3 if e == 1 else ("last", 3 ** e))


@pytest.mark.parametrize("e", [1, 2, 3, 5, 9, 25, 27, 49])
def test_stack_trace_power_matches_trace_of_power(e):
    # level i of the trace chain raises to e = p^i mod p^(i+1), with
    # p^i <= n (the level bound); level 0 is e = 1
    p = next((q for q in (2, 3, 5, 7) if e % q == 0), 5)
    mod, n = p * e, max(e, 4)
    rng = np.random.default_rng(e)
    W = rng.integers(0, mod, size=(3, n, n))
    power = W
    for _ in range(e - 1):
        power = power @ W % mod
    assert np.array_equal(fdalg._stack_trace_power(W, e, mod),
                          np.trace(power, axis1=1, axis2=2) % mod)


def test_stack_trace_power_sum_is_exact_at_the_bound():
    # n = DIM_CAP and mod = n^2, every entry mod - 1: the final sum is
    # n^2 (mod - 1)^2 < 2^54, exact in int64
    n = fdalg.DIM_CAP
    mod = n * n
    W = np.full((1, n, n), mod - 1, dtype=np.int64)
    want = n * n * (mod - 1) ** 2 % mod
    assert fdalg._stack_trace_power(W, 2, mod).tolist() == [want]


def int64_stack_trace_power(W, e, mod):
    """Reference for fdalg._stack_trace_power: the whole stack at once, in
    int64 matmuls, with no float BLAS and no blocks."""
    if e == 1:
        return np.trace(W, axis1=1, axis2=2) % mod
    return ar.binary_power(
        W, e, lambda a, b: a @ b % mod,
        last=lambda a, b: np.einsum("tjk,tkj->t", a, b) % mod)


@pytest.mark.parametrize("cells", [1, 2 * 40 * 40, 3 * 40 * 40 - 1,
                                   4 * 40 * 40, 2 ** 20])
def test_stack_trace_power_across_block_edges(monkeypatch, cells):
    # blocks of max(1, cells // n^2) matrices of the 5: sizes 1, 2, 2, 4, 5;
    # each block of (40, 40) matrices is a float32 product in _imatmul
    rng = np.random.default_rng(cells)
    W = rng.integers(0, 27, size=(5, 40, 40))
    monkeypatch.setattr(fdalg, "TRACE_BLOCK_CELLS", cells)
    assert np.array_equal(fdalg._stack_trace_power(W, 9, 27),
                          int64_stack_trace_power(W, 9, 27))


# sl2 at p = 5 on the three strata, the scan representatives over F_9 (dim
# 54 over F_3: float32 products at every level) and a Borel fiber at p = 7
@pytest.mark.parametrize("lie, field, point", [
    (sl2_algebra(5), Field(5), [0, 0, 1]),
    (sl2_algebra(5), Field(5), [1, 0, 0]),
    (sl2_algebra(5), Field(5), [0, 0, 0]),
    (sl2_algebra(3), Field(3, 2), [[0, 0], [0, 0], [0, 1]]),
    (sl2_algebra(3), Field(3, 2), [[1, 2], [0, 2], [0, 0]]),
    (sl2_algebra(3), Field(3, 2), [[0, 0], [0, 0], [1, 0]]),
    (sl2_algebra(3), Field(3, 2), [[1, 0], [0, 0], [0, 0]]),
    (sl2_algebra(3), Field(3, 2), [[0, 0], [0, 0], [0, 0]]),
    (borel_algebra(7), Field(7), [0, 0]),
], ids=["sl2-5-regular", "sl2-5-cone", "sl2-5-zero", "sl2-9-regular-1",
        "sl2-9-regular-2", "sl2-9-regular-3", "sl2-9-cone", "sl2-9-zero",
        "borel-7-zero"])
def test_radical_matches_the_int64_trace_powers(monkeypatch, lie, field,
                                                 point):
    A = resliealg.Fiber(lie, resliealg.FiberPoint.make(field, point)).alg
    rad = fdalg.radical(A)
    monkeypatch.setattr(fdalg, "_stack_trace_power", int64_stack_trace_power)
    assert np.array_equal(rad.basis, fdalg.radical(A).basis)


def _sl2_fiber(p, point):
    return resliealg.Fiber(sl2_algebra(p),
                           resliealg.FiberPoint.make(Field(p), point))


def assert_nilpotent_ideal(A, rad):
    """rad is a nilpotent two-sided ideal, checked with batched products."""
    f, n = A.field, A.dim
    ident = ar.identity(f, n)
    for U, V in ((rad.basis, ident), (ident, rad.basis)):
        prods = fdalg._product_space(A, U, V)
        assert ar.rank(f, np.concatenate([rad.basis, prods])) == rad.dim
    assert fdalg._is_nilpotent_subspace(A, rad.basis)


# regular, cone and zero sl2 points; the radical has dim p^3 minus the sum
# of the squares of the simple dimensions
@pytest.mark.parametrize("p, point, rad_dim", [
    (3, [0, 0, 1], 0), (3, [1, 0, 0], 9), (3, [0, 0, 0], 13),
    (5, [0, 0, 1], 0), (5, [1, 0, 0], 50), (5, [0, 0, 0], 70),
])
def test_radical_full_rank_step_matches_generic_path(monkeypatch, p, point,
                                                     rad_dim):
    A = _sl2_fiber(p, point).alg
    rad = fdalg.radical(A)
    monkeypatch.setattr(fdalg, "_full_rank", lambda space: False)
    generic = fdalg.radical(A)
    assert rad.dim == rad_dim
    assert np.array_equal(rad.basis, generic.basis)
    if p == 3:
        check_radical_certificate(A, rad)
    else:
        # the separability system of a dim-125 quotient has 125^4 cells
        assert_nilpotent_ideal(A, rad)


# ---------------------------------------------------------------------------
# restriction of scalars, ideals, algebra maps, the JSON codec
# ---------------------------------------------------------------------------

def restrict_scalars_loop(A):
    """Reference for fdalg._restrict_scalars: (b_i t^a)(b_j t^b) is
    mul[i, j, m] t^(a+b) b_m, one pair (a, b) at a time."""
    f, n, k = A.field, A.dim, A.field.k
    mul = np.zeros((n * k, n * k, n * k, 1), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            mul[a::k, b::k, :, 0] = ar.fmul(f, A.mul, f._red[a + b]).reshape(
                n, n, n * k)
    return mul


@pytest.mark.parametrize("build", [
    lambda: resliealg.Fiber(sl2_algebra(3), resliealg.FiberPoint.make(
        Field(3, 2), [[0, 1], 0, [1, 2]])).alg,
    lambda: matrix_algebra(Field(5, 2), 2),
    lambda: cyclic_group_algebra(Field(2, 3), 6),
])
def test_restrict_scalars_multiplies_as_the_algebra(build):
    # an (n, k) vector of A is the (n k, 1) vector of the restriction
    A = build()
    f, n = A.field, A.dim
    B = fdalg._restrict_scalars(A)
    assert (B.dim, B.field) == (n * f.k, Field(f.p))
    assert np.array_equal(B.mul, restrict_scalars_loop(A))
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y = rng.integers(0, f.p, size=(2, n, f.k))
        got = B.multiply(x.reshape(n * f.k, 1), y.reshape(n * f.k, 1))
        assert np.array_equal(got, A.multiply(x, y).reshape(n * f.k, 1))
    assert np.array_equal(B.unit, A.unit.reshape(n * f.k, 1))


def test_restriction_past_the_cap_raises_before_allocating():
    # the sl2 p=3 fiber over F_{3^19} has dim 27, so 513 over F_3: the
    # restriction would first build a 27^3 19^3 int64 tensor, about 1 GB
    A = resliealg.Fiber(sl2_algebra(3), resliealg.FiberPoint.make(
        Field(3, 19), [0, 0, 0])).alg
    start = time.perf_counter()
    with pytest.raises(DimCapExceeded):
        fdalg.radical(A)
    assert time.perf_counter() - start < 1.0


def test_is_ideal_rejects_one_sided_ideals():
    f = Field(3)
    A = upper_triangular_2(f)
    assert is_ideal(A, fdalg.radical(A))
    # in M_2 (basis E11, E12, E21, E22) the matrices with zero second
    # column form a left ideal, those with zero second row a right ideal
    M2 = matrix_algebra(f, 2)
    for rows in ([0, 2], [0, 1]):
        sub = fdalg.Subspace(f, 4, ar.identity(f, 4)[rows])
        assert not is_ideal(M2, sub)
    assert is_ideal(M2, fdalg.Subspace(f, 4, ar.identity(f, 4)))


def test_is_algebra_map_over_several_blocks():
    # dim 125: the products are checked in two blocks of rows, 67 and 58
    from hopfgal.hopf import LinMap

    n = 125
    A = _sl2_fiber(5, [0, 0, 0]).alg
    f = A.field
    eye = ar.identity(f, n)
    assert fdalg._is_algebra_map(A, A, LinMap(f, eye))
    assert not fdalg._is_algebra_map(A, A, LinMap(f, 2 * eye % f.p))
    # on F_5^125 (orthogonal idempotents e_i) a unital map that fails only
    # on products among e_122, e_123, e_124, all in the last block
    mul = np.zeros((n, n, n, 1), dtype=np.int64)
    mul[np.arange(n), np.arange(n), np.arange(n)] = 1
    D = fdalg.SCAlgebra(f, mul, np.ones((n, 1), dtype=np.int64))
    M = eye.copy()
    M[124, 123] = 1              # e_124 -> e_124 + e_123
    M[122, 123] = f.p - 1        # e_122 -> e_122 - e_123
    assert not fdalg._is_algebra_map(D, D, LinMap(f, M))


@pytest.mark.parametrize("field", [Field(3), Field(3, 2)])
def test_json_codec_round_trip(field):
    rng = np.random.default_rng(1)
    arr = rng.integers(0, field.p, size=(2, 3, field.k))
    data = fdalg.encode_array(field, arr)
    leaf = data[0][0]
    assert isinstance(leaf, int) if field.k == 1 else leaf == list(arr[0, 0])
    assert np.array_equal(fdalg.decode_array(field, data, (2, 3), "x"), arr)
    assert fdalg.decode_array(field, [], (0,), "x").shape == (0, field.k)


@pytest.mark.parametrize("field, data", [
    (Field(3), {"a": 1}), (Field(3), [1, 2]), (Field(3), [[1, 2], [1]]),
    (Field(3), [[1, 2.5]]), (Field(3), [[1, "2"]]), (Field(3), [[True, False]]),
    (Field(3), [[[1], [2]]]), (Field(3), [[1, None]]), (Field(3), [[2 ** 70, 1]]),
    (Field(3, 2), [[1, 2]]), (Field(3, 2), [[[1, 2], [1, 2, 0]]]),
    (Field(3, 2), [[[1, 2], [1]]]), (Field(3, 2), [[[1, 2], "ab"]]),
])
def test_json_codec_rejects_malformed_data(field, data):
    with pytest.raises(ShapeMismatch):
        fdalg.decode_array(field, data, (1, 2), "x")
