"""Hopf algebra tests: axiom verification, convolution algebra, integrals,
unimodularity flags, group algebras, and the internal dual."""

import itertools
import json
import random
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import Field
from hopfgal import _arrays as ar
from hopfgal import fdalg, hopf
from hopfgal.errors import IntegralNotFound, NotAGroup, NotConvInvertible
from hopfgal.exactfield import P_MAX
from hopfgal.resliealg import u_restricted
from hopfgal.speclab import borel_algebra, sl2_algebra


def s3_table():
    """Cayley table of S_3 as permutations of {0,1,2} in a fixed listing."""
    import itertools
    perms = list(itertools.permutations(range(3)))
    index = {q: i for i, q in enumerate(perms)}

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    return [[index[compose(a, b)] for b in perms] for a in perms]


def identity_linmap(field, n):
    m = ar.zeros(field, (n, n))
    for i in range(n):
        m[i, i, 0] = 1
    return hopf.LinMap(field, m)


def random_linmap(field, nH, nA, rng):
    m = np.array([[[rng.randrange(field.p) for _ in range(field.k)]
                   for _ in range(nA)] for _ in range(nH)], dtype=np.int64)
    return hopf.LinMap(field, m)


def test_group_algebra_z2_verifies():
    f = Field(3)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(2))
    assert hopf.hopf_verify(H) == []
    assert hopf.is_cocommutative(H)


def test_group_algebra_z4_and_s3():
    f = Field(3)
    H4 = hopf.group_algebra(f, hopf.cyclic_group_table(4))
    assert hopf.hopf_verify(H4) == []
    f5 = Field(5)
    HS3 = hopf.group_algebra(f5, s3_table())
    assert HS3.dim == 6
    assert hopf.hopf_verify(HS3) == []
    assert not HS3.alg.is_commutative()
    assert hopf.is_cocommutative(HS3)


def _group_algebra_by_loops(field, table):
    """group_algebra's checks and tensors as Python loops over the table,
    the reference of its vectorized form: the tensors, or the NotAGroup
    message."""
    n = len(table)
    if any(len(row) != n for row in table) or any(
            x < 0 or x >= n for row in table for x in row):
        return "table is not an n x n array of indices"
    ident = next((e for e in range(n) if all(
        table[e][j] == j and table[j][e] == j for j in range(n))), None)
    if ident is None:
        return "no identity element"
    for i, j, m in itertools.product(range(n), repeat=3):
        if table[table[i][j]][m] != table[i][table[j][m]]:
            return f"associativity fails at ({i},{j},{m})"
    mul, comul = np.zeros((2, n, n, n, field.k), dtype=np.int64)
    antipode = np.zeros((n, n, field.k), dtype=np.int64)
    for i in range(n):
        inv = next((j for j in range(n) if table[i][j] == ident
                    and table[j][i] == ident), None)
        if inv is None:
            return f"element {i} has no inverse"
        antipode[i, inv, 0] = comul[i, i, i, 0] = 1
        for j in range(n):
            mul[i, j, table[i][j], 0] = 1
    return mul, comul, antipode, ident


def test_group_algebra_matches_the_loop_reference():
    rng = np.random.default_rng(71)
    perms = list(itertools.permutations(range(3)))
    tables = [hopf.cyclic_group_table(m) for m in range(1, 7)] + [s3_table()]
    tables += [[[perms.index(tuple(a[b[k]] for k in range(3))) for b in perms]
                for a in perms], [[max(i, j) for j in range(3)]
                                  for i in range(3)], [[0, 5], [1, 0]], []]
    for _ in range(150):
        n = int(rng.integers(1, 6))
        T = rng.integers(0, n, (n, n))
        if rng.random() < 0.5:
            T[0], T[:, 0] = np.arange(n), np.arange(n)
        if rng.random() < 0.3:
            relabel = rng.permutation(n)
            cyc = np.array(hopf.cyclic_group_table(n))
            T = np.argsort(relabel)[cyc[relabel][:, relabel]]
        tables.append(T.tolist())
    for f in (Field(3), Field(3, 2)):
        for table in tables:
            want = _group_algebra_by_loops(f, table)
            if isinstance(want, str):
                with pytest.raises(NotAGroup) as err:
                    hopf.group_algebra(f, table)
                assert str(err.value) == want, table
                continue
            H = hopf.group_algebra(f, table)
            mul, comul, antipode, ident = want
            assert np.array_equal(H.alg.mul, mul), table
            n = len(table)
            assert np.array_equal(H.comul.dense(n, n), comul), table
            assert np.array_equal(H.antipode, antipode), table
            assert H.alg.unit[:, 0].tolist() == [int(i == ident)
                                                 for i in range(len(table))]
            assert (H.counit[:, 0] == 1).all()


def test_group_algebra_rejects_non_groups():
    f = Field(3)
    with pytest.raises(NotAGroup):
        hopf.group_algebra(f, [[0, 1], [1, 1]])  # no inverse for element 1
    with pytest.raises(NotAGroup):
        hopf.group_algebra(f, [[1, 0], [1, 0]])  # no identity
    with pytest.raises(NotAGroup):
        hopf.group_algebra(f, [[0, 1, 2], [1, 2, 0]])  # not square


def test_broken_antipode_is_flagged():
    f = Field(3)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(3))
    eye = ar.zeros(f, (3, 3))
    for i in range(3):
        eye[i, i, 0] = 1
    broken = hopf.HopfAlgebra(H.alg, H.comul, H.counit, eye)
    msgs = hopf.hopf_verify(broken)
    assert any("antipode" in m for m in msgs)


def test_broken_coassociativity_is_flagged():
    f = Field(3)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(2))
    d = H.comul.dense(2, 2)
    d[1, 0, 1, 0] = 1  # junk term in the coproduct of g
    broken = hopf.HopfAlgebra(H.alg, d, H.counit, H.antipode)
    assert hopf.hopf_verify(broken) != []


def transported(H, phi):
    """H's algebra and antipode with H's coalgebra moved along the linear
    bijection phi: Delta' = (phi (x) phi) Delta phi^-1, eps' = eps phi^-1.
    Delta' is coassociative and counital; it is multiplicative only if phi
    is compatible with the product."""
    f = H.field
    inv = ar.inv_matrix(f, phi)[..., 0]
    comul = np.einsum("ia,abc,bx,cy->ixy", inv,
                      H.comul.dense(H.dim, H.dim)[..., 0],
                      phi[..., 0], phi[..., 0]) % f.p
    counit = inv @ H.counit[:, 0] % f.p
    return hopf.HopfAlgebra(H.alg, comul[..., None], counit[:, None],
                            H.antipode)


def hopf_mutant(kind):
    """F_3[Z/3] (basis 1, g, g^2) with one structure map broken."""
    f = Field(3)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(3))
    phi = ar.identity(f, 3)
    if kind == "comul":
        # g^2 -> 2 g + 2 g^2 keeps eps but is not an algebra map
        phi[2] = [[0], [2], [2]]
        return transported(H, phi)
    if kind == "counit":
        # g -> 2 g changes eps, which then fails eps(g g^2) = eps(g) eps(g^2)
        phi[1] = [[0], [2], [0]]
        return transported(H, phi)
    if kind == "left_counit":
        # Delta(x) = x (x) 1 is a right-counital, coassociative algebra map;
        # S = eta eps satisfies only the (S (x) id) antipode axiom
        comul = ar.zeros(f, (3, 3, 3))
        comul[np.arange(3), np.arange(3), 0, 0] = 1
        S = ar.zeros(f, (3, 3))
        S[:, 0, 0] = 1
        return hopf.HopfAlgebra(H.alg, comul, H.counit, S)
    return hopf.HopfAlgebra(H.alg, H.comul, H.counit, phi)  # S = id


@pytest.mark.parametrize("kind, reports", [
    ("comul", [
        "regular coaction: coaction is not an algebra map at pair (1,1)",
        "regular coaction: coaction is not an algebra map at pair (2,1)",
        "antipode axiom (S (x) id) fails at basis index 2",
        "antipode axiom (id (x) S) fails at basis index 2"]),
    ("counit", [
        "regular coaction: coaction is not an algebra map at pair (1,2)",
        "regular coaction: coaction is not an algebra map at pair (2,1)",
        "counit is not an algebra map"]),
    ("left_counit", [
        "counit law (eps (x) id) fails",
        "antipode axiom (id (x) S) fails at basis index 1"]),
    ("antipode", [
        "antipode axiom (S (x) id) fails at basis index 1",
        "antipode axiom (id (x) S) fails at basis index 1"]),
])
def test_hopf_verify_reports_each_broken_axiom(kind, reports):
    assert hopf.hopf_verify(hopf_mutant(kind)) == reports


def test_hopf_verify_accepts_restricted_enveloping_algebras():
    # Delta is checked as the regular coaction of u(L) on itself
    for L, f in ((borel_algebra(3), Field(3, 2)), (borel_algebra(5), Field(5))):
        H, _ = u_restricted(L, f)
        assert hopf.hopf_verify(H) == []


def test_convolution_antipode_axiom():
    # id * S = unit of the convolution algebra
    f = Field(3)
    for table in (hopf.cyclic_group_table(4), s3_table()):
        H = hopf.group_algebra(f, table)
        ident = identity_linmap(f, H.dim)
        S = hopf.LinMap(f, H.antipode)
        assert hopf.convolution(H, H.alg, ident, S) == hopf.conv_unit(H, H.alg)
        assert hopf.convolution(H, H.alg, S, ident) == hopf.conv_unit(H, H.alg)


def test_convolution_unit_is_neutral():
    f = Field(5)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(3))
    rng = random.Random(3)
    unit = hopf.conv_unit(H, H.alg)
    for _ in range(10):
        g = random_linmap(f, H.dim, H.dim, rng)
        assert hopf.convolution(H, H.alg, unit, g) == g
        assert hopf.convolution(H, H.alg, g, unit) == g


def test_convolution_associativity_random():
    f = Field(3)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(4))
    A = fdalg.SCAlgebra(f, H.alg.mul, H.alg.unit)
    rng = random.Random(9)
    for _ in range(10):
        a = random_linmap(f, H.dim, A.dim, rng)
        b = random_linmap(f, H.dim, A.dim, rng)
        c = random_linmap(f, H.dim, A.dim, rng)
        lhs = hopf.convolution(H, A, hopf.convolution(H, A, a, b), c)
        rhs = hopf.convolution(H, A, a, hopf.convolution(H, A, b, c))
        assert lhs == rhs


def test_conv_inverse_of_identity_is_antipode():
    f = Field(3)
    for table in (hopf.cyclic_group_table(4), s3_table()):
        H = hopf.group_algebra(f, table)
        inv = hopf.conv_inverse(H, H.alg, identity_linmap(f, H.dim))
        assert np.array_equal(inv.matrix, H.antipode)


def test_conv_inverse_of_unit_is_itself():
    f = Field(5)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(4))
    unit = hopf.conv_unit(H, H.alg)
    assert hopf.conv_inverse(H, H.alg, unit) == unit


def test_conv_inverse_failure():
    f = Field(3)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(2))
    zero = hopf.LinMap(f, ar.zeros(f, (2, 2)))
    with pytest.raises(NotConvInvertible):
        hopf.conv_inverse(H, H.alg, zero)


def test_left_integral_of_group_algebra_dual():
    # for F[G]* the left integral is the functional supported on the identity
    f = Field(3)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(4))
    lam = hopf.left_integral_dual(H)
    expected = ar.zeros(f, (4,))
    expected[0, 0] = 1
    assert np.array_equal(lam.functional, expected)


def test_left_integral_defining_equation_full():
    # checked against every dual basis functional, not a sample
    f = Field(5)
    H = hopf.group_algebra(f, s3_table())
    lam = hopf.left_integral_dual(H)
    n = H.dim
    d = H.comul.dense(n, n)
    for j in range(n):
        lhs = ar.fmatmul(f, d[:, j, :, :], lam.functional[:, None, :])[:, 0, :]
        rhs = ar.fmul(f, H.alg.unit[j][None, :], lam.functional)
        assert np.array_equal(lhs % f.p, rhs % f.p)


def test_integral_not_found_on_broken_input():
    # a zero comultiplication forces the integral space to vanish
    f = Field(3)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(2))
    broken = hopf.HopfAlgebra(H.alg, ar.zeros(f, (2, 2, 2)),
                              H.counit, H.antipode)
    with pytest.raises(IntegralNotFound):
        hopf.left_integral_dual(broken)


def test_unimodular_flags_group_algebras():
    f = Field(3)
    for table in (hopf.cyclic_group_table(4), hopf.cyclic_group_table(2)):
        H = hopf.group_algebra(f, table)
        assert hopf.is_unimodular_s2(H) == (True, True, True)
    f5 = Field(5)
    HS3 = hopf.group_algebra(f5, s3_table())
    flags = hopf.is_unimodular_s2(HS3)
    assert flags == (True, True, True)


def test_unimodular_flag_consistency_random_groups():
    rng = random.Random(17)
    tables = [hopf.cyclic_group_table(m) for m in (2, 3, 4, 5, 6)]
    for table in tables:
        p = rng.choice([3, 5, 7])
        H = hopf.group_algebra(Field(p), table)
        uni, s2, sym = hopf.is_unimodular_s2(H)
        assert (uni and s2) == sym


def test_antipode_is_antihomomorphism():
    f = Field(3)
    for table in (hopf.cyclic_group_table(4), s3_table()):
        H = hopf.group_algebra(f, table)
        n = H.dim
        S = hopf.LinMap(f, H.antipode)
        for i in range(n):
            for j in range(n):
                xy = H.alg.multiply(H.alg.basis_vector(i), H.alg.basis_vector(j))
                lhs = S.apply(xy)
                rhs = H.alg.multiply(S.apply(H.alg.basis_vector(j)),
                                     S.apply(H.alg.basis_vector(i)))
                assert np.array_equal(lhs, rhs)


def test_integral_invariant_under_group_relabeling():
    # relabeling Z/4 permutes coordinates of the integral accordingly; the
    # evaluation pairing is unchanged
    f = Field(3)
    base = hopf.cyclic_group_table(4)
    perm = [0, 2, 1, 3]  # swap g and g^2 labels
    relabeled = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            relabeled[perm[i]][perm[j]] = perm[base[i][j]]
    H1 = hopf.group_algebra(f, base)
    H2 = hopf.group_algebra(f, relabeled)
    l1 = hopf.left_integral_dual(H1)
    l2 = hopf.left_integral_dual(H2)
    for i in range(4):
        assert np.array_equal(l1.functional[i], l2.functional[perm[i]])


def test_dual_hopf_of_commutative_group_is_hopf():
    f = Field(3)
    H = hopf.group_algebra(f, hopf.cyclic_group_table(4))
    D = hopf._dual_hopf(H)
    assert hopf.hopf_verify(D) == []
    # the dual of a commutative Hopf algebra is cocommutative
    assert hopf.is_cocommutative(D)


def test_dual_of_s3_group_algebra_not_cocommutative():
    f = Field(5)
    H = hopf.group_algebra(f, s3_table())
    D = hopf._dual_hopf(H)
    assert hopf.hopf_verify(D) == []
    assert not hopf.is_cocommutative(D)
    assert D.alg.is_commutative()


def test_serialization_round_trip():
    """The JSON of a Hopf algebra, whose comul is held as terms, reads
    back to the same JSON byte for byte."""
    for H in (hopf.group_algebra(Field(3), hopf.cyclic_group_table(4)),
              hopf.group_algebra(Field(3, 2), s3_table()),
              u_restricted(sl2_algebra(3), Field(3))[0]):
        data = H.to_json()
        H2 = hopf.HopfAlgebra.from_json(json.loads(json.dumps(data)))
        assert json.dumps(H2.to_json()) == json.dumps(data)
        n = H.dim
        assert np.array_equal(H2.comul.dense(n, n), H.comul.dense(n, n))
        assert np.array_equal(H2.counit, H.counit)
        assert np.array_equal(H2.antipode, H.antipode)
        assert hopf.hopf_verify(H2) == []


# ---------------------------------------------------------------------------
# the two-argument convolution
# ---------------------------------------------------------------------------

def convolution2_loop(H, F, G, m):
    """Reference for hopf.convolution2, term by term: out[i, j] sums
    m(F(x_1, y_1), G(x_2, y_2)) over the coproduct terms of h_i and h_j."""
    f = H.field
    n = H.dim
    nF, nG, nOut = m.shape[:3]
    d = H.comul.dense(n, n)
    terms = [[(a, b, d[i, a, b]) for a in range(n) for b in range(n)
              if np.any(d[i, a, b])] for i in range(n)]
    out = ar.zeros(f, (n, n, nOut))
    for i in range(n):
        for j in range(n):
            for x1, x2, c1 in terms[i]:
                for y1, y2, c2 in terms[j]:
                    left = ar.fmatmul(f, F[x1, y1][None],
                                      m.reshape(nF, nG * nOut, f.k))
                    val = ar.fmatmul(f, G[x2, y2][None],
                                     left.reshape(nG, nOut, f.k))[0]
                    c = ar.fmul(f, c1, c2)
                    out[i, j] = ar.fadd(f, out[i, j], ar.fmul(f, c[None], val))
    return out


_F9 = Field(3, 2)
CONV2_HOPF = [hopf.group_algebra(f, hopf.cyclic_group_table(n))
              for f in (Field(3), _F9) for n in range(1, 7)]
CONV2_HOPF += [u_restricted(borel_algebra(3), f)[0] for f in (Field(3), _F9)]


@settings(max_examples=40, deadline=None)
@given(H=st.sampled_from(CONV2_HOPF), product=st.sampled_from(["mul", "outer"]),
       nR=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_convolution2_matches_term_by_term_loop(H, product, nR, seed):
    f, n = H.field, H.dim
    rng = np.random.default_rng(seed)
    if product == "mul":
        # sigma-like pairs multiplied in an algebra: m is H's own product
        m = H.alg.mul
    else:
        # the R (x) H outer product of twisted_product, m(a_r, h_t) = a_r (x) h_t
        m = ar.zeros(f, (nR, n, nR * n))
        r, t = np.divmod(np.arange(nR * n), n)
        m[r, t, np.arange(nR * n), 0] = 1
    F = rng.integers(0, f.p, size=(n, n, m.shape[0], f.k))
    G = rng.integers(0, f.p, size=(n, n, m.shape[1], f.k))
    assert np.array_equal(hopf.convolution2(H, F, G, m),
                          convolution2_loop(H, F, G, m))


@pytest.mark.parametrize("case", ["f9", "F zero", "G zero", "budget 1"])
def test_convolution2_edge_cases_match_loop(monkeypatch, case):
    """F_9 (k = 2), operands with empty term lists, and chunks of one t."""
    f = _F9 if case == "f9" else Field(3)
    H = u_restricted(borel_algebra(3), f)[0]
    rng = np.random.default_rng(7)
    F, G = rng.integers(0, f.p, size=(2, H.dim, H.dim, H.dim, f.k))
    if case == "F zero":
        F[:] = 0
    if case == "G zero":
        G[:] = 0
    if case == "budget 1":
        monkeypatch.setattr(hopf, "CONV_CHUNK_TERMS", 1)
    got = hopf.convolution2(H, F, G, H.alg.mul)
    assert np.array_equal(got, convolution2_loop(H, F, G, H.alg.mul))
    assert np.array_equal(hopf.convolution2(H, F, G, H.alg.mul, slice(2, 5)),
                          got[2:5])
    if case.endswith("zero"):
        assert not got.any()


def convolution2_exact(p, rho, F, G, m):
    """convolution2 over the prime field F_p in Python integers, from the
    terms of rho; m None is the outer product."""
    n, nL, nR = rho.shape[:3]
    nF, nG = F.shape[2], G.shape[2]
    if m is None:
        m = np.zeros((nF, nG, nF * nG, 1), dtype=np.int64)
        a, b = np.divmod(np.arange(nF * nG), nG)
        m[a, b, np.arange(nF * nG), 0] = 1
    nOut = m.shape[2]
    terms = [[(x, u, int(rho[i, x, u, 0])) for x in range(nL)
              for u in range(nR) if rho[i, x, u, 0]] for i in range(n)]
    out = np.zeros((n, n, nOut, 1), dtype=np.int64)
    for i, j in itertools.product(range(n), repeat=2):
        acc = [0] * nOut
        for (x1, x2, c1), (y1, y2, c2) in itertools.product(terms[i],
                                                            terms[j]):
            for a in np.flatnonzero(F[x1, y1, :, 0]):
                for b in np.flatnonzero(G[x2, y2, :, 0]):
                    w = c1 * c2 * int(F[x1, y1, a, 0]) * int(G[x2, y2, b, 0])
                    for o in np.flatnonzero(m[a, b, :, 0]):
                        acc[o] += w * int(m[a, b, o, 0])
        out[i, j, :, 0] = [v % p for v in acc]
    return out


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([509, P_MAX]), dims=st.tuples(
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
       density=st.sampled_from([0.3, 1.0]), outer=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_convolution2_is_exact_over_any_coaction(p, dims, density, outer,
                                                 seed):
    """convolution2 over a random coaction tensor (any terms, nL != nR
    allowed) with random sparse or dense operands, entries drawn near p,
    equals the Python-integer sum."""
    n, nL, nR, nF, nG, nOut = dims
    rng = np.random.default_rng(seed)

    def operand(*shape):
        x = rng.integers(p - 3, p, size=shape + (1,))
        return np.where(rng.random(shape + (1,)) < density, x, 0)

    rho, F, G = operand(n, nL, nR), operand(nL, nL, nF), operand(nR, nR, nG)
    m = None if outer else operand(nF, nG, nOut)
    C = types.SimpleNamespace(field=Field(p), coaction=hopf.Terms.of(
        Field(p), rho, rho.shape[:3], "coaction"))
    assert np.array_equal(hopf.convolution2(C, F, G, m),
                          convolution2_exact(p, rho, F, G, m))


def _convolve_pairs(f, rho, F, G, m, I, J):
    """hopf.convolve_pairs on dense operands, its chunks put together;
    the chunks must cover the pairs in order."""
    k = f.k
    nL, nR = rho.shape[1:3]
    nF, nG = F.shape[2], G.shape[2]
    nOut = nF * nG if m is None else m.shape[2]
    out = np.zeros((I.size, nOut, k), dtype=np.int64)
    end = 0
    for lo, hi, vals in hopf.convolve_pairs(
            f, hopf.Terms.of(f, rho, rho.shape[:3], "coaction"),
            ar.csr(F.reshape(nL * nL, nF, k)),
            ar.csr(G.reshape(nR * nR, nG, k)),
            None if m is None else ar.csr(m.reshape(nF * nG, nOut, k)),
            I, J, (nL, nR, nF, nG, nOut)):
        assert lo == end < hi and vals.shape == (hi - lo, nOut, k)
        out[lo:hi], end = vals, hi
    assert end == I.size
    return out


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([509, P_MAX]), dims=st.tuples(
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
       density=st.sampled_from([0.3, 1.0]), outer=st.booleans(),
       budget=st.sampled_from([hopf.CONV_CHUNK_TERMS, 1]),
       pairs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                      max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_convolve_pairs_is_exact_on_any_pair_list(p, dims, density, outer,
                                                  budget, pairs, seed):
    """convolve_pairs on arbitrary pair lists (repeats, any order, empty)
    over a random coaction, entries near p, at the default chunk budget and
    at one term per chunk, equals the Python-integer sum."""
    n, nL, nR, nF, nG, nOut = dims
    rng = np.random.default_rng(seed)

    def operand(*shape):
        x = rng.integers(p - 3, p, size=shape + (1,))
        return np.where(rng.random(shape + (1,)) < density, x, 0)

    rho, F, G = operand(n, nL, nR), operand(nL, nL, nF), operand(nR, nR, nG)
    m = None if outer else operand(nF, nG, nOut)
    I = np.array([i % n for i, _ in pairs], dtype=np.int64)
    J = np.array([j % n for _, j in pairs], dtype=np.int64)
    want = convolution2_exact(p, rho, F, G, m)[I, J]
    with mock.patch.object(hopf, "CONV_CHUNK_TERMS", budget):
        got = _convolve_pairs(Field(p), rho, F, G, m, I, J)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("budget", [hopf.CONV_CHUNK_TERMS, 1])
def test_convolve_pairs_over_f9_matches_loop(budget):
    """F_9 (k = 2) on Delta of u(borel): repeated, unordered and empty
    pair lists against the term-by-term loop."""
    H = u_restricted(borel_algebra(3), _F9)[0]
    rng = np.random.default_rng(9)
    F, G = rng.integers(0, 3, size=(2, H.dim, H.dim, H.dim, 2))
    want = convolution2_loop(H, F, G, H.alg.mul)
    for size in (0, 1, 7, 30):
        I, J = rng.integers(0, H.dim, size=(2, size))
        with mock.patch.object(hopf, "CONV_CHUNK_TERMS", budget):
            got = _convolve_pairs(_F9, H.comul.dense(H.dim, H.dim), F, G,
                                  H.alg.mul, I, J)
        assert np.array_equal(got, want[I, J])


def test_convolution2_memory_on_the_sl2_cocycle():
    """The sl2 p = 3 cone-fiber cocycle operands: heads gamma(x) gamma(y)
    and tails gamma^-1(x y); the dense gathered path peaked at 8.4 MB."""
    from hopfgal.resliealg import Fiber, FiberPoint, pbw_splitting

    f = Field(3)
    F = Fiber(sl2_algebra(3), FiberPoint.make(f, [1, 0, 0]))
    sp = pbw_splitting(F)
    H, A = sp.CA.hopf, sp.CA.alg
    n = H.dim
    g = sp.gamma.matrix
    heads = fdalg._products(A, g, g)
    tails = ar.fmatmul(f, H.alg.mul.reshape(n * n, n, 1),
                       sp.inverse.matrix).reshape(n, n, n, 1)
    tracemalloc.start()
    try:
        hopf.convolution2(H, heads, tails, A.mul)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.4e6


@pytest.mark.parametrize("seed", range(4))
def test_csr_is_the_same_at_k_1_and_above(seed):
    """`_arrays.csr` of a (m, n, 1) array and of its embedding with zero
    second coordinates give the same rows and columns, and both match the
    nonzero scan X.any(axis=-1)."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, (7, 11, 1)) * (rng.random((7, 11, 1)) < 0.3)
    ptr, cols, vals = ar.csr(X)
    wide = np.concatenate([X, np.zeros_like(X)], axis=-1)
    ptr2, cols2, vals2 = ar.csr(wide)
    assert np.array_equal(ptr, ptr2) and np.array_equal(cols, cols2)
    assert np.array_equal(vals, vals2[:, :1]) and not vals2[:, 1].any()
    cells = np.flatnonzero(X.any(axis=-1))
    assert np.array_equal(cols, cells % 11)
    assert np.array_equal(ptr, np.searchsorted(cells, np.arange(8) * 11))
    assert np.array_equal(vals, X.reshape(-1, 1)[cells])
    # at k > 1 a cell with a zero first coordinate is kept
    wide[0, 0] = [0, 1]
    assert ar.csr(wide)[1][0] == 0
