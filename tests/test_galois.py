import itertools
import math

import numpy as np
import pytest

from hopfgal import _arrays as ar
from hopfgal import fdalg, galois, hopf
from hopfgal.errors import (
    CocycleInvalid,
    NoOneDimRep,
    NotAlgebraMap,
    NotCocommutative,
    PremiseFailed,
    ShapeMismatch,
    UnknownKind,
    ValueNotInvariant,
)
from hopfgal.exactfield import Field
from hopfgal.fdalg import (
    SCAlgebra,
    _products,
    block_decompose,
    form_is_symmetric,
    form_rank,
    simples,
)
from hopfgal.galois import (
    Cocycle,
    ComoduleAlgebra,
    Splitting,
    _is_algebra_map,
    cocycle_pushforward,
    cocycle_transform,
    cocycle_verify,
    coinvariants,
    find_one_dim_rep,
    frobenius_form,
    galois_check,
    group_quotient_coaction,
    is_equivariant_map,
    is_equivariant_splitting,
    lemma25_transfer_check,
    splitting_to_cocycle,
    trivial_cocycle,
    twisted_product,
    winding_iso,
)
from hopfgal.hopf import (
    Integral,
    LinMap,
    _dual_hopf,
    conv_inverse,
    convolution,
    convolution2,
    cyclic_group_table,
    group_algebra,
    left_integral_dual,
)
from hopfgal.resliealg import (
    Fiber,
    FiberPoint,
    RestrictedLie,
    fiber_coaction,
    pbw_splitting,
    prop30_sigma,
    u_restricted,
)

F3 = Field(3)


def scalar_algebra(f):
    mul = np.zeros((1, 1, 1, f.k), dtype=np.int64)
    unit = np.zeros((1, f.k), dtype=np.int64)
    mul[0, 0, 0, 0] = 1
    unit[0, 0] = 1
    return SCAlgebra(f, mul, unit, labels=["1"])


def borel(p):
    # basis (h, e), [h, e] = e, h^[p] = h, e^[p] = 0
    bracket = np.zeros((2, 2, 2), dtype=np.int64)
    bracket[0, 1, 1] = 1
    bracket[1, 0, 1] = p - 1
    pmap = np.zeros((2, 2), dtype=np.int64)
    pmap[0, 0] = 1
    return RestrictedLie(p, bracket, pmap, labels=["h", "e"])


def sl2(p):
    # basis (e, h, f): [e,f]=h, [h,e]=2e, [h,f]=-2f; h^[p]=h
    bracket = np.zeros((3, 3, 3), dtype=np.int64)
    bracket[0, 2, 1] = 1
    bracket[2, 0, 1] = p - 1
    bracket[1, 0, 0] = 2 % p
    bracket[0, 1, 0] = (p - 2) % p
    bracket[1, 2, 2] = (p - 2) % p
    bracket[2, 1, 2] = 2 % p
    pmap = np.zeros((3, 3), dtype=np.int64)
    pmap[1, 1] = 1
    return RestrictedLie(p, bracket, pmap, labels=["e", "h", "f"])


@pytest.fixture(scope="module")
def z4_over_z2():
    Z4 = group_algebra(F3, cyclic_group_table(4))
    Z2 = group_algebra(F3, cyclic_group_table(2))
    CA = group_quotient_coaction(Z4, [0, 1, 0, 1], Z2)
    return Z4, Z2, CA


def test_comodule_verify_group(z4_over_z2):
    Z4, Z2, CA = z4_over_z2
    assert CA.verify() == []
    # breaking the coaction (send every g to g (x) 1) kills the
    # galois property but not the axioms; breaking counitality raises
    bad = np.zeros((4, 4, 2, 1), dtype=np.int64)
    with pytest.raises(ShapeMismatch):
        ComoduleAlgebra(Z4.alg, Z2, bad)


def _m2_with_unit_basis():
    """M_2(F_3) on the basis 1, E_00, E_01, E_10."""
    E = np.eye(2, dtype=np.int64)
    basis = [E, np.outer(E[0], E[0]), np.outer(E[0], E[1]),
             np.outer(E[1], E[0])]
    mul = np.zeros((4, 4, 4, 1), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            P = basis[i] @ basis[j]
            mul[i, j, :, 0] = [P[1, 1], P[0, 0] - P[1, 1], P[0, 1], P[1, 0]]
    return SCAlgebra(F3, mul % 3, [[1], [0], [0], [0]])


@pytest.mark.parametrize("algebra, grading, want", [
    # F_3[Z/4]: commutative, so the failing pairs are symmetric
    (lambda: group_algebra(F3, cyclic_group_table(4)).alg, [0, 1, 1, 0],
     [(1, 1), (3, 1)]),
    # M_2: E_00 E_01 = E_01 fails while E_01 E_00 = 0 holds
    (_m2_with_unit_basis, [0, 1, 0, 0], [(1, 1), (2, 3), (3, 1)]),
])
def test_algebra_map_check_reports_a_non_additive_grading(
        monkeypatch, algebra, grading, want):
    """Grading A by a non-additive function onto Z/2 passes the counit,
    coassociativity and unit checks but is not an algebra map; each
    failing i is reported at its first failing j, within the budget,
    whatever the block size of the check."""
    A = algebra()
    Z2 = group_algebra(F3, cyclic_group_table(2))
    rho = np.zeros((4, 4, 2, 1), dtype=np.int64)
    for i, d in enumerate(grading):
        rho[i, i, d, 0] = 1
    want = [f"coaction is not an algebra map at pair ({i},{j})"
            for i, j in want]
    for terms in (hopf.CONV_CHUNK_TERMS, 8, 1):
        monkeypatch.setattr(hopf, "CONV_CHUNK_TERMS", terms)
        CA = ComoduleAlgebra(A, Z2, rho, check=False)
        assert CA.verify() == want
        assert CA.verify(max_reports=2) == want[:2]
        assert CA.verify(max_reports=0) == want[:1]
        assert CA.verify(full=False) == []
        with pytest.raises(ShapeMismatch) as err:
            ComoduleAlgebra(A, Z2, rho)
        assert str(err.value) == "; ".join(want)


def test_regular_coaction_is_comodule(z4_over_z2):
    Z4, _, _ = z4_over_z2
    CA = ComoduleAlgebra(Z4.alg, Z4, Z4.comul)
    assert CA.verify() == []
    assert coinvariants(CA).dim == 1


def test_coinvariants_group(z4_over_z2):
    Z4, Z2, CA = z4_over_z2
    B = coinvariants(CA)
    assert B.dim == 2
    assert B.contains(Z4.alg.basis_vector(0))
    assert B.contains(Z4.alg.basis_vector(2))
    assert not B.contains(Z4.alg.basis_vector(1))


def test_galois_check_group(z4_over_z2):
    _, _, CA = z4_over_z2
    assert galois_check(CA) is True


def test_galois_check_fails_on_trivial_coaction():
    Z2 = group_algebra(F3, cyclic_group_table(2))
    rho = np.zeros((2, 2, 2, 1), dtype=np.int64)
    for i in range(2):
        rho[i, i, 0, 0] = 1
    CA = ComoduleAlgebra(Z2.alg, Z2, rho)
    assert galois_check(CA) is False


def test_galois_check_fiber_scalars():
    L = borel(3)
    F = Fiber(L, FiberPoint.make(F3, [0, 1]))
    CA = fiber_coaction(F)
    assert coinvariants(CA).dim == 1
    assert galois_check(CA) is True


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------

def test_trivial_cocycle_both_conventions():
    Z2 = group_algebra(F3, cyclic_group_table(2))
    R = scalar_algebra(F3)
    sig = trivial_cocycle(Z2, R)
    assert cocycle_verify(sig, "paper") == []
    assert cocycle_verify(sig, "standard") == []
    A = twisted_product(R, sig)
    assert np.array_equal(A.mul, Z2.alg.mul)


def test_sigma_gg2_twisted_product_is_bigger_field():
    # H = F_3[Z/2], sigma(g, g) = 2: the twist of F_3 by the sign cocycle
    # is the quadratic field extension (T^2 = 2 is irreducible mod 3)
    Z2 = group_algebra(F3, cyclic_group_table(2))
    R = scalar_algebra(F3)
    vals = np.ones((2, 2, 1, 1), dtype=np.int64)
    vals[1, 1, 0, 0] = 2
    sig = Cocycle(Z2, R, vals)
    assert cocycle_verify(sig) == []
    A = twisted_product(R, sig)
    assert A.is_commutative()
    assert np.array_equal(A.multiply(A.basis_vector(1), A.basis_vector(1)),
                          2 * A.unit % 3)
    rep = simples(A)
    assert rep.semisimple and rep.radical_dim == 0
    assert rep.blocks == [2]
    assert rep.simple_dims == [1, 1] and rep.splitting_degree == 2
    # same algebra under both conventions (H is cocommutative)
    B = twisted_product(R, sig, "standard")
    assert np.array_equal(A.mul, B.mul)


def test_invalid_cocycle_rejected():
    Z4 = group_algebra(F3, cyclic_group_table(4))
    R = scalar_algebra(F3)
    vals = np.ones((4, 4, 1, 1), dtype=np.int64)
    vals[1, 2, 0, 0] = 2  # breaks the cocycle identity
    sig = Cocycle(Z4, R, vals)
    assert cocycle_verify(sig) != []
    with pytest.raises(CocycleInvalid):
        twisted_product(R, sig)


# ---------------------------------------------------------------------------
# splittings and section cocycles
# ---------------------------------------------------------------------------

def make_section_splitting(z4_over_z2):
    Z4, Z2, CA = z4_over_z2
    gamma = np.zeros((2, 4, 1), dtype=np.int64)
    gamma[0, 0, 0] = 1   # 1 -> 1
    gamma[1, 1, 0] = 1   # gbar -> g
    return Splitting(CA, LinMap(F3, gamma))


def test_splitting_verifies(z4_over_z2):
    sp = make_section_splitting(z4_over_z2)
    # gamma^-1(gbar) = g^3
    assert np.array_equal(sp.inverse.matrix[1, :, 0], [0, 0, 0, 1])
    # a non-comodule map is rejected
    _, _, CA = z4_over_z2
    bad = np.zeros((2, 4, 1), dtype=np.int64)
    bad[0, 0, 0] = 1
    bad[1, 2, 0] = 1  # gbar -> g^2, which lies over 1, not gbar
    with pytest.raises(ShapeMismatch):
        Splitting(CA, LinMap(F3, bad))


def test_section_cocycle_reconstructs_group(z4_over_z2):
    Z4, Z2, CA = z4_over_z2
    sp = make_section_splitting(z4_over_z2)
    sig = splitting_to_cocycle(sp)
    # sigma(gbar, gbar) = g * g * gamma^-1(1) = g^2, the second basis
    # vector of the coinvariant subalgebra {1, g^2}
    assert sig.target.dim == 2
    assert np.array_equal(sig.values[1, 1, :, 0], [0, 1])
    A = twisted_product(sig.target, sig)
    assert A.dim == 4
    # explicit isomorphism F_3[Z/4] -> twisted product:
    # g^j -> (g^2)^(j >> 1) (x) gbar^(j & 1)
    phi = np.zeros((4, 4, 1), dtype=np.int64)
    for j in range(4):
        phi[j, (j // 2) * 2 + (j % 2), 0] = 1
    assert _is_algebra_map(Z4.alg, A, LinMap(F3, phi))
    assert ar.inv_matrix(F3, phi) is not None
    # block structure agrees with the group algebra itself
    assert block_decompose(A).blocks == block_decompose(Z4.alg).blocks


def test_fiber_pbw_splitting_cocycle_matches_direct_formula():
    # the cocycle of the PBW splitting must agree with the independently
    # implemented straightening-engine formula
    L = borel(3)
    F = Fiber(L, FiberPoint.make(F3, [2, 0]))
    CA = fiber_coaction(F)
    sp = pbw_splitting(F, CA)
    sig = splitting_to_cocycle(sp)
    assert sig.target.dim == 1
    for i in range(F.dim):
        for j in range(F.dim):
            s = prop30_sigma(F, i, j)
            assert tuple(int(c) for c in sig.values[i, j, 0]) == s.coeffs


@pytest.mark.parametrize("lie, point", [
    (borel, (1, 0)),
    (borel, (0, 1)),
    (sl2, (1, 0, 0)),           # the sl2 cone point
])
def test_twisted_product_conventions_round_trip(lie, point):
    # the cocycle of the PBW cleaving map twists back to the fiber under
    # "standard" and to its opposite algebra under "paper"
    F = Fiber(lie(3), FiberPoint.make(F3, point))
    sp = pbw_splitting(F)
    for convention, want in (("standard", F.alg.mul),
                             ("paper", F.alg.mul.transpose(1, 0, 2, 3))):
        sig = splitting_to_cocycle(sp, convention=convention)
        A = twisted_product(sig.target, sig, convention=convention)
        assert np.array_equal(A.mul, want), convention


def test_coinvariants_rejects_non_unital_coaction():
    # every g goes to g (x) x with x the generator: the unit is not
    # coinvariant, which is a typed error and not an assertion
    Z2 = group_algebra(F3, cyclic_group_table(2))
    rho = np.zeros((2, 2, 2, 1), dtype=np.int64)
    for i in range(2):
        rho[i, i, 1, 0] = 1
    CA = ComoduleAlgebra(Z2.alg, Z2, rho, check=False)
    with pytest.raises(ShapeMismatch):
        coinvariants(CA)


# ---------------------------------------------------------------------------
# cocycle transform and pushforward
# ---------------------------------------------------------------------------

def test_cocycle_transform_coboundary():
    Z4 = group_algebra(F3, cyclic_group_table(4))
    R = scalar_algebra(F3)
    sig = trivial_cocycle(Z4, R)
    u = np.ones((4, 1, 1), dtype=np.int64)
    u[1, 0, 0] = 2  # u(g) = 2, other values 1
    tau, iso = cocycle_transform(sig, LinMap(F3, u))
    assert cocycle_verify(tau) == []
    # tau(g, g) = u(g)^-2 u(g^2) = 2^-2 = 4^-1 = 1; tau(g, g^3) = 2
    assert int(tau.values[1, 1, 0, 0]) == 1
    assert int(tau.values[1, 3, 0, 0]) == 2
    A_sig = twisted_product(R, sig)
    A_tau = twisted_product(R, tau)
    assert _is_algebra_map(A_sig, A_tau, iso)
    assert ar.inv_matrix(F3, iso.matrix) is not None


def test_cocycle_transform_unit_gauge_is_identity():
    Z2 = group_algebra(F3, cyclic_group_table(2))
    R = scalar_algebra(F3)
    vals = np.ones((2, 2, 1, 1), dtype=np.int64)
    vals[1, 1, 0, 0] = 2
    sig = Cocycle(Z2, R, vals)
    u = np.ones((2, 1, 1), dtype=np.int64)  # u = eps-like: all values 1
    tau, iso = cocycle_transform(sig, LinMap(F3, u))
    assert np.array_equal(tau.values, sig.values)


def test_cocycle_pushforward(z4_over_z2):
    sp = make_section_splitting(z4_over_z2)
    sig = splitting_to_cocycle(sp)
    S = scalar_algebra(F3)
    # R = {1, g^2} -> F_3 sending g^2 to 1 is an algebra map
    fmap = np.array([[[1]], [[1]]], dtype=np.int64)
    out = cocycle_pushforward(sig, LinMap(F3, fmap), S)
    assert cocycle_verify(out) == []
    # the cocycle becomes trivial: it was the coboundary of the section
    assert np.all(out.values[:, :, 0, 0] == 1)
    # g^2 -> 0 is not an algebra map
    bad = np.array([[[1]], [[0]]], dtype=np.int64)
    with pytest.raises(NotAlgebraMap):
        cocycle_pushforward(sig, LinMap(F3, bad), S)


def _cross_check_splitting(name):
    """The splittings the cocycle kernel is checked on: PBW splittings of
    sl2 (basis e, h, f) over F_3 at a regular, cone and zero point and over
    F_9 at the cone point, of the Borel algebra over F_5, the section of
    F_7[Z/9] over F_7[Z/3] that group_bundle_scan uses, and u * gamma for
    a Borel PBW splitting over F_3 and a u: h -> c_h 1 into the
    coinvariants, whose rows are dense."""
    if name == "group-bundle":
        f = Field(7)
        CA = group_quotient_coaction(
            group_algebra(f, cyclic_group_table(9)), [i % 3 for i in range(9)],
            group_algebra(f, cyclic_group_table(3)))
        gamma = np.zeros((3, 9, 1), dtype=np.int64)
        gamma[[0, 1, 2], [0, 1, 2], 0] = 1
        return Splitting(CA, LinMap(f, gamma))
    lie, f, point = {
        "sl2-regular": (sl2(3), F3, [0, 1, 0]),
        "sl2-cone": (sl2(3), F3, [1, 0, 0]),
        "sl2-zero": (sl2(3), F3, [0, 0, 0]),
        "sl2-cone-f9": (sl2(3), Field(3, 2), [1, 0, 0]),
        "borel-f5": (borel(5), Field(5), [3, 2]),
        "dense": (borel(3), F3, [1, 2])}[name]
    sp = pbw_splitting(Fiber(lie, FiberPoint.make(f, point)))
    if name != "dense":
        return sp
    H, A = sp.CA.hopf, sp.CA.alg
    c = np.random.default_rng(17).integers(1, 3, (H.dim, 1, 1))
    ug = convolution(H, A, LinMap(f, c * A.unit[None]), sp.gamma)
    assert ug.matrix[-1].any(axis=-1).all()
    return Splitting(sp.CA, ug)


@pytest.mark.parametrize("budget", [hopf.CONV_CHUNK_TERMS, 1])
@pytest.mark.parametrize("name", [
    "sl2-regular", "sl2-cone", "sl2-zero", "sl2-cone-f9", "borel-f5",
    "group-bundle", "dense"])
def test_splitting_cocycle_matches_the_term_pair_reference(
        monkeypatch, name, budget):
    """splitting_to_cocycle's two-pass kernel, at the default chunk budget
    and at one term per chunk, equals the term-pair convolution2 over the
    dense heads gamma(x) gamma(y) and tails gamma^-1(x y)."""
    sp = _cross_check_splitting(name)
    f, H, A = sp.field, sp.CA.hopf, sp.CA.alg
    nH, nA, g = H.dim, A.dim, sp.gamma.matrix
    tails = ar.fmatmul(f, H.alg.mul.reshape(nH * nH, nH, f.k),
                       sp.inverse.matrix).reshape(nH, nH, nA, f.k)
    want = convolution2(H, _products(A, g, g), tails, A.mul)
    monkeypatch.setattr(hopf, "CONV_CHUNK_TERMS", budget)
    sig = splitting_to_cocycle(sp, verify=False)
    nB = sig.target.dim
    got = ar.fmatmul(f, sig.values.reshape(nH * nH, nB, f.k),
                     sig.target_embedding)
    assert np.array_equal(got.reshape(want.shape), want)


def _gauge_case(name):
    """A cocycle and a normalized gauge map u: the trivial cocycle of
    F_3[Z/4] in R = F_3[Z/2] with u(g) = u(g^2) = s, s the generator of R;
    or the PBW cocycle of the sl2 cone fiber over F_3 (H = u(sl2), not
    commutative) with u(1) = 1 and seeded values elsewhere."""
    if name == "group":
        H = group_algebra(F3, cyclic_group_table(4))
        sig = trivial_cocycle(H, group_algebra(F3, cyclic_group_table(2)).alg)
        u = np.zeros((4, 2, 1), dtype=np.int64)
        u[[0, 1, 2, 3], [0, 1, 1, 0], 0] = 1
        return sig, LinMap(F3, u)
    sig = splitting_to_cocycle(pbw_splitting(
        Fiber(sl2(3), FiberPoint.make(F3, [1, 0, 0]))))
    u = np.random.default_rng(29).integers(0, 3, (27, 1, 1))
    u[0] = 1
    return sig, LinMap(F3, u)


@pytest.mark.parametrize("budget", [hopf.CONV_CHUNK_TERMS, 1])
@pytest.mark.parametrize("name", ["group", "sl2-cone"])
def test_cocycle_transform_matches_the_term_pair_reference(
        monkeypatch, name, budget):
    """tau(h, g) = sum u^-1(g_1) u^-1(h_1) inner(h_2, g_2) with inner(h, g)
    = sigma(h_1, g_1) u(h_2 g_2), against convolution2 over the dense heads
    u^-1(g) u^-1(h)."""
    sig, u = _gauge_case(name)
    H, R = sig.hopf, sig.target
    nH, nR = H.dim, R.dim
    uinv = conv_inverse(H, R, u).matrix
    Umul = ar.fmatmul(F3, H.alg.mul.reshape(nH * nH, nH, 1), u.matrix)
    inner = convolution2(H, sig.values, Umul.reshape(nH, nH, nR, 1), R.mul)
    want = convolution2(H, _products(R, uinv, uinv).transpose(1, 0, 2, 3),
                        inner, R.mul)
    monkeypatch.setattr(hopf, "CONV_CHUNK_TERMS", budget)
    tau, _ = cocycle_transform(sig, u)
    assert np.array_equal(tau.values, want)
    if name == "group":
        # tau(g, g) = u(g)^-2 u(g^2) = s
        assert tau.values[1, 1, :, 0].tolist() == [0, 1]
    else:
        assert not np.array_equal(tau.values, tau.values.transpose(
            1, 0, 2, 3))


@pytest.mark.parametrize("lie, point", [(borel, (1, 0)), (sl2, (1, 0, 0))],
                         ids=["borel-dim9", "sl2-dim27"])
def test_unknown_convention_is_a_typed_error_before_any_work(
        monkeypatch, lie, point):
    """Below and above COCYCLE_TRIPLE_DIM, an unknown convention raises
    UnknownKind on entry to every function that takes one."""
    F = Fiber(lie(3), FiberPoint.make(F3, point))
    sp = pbw_splitting(F)
    sig = splitting_to_cocycle(sp, "standard")
    R = sig.target
    u = LinMap(F3, np.ones((F.dim, R.dim, 1), dtype=np.int64))
    ident = LinMap(F3, ar.identity(F3, R.dim))
    x = ar.zeros(F3, (R.dim * F.dim,))

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the convention check")

    for name in ("cocycle_pairs", "convolution2", "conv_inverse",
                 "coinvariants", "_is_algebra_map", "_sigma_conv_inverse"):
        monkeypatch.setattr(galois, name, no_work)
    calls = [lambda c: splitting_to_cocycle(sp, c),
             lambda c: cocycle_verify(sig, c),
             lambda c: twisted_product(R, sig, c),
             lambda c: cocycle_transform(sig, u, c),
             lambda c: cocycle_pushforward(sig, ident, R, c),
             lambda c: lemma25_transfer_check(sig, sig, x, c)]
    for call in calls:
        with pytest.raises(UnknownKind, match="unknown convention 'bogus'"):
            call("bogus")


def test_cocycle_json_roundtrip(z4_over_z2):
    sp = make_section_splitting(z4_over_z2)
    sig = splitting_to_cocycle(sp)
    import json
    data = json.loads(json.dumps(sig.to_json()))
    back = Cocycle.from_json(data)
    assert np.array_equal(back.values, sig.values)
    n = sig.hopf.dim
    assert np.array_equal(back.hopf.comul.dense(n, n),
                          sig.hopf.comul.dense(n, n))
    assert json.dumps(back.to_json()) == json.dumps(sig.to_json())


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def test_equivariant_splitting_group(z4_over_z2):
    sp = make_section_splitting(z4_over_z2)
    assert is_equivariant_splitting(sp) is True


def test_equivariant_splitting_regular():
    Z4 = group_algebra(F3, cyclic_group_table(4))
    CA = ComoduleAlgebra(Z4.alg, Z4, Z4.comul)
    ident = np.zeros((4, 4, 1), dtype=np.int64)
    for i in range(4):
        ident[i, i, 0] = 1
    sp = Splitting(CA, LinMap(F3, ident))
    assert is_equivariant_splitting(sp) is True


def test_equivariance_requires_cocommutative():
    F5 = Field(5)
    S3 = group_algebra(F5, [
        [0, 1, 2, 3, 4, 5],
        [1, 2, 0, 4, 5, 3],
        [2, 0, 1, 5, 3, 4],
        [3, 5, 4, 0, 2, 1],
        [4, 3, 5, 1, 0, 2],
        [5, 4, 3, 2, 1, 0],
    ])
    D = _dual_hopf(S3)
    CA = ComoduleAlgebra(D.alg, D, D.comul)
    ident = np.zeros((6, 6, 1), dtype=np.int64)
    for i in range(6):
        ident[i, i, 0] = 1
    sp = Splitting(CA, LinMap(F5, ident))
    with pytest.raises(NotCocommutative):
        is_equivariant_splitting(sp)


def test_pbw_splitting_equivariance_is_reported_not_assumed():
    L = borel(3)
    F = Fiber(L, FiberPoint.make(F3, [1, 0]))
    sp = pbw_splitting(F)
    # both internal routes must agree; the value itself is data, not an axiom
    flag = is_equivariant_splitting(sp)
    assert isinstance(flag, bool)


def test_equivariant_map_symmetry_criterion():
    # over a commutative group algebra the identity reduces to symmetry
    Z4 = group_algebra(F3, cyclic_group_table(4))
    sym = np.ones((16, 1, 1), dtype=np.int64)
    assert is_equivariant_map(Z4, LinMap(F3, sym)) is True
    asym = np.ones((16, 1, 1), dtype=np.int64)
    asym[1 * 4 + 3, 0, 0] = 2  # alpha(g, g^3) != alpha(g^3, g)
    assert is_equivariant_map(Z4, LinMap(F3, asym)) is False


def test_lemma25_transfer(z4_over_z2):
    Z4 = group_algebra(F3, cyclic_group_table(4))
    R = scalar_algebra(F3)
    pi = trivial_cocycle(Z4, R)
    u = np.ones((4, 1, 1), dtype=np.int64)
    u[1, 0, 0] = 2
    tau, _ = cocycle_transform(pi, LinMap(F3, u))
    x = np.zeros((4, 1), dtype=np.int64)
    x[2, 0] = 1
    out = lemma25_transfer_check(tau, pi, x)
    assert out["premise"] is True
    assert out["agree"] is True
    assert out["central_in_first"] is True and out["central_in_second"] is True


def test_lemma25_premise_failure():
    Z4 = group_algebra(F3, cyclic_group_table(4))
    R = scalar_algebra(F3)
    pi = trivial_cocycle(Z4, R)
    vals = np.ones((4, 4, 1, 1), dtype=np.int64)
    vals[1, 3, 0, 0] = 2  # not symmetric, so not equivariant over Z/4
    tau = Cocycle(Z4, R, vals)
    x = np.zeros((4, 1), dtype=np.int64)
    x[0, 0] = 1
    with pytest.raises(PremiseFailed):
        lemma25_transfer_check(tau, pi, x)


# ---------------------------------------------------------------------------
# Frobenius forms
# ---------------------------------------------------------------------------

def test_frobenius_form_group_regular():
    Z4 = group_algebra(F3, cyclic_group_table(4))
    CA = ComoduleAlgebra(Z4.alg, Z4, Z4.comul)
    lam = left_integral_dual(Z4)
    s = frobenius_form(CA, lam)
    r, nondeg = form_rank(s)
    assert (r, nondeg) == (4, True)
    assert form_is_symmetric(s)
    # s(g^i, g^j) = Lambda(g^(i+j)) picks out inverse pairs
    assert int(s.matrix[1, 3, 0]) == 1
    assert int(s.matrix[1, 1, 0]) == 0


def test_frobenius_form_fiber_borel():
    # nondegenerate, but not symmetric: the Borel algebra is not unimodular
    L = borel(3)
    F = Fiber(L, FiberPoint.make(F3, [0, 1]))
    CA = fiber_coaction(F)
    H, _ = u_restricted(L)
    lam = left_integral_dual(H)
    s = frobenius_form(CA, lam)
    r, nondeg = form_rank(s)
    assert (r, nondeg) == (9, True)
    assert not form_is_symmetric(s)


def test_frobenius_form_fiber_sl2():
    L = sl2(3)
    F = Fiber(L, FiberPoint.make(F3, [0, 0, 1]))
    CA = fiber_coaction(F)
    H, _ = u_restricted(L)
    lam = left_integral_dual(H)
    s = frobenius_form(CA, lam)
    r, nondeg = form_rank(s)
    assert (r, nondeg) == (27, True)
    assert form_is_symmetric(s)


def test_frobenius_form_bad_functional():
    Z4 = group_algebra(F3, cyclic_group_table(4))
    CA = ComoduleAlgebra(Z4.alg, Z4, Z4.comul)
    bad = np.zeros((4, 1), dtype=np.int64)
    bad[1, 0] = 1  # evaluation at g is not an integral of the dual
    with pytest.raises(ValueNotInvariant):
        frobenius_form(CA, Integral(F3, bad))


# ---------------------------------------------------------------------------
# winding isomorphisms
# ---------------------------------------------------------------------------

def test_winding_borel_over_f9():
    F9 = Field(3, 2)
    a = F9.gen
    L = borel(3)
    lam_h = a * a * a - a
    F = Fiber(L, FiberPoint(F9, (lam_h, F9.scalar(0))))
    alpha = find_one_dim_rep(F)
    assert alpha[1].is_zero()  # alpha(e) = 0 is forced by the bracket
    assert alpha[0].frobenius() - alpha[0] == lam_h
    iso = winding_iso(F)
    assert iso.matrix.shape == (9, 9, 2)
    # generators map to alpha_i + e_i
    img_h = iso.apply(F.alg.basis_vector(F.index[(1, 0)]))
    assert np.array_equal(img_h[F.index[(1, 0)]], [1, 0])


def test_winding_count_of_liftable_points():
    # b -> b^3 - b is additive with kernel F_3, so exactly |F_9| / 3 = 3
    # values of lambda_h admit a one-dimensional representation
    F9 = Field(3, 2)
    L = borel(3)
    good = 0
    for lam in F9.elements():
        F = Fiber(L, FiberPoint(F9, (lam, F9.scalar(0))))
        try:
            find_one_dim_rep(F)
            good += 1
        except NoOneDimRep:
            pass
    assert good == 3


def test_winding_regular_sl2_has_no_rep():
    L = sl2(3)
    F = Fiber(L, FiberPoint.make(F3, [0, 0, 1]))
    with pytest.raises(NoOneDimRep):
        winding_iso(F)


def test_winding_zero_fiber_is_identity_like():
    L = borel(3)
    F = Fiber(L, FiberPoint.make(F3, [0, 0]))
    iso = winding_iso(F)
    ident = np.zeros((9, 9, 1), dtype=np.int64)
    for i in range(9):
        ident[i, i, 0] = 1
    assert np.array_equal(iso.matrix, ident)


def winding_loop(F, alpha):
    """Reference for winding_iso, monomial by monomial: row gamma holds
    binom(gamma, beta) alpha^beta at e^(gamma - beta) for all beta <= gamma."""
    f, p = F.field, F.L.p
    W = ar.zeros(f, (F.dim, F.dim))
    for ig, gamma in enumerate(F.labels):
        for beta in itertools.product(*[range(g + 1) for g in gamma]):
            c = math.prod(math.comb(g, b) for g, b in zip(gamma, beta)) % p
            if not c:
                continue
            s = f.scalar(c)
            for a, b in zip(alpha, beta):
                s = s * a ** b
            rest = tuple(g - b for g, b in zip(gamma, beta))
            W[ig, F.index[rest]] = np.array(s.coeffs)
    return W


def winding_cases():
    """Borel points with every alpha over F_3, F_9, F_5 and F_7 (lambda_h =
    a^p - a for alpha = (a, 0)), and the sl2 zero fibers at p = 3 and 5."""
    F9 = Field(3, 2)
    for f in (F3, F9, Field(5), Field(7)):
        for a in f.elements():
            lam = (a.frobenius() - a, f.scalar(0))
            yield Fiber(borel(f.p), FiberPoint(f, lam)), [a, f.zero]
    for p in (3, 5):
        yield Fiber(sl2(p), FiberPoint.make(Field(p), [0, 0, 0])), None


def test_winding_matches_monomial_loop():
    for F, alpha in winding_cases():
        W = winding_iso(F, alpha).matrix
        if alpha is None:
            alpha = find_one_dim_rep(F)
        assert np.array_equal(W, winding_loop(F, alpha))


# ---------------------------------------------------------------------------
# the comodule checks on the terms of rho
# ---------------------------------------------------------------------------

def algebra_map_failures_loop(CA):
    """Reference for ComoduleAlgebra._verify_algebra_map, pair by pair:
    rho(b_i b_j) against the sum of c c' (b_a b_b) (x) (h_u h_v) over the
    terms c b_a (x) h_u of rho(b_i) and c' b_b (x) h_v of rho(b_j)."""
    f = CA.field
    nA, nH = CA.alg.dim, CA.hopf.dim
    rho, mulA, mulH = CA.coaction.dense(nA, nH), CA.alg.mul, CA.hopf.alg.mul
    terms = [np.nonzero(rho[i].any(axis=-1)) for i in range(nA)]
    bad = np.zeros((nA, nA), dtype=bool)
    for i, j in itertools.product(range(nA), repeat=2):
        lhs = ar.fmatmul(f, mulA[i, j][None], rho.reshape(nA, nA * nH, f.k))
        (a, u), (b, v) = terms[i], terms[j]
        c = ar.fmul(f, rho[i, a, u][:, None], rho[j, b, v][None, :])
        X = ar.fmul(f, c[:, :, None], mulA[a[:, None], b[None, :]])
        Y = mulH[u[:, None], v[None, :]]
        rhs = ar.fmul(f, X[:, :, :, None], Y[:, :, None, :]).sum(
            axis=(0, 1)) % f.p
        bad[i, j] = np.any((lhs.reshape(nA, nH, f.k) - rhs) % f.p)
    return bad


def _corrupted_coaction(lie, field, point, entries):
    """The fiber's coaction with entries (i, a, u) -> value overwritten,
    u != 0 so that the counit law still holds."""
    F = Fiber(lie, FiberPoint.make(field, point))
    H, _ = u_restricted(lie, field)
    rho = F.binomial_tensor()
    for (i, a, u), value in entries.items():
        rho[i, a, u] = value
    return ComoduleAlgebra(F.alg, H, rho, check=False)


CORRUPTED = {
    "sl2 F_3": (sl2(3), F3, [1, 0, 0], {(4, 1, 3): [1], (11, 2, 5): [2]}),
    "sl2 F_9": (sl2(3), Field(3, 2), [1, 0, 0], {(13, 4, 9): [1, 2]}),
    "borel F_5": (borel(5), Field(5), [1, 2], {(7, 7, 1): [3],
                                                (18, 0, 12): [1]}),
}


@pytest.mark.parametrize("case", sorted(CORRUPTED))
def test_algebra_map_failures_match_pair_loop(monkeypatch, case):
    CA = _corrupted_coaction(*CORRUPTED[case])
    want = algebra_map_failures_loop(CA)
    assert want.any()
    reports = [f"coaction is not an algebra map at pair ({i},{np.argmax(r)})"
               for i, r in enumerate(want) if r.any()]
    for terms in (hopf.CONV_CHUNK_TERMS, 8, 1):
        monkeypatch.setattr(hopf, "CONV_CHUNK_TERMS", terms)
        assert np.array_equal(CA._verify_algebra_map(), want), terms
        assert [r for r in CA.verify(10 ** 6, full=True)
                if "algebra map" in r] == reports


def first_coassociativity_failure_loop(CA):
    """Reference: (rho (x) id) rho(b_i) and (id (x) Delta) rho(b_i) as dense
    products, one i at a time."""
    f = CA.field
    nA, nH = CA.alg.dim, CA.hopf.dim
    rho, d = CA.coaction.dense(nA, nH), CA.hopf.comul.dense(nH, nH)
    for i in range(nA):
        lhs = ar.fmatmul(f, rho[i].transpose(1, 0, 2),
                         rho.reshape(nA, nA * nH, f.k))
        lhs = lhs.reshape(nH, nA, nH, f.k).transpose(1, 2, 0, 3)
        rhs = ar.fmatmul(f, rho[i], d.reshape(nH, nH * nH, f.k))
        if np.any((lhs - rhs.reshape(nA, nH, nH, f.k)) % f.p):
            return i
    return None


@pytest.mark.parametrize("lie, field, point, entry", [
    (borel(3), F3, [0, 1], (5, 2, 4)),
    (sl2(3), F3, [1, 0, 0], (14, 9, 1)),
    (sl2(3), Field(3, 2), [0, 0, 1], (20, 0, 4)),
])
def test_coassociativity_fails_at_the_corrupted_index(monkeypatch, lie, field,
                                                      point, entry):
    """One corrupted entry of rho: verify names the first failing i, which
    the dense per-i products agree on, for every run length of rows."""
    CA = _corrupted_coaction(lie, field, point,
                             {entry: [1] + [0] * (field.k - 1)})
    i = first_coassociativity_failure_loop(CA)
    assert i is not None
    want = f"coaction coassociativity fails at basis index {i}"
    for terms in (hopf.CONV_CHUNK_TERMS, 8, 1):
        monkeypatch.setattr(hopf, "CONV_CHUNK_TERMS", terms)
        assert CA._first_coassociativity_failure() == i
        assert want in CA.verify(full=False)
    clean = fiber_coaction(Fiber(lie, FiberPoint.make(field, point)))
    assert clean._first_coassociativity_failure() is None


SEEDED_CORRUPTIONS = [(sl2(3), F3, [1, 0, 0], 7),
                      (sl2(3), Field(3, 2), [0, 0, 1], 7),
                      (borel(5), Field(5), [1, 2], 6)]


def seeded_corruptions():
    """20 coactions, each with one seeded entry (i, a, u), u != 0,
    overwritten by a seeded nonzero value: over F_3, F_9 and F_5."""
    rng = np.random.default_rng(18)
    for lie, field, point, count in SEEDED_CORRUPTIONS:
        n = lie.p ** lie.dim
        for _ in range(count):
            i, a, u = rng.integers(0, n, 3)
            value = rng.integers(0, field.p, field.k)
            value[0] = rng.integers(1, field.p)
            yield _corrupted_coaction(lie, field, point, {
                (i, a, max(u, 1)): value.tolist()})


@pytest.mark.parametrize("terms", [hopf.CONV_CHUNK_TERMS, 1])
def test_coassociativity_on_sorted_terms_matches_the_dense_loop(
        monkeypatch, terms):
    """The sorted-term check names the first i the dense per-i products
    name, on the corrupted coactions and on 20 seeded corruptions."""
    monkeypatch.setattr(hopf, "CONV_CHUNK_TERMS", terms)
    cases = [_corrupted_coaction(*CORRUPTED[c]) for c in sorted(CORRUPTED)]
    got = [(CA._first_coassociativity_failure(),
            first_coassociativity_failure_loop(CA))
           for CA in cases + list(seeded_corruptions())]
    assert all(a == b for a, b in got), got
    assert sum(a is not None for a, _ in got) >= 15


def _refuse_scan(monkeypatch, which):
    """Make the generator rows or the full pair scan raise."""
    scan = ComoduleAlgebra._verify_algebra_map

    def refusing(self, rows=None):
        if (rows is None) == (which == "full"):
            raise AssertionError(f"{which} rows ran")
        return scan(self, rows)
    monkeypatch.setattr(ComoduleAlgebra, "_verify_algebra_map", refusing)


@pytest.mark.parametrize("case", sorted(CORRUPTED) + ["intact"])
def test_generator_rows_agree_with_the_full_pair_scan(monkeypatch, case):
    """The generator rows are the full scan's rows at the generators; they
    fail exactly when some pair fails, and verify reports the same pairs
    with and without them, through the fallback to the full scan."""
    if case == "intact":
        F = Fiber(sl2(3), FiberPoint.make(Field(3, 2), [1, 0, 0]))
        CA = ComoduleAlgebra(F.alg, u_restricted(sl2(3), F.field)[0],
                             F.binomial_tensor(), check=False)
    else:
        CA = _corrupted_coaction(*CORRUPTED[case])
    gens = CA.alg.generators
    assert gens is not None and CA.hopf.alg.generators is not None
    rows = CA._verify_algebra_map(gens)
    full = CA._verify_algebra_map()
    assert np.array_equal(rows[list(gens)], full[list(gens)])
    assert not rows[np.setdiff1d(np.arange(CA.alg.dim), gens)].any()
    assert rows.any() == full.any() == (case != "intact")
    reports = CA.verify(10 ** 6, full=True)
    _refuse_scan(monkeypatch, "generator")
    CA.alg.generators = None
    assert CA.verify(10 ** 6, full=True) == reports


def test_generator_rows_alone_report_above_the_full_verify_dim(
        monkeypatch):
    """With the full scan gated off, failing generator rows are reported
    by themselves, each at its first failing j."""
    CA = _corrupted_coaction(*CORRUPTED["sl2 F_3"])
    rows = CA._verify_algebra_map(CA.alg.generators)
    monkeypatch.setattr(galois, "FULL_VERIFY_DIM", 8)
    _refuse_scan(monkeypatch, "full")
    assert [r for r in CA.verify(10 ** 6) if "algebra map" in r] == [
        f"coaction is not an algebra map at pair ({i},{np.argmax(rows[i])})"
        for i in np.flatnonzero(rows.any(axis=1))]


def test_only_the_full_scan_runs_without_the_generator_premises(
        monkeypatch):
    """A coaction with rho(1) != 1 (x) 1 over algebras that carry
    generators, and a non-associative A, which carries none: the
    generator rows never run and the reports are the full scan's."""
    _refuse_scan(monkeypatch, "generator")
    CA = _corrupted_coaction(sl2(3), F3, [1, 0, 0], {(0, 4, 1): [1]})
    assert CA.alg.generators is not None
    want = algebra_map_failures_loop(CA)
    assert want.any()
    msgs = CA.verify(10 ** 6)
    assert "coaction does not send the unit to 1 (x) 1" in msgs
    assert [m for m in msgs if "algebra map" in m] == [
        f"coaction is not an algebra map at pair ({i},{np.argmax(r)})"
        for i, r in enumerate(want) if r.any()]
    # b_1 b_1 = b_2 and b_2 b_1 = 0 but b_1 b_2 = b_1: (b_1 b_1) b_1 is 0,
    # b_1 (b_1 b_1) is b_1
    mul = np.zeros((3, 3, 3, 1), dtype=np.int64)
    mul[0, np.arange(3), np.arange(3)] = mul[np.arange(3), 0, np.arange(3)] = 1
    mul[1, 1, 2] = mul[1, 2, 1] = 1
    A = SCAlgebra(F3, mul, [[1], [0], [0]])
    assert fdalg.algebra_verify(A)
    # graded by b_1, b_2 -> g, which b_1 b_1 = b_2 breaks
    Z2 = group_algebra(F3, cyclic_group_table(2))
    rho = np.zeros((3, 3, 2, 1), dtype=np.int64)
    rho[[0, 1, 2], [0, 1, 2], [0, 1, 1]] = 1
    CA = ComoduleAlgebra(A, Z2, rho, check=False)
    want = algebra_map_failures_loop(CA)
    assert CA.verify() == [
        f"coaction is not an algebra map at pair ({i},{np.argmax(r)})"
        for i, r in enumerate(want) if r.any()] != []


def test_pbw_splitting_checks_the_cone_fiber_on_generators(monkeypatch):
    """pbw_splitting on the sl2 p = 3 cone fiber checks the algebra-map
    law on generators only: a full scan would raise."""
    _refuse_scan(monkeypatch, "full")
    sp = pbw_splitting(Fiber(sl2(3), FiberPoint.make(F3, [1, 0, 0])))
    assert sp.CA.verify() == []


def test_generating_set_by_closure():
    """Found generating sets generate, and algebra_verify keeps them on the
    algebra; algebras built by Fiber carry the PBW generators e_i."""
    F = Fiber(sl2(3), FiberPoint.make(F3, [1, 0, 0]))
    assert F.alg.generators == (9, 3, 1)
    A = SCAlgebra.from_json(F.alg.to_json())
    assert A.generators is None
    assert fdalg.algebra_verify(A) == []
    assert fdalg.generating_set(A) == A.generators == (1, 3, 9)
    Z4 = group_algebra(F3, cyclic_group_table(4))
    assert fdalg.generating_set(Z4.alg) == (1,)
    S3 = group_algebra(F3, [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4],
                            [2, 4, 0, 5, 1, 3], [3, 5, 1, 4, 0, 2],
                            [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]])
    gens = fdalg.generating_set(S3.alg)
    # the span of all words in the generators is the whole algebra
    f, n = F3, 6
    S = ar.row_space(f, S3.alg.unit[None])
    for _ in range(n):
        S = ar.row_space(f, np.concatenate([S] + [fdalg._products(
            S3.alg, S, ar.identity(f, n)[[g]]).reshape(-1, n, 1)
            for g in gens]))
    assert S.shape[0] == n and len(gens) == 2


def test_is_algebra_map_on_generators_agrees_with_every_pair():
    """fdalg._is_algebra_map with the source's generators gives the answer
    of the check of every pair."""
    f = F3
    F = Fiber(sl2(3), FiberPoint.make(f, [0, 0, 0]))
    bare = SCAlgebra(f, F.alg.mul, F.alg.unit)
    eye = ar.identity(f, F.dim)
    twisted = eye.copy()
    twisted[26] = (2 * twisted[26]) % 3
    for M, want in ((eye, True), (2 * eye % 3, False), (twisted, False)):
        assert _is_algebra_map(F.alg, F.alg, LinMap(f, M)) is want
        assert _is_algebra_map(bare, bare, LinMap(f, M)) is want


def test_cocycle_transform_verifies_each_cocycle_once(monkeypatch):
    """cocycle_verify runs once on sigma and once on tau."""
    sig, u = _gauge_case("sl2-cone")
    calls = []

    def counted(c, convention="paper"):
        calls.append(c)
        return cocycle_verify(c, convention)
    monkeypatch.setattr(galois, "cocycle_verify", counted)
    tau, iso = cocycle_transform(sig, u)
    assert len(calls) == 2
    assert calls[0].values is tau.values and calls[1] is sig
    # a broken sigma: tau fails first, with the message it always had
    Z4 = group_algebra(F3, cyclic_group_table(4))
    vals = np.ones((4, 4, 1, 1), dtype=np.int64)
    vals[1, 2, 0, 0] = 2
    u = np.ones((4, 1, 1), dtype=np.int64)
    u[1] = 2
    calls.clear()
    with pytest.raises(CocycleInvalid) as err:
        cocycle_transform(Cocycle(Z4, scalar_algebra(F3), vals), LinMap(F3, u))
    assert str(err.value) == ("transformed cocycle fails: cocycle identity "
                              "fails at triple (1,1,1)")
    assert len(calls) == 1


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
                v[i] = ar.fsub(f, v[i], by)
                rels.append(v.reshape(nA * nA, f.k))
    return ar.row_space(f, np.stack(rels))


def galois_check_loop(CA):
    """galois_check with the relations from balanced_relations_loop."""
    f = CA.field
    nA, nH = CA.alg.dim, CA.hopf.dim
    M = galois._canonical_map_matrix(CA)
    R = balanced_relations_loop(CA, coinvariants(CA))
    if np.any(ar.fmatmul(f, R, M) % f.p):
        return False
    return nA * nA - R.shape[0] == nA * nH and ar.rank(f, M) == nA * nH


@pytest.mark.parametrize("order, quotient, want", [
    (24, 2, True),     # F_5[Z/24] over F_5[Z/2]: coinvariants of dim 12
    (4, 1, False),     # trivial coaction of F_5[Z/2]: every x is coinvariant
])
def test_galois_check_relations_match_loop(order, quotient, want):
    f = Field(5)
    G = group_algebra(f, cyclic_group_table(order))
    Z2 = group_algebra(f, cyclic_group_table(2))
    CA = group_quotient_coaction(G, [g % quotient for g in range(order)], Z2)
    B = coinvariants(CA)
    assert B.dim == order // quotient > 1
    assert np.array_equal(galois._balanced_relations(CA.alg, B.basis),
                          balanced_relations_loop(CA, B))
    assert galois_check(CA) is want
    assert galois_check_loop(CA) is want
