"""Acceptance gate: one test per numbered criterion, each printing a single
pass/fail line with its elapsed time.

Time budgets are targets for commodity hardware; on slower or shared
machines they can be scaled with the HOPFGAL_TIME_FACTOR environment
variable (default 5, matching a single shared CPU core).  All algebraic
assertions are exact; only the wall-clock budget is scaled.
"""

import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hopfgal import _arrays as ar
from hopfgal.errors import DimCapExceeded, NoOneDimRep
from hopfgal.exactfield import Field, Poly
from hopfgal.fdalg import (
    SCAlgebra,
    block_decompose,
    block_ideals,
    extend_scalars,
    form_is_symmetric,
    form_rank,
    radical,
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
    group_quotient_coaction,
    is_equivariant_map,
    is_equivariant_splitting,
    lemma25_transfer_check,
    splitting_to_cocycle,
    trivial_cocycle,
    twisted_product,
    winding_iso,
)
from hopfgal import hopf as hopf_mod
from hopfgal.hopf import (
    LinMap,
    convolution,
    cyclic_group_table,
    group_algebra,
    is_unimodular_s2,
    left_integral_dual,
)
from hopfgal import resliealg
from hopfgal.resliealg import (
    Fiber,
    FiberPoint,
    Prop30Context,
    prop30_multiply,
    prop30_sigma,
    u_restricted,
    uenv_normalize,
)
from hopfgal import speclab
from hopfgal.speclab import (
    borel_algebra,
    classify_point,
    group_bundle_scan,
    scan,
    sl2_algebra,
    sl2_eq4_check,
)
from oracles import separability_idempotent_exists

TIME_FACTOR = float(os.environ.get("HOPFGAL_TIME_FACTOR", "5"))

F3 = Field(3)
F9 = Field(3, 2)


@contextmanager
def criterion(num, label, limit):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} ({label}): FAIL", flush=True)
        raise
    dt = time.perf_counter() - t0
    ok = dt <= limit * TIME_FACTOR
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{dt:.2f}s, target {limit:g}s]", flush=True)
    assert ok, f"exceeded scaled budget {limit * TIME_FACTOR:g}s: {dt:.2f}s"


# shared, lazily built state reused across criteria
_state = {}


def _sl2(p):
    key = ("sl2", p)
    if key not in _state:
        _state[key] = sl2_algebra(p)
    return _state[key]


def _shared(L, field):
    """u(L) over field and the integral of its dual: the general route to
    the Frobenius form, which criteria 06 and 13 take."""
    key = ("hopf", L.p, L.dim, field.order)
    if key not in _state:
        H, _ = u_restricted(L, field)
        _state[key] = H, left_integral_dual(H)
    return _state[key]


def _fiber(L, field, vals):
    key = ("fiber", L.p, L.dim, field.order, tuple(vals))
    if key not in _state:
        F = Fiber(L, FiberPoint.make(field, vals))
        _state[key] = (F, simples(F.alg))
    return _state[key]


def _regular_points_f9(count, seed):
    """Seeded random regular points of the p=3 parameter space over F_9."""
    rng = random.Random(seed)
    elems = list(F9.elements())
    out = []
    while len(out) < count:
        x, y, z = (rng.choice(elems) for _ in range(3))
        if not (z * z - F9.scalar(4) * x * y).is_zero():
            out.append((x, y, z))
    return out


def _scalar_algebra(f):
    mul = np.zeros((1, 1, 1, f.k), dtype=np.int64)
    unit = np.zeros((1, f.k), dtype=np.int64)
    mul[0, 0, 0, 0] = 1
    unit[0, 0] = 1
    return SCAlgebra(f, mul, unit, labels=["1"])


def _sign_cocycle():
    """The order-2 group cocycle with sigma(g, g) = 2 over F_3."""
    Z2 = group_algebra(F3, cyclic_group_table(2))
    R = _scalar_algebra(F3)
    vals = np.ones((2, 2, 1, 1), dtype=np.int64)
    vals[1, 1, 0, 0] = 2
    return Cocycle(Z2, R, vals)


def _z4_section():
    """The cyclic order-4 group algebra fibered over order 2, with the
    evident coalgebra section."""
    if "z4" not in _state:
        Z4 = group_algebra(F3, cyclic_group_table(4))
        Z2 = group_algebra(F3, cyclic_group_table(2))
        CA = group_quotient_coaction(Z4, [0, 1, 0, 1], Z2)
        gamma = np.zeros((2, 4, 1), dtype=np.int64)
        gamma[0, 0, 0] = 1
        gamma[1, 1, 0] = 1
        _state["z4"] = (Z4, Z2, CA, Splitting(CA, LinMap(F3, gamma)))
    return _state["z4"]


def test_criterion_01_regular_fibers():
    with criterion(1, "regular stratum", 5):
        L = _sl2(3)
        points = [tuple(F9.scalar(v) for v in (0, 0, 1))]
        points += _regular_points_f9(10, seed=101)
        for vals in points:
            assert classify_point("sl2", FiberPoint(F9, tuple(vals))).tag \
                == "regular"
            F, rep = _fiber(L, F9, vals)
            assert rep.semisimple and rep.radical_dim == 0
            assert rep.simple_dims == [3, 3, 3]
            assert rep.center_dim == 3
            # over the splitting extension every block carries one simple,
            # so the block count equals the number of simples
            assert sum(d * d for d in rep.simple_dims) == F.dim
            assert len(rep.simple_dims) == 3
        _state["regular points"] = points
        # independent block count over the explicit splitting extension for
        # the named point
        F, rep = _fiber(L, F9, points[0])
        big = Field(3, 2 * rep.splitting_degree)
        assert block_decompose(extend_scalars(F.alg, big)).blocks == [9, 9, 9]


def test_criterion_02_cone_fiber():
    with criterion(2, "cone stratum", 5):
        L = _sl2(3)
        F, rep = _fiber(L, F3, (1, 0, 0))
        assert rep.simple_dims == [3, 3]
        assert len(rep.blocks) == 2
        assert not rep.semisimple
        # projectivity of one simple: its block is a full matrix algebra
        # summand (dimension 9, zero radical, one simple of dimension 3)
        matrix_blocks = 0
        for blk, _, _ in block_ideals(F.alg):
            if (blk.dim == 9 and radical(blk).dim == 0
                    and simples(blk).simple_dims == [3]):
                matrix_blocks += 1
        assert matrix_blocks == 1


def test_criterion_03_zero_fiber():
    with criterion(3, "zero fiber", 5):
        L = _sl2(3)
        F, rep = _fiber(L, F3, (0, 0, 0))
        assert rep.simple_dims == [1, 2, 3]
        assert len(rep.blocks) == 2
        assert rep.radical_dim > 0 and not rep.semisimple


def test_criterion_04_degree_p_relation():
    with criterion(4, "degree-p relation", 10):
        L = _sl2(3)
        rng = random.Random(104)
        elems = list(F9.elements())
        seen_regular = seen_cone = 0
        for _ in range(20):
            vals = tuple(rng.choice(elems) for _ in range(3))
            F = Fiber(L, FiberPoint(F9, vals))
            passed, profile = sl2_eq4_check(F)
            assert passed
            tag = classify_point("sl2", FiberPoint(F9, vals)).tag
            if tag == "regular":
                seen_regular += 1
                assert len(profile) == 3
                assert all(m == 1 for _, m in profile)
            else:
                # on the cone (and at zero) the minimal polynomial has the
                # single root 0 and (p-1)/2 double roots
                seen_cone += 1
                simple = [r for r, m in profile if m == 1]
                double = [r for r, m in profile if m == 2]
                assert len(simple) == 1 and simple[0].is_zero()
                assert len(double) == (3 - 1) // 2
        assert seen_regular > 0 and seen_cone > 0


def test_criterion_05_twisted_product_formula():
    with criterion(5, "twisted-product formula", 60):
        L = _sl2(3)
        # exhaustive basis-pair check at two points; the fast evaluator is
        # cross-checked pairwise against the independent straightening
        # engine on a random sample at each point
        rng3 = random.Random(1050)
        for vals in ((0, 0, 1), (1, 0, 0)):
            F = Fiber(L, FiberPoint.make(F3, vals))
            ctx3 = Prop30Context(F)
            for i in range(27):
                for j in range(27):
                    got = ctx3.multiply(i, j)
                    assert np.array_equal(got, F.alg.mul[i, j]), (vals, i, j)
            cache = {}
            for _ in range(40):
                i, j = rng3.randrange(27), rng3.randrange(27)
                eng = prop30_multiply(F, i, j, sigma_cache=cache)
                assert np.array_equal(eng, ctx3.multiply(i, j)), (vals, i, j)
        # 200 random pairs at p = 5 through the vectorized evaluator, which
        # is itself cross-checked against the engine on sampled keys
        L5 = _sl2(5)
        F5 = Fiber(L5, FiberPoint.make(Field(5), (1, 2, 3)))
        ctx = Prop30Context(F5)
        small = [i for i, a in enumerate(F5.labels) if sum(a) <= 3]
        rng = random.Random(105)
        for _ in range(4):
            i, j = rng.choice(small), rng.choice(small)
            assert prop30_sigma(F5, i, j).coeffs == (ctx.sigma_value(i, j),)
        for _ in range(200):
            i, j = rng.randrange(125), rng.randrange(125)
            assert np.array_equal(ctx.multiply(i, j), F5.alg.mul[i, j]), (i, j)


def test_criterion_06_frobenius_forms():
    with criterion(6, "Frobenius forms", 10):
        L = _sl2(3)
        jobs = [(F9, vals) for vals in _state.get(
            "regular points", [_regular_points_f9(10, 101)[0]])]
        jobs += [(F3, (1, 0, 0)), (F3, (0, 0, 0))]
        for field, vals in jobs:
            F, _ = _fiber(L, field, vals)
            H, lam = _shared(L, field)
            CA = ComoduleAlgebra(F.alg, H, F.binomial_tensor(), check=False)
            s = frobenius_form(CA, lam)
            rank, nondeg = form_rank(s)
            assert rank == F.dim and nondeg
            assert form_is_symmetric(s)
        # unimodularity and involutive antipode of the p = 3 restricted
        # enveloping algebra, hence symmetry was forced
        H3, _ = _shared(L, F3)
        unimodular, s2_is_id, dual_symmetric = is_unimodular_s2(H3)
        assert unimodular and s2_is_id and dual_symmetric


def test_criterion_07_twists_of_fields_and_groups():
    with criterion(7, "cocycle twists", 1):
        sig = _sign_cocycle()
        assert cocycle_verify(sig) == []
        A = twisted_product(sig.target, sig)
        # minimal polynomial of 1 (x) g is T^2 - 2, irreducible over F_3:
        # the twist is the quadratic field extension
        g = A.basis_vector(1)
        assert np.array_equal(A.multiply(g, g), 2 * A.unit % 3)
        m = Poly(F3, [1, 0, 1])  # T^2 - 2 = T^2 + 1
        fac = m.factor()
        assert len(fac) == 1 and fac[0][0].degree == 2 and fac[0][1] == 1
        rep = simples(A)
        assert rep.semisimple and rep.splitting_degree == 2
        assert rep.simple_dims == [1, 1] and len(rep.blocks) == 1
        _state["f9 twist"] = A
        # reconstruction of the order-4 group algebra from its section
        # cocycle over the order-2 quotient
        Z4, Z2, CA, sp = _z4_section()
        tau = splitting_to_cocycle(sp)
        assert tau.target.dim == 2
        B = twisted_product(tau.target, tau)
        phi = np.zeros((4, 4, 1), dtype=np.int64)
        for j in range(4):
            phi[j, (j // 2) * 2 + (j % 2), 0] = 1
        assert _is_algebra_map(Z4.alg, B, LinMap(F3, phi))
        assert ar.inv_matrix(F3, phi.astype(np.int64)) is not None


def test_criterion_08_transform_and_pushforward():
    with criterion(8, "transform and pushforward", 1):
        sig = _sign_cocycle()
        R = sig.target
        u = np.ones((2, 1, 1), dtype=np.int64)
        u[1, 0, 0] = 2
        tau, iso = cocycle_transform(sig, LinMap(F3, u))
        A_sig = twisted_product(R, sig)
        A_tau = twisted_product(R, tau)
        # transform-then-build equals build-then-map
        assert _is_algebra_map(A_sig, A_tau, iso)
        assert ar.inv_matrix(F3, iso.matrix) is not None
        # pushforward functoriality along a two-step chain of algebra maps:
        # a section cocycle on the order-2 target pushes to the scalars,
        # then the scalars embed as the span of the unit in a group algebra
        Z4, Z2, CA, sp = _z4_section()
        tau2 = splitting_to_cocycle(sp)
        R2 = tau2.target
        S = _scalar_algebra(F3)
        f1 = LinMap(F3, np.ones((R2.dim, 1, 1), dtype=np.int64))
        assert _is_algebra_map(R2, S, f1)
        f2 = LinMap(F3, Z2.alg.unit[None, :, :])
        assert _is_algebra_map(S, Z2.alg, f2)
        step = cocycle_pushforward(cocycle_pushforward(tau2, f1, S),
                                   f2, Z2.alg)
        comp = LinMap(F3, ar.fmatmul(F3, f1.matrix, f2.matrix))
        direct = cocycle_pushforward(tau2, comp, Z2.alg)
        assert np.array_equal(step.values, direct.values)


def test_criterion_09_equivariance():
    with criterion(9, "equivariance", 5):
        Z4, Z2, CA, sp = _z4_section()
        # the group-theoretic section of an abelian quotient is equivariant
        assert is_equivariant_splitting(sp)
        # closure of equivariant maps under convolution and inverse: over a
        # commutative group algebra equivariance is symmetry in the two
        # arguments, and the convolution of maps on group likes is the
        # pointwise product
        R = _scalar_algebra(F3)
        rng = random.Random(109)
        for _ in range(3):
            v1 = _random_symmetric_unit_values(rng, 4)
            v2 = _random_symmetric_unit_values(rng, 4)
            m1 = LinMap(F3, v1.reshape(16, 1, 1))
            m2 = LinMap(F3, v2.reshape(16, 1, 1))
            assert is_equivariant_map(Z4, m1)
            assert is_equivariant_map(Z4, m2)
            conv = LinMap(F3, (v1 * v2 % 3).reshape(16, 1, 1))
            assert is_equivariant_map(Z4, conv)
            inv = LinMap(F3, _pointwise_inverse(v1).reshape(16, 1, 1))
            assert is_equivariant_map(Z4, inv)
            # the inverse really is the convolution inverse
            assert np.all(v1 * _pointwise_inverse(v1) % 3 == 1)
        bad = np.ones((4, 4), dtype=np.int64)
        bad[0, 1] = 2
        assert not is_equivariant_map(Z4, LinMap(F3, bad.reshape(16, 1, 1)))
        # centrality transfer between the two cocycles of the gauge pair
        pi = trivial_cocycle(Z4, R)
        u = np.ones((4, 1, 1), dtype=np.int64)
        u[1, 0, 0] = 2
        tau, _ = cocycle_transform(pi, LinMap(F3, u))
        x = np.zeros((4, 1), dtype=np.int64)
        x[2, 0] = 1
        out = lemma25_transfer_check(tau, pi, x)
        assert out["premise"] is True
        assert out["central_in_first"] == out["central_in_second"]
        assert out["agree"] is True


def _random_symmetric_unit_values(rng, n):
    v = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            v[i, j] = v[j, i] = rng.choice([1, 2])
    return v


def _pointwise_inverse(v):
    out = v.copy()
    out[v == 2] = 2  # 2 * 2 = 4 = 1 mod 3, so 2 is its own inverse
    return out


def test_criterion_10_winding():
    with criterion(10, "winding isomorphism", 5):
        Lb = borel_algebra(3)
        a = F9.scalar((0, 1))
        lam_h = a * a * a - a
        F = Fiber(Lb, FiberPoint(F9, (lam_h, F9.scalar(0))))
        alpha = find_one_dim_rep(F)
        assert alpha[1].is_zero()
        iso = winding_iso(F, alpha)
        assert iso.matrix.shape == (9, 9, 2)
        assert ar.inv_matrix(F9, iso.matrix) is not None
        # a regular fiber of the three-dimensional algebra admits no
        # one-dimensional representation
        L = _sl2(3)
        Freg = Fiber(L, FiberPoint.make(F3, (0, 0, 1)))
        with pytest.raises(NoOneDimRep):
            find_one_dim_rep(Freg)


def test_criterion_11_simple_count_divisibility():
    with criterion(11, "simple-count divisibility", 5):
        Lb = borel_algebra(3)
        s_zero = len(simples(
            Fiber(Lb, FiberPoint.make(F3, (0, 0))).alg).simple_dims)
        assert s_zero == 3
        rng = random.Random(111)
        elems = list(F9.elements())
        for _ in range(10):
            vals = (rng.choice(elems), rng.choice(elems))
            F = Fiber(Lb, FiberPoint(F9, vals))
            s_fiber = len(simples(F.alg).simple_dims)
            assert s_zero % s_fiber == 0, vals


def test_criterion_12_center_dimension_bundle():
    with criterion(12, "center-dimension bundle", 5):
        gb = group_bundle_scan()
        assert gb.equivariant
        assert gb.center_dim_constant
        assert gb.fiber_dims == [3, 3, 3]
        assert gb.center_dims == [3, 3, 3]
        # the restricted-Lie scan only reports its center-dimension summary
        L = _sl2(3)
        res = scan(L, F3, points=[(0, 0, 1), (1, 0, 0), (0, 0, 0)])
        assert isinstance(res.center_dims, list)
        assert all(isinstance(c, int) for c in res.center_dims)
        _state["sl2 center summary"] = (res.center_dims,
                                        res.center_dim_constant)


def test_criterion_13_property_suites():
    with criterion(13, "property suites", 60):
        # straightening confluence against the independent rewriter
        rng = random.Random(113)
        for L in (_sl2(3), borel_algebra(3), _sl2(5)):
            for _ in range(34):
                word = [rng.randrange(L.dim)
                        for _ in range(rng.randrange(0, 7))]
                a = uenv_normalize(L, word)
                b = resliealg._rewriter_normalize(L, word, strategy="first")
                c = resliealg._rewriter_normalize(L, word, strategy="last")
                assert a.terms == b.terms == c.terms, word
        # structural identities on a spread of algebras
        L = _sl2(3)
        Z4 = group_algebra(F3, cyclic_group_table(4)).alg
        samples = [_fiber(L, F3, (1, 0, 0))[0].alg,
                   _fiber(L, F3, (0, 0, 0))[0].alg,
                   Z4]
        if "f9 twist" in _state:
            samples.append(_state["f9 twist"])
        for A in samples:
            rep = simples(A)
            assert sum(rep.blocks) == A.dim
            assert A.dim - rep.radical_dim == sum(
                d * d for d in rep.simple_dims)
            assert rep.semisimple == (rep.radical_dim == 0)
            assert rep.center_dim >= len(rep.blocks)
        for A in (Z4, _state.get("f9 twist")):
            if A is not None:
                assert separability_idempotent_exists(A) == \
                    (radical(A).dim == 0)
        # every Frobenius-form building block is coinvariant: the partial
        # evaluation of the coaction against the integral lands in the
        # coinvariant subalgebra on every basis vector
        H, lam = _shared(L, F3)
        for vals in ((1, 0, 0), (0, 0, 0)):
            F, _ = _fiber(L, F3, vals)
            CA = ComoduleAlgebra(F.alg, H, F.binomial_tensor(), check=False)
            B = coinvariants(CA)
            E = np.tensordot(CA.coaction.dense(F.dim, H.dim)[..., 0],
                             lam.functional[:, 0], axes=([2], [0])) % 3
            for m in range(F.dim):
                assert B.contains(E[m][:, None]), m
        # uniqueness and characterizing property of the dual integral
        for Hx in (H, group_algebra(F3, cyclic_group_table(4))):
            space = hopf_mod._dual_integral_space(Hx, "left")
            assert space.shape[0] == 1
            lamx = left_integral_dual(Hx)
            S = _scalar_algebra(F3)
            gmap = LinMap(F3, lamx.functional[:, None, :])
            rngf = random.Random(1130 + Hx.dim)
            for _ in range(5):
                fvals = np.array([[[rngf.randrange(3)]]
                                  for _ in range(Hx.dim)], dtype=np.int64)
                fmap = LinMap(F3, fvals)
                left = convolution(Hx, S, fmap, gmap)
                # f * Lambda = f(1) Lambda
                f_at_unit = ar.fmatmul(
                    F3, Hx.alg.unit[None, :, :], fmap.matrix)[0]
                expect = ar.fmul(F3, f_at_unit[None, :, :], gmap.matrix)
                assert np.array_equal(left.matrix, expect)


def test_criterion_14_scale_probe():
    with criterion(14, "scale probe", 720):
        t0 = time.perf_counter()
        L5 = _sl2(5)
        rep = speclab.fiber_report(L5, FiberPoint.make(Field(5), (0, 0, 1)))
        dt_full = time.perf_counter() - t0
        assert rep.dim == 125 and rep.semisimple
        assert rep.simple_dims == [5, 5, 5, 5, 5]
        assert rep.blocks == 5 and rep.center_dim == 5
        assert rep.eq4_pass is True
        assert dt_full <= 120 * TIME_FACTOR
        # construction-only probe one prime higher
        t0 = time.perf_counter()
        try:
            L7 = _sl2(7)
            F7 = Fiber(L7, FiberPoint.make(Field(7), (0, 0, 1)))
        except DimCapExceeded as exc:
            assert "cap" in str(exc)
        else:
            assert F7.dim == 343
            rng = random.Random(114)
            for _ in range(3):
                x, y, z = (F7.alg.basis_vector(rng.randrange(343))
                           for _ in range(3))
                left = F7.alg.multiply(F7.alg.multiply(x, y), z)
                right = F7.alg.multiply(x, F7.alg.multiply(y, z))
                assert np.array_equal(left, right)
        assert time.perf_counter() - t0 <= 600 * TIME_FACTOR
