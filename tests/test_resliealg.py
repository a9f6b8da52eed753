"""Restricted Lie algebra and PBW engine tests, including the confluence
oracle and the cocycle-formula product cross-check."""

import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal import Field
from hopfgal import _arrays as ar
from hopfgal import fdalg, hopf, resliealg, speclab
from hopfgal.errors import (
    BadLabel,
    DimCapExceeded,
    NotScalar,
    ShapeMismatch,
)
from hopfgal.exactfield import P_MAX
from hopfgal.speclab import sl2_algebra


def sl2(p=3):
    # basis order (e, h, f): [e,f]=h, [h,e]=2e, [h,f]=-2f
    n = 3
    c = np.zeros((n, n, n), dtype=np.int64)
    E, H, F = 0, 1, 2
    c[E, F, H], c[F, E, H] = 1, -1
    c[H, E, E], c[E, H, E] = 2, -2
    c[H, F, F], c[F, H, F] = -2, 2
    P = np.zeros((n, n), dtype=np.int64)
    P[H, H] = 1
    return resliealg.RestrictedLie(p, c, P, labels=["e", "h", "f"])


def borel(p=3):
    # basis order (h, e): [h,e]=e, pmap h->h, e->0
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 1], c[1, 0, 1] = 1, -1
    P = np.zeros((2, 2), dtype=np.int64)
    P[0, 0] = 1
    return resliealg.RestrictedLie(p, c, P, labels=["h", "e"])


def test_restricted_verify_sl2_and_abelian():
    assert resliealg.restricted_verify(sl2(3)) == []
    assert resliealg.restricted_verify(sl2(5)) == []
    assert resliealg.restricted_verify(borel(3)) == []
    abelian = resliealg.RestrictedLie(3, np.zeros((2, 2, 2)), np.zeros((2, 2)))
    assert resliealg.restricted_verify(abelian) == []


def test_restricted_verify_catches_bad_pmap():
    L = sl2(3)
    bad = resliealg.RestrictedLie(3, L.bracket, np.zeros((3, 3)),
                                  labels=["e", "h", "f"])
    msgs = resliealg.restricted_verify(bad)
    assert any("p-operation" in m for m in msgs)


def test_restricted_verify_catches_broken_jacobi():
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0], c[1, 0, 0] = 1, -1
    c[0, 1, 1], c[1, 0, 1] = 0, 0
    # [h,e]=h is antisymmetric but fails restrictedness/Jacobi combinations
    bad = resliealg.RestrictedLie(3, c, np.zeros((2, 2)))
    # Jacobi on 2-dim algebras always holds; break antisymmetry instead
    c2 = c.copy()
    c2[1, 0, 0] = 1
    bad2 = resliealg.RestrictedLie(3, c2, np.zeros((2, 2)))
    assert any("antisym" in m for m in resliealg.restricted_verify(bad2))


def _restricted_verify_by_loops(L, max_reports):
    """restricted_verify as Python loops over basis triples and single
    generators, the reference of its vectorized form."""
    p, n, c = L.p, L.dim, L.bracket
    out = []
    if np.any((c + c.transpose(1, 0, 2)) % p):
        out.append("bracket is not antisymmetric")
    for i in range(n):
        if np.any(c[i, i] % p):
            out.append(f"[e_{i}, e_{i}] is nonzero")
            break
    for i, j, m in itertools.product(range(n), repeat=3):
        term = np.zeros(n, dtype=np.int64)
        for t in range(n):
            term = (term + c[i, j, t] * c[t, m] + c[j, m, t] * c[t, i]
                    + c[m, i, t] * c[t, j]) % p
        if term.any():
            out.append(f"Jacobi identity fails at ({i},{j},{m})")
            if len(out) >= max_reports:
                return out
    for i in range(n):
        A = L.ad_matrix(i)
        Ap = A
        for _ in range(p - 1):
            Ap = (Ap @ A) % p
        target = np.zeros((n, n), dtype=np.int64)
        for m in range(n):
            target = (target + L.pmap[i, m] * L.ad_matrix(m)) % p
        if np.any((Ap - target) % p):
            out.append(f"p-operation incompatible with ad powers at e_{i}")
    return out


def test_restricted_verify_matches_the_loop_reference():
    rng = np.random.default_rng(113)
    for trial in range(120):
        p, n = int(rng.choice([2, 3, 5, 7])), int(rng.integers(1, 5))
        c = rng.integers(0, p, (n, n, n)) * (rng.random((n, n, n)) < 0.3)
        if trial % 2:
            c = (c - c.transpose(1, 0, 2)) % p
        P = rng.integers(0, p, (n, n)) * (rng.random((n, n)) < 0.5)
        L = resliealg.RestrictedLie(p, c, P)
        reports = int(rng.integers(1, 25))
        assert (resliealg.restricted_verify(L, reports)
                == _restricted_verify_by_loops(L, reports)), trial
    for L in (sl2(3), sl2(5), borel(3), sl2_algebra(7)):
        assert resliealg.restricted_verify(L) == []
        assert _restricted_verify_by_loops(L, 20) == []


def test_uenv_normalize_straightening():
    L = sl2(3)
    f = L.field
    # f*e = ef - h
    r = resliealg.uenv_normalize(L, [2, 0])
    assert r.terms == {(1, 0, 1): f.one, (0, 1, 0): f.scalar(-1)}
    # h*e = eh + 2e
    r = resliealg.uenv_normalize(L, [1, 0])
    assert r.terms == {(1, 1, 0): f.one, (1, 0, 0): f.scalar(2)}
    # e*e = e^2 stays put
    r = resliealg.uenv_normalize(L, [0, 0])
    assert r.terms == {(2, 0, 0): f.one}


def test_uenv_normalize_matches_rewriter_oracle():
    rng = random.Random(0)
    for L in (sl2(3), borel(3), sl2(5)):
        for _ in range(100):
            length = rng.randrange(0, 7)
            word = [rng.randrange(L.dim) for _ in range(length)]
            a = resliealg.uenv_normalize(L, word)
            b = resliealg._rewriter_normalize(L, word, strategy="first")
            c = resliealg._rewriter_normalize(L, word, strategy="last")
            assert a.terms == b.terms == c.terms, word


def test_word_length_guard():
    L = sl2(3)
    with pytest.raises(ShapeMismatch):
        resliealg.uenv_normalize(L, [0] * 33)


def test_central_elements_commute_in_uenv():
    # z_i = e_i^p - e_i^[p] commutes with every generator in U(L)
    for L, p in ((sl2(3), 3), (borel(3), 3), (sl2(5), 5), (borel(5), 5)):
        eng = resliealg._Engine(L, L.field)
        for i in range(L.dim):
            alpha = tuple(p if t == i else 0 for t in range(L.dim))
            z = {alpha: eng.cone}
            for m in range(L.dim):
                if L.pmap[i, m]:
                    delta = tuple(1 if t == m else 0 for t in range(L.dim))
                    z = eng._axpy(z, eng.cneg(eng.cfrom(L.pmap[i, m])),
                                  {delta: eng.cone})
            for j in range(L.dim):
                left = eng.rmul_elem(dict(z), j)
                ej = tuple(1 if t == j else 0 for t in range(L.dim))
                right = eng.multiply({ej: eng.cone}, z)
                diff = eng._axpy(dict(left), eng.cneg(eng.cone), right)
                assert diff == {}, (L.labels, i, j)


def test_fiber_dimension_and_verify():
    L = sl2(3)
    f = Field(3)
    for lam in ([0, 0, 0], [0, 0, 1], [1, 0, 0], [2, 1, 2]):
        F = resliealg.Fiber(L, resliealg.FiberPoint.make(f, lam))
        assert F.dim == 27
        assert fdalg.algebra_verify(F.alg) == []


def test_fiber_over_extension_field():
    L = sl2(3)
    f9 = Field(3, 2)
    a = f9.scalar((0, 1))
    F = resliealg.Fiber(L, resliealg.FiberPoint.make(f9, [a, 0, 1]))
    assert fdalg.algebra_verify(F.alg) == []
    # e^3 = lambda_e * 1 in the fiber
    e = F.alg.basis_vector(F.index[(1, 0, 0)])
    cube = F.alg.power(e, 3)
    expected = ar.zeros(f9, (27,))
    expected[0] = np.array(a.coeffs, dtype=np.int64)
    assert np.array_equal(cube, expected)


def test_fiber_h_cube_relation():
    # h^3 = h + lambda_h in U_lambda since h^[3] = h
    L = sl2(3)
    f = Field(3)
    F = resliealg.Fiber(L, resliealg.FiberPoint.make(f, [0, 2, 0]))
    h = F.alg.basis_vector(F.index[(0, 1, 0)])
    cube = F.alg.power(h, 3)
    expected = ar.zeros(f, (27,))
    expected[0, 0] = 2
    expected[F.index[(0, 1, 0)], 0] = 1
    assert np.array_equal(cube, expected)


def test_dim_cap():
    abelian6 = resliealg.RestrictedLie(3, np.zeros((6, 6, 6)),
                                       np.zeros((6, 6)))
    f = Field(3)
    with pytest.raises(DimCapExceeded):
        resliealg.Fiber(abelian6, resliealg.FiberPoint.make(f, [0] * 6))


def coords(F, elem):
    """Coordinates (dim, k) of a fully reduced engine element."""
    out = ar.zeros(F.field, (F.dim,))
    for alpha, c in elem.items():
        assert max(alpha) < F.L.p, "element is not reduced"
        out[F.index[alpha]] = (c,) if F.field.k == 1 else c
    return out


def assert_engine_products(F, pairs):
    """F.alg.mul[a, b] is the straightening engine's e^alpha e^beta."""
    eng = F.engine
    for a, b in pairs:
        elem = eng.mul_label({F.labels[a]: eng.cone}, F.labels[b])
        assert np.array_equal(F.alg.mul[a, b], coords(F, elem)), \
            (F.point.values, F.labels[a], F.labels[b])


def all_pairs(F):
    return [(a, b) for a in range(F.dim) for b in range(F.dim)]


def test_fiber_build_matches_engine_sl2_p3():
    f = Field(3)
    for lam in ([0, 0, 1], [1, 0, 0], [0, 0, 0]):  # regular, cone, zero
        F = resliealg.Fiber(sl2(3), resliealg.FiberPoint.make(f, lam))
        assert_engine_products(F, all_pairs(F))


def test_fiber_build_matches_engine_sl2_f9():
    # one point per stratum and splitting degree, on the (e, f, h) basis
    f9 = Field(3, 2)
    L = sl2_algebra(3)
    for lam in ([[0, 0], [0, 0], [0, 1]], [[1, 2], [0, 2], [0, 0]],
                [[0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0]]):
        F = resliealg.Fiber(L, resliealg.FiberPoint.make(f9, lam))
        assert_engine_products(F, all_pairs(F))


def test_fiber_build_matches_engine_borel():
    for p in (3, 5):
        f = Field(p)
        for lam in ([0, 0], [1, 0], [p - 1, 2]):
            F = resliealg.Fiber(borel(p),
                               resliealg.FiberPoint.make(f, lam))
            assert_engine_products(F, all_pairs(F))


def test_fiber_build_matches_engine_one_generator_p101():
    # x^[p] = x, so x^p = x + lambda: products wrap around at exponent p
    p = 101
    L = resliealg.RestrictedLie(p, np.zeros((1, 1, 1)), np.ones((1, 1)))
    F = resliealg.Fiber(L, resliealg.FiberPoint.make(Field(p), [7]))
    assert F.dim == p
    assert_engine_products(F, all_pairs(F))


def test_fiber_build_matches_engine_sl2_p5_seeded_pairs():
    rng = random.Random(5)
    f = Field(5)
    for lam in ([1, 2, 3], [0, 0, 1]):
        F = resliealg.Fiber(sl2(5), resliealg.FiberPoint.make(f, lam))
        pairs = [(rng.randrange(F.dim), rng.randrange(F.dim))
                 for _ in range(300)]
        assert_engine_products(F, pairs + [(F.dim - 1, F.dim - 1)])


@pytest.mark.parametrize("p, lam", [(3, [1, 2, 0]), (5, [1, 2, 3]),
                                    (7, [1, 2, 3])])
def test_generator_matrices_match_mul_label(p, lam):
    """Row delta_i of the structure constants is Lambda_i, left
    multiplication by e_i: it matches e_i e^beta from `mul_label` on every
    beta, as the generator matrices were first built."""
    f = Field(p)
    L = sl2(p)
    labels = resliealg.pbw_labels(p, 3)
    engine = resliealg._Engine(L, f, lam=lam)
    step = resliealg._structure_rows(engine, labels)
    rows = {0: step(None, 0)}
    index = {a: i for i, a in enumerate(labels)}
    for i in range(3):
        delta = tuple(int(t == i) for t in range(3))
        want = sorted((b * len(labels) + index[t], c)
                      for b, beta in enumerate(labels)
                      for t, c in engine.mul_label({delta: 1}, beta).items())
        cells, vals = step(rows.get, index[delta])
        assert cells.tolist() == [c for c, _ in want]
        assert vals[:, 0].tolist() == [v for _, v in want]


def test_fiber_build_matches_engine_four_generators():
    # sl2 + a central x with x^[p] = x: a parent row lies up to p^3 = 27
    # rows back, the longest reach of the chain's kept rows
    p = 3
    L2 = sl2(p)
    c = np.zeros((4, 4, 4), dtype=np.int64)
    c[:3, :3, :3] = L2.bracket
    P = np.zeros((4, 4), dtype=np.int64)
    P[:3, :3] = L2.pmap
    P[3, 3] = 1
    L = resliealg.RestrictedLie(p, c, P, labels=["e", "h", "f", "x"])
    rng = random.Random(4)
    for lam in ([1, 0, 0, 2], [0, 0, 0, 0]):
        F = resliealg.Fiber(L, resliealg.FiberPoint.make(Field(p), lam))
        pairs = [(rng.randrange(F.dim), rng.randrange(F.dim))
                 for _ in range(300)]
        assert_engine_products(F, pairs + [(F.dim - 1, F.dim - 1)])


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([Field(2), Field(3, 2), Field(5), Field(7, 3),
                              Field(509), Field(P_MAX)]),
       m=st.integers(1, 30), n=st.integers(1, 30),
       density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sparse_times_csr_matches_dense_product(field, m, n, density, seed):
    p, k = field.p, field.k
    rng = np.random.default_rng(seed)
    X = rng.integers(0, p, (m, n, k)) * (rng.random((m, n, 1)) < density)
    C = rng.integers(0, p, (n, n, k)) * (rng.random((n, n, 1)) < density)
    # X's cells in any order, C in CSR form
    xc = rng.permutation(np.flatnonzero(X.any(axis=2)))
    cc = np.flatnonzero(C.any(axis=2))
    csr = (np.searchsorted(cc // n, np.arange(n + 1)), cc % n,
           C.reshape(n * n, k)[cc])
    cells, vals = ar.sparse_times_csr(
        field, n, xc, X.reshape(m * n, k)[xc], csr)
    want = ar.fmatmul(field, X, C).reshape(m * n, k)
    nz = np.flatnonzero(want.any(axis=1))
    assert np.array_equal(cells, nz) and np.array_equal(vals, want[nz])


def key_sum_times_csr(field, n, cells, vals, csr):
    """X @ C by the generic path of `sparse_times_csr`: every term, equal
    cells summed by `sum_by_key`."""
    indptr, cols, cvals = csr
    r, t = np.divmod(cells, n)
    src, pos = ar.csr_expand(indptr, t)
    return ar.sum_by_key(field, r[src] * n + cols[pos],
                         ar.fmul(field, vals[src], cvals[pos]))


@pytest.mark.parametrize("field", [Field(5), Field(3, 2)])
@pytest.mark.parametrize("one_per_column", [True, False])
@pytest.mark.parametrize("m", [0, 1, 7, 40])
@pytest.mark.parametrize("seed", range(4))
def test_sparse_times_csr_matches_the_key_sum(field, one_per_column, m,
                                              seed):
    """The sort-only path (no column of C holds two entries) and the key-sum
    path agree with the generic key sum: cells sorted, distinct and
    nonzero.  X and C have empty rows; m = 0 is an empty X."""
    p, k = field.p, field.k
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))

    def nonzero(size):
        # the base-p digits of 1 .. p^k - 1: nonzero field elements
        return rng.integers(1, p ** k, size)[:, None] // p ** np.arange(k) % p

    if one_per_column:
        # column c is hit by at most one row, never by the last one
        hit = np.flatnonzero(rng.random(n) < 0.7)
        cc = np.sort(rng.integers(0, n - 1, hit.size) * n + hit)
    else:
        cc = np.flatnonzero(rng.random(n * n) < 0.3)
        cc = np.union1d(cc, [0, n])  # column 0 holds two entries
        cc = cc[cc // n != n - 1]    # the last row of C is empty
    csr = (np.searchsorted(cc // n, np.arange(n + 1)), cc % n,
           nonzero(cc.size))
    xc = np.flatnonzero(rng.random(m * n) < 0.4)
    xc = xc[xc // n != 0]            # the first row of X is empty
    xv = nonzero(xc.size)
    calls = []
    key_sum = ar.sum_by_key
    with mock.patch.object(ar, "sum_by_key",
                           lambda *a: calls.append(1) or key_sum(*a)):
        cells, vals = ar.sparse_times_csr(field, n, xc, xv, csr)
    assert len(calls) == (0 if one_per_column else 1)
    want_cells, want_vals = key_sum_times_csr(field, n, xc, xv, csr)
    assert np.array_equal(cells, want_cells)
    assert np.array_equal(vals, want_vals)
    assert cells.dtype == np.int64 and vals.shape == (cells.size, k)
    assert np.all(np.diff(cells) > 0) and vals.any(axis=1).all()


@pytest.mark.parametrize("kind, field, lam, stratum", [
    ("sl2", Field(3), [1, 2, 0], "regular"),
    ("sl2", Field(3), [1, 0, 0], "cone"),
    ("sl2", Field(3), [0, 0, 0], "zero"),
    ("sl2", Field(3, 2), [[0, 0], [0, 0], [0, 1]], "regular"),
    ("sl2", Field(3, 2), [[1, 0], [0, 0], [0, 0]], "cone"),
    ("sl2", Field(3, 2), [[0, 0], [0, 0], [0, 0]], "zero"),
    ("sl2", Field(5), [1, 2, 3], "regular"),
    ("sl2", Field(5), [0, 1, 0], "cone"),
    ("sl2", Field(5), [0, 0, 0], "zero"),
    ("borel", Field(3), [0, 0], None),
    ("borel", Field(3), [1, 0], None),
    ("borel", Field(3), [2, 2], None),
])
def test_fiber_rows_match_the_parent_chain(kind, field, lam, stratum):
    """Every row of the structure constants is its parent row times the
    generator row: e^alpha e^beta = e_i (e^(alpha - delta_i) e^beta), i the
    first nonzero exponent of alpha, by a dense product; the generator
    rows are the engine's products e_i e^beta."""
    p = field.p
    L = sl2_algebra(p) if kind == "sl2" else borel(p)
    point = resliealg.FiberPoint.make(field, lam)
    if stratum is not None:
        assert speclab.classify_point("sl2", point).tag == stratum
    F = resliealg.Fiber(L, point)
    mul, n = F.alg.mul, L.dim
    assert_engine_products(F, [(g, b) for g in F.alg.generators
                               for b in range(F.dim)])
    assert np.array_equal(mul[0], ar.identity(field, F.dim))
    for ia, alpha in enumerate(F.labels[1:], 1):
        i = next(t for t in range(n) if alpha[t])
        parent = F.index[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]
        want = ar.fmatmul(field, mul[parent], mul[F.alg.generators[i]])
        assert np.array_equal(mul[ia], want), alpha


def test_fiber_sums_keys_only_on_the_steps_by_f_and_h():
    """Lambda_e has at most one entry per column, so the steps by e (the
    labels with a nonzero e exponent) only sort their terms: the sl2 p = 3
    fiber sums keys on the p^2 - 1 steps by f and h alone."""
    L = sl2_algebra(3)
    assert L.labels[0] == "e"
    calls = []
    key_sum = ar.sum_by_key
    with mock.patch.object(ar, "sum_by_key",
                           lambda *a: calls.append(1) or key_sum(*a)):
        resliealg.Fiber(L, resliealg.FiberPoint.make(Field(3), [1, 2, 0]))
    assert len(calls) == 3 ** 2 - 1


def test_u_restricted_is_hopf():
    for L in (sl2(3), borel(3)):
        H, F = resliealg.u_restricted(L)
        assert hopf.hopf_verify(H) == []
        assert hopf.is_cocommutative(H)


def test_u_restricted_coproduct_binomials():
    L = sl2(3)
    H, F = resliealg.u_restricted(L)
    # Delta(e^2) = e^2 (x) 1 + 2 e (x) e + 1 (x) e^2
    i = F.index[(2, 0, 0)]
    d = H.comul.dense(27, 27)[i]
    nz = {(a, b): int(d[a, b, 0]) for a in range(27) for b in range(27)
          if d[a, b, 0]}
    assert nz == {
        (F.index[(2, 0, 0)], 0): 1,
        (F.index[(1, 0, 0)], F.index[(1, 0, 0)]): 2,
        (0, F.index[(2, 0, 0)]): 1,
    }


def test_u_restricted_antipode_top_sign():
    L = sl2(3)
    H, F = resliealg.u_restricted(L)
    top = F.index[(2, 2, 2)]
    # S on the top monomial has sign (-1)^6 = +1 on its leading coefficient
    assert H.antipode[top, top, 0] == 1


def test_chi_convention():
    f = Field(3)
    pt = resliealg.chi_convention(f, [0, 0, 0])
    assert pt.is_zero()
    pt = resliealg.chi_convention(f, [0, 0, 2])
    assert pt.values[2] == f.scalar(2)
    f9 = Field(3, 2)
    a = f9.scalar((0, 1))  # a^2 = -1 with the deterministic modulus T^2 + 1
    assert a * a == f9.scalar(-1)
    pt = resliealg.chi_convention(f9, [a, 0, 0])
    assert pt.values[0] == -a  # a^3 = a * a^2 = -a


def test_prop30_sigma_units():
    L = sl2(3)
    f = Field(3)
    F = resliealg.Fiber(L, resliealg.FiberPoint.make(f, [1, 0, 0]))
    assert resliealg.prop30_sigma(F, 0, 0) == f.one
    # sigma(x (x) 1) = eps(x), sigma(1 (x) y) = eps(y)
    for i in range(F.dim):
        expected = f.one if i == 0 else f.zero
        assert resliealg.prop30_sigma(F, i, 0) == expected
        assert resliealg.prop30_sigma(F, 0, i) == expected


def test_prop30_multiply_matches_structure_constants():
    L = sl2(3)
    f = Field(3)
    rng = random.Random(23)
    for lam in ([0, 0, 1], [1, 0, 0]):
        F = resliealg.Fiber(L, resliealg.FiberPoint.make(f, lam))
        cache = {}
        pairs = [(rng.randrange(27), rng.randrange(27)) for _ in range(40)]
        pairs += [(0, 5), (5, 0), (26, 26)]
        for i, j in pairs:
            got = resliealg.prop30_multiply(F, i, j, sigma_cache=cache)
            want = F.alg.multiply(F.alg.basis_vector(i), F.alg.basis_vector(j))
            assert np.array_equal(got, want), (lam, i, j)


def test_prop30_multiply_borel_exhaustive():
    L = borel(3)
    f = Field(3)
    F = resliealg.Fiber(L, resliealg.FiberPoint.make(f, [2, 1]))
    cache = {}
    for i in range(9):
        for j in range(9):
            got = resliealg.prop30_multiply(F, i, j, sigma_cache=cache)
            want = F.alg.multiply(F.alg.basis_vector(i), F.alg.basis_vector(j))
            assert np.array_equal(got, want), (i, j)


def test_prop30_multiply_at_zero_is_u_product():
    L = borel(3)
    f = Field(3)
    F = resliealg.Fiber(L, resliealg.FiberPoint.make(f, [0, 0]))
    cache = {}
    for i in range(9):
        for j in range(9):
            got = resliealg.prop30_multiply(F, i, j, sigma_cache=cache)
            want = F.alg.multiply(F.alg.basis_vector(i), F.alg.basis_vector(j))
            assert np.array_equal(got, want)


def test_serialization_round_trip():
    L = sl2(3)
    data = L.to_json()
    assert data["basis"] == ["e", "h", "f"]
    assert data["bracket"]["e,h"] == {"e": 1}  # [e,h] = -2e = e mod 3
    L2 = resliealg.RestrictedLie.from_json(data)
    assert np.array_equal(L2.bracket, L.bracket)
    assert np.array_equal(L2.pmap, L.pmap)


def test_from_json_spec_format():
    data = {"p": 3, "basis": ["e", "h", "f"],
            "bracket": {"e,f": {"h": 1}, "h,e": {"e": 2}, "h,f": {"f": -2}},
            "pmap": {"h": {"h": 1}}}
    L = resliealg.RestrictedLie.from_json(data)
    assert np.array_equal(L.bracket, sl2(3).bracket)
    assert np.array_equal(L.pmap, sl2(3).pmap)
    assert resliealg.restricted_verify(L) == []


def _binomial_tensor_loop(F):
    """The splitting tensor by a loop over every splitting of every label."""
    p, n = F.L.p, F.L.dim
    T = np.zeros((F.dim,) * 3 + (F.field.k,), dtype=np.int64)
    for ia, alpha in enumerate(F.labels):
        for beta in itertools.product(*[range(a + 1) for a in alpha]):
            coef = 1
            for t in range(n):
                coef = coef * math.comb(alpha[t], beta[t]) % p
            if coef:
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                T[ia, F.index[beta], F.index[gamma], 0] = coef
    return T


@pytest.mark.parametrize("lie, field, point", [
    (sl2(3), Field(3), [1, 0, 0]),
    (sl2(5), Field(5), [0, 0, 1]),
    (borel(5), Field(5), [2, 1]),
    (sl2(3), Field(3, 2), [0, 1, 0]),
])
def test_binomial_tensor_matches_splitting_loop(lie, field, point):
    F = resliealg.Fiber(lie, resliealg.FiberPoint.make(field, point))
    T = F.binomial_tensor()
    assert T.dtype == np.int64
    assert np.array_equal(T, _binomial_tensor_loop(F))


@pytest.mark.parametrize("lie, field, point", [
    (sl2(3), Field(3), [1, 0, 0]),
    (sl2(5), Field(5), [1, 2, 3]),
    (borel(3), Field(3), [1, 2]),
    (borel(3), Field(3, 2), [[1, 1], [0, 2]]),
])
def test_coproduct_and_coaction_terms_match_the_splitting_loop(lie, field,
                                                               point):
    """Delta of u(L) and the coaction of a fiber are held as terms whose
    dense view is the splitting loop's tensor, and the dense tensor read
    back gives the same terms."""
    H, F0 = resliealg.u_restricted(lie, field)
    want = _binomial_tensor_loop(F0)
    assert np.array_equal(H.comul.dense(F0.dim, F0.dim), want)
    F = resliealg.Fiber(lie, resliealg.FiberPoint.make(field, point))
    CA = resliealg.fiber_coaction(F, H)
    assert np.array_equal(CA.coaction.dense(F.dim, F0.dim),
                          _binomial_tensor_loop(F))
    back = hopf.Terms.of(field, want, want.shape[:3], "comul")
    assert all(np.array_equal(x, y) for x, y in zip(back, H.comul))


def _one_generator(p):
    # x^[p] = x: U_lambda = F_p[x] / (x^p - x - lambda)
    return resliealg.RestrictedLie(p, np.zeros((1, 1, 1)), np.ones((1, 1)),
                                   labels=["x"])


def _check_prop30_context(F, pairs, oracle=True):
    """Prop30Context against the dict engine on `pairs` (if `oracle`), and
    its products against the fiber's structure constants."""
    ctx = resliealg.Prop30Context(F)
    cache = {}
    for i, j in pairs:
        got = ctx.multiply(i, j)
        assert np.array_equal(got, F.alg.mul[i, j]), (i, j)
        if oracle:
            want = resliealg.prop30_sigma(F, i, j).coeffs
            assert (ctx.sigma_value(i, j),) == want, (i, j)
            eng = resliealg.prop30_multiply(F, i, j, sigma_cache=cache)
            assert np.array_equal(got, eng), (i, j)
    # a fresh context reached through products alone agrees as well
    fresh = resliealg.Prop30Context(F)
    for i, j in pairs:
        assert np.array_equal(fresh.multiply(i, j), F.alg.mul[i, j]), (i, j)
        assert fresh.sigma_value(i, j) == ctx.sigma_value(i, j)


def test_prop30_context_matches_engine_on_all_borel_f3_points():
    f = Field(3)
    pairs = [(i, j) for i in range(9) for j in range(9)]
    for point in itertools.product(range(3), repeat=2):
        F = resliealg.Fiber(borel(3),
                           resliealg.FiberPoint.make(f, point))
        _check_prop30_context(F, pairs)


def test_prop30_context_matches_engine_on_borel_p5():
    F = resliealg.Fiber(borel(5),
                       resliealg.FiberPoint.make(Field(5), [3, 2]))
    rng = random.Random(305)
    pairs = [(rng.randrange(25), rng.randrange(25)) for _ in range(8)]
    _check_prop30_context(F, pairs)
    _check_prop30_context(F, [(24, 24), (0, 24), (24, 0)], oracle=False)


def test_prop30_context_matches_engine_at_p101():
    F = resliealg.Fiber(
        _one_generator(101), resliealg.FiberPoint.make(Field(101), [1]))
    rng = random.Random(1101)
    small = [(rng.randrange(12), rng.randrange(12)) for _ in range(6)]
    _check_prop30_context(F, small)
    large = [(rng.randrange(20, 45), rng.randrange(20, 45)) for _ in range(3)]
    _check_prop30_context(F, large + [(100, 0), (0, 100), (100, 1), (1, 100)],
                          oracle=False)


_CONV_FIBERS = {}


def _conv_fiber(name):
    """A fiber and the operands of its sigma on the generic kernel: the
    splittings, the fiber's mul as heads and as m, and the tails
    gamma^{-1}(e^b e^d) from the dense u(L), all CSR."""
    if name not in _CONV_FIBERS:
        lie, p, point = {
            "borel3": (borel(3), 3, [1, 2]), "borel5": (borel(5), 5, [3, 2]),
            "sl2cone": (sl2(3), 3, [1, 0, 0]),
            "sl2regular": (sl2(3), 3, [0, 0, 1]),
            "one101": (_one_generator(101), 101, [1])}[name]
        f = Field(p)
        F = resliealg.Fiber(lie, resliealg.FiberPoint.make(f, point))
        N = F.dim
        U = resliealg.u_restricted(lie, f)[1].alg.mul
        tails = ar.fmatmul(f, U.reshape(N * N, N, 1),
                           resliealg._pbw_inverse_rows(F))
        terms = F.splittings()
        mul = ar.csr(F.alg.mul.reshape(N * N, N, 1))
        _CONV_FIBERS[name] = F, (terms, mul, ar.csr(tails), mul)
    return _CONV_FIBERS[name]


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["borel3", "borel5", "sl2cone", "sl2regular",
                             "one101"]),
       budget=st.sampled_from([hopf.CONV_CHUNK_TERMS, 1]),
       pairs=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.integers(0, 10 ** 6)), max_size=6))
def test_prop30_sigma_matches_the_generic_convolution(name, budget, pairs):
    """The two-pass sigma of Prop30Context on any pair list (repeats, any
    order, empty), at the default chunk budget and at one term per chunk,
    equals hopf.convolve_pairs on heads, tails and m = mul: a scalar, the
    same one."""
    F, (terms, heads, tails, mul) = _conv_fiber(name)
    N = F.dim
    x = np.array([i % N for i, _ in pairs], dtype=np.int64)
    y = np.array([j % N for _, j in pairs], dtype=np.int64)
    want = ar.zeros(F.field, (x.size, N))
    with mock.patch.object(hopf, "CONV_CHUNK_TERMS", budget):
        for lo, hi, vec in hopf.convolve_pairs(
                F.field, terms, heads, tails, mul, x, y, (N,) * 5):
            want[lo:hi] = vec
        ctx = resliealg.Prop30Context(F)
        ctx._evaluate(x, y)
    assert not want[:, 1:].any()
    assert np.array_equal(ctx.sigma[x, y], want[:, 0, 0])


def test_prop30_context_rejects_a_non_scalar_sigma():
    F = resliealg.Fiber(borel(3),
                       resliealg.FiberPoint.make(Field(3), [1, 2]))

    def corrupted():
        # the tail gamma^{-1}(e^(0,1) e^(0,0)) = -e^(0,1) of the term
        # (x_1, x_2) = (1, e^(0,1)) of sigma(e^(0,1), 1): once its label is
        # built, change its value
        ctx = resliealg.Prop30Context(F)
        ctx._build(np.array([F.index[(0, 0)], F.index[(0, 1)]]))
        lo, hi, cols, vals = ctx._rows
        row = (F.dim + F.index[(0, 1)]) * F.dim + F.index[(0, 0)]
        assert hi[row] - lo[row] == 1
        vals[lo[row]] = (vals[lo[row]] + 1) % 3
        return ctx

    x, one = F.index[(0, 1)], F.index[(0, 0)]
    with pytest.raises(NotScalar, match=r"sigma\(\(0, 1\),\(0, 0\)\)"):
        corrupted().sigma_value(x, one)
    with pytest.raises(NotScalar, match=r"sigma\(\(0, 1\),\(0, 0\)\)"):
        corrupted().multiply(x, one)
    # uncorrupted, the same pair is the counit value 0
    assert resliealg.Prop30Context(F).sigma_value(x, one) == 0


def test_prop30_context_leaves_a_non_scalar_top_up_pair_unevaluated():
    """sigma(e^(0,1), 1) is requested; the batch is topped up with the
    rest of row e^(0,1), whose pair with e^(1,0) is made non-scalar by a
    corrupted tail gamma^{-1}(e^(0,1) e^(1,0)), not read by the requested
    pair."""
    F = resliealg.Fiber(borel(3),
                       resliealg.FiberPoint.make(Field(3), [1, 2]))
    x, z, one = F.index[(0, 1)], F.index[(1, 0)], F.index[(0, 0)]
    ctx = resliealg.Prop30Context(F)
    # the tails are made per label: corrupt this one once it is built
    ctx._build(np.array([one, x]))
    lo, hi, cols, vals = ctx._rows
    row = (F.dim + x) * F.dim + z
    assert hi[row] > lo[row]
    vals[lo[row]] = (vals[lo[row]] + 1) % 3
    assert ctx.sigma_value(x, one) == 0
    assert ctx.sigma[x, z] == -1 and (ctx.sigma[x] >= 0).sum() > 1
    with pytest.raises(NotScalar, match=r"sigma\(\(0, 1\),\(1, 0\)\)"):
        ctx.sigma_value(x, z)


def test_prop30_context_rejects_labels_outside_the_basis():
    F = resliealg.Fiber(borel(3),
                       resliealg.FiberPoint.make(Field(3), [1, 2]))
    N = F.dim
    ctx = resliealg.Prop30Context(F)
    # with row N - 1 evaluated, -1 must not wrap around to it
    ctx.multiply(N - 1, N - 1)
    for i, j in [(-1, 0), (0, -1), (N, 0), (0, N), (1.0, 0), (True, 0),
                 (0, False), (np.True_, 0), (0, np.False_)]:
        with pytest.raises(BadLabel):
            ctx.sigma_value(i, j)
        with pytest.raises(BadLabel):
            ctx.multiply(i, j)
    assert ctx.sigma_value(np.int64(N - 1), 0) == \
        resliealg.prop30_sigma(F, N - 1, 0).coeffs[0]


@pytest.mark.parametrize("cells", [1, 3000])
def test_prop30_context_chunking_does_not_change_results(monkeypatch, cells):
    F = resliealg.Fiber(sl2(3),
                       resliealg.FiberPoint.make(Field(3), [1, 0, 0]))
    ctx = resliealg.Prop30Context(F)
    want_sigma = np.array([[ctx.sigma_value(i, j) for j in range(27)]
                           for i in range(27)])
    want = [ctx.multiply(i, j) for i in range(27) for j in range(27)]
    monkeypatch.setattr(hopf, "CONV_CHUNK_TERMS", cells)
    ctx = resliealg.Prop30Context(F)
    got = [ctx.multiply(i, j) for i in range(27) for j in range(27)]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(ctx.sigma, want_sigma)


def _inverse_rows_by_engine(F):
    """gamma^{-1}(e^alpha) by the dict engine: the reversed signed product
    (-1)^|alpha| e_n^{a_n} ... e_1^{a_1} of every label, reduced in
    U_lambda."""
    eng = F.engine
    inv = ar.zeros(F.field, (F.dim, F.dim))
    for ia, alpha in enumerate(F.labels):
        elem = eng.unit()
        for j in range(F.L.dim - 1, -1, -1):
            for _ in range(alpha[j]):
                elem = eng.rmul_elem(elem, j)
        if sum(alpha) % 2:
            elem = eng.scale(elem, eng.cneg(eng.cone))
        inv[ia] = coords(F, elem)
    return inv


def test_inverse_rows_are_swept_once_per_fiber():
    """The gamma^{-1} rows, a chain of left products by the fiber's own
    generator rows, equal the engine's reversed products; they are made
    once per fiber, shared and read-only."""
    for lie, field, point in [(sl2(3), Field(3), [0, 0, 1]),
                              (sl2(3), Field(3, 2), [(1, 2), 0, (0, 1)]),
                              (sl2(5), Field(5), [1, 2, 3]),
                              (borel(3), Field(3), [1, 2]),
                              (borel(5), Field(5), [3, 2])]:
        F = resliealg.Fiber(lie, resliealg.FiberPoint.make(field, point))
        sp = resliealg.pbw_splitting(F)
        inv = resliealg._pbw_inverse_rows(F)
        assert sp.inverse.matrix is inv and not inv.flags.writeable
        assert np.array_equal(inv, _inverse_rows_by_engine(F)), point
        if field.k == 1:
            ctx = resliealg.Prop30Context(F)
            assert resliealg._pbw_inverse_rows(F) is inv
            assert ctx.multiply(5, 7).tolist() == F.alg.mul[5, 7].tolist()


def test_prop30_context_holds_u_only_as_sparse_rows():
    F = resliealg.Fiber(sl2(5), resliealg.FiberPoint.make(Field(5), [1, 2, 3]))
    N = F.dim
    tracemalloc.start()
    try:
        ctx = resliealg.Prop30Context(F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense u(L) alone is N^3 int64 cells
    assert peak < N ** 3 * 8
    assert 0 < _largest_array(vars(ctx)) < N ** 3
    for i, j in [(N - 1, 0), (31, 93), (0, N - 1)]:
        assert np.array_equal(ctx.multiply(i, j), F.alg.mul[i, j]), (i, j)


def _largest_array(obj):
    """The size of the largest array in obj, a dict, tuple or list of them
    (such as vars() of a context), searched to any depth."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return max(map(_largest_array, obj), default=0)
    return 0


def test_prop30_product_of_two_top_labels_at_p5():
    """The product of two top labels needs every sigma pair (3,375^2 term
    pairs at p = 5): exact, and with no N^3 array at any point."""
    F = resliealg.Fiber(sl2(5), resliealg.FiberPoint.make(Field(5), [1, 2, 3]))
    N = F.dim
    tracemalloc.start()
    try:
        ctx = resliealg.Prop30Context(F)
        got = ctx.multiply(N - 1, N - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, F.alg.mul[N - 1, N - 1])
    assert (ctx.sigma >= 0).all()
    assert peak < N ** 3 * 8
    assert 0 < _largest_array(vars(ctx)) < N ** 3
