"""Tests for the built-in examples, fiber reports, and the scanner."""

import itertools
import json
import math
import sys

import numpy as np
import pytest

from hopfgal import _arrays as ar
from hopfgal import cli, fdalg
from hopfgal.errors import (
    BadPrime,
    PremiseFailed,
    RelationCheckFailed,
    TooManyPoints,
    UnknownKind,
)
from hopfgal.exactfield import Field
from hopfgal.fdalg import Subspace, radical, subalgebra_on
from hopfgal.galois import ComoduleAlgebra, frobenius_form
from hopfgal.hopf import cyclic_group_table, group_algebra, left_integral_dual
from hopfgal.resliealg import (
    Fiber,
    FiberPoint,
    RestrictedLie,
    restricted_verify,
    u_restricted,
)
from hopfgal import speclab as sl
from oracles import (
    matrix_algebra_rank,
    sl2_central_elements_by_products,
    sl2_eq4_by_products,
)


# ---------------------------------------------------------------------------
# built-in algebras
# ---------------------------------------------------------------------------

def test_sl2_structure():
    L = sl.sl2_algebra(3)
    assert L.dim == 3 and restricted_verify(L) == []
    assert list(L.labels) == ["e", "f", "h"]
    # [e,f] = h
    assert L.bracket[0, 1, 2] == 1
    # h^[p] = h, e and f have trivial p-power
    assert L.pmap[2, 2] == 1 and not L.pmap[0].any() and not L.pmap[1].any()


def test_sl2_bad_prime():
    with pytest.raises(BadPrime):
        sl.sl2_algebra(2)


def test_borel_structure():
    L = sl.borel_algebra(5)
    assert L.dim == 2 and restricted_verify(L) == []
    assert L.bracket[0, 1, 1] == 1 and L.pmap[0, 0] == 1
    with pytest.raises(BadPrime):
        sl.borel_algebra(2)


def test_builtin_algebra_self_check_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(sl, "restricted_verify", lambda L: ["broken"])
    for build in (sl.sl2_algebra, sl.borel_algebra):
        with pytest.raises(PremiseFailed):
            build(3)


def test_lie_kind():
    assert sl.lie_kind(sl.sl2_algebra(3)) == "sl2"
    assert sl.lie_kind(sl.borel_algebra(3)) == "borel"


def test_lie_kind_compares_tables_without_verifying(monkeypatch):
    """lie_kind answers as a comparison with the built, verified algebra
    would, and makes no restricted_verify call; each sl2_algebra call
    hands back its own tables."""
    bent = sl.sl2_algebra(5).bracket.copy()
    bent[0, 1, 2] = 2
    cases = ([sl.sl2_algebra(p) for p in (3, 5, 7)]
             + [sl.borel_algebra(p) for p in (3, 5)]
             + [RestrictedLie(5, bent, sl.sl2_algebra(5).pmap),
                RestrictedLie(3, np.zeros((3, 3, 3)), np.zeros((3, 3))),
                RestrictedLie(3, sl.borel_algebra(3).bracket,
                              np.zeros((2, 2))),
                RestrictedLie(3, np.zeros((1, 1, 1)), np.eye(1)),
                RestrictedLie(3, np.zeros((4, 4, 4)), np.zeros((4, 4)))])

    def by_building(L):
        build = {3: sl.sl2_algebra, 2: sl.borel_algebra}.get(L.dim)
        ref = build(L.p) if build else None
        if (ref is not None and np.array_equal(L.bracket, ref.bracket)
                and np.array_equal(L.pmap, ref.pmap)):
            return {3: "sl2", 2: "borel"}[L.dim]
        return None

    want = [by_building(L) for L in cases]
    assert want == ["sl2"] * 3 + ["borel"] * 2 + [None] * 5
    calls = []
    monkeypatch.setattr(sl, "restricted_verify",
                        lambda L: calls.append(L) or [])
    assert [sl.lie_kind(L) for L in cases] == want
    assert calls == []
    assert sl.sl2_algebra(3).bracket is not sl.sl2_algebra(3).bracket


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------

def test_classify_point_examples():
    f = Field(3)
    assert sl.classify_point("sl2", FiberPoint.make(f, (0, 0, 1))).tag == "regular"
    assert sl.classify_point("sl2", FiberPoint.make(f, (1, 0, 0))).tag == "cone"
    assert sl.classify_point("sl2", FiberPoint.make(f, (0, 0, 0))).tag == "zero"
    # z^2 = 4xy with a nonzero point
    assert sl.classify_point("sl2", FiberPoint.make(f, (1, 1, 2))).tag == "cone"


def test_classify_point_unknown_kind():
    f = Field(3)
    with pytest.raises(UnknownKind):
        sl.classify_point("borel", FiberPoint.make(f, (0, 0)))


# ---------------------------------------------------------------------------
# central elements and the degree-p relation
# ---------------------------------------------------------------------------

def test_central_elements_evaluate_to_the_point():
    f = Field(3)
    F = Fiber(sl.sl2_algebra(3), FiberPoint.make(f, (2, 1, 1)))
    ce = sl.sl2_central_elements(F)
    assert (ce.x, ce.y, ce.z) == F.point.values


def test_central_element_t_coefficients():
    # at lambda = 0 the element (h+1)^2 - 4ef has the PBW coefficients
    # 1 on the unit, 2h, h^2, and -4 ef
    f = Field(3)
    F = Fiber(sl.sl2_algebra(3), FiberPoint.make(f, (0, 0, 0)))
    ce = sl.sl2_central_elements(F)
    expect = np.zeros((27, 1), dtype=np.int64)
    expect[F.index[(0, 0, 0)], 0] = 1
    expect[F.index[(0, 0, 1)], 0] = 2
    expect[F.index[(0, 0, 2)], 0] = 1
    expect[F.index[(1, 1, 0)], 0] = (-4) % 3
    assert np.array_equal(ce.t_vec, expect)


F9 = Field(3, 2)
# the SCAN_REPS points of the benchmark's F_9 scan, one per stratum and
# splitting degree
F9_POINTS = [((0, 0), (0, 0), (0, 1)), ((1, 2), (0, 2), (0, 0)),
             ((0, 0), (0, 0), (1, 0)), ((1, 0), (0, 0), (0, 0)),
             ((0, 0), (0, 0), (0, 0))]
CENTRAL_POINTS = (
    [(Field(3), pt) for pt in itertools.product(range(3), repeat=3)]
    + [(F9, pt) for pt in F9_POINTS]
    + [(Field(5), pt) for pt in ((0, 0, 1), (1, 2, 3), (1, 0, 0), (0, 0, 0))]
    + [(Field(7), (1, 2, 3))])


@pytest.mark.parametrize("field, point", CENTRAL_POINTS,
                         ids=[f"{f}-{pt}" for f, pt in CENTRAL_POINTS])
def test_central_elements_match_the_product_route(field, point):
    # rows of mul, the slices of L_t and the commutator rows of t give
    # bit for bit what vector powers and operator products give
    F = Fiber(sl.sl2_algebra(field.p), FiberPoint.make(field, point))
    ce = sl.sl2_central_elements(F)
    x, y, z, t_vec, t_op = sl2_central_elements_by_products(F)
    assert (ce.x, ce.y, ce.z) == (x, y, z)
    for got, want in ((ce.t_vec, t_vec), (ce.t_op, t_op)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    passed, _ = sl.sl2_eq4_check(F)
    assert passed == sl2_eq4_by_products(F)


def test_eq4_fails_for_a_wrong_constant(monkeypatch):
    # m(t) = 0 must see the constant term: with z = 0 read as 1,
    # z^2 - 4xy moves by 1 and eq. 4 fails
    f = Field(3)
    F = Fiber(sl.sl2_algebra(3), FiberPoint.make(f, (1, 2, 0)))
    ce = sl.sl2_central_elements(F)
    wrong = sl.CentralElements(ce.x, ce.y, ce.z + f.one, ce.t_vec, ce.t_op)
    monkeypatch.setattr(sl, "sl2_central_elements", lambda F: wrong)
    assert not sl.sl2_eq4_check(F)[0]


def test_eq4_regular_has_p_distinct_roots():
    f = Field(3)
    F = Fiber(sl.sl2_algebra(3), FiberPoint.make(f, (0, 0, 1)))
    passed, profile = sl.sl2_eq4_check(F)
    assert passed
    assert [m for _, m in profile] == [1, 1, 1]
    assert len({r.coeffs for r, _ in profile}) == 3


def test_eq4_cone_root_profile():
    f = Field(3)
    F = Fiber(sl.sl2_algebra(3), FiberPoint.make(f, (1, 0, 0)))
    passed, profile = sl.sl2_eq4_check(F)
    assert passed
    assert [(str(r), m) for r, m in profile] == [("0", 1), ("1", 2)]


def test_eq4_random_points_over_f9():
    f = Field(3, 2)
    L = sl.sl2_algebra(3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        vals = [f.scalar(tuple(int(c) for c in rng.integers(0, 3, size=2)))
                for _ in range(3)]
        F = Fiber(L, FiberPoint(f, tuple(vals)))
        assert sl.sl2_eq4_check(F)[0]


# ---------------------------------------------------------------------------
# fiber reports
# ---------------------------------------------------------------------------

def test_fiber_report_regular():
    f = Field(3)
    r = sl.fiber_report(sl.sl2_algebra(3), FiberPoint.make(f, (0, 0, 1)))
    assert r.stratum == "regular" and r.dim == 27
    assert r.semisimple and r.blocks == 3 and r.simple_dims == [3, 3, 3]
    assert r.center_dim == 3 and r.radical_dim == 0
    assert r.frobenius_rank == 27 and r.frobenius_symmetric
    assert r.eq4_pass and r.splitting_degree == 3


def test_fiber_report_cone():
    f = Field(3)
    r = sl.fiber_report(sl.sl2_algebra(3), FiberPoint.make(f, (1, 0, 0)))
    assert r.stratum == "cone"
    assert r.blocks == 2 and r.simple_dims == [3, 3]
    assert not r.semisimple and r.radical_dim > 0
    assert r.frobenius_rank == 27 and r.frobenius_symmetric and r.eq4_pass


def test_fiber_report_zero():
    f = Field(3)
    r = sl.fiber_report(sl.sl2_algebra(3), FiberPoint.make(f, (0, 0, 0)))
    assert r.stratum == "zero"
    assert r.blocks == 2 and r.simple_dims == [1, 2, 3]
    assert r.radical_dim > 0 and r.center_dim == 4


def test_cone_reports_agree_up_to_the_point():
    f = Field(3)
    L = sl.sl2_algebra(3)
    a = sl.fiber_report(L, FiberPoint.make(f, (1, 0, 0)))
    b = sl.fiber_report(L, FiberPoint.make(f, (1, 1, 2)))
    for name in sl.REPORT_FIELDS:
        if name == "point":
            assert a.point != b.point
        else:
            assert getattr(a, name) == getattr(b, name), name


def test_fiber_report_borel_has_no_sl2_entries():
    f = Field(3)
    r = sl.fiber_report(sl.borel_algebra(3), FiberPoint.make(f, (1, 0)))
    assert r.stratum is None and r.eq4_pass is None
    assert r.dim == 9 and r.frobenius_rank == 9


def test_fiber_report_json_roundtrip_fields():
    f = Field(3)
    r = sl.fiber_report(sl.borel_algebra(3), FiberPoint.make(f, (0, 0)))
    data = r.to_json()
    assert list(data) == list(sl.REPORT_FIELDS)
    assert data["point"] == [0, 0]
    assert len(r.csv_row()) == len(sl.REPORT_FIELDS)


# the general route: u(L), the integral of its dual, and galois.frobenius_form
# on the fiber coaction
_HOPF_ROUTE = {}


def _hopf_route(kind, field):
    key = (kind, field.order)
    if key not in _HOPF_ROUTE:
        L = sl.sl2_algebra(field.p) if kind == "sl2" else \
            sl.borel_algebra(field.p)
        H, _ = u_restricted(L, field)
        _HOPF_ROUTE[key] = L, H, left_integral_dual(H)
    return _HOPF_ROUTE[key]


FORM_FIBERS = (
    [("sl2", Field(3), pt) for pt in itertools.product(range(3), repeat=3)]
    + [("borel", Field(3), pt) for pt in itertools.product(range(3), repeat=2)]
    + [("sl2", F9, pt) for pt in F9_POINTS]
    + [("sl2", Field(5), pt)
       for pt in ((0, 0, 1), (1, 2, 3), (1, 0, 0), (0, 0, 0))]
    + [("borel", Field(5), pt) for pt in ((0, 0), (1, 0), (2, 3))])


@pytest.mark.parametrize("kind, field, point", FORM_FIBERS,
                         ids=[f"{k}-{f}-{pt}" for k, f, pt in FORM_FIBERS])
def test_fiber_frobenius_form_matches_the_integral_route(kind, field, point):
    # the slice mul[:, :, top] is E(x y), E from u(L)'s dual integral,
    # bit for bit and dtype included
    L, H, lam = _hopf_route(kind, field)
    F = Fiber(L, FiberPoint.make(field, point))
    want = frobenius_form(ComoduleAlgebra(F.alg, H, F.splittings(),
                                          check=False), lam).matrix
    got = sl.fiber_frobenius_form(F).matrix
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["sl2", "borel"])
@pytest.mark.parametrize("field", [Field(3), F9, Field(5)], ids=str)
def test_the_dual_integral_of_u_l_is_the_top_coefficient(kind, field):
    _, H, lam = _hopf_route(kind, field)
    top = ar.zeros(field, (H.dim,))
    top[H.dim - 1, 0] = 1
    assert np.array_equal(lam.functional, top)


def test_reports_build_no_hopf_algebra(monkeypatch, tmp_path, capsys):
    # fiber_report, scan and `hopfgal frobenius` read the form off mul:
    # they run with the general route refused wherever it is bound
    def refuse(*args, **kwargs):
        raise AssertionError("the report built u(L) or its dual integral")

    for name, mod in list(sys.modules.items()):
        if name == "hopfgal" or name.startswith("hopfgal."):
            for fn in ("u_restricted", "left_integral_dual",
                       "frobenius_form"):
                if hasattr(mod, fn):
                    monkeypatch.setattr(mod, fn, refuse)
    f = Field(3)
    L = sl.sl2_algebra(3)
    r = sl.fiber_report(L, FiberPoint.make(f, (1, 2, 0)))
    assert r.frobenius_rank == 27 and r.frobenius_symmetric
    res = sl.scan(sl.borel_algebra(3), f, points=[(1, 0), (0, 1)])
    assert [r.frobenius_rank for r in res.reports] == [9, 9]
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(L.to_json()))
    assert cli.main(["frobenius", "--lie", str(path), "--lambda",
                     "1,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 27


# ---------------------------------------------------------------------------
# the scanner
# ---------------------------------------------------------------------------

def test_scan_borel_full_field():
    f = Field(3)
    res = sl.scan(sl.borel_algebra(3), f)
    assert len(res.reports) == 9
    # lexicographic order on the coordinates
    pts = [tuple(str(s) for s in r.point) for r in res.reports]
    assert pts == sorted(pts)
    assert pts[0] == ("0", "0") and pts[1] == ("0", "1")
    assert res.center_dims == [1] and res.center_dim_constant
    # u(b) at the origin is a product of p one-dimensional algebras
    assert res.reports[0].simple_dims == [1, 1, 1]
    # simple-module counts divide the count for u(b)
    assert all(len(r.simple_dims) in (1, 3) for r in res.reports)


def test_scan_explicit_points_sorted():
    f = Field(3)
    res = sl.scan(sl.borel_algebra(3), f, points=[(1, 0), (0, 1)])
    pts = [tuple(str(s) for s in r.point) for r in res.reports]
    assert pts == [("0", "1"), ("1", "0")]


def test_scan_too_many_points():
    with pytest.raises(TooManyPoints):
        sl.scan(sl.borel_algebra(3), Field(3, 5))


# ---------------------------------------------------------------------------
# baby-Verma oracle
# ---------------------------------------------------------------------------

def _head_dims(p, lam):
    """Dimensions of the largest semisimple quotients of the p-dimensional
    modules produced by the oracle, one per weight."""
    dims = set()
    for w in sl.baby_verma_weights(p, lam):
        bv = sl.baby_verma_oracle(p, lam, w)
        f = bv.field
        # the generated subalgebra of p x p matrices, as an abstract algebra
        n = p * p
        mats = [bv.e_mat, bv.f_mat, bv.h_mat]
        ident = ar.zeros(f, (p, p))
        for i in range(p):
            ident[i, i, 0] = 1
        span = ar.row_space(f, np.stack(
            [ident.reshape(n, f.k)] + [m.reshape(n, f.k) for m in mats]))
        while True:
            rows = [span]
            cur = span.reshape(-1, p, p, f.k)
            for m in mats:
                for i in range(cur.shape[0]):
                    rows.append(ar.fmatmul(f, m, cur[i]).reshape(1, n, f.k))
                    rows.append(ar.fmatmul(f, cur[i], m).reshape(1, n, f.k))
            new = ar.row_space(f, np.concatenate(rows, axis=0))
            if new.shape[0] == span.shape[0]:
                break
            span = new
        # matrix-unit algebra on p x p matrices
        mul = np.zeros((n, n, n, f.k), dtype=np.int64)
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    mul[a * p + b, b * p + c, a * p + c, 0] = 1
        unit = ar.zeros(f, (n,))
        for i in range(p):
            unit[i * p + i, 0] = 1
        from hopfgal.fdalg import SCAlgebra
        Mp = SCAlgebra(f, mul, unit)
        B, basis = subalgebra_on(Mp, Subspace(f, n, span))
        rad = radical(B)
        # image of the radical inside the module: span of the columns of
        # every radical element
        if rad.dim == 0:
            dims.add(p)
            continue
        cols = []
        for r in range(rad.dim):
            rmat = ar.fmatmul(f, rad.basis[r][None], basis)[0] \
                .reshape(p, p, f.k)
            cols.append(rmat.transpose(1, 0, 2))
        img = ar.row_space(f, np.concatenate(cols, axis=0))
        dims.add(p - img.shape[0])
    return dims


def test_baby_verma_weight_count():
    f = Field(3)
    lam = (f.scalar(0), f.scalar(0), f.scalar(1))
    ws = sl.baby_verma_weights(3, lam)
    assert len(ws) == 3 and len({w.coeffs for w in ws}) == 3
    big = ws[0].field
    lh = f.embed(f.scalar(1), big)
    assert all(w ** 3 - w == lh for w in ws)


def test_baby_verma_regular_is_simple():
    f = Field(3)
    lam = (f.scalar(0), f.scalar(0), f.scalar(1))
    w = sl.baby_verma_weights(3, lam)[0]
    bv = sl.baby_verma_oracle(3, lam, w)
    assert matrix_algebra_rank(bv.field, [bv.e_mat, bv.f_mat, bv.h_mat]) == 9


def test_baby_verma_rejects_bad_weight():
    f = Field(3)
    lam = (f.scalar(0), f.scalar(0), f.scalar(1))
    with pytest.raises(RelationCheckFailed):
        sl.baby_verma_oracle(3, lam, 1)


@pytest.mark.parametrize("lam,expected", [
    ((0, 0, 1), {3}),
    ((1, 0, 0), {3}),
    ((0, 0, 0), {1, 2, 3}),
])
def test_baby_verma_heads_match_simples(lam, expected):
    f = Field(3)
    point = tuple(f.scalar(v) for v in lam)
    assert _head_dims(3, point) == expected
    rep = sl.fiber_report(sl.sl2_algebra(3), FiberPoint(f, point))
    assert set(rep.simple_dims) == expected


# ---------------------------------------------------------------------------
# the cyclic group-algebra bundle
# ---------------------------------------------------------------------------

def test_group_bundle_constant_center():
    gb = sl.group_bundle_scan()
    assert gb.fiber_dims == [3, 3, 3]
    assert gb.center_dims == [3, 3, 3]
    assert gb.center_dim_constant and gb.equivariant


# ---------------------------------------------------------------------------
# simples and blocks over the base field vs the scalar-extension route
# ---------------------------------------------------------------------------

# one sl2 p=3 fiber of each kind over F_9, as coefficient lists c0 + c1 t:
# regular with splitting degree 1, 2 and 3, cone, zero
F9_KINDS = [
    [[0, 0], [0, 0], [0, 1]],
    [[1, 2], [0, 2], [0, 0]],
    [[0, 0], [0, 0], [1, 0]],
    [[1, 0], [0, 0], [0, 0]],
    [[0, 0], [0, 0], [0, 0]],
]


def _extension_route(A, degree):
    """Simple dims and block count of A over F_{q^degree}, from A and its
    semisimple quotient rebuilt over that field."""
    f = A.field
    big = Field(f.p, f.k * degree)
    semi, _ = fdalg.quotient_algebra(A, radical(A))
    dims = []
    for blk, _, _ in fdalg.block_ideals(fdalg.extend_scalars(semi, big)):
        # the predicted extension splits every block: its center is the field
        assert fdalg.center(blk).dim == 1
        assert math.isqrt(blk.dim) ** 2 == blk.dim
        dims.append(math.isqrt(blk.dim))
    blocks = fdalg.block_decompose(fdalg.extend_scalars(A, big)).blocks
    return sorted(dims), len(blocks)


def _oracle_cases():
    F3, F9 = Field(3), Field(3, 2)
    sl2, borel = sl.sl2_algebra(3), sl.borel_algebra(3)
    cases = [(sl2, FiberPoint.make(F3, v))
             for v in itertools.product(range(3), repeat=3)]
    cases += [(sl2, FiberPoint.make(F9, [F9.scalar(c) for c in v]))
              for v in F9_KINDS]
    cases += [(borel, FiberPoint.make(F3, v))
              for v in itertools.product(range(3), repeat=2)]
    return cases


def test_simples_and_blocks_match_the_extension_route():
    seen_degrees = set()
    for L, point in _oracle_cases():
        A = Fiber(L, point).alg
        rep = fdalg.simples(A)
        seen_degrees.add((rep.semisimple, rep.splitting_degree))
        assert _extension_route(A, rep.splitting_degree) == \
            (rep.simple_dims, rep.split_blocks), point.values
    # F_3[Z/12] and F_2[Z/14] are non-semisimple with degree 2 and 3
    for p, n, degree in ((3, 12, 2), (2, 14, 3)):
        A = group_algebra(Field(p), cyclic_group_table(n)).alg
        rep = fdalg.simples(A)
        assert (rep.semisimple, rep.splitting_degree) == (False, degree)
        assert _extension_route(A, degree) == \
            (rep.simple_dims, rep.split_blocks)
    assert {(True, 1), (True, 2), (True, 3), (False, 1), (False, 3)} \
        <= seen_degrees


def test_simples_and_fiber_report_do_not_extend_scalars(monkeypatch):
    def refuse(A, big):
        raise AssertionError("scalar extension called")

    monkeypatch.setattr(fdalg, "extend_scalars", refuse)
    F9 = Field(3, 2)
    # a degree-3 regular sl2 point over F_9: three simples of dim 3 over
    # F_{9^3}, three blocks there
    L = sl.sl2_algebra(3)
    point = FiberPoint.make(F9, [F9.scalar(c) for c in F9_KINDS[2]])
    rep = fdalg.simples(Fiber(L, point).alg)
    assert (rep.splitting_degree, rep.simple_dims, rep.blocks,
            rep.split_blocks) == (3, [3, 3, 3], [27], 3)
    report = sl.fiber_report(L, point)
    assert (report.blocks, report.simple_dims) == (3, [3, 3, 3])
    # Borel (1, 0) over F_3: A/J(A) is F_27, so three simples of dim 1 over
    # F_27, but Z(A) = F_3 keeps A a single block there
    B = sl.borel_algebra(3)
    point = FiberPoint.make(Field(3), (1, 0))
    rep = fdalg.simples(Fiber(B, point).alg)
    assert (rep.radical_dim, rep.splitting_degree, rep.simple_dims,
            rep.blocks, rep.split_blocks) == (6, 3, [1, 1, 1], [9], 1)
    assert sl.fiber_report(B, point).blocks == 1
