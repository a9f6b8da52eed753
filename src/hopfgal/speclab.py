"""Worked examples and the parameter-space scanner.

Built-in restricted Lie algebras (sl2 and the two-dimensional Borel), the
central elements x, y, z, t of the sl2 family and the degree-p relation they
satisfy, stratum classification of parameter points, per-point fiber reports,
a scanner over many points, a baby-Verma matrix oracle used as an independent
cross-check, and a cyclic group-algebra bundle whose fibers have constant
center dimension.

Conventions fixed here:
  - sl2 basis order is (e, f, h) with [e,f]=h, [h,e]=-2e, [h,f]=2f and
    p-operation e,f -> 0, h -> h.  Parameter points are tuples
    (lambda_e, lambda_f, lambda_h) in that basis order.
  - the Borel basis order is (h, e) with [h,e]=e and p-operation h -> h,
    e -> 0; points are (lambda_h, lambda_e).
  - strata of sl2 points: regular iff z^2-4xy != 0, cone iff z^2-4xy = 0
    and the point is nonzero, zero iff the point is zero, where
    (x, y, z) = (lambda_e, lambda_f, lambda_h).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _arrays as ar
from .errors import (
    BadPrime,
    ConsistencyCheckFailed,
    PremiseFailed,
    RelationCheckFailed,
    ShapeMismatch,
    TooManyPoints,
    UnknownKind,
)
from .exactfield import Field, Poly, Scalar, splitting_extension
from .fdalg import (
    Subspace,
    center,
    form_is_symmetric,
    form_rank,
    quotient_algebra,
    simples,
)
from .hopf import LinMap, cyclic_group_table, group_algebra, left_integral_dual
from .galois import (
    ComoduleAlgebra,
    Splitting,
    coinvariants,
    frobenius_form,
    group_quotient_coaction,
    is_equivariant_splitting,
)
from .resliealg import Fiber, FiberPoint, RestrictedLie, restricted_verify

MAX_SCAN_POINTS = 10_000


# ---------------------------------------------------------------------------
# built-in algebras
# ---------------------------------------------------------------------------

def _verified(L: RestrictedLie) -> RestrictedLie:
    """L itself, after restricted_verify finds no defect in it."""
    problems = restricted_verify(L)
    if problems:
        raise PremiseFailed(f"built-in algebra is not restricted: {problems}")
    return L


# the built-in algebras: the name in messages, the basis, the brackets
# [e_i, e_j] = c e_m as (i, j, m, c), and the p-operation e_i^[p] = d_i e_i
_BUILT_IN = {
    "sl2": ("sl2", ("e", "f", "h"), [(0, 1, 2, 1), (2, 0, 0, -2),
                                     (2, 1, 1, 2)], (0, 0, 1)),
    "borel": ("the Borel example", ("h", "e"), [(0, 1, 1, 1)], (1, 0)),
}


def _built_in(kind: str, p: int):
    """The labels, bracket tensor and p-operation matrix of a built-in
    algebra over F_p, made anew on each call."""
    name, labels, brackets, pdiag = _BUILT_IN[kind]
    if p <= 2:
        raise BadPrime(f"{name} requires an odd prime, got p={p}")
    bracket = np.zeros((len(labels),) * 3, dtype=np.int64)
    for i, j, m, c in brackets:
        bracket[i, j, m], bracket[j, i, m] = c % p, -c % p
    return labels, bracket, np.diag(pdiag)


def sl2_algebra(p: int) -> RestrictedLie:
    """sl2 over F_p on the basis (e, f, h): [e,f]=h, [h,e]=-2e, [h,f]=2f,
    e^[p]=f^[p]=0, h^[p]=h.

    The sign of the h-brackets is the one convention (given [e,f]=h) under
    which (h+1)^2-4ef is central in every reduced algebra and satisfies the
    degree-p relation checked by sl2_eq4_check; the checks there act as the
    consistency witness."""
    labels, bracket, pmap = _built_in("sl2", p)
    return _verified(RestrictedLie(p, bracket, pmap, labels=labels))


def borel_algebra(p: int) -> RestrictedLie:
    """The two-dimensional nonabelian restricted Lie algebra on (h, e):
    [h,e]=e, h^[p]=h, e^[p]=0."""
    labels, bracket, pmap = _built_in("borel", p)
    return _verified(RestrictedLie(p, bracket, pmap, labels=labels))


def lie_kind(L: RestrictedLie) -> str | None:
    """Recognize a built-in algebra by its structure constants: "sl2",
    "borel", or None.  L is compared with the tables of `_built_in`, which
    `sl2_algebra` and `borel_algebra` verify; nothing is built here."""
    for kind, (_, labels, _, _) in _BUILT_IN.items():
        if L.dim == len(labels):
            _, bracket, pmap = _built_in(kind, L.p)
            if (np.array_equal(L.bracket, bracket)
                    and np.array_equal(L.pmap, pmap)):
                return kind
    return None


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    tag: str  # "regular" | "cone" | "zero"


def classify_point(kind: str, lam) -> Stratum:
    """Stratum of an sl2 parameter point (lambda_e, lambda_f, lambda_h):
    regular iff z^2 - 4xy != 0, cone iff the discriminant vanishes on a
    nonzero point, zero at the origin."""
    if kind != "sl2":
        raise UnknownKind(f"no stratum classification for kind {kind!r}")
    if isinstance(lam, FiberPoint):
        f, values = lam.field, lam.values
    else:
        values = tuple(lam)
        f = next((v.field for v in values if isinstance(v, Scalar)), None)
        if f is None:
            raise ShapeMismatch("point must carry field scalars")
        values = tuple(f.scalar(v) for v in values)
    if len(values) != 3:
        raise ShapeMismatch(f"sl2 point needs 3 coordinates, got {len(values)}")
    x, y, z = values
    if all(v.is_zero() for v in values):
        return Stratum("zero")
    if (z * z - f.scalar(4) * x * y).is_zero():
        return Stratum("cone")
    return Stratum("regular")


# ---------------------------------------------------------------------------
# sl2 central elements and the degree-p relation
# ---------------------------------------------------------------------------

@dataclass
class CentralElements:
    x: Scalar            # image of e^p
    y: Scalar            # image of f^p
    z: Scalar            # image of h^p - h
    t_vec: np.ndarray    # (h+1)^2 - 4ef as a coordinate vector
    t_op: np.ndarray     # its left multiplication matrix, verified central


def sl2_central_elements(F: Fiber) -> CentralElements:
    """Images of x=e^p, y=f^p, z=h^p-h (scalars, equal to the point
    coordinates) and t=(h+1)^2-4ef (a central multiplication operator) in a
    fiber of the sl2 family."""
    if lie_kind(F.L) != "sl2":
        raise UnknownKind("central elements x,y,z,t are specific to sl2")
    f = F.field
    p = F.L.p
    A = F.alg
    evec = A.basis_vector(F.index[(1, 0, 0)])
    fvec = A.basis_vector(F.index[(0, 1, 0)])
    hvec = A.basis_vector(F.index[(0, 0, 1)])

    def as_scalar(v):
        c = A.scalar_coeff(v)
        if c is None:
            raise RelationCheckFailed("expected a scalar multiple of the unit")
        return Scalar(f, tuple(int(ci) for ci in c))

    x = as_scalar(A.power(evec, p))
    y = as_scalar(A.power(fvec, p))
    z = as_scalar(ar.fsub(f, A.power(hvec, p), hvec))
    lx, ly, lz = F.point.values
    if (x, y, z) != (lx, ly, lz):
        raise RelationCheckFailed(
            f"central generators evaluate to ({x}, {y}, {z}), "
            f"point is ({lx}, {ly}, {lz})")
    t_vec = (A.multiply(hvec, hvec) + 2 * hvec + A.unit
             - 4 * A.multiply(evec, fvec)) % p
    t_op = A.left_mult_matrix(t_vec)
    for g in (evec, fvec, hvec):
        Lg = A.left_mult_matrix(g)
        if np.any((ar.fmatmul(f, t_op, Lg) - ar.fmatmul(f, Lg, t_op)) % p):
            raise RelationCheckFailed("t is not central")
    return CentralElements(x, y, z, t_vec, t_op)


def sl2_eq4_check(F: Fiber):
    """Whether m(T) = T^p - 2 T^{(p+1)/2} + T - (z^2 - 4xy) annihilates the
    multiplication operator of t, together with the root profile of m over
    its splitting field: a list of (root, multiplicity) pairs."""
    ce = sl2_central_elements(F)
    f = F.field
    p = F.L.p
    c = ce.z * ce.z - f.scalar(4) * ce.x * ce.y
    T = ce.t_op
    matmul = functools.partial(ar.fmatmul, f)
    M = (ar.binary_power(T, p, matmul)
         - 2 * ar.binary_power(T, (p + 1) // 2, matmul) + T) % p
    ix = np.arange(T.shape[0])
    M[ix, ix] = (M[ix, ix] - np.array(c.coeffs, dtype=np.int64)) % p
    passed = not np.any(M)
    coeffs = [f.zero] * (p + 1)
    coeffs[0] = -c
    coeffs[1] = f.one
    coeffs[(p + 1) // 2] = coeffs[(p + 1) // 2] - f.scalar(2)
    coeffs[p] = coeffs[p] + f.one
    m = Poly(f, coeffs)
    big = splitting_extension(m)
    profile = []
    for g, mult in m.map_field(big).factor():
        if g.degree != 1:
            raise RelationCheckFailed("factor of m is not linear over the "
                                      "splitting field")
        root = -g.coeffs[0] / g.coeffs[1]
        profile.append((root, mult))
    profile.sort(key=lambda rm: rm[0].coeffs)
    return passed, profile


# ---------------------------------------------------------------------------
# fiber reports
# ---------------------------------------------------------------------------

REPORT_FIELDS = ("point", "stratum", "dim", "center_dim", "radical_dim",
                 "semisimple", "blocks", "simple_dims", "frobenius_rank",
                 "frobenius_symmetric", "eq4_pass", "splitting_degree")


@dataclass
class FiberReport:
    point: tuple                 # of Scalars, in Lie basis order
    stratum: str | None          # sl2 only
    dim: int
    center_dim: int
    radical_dim: int
    semisimple: bool
    blocks: int
    simple_dims: list[int]
    frobenius_rank: int
    frobenius_symmetric: bool
    eq4_pass: bool | None        # sl2 only
    splitting_degree: int

    def to_json(self) -> dict:
        out = {}
        for name in REPORT_FIELDS:
            v = getattr(self, name)
            if name == "point":
                v = [s.coeffs[0] if s.field.k == 1 else list(s.coeffs)
                     for s in v]
            out[name] = v
        return out

    def csv_row(self) -> list[str]:
        row = []
        for name in REPORT_FIELDS:
            v = getattr(self, name)
            if name == "point":
                v = ";".join(str(s) for s in v)
            elif name == "simple_dims":
                v = ";".join(str(d) for d in v)
            row.append("" if v is None else str(v))
        return row


def _shared_hopf(L: RestrictedLie, field: Field):
    from .resliealg import u_restricted

    H, _ = u_restricted(L, field)
    lam = left_integral_dual(H)
    return H, lam


def fiber_frobenius_form(F: Fiber, shared=None):
    """The bilinear form E(x y) of the fiber, E from the dual integral of
    u(L): `shared` is (u(L), integral) from `_shared_hopf`, or is built."""
    H, lam = shared if shared is not None else _shared_hopf(F.L, F.field)
    return frobenius_form(ComoduleAlgebra(F.alg, H, F.splittings(),
                                          check=False), lam)


def fiber_report(L: RestrictedLie, point: FiberPoint,
                 shared=None) -> FiberReport:
    """Full invariant report for one fiber: block structure, simple
    dimensions, the rank and symmetry of the bilinear form built from the
    dual integral, and (for sl2) the stratum and degree-p relation check.

    `blocks` counts the blocks over the splitting field, where each block
    carries one simple module type: dim Z(A) - dim J(Z(A)), as the residue
    field F_{q^d} of each base-field block splits into d blocks there.

    A form rank below the fiber dimension would contradict the
    nondegeneracy the construction guarantees, so it raises instead of
    being reported."""
    kind = lie_kind(L)
    F = Fiber(L, point)
    A = F.alg
    rep = simples(A)
    s = fiber_frobenius_form(F, shared)
    rank, _ = form_rank(s)
    if rank != A.dim:
        raise ConsistencyCheckFailed(
            f"bilinear form of fiber {point.values} has rank {rank}, "
            f"expected the full dimension {A.dim}")
    stratum = None
    eq4 = None
    if kind == "sl2":
        stratum = classify_point("sl2", point).tag
        eq4 = sl2_eq4_check(F)[0]
    return FiberReport(
        point=point.values,
        stratum=stratum,
        dim=A.dim,
        center_dim=rep.center_dim,
        radical_dim=rep.radical_dim,
        semisimple=rep.semisimple,
        blocks=rep.split_blocks,
        simple_dims=rep.simple_dims,
        frobenius_rank=rank,
        frobenius_symmetric=form_is_symmetric(s),
        eq4_pass=eq4,
        splitting_degree=rep.splitting_degree,
    )


# ---------------------------------------------------------------------------
# the scanner
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    reports: list
    center_dims: list[int]       # distinct center dimensions, sorted
    center_dim_constant: bool

    def to_json(self) -> dict:
        return {
            "reports": [r.to_json() for r in self.reports],
            "center_dims": self.center_dims,
            "center_dim_constant": self.center_dim_constant,
        }


def scan(L: RestrictedLie, field: Field, points=None) -> ScanResult:
    """Fiber reports over an explicit point list, or over all of
    field^(dim L) when points is None.  Points are processed in
    lexicographic coordinate order and the result records whether the
    center dimension is constant across the scan."""
    bad = restricted_verify(L)
    if bad:
        raise ShapeMismatch("not a restricted Lie algebra: " + bad[0])
    n = L.dim
    if points is None:
        total = field.order ** n
        if total > MAX_SCAN_POINTS:
            raise TooManyPoints(
                f"scan over all of F_{field.order}^{n} needs {total} points, "
                f"cap is {MAX_SCAN_POINTS}")
        pts = [FiberPoint(field, values)
               for values in itertools.product(field.elements(), repeat=n)]
    else:
        pts = []
        for v in points:
            pt = v if isinstance(v, FiberPoint) else FiberPoint.make(field, v)
            if len(pt.values) != n:
                raise ShapeMismatch(
                    f"point {v} has {len(pt.values)} coordinates, "
                    f"dim L = {n}")
            pts.append(pt)
        if len(pts) > MAX_SCAN_POINTS:
            raise TooManyPoints(
                f"{len(pts)} points exceed the cap {MAX_SCAN_POINTS}")
        pts.sort(key=lambda pt: tuple(s.coeffs for s in pt.values))
    shared = _shared_hopf(L, field)
    reports = [fiber_report(L, pt, shared=shared) for pt in pts]
    dims = sorted({r.center_dim for r in reports})
    return ScanResult(reports, dims, len(dims) <= 1)


# ---------------------------------------------------------------------------
# baby-Verma oracle
# ---------------------------------------------------------------------------

@dataclass
class BabyVerma:
    field: Field
    weight: Scalar
    e_mat: np.ndarray    # (p, p, k), acting on column vectors
    f_mat: np.ndarray
    h_mat: np.ndarray


def _point_values(p, lam):
    if isinstance(lam, FiberPoint):
        f, values = lam.field, lam.values
    else:
        values = tuple(lam)
        f = next((v.field for v in values if isinstance(v, Scalar)), Field(p))
        values = tuple(f.scalar(v) for v in values)
    if f.p != p:
        raise ShapeMismatch(f"point lives over characteristic {f.p}, not {p}")
    if len(values) != 3:
        raise ShapeMismatch("an sl2 point needs 3 coordinates")
    return f, values


def baby_verma_weights(p: int, lam) -> list[Scalar]:
    """The p solutions of w^p - w = lambda_h over the splitting field of
    that equation, sorted."""
    f, (_, _, lh) = _point_values(p, lam)
    coeffs = [f.zero] * (p + 1)
    coeffs[0] = -lh
    coeffs[1] = -f.one
    coeffs[p] = f.one
    poly = Poly(f, coeffs)
    big = splitting_extension(poly)
    roots = [-g.coeffs[0] / g.coeffs[1]
             for g, _ in poly.map_field(big).factor()]
    roots.sort(key=lambda s: s.coeffs)
    return roots


def _cyclic_module(p: int, le, lf, lh, w):
    """Matrices (over a possibly extended field) for the module with F
    cyclic, H diagonal with eigenvalues w + 2i, and E given by the
    commutation recursion; None when the wrap equation has no solution
    because it degenerates to a nonzero constant."""
    wf = w.field
    X = Poly.x(wf)
    Q = X
    for i in range(1, p):
        Q = Q * (X * lf + (w * wf.scalar(i) + wf.scalar(i * (i - 1))))
    Q = Q - Poly(wf, [le])
    if Q.is_zero():
        # every wrap coefficient works; pick zero
        big, c0 = wf, wf.zero
    elif Q.degree == 0:
        return None
    else:
        big = splitting_extension(Q)
        g0, _ = Q.map_field(big).factor()[0]
        c0 = -g0.coeffs[0] / g0.coeffs[1]
    emb = (lambda s: s) if big == wf else (lambda s: wf.embed(s, big))
    w, le, lf, lh = emb(w), emb(le), emb(lf), emb(lh)
    E = ar.zeros(big, (p, p))
    Fm = ar.zeros(big, (p, p))
    Hm = ar.zeros(big, (p, p))
    E[p - 1, 0] = np.array(c0.coeffs, dtype=np.int64)
    for i in range(1, p):
        ci = lf * c0 + w * big.scalar(i) + big.scalar(i * (i - 1))
        E[i - 1, i] = np.array(ci.coeffs, dtype=np.int64)
    Fm[np.arange(1, p), np.arange(p - 1), 0] = 1
    Fm[0, p - 1] = np.array(lf.coeffs, dtype=np.int64)
    Hm[np.arange(p), np.arange(p)] = [(w + big.scalar(2 * i)).coeffs
                                      for i in range(p)]
    return big, w, E, Fm, Hm


def baby_verma_oracle(p: int, lam, weight) -> BabyVerma:
    """Explicit p-dimensional matrices E, F, H for an sl2 point
    (lambda_e, lambda_f, lambda_h) and a weight w with w^p - w = lambda_h:
    F acts cyclically on the basis, H diagonally with eigenvalues w + 2i,
    and the E coefficients come from the commutation recursion, the one
    free coefficient solving a degree-p equation over an extension field.
    The relations [E,F]=H, E^p=lambda_e, F^p=lambda_f, H^p-H=lambda_h are
    verified exactly."""
    if p <= 2:
        raise BadPrime(f"the oracle requires an odd prime, got p={p}")
    f, values = _point_values(p, lam)
    if isinstance(weight, Scalar):
        wf = weight.field
        if wf.p != p or wf.k % f.k:
            raise ShapeMismatch("weight field does not extend the point field")
        w = weight
        le, lf, lh = (f.embed(v, wf) if wf != f else v for v in values)
    else:
        wf = f
        w = f.scalar(weight)
        le, lf, lh = values
    if w ** p - w != lh:
        raise RelationCheckFailed(
            f"weight {w} does not satisfy w^p - w = {lh}")
    built = _cyclic_module(p, le, lf, lh, w)
    if built is None:
        # no module with F acting cyclically (lambda_f = 0 forces every
        # wrap product to vanish); build with e and f swapped through the
        # symmetry e <-> f, h -> -h and swap the matrices back
        built = _cyclic_module(p, lf, le, -lh, -w)
        if built is None:
            raise RelationCheckFailed(
                f"no cyclic module for point ({le}, {lf}, {lh}), "
                f"weight {w}")
        big, w, Fm, E, Hm = built
        Hm, w = (-Hm) % p, -w
    else:
        big, w, E, Fm, Hm = built
    le, lf, lh = (wf.embed(v, big) if big != wf else v for v in (le, lf, lh))

    def scal_id(s):
        return np.eye(p, dtype=np.int64)[..., None] * np.array(s.coeffs)

    comm = (ar.fmatmul(big, E, Fm) - ar.fmatmul(big, Fm, E)) % p
    matmul = functools.partial(ar.fmatmul, big)
    checks = [
        (comm, Hm, "[E,F] = H"),
        (ar.binary_power(E, p, matmul), scal_id(le), "E^p = lambda_e"),
        (ar.binary_power(Fm, p, matmul), scal_id(lf), "F^p = lambda_f"),
        ((ar.binary_power(Hm, p, matmul) - Hm) % p, scal_id(lh),
         "H^p - H = lambda_h"),
    ]
    for got, want, label in checks:
        if np.any((got - want) % p):
            raise RelationCheckFailed(f"relation {label} fails")
    return BabyVerma(big, w, E, Fm, Hm)


def matrix_algebra_rank(field: Field, mats) -> int:
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


# ---------------------------------------------------------------------------
# the cyclic group-algebra bundle
# ---------------------------------------------------------------------------

@dataclass
class GroupBundleReport:
    field: Field
    fiber_dims: list[int]
    center_dims: list[int]
    center_dim_constant: bool
    equivariant: bool


def group_bundle_scan(field: Field | None = None, n: int = 9,
                      m: int = 3) -> GroupBundleReport:
    """The bundle of fibers of F[Z/n] over its subalgebra F[Z/m] (m | n,
    the subgroup generated by g^m): one fiber per character of the
    subalgebra, built as a quotient by the corresponding maximal ideal.
    The quotient coaction admits an equivariant section (any set-theoretic
    section of an abelian quotient works), so the center dimension is
    expected constant across fibers; the report records both facts."""
    if field is None:
        field = Field(7)
    if n % m:
        raise ShapeMismatch(f"{m} does not divide {n}")
    U = group_algebra(field, cyclic_group_table(n))
    HQ = group_algebra(field, cyclic_group_table(m))
    qmap = [i % m for i in range(n)]
    CA = group_quotient_coaction(U, qmap, HQ)
    gamma = ar.zeros(field, (m, n))
    gamma[np.arange(m), np.arange(m), 0] = 1
    sp = Splitting(CA, LinMap(field, gamma))
    equivariant = is_equivariant_splitting(sp)
    sub = coinvariants(CA)
    if sub.dim != n // m:
        raise ShapeMismatch(
            f"coinvariants have dimension {sub.dim}, expected {n // m}")
    # characters of the subalgebra F[g^m] = F[Z/(n/m)]: g^m -> omega with
    # omega^(n/m) = 1
    order = n // m
    omegas = [a for a in field.elements() if a ** order == field.one]
    if len(omegas) != order:
        raise ShapeMismatch(
            f"field of order {field.order} has {len(omegas)} roots of "
            f"unity of order dividing {order}, need {order}")
    omegas.sort(key=lambda s: s.coeffs)
    zvec = U.alg.basis_vector(m)          # the group element g^m
    fiber_dims, center_dims = [], []
    for omega in omegas:
        shift = (zvec - ar.fmul(
            field, np.array(omega.coeffs, dtype=np.int64)[None, :],
            U.alg.unit)) % field.p
        rows = np.stack([U.alg.multiply(U.alg.basis_vector(i), shift)
                         for i in range(n)])
        ideal = Subspace(field, n, ar.row_space(field, rows))
        B, _ = quotient_algebra(U.alg, ideal)
        fiber_dims.append(B.dim)
        center_dims.append(center(B).dim)
    return GroupBundleReport(field, fiber_dims, center_dims,
                             len(set(center_dims)) <= 1, equivariant)
