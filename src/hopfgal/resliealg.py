"""Restricted Lie algebras and their enveloping algebras.

Provides the PBW straightening engine for U(L), the reduced algebras U_lambda
(quotients by e_i^p - e_i^[p] - lambda_i), the restricted enveloping algebra
u(L) with its Hopf structure, the coaction of u(L) on each U_lambda, the PBW
coalgebra splitting, and the cocycle-formula product used as a cross-check.

PBW monomials are written e^alpha = e_1^{a_1} ... e_n^{a_n} in the fixed
basis order; fiber basis labels run over 0 <= a_i < p in lexicographic order
(last exponent fastest).

The structure tensor of a fiber is built by a chain of sparse products: the
engine supplies only the n left-generator matrices (row t is e_i e^t), and
each slab mul[alpha] is mul[alpha - delta_i] times the matrix of e_i, for
the first nonzero exponent a_i of alpha.  The dict engine stays the
reference arithmetic: tests compare the tensor with it, and it still
computes the antipode and gamma^{-1} rows, the Prop. 30 oracles and
`Fiber.element_from_dict`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _arrays as ar
from .errors import (
    DimCapExceeded,
    FieldMismatch,
    NotScalar,
    ShapeMismatch,
)
from .exactfield import Field, Scalar
from .fdalg import DIM_CAP, SCAlgebra

MAX_WORD_LETTERS = 32


class RestrictedLie:
    """A restricted Lie algebra over F_p: bracket tensor c[i,j,m] with
    [e_i, e_j] = sum_m c[i,j,m] e_m and p-operation matrix P[i,m] with
    e_i^[p] = sum_m P[i,m] e_m."""

    def __init__(self, p: int, bracket, pmap, labels=None):
        self.field = Field(p)
        self.p = p
        bracket = np.asarray(bracket, dtype=np.int64) % p
        pmap = np.asarray(pmap, dtype=np.int64) % p
        n = bracket.shape[0]
        if bracket.shape != (n, n, n):
            raise ShapeMismatch(f"bracket tensor shape {bracket.shape}")
        if pmap.shape != (n, n):
            raise ShapeMismatch(f"p-operation matrix shape {pmap.shape}")
        self.dim = n
        self.bracket = bracket
        self.pmap = pmap
        self.labels = list(labels) if labels is not None else \
            [f"x{i}" for i in range(n)]
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise ShapeMismatch("labels must be distinct, one per generator")

    def ad_matrix(self, i: int) -> np.ndarray:
        """Matrix of ad(e_i) acting on columns: A[m, j] = c[i,j,m]."""
        return self.bracket[i].T.copy()

    def to_json(self) -> dict:
        out = {"p": self.p, "basis": list(self.labels),
               "bracket": {}, "pmap": {}}
        n = self.dim
        for i in range(n):
            for j in range(n):
                entries = {self.labels[m]: int(self.bracket[i, j, m])
                           for m in range(n) if self.bracket[i, j, m]}
                if entries and i < j:
                    out["bracket"][f"{self.labels[i]},{self.labels[j]}"] = entries
        for i in range(n):
            entries = {self.labels[m]: int(self.pmap[i, m])
                       for m in range(n) if self.pmap[i, m]}
            if entries:
                out["pmap"][self.labels[i]] = entries
        return out

    @classmethod
    def from_json(cls, data: dict) -> "RestrictedLie":
        p = int(data["p"])
        labels = list(data["basis"])
        n = len(labels)
        idx = {lab: i for i, lab in enumerate(labels)}
        bracket = np.zeros((n, n, n), dtype=np.int64)
        for key, entries in data.get("bracket", {}).items():
            a, b = key.split(",")
            i, j = idx[a.strip()], idx[b.strip()]
            for lab, c in entries.items():
                bracket[i, j, idx[lab]] = int(c) % p
                bracket[j, i, idx[lab]] = (-int(c)) % p
        pmap = np.zeros((n, n), dtype=np.int64)
        for lab, entries in data.get("pmap", {}).items():
            i = idx[lab]
            for lab2, c in entries.items():
                pmap[i, idx[lab2]] = int(c) % p
        return cls(p, bracket, pmap, labels)


def restricted_verify(L: RestrictedLie, max_reports: int = 20) -> list[str]:
    """Empty iff antisymmetry, the Jacobi identity, and the compatibility
    ad(e_i^[p]) = (ad e_i)^p all hold."""
    p, n, c = L.p, L.dim, L.bracket
    out = []
    if np.any((c + c.transpose(1, 0, 2)) % p):
        out.append("bracket is not antisymmetric")
    for i in range(n):
        if np.any(c[i, i] % p):
            out.append(f"[e_{i}, e_{i}] is nonzero")
            break
    # Jacobi: [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on basis triples
    for i in range(n):
        for j in range(n):
            for m in range(n):
                term = np.zeros(n, dtype=np.int64)
                for t in range(n):
                    term = (term + c[i, j, t] * c[t, m]) % p
                    term = (term + c[j, m, t] * c[t, i]) % p
                    term = (term + c[m, i, t] * c[t, j]) % p
                if np.any(term % p):
                    out.append(f"Jacobi identity fails at ({i},{j},{m})")
                    if len(out) >= max_reports:
                        return out
    # restrictedness: ad(e_i^[p]) = (ad e_i)^p
    for i in range(n):
        A = L.ad_matrix(i)
        Ap = np.linalg.matrix_power(A, 1)
        for _ in range(p - 1):
            Ap = (Ap @ A) % p
        target = np.zeros((n, n), dtype=np.int64)
        for m in range(n):
            if L.pmap[i, m]:
                target = (target + L.pmap[i, m] * L.ad_matrix(m)) % p
        if np.any((Ap - target) % p):
            out.append(f"p-operation incompatible with ad powers at e_{i}")
    return out


# ---------------------------------------------------------------------------
# straightening engine
# ---------------------------------------------------------------------------

class _Engine:
    """PBW arithmetic for U(L) over a coefficient field extending F_p.

    Elements are dicts {exponent tuple: nonzero coefficient}.  When `lam` is
    given, p-th powers of generators reduce by e_j^p = lam_j 1 + e_j^[p]
    (the truncated algebra U_lambda); with lam=None exponents are unbounded.
    Coefficients are plain ints for prime fields and coefficient tuples for
    extensions; the closures below hide the difference.
    """

    def __init__(self, L: RestrictedLie, field: Field, lam=None):
        if field.p != L.p:
            raise FieldMismatch("coefficient field has the wrong characteristic")
        self.L = L
        self.field = field
        self.n = L.dim
        self.p = L.p
        p = field.p
        if field.k == 1:
            self.czero, self.cone = 0, 1
            self.cadd = lambda a, b: (a + b) % p
            self.cmul = lambda a, b: (a * b) % p
            self.cneg = lambda a: (-a) % p
            self.cfrom = lambda v: int(v) % p
        else:
            self.czero, self.cone = field.czero, field.cone
            self.cadd = field.cadd
            self.cmul = field.cmul
            self.cneg = field.cneg
            self.cfrom = lambda v: ((int(v) % p,) + (0,) * (field.k - 1))
        if lam is None:
            self.lam = None
        else:
            if len(lam) != self.n:
                raise ShapeMismatch("lambda must have one entry per generator")
            self.lam = [self._coerce_coeff(v) for v in lam]
        self._cache: dict = {}

    def _coerce_coeff(self, v):
        if isinstance(v, Scalar):
            if v.field != self.field:
                raise FieldMismatch("lambda entry from the wrong field")
            return v.coeffs[0] if self.field.k == 1 else tuple(v.coeffs)
        if isinstance(v, (int, np.integer)):
            return self.cfrom(v)
        t = tuple(int(c) % self.p for c in v)
        if len(t) != self.field.k:
            raise ShapeMismatch("lambda coefficient vector has wrong length")
        return t[0] if self.field.k == 1 else t

    # -- core recursion ------------------------------------------------------

    def rmul_gen(self, alpha: tuple, j: int) -> dict:
        """e^alpha * e_j as a normalized element."""
        key = (alpha, j)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        n = self.n
        big = -1
        for i in range(n - 1, j, -1):
            if alpha[i]:
                big = i
                break
        if big >= 0:
            # e^alpha = e^beta e_big with beta = alpha - delta_big; commute:
            # e^alpha e_j = (e^beta e_j) e_big + sum_m c[big,j,m] e^beta e_m
            beta = alpha[:big] + (alpha[big] - 1,) + alpha[big + 1:]
            out = self.rmul_elem(self.rmul_gen(beta, j), big)
            row = self.L.bracket[big, j]
            for m in range(n):
                cm = int(row[m])
                if cm:
                    out = self._axpy(out, self.cfrom(cm),
                                     self.rmul_gen(beta, m))
        else:
            if self.lam is not None and alpha[j] + 1 == self.p:
                # e^alpha e_j = e^gamma e_j^p with gamma below j only
                gamma = alpha[:j] + (0,) + alpha[j + 1:]
                base = {gamma: self.cone}
                out = {}
                lamj = self.lam[j]
                if lamj != self.czero:
                    out = self._axpy(out, lamj, base)
                prow = self.L.pmap[j]
                for m in range(self.n):
                    cm = int(prow[m])
                    if cm:
                        out = self._axpy(out, self.cfrom(cm),
                                         self.rmul_gen(gamma, m))
            else:
                out = {alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]: self.cone}
        self._cache[key] = out
        return out

    def rmul_elem(self, elem: dict, j: int) -> dict:
        out = {}
        for alpha, coeff in elem.items():
            out = self._axpy(out, coeff, self.rmul_gen(alpha, j))
        return out

    def _axpy(self, acc: dict, coeff, elem: dict) -> dict:
        cadd, cmul, czero = self.cadd, self.cmul, self.czero
        for alpha, c in elem.items():
            v = cadd(acc.get(alpha, czero), cmul(coeff, c))
            if v == czero:
                acc.pop(alpha, None)
            else:
                acc[alpha] = v
        return acc

    def scale(self, elem: dict, coeff) -> dict:
        if coeff == self.czero:
            return {}
        return {a: self.cmul(coeff, c) for a, c in elem.items()}

    def unit(self) -> dict:
        return {(0,) * self.n: self.cone}

    def mul_label(self, elem: dict, beta: tuple) -> dict:
        """elem * e^beta, applying generators in PBW order."""
        for j in range(self.n):
            for _ in range(beta[j]):
                elem = self.rmul_elem(elem, j)
        return elem

    def multiply(self, x: dict, y: dict) -> dict:
        out = {}
        for beta, coeff in y.items():
            out = self._axpy(out, coeff, self.mul_label(dict(x), beta))
        return out

    def word(self, letters, coeff=None) -> dict:
        if len(letters) > MAX_WORD_LETTERS:
            raise ShapeMismatch(
                f"word longer than {MAX_WORD_LETTERS} letters rejected")
        elem = self.unit()
        for j in letters:
            if not 0 <= int(j) < self.n:
                raise ShapeMismatch(f"generator index {j} out of range")
            elem = self.rmul_elem(elem, int(j))
        if coeff is not None:
            elem = self.scale(elem, self._coerce_coeff(coeff))
        return elem


# ---------------------------------------------------------------------------
# UEnvElement and normalization
# ---------------------------------------------------------------------------

@dataclass
class UEnvElement:
    """A U(L) element in PBW coordinates: exponent tuples to Scalars."""
    field: Field
    terms: dict

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, UEnvElement) and self.field == other.field
                and self.terms == other.terms)


def _to_uenv(engine: _Engine, elem: dict) -> UEnvElement:
    f = engine.field
    terms = {}
    for alpha, c in elem.items():
        cc = (c,) if f.k == 1 else c
        terms[alpha] = Scalar(f, tuple(cc))
    return UEnvElement(f, terms)


def uenv_normalize(L: RestrictedLie, word, coefficient=1,
                   field: Field | None = None) -> UEnvElement:
    """PBW normal form of coefficient * e_{word[0]} ... e_{word[-1]} in U(L)."""
    field = field or L.field
    engine = _Engine(L, field)
    return _to_uenv(engine, engine.word(list(word), coefficient))


def _rewriter_normalize(L: RestrictedLie, word, strategy: str = "first"):
    """Independent word-rewriting normalizer used as a confluence oracle.

    Keeps linear combinations of raw words and repeatedly replaces a
    descending adjacent pair e_i e_j (i > j) by e_j e_i + [e_i, e_j].  The
    reduction position is chosen by `strategy` (first or last inversion).
    """
    p, n = L.p, L.dim
    state = {tuple(int(x) for x in word): 1}
    while True:
        todo = None
        for w in state:
            positions = [t for t in range(len(w) - 1) if w[t] > w[t + 1]]
            if positions:
                pos = positions[0] if strategy == "first" else positions[-1]
                todo = (w, pos)
                break
        if todo is None:
            break
        w, t = todo
        coeff = state.pop(w)
        i, j = w[t], w[t + 1]
        swapped = w[:t] + (j, i) + w[t + 2:]
        state[swapped] = (state.get(swapped, 0) + coeff) % p
        if state[swapped] == 0:
            del state[swapped]
        for m in range(n):
            cm = int(L.bracket[i, j, m])
            if cm:
                shorter = w[:t] + (m,) + w[t + 2:]
                state[shorter] = (state.get(shorter, 0) + coeff * cm) % p
                if state[shorter] == 0:
                    del state[shorter]
    # collect sorted words into exponent tuples
    out = {}
    for w, coeff in state.items():
        alpha = [0] * n
        for letter in w:
            alpha[letter] += 1
        key = tuple(alpha)
        out[key] = (out.get(key, 0) + coeff) % p
    f = L.field
    return UEnvElement(f, {a: Scalar(f, (c,)) for a, c in out.items() if c})


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberPoint:
    """A point lambda of the parameter space: the value of each central
    generator z_i = e_i^p - e_i^[p]."""
    field: Field
    values: tuple  # of Scalars

    @classmethod
    def make(cls, field: Field, values) -> "FiberPoint":
        return cls(field, tuple(field.scalar(v) for v in values))

    def coords(self) -> np.ndarray:
        return np.array([s.coeffs for s in self.values], dtype=np.int64)

    def is_zero(self) -> bool:
        return all(not any(s.coeffs) for s in self.values)


def chi_convention(field: Field, chi) -> FiberPoint:
    """Translate the classical chi-parametrization into a fiber point:
    lambda_i = chi_i^p (the Frobenius shift)."""
    vals = [field.scalar(c).frobenius() for c in chi]
    return FiberPoint(field, tuple(vals))


def pbw_labels(p: int, n: int) -> list[tuple]:
    return list(itertools.product(range(p), repeat=n))


class Fiber:
    """The reduced algebra U_lambda on the PBW basis {e^alpha : 0 <= a_i < p},
    together with the data needed for its u(L)-comodule structure.

    `alg.mul[alpha]` (row beta is e^alpha e^beta) is built in label order as
    mul[alpha - delta_i] @ Lambda_i, where i is the first nonzero exponent of
    alpha (so e^alpha = e_i e^(alpha - delta_i)) and Lambda_i, the matrix of
    left multiplication by e_i, is held in CSR form.  The straightening
    engine (`engine`) computes only those n matrices, n p^n products in all;
    each step is a sparse product with temporaries of one (p^n, p^n) slab."""

    def __init__(self, L: RestrictedLie, point: FiberPoint):
        field = point.field
        p, n = L.p, L.dim
        dim = p ** n
        if dim > DIM_CAP:
            raise DimCapExceeded(
                f"fiber dimension p^n = {dim} exceeds the cap {DIM_CAP}; "
                "reduce p or the Lie algebra dimension")
        self.L = L
        self.field = field
        self.point = point
        self.labels = pbw_labels(p, n)
        self.index = {a: i for i, a in enumerate(self.labels)}
        self.dim = dim
        self.engine = _Engine(L, field, lam=list(point.values))
        self.alg = self._build_algebra()
        self._coaction = None
        self._splitting = None

    def _build_algebra(self) -> SCAlgebra:
        f = self.field
        p, n, dim = self.L.p, self.L.dim, self.dim
        mul = np.zeros((dim, dim, dim, f.k), dtype=np.int64)
        mul[0, np.arange(dim), np.arange(dim), 0] = 1
        gens = [self._left_generator(i) for i in range(n)]
        # mul[alpha] = mul[alpha - delta_i] @ Lambda_i, i the first nonzero
        # exponent of alpha; alpha - delta_i comes earlier in label order
        for ia in range(1, dim):
            i = next(t for t in range(n) if self.labels[ia][t])
            _slab_times_csr(f, mul[ia - p ** (n - 1 - i)], gens[i], mul[ia])
        unit = np.zeros((dim, f.k), dtype=np.int64)
        unit[0, 0] = 1
        return SCAlgebra(f, mul, unit, labels=[list(a) for a in self.labels],
                         check_shapes=False)

    def _left_generator(self, i: int):
        """Left multiplication by e_i on the PBW basis as a CSR matrix
        (row pointers, columns, (nnz, k) values): row t is e_i e^t, from the
        straightening engine."""
        eng, index, k = self.engine, self.index, self.field.k
        delta = tuple(int(t == i) for t in range(self.L.dim))
        indptr, cols, vals = [0], [], []
        for beta in self.labels:
            for t, c in eng.mul_label({delta: eng.cone}, beta).items():
                cols.append(index[t])
                vals.append((c,) if k == 1 else c)
            indptr.append(len(cols))
        return (np.array(indptr, dtype=np.int64),
                np.array(cols, dtype=np.int64),
                np.array(vals, dtype=np.int64).reshape(len(cols), k))

    def binomial_tensor(self) -> np.ndarray:
        """T[i, a, b] with e^alpha |-> sum over splittings beta + gamma =
        alpha of prod binom(alpha_t, beta_t); this is both the u(L) coproduct
        and the U_lambda coaction in PBW coordinates."""
        f = self.field
        p, n, dim = self.L.p, self.L.dim, self.dim
        pascal = np.zeros((p, p), dtype=np.int64)
        for a in range(p):
            pascal[a, 0] = 1
            for b in range(1, a + 1):
                pascal[a, b] = (pascal[a - 1, b - 1] + pascal[a - 1, b]) % p
        T = np.zeros((dim, dim, dim, f.k), dtype=np.int64)
        index = self.index
        for ia, alpha in enumerate(self.labels):
            ranges = [range(a + 1) for a in alpha]
            for beta in itertools.product(*ranges):
                coef = 1
                for t in range(n):
                    coef = (coef * pascal[alpha[t], beta[t]]) % p
                if coef:
                    gamma = tuple(alpha[t] - beta[t] for t in range(n))
                    T[ia, index[beta], index[gamma], 0] = coef
        return T

    def element_from_dict(self, elem: dict) -> np.ndarray:
        """Coordinates (dim, k) of a fully reduced engine element."""
        f = self.field
        out = ar.zeros(f, (self.dim,))
        for alpha, c in elem.items():
            if max(alpha) >= self.L.p:
                raise ShapeMismatch("element is not reduced")
            cc = (c,) if f.k == 1 else c
            out[self.index[alpha]] = np.array(cc, dtype=np.int64)
        return out


def _slab_times_csr(field: Field, slab: np.ndarray, csr, out: np.ndarray):
    """out (d, d, k) = slab (d, d, k) @ the CSR matrix `csr`, over the
    nonzeros of slab only.

    Each output cell is accumulated by np.bincount with float64 weights.
    That is exact: a cell sums at most d field products, each reduced below
    p, and d = p^n <= DIM_CAP = 512 forces p <= 509, so every sum stays
    below 512 * 509 < 2^18, far inside float64's 2^53 integers."""
    indptr, cols, vals = csr
    d = slab.shape[0]
    r, t = np.divmod(np.flatnonzero(
        slab[:, :, 0] if field.k == 1 else slab.any(axis=2)), d)
    # nonzero m of the slab meets the counts[m] entries of CSR row t[m]:
    # its terms are src == m, reading CSR entries pos
    counts = indptr[t + 1] - indptr[t]
    first = np.cumsum(counts) - counts
    src = np.repeat(np.arange(r.size), counts)
    pos = np.arange(src.size) + np.repeat(indptr[t] - first, counts)
    cells = r[src] * d + cols[pos]
    terms = ar.fmul(field, slab[r, t][src], vals[pos])
    # out is zero on entry: only the cells that received terms are written
    # (a cell listed twice gets the same value twice)
    flat = out.reshape(d * d, field.k)
    for c in range(field.k):
        acc = np.bincount(cells, weights=terms[:, c], minlength=d * d)
        flat[cells, c] = acc[cells].astype(np.int64) % field.p


def fiber_algebra(L: RestrictedLie, point: FiberPoint) -> Fiber:
    return Fiber(L, point)


# ---------------------------------------------------------------------------
# u(L) and its Hopf structure
# ---------------------------------------------------------------------------

def u_restricted(L: RestrictedLie, field: Field | None = None):
    """The restricted enveloping algebra u(L) = U_0 with its Hopf structure:
    generators primitive, eps(e_i) = 0, S(e_i) = -e_i."""
    from .hopf import HopfAlgebra

    field = field or L.field
    zero = FiberPoint.make(field, [0] * L.dim)
    F = Fiber(L, zero)
    dim = F.dim
    f = field
    comul = F.binomial_tensor()
    counit = ar.zeros(f, (dim,))
    counit[0, 0] = 1
    # antipode: antimultiplicative extension of S(e_i) = -e_i; on a PBW
    # monomial this is the sign-scaled reversed product
    H = HopfAlgebra(F.alg, comul, counit, _pbw_inverse_rows(F))
    return H, F


# ---------------------------------------------------------------------------
# coaction and splitting
# ---------------------------------------------------------------------------

def fiber_coaction(F: Fiber, H=None):
    """The ComoduleAlgebra structure of U_lambda over u(L): the coaction is
    the binomial coproduct with left leg in U_lambda and right leg in u(L)."""
    from .galois import ComoduleAlgebra

    if H is None:
        H, _ = u_restricted(F.L, F.field)
    rho = F.binomial_tensor()
    return ComoduleAlgebra(F.alg, H, rho)


def pbw_splitting(F: Fiber, CA=None):
    """The PBW coalgebra splitting gamma(e^alpha) = e^alpha from u(L) into
    U_lambda, with its convolution inverse obtained by applying the antipode
    formula inside U_lambda."""
    from .galois import Splitting
    from .hopf import LinMap

    if CA is None:
        CA = fiber_coaction(F)
    f = F.field
    dim = F.dim
    gamma = ar.zeros(f, (dim, dim))
    for i in range(dim):
        gamma[i, i, 0] = 1
    return Splitting(CA, LinMap(f, gamma),
                     inverse=LinMap(f, _pbw_inverse_rows(F)))


def _pbw_inverse_rows(F: Fiber) -> np.ndarray:
    """The reversed signed product (-1)^|alpha| e_n^{a_n} ... e_1^{a_1} of
    every PBW label, reduced in U_lambda: gamma^{-1}(e^alpha) for the PBW
    splitting, and on the zero fiber the antipode of u(L).  Rows are
    U_lambda coordinate vectors."""
    f = F.field
    eng = F.engine
    inv = ar.zeros(f, (F.dim, F.dim))
    for ia, alpha in enumerate(F.labels):
        elem = eng.unit()
        for j in range(F.L.dim - 1, -1, -1):
            for _ in range(alpha[j]):
                elem = eng.rmul_elem(elem, j)
        if sum(alpha) % 2:
            elem = eng.scale(elem, eng.cneg(eng.cone))
        inv[ia] = F.element_from_dict(elem)
    return inv


# ---------------------------------------------------------------------------
# the cocycle formula of the twisted-product cross-check
# ---------------------------------------------------------------------------

def _u_engine(F: Fiber) -> _Engine:
    """A cached u(L) straightening engine over the fiber's field."""
    eng = getattr(F, "_zero_engine", None)
    if eng is None:
        zero = FiberPoint.make(F.field, [0] * F.L.dim)
        eng = _Engine(F.L, F.field, lam=list(zero.values))
        F._zero_engine = eng
    return eng


def prop30_sigma(F: Fiber, ix: int, iy: int):
    """sigma(e^alpha (x) e^beta) = gamma(x_1) gamma(y_1) gamma^{-1}(x_2 y_2)
    evaluated in U_lambda and certified to be a scalar; returns that Scalar.

    x_2 y_2 is multiplied in u(L); gamma lifts PBW labels; the convolution
    inverse of gamma is the signed reversed product reduced in U_lambda.
    """
    f = F.field
    alpha, beta = F.labels[ix], F.labels[iy]
    eng = F.engine          # U_lambda arithmetic
    ueng = _u_engine(F)     # u(L) arithmetic
    n = F.L.dim
    p = F.L.p
    pascal = [[math.comb(a, b) % p for b in range(p + 1)] for a in range(p)]
    acc: dict = {}
    for b1 in itertools.product(*[range(a + 1) for a in alpha]):
        c1 = 1
        for t in range(n):
            c1 = (c1 * pascal[alpha[t]][b1[t]]) % p
        if not c1:
            continue
        a2 = tuple(alpha[t] - b1[t] for t in range(n))
        for b2 in itertools.product(*[range(a + 1) for a in beta]):
            c2 = 1
            for t in range(n):
                c2 = (c2 * pascal[beta[t]][b2[t]]) % p
            if not c2:
                continue
            y2 = tuple(beta[t] - b2[t] for t in range(n))
            # x2 y2 in u(L)
            prod = ueng.mul_label({a2: ueng.cone}, y2)
            # gamma(x1) gamma(y1) in U_lambda
            head = eng.mul_label({b1: eng.cone}, b2)
            # apply gamma^{-1} to each u(L) term and multiply on the right
            for gterm, gc in prod.items():
                tail = eng.unit()
                for j in range(n - 1, -1, -1):
                    for _ in range(gterm[j]):
                        tail = eng.rmul_elem(tail, j)
                if sum(gterm) % 2:
                    tail = eng.scale(tail, eng.cneg(eng.cone))
                piece = eng.multiply(head, tail)
                coef = eng.cmul(eng.cfrom(c1 * c2), gc)
                acc = eng._axpy(acc, coef, piece)
    unit_label = F.labels[0]
    for alpha_t, c in acc.items():
        if alpha_t != unit_label and c != eng.czero:
            raise NotScalar(
                f"sigma({alpha},{beta}) has a non-scalar component at {alpha_t}")
    c = acc.get(unit_label, eng.czero)
    cc = (c,) if f.k == 1 else c
    return Scalar(f, tuple(cc))


def prop30_multiply(F: Fiber, ix: int, iy: int, sigma_cache=None) -> np.ndarray:
    """The twisted-product formula x o y = sigma(x_1 (x) y_1) x_2 y_2 for
    basis elements of u(L), valued in U_lambda coordinates.  Must reproduce
    the fiber's structure constants."""
    f = F.field
    alpha, beta = F.labels[ix], F.labels[iy]
    n, p = F.L.dim, F.L.p
    ueng = _u_engine(F)
    pascal = [[math.comb(a, b) % p for b in range(p + 1)] for a in range(p)]
    out = ar.zeros(f, (F.dim,))
    for b1 in itertools.product(*[range(a + 1) for a in alpha]):
        c1 = 1
        for t in range(n):
            c1 = (c1 * pascal[alpha[t]][b1[t]]) % p
        if not c1:
            continue
        a2 = tuple(alpha[t] - b1[t] for t in range(n))
        for b2 in itertools.product(*[range(a + 1) for a in beta]):
            c2 = 1
            for t in range(n):
                c2 = (c2 * pascal[beta[t]][b2[t]]) % p
            if not c2:
                continue
            y2 = tuple(beta[t] - b2[t] for t in range(n))
            key = (F.index[b1], F.index[b2])
            if sigma_cache is not None and key in sigma_cache:
                s = sigma_cache[key]
            else:
                s = prop30_sigma(F, key[0], key[1])
                if sigma_cache is not None:
                    sigma_cache[key] = s
            prod = ueng.mul_label({a2: ueng.cone}, y2)
            weight = s * f.scalar(c1 * c2)
            wc = np.array(weight.coeffs, dtype=np.int64)
            for term, c in prod.items():
                cc = np.array((c,) if f.k == 1 else c, dtype=np.int64)
                contrib = ar.fmul(f, wc[None, :], cc[None, :])[0]
                out[F.index[term]] = ar.fadd(f, out[F.index[term]], contrib)
    return out


class Prop30Context:
    """Precomputed tensors for evaluating the twisted-product formula in
    bulk on a prime-field fiber.

    Holds the fiber's structure constants (dense, and their nonzero
    entries grouped by output coordinate), the u(L) structure constants,
    the matrix of gamma^{-1} on PBW labels, the binomial splitting lists of
    every label, and a cache of already-evaluated sigma scalars.  The
    per-pair evaluators below reproduce prop30_sigma / prop30_multiply
    exactly but replace the term-by-term straightening with gathered
    matrix products, which is what makes dimension p^n = 125 tractable."""

    def __init__(self, F: Fiber):
        f = F.field
        if f.k != 1:
            raise ShapeMismatch(
                "the vectorized twisted-product formula is implemented for "
                "prime fields; use prop30_multiply elsewhere")
        p, n = F.L.p, F.L.dim
        N = F.dim
        self.F = F
        self.p = p
        self.N = N
        zero = FiberPoint.make(f, [0] * n)
        u0 = Fiber(F.L, zero).alg.mul[:, :, :, 0]
        self.u0_flat = u0.reshape(N * N, N)
        self.mul_flat = F.alg.mul[:, :, :, 0].reshape(N * N, N)
        ginv = _pbw_inverse_rows(F)[:, :, 0]
        # gamma^{-1}(e^b e^d) for every label pair, as U_lambda rows; one
        # block per label b, so that no temporary is as large as the table
        # (freed table-sized temporaries can stay resident)
        self.tails = np.empty((N * N, N), dtype=np.int64)
        for b in range(0, N * N, N):
            self.tails[b:b + N] = ar._imatmul(self.u0_flat[b:b + N], ginv, p)
        # the nonzero structure constants, ordered by output coordinate:
        # column cols[c] holds mul_flat[rows[starts[c]:starts[c+1]], cols[c]]
        out_col, pair = np.nonzero(self.mul_flat.T)
        self._nz_rows = pair
        self._nz_vals = self.mul_flat[pair, out_col]
        self._nz_cols, self._nz_starts = np.unique(out_col, return_index=True)
        pascal = [[math.comb(a, b) % p for b in range(p + 1)] for a in range(p)]
        self.splits = []
        for alpha in F.labels:
            first, second, coeff = [], [], []
            for b in itertools.product(*[range(a + 1) for a in alpha]):
                c = 1
                for t in range(n):
                    c = (c * pascal[alpha[t]][b[t]]) % p
                if not c:
                    continue
                rest = tuple(alpha[t] - b[t] for t in range(n))
                first.append(F.index[b])
                second.append(F.index[rest])
                coeff.append(c)
            self.splits.append((np.array(first), np.array(second),
                                np.array(coeff, dtype=np.int64)))
        self.sigma = {}

    def sigma_value(self, ix: int, iy: int) -> int:
        """sigma(e^alpha (x) e^beta) as a base-field integer, evaluated as
        sum over splittings of gamma(x1) gamma(y1) gamma^{-1}(x2 y2) and
        certified to be a scalar."""
        key = (ix, iy)
        cached = self.sigma.get(key)
        if cached is not None:
            return cached
        p, N = self.p, self.N
        h1, h2, c1 = self.splits[ix]
        g1, g2, c2 = self.splits[iy]
        # all (x1, y1) head products and (x2 y2) tails, as gathered rows
        heads = self.mul_flat[(h1[:, None] * N + g1[None, :]).reshape(-1)]
        tails = self.tails[(h2[:, None] * N + g2[None, :]).reshape(-1)]
        coeff = (c1[:, None] * c2[None, :]).reshape(-1) % p
        acc = ar._imatmul((heads * coeff[:, None]).T % p, tails, p)
        # vec = acc (flattened) times mul_flat, over the nonzero entries only
        vec = np.zeros(N, dtype=np.int64)
        terms = acc.reshape(N * N)[self._nz_rows] * self._nz_vals
        vec[self._nz_cols] = np.add.reduceat(terms, self._nz_starts) % p
        unit = self.F.index[(0,) * self.F.L.dim]
        if np.any(np.delete(vec, unit)):
            raise NotScalar(
                f"sigma({self.F.labels[ix]},{self.F.labels[iy]}) has a "
                "non-scalar component")
        val = int(vec[unit])
        self.sigma[key] = val
        return val

    def multiply(self, ix: int, iy: int) -> np.ndarray:
        """x o y = sigma(x_1 (x) y_1) x_2 y_2 for basis elements, in
        U_lambda coordinates; must reproduce the fiber's structure
        constants."""
        p, N = self.p, self.N
        b1, a2, c1 = self.splits[ix]
        b2, y2, c2 = self.splits[iy]
        out = np.zeros(N, dtype=np.int64)
        for u in range(len(b1)):
            svals = np.array([self.sigma_value(int(b1[u]), int(v))
                              for v in b2], dtype=np.int64)
            rows = self.u0_flat[int(a2[u]) * N + y2]
            w = (c1[u] * c2 % p) * svals % p
            out = (out + w @ rows) % p
        return out[:, None]
