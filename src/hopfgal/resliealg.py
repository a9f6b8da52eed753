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
    engine (`engine`) computes only those n matrices, n p^n products in all.
    Each step multiplies a sparse row, kept as the cells and values its own
    step computed, by a CSR Lambda_i (`_sparse_times_csr`) and scatters the
    result once into the dense tensor; a parent row lies at most p^(n-1)
    rows back, so only the last p^(n-1) sparse rows are kept."""

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

    def _build_algebra(self) -> SCAlgebra:
        f = self.field
        p, n, dim = self.L.p, self.L.dim, self.dim
        mul = np.zeros((dim, dim, dim, f.k), dtype=np.int64)
        mul[0] = ar.identity(f, dim)
        gens = [self._left_generator(i) for i in range(n)]
        # the sparse rows (sorted flat cells beta dim + gamma, values)
        rows = {0: (np.arange(dim) * (dim + 1),
                    np.tile(ar.unit_scalar(f), (dim, 1)))}
        for ia in range(1, dim):
            # mul[alpha] = mul[alpha - delta_i] @ Lambda_i, i the first
            # nonzero exponent of alpha; no later row needs row ia - p^(n-1)
            i = next(t for t in range(n) if self.labels[ia][t])
            cells, vals = rows[ia] = _sparse_times_csr(
                f, dim, *rows[ia - p ** (n - 1 - i)], gens[i])
            rows.pop(ia - p ** (n - 1), None)
            mul[ia].reshape(dim * dim, f.k)[cells] = vals
        unit = ar.zeros(f, (dim,))
        unit[0, 0] = 1
        return SCAlgebra(f, mul, unit, labels=[list(a) for a in self.labels],
                         check=False)

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

    def splittings(self):
        """Every splitting beta + gamma = alpha of the PBW labels whose
        coefficient prod binom(alpha_t, beta_t) is nonzero mod p, as arrays
        (alpha, beta, gamma, coefficient) of label indices sorted by alpha,
        then beta.  Built from the Pascal table one coordinate at a time."""
        p = self.L.p
        pascal = np.zeros((p, p), dtype=np.int64)
        pascal[:, 0] = 1
        for a in range(1, p):
            pascal[a, 1:] = (pascal[a - 1, 1:] + pascal[a - 1, :-1]) % p
        a1, b1 = np.nonzero(pascal)
        alpha = beta = gamma = np.zeros(1, dtype=np.int64)
        coef = np.ones(1, dtype=np.int64)
        for _ in range(self.L.dim):
            alpha = (alpha[:, None] * p + a1).reshape(-1)
            beta = (beta[:, None] * p + b1).reshape(-1)
            gamma = (gamma[:, None] * p + (a1 - b1)).reshape(-1)
            coef = (coef[:, None] * pascal[a1, b1] % p).reshape(-1)
        order = np.lexsort((beta, alpha))
        return alpha[order], beta[order], gamma[order], coef[order]

    def binomial_tensor(self) -> np.ndarray:
        """T[i, a, b] with e^alpha |-> sum over splittings beta + gamma =
        alpha of prod binom(alpha_t, beta_t); this is both the u(L) coproduct
        and the U_lambda coaction in PBW coordinates."""
        alpha, beta, gamma, coef = self.splittings()
        T = ar.zeros(self.field, (self.dim, self.dim, self.dim))
        T[alpha, beta, gamma, 0] = coef
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


def _sparse_times_csr(field: Field, n: int, cells: np.ndarray,
                      vals: np.ndarray, csr):
    """X @ C for a sparse X with n columns, given as the flat cells r n + t
    of its nonzeros and their (nnz, k) values, and an (n, n) CSR matrix C;
    the product comes back in the same form, its cells sorted and nonzero.
    Terms are summed per cell in int64: at most n <= DIM_CAP = 512 of them,
    each below p^2 < 2^46 (p <= P_MAX), so every sum stays below 2^55."""
    indptr, cols, cvals = csr
    r, t = np.divmod(cells, n)
    # nonzero m of X meets the entries of CSR row t[m]
    src, pos = ar.csr_expand(indptr, t)
    out = r[src] * n + cols[pos]
    # over F_p the products are reduced once, after the sum
    terms = (vals[src] * cvals[pos] if field.k == 1
             else ar.fmul(field, vals[src], cvals[pos]))
    order = np.argsort(out)
    out = out[order]
    start = np.flatnonzero(np.diff(out, prepend=-1))
    acc = np.add.reduceat(terms[order], start, axis=0) % field.p
    keep = acc.any(axis=1)
    return out[start[keep]], acc[keep]


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
    gamma = ar.identity(f, dim)
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


def _split_pairs(F: Fiber, ix: int, iy: int):
    """(x_1, x_2, y_1, y_2, c) over the splittings x_1 + x_2 = e^alpha and
    y_1 + y_2 = e^beta as exponent tuples, with c the product of their
    nonzero binomial coefficients mod p."""
    p, n = F.L.p, F.L.dim

    def splits(alpha):
        for b in itertools.product(*[range(a + 1) for a in alpha]):
            c = math.prod(math.comb(a, t) for a, t in zip(alpha, b)) % p
            if c:
                yield b, tuple(alpha[t] - b[t] for t in range(n)), c

    for x1, x2, c1 in splits(F.labels[ix]):
        for y1, y2, c2 in splits(F.labels[iy]):
            yield x1, x2, y1, y2, c1 * c2 % p


def prop30_sigma(F: Fiber, ix: int, iy: int):
    """sigma(e^alpha (x) e^beta) = gamma(x_1) gamma(y_1) gamma^{-1}(x_2 y_2)
    evaluated in U_lambda and certified to be a scalar; returns that Scalar.

    x_2 y_2 is multiplied in u(L); gamma lifts PBW labels; the convolution
    inverse of gamma is the signed reversed product reduced in U_lambda.
    """
    f = F.field
    eng = F.engine          # U_lambda arithmetic
    ueng = _u_engine(F)     # u(L) arithmetic
    n = F.L.dim
    acc: dict = {}
    for b1, a2, b2, y2, c in _split_pairs(F, ix, iy):
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
            acc = eng._axpy(acc, eng.cmul(eng.cfrom(c), gc), piece)
    unit_label = F.labels[0]
    for alpha_t, c in acc.items():
        if alpha_t != unit_label and c != eng.czero:
            raise NotScalar(
                f"sigma({F.labels[ix]},{F.labels[iy]}) has a non-scalar "
                f"component at {alpha_t}")
    c = acc.get(unit_label, eng.czero)
    cc = (c,) if f.k == 1 else c
    return Scalar(f, tuple(cc))


def prop30_multiply(F: Fiber, ix: int, iy: int, sigma_cache=None) -> np.ndarray:
    """The twisted-product formula x o y = sigma(x_1 (x) y_1) x_2 y_2 for
    basis elements of u(L), valued in U_lambda coordinates.  Must reproduce
    the fiber's structure constants."""
    f = F.field
    ueng = _u_engine(F)
    out = ar.zeros(f, (F.dim,))
    for b1, a2, b2, y2, c in _split_pairs(F, ix, iy):
        key = (F.index[b1], F.index[b2])
        if sigma_cache is not None and key in sigma_cache:
            s = sigma_cache[key]
        else:
            s = prop30_sigma(F, key[0], key[1])
            if sigma_cache is not None:
                sigma_cache[key] = s
        prod = ueng.mul_label({a2: ueng.cone}, y2)
        wc = np.array((s * f.scalar(c)).coeffs, dtype=np.int64)
        for term, gc in prod.items():
            cc = np.array((gc,) if f.k == 1 else gc, dtype=np.int64)
            contrib = ar.fmul(f, wc[None, :], cc[None, :])[0]
            out[F.index[term]] = ar.fadd(f, out[F.index[term]], contrib)
    return out


# cost bound of one chunk of a batched sigma evaluation: N^2 accumulator
# cells per pair plus N per term
SIGMA_CHUNK_CELLS = 2 ** 18


class Prop30Context:
    """Prop. 30's x o y = sigma(x_1, y_1) x_2 y_2 on a prime-field fiber of
    dimension N, evaluated in batches on sparse rows.

    sigma(x, y) sums U_lambda products head * tail over the splittings: the
    head e^{x_1} e^{y_1} is a row of the fiber's mul, the tail
    gamma^{-1}(x_2 y_2) a u(L) product mapped by gamma^{-1}.  Heads, tails
    and the splittings of every label are CSR rows (a head or a tail has
    about 7 nonzeros of 125 at p = 5).  Sigma values live in an (N, N)
    table, -1 where not yet evaluated; `multiply` reads its values from the
    table, evaluates the missing ones in one `_evaluate` call and sums the
    u(L) rows x_2 y_2 once.  prop30_sigma / prop30_multiply are the oracle.
    """

    def __init__(self, F: Fiber):
        f = F.field
        if f.k != 1:
            raise ShapeMismatch(
                "the vectorized twisted-product formula is implemented for "
                "prime fields; use prop30_multiply elsewhere")
        p, N = F.L.p, F.dim
        self.F, self.p, self.N = F, p, N
        u0 = Fiber(F.L, FiberPoint.make(f, [0] * F.L.dim)).alg.mul
        self.u0_flat = u0[:, :, :, 0].reshape(N * N, N)
        mul = F.alg.mul.reshape(-1)
        nz = np.flatnonzero(mul)
        self._mul = ar.csr_rows(N * N, N, nz, mul[nz])
        ginv = _pbw_inverse_rows(F).reshape(-1, 1)
        nz = np.flatnonzero(ginv)
        ginv = ar.csr_rows(N, N, nz, ginv[nz])
        # tails gamma^{-1}(e^b e^d) for every label pair: the u(L) slabs of
        # e^b times gamma^{-1}, a few per product to keep temporaries small
        cells, vals, step = [], [], max(1, 2 ** 16 // (N * N))
        for b in range(0, N, step):
            slab = u0[b:b + step].reshape(-1, 1)
            nz = np.flatnonzero(slab)
            c, v = _sparse_times_csr(f, N, nz, slab[nz], ginv)
            cells.append(c + b * N * N)
            vals.append(v[:, 0])
        self._tails = ar.csr_rows(N * N, N,
                                  *map(np.concatenate, (cells, vals)))
        # the splittings x_1 + x_2 = a of label a: CSR row a lists their
        # labels x_1, x_2 and binomial coefficients
        a, self._x1, self._x2, self._binom = F.splittings()
        self._splits = np.searchsorted(a, np.arange(N + 1))
        self._nsplit = np.diff(self._splits)
        self.sigma = np.full((N, N), -1, dtype=np.int64)

    def _evaluate(self, x: np.ndarray, y: np.ndarray):
        """Evaluate the missing sigma(x[t], y[t]) into the table; NotScalar
        names the first of these pairs whose value is not a scalar.

        Every head nonzero of a term meets every tail nonzero of it; the
        products are summed per (pair, i, j) cell by bincount and the cells
        contracted with the rows of mul.  Chunks cost SIGMA_CHUNK_CELLS.
        The batch is topped up with the other missing pairs of the rows x to
        the end of the last chunk, so a row-by-row sweep makes one call per
        chunk; a top-up pair that is not a scalar stays unevaluated.

        float64 sums are exact: N = p^n <= DIM_CAP = 512 forces p <= 509, a
        cell sums at most N^2 products of three residues (< 2^18 * 509^3 <
        2^46) and an output coordinate N^2 products of two (< 2^36)."""
        p, N = self.p, self.N
        NN = N * N
        sp, x1, x2, binom = self._splits, self._x1, self._x2, self._binom
        mptr, mcols, mvals = self._mul
        tptr, tcols, tvals = self._tails
        need = x.size
        rows = np.unique(x)
        more = self.sigma[rows] < 0
        more[np.searchsorted(rows, x), y] = False
        mr, my = np.nonzero(more)
        x, y = np.concatenate([x, rows[mr]]), np.concatenate([y, my])
        cost = NN + N * self._nsplit[x] * self._nsplit[y]
        chunk = (cost.cumsum() - cost) // SIGMA_CHUNK_CELLS
        stop = np.searchsorted(chunk, chunk[need - 1], side="right")
        cuts = (np.flatnonzero(chunk[1:stop] != chunk[:stop - 1]) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [stop]):
            cx, cy = x[lo:hi], y[lo:hi]
            # the terms (u, v) of each pair: u runs over the splittings of
            # its x, v over those of its y
            pu, u = ar.csr_expand(sp, cx)
            tu, v = ar.csr_expand(sp, cy[pu])
            pair, u = pu[tu], u[tu]
            coef = binom[u] * binom[v] % p
            heads = x1[u] * N + x1[v]
            tails = x2[u] * N + x2[v]
            # every head nonzero of a term meets every tail nonzero of it
            th, hpos = ar.csr_expand(mptr, heads)
            e, tpos = ar.csr_expand(tptr, tails[th])
            th, hpos = th[e], hpos[e]
            acc = np.bincount(
                (pair[th] * N + mcols[hpos]) * N + tcols[tpos],
                weights=coef[th] * mvals[hpos] * tvals[tpos],
                minlength=cx.size * NN)
            # contract the nonzero (pair, i, j) cells with the rows of mul
            cells = np.flatnonzero(acc)
            c, pos = ar.csr_expand(mptr, cells % NN)
            vec = np.bincount(
                cells[c] // NN * N + mcols[pos],
                weights=(acc[cells].astype(np.int64) % p)[c] * mvals[pos],
                minlength=cx.size * N)
            vec = vec.astype(np.int64).reshape(cx.size, N) % p
            # label 0 is the unit
            scalar = ~vec[:, 1:].any(axis=1)
            self.sigma[cx[scalar], cy[scalar]] = vec[scalar, 0]
            bad = np.flatnonzero(~scalar[:need - lo])
            if bad.size:
                labels = self.F.labels
                raise NotScalar(
                    f"sigma({labels[cx[bad[0]]]},{labels[cy[bad[0]]]}) has "
                    "a non-scalar component")

    def sigma_value(self, ix: int, iy: int) -> int:
        """sigma(e^alpha (x) e^beta) as a base-field integer, certified to
        be a scalar."""
        if self.sigma[ix, iy] < 0:
            self._evaluate(np.array([ix]), np.array([iy]))
        return int(self.sigma[ix, iy])

    def multiply(self, ix: int, iy: int) -> np.ndarray:
        """x o y = sigma(x_1 (x) y_1) x_2 y_2 for basis elements, in
        U_lambda coordinates; must reproduce the fiber's structure
        constants."""
        p, N = self.p, self.N
        u = slice(self._splits[ix], self._splits[ix + 1])
        v = slice(self._splits[iy], self._splits[iy + 1])
        x1, y1 = self._x1[u, None], self._x1[None, v]
        s = self.sigma[x1, y1]
        if s.min() < 0:
            mu, mv = np.nonzero(s < 0)
            self._evaluate(x1[mu, 0], y1[0, mv])
            s = self.sigma[x1, y1]
        w = self._binom[u, None] * self._binom[None, v] % p * s % p
        rows = self.u0_flat[self._x2[u, None] * N + self._x2[None, v]]
        return (w.reshape(-1) @ rows.reshape(-1, N) % p)[:, None]

