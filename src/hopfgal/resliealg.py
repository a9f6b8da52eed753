"""Restricted Lie algebras and their enveloping algebras.

Provides the PBW straightening engine for U(L), the reduced algebras U_lambda
(quotients by e_i^p - e_i^[p] - lambda_i), the restricted enveloping algebra
u(L) with its Hopf structure, the coaction of u(L) on each U_lambda, the PBW
coalgebra splitting, and the cocycle-formula product used as a cross-check.

PBW monomials are written e^alpha = e_1^{a_1} ... e_n^{a_n} in the fixed
basis order; fiber basis labels run over 0 <= a_i < p in lexicographic order
(last exponent fastest).

Structure constants come from one chain of sparse products,
`_structure_rows`: the engine supplies only the n left-generator matrices
(row t is e_i e^t), and each row mul[alpha] is mul[alpha - delta_i] times the
matrix of e_i, for the first nonzero exponent a_i of alpha.  `Fiber` streams
the rows into its dense tensor; `Prop30Context` makes the u(L) rows it needs,
kept sparse, and sums sigma with the cocycle kernel hopf.cocycle_pairs.  The
antipode and gamma^{-1} rows are a chain of left products by the fiber's own
generator rows.  The dict engine stays the reference arithmetic: tests
compare with it, and it computes the generator matrices, the Prop. 30
oracles and `uenv_normalize`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _arrays as ar
from . import fdalg, hopf
from .errors import (
    BadLabel,
    DimCapExceeded,
    FieldMismatch,
    NotScalar,
    ShapeMismatch,
)
from .exactfield import Field, Scalar
from .fdalg import SCAlgebra
from .hopf import HopfAlgebra, LinMap, Terms

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
        names = self.labels
        for i, j in zip(*np.triu_indices(self.dim, 1)):
            entries = {names[m]: int(c) for m, c in enumerate(
                self.bracket[i, j]) if c}
            if entries:
                out["bracket"][f"{names[i]},{names[j]}"] = entries
        for i, row in enumerate(self.pmap):
            entries = {names[m]: int(c) for m, c in enumerate(row) if c}
            if entries:
                out["pmap"][names[i]] = entries
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
    square = np.flatnonzero((c[np.arange(n), np.arange(n)] % p).any(axis=1))
    if square.size:
        out.append(f"[e_{square[0]}, e_{square[0]}] is nonzero")
    # Jacobi: [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on basis triples
    cc = np.einsum("ijt,tmr->ijmr", c, c)
    jacobi = (cc + cc.transpose(1, 2, 0, 3) + cc.transpose(2, 0, 1, 3)) % p
    for i, j, m in np.argwhere(jacobi.any(axis=3)).tolist():
        out.append(f"Jacobi identity fails at ({i},{j},{m})")
        if len(out) >= max_reports:
            return out
    # restrictedness: ad(e_i^[p]) = (ad e_i)^p, ad[i] = L.ad_matrix(i)
    ad = power = c.transpose(0, 2, 1)
    for _ in range(p - 1):
        power = (power @ ad) % p
    target = np.einsum("im,mab->iab", L.pmap, ad) % p
    return out + [f"p-operation incompatible with ad powers at e_{i}"
                  for i in np.flatnonzero(((power - target) % p).any(
                      axis=(1, 2)))]


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

    `alg.mul[alpha]` (row beta is e^alpha e^beta) is filled one label at a
    time from the sparse rows of `_structure_rows`, each scattered once into
    the dense tensor as it is made; only the last p^(n-1) rows are kept, no
    cell list of the whole tensor (1.48 M nonzeros for sl2 at p = 7, point
    (1, 2, 3)).  `alg` carries the PBW generators e_i as its generators:
    `fdalg.center` imposes commutation with them only."""

    def __init__(self, L: RestrictedLie, point: FiberPoint):
        field = point.field
        p, n = L.p, L.dim
        dim = p ** n
        if dim > fdalg.DIM_CAP:
            raise DimCapExceeded(
                f"fiber dimension p^n = {dim} exceeds the cap "
                f"{fdalg.DIM_CAP}; reduce p or the Lie algebra dimension")
        self.L = L
        self.field = field
        self.point = point
        self.labels = pbw_labels(p, n)
        self.index = {a: i for i, a in enumerate(self.labels)}
        self.dim = dim
        self.engine = _Engine(L, field, lam=list(point.values))
        mul = np.zeros((dim, dim, dim, field.k), dtype=np.int64)
        step, rows = _structure_rows(self.engine, self.labels), {}
        for ia in range(dim):
            cells, vals = rows[ia] = step(rows.get, ia)
            mul[ia].reshape(dim * dim, field.k)[cells] = vals
            rows.pop(ia - p ** (n - 1), None)
        unit = ar.zeros(field, (dim,))
        unit[0, 0] = 1
        self.alg = SCAlgebra(field, mul, unit, check=False,
                             labels=[list(a) for a in self.labels],
                             generators=[p ** (n - 1 - i) for i in range(n)])

    def splittings(self) -> Terms:
        """Every splitting beta + gamma = alpha of the PBW labels whose
        coefficient prod binom(alpha_t, beta_t) is nonzero mod p, as the
        `hopf.Terms` (ptr, alpha, beta, gamma, coefficient) sorted by alpha,
        then beta: the u(L) coproduct and the U_lambda coaction in PBW
        coordinates.  Built from the Pascal table one coordinate at a
        time."""
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
        alpha = alpha[order]
        return Terms(np.searchsorted(alpha, np.arange(self.dim + 1)), alpha,
                     beta[order], gamma[order],
                     coef[order, None] * ar.unit_scalar(self.field))

    def binomial_tensor(self) -> np.ndarray:
        """The splittings as a dense (dim, dim, dim, k) tensor, kept for the
        benchmark and the tests only: the library reads `splittings()`."""
        return self.splittings().dense(self.dim, self.dim)


def _structure_rows(engine: _Engine, labels: list[tuple]):
    """The structure constants of the engine's U_lambda by rows: returns
    step(row, ia), row ia of the PBW labels as the sorted flat cells beta
    dim + gamma of the nonzero coordinates gamma of e^alpha e^beta, alpha =
    labels[ia], and their (nnz, k) values.

    Row alpha is row(alpha - delta_i) times Lambda_i
    (`_arrays.sparse_times_csr`), i the first nonzero exponent of alpha, and
    Lambda_i, left multiplication by e_i, a CSR matrix from the engine: its
    row beta is one engine product, row beta - delta_l times e_l, l the last
    nonzero exponent of beta.  For sl2, Lambda_e has at most one entry per
    column, so the steps by e (294 of 342 at p = 7) only sort their terms.
    A parent row lies at most p^(n-1) rows back; the caller memoises
    `row`."""
    f, p, n, dim = engine.field, engine.p, engine.n, len(labels)
    index = {a: i for i, a in enumerate(labels)}
    gens = []
    for i in range(n):
        rows = [{tuple(int(t == i) for t in range(n)): engine.cone}]
        for beta in labels[1:]:
            l = max(t for t in range(n) if beta[t])
            rows.append(engine.rmul_elem(rows[len(rows) - p ** (n - 1 - l)],
                                         l))
        indptr, cols, vals = [0], [], []
        for row in rows:
            for t, c in row.items():
                cols.append(index[t])
                vals.append((c,) if f.k == 1 else c)
            indptr.append(len(cols))
        gens.append((np.array(indptr, dtype=np.int64),
                     np.array(cols, dtype=np.int64),
                     np.array(vals, dtype=np.int64).reshape(len(cols), f.k)))

    def step(row, ia):
        if ia == 0:
            return np.arange(dim) * (dim + 1), np.tile(ar.unit_scalar(f),
                                                       (dim, 1))
        i = next(t for t in range(n) if labels[ia][t])
        return ar.sparse_times_csr(f, dim, *row(ia - p ** (n - 1 - i)),
                                   gens[i])
    return step


# ---------------------------------------------------------------------------
# u(L) and its Hopf structure
# ---------------------------------------------------------------------------

def u_restricted(L: RestrictedLie, field: Field | None = None):
    """The restricted enveloping algebra u(L) = U_0 with its Hopf structure:
    generators primitive, eps(e_i) = 0, S(e_i) = -e_i."""
    field = field or L.field
    F = Fiber(L, FiberPoint.make(field, [0] * L.dim))
    counit = ar.zeros(field, (F.dim,))
    counit[0, 0] = 1
    # antipode: antimultiplicative extension of S(e_i) = -e_i; on a PBW
    # monomial this is the sign-scaled reversed product
    H = HopfAlgebra(F.alg, F.splittings(), counit, _pbw_inverse_rows(F))
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
    return ComoduleAlgebra(F.alg, H, F.splittings())


def pbw_splitting(F: Fiber, CA=None):
    """The PBW coalgebra splitting gamma(e^alpha) = e^alpha from u(L) into
    U_lambda, with its convolution inverse obtained by applying the antipode
    formula inside U_lambda."""
    from .galois import Splitting

    if CA is None:
        CA = fiber_coaction(F)
    f = F.field
    return Splitting(CA, LinMap(f, ar.identity(f, F.dim)),
                     inverse=LinMap(f, _pbw_inverse_rows(F)))


def _pbw_inverse_rows(F: Fiber) -> np.ndarray:
    """The reversed signed product (-1)^|alpha| e_n^{a_n} ... e_1^{a_1} of
    every PBW label, reduced in U_lambda: gamma^{-1}(e^alpha) for the PBW
    splitting, and on the zero fiber the antipode of u(L).  Rows are
    U_lambda coordinate vectors.  Row alpha is -e_j gamma^{-1}(e^{alpha -
    delta_j}), j the last nonzero exponent of alpha: the parent rows times
    the fiber's rows mul[delta_j], one matmul per degree and j that occur
    together.  Computed once per fiber, cached on it and read-only."""
    inv = getattr(F, "_inverse_rows", None)
    if inv is not None:
        return inv
    f, p, n = F.field, F.L.p, F.L.dim
    labels = np.array(F.labels)
    degree = labels.sum(axis=1)
    last = n - 1 - np.argmax(labels[:, ::-1] > 0, axis=1)
    inv = ar.identity(f, F.dim)     # row 0: gamma^{-1}(1) = 1
    for d, j in sorted(set(zip(degree[1:].tolist(), last[1:].tolist()))):
        step = p ** (n - 1 - j)
        rows = np.flatnonzero((degree == d) & (last == j))
        inv[rows] = -ar.fmatmul(f, inv[rows - step], F.alg.mul[step]) % p
    inv.flags.writeable = False
    F._inverse_rows = inv
    return inv


# ---------------------------------------------------------------------------
# the cocycle formula of the twisted-product cross-check
# ---------------------------------------------------------------------------

def _u_engine(F: Fiber) -> _Engine:
    """A cached u(L) straightening engine over the fiber's field."""
    eng = getattr(F, "_zero_engine", None)
    if eng is None:
        eng = F._zero_engine = _Engine(F.L, F.field, lam=[0] * F.L.dim)
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


class Prop30Context:
    """Prop. 30's x o y = sigma(x_1, y_1) x_2 y_2 on a prime-field fiber of
    dimension N (prime fields only: `sigma_value` returns a base-field int).

    sigma(x, y) = sum gamma(x_1) gamma(y_1) gamma^{-1}(x_2 y_2) comes from
    `hopf.cocycle_pairs`, the kernel of `galois.splitting_to_cocycle` too:
    gamma is the identity, so its head terms are `Fiber.splittings`, and
    pairs go column by column, so one V row serves its column.  The u(L)
    rows e^b e^d and tails gamma^{-1}(e^b e^d) of a label b are made, by
    the parent-row step of `_structure_rows`, when a pair first reaches b.
    Sigma values live in an (N, N) table, -1 where not yet evaluated;
    `multiply` evaluates the missing ones in one `_evaluate` call and sums
    the u(L) rows x_2 y_2 in int64.  The product of two top labels needs
    every sigma pair: about 0.7 s at p = 5 on one core.  prop30_sigma /
    prop30_multiply are the oracle."""

    def __init__(self, F: Fiber):
        f = F.field
        if f.k != 1:
            raise ShapeMismatch(
                "the vectorized twisted-product formula is implemented for "
                "prime fields; use prop30_multiply elsewhere")
        N = F.dim
        self.F, self.p, self.N = F, F.L.p, N
        self._mul = ar.csr(F.alg.mul.reshape(N * N, N, 1))
        self._ginv = ar.csr(_pbw_inverse_rows(F))
        self._step = _structure_rows(_u_engine(F), F.labels)
        # u(L) rows by label b, and as rows b N + d of one store, then the
        # tails as rows N^2 + b N + d: row r is cols[lo[r]:hi[r]]
        self._blocks = {}
        self._rows = (*np.zeros((2, 2 * N * N), dtype=np.int64),
                      np.zeros(0, dtype=np.int64), ar.zeros(f, (0,)))
        # the splittings x_1 + x_2 = a of label a, the terms of the
        # coaction: CSR row a lists x_1, x_2 and binomial coefficients
        self._terms = F.splittings()
        self.sigma = np.full((N, N), -1, dtype=np.int64)

    def _label(self, i) -> int:
        if (isinstance(i, (bool, np.bool_)) or not isinstance(
                i, (int, np.integer)) or not 0 <= i < self.N):
            raise BadLabel(f"label {i!r} is not an index in 0..{self.N - 1}")
        return int(i)

    def _build(self, labels: np.ndarray):
        """Make the u(L) rows and tails of the labels not made yet, in
        increasing order, and return the tails as `hopf.cocycle_pairs`
        reads them.  `labels` is a union of splitting sets, so it holds the
        parents of its labels; so does the set of labels made, and with a
        label b it holds every x_2 of b's splittings."""
        N, blocks = self.N, self._blocks
        new = sorted(set(labels.tolist()) - blocks.keys())
        for b in new:
            blocks[b] = self._step(blocks.get, b)
        made = [blocks[b] for b in new] + [ar.sparse_times_csr(
            self.F.field, N, *blocks[b], self._ginv) for b in new]
        lo, hi, cols, vals = self._rows
        end = cols.size
        for b, (c, _) in zip(new + [N + b for b in new], made):
            ptr = end + np.searchsorted(c, np.arange(N + 1) * N)
            lo[b * N:b * N + N], hi[b * N:b * N + N] = ptr[:-1], ptr[1:]
            end += c.size
        cols = [cols] + [c % N for c, _ in made]
        vals = [vals] + [v for _, v in made]
        self._rows = lo, hi, np.concatenate(cols), np.concatenate(vals)
        return lo[N * N:], hi[N * N:], *self._rows[2:]

    def _evaluate(self, x: np.ndarray, y: np.ndarray):
        """Evaluate the missing sigma(x[t], y[t]) into the table; NotScalar
        names the first of these pairs whose value is not a scalar.

        Then the other missing pairs of the rows x, then all other missing
        pairs, each group column by column, in the chunks of
        `hopf.cocycle_pairs`: they stop after the one with the last
        requested pair, and a top-up pair that is not a scalar stays -1."""
        need = x.size
        if not need:
            return
        sp, _, x1s, x2s, binom = self._terms
        miss = self.sigma < 0
        miss[x, y] = False
        my, mx = np.nonzero(miss.T)
        top = np.isin(mx, x)
        x = np.concatenate([x, mx[top], mx[~top]])
        y = np.concatenate([y, my[top], my[~top]])
        for lo, hi, vec in hopf.cocycle_pairs(
                self.F.field, (sp, x2s, x1s, binom), self._mul,
                self._build, x, y, self.N):
            # label 0 is the unit
            scalar = ~vec[:, 1:].any(axis=(1, 2))
            cx, cy = x[lo:hi], y[lo:hi]
            self.sigma[cx[scalar], cy[scalar]] = vec[scalar, 0, 0]
            bad = np.flatnonzero(~scalar[:need - lo])
            if bad.size:
                labels = self.F.labels
                raise NotScalar(
                    f"sigma({labels[cx[bad[0]]]},{labels[cy[bad[0]]]}) has "
                    "a non-scalar component")
            if hi >= need:
                return

    def sigma_value(self, ix: int, iy: int) -> int:
        """sigma(e^alpha (x) e^beta) as a base-field integer, certified to
        be a scalar."""
        ix, iy = self._label(ix), self._label(iy)
        if self.sigma[ix, iy] < 0:
            self._evaluate(np.array([ix]), np.array([iy]))
        return int(self.sigma[ix, iy])

    def multiply(self, ix: int, iy: int) -> np.ndarray:
        """x o y = sigma(x_1 (x) y_1) x_2 y_2 for basis elements, in
        U_lambda coordinates; must reproduce the fiber's structure
        constants."""
        ix, iy = self._label(ix), self._label(iy)
        p, N = self.p, self.N
        sp, _, x1s, x2s, binom = self._terms
        u, v = slice(sp[ix], sp[ix + 1]), slice(sp[iy], sp[iy + 1])
        x1, y1 = x1s[u, None], x1s[None, v]
        s = self.sigma[x1, y1]
        if s.min() < 0:
            # column by column: one V row serves its column
            mv, mu = np.nonzero((s < 0).T)
            self._evaluate(x1[mu, 0], y1[0, mv])
            s = self.sigma[x1, y1]
        if ix not in self._blocks:
            self._build(x2s[u])
        w = (binom[u] * binom[v, 0] % p * s % p).ravel()
        # the u(L) rows x_2 y_2, summed in int64: below N^3 p^2 < 2^46
        lo, hi, ucols, uvals = self._rows
        src, pos = ar.csr_expand(
            lo, (x2s[u, None] * N + x2s[None, v]).ravel(), hi)
        out = np.zeros(N, dtype=np.int64)
        np.add.at(out, ucols[pos], w[src] * uvals[pos, 0])
        return out[:, None] % p
