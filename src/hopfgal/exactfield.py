"""Exact arithmetic in F_p and F_{p^k}, univariate polynomial factorization,
and splitting-field construction.

Elements of F_{p^k} are coefficient vectors of length k over F_p
(low degree first) reduced modulo a monic irreducible modulus.  When no
modulus is supplied the lexicographically smallest monic irreducible of
the requested degree is chosen, so that two constructions of the same
field are bit-identical.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

import numpy as np

from .errors import (
    BadDegree,
    BadPrime,
    DivisionByZero,
    FieldMismatch,
    NotAnExtension,
    ZeroPolynomial,
)

DEFAULT_SEED = 0

# The int64 kernels sum up to MAX_INNER products of residues before they
# reduce mod p: an inner dimension of at most DIM_CAP^2 = 512^2 (the
# contraction over the basis pairs of an algebra at the dimension cap).
# Such sums stay exact while MAX_INNER * (p - 1)^2 < 2^63; P_MAX is the
# largest prime that satisfies this, and Field rejects larger primes.
MAX_INNER = 512 ** 2
P_MAX = 5931641
# The largest k of Field(p, k): its tables hold k^3 int64 cells, and the
# modulus search grows fast (Field(2, 64) 0.5 s, Field(2, 128) 16 s).
K_MAX = 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# integer-coefficient polynomial helpers over F_p (low degree first, trimmed)
# ---------------------------------------------------------------------------

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        d = len(a) - len(b)
        c = (a[-1] * inv) % p
        q[d] = c
        for i, bi in enumerate(b):
            a[d + i] = (a[d + i] - c * bi) % p
        a = _ptrim(a)
    return _ptrim(q), a


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _ppowmod(a, e, mod, p):
    result = [1]
    a = _pmod(a, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, a, p), mod, p)
        a = _pmod(_pmul(a, a, p), mod, p)
        e >>= 1
    return result


def _pirreducible(f, p):
    # Rabin test: x^(p^n) == x mod f, and x^(p^(n/r)) - x coprime to f
    n = len(f) - 1
    if n < 1:
        return False
    x = [0, 1]
    xq = _ppowmod(x, p ** n, f, p)
    if _ptrim(_psub(xq, x, p)):
        return False
    r = 2
    m = n
    primes = []
    while m > 1:
        if m % r == 0:
            primes.append(r)
            while m % r == 0:
                m //= r
        r += 1
    for r in primes:
        xr = _ppowmod(x, p ** (n // r), f, p)
        if _pgcd(_psub(xr, x, p), f, p) != [1]:
            return False
    return True


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, k: int) -> tuple:
    """Monic irreducible of degree k over F_p with lexicographically smallest
    coefficient vector (constant coefficient compared first).  At k > 1 the
    search starts at constant term 1: T divides every tail with constant 0.
    Tails are the base-p digits of a counter, so F_p is never materialised."""
    if k == 1:
        return (0, 1)
    for m in range(p ** (k - 1), p ** k):
        f = [m // p ** (k - 1 - j) % p for j in range(k)] + [1]
        if _pirreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

class Field:
    """A prime field F_p or an explicit extension F_{p^k} presented over F_p.
    p must be a prime no larger than P_MAX, else BadPrime, and k no larger
    than K_MAX, else BadDegree."""

    __slots__ = ("p", "k", "modulus", "_red", "_red_rows", "_t_images",
                 "_embed_cache")

    def __init__(self, p: int, k: int = 1, modulus=None):
        if p > P_MAX:
            raise BadPrime(
                f"p = {p} exceeds P_MAX = {P_MAX}, the largest prime for "
                "which the int64 kernels stay exact")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if k > K_MAX:
            raise BadDegree(f"extension degree {k} exceeds K_MAX = {K_MAX}")
        self.p = p
        self.k = k
        if k == 1:
            if modulus is not None:
                raise ValueError("prime field takes no modulus")
            self.modulus = None
        else:
            if modulus is None:
                modulus = _smallest_irreducible(p, k)
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _pirreducible(list(modulus), p):
                raise ValueError("modulus is reducible")
            self.modulus = modulus
        # reduction matrix: row d = coefficients of T^d mod modulus, d < 2k-1
        red = np.zeros((2 * k - 1, k), dtype=np.int64)
        for d in range(2 * k - 1):
            if d < k:
                red[d, d] = 1
            else:
                rem = _pmod([0] * d + [1], list(self.modulus), p)
                for i, c in enumerate(rem):
                    red[d, i] = c
        self._red = red
        self._red_rows = [[int(c) for c in row] for row in red]
        # row c: the coefficients of t^a * t^c for a < k, concatenated
        ij = np.add.outer(np.arange(k), np.arange(k))
        self._t_images = red[ij].reshape(k, k * k)
        self._embed_cache = {}

    @property
    def order(self) -> int:
        return self.p ** self.k

    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.k}"

    # -- element constructors ------------------------------------------------

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar of {value.field} given to {self}")
            return value
        if isinstance(value, (int, np.integer)):
            coeffs = [int(value) % self.p] + [0] * (self.k - 1)
        else:
            coeffs = [int(c) % self.p for c in value]
            if len(coeffs) > self.k:
                raise ValueError("too many coefficients")
            coeffs += [0] * (self.k - len(coeffs))
        return Scalar(self, tuple(coeffs))

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    @property
    def gen(self) -> "Scalar":
        """The class of T when k > 1, else 1."""
        if self.k == 1:
            return self.one
        return Scalar(self, tuple([0, 1] + [0] * (self.k - 2)))

    def elements(self):
        """All field elements, low coordinate fastest."""
        for rev in itertools.product(range(self.p), repeat=self.k):
            yield Scalar(self, tuple(reversed(rev)))

    def random_scalar(self, rng: random.Random) -> "Scalar":
        return Scalar(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    # -- raw coefficient-tuple arithmetic (used by hot loops) ----------------

    def cadd(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def csub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def cneg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def cmul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        full = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    full[i + j] += ai * bj
        out = [0] * k
        for d, c in enumerate(full):
            if c:
                row = self._red_rows[d]
                for i in range(k):
                    out[i] += c * row[i]
        return tuple(x % p for x in out)

    def cinv(self, a):
        if not any(a):
            raise DivisionByZero("inverse of zero")
        if self.k == 1:
            return (pow(a[0], -1, self.p),)
        # extended euclid in F_p[T] against the modulus
        p = self.p
        r0, r1 = list(self.modulus), _ptrim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, r = _pdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        lead_inv = pow(r0[-1], -1, p)
        inv = [(c * lead_inv) % p for c in s0]
        inv = _pmod(inv, list(self.modulus), p)
        return tuple(inv + [0] * (self.k - len(inv)))

    @property
    def czero(self):
        return (0,) * self.k

    @property
    def cone(self):
        return (1,) + (0,) * (self.k - 1)

    # -- embeddings ----------------------------------------------------------

    def embedding_matrix(self, big: "Field") -> np.ndarray:
        """k x big.k matrix over F_p sending coefficient vectors of self into
        big; deterministic (smallest root of the modulus in big)."""
        if big == self:
            return np.eye(self.k, dtype=np.int64)
        if big.p != self.p or big.k % self.k != 0:
            raise NotAnExtension(f"{big} does not extend {self}")
        key = (big.p, big.k, big.modulus)
        if key in self._embed_cache:
            return self._embed_cache[key]
        if self.k == 1:
            mat = np.zeros((1, big.k), dtype=np.int64)
            mat[0, 0] = 1
        else:
            f = Poly.from_ints(big, self.modulus)
            roots = sorted(r.coeffs for r in f.roots())
            if not roots:
                raise NotAnExtension(f"modulus of {self} has no root in {big}")
            root = Scalar(big, roots[0])
            mat = np.zeros((self.k, big.k), dtype=np.int64)
            power = big.one
            for i in range(self.k):
                mat[i] = power.coeffs
                power = power * root
        self._embed_cache[key] = mat
        return mat

    def embed(self, a: "Scalar", big: "Field") -> "Scalar":
        if a.field != self:
            raise FieldMismatch("scalar not in this field")
        mat = self.embedding_matrix(big)
        coeffs = (np.asarray(a.coeffs, dtype=np.int64) @ mat) % big.p
        return Scalar(big, tuple(int(c) for c in coeffs))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        out = {"p": self.p, "k": self.k}
        if self.modulus is not None:
            out["modulus"] = list(self.modulus)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Field":
        return cls(data["p"], data.get("k", 1), data.get("modulus"))


class Scalar:
    """An element of a Field; immutable coefficient vector in [0, p)^k."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> "Scalar":
        if isinstance(other, (int, np.integer)):
            return self.field.scalar(int(other))
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.cadd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.csub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return self.field.scalar(other) - self

    def __neg__(self):
        return Scalar(self.field, self.field.cneg(self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.cmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.scalar(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.cinv(self.coeffs))

    def frobenius(self) -> "Scalar":
        return self ** self.field.p

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, np.integer)):
            other = self.field.scalar(int(other))
        return (isinstance(other, Scalar) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.field.k == 1:
            return str(self.coeffs[0])
        return str(list(self.coeffs))

    def to_json(self) -> list:
        return list(self.coeffs)


def field_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Dispatch table form of scalar arithmetic: add/sub/mul/div/pow/frobenius."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        return a ** b if isinstance(b, int) else NotImplemented
    if op == "frobenius":
        return a.frobenius()
    raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# Polynomials over a Field
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial over a Field; coefficients low degree first,
    trailing zeros trimmed.  The zero polynomial has degree -1."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = [field.scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        return cls(field, [field.scalar(c) for c in ints])

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, [field.zero, field.one])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(c.coeffs for c in self.coeffs)))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c!r}*T^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"

    def key(self):
        """Deterministic sort key: degree, then coefficients low degree first."""
        return (self.degree, tuple(c.coeffs for c in self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        f = self.field
        return Poly(f, [(self.coeffs[i] if i < len(self.coeffs) else f.zero)
                        + (other.coeffs[i] if i < len(other.coeffs) else f.zero)
                        for i in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Poly(self.field, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        f = self.field
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(f, out)

    def __divmod__(self, other):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        q = [f.zero] * max(0, len(rem) - len(other.coeffs) + 1)
        inv = other.coeffs[-1].inverse()
        while len(rem) >= len(other.coeffs) and rem:
            d = len(rem) - len(other.coeffs)
            c = rem[-1] * inv
            q[d] = c
            for i, b in enumerate(other.coeffs):
                rem[d + i] = rem[d + i] - c * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly(f, q), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.coeffs[-1].inverse()
        return self * inv

    def gcd(self, other) -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        result = Poly(self.field, [self.field.one])
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def derivative(self) -> "Poly":
        f = self.field
        return Poly(f, [c * f.scalar(i) for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, a: Scalar) -> Scalar:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def map_field(self, big: Field) -> "Poly":
        return Poly(big, [self.field.embed(c, big) for c in self.coeffs])

    # -- factorization -------------------------------------------------------

    def _pth_root(self) -> "Poly":
        # defined when the derivative vanishes: all exponents divisible by p
        f = self.field
        p = f.p
        coeffs = []
        for i in range(0, len(self.coeffs), p):
            c = self.coeffs[i]
            # p-th root in F_{p^k}: c^(p^(k-1))
            coeffs.append(c ** (p ** (f.k - 1)))
        return Poly(f, coeffs)

    def _squarefree_decompose(self):
        """list of (monic squarefree poly, multiplicity), product = self/lead."""
        f = self.monic()
        if f.degree <= 0:
            return []
        out = {}

        def accumulate(g, mult):
            for h, m in _sqf(g):
                key = h
                out[key] = out.get(key, 0) + m * mult

        def _sqf(g):
            if g.degree <= 0:
                return []
            d = g.derivative()
            if d.is_zero():
                return [(h, m * g.field.p) for h, m in _sqf(g._pth_root())]
            c = g.gcd(d)
            w = g // c
            res = []
            i = 1
            while w.degree > 0:
                y = w.gcd(c)
                z = w // y
                if z.degree > 0:
                    res.append((z.monic(), i))
                w = y
                c = c // y
                i += 1
            if c.degree > 0:
                res.extend((h, m * g.field.p) for h, m in _sqf(c._pth_root()))
            return res

        accumulate(f, 1)
        return sorted(out.items(), key=lambda t: t[0].key())

    def _distinct_degree(self):
        """On monic squarefree input: list of (product of irreducibles of deg d, d)."""
        f = self
        q = self.field.order
        out = []
        x = Poly.x(self.field)
        h = x
        d = 0
        while f.degree > 2 * (d + 1) - 1:
            d += 1
            h = h.pow_mod(q, f)
            g = f.gcd(h - x)
            if g.degree > 0:
                out.append((g, d))
                f = f // g
                h = h % f
        if f.degree > 0:
            out.append((f, f.degree))
        return out

    def _equal_degree_split(self, d: int, rng: random.Random):
        """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles."""
        f = self
        if f.degree == d:
            return [f]
        q = self.field.order
        n = f.degree
        while True:
            r = Poly(self.field,
                     [self.field.random_scalar(rng) for _ in range(n)])
            if r.degree < 1:
                continue
            g = f.gcd(r)
            if 0 < g.degree < f.degree:
                break
            if q % 2 == 1:
                s = r.pow_mod((q ** d - 1) // 2, f)
                g = f.gcd(s - Poly(self.field, [self.field.one]))
            else:
                t = r
                s = r
                for _ in range(d * self.field.k - 1):
                    t = t.pow_mod(2, f)
                    s = (s + t) % f
                g = f.gcd(s)
            if 0 < g.degree < f.degree:
                break
        return (g._equal_degree_split(d, rng)
                + (f // g)._equal_degree_split(d, rng))

    def factor(self, seed: int = DEFAULT_SEED):
        """Factor into monic irreducibles: list of (Poly, multiplicity),
        sorted by (degree, coefficients); the product times the leading unit
        reproduces the input."""
        if self.is_zero():
            raise ZeroPolynomial("cannot factor the zero polynomial")
        rng = random.Random(seed)
        out = {}
        for g, mult in self._squarefree_decompose():
            for prod, d in g._distinct_degree():
                for irr in prod._equal_degree_split(d, rng):
                    irr = irr.monic()
                    out[irr] = out.get(irr, 0) + mult
        return sorted(out.items(), key=lambda t: t[0].key())

    def is_irreducible(self, seed: int = DEFAULT_SEED) -> bool:
        if self.degree < 1:
            return False
        fac = self.factor(seed)
        return len(fac) == 1 and fac[0][1] == 1

    def roots(self, seed: int = DEFAULT_SEED):
        """Roots in the coefficient field, sorted by coefficient vector."""
        out = []
        for g, _ in self.factor(seed):
            if g.degree == 1:
                out.append(-g.coeffs[0])
        return sorted(out, key=lambda s: s.coeffs)


def splitting_extension(f: Poly, seed: int = DEFAULT_SEED) -> Field:
    """Smallest-degree extension of f's field (presented over the prime field)
    in which f splits into linear factors."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has no splitting field")
    degrees = [g.degree for g, _ in f.factor(seed)]
    d = math.lcm(*degrees)
    base = f.field
    if d == 1:
        return base
    return Field(base.p, base.k * d)
