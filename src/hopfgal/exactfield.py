"""Exact arithmetic in F_p and F_{p^k}, univariate polynomial factorization,
and splitting-field construction.

Elements of F_{p^k} are coefficient vectors of length k over F_p
(low degree first) reduced modulo a monic irreducible modulus.  When no
modulus is supplied the lexicographically smallest monic irreducible of
the requested degree is chosen, so that two constructions of the same
field are bit-identical.

A polynomial is one (deg + 1, k) int64 array, and all polynomial arithmetic
(also the modulus search and the inverse in F_{p^k}) runs on it, with
coefficient products as matmuls against the images of `mul_images`.
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


def mul_images(field: "Field", b):
    """(..., k) -> (..., k, k): row a holds t^a * b, a < k.  A product
    x * b is then sum_a x_a (t^a * b), one matmul against the images."""
    k = field.k
    img = b.reshape(-1, k) @ field._t_images
    return (img % field.p).reshape(b.shape[:-1] + (k, k))


@lru_cache(maxsize=4096)
def _inv_images(field: "Field", a: tuple) -> np.ndarray:
    """Read-only mul_images of a^-1, memoised: elimination and polynomial
    division meet the same few pivots and leading coefficients again and
    again, and Field.cinv at k > 1 runs Euclid on polynomials."""
    img = mul_images(field, np.array(field.cinv(a), dtype=np.int64))
    img.flags.writeable = False
    return img


def binary_power(x, e: int, mul, last=None):
    """x^e for e >= 1 by left-to-right square and multiply under the
    associative product mul(a, b).  `last(a, b)`, when given, computes the
    final product in its place (say, only its trace); e = 1 returns x."""
    ops = "".join("sm" if bit == "1" else "s" for bit in bin(e)[3:])
    acc = x
    for t, op in enumerate(ops):
        step = last if last is not None and t == len(ops) - 1 else mul
        acc = step(acc, acc) if op == "s" else step(acc, x)
    return acc


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, k: int) -> tuple:
    """Monic irreducible of degree k > 1 over F_p with lexicographically
    smallest coefficient vector (constant coefficient compared first).  The
    search starts at constant term 1: T divides every tail with constant 0.
    Tails are the base-p digits of a counter, so F_p is never materialised."""
    base = Field(p)
    for m in range(p ** (k - 1), p ** k):
        f = [m // p ** (k - 1 - j) % p for j in range(k)] + [1]
        if Poly(base, f).is_irreducible():
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

class Field:
    """A prime field F_p or an explicit extension F_{p^k} presented over F_p.
    p must be an int that is a prime no larger than P_MAX, else BadPrime,
    and k an int from 1 to K_MAX, else BadDegree."""

    __slots__ = ("p", "k", "modulus", "_base", "_red", "_red_rows",
                 "_t_images", "_embed_cache")

    def __init__(self, p: int, k: int = 1, modulus=None):
        # bool is an int subclass, and a float p would build "F_2.5"
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            raise BadPrime(f"p = {p!r} is not an integer")
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise BadDegree(f"extension degree {k!r} is not an integer")
        p, k = int(p), int(k)
        if p > P_MAX:
            raise BadPrime(
                f"p = {p} exceeds P_MAX = {P_MAX}, the largest prime for "
                "which the int64 kernels stay exact")
        if not 1 <= k <= K_MAX:
            raise BadDegree(
                f"extension degree {k} is not in 1..K_MAX = {K_MAX}")
        if not _is_prime(p):
            raise BadPrime(f"p = {p} is not prime")
        self.p = p
        self.k = k
        # reduction matrix: row d = coefficients of T^d mod modulus, d < 2k-1
        red = np.eye(k, dtype=np.int64)
        if k == 1:
            if modulus is not None:
                raise ValueError("prime field takes no modulus")
            self.modulus = None
            self._base = self
        else:
            self._base = Field(p)
            if modulus is None:
                # irreducible by construction
                modulus = _smallest_irreducible(p, k)
                f = Poly(self._base, modulus)
            else:
                modulus = tuple(int(c) % p for c in modulus)
                if len(modulus) != k + 1 or modulus[-1] != 1:
                    raise ValueError("modulus must be monic of degree k")
                f = Poly(self._base, modulus)
                if not f.is_irreducible():
                    raise ValueError("modulus is reducible")
            self.modulus = modulus
            red = np.concatenate([red, f._t_powers()[..., 0]])
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
        # extended Euclid in F_p[T]: s0 a = r0 mod the modulus throughout
        base = self._base
        r0, r1 = Poly(base, self.modulus), Poly(base, a)
        s0, s1 = Poly(base, []), Poly(base, [1])
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # the modulus is irreducible, so r0 is a unit and deg s0 < k
        inv = (s0 * r0.coeffs[0].inverse())._c[:, 0].tolist()
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
        if e == 0:
            return self.field.one
        return binary_power(self, e, Scalar.__mul__)

    def inverse(self) -> "Scalar":
        img = _inv_images(self.field, self.coeffs)
        return Scalar(self.field, tuple(img[0].tolist()))

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


# ---------------------------------------------------------------------------
# Polynomials over a Field
# ---------------------------------------------------------------------------

def _trim(c: np.ndarray) -> np.ndarray:
    """c without its trailing zero rows, read-only."""
    n = len(c)
    while n and not np.count_nonzero(c[n - 1]):
        n -= 1
    c = c[:n]
    c.flags.writeable = False
    return c


class Poly:
    """Univariate polynomial over a Field: one read-only (deg + 1, k) int64
    array of coefficient vectors, low degree first, trailing zero rows
    trimmed.  The zero polynomial has degree -1."""

    __slots__ = ("field", "_c", "_table")

    def __init__(self, field: Field, coeffs):
        """coeffs: Scalars, ints or coefficient vectors, low degree first."""
        rows = [field.scalar(c).coeffs for c in coeffs]
        self.field = field
        self._c = _trim(np.array(rows, dtype=np.int64).reshape(-1, field.k))
        self._table = None

    @staticmethod
    def _of(field: Field, c: np.ndarray) -> "Poly":
        """The polynomial of a reduced array that the caller no longer
        writes to."""
        out = Poly.__new__(Poly)
        out.field, out._c, out._table = field, _trim(c), None
        return out

    def _array(self, other) -> np.ndarray:
        """The coefficient array of a Poly or Scalar of this field."""
        if isinstance(other, Scalar):
            other = Poly(self.field, [other])
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other._c

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        return cls(field, ints)

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, [0, 1])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Scalars, low degree first."""
        f = self.field
        return tuple(Scalar(f, tuple(row)) for row in self._c.tolist())

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not len(self._c)

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and np.array_equal(other._c, self._c))

    def __hash__(self):
        return hash((self.field, self._c.tobytes()))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c!r}*T^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"

    def key(self):
        """Deterministic sort key: degree, then coefficients low degree
        first."""
        return (self.degree, tuple(map(tuple, self._c.tolist())))

    def __add__(self, other):
        a, b = self._c, self._array(other)
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[:len(b)] += b
        return Poly._of(self.field, out % self.field.p)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly._of(self.field, -self._c % self.field.p)

    @staticmethod
    def _product(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The coefficients of a b, for coefficient arrays a and b."""
        n, m, k = len(a), len(b), field.k
        if not n or not m:
            return a[:0]
        # the products a_i b_j against the images of b, reduced, then summed
        # along i + j: padding row i to n + m cells and reading the flat
        # array in rows of n + m - 1 shifts row i right by i
        img = mul_images(field, b).transpose(1, 0, 2).reshape(k, m * k)
        skew = np.zeros((n, n + m, k), dtype=np.int64)
        skew[:, :m] = (a @ img % field.p).reshape(n, m, k)
        skew = skew.reshape(-1)[:n * (n + m - 1) * k]
        return skew.reshape(n, n + m - 1, k).sum(axis=0) % field.p

    def __mul__(self, other):
        c = Poly._product(self.field, self._c, self._array(other))
        return Poly._of(self.field, c)

    def __divmod__(self, other):
        b = self._array(other)
        if not len(b):
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        p, k, m = f.p, f.k, len(b)
        rem = self._c.copy()
        q = np.zeros((max(0, len(rem) - m + 1), k), dtype=np.int64)
        inv = _inv_images(f, tuple(b[-1].tolist()))
        img = mul_images(f, b).transpose(1, 0, 2).reshape(k, m * k)
        # one step per quotient degree d clears coefficient d + m - 1
        flat = rem.reshape(-1)
        for d in range(len(q) - 1, -1, -1):
            c = q[d] = rem[d + m - 1] @ inv % p
            seg = flat[d * k:(d + m) * k]
            seg -= c @ img
            seg %= p
        return Poly._of(f, q), Poly._of(f, rem[:m - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = _inv_images(self.field, tuple(self._c[-1].tolist()))
        return Poly._of(self.field, self._c @ inv % self.field.p)

    def gcd(self, other) -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def _t_powers(self) -> np.ndarray:
        """(n - 1, n, k) for n = deg self >= 1: row j holds T^(n + j) mod
        self.  T^(n + j + 1) is T^(n + j) shifted up one degree, its top
        coefficient c coming back as c T^n mod self."""
        f = self.field
        p, k, n = f.p, f.k, self.degree
        rows = np.zeros((n - 1, n, k), dtype=np.int64)
        if n > 1:
            rows[0] = -self.monic()._c[:n] % p
            img = mul_images(f, rows[0]).transpose(1, 0, 2).reshape(k, n * k)
        for j in range(1, n - 1):
            rows[j, 1:] = rows[j - 1, :-1]
            rows[j] = (rows[j] + (rows[j - 1, -1] @ img).reshape(n, k)) % p
        return rows

    def _mulmod(self, u: "Poly", v: "Poly") -> "Poly":
        """u v mod self for u, v of degree < n = deg self: the product's
        coefficients from T^n on are contracted with the images of the rows
        T^d mod self, kept on self as ((n - 1) k, n k).  The int64 sums stay
        exact while (n - 1) k <= MAX_INNER."""
        f = self.field
        k, n = f.k, self.degree
        if self._table is None:
            img = mul_images(f, self._t_powers()).transpose(0, 2, 1, 3)
            self._table = img.reshape(-1, n * k)
        c = Poly._product(f, u._c, v._c)
        out = np.zeros((n, k), dtype=np.int64)
        out[:min(len(c), n)] = c[:n]
        if len(c) > n:
            top = c[n:].reshape(-1)
            out += (top @ self._table[:len(top)]).reshape(n, k)
        return Poly._of(f, out % f.p)

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        """self^e mod `mod`, by square and multiply under `mod._mulmod`."""
        if e == 0 or mod.degree < 1:
            return Poly(self.field, [1]) % mod
        return binary_power(self % mod, e, mod._mulmod)

    def derivative(self) -> "Poly":
        c, p = self._c, self.field.p
        return Poly._of(self.field, c[1:] * np.arange(1, len(c))[:, None] % p)

    def map_field(self, big: Field) -> "Poly":
        emb = self.field.embedding_matrix(big)
        return Poly._of(big, self._c @ emb % big.p)

    # -- factorization -------------------------------------------------------

    def _pth_root(self) -> "Poly":
        # defined when the derivative vanishes: all exponents divisible by p
        f = self.field
        c = self._c[::f.p]
        if f.k > 1:
            # p-th root in F_{p^k}: c^(p^(k-1)), coefficientwise
            c = binary_power(c, f.p ** (f.k - 1), lambda u, v: (
                (u[:, None] @ mul_images(f, v))[:, 0] % f.p))
        return Poly._of(f, c)

    def _squarefree_decompose(self):
        """list of (monic squarefree poly, multiplicity), product = self/lead."""
        out = {}
        for h, m in self.monic()._sqf():
            out[h] = out.get(h, 0) + m
        return sorted(out.items(), key=lambda t: t[0].key())

    def _sqf(self):
        """(squarefree part, multiplicity) pairs of a monic self; the parts
        that are p-th powers come from the p-th root."""
        if self.degree <= 0:
            return []
        p = self.field.p
        d = self.derivative()
        if d.is_zero():
            return [(h, m * p) for h, m in self._pth_root()._sqf()]
        c = self.gcd(d)
        w = self // c
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
            res.extend((h, m * p) for h, m in c._pth_root()._sqf())
        return res

    def _distinct_degree(self):
        """On monic squarefree input: list of (product of irreducibles of deg d, d)."""
        f = self
        q = self.field.order
        out = []
        x = h = Poly.x(self.field)
        d = 0
        while f.degree >= 2 * (d + 1):
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
                g = f.gcd(s - Poly(self.field, [1]))
            else:
                # the trace r + r^2 + ... + r^(2^(dk - 1)) mod f
                t = s = r
                for _ in range(d * self.field.k - 1):
                    t = t.pow_mod(2, f)
                    s = s + t
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

    def is_irreducible(self) -> bool:
        """Rabin's test: f of degree n >= 1 over F_q is irreducible iff
        T^(q^n) = T mod f and T^(q^(n/r)) - T is prime to f for each prime
        r dividing n."""
        n = self.degree
        if n < 1:
            return False
        q = self.field.order
        x = Poly.x(self.field) % self
        if not (x.pow_mod(q ** n, self) - x).is_zero():
            return False
        primes = [r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
        return all((x.pow_mod(q ** (n // r), self) - x).gcd(self).degree == 0
                   for r in primes)

    def roots(self, seed: int = DEFAULT_SEED):
        """Roots in the coefficient field, sorted by coefficient vector."""
        return sorted((-g.coeffs[0] for g, _ in self.factor(seed)
                       if g.degree == 1), key=lambda s: s.coeffs)


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
