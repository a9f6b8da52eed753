import itertools
import math
import random
import re
import time

import numpy as np
import pytest

from hopfgal import _arrays as ar
from hopfgal import exactfield
from hopfgal.errors import (
    BadDegree,
    BadPrime,
    DivisionByZero,
    FieldMismatch,
    ZeroPolynomial,
)
from hopfgal.exactfield import (
    K_MAX,
    MAX_INNER,
    P_MAX,
    Field,
    Poly,
    _is_prime,
    _smallest_irreducible,
    splitting_extension,
)

F3 = Field(3)
F9 = Field(3, 2)
F5 = Field(5)


def test_prime_field_arithmetic():
    two = F3.scalar(2)
    assert two * two == F3.one
    assert F3.one.inverse() == F3.one


@pytest.mark.parametrize("p, k, error", [
    (2.5, 1, BadPrime), (3.0, 1, BadPrime), (np.float64(3), 1, BadPrime),
    (True, 1, BadPrime), ("3", 1, BadPrime), (None, 1, BadPrime),
    (3, 2.0, BadDegree), (3, True, BadDegree), (3, "2", BadDegree),
    (3, 0, BadDegree), (3, -1, BadDegree)])
def test_field_rejects_bad_p_and_k_before_the_primality_test(
        monkeypatch, p, k, error):
    # typed errors, raised before _is_prime and before any table is built
    def not_reached(n):
        raise AssertionError("_is_prime was reached")

    monkeypatch.setattr(exactfield, "_is_prime", not_reached)
    with pytest.raises(error, match=re.escape(f"{p!r} is not")
                       if error is BadPrime else None):
        Field(p, k)


def test_field_rejects_composite_p_and_takes_numpy_integers():
    for p in (-3, 0, 1, 4, 9, 2 ** 20):
        with pytest.raises(BadPrime, match="not prime"):
            Field(p)
    with pytest.raises(BadPrime):
        Field.from_json({"p": 3.0})
    with pytest.raises(BadDegree):
        Field.from_json({"p": 3, "k": 2.0})
    f = Field(np.int64(3), np.int64(2))
    assert f == F9 and type(f.p) is int and type(f.k) is int


def test_deterministic_modulus():
    assert F9.modulus == (1, 0, 1)
    assert Field(3, 2).modulus == Field(3, 2).modulus
    assert Field(5, 3).modulus == Field(5, 3).modulus


@pytest.mark.parametrize("p, k", [(p, k) for p in (2, 3, 5, 7)
                                  for k in range(2, 13) if p ** k <= 3 ** 8])
def test_modulus_search_matches_the_full_search(p, k):
    # the full search also visits the tails with constant term 0
    base = Field(p)
    full = next(tuple(tail) + (1,) for tail in itertools.product(range(p), repeat=k)
                if Poly(base, list(tail) + [1]).is_irreducible())
    assert _smallest_irreducible(p, k) == full


@pytest.mark.parametrize("p, k", [(3, 19), (2, 20)])
def test_large_extension_fields_build_fast(p, k):
    start = time.perf_counter()
    assert Field(p, k).order == p ** k
    assert time.perf_counter() - start < 1.0


# the moduli the search chooses; the Rabin test alone decides irreducibility
PINNED_MODULI = {
    (3, 19): (1,) + (0,) * 16 + (1, 2, 1),
    (2, 20): (1,) + (0,) * 16 + (1, 0, 0, 1),
    (5, 2): (1, 1, 1),
    (7, 3): (1, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (509, 2): (1, 1, 1),
    (101, 3): (1, 0, 1, 1),
    (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
}


@pytest.mark.parametrize("p, k", sorted(PINNED_MODULI))
def test_modulus_is_pinned(p, k):
    assert Field(p, k).modulus == PINNED_MODULI[p, k]


def test_quadratic_field_over_the_largest_prime_builds_fast():
    # the search must not materialise F_p: P_MAX = 1 mod 4, so x^2 + 1 is
    # reducible and x^2 + x + 1 is the second candidate
    _smallest_irreducible.cache_clear()
    start = time.perf_counter()
    assert Field(P_MAX, 2).modulus == (1, 1, 1)
    assert time.perf_counter() - start < 1.0


def test_extension_degree_above_the_bound_fails_at_once():
    # rejected before the modulus search and the k^3 tables
    for k in (K_MAX + 1, 1000):
        start = time.perf_counter()
        with pytest.raises(BadDegree):
            Field(2, k)
        assert time.perf_counter() - start < 0.1
    assert (Field(3, 19).k, Field(2, 20).k, Field(P_MAX, 2).k) == (19, 20, 2)


def test_extension_multiplication():
    t = F9.scalar((0, 1))
    # t^2 = -1 mod t^2+1
    assert t * t == F9.scalar(2)


def test_division_and_errors():
    with pytest.raises(DivisionByZero):
        F3.one / F3.zero
    with pytest.raises(FieldMismatch):
        F3.one + F5.one


def test_scalar_equality_and_serialization():
    assert F9.scalar([1, 2]).to_json() == [1, 2]
    assert F9.scalar(4) == F9.scalar(1)
    assert Field.from_json({"p": 3, "k": 2, "modulus": [1, 0, 1]}) == F9


@pytest.mark.parametrize("field", [F3, F5, F9, Field(5, 2)])
def test_inverse_and_frobenius_additivity(field):
    rng = random.Random(7)
    for _ in range(100):
        a = field.random_scalar(rng)
        b = field.random_scalar(rng)
        if a:
            assert a * a.inverse() == field.one
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_factor_fermat():
    f = Poly.from_ints(F3, [0, -1, 0, 1])  # T^3 - T
    fac = f.factor()
    assert [(g.coeffs, m) for g, m in fac] == [
        ((F3.zero, F3.one), 1),
        ((F3.scalar(1), F3.one), 1),  # T + 1 = T - 2
        ((F3.scalar(2), F3.one), 1),  # T + 2 = T - 1
    ]


def test_irreducibles():
    assert Poly.from_ints(F3, [1, 0, 1]).is_irreducible()  # T^2+1
    assert Poly.from_ints(F3, [-1, -1, 0, 1]).is_irreducible()  # T^3-T-1
    assert not Poly.from_ints(F3, [0, -1, 0, 1]).is_irreducible()


def test_factor_zero_raises():
    with pytest.raises(ZeroPolynomial):
        Poly(F3, []).factor()
    with pytest.raises(ZeroPolynomial):
        splitting_extension(Poly(F3, []))


@pytest.mark.parametrize("field,deg", [
    (F3, 8), (F5, 8), (F9, 6),
    (Field(2, 3), 6),       # even q: the trace split of _equal_degree_split
    (Field(3, 6), 4), (Field(P_MAX), 4)])
def test_factor_remultiplies(field, deg):
    rng = random.Random(11)
    for _ in range(100):
        coeffs = [field.random_scalar(rng) for _ in range(rng.randrange(1, deg + 1))]
        f = Poly(field, coeffs)
        if f.degree < 1:
            continue
        prod = Poly(field, [f.coeffs[-1]])
        for g, m in f.factor():
            assert g.coeffs[-1] == field.one
            for _ in range(m):
                prod = prod * g
        assert prod == f


# coefficient-loop oracles on lists of Scalars, trailing zeros trimmed;
# inverses by Fermat, a^(q - 2), so that no oracle goes through Poly

def _trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _naive_mul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trimmed(out)


def _naive_divmod(field, a, b):
    rem = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv = b[-1] ** (field.order - 2)
    for d in range(len(q) - 1, -1, -1):
        q[d] = rem[d + len(b) - 1] * inv
        for i, y in enumerate(b):
            rem[d + i] = rem[d + i] - q[d] * y
    return _trimmed(q), _trimmed(rem[:len(b) - 1])


def _naive_gcd(field, a, b):
    while b:
        a, b = b, _naive_divmod(field, a, b)[1]
    if not a:
        return a
    inv = a[-1] ** (field.order - 2)
    return tuple(c * inv for c in a)


def _naive_pow_mod(field, a, e, mod):
    # right to left, where Poly.pow_mod squares left to right
    result = _naive_divmod(field, (field.one,), mod)[1]
    base = _naive_divmod(field, a, mod)[1]
    while e:
        if e & 1:
            result = _naive_divmod(field, _naive_mul(field, result, base), mod)[1]
        base = _naive_divmod(field, _naive_mul(field, base, base), mod)[1]
        e >>= 1
    return result


@pytest.mark.parametrize("field", [Field(2), F3, F9, Field(2, 3), Field(3, 6),
                                   Field(P_MAX)], ids=repr)
def test_poly_kernel_matches_coefficient_loops(field):
    rng = random.Random(5)

    def rand(deg):
        return _trimmed(field.random_scalar(rng) for _ in range(deg + 1))

    # the zero polynomial, degree 0, and random degrees up to 6
    polys = [(), (field.one,), rand(0), (field.zero, field.one)]
    polys += [rand(rng.randrange(7)) for _ in range(8)]
    for a in polys:
        for b in polys:
            A, B = Poly(field, a), Poly(field, b)
            assert (A * B).coeffs == _naive_mul(field, a, b)
            assert A.gcd(B).coeffs == _naive_gcd(field, a, b)
            if not b:
                with pytest.raises(DivisionByZero):
                    divmod(A, B)
                continue
            q, r = divmod(A, B)
            assert (q.coeffs, r.coeffs) == _naive_divmod(field, a, b)
            for e in (0, 1, 2, 5, field.order + 1):
                assert A.pow_mod(e, B).coeffs == _naive_pow_mod(field, a, e, b)


def test_splitting_extension_degrees():
    assert splitting_extension(Poly.from_ints(F3, [1, 0, 1])) == F9
    assert splitting_extension(Poly.from_ints(F3, [0, -1, 0, 1])) == F3
    f = Poly.from_ints(F3, [1, 0, 1]) * Poly.from_ints(F3, [-1, -1, 0, 1])
    assert splitting_extension(f).k == 6


@pytest.mark.parametrize("ints", [[1, 0, 1], [-1, -1, 0, 1], [2, 1, 0, 0, 1]])
def test_splitting_extension_actually_splits(ints):
    f = Poly.from_ints(F3, ints)
    big = splitting_extension(f)
    fe = f.map_field(big)
    assert all(g.degree == 1 for g, _ in fe.factor())


def test_embedding_is_a_field_map():
    rng = random.Random(3)
    F27 = Field(3, 3)
    F729 = Field(3, 6)
    for small, big in [(F3, F9), (F9, F729), (F27, F729)]:
        for _ in range(50):
            a = small.random_scalar(rng)
            b = small.random_scalar(rng)
            ea, eb = small.embed(a, big), small.embed(b, big)
            assert small.embed(a + b, big) == ea + eb
            assert small.embed(a * b, big) == ea * eb
        assert small.embed(small.one, big) == big.one


def test_element_enumeration_order():
    elems = list(F9.elements())
    assert len(elems) == 9
    assert elems[0] == F9.zero
    assert elems[1].coeffs == (1, 0)
    assert elems[3].coeffs == (0, 1)


def test_poly_degree_sentinel():
    assert Poly(F3, []).degree == -1
    assert Poly.from_ints(F3, [0, 0, 2, 0]).degree == 2


def test_prime_bound_is_the_largest_exact_prime():
    assert _is_prime(P_MAX)
    assert MAX_INNER * (P_MAX - 1) ** 2 < 2 ** 63
    above = next(q for q in range(P_MAX + 1, 2 * P_MAX) if _is_prime(q))
    assert MAX_INNER * (above - 1) ** 2 >= 2 ** 63
    with pytest.raises(BadPrime):
        Field(above)
    with pytest.raises(BadPrime):
        Field(2 ** 31 - 1)      # the int64 matmul overflowed here


@pytest.mark.parametrize("p", [65537, P_MAX])
def test_fmatmul_exact_up_to_the_prime_bound(p):
    f = Field(p)
    # all entries p - 1 = -1: each product is 1 mod p
    A = np.full((2, 4, 1), p - 1, dtype=np.int64)
    B = np.full((4, 2, 1), p - 1, dtype=np.int64)
    assert np.array_equal(ar.fmatmul(f, A, B), np.full((2, 2, 1), 4))
    # the longest inner dimension the bound covers
    A = np.full((1, MAX_INNER, 1), p - 1, dtype=np.int64)
    got = ar.fmatmul(f, A, A.transpose(1, 0, 2))
    assert int(got[0, 0, 0]) == MAX_INNER % p


# (b, mod, inner): inner (mod - 1)^2 is below 2^b, the float32 (b = 24) or
# float64 (b = 52) bound, and inner + 2 puts it above.  mod - 1 and inner
# are odd, so every dot product of entries mod - 1 is odd: above a bound it
# is not a float of the type below it (past 2^24 in float32, past 2^53 in
# float64)
IMATMUL_EDGES = [(24, 4, 1864135), (24, 66, 3969), (24, 4096, 1),
                 (52, 2 ** 26, 1)]


@pytest.mark.parametrize("b, mod, lo", IMATMUL_EDGES)
def test_imatmul_exact_at_the_float_bounds(b, mod, lo):
    assert lo * (mod - 1) ** 2 < 2 ** b <= (lo + 2) * (mod - 1) ** 2
    rng = np.random.default_rng(mod)
    for inner in (lo, lo + 2):
        # m^2 inner > 32768 cells: the float paths are for large products
        m = math.isqrt(32768 // inner) + 1
        a = np.full((2, m, inner), mod - 1, dtype=np.int64)
        got = ar._imatmul(a, a.transpose(0, 2, 1), mod)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.full((2, m, m),
                                           inner * (mod - 1) ** 2 % mod))
        x, y = rng.integers(0, mod, (2, 2, m, inner))
        assert np.array_equal(ar._imatmul(x, y.transpose(0, 2, 1), mod),
                              x @ y.transpose(0, 2, 1) % mod)


def test_imatmul_exact_past_the_int64_bound():
    # an F_{p^k} product is one integer matmul of inner dimension r k, which
    # at p near P_MAX can pass MAX_INNER: the dot products must not wrap
    p = P_MAX
    inner = 2 * MAX_INNER + 3
    a = np.full((1, inner), p - 1, dtype=np.int64)
    assert inner * (p - 1) ** 2 >= 2 ** 63
    assert int(ar._imatmul(a, a.T, p)[0, 0]) == inner % p
