"""Finite field construction and quadratic-residue arithmetic."""

from __future__ import annotations

import json
import random
from math import isqrt
from pathlib import Path

import pytest

from llycurv import fields
from llycurv.errors import InvalidVertexError, NotPrimeError, TooLargeError
from llycurv.families import prime_power_decomposition
from llycurv.fields import is_nonzero_square, is_prime, make_field
from helpers import (
    Element,
    euler_is_nonzero_square,
    poly_mul,
    poly_pow,
    squaring_square_index_set,
    table_power,
    table_product,
)

# The canonical modulus of every GF(p^m) with m >= 2 and p^m <= 2^16,
# recorded with Rabin's irreducibility test, an independent route to the
# same choice.
MODULI = Path(__file__).parent / "data" / "field_moduli.json"


def test_make_field_prime():
    f = make_field(13)
    assert (f.p, f.m, f.q) == (13, 1, 13)
    assert f.modulus == (0, 1)
    assert fields._subtract(13, 3, 7) == 9  # 9 + 7 = 16 = 3 mod 13


def test_make_field_gf9_modulus():
    # t^2 + 1: the only monic quadratic t^2 + c without a root mod 3
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_make_field_gf25_modulus():
    # squares mod 5 are {0, 1, 4}, so t^2 + 2 has no root
    assert make_field(5, 2).modulus == (2, 0, 1)


def test_make_field_modulus_is_irreducible_brute_force():
    for p, m in [(3, 2), (5, 2), (7, 2), (3, 3), (2, 4)]:
        f = make_field(p, m)
        # no root, and for higher degree no factorization into two smaller monics
        assert not _has_factor(f.modulus, p)


def _has_factor(modulus, p):
    from itertools import product

    m = len(modulus) - 1
    for deg in range(1, m // 2 + 1):
        for coeffs in product(range(p), repeat=deg):
            candidate = list(coeffs) + [1]
            if _poly_divides(candidate, list(modulus), p):
                return True
    return False


def _poly_divides(div, target, p):
    target = list(target)
    while len(target) >= len(div) and any(target):
        while target and target[-1] == 0:
            target.pop()
        if len(target) < len(div):
            break
        c = target[-1]
        shift = len(target) - len(div)
        for i, coeff in enumerate(div):
            target[shift + i] = (target[shift + i] - c * coeff) % p
    return not any(target)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (3, 4), (5, 3), (7, 3)])
def test_canonical_modulus_matches_brute_force_enumeration(p, m):
    # regenerate the choice with an independent irreducibility predicate,
    # walking candidates in the same order (constant term fastest)
    from itertools import product

    expected = None
    for tail in product(range(p), repeat=m - 1):  # (c_{m-1}, ..., c_1)
        for c0 in range(p):
            candidate = (c0,) + tuple(reversed(tail)) + (1,)
            if not _has_factor(candidate, p):
                expected = candidate
                break
        if expected:
            break
    assert make_field(p, m).modulus == expected


def test_canonical_moduli_pinned():
    pinned = json.loads(MODULI.read_text())
    extensions = [
        (p, m) for p in range(2, 2**8 + 1) if is_prime(p) for m in range(2, 17) if p**m <= 2**16
    ]
    assert [(p, m) for p, m, _ in pinned] == extensions
    for p, m, modulus in pinned:
        assert make_field(p, m).modulus == tuple(modulus), (p, m)


def test_is_prime_and_prime_powers_match_brute_force():
    def brute_prime(n):
        return n >= 2 and all(n % d for d in range(2, n))

    primes = [n for n in range(5001) if brute_prime(n)]
    powers = {p**m: (p, m) for p in primes for m in range(1, 13) if p**m <= 5000}
    for n in range(5001):
        assert is_prime(n) == brute_prime(n), n
        assert prime_power_decomposition(n) == powers.get(n), n


def _forbidden(*args):
    raise AssertionError("primality or modulus work before the field bound was checked")


def test_make_field_rejects_huge_order(monkeypatch):
    for name in ("is_prime", "_prime_divisors", "_canonical_modulus"):
        monkeypatch.setattr(fields, name, _forbidden)
    for p, m in ((2, 17), (2, 33), (65537, 1), (2, 10**9)):
        with pytest.raises(TooLargeError):
            make_field(p, m)


def test_make_field_builds_at_the_bound():
    assert make_field(65521).q == 65521
    assert make_field(2, 16).q == 2**16


def test_make_field_rejects_non_prime():
    with pytest.raises(NotPrimeError):
        make_field(9)


def test_is_prime_small_values():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_euler_criterion_examples():
    f = make_field(13)
    for is_square in (is_nonzero_square, euler_is_nonzero_square):
        assert is_square(f, 4)
        assert not is_square(f, 2)  # 2^6 = 64 = 12 mod 13
        assert not is_square(f, 0)


def test_gf9_generator_square_status_matches_brute_force():
    f = make_field(3, 2)
    squares = {poly_mul(Element.of(f, i), Element.of(f, i)).index for i in range(1, 9)}
    t = fields._index((0, 1), 3)
    assert is_nonzero_square(f, t) == euler_is_nonzero_square(f, t) == (t in squares)


@pytest.mark.parametrize("p,m", [(13, 1), (3, 2), (5, 2), (7, 2)], ids=["13", "9", "25", "49"])
def test_euler_criterion_matches_squaring_everywhere(p, m):
    # Two polynomial routes, compared with each other and with the walk's.
    f = make_field(p, m)
    squares = squaring_square_index_set(f)
    for e in f.elements():
        assert euler_is_nonzero_square(f, e) == (e in squares) == is_nonzero_square(f, e)


@pytest.mark.parametrize("p,m", [(13, 1), (5, 2)], ids=["13", "25"])
def test_is_nonzero_square_refuses_indices_outside_the_field(p, m):
    # Every index 0..q-1 reads its membership in square_index_set; one step
    # past either end, and far past it, names no element and is refused.
    f = make_field(p, m)
    squares = fields.square_index_set(f)
    assert [is_nonzero_square(f, a) for a in range(f.q)] == [a in squares for a in range(f.q)]
    for a in (-1, f.q, 100, -f.q):
        with pytest.raises(InvalidVertexError):
            is_nonzero_square(f, a)


@pytest.mark.parametrize("p,m", [(13, 1), (3, 2), (5, 2), (7, 2)], ids=["13", "9", "25", "49"])
def test_square_count_is_half(p, m):
    f = make_field(p, m)
    for is_square in (is_nonzero_square, euler_is_nonzero_square):
        assert sum(1 for e in f.elements() if is_square(f, e)) == (f.q - 1) // 2


@pytest.mark.parametrize(
    "p,m", [(2, 3), (3, 2), (5, 2), (7, 2)], ids=["8", "9", "25", "49"]
)
def test_field_axioms_exhaustive(p, m):
    """The power walk's product makes the indices, added digit by digit, a field.

    The walk lists g^0, ..., g^(q-2), and its product g^i g^j = g^(i+j)
    adds exponents mod q - 1, so it commutes and associates, with g^0 as
    one and g^(q-1-k) as the inverse of g^k.  One walk step is the map
    x -> g x, and a = g^k multiplies as that step taken k times.  So once
    the step is additive on every pair, multiplication by every a is, and
    a (b + c) = a b + a c holds for every triple: q^2 pairs check the
    distributive law that q^3 triples would check directly.  Addition is
    digit-wise mod p, an abelian group; a map that keeps differences keeps
    sums.  test_table_product_and_power_match_polynomials checks that
    this field is the one of the canonical modulus.
    """
    f = make_field(p, m)
    powers = fields._power_walk(f)
    step = [0] * f.q
    for k, e in enumerate(powers):
        step[e] = powers[(k + 1) % (f.q - 1)]
    assert sorted(powers) == list(range(1, f.q))
    for a in f.elements():
        for b in f.elements():
            assert step[fields._subtract(p, a, b)] == fields._subtract(p, step[a], step[b])


@pytest.mark.parametrize("p,m", [(13, 1), (3, 2), (5, 2), (7, 2)], ids=["13", "9", "25", "49"])
def test_inverse_existence(p, m):
    # a^(q-1) = 1 for every nonzero a, by polynomials: the modulus is irreducible.
    f = make_field(p, m)
    one = Element(f, (1,) + (0,) * (m - 1))
    for e in range(1, f.q):
        a = Element.of(f, e)
        assert poly_mul(a, poly_pow(a, f.q - 2)) == one


@pytest.mark.parametrize("modulus", [(0, 0, 1), (2, 0, 1)], ids=["t^2", "t^2-1"])
def test_power_walk_refuses_a_reducible_modulus(modulus):
    # Modulo t^2 the powers of t reach 0, and modulo t^2 - 1 = (t - 1)(t + 1)
    # the idempotent (1 + t)/2 is its own square: neither returns to 1, so
    # the walk stops after q steps and finds no element of order q - 1.
    with pytest.raises(ValueError, match="reducible"):
        fields.square_index_set(fields.FiniteField(3, 2, modulus))


# q = 8, 9, 13, 25, 27, 49, 121 and 125 on every pair, then two fields near
# the bound on seeded pairs.
TABLE_FIELDS = [(2, 3), (3, 2), (13, 1), (5, 2), (3, 3), (7, 2), (11, 2), (5, 3), (65521, 1), (3, 10)]


def _pairs(f):
    if f.q <= 125:
        return [(a, b) for a in f.elements() for b in f.elements()]
    rng = random.Random(f.q)
    return [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)]


@pytest.mark.parametrize("p,m", TABLE_FIELDS, ids=[str(p**m) for p, m in TABLE_FIELDS])
def test_table_product_and_power_match_polynomials(p, m):
    # Each base a takes the q exponents a .. a + q - 1, which pass q - 1,
    # where the table wraps.
    f = make_field(p, m)
    for a, b in _pairs(f):
        x, y = Element.of(f, a), Element.of(f, b)
        assert table_product(f, a, b) == poly_mul(x, y).index
        assert table_power(f, a, a + b) == poly_pow(x, a + b).index


@pytest.mark.parametrize("p,m", TABLE_FIELDS, ids=[str(p**m) for p, m in TABLE_FIELDS])
def test_index_subtraction_matches_coefficients(p, m):
    f = make_field(p, m)
    for a, b in _pairs(f):
        assert fields._subtract(p, a, b) == (Element.of(f, a) - Element.of(f, b)).index


@pytest.mark.parametrize("p,m", TABLE_FIELDS, ids=[str(p**m) for p, m in TABLE_FIELDS])
def test_frobenius_is_a_permutation_preserving_sum_and_product(p, m):
    # x -> x^p by the polynomial reference, on every element a pair reaches:
    # every element of the small fields, so there it is a permutation.  A
    # map that keeps differences keeps sums.
    f = make_field(p, m)
    images = {}

    def frobenius(e):
        if e not in images:
            images[e] = poly_pow(Element.of(f, e), p).index
        return images[e]

    for a, b in _pairs(f):
        assert frobenius(fields._subtract(p, a, b)) == fields._subtract(p, frobenius(a), frobenius(b))
        assert frobenius(table_product(f, a, b)) == table_product(f, frobenius(a), frobenius(b))
    assert len(set(images.values())) == len(images)
    assert f.q > 125 or sorted(images) == list(range(f.q))


def _prime_divisors_by_trial(n):
    return [r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, isqrt(r) + 1))]


@pytest.mark.parametrize(
    "p",
    [p for p in range(5, 1010, 4) if all(p % d for d in range(2, isqrt(p) + 1))] + [19_997],
)
def test_prime_power_walk_agrees_with_pow(p):
    # g is the least primitive root by definition: c^((p-1)/r) != 1 for
    # every prime r dividing p - 1.  The squares are the Euler criterion's.
    divisors = _prime_divisors_by_trial(p - 1)
    g = next(c for c in range(1, p) if all(pow(c, (p - 1) // r, p) != 1 for r in divisors))
    field = make_field(p)
    assert fields._power_walk(field) == tuple(pow(g, k, p) for k in range(p - 1))
    squares = {a for a in range(1, p) if pow(a, (p - 1) // 2, p) == 1}
    assert fields.square_index_set(field) == squares


def test_index_ordering_constant_term_most_significant():
    f = make_field(3, 2)
    # coeffs (c0, c1) with index 3*c0 + c1
    assert fields._index((2, 1), 3) == 7
    assert Element.of(f, 7).coeffs == (2, 1)
    assert list(f.elements()) == list(range(9))


def test_subtraction_and_negation():
    # In GF(25), 17 = (3, 2) and 9 = (1, 4), constant term first.
    a, b = 17, 9
    minus_b = fields._subtract(5, 0, b)
    assert fields._subtract(5, a, b) == 13  # (2, 3)
    assert minus_b == 21  # (4, 1)
    assert fields._subtract(5, fields._subtract(5, a, b), minus_b) == a  # (a - b) - (-b)
    assert fields._subtract(5, a, a) == 0
