"""Finite fields GF(p^m) with a canonical modulus; an element is its index.

The base-p digits of an index are the element's coefficients over GF(p),
constant term most significant (_index), so indices subtract digit by
digit (_subtract).  The modulus is pinned to the first monic irreducible
of its degree in a fixed enumeration (constant term varying fastest), so
element numbering, and therefore every graph built on top, is
reproducible: GF(9) always uses t^2 + 1 and GF(25) always t^2 + 2.  The
one multiplication is the step of the walk over the powers of the first
primitive element (_power_walk), whose even powers are the nonzero
squares (square_index_set).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from operator import mul
from typing import Iterator

from .errors import InvalidVertexError, NotPrimeError, TooLargeError

_FIELD_BOUND = 2**16

Poly = tuple[int, ...]  # low-degree-first, no trailing zeros


def is_prime(n: int) -> bool:
    return _prime_divisors(n) == [n]


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; the one trial-division loop."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _index(coeffs: Poly, p: int) -> int:
    """Canonical numbering of m coefficients: constant term most significant."""
    val = 0
    for c in coeffs:
        val = val * p + c
    return val


def _subtract(p: int, a: int, b: int) -> int:
    """Index of a - b: the base-p digits of the two indices subtract mod p."""
    diff, place = 0, 1
    while a or b:
        diff += (a % p - b % p) % p * place
        a, b, place = a // p, b // p, place * p
    return diff


def _poly_mod(coeffs: list[int], modulus: Poly, p: int) -> Poly:
    m = len(modulus) - 1  # modulus is monic of degree m
    for i in range(len(coeffs) - 1, m - 1, -1):
        c = coeffs[i] % p
        if c:
            coeffs[i] = 0
            for j in range(m):
                coeffs[i - m + j] = (coeffs[i - m + j] - c * modulus[j]) % p
    return _trim([c % p for c in coeffs[:m]])


def _monic_polys(p: int, degree: int) -> Iterator[Poly]:
    """Monic polynomials of one degree over GF(p), constant term varying fastest."""
    for digits in product(range(p), repeat=degree):  # last digit varies fastest
        yield tuple(reversed(digits)) + (1,)


def _canonical_modulus(p: int, m: int) -> Poly:
    """First monic irreducible of degree m, varying the constant term fastest.

    The resulting order tries t^m + c before t^m + t + c and so on, which
    pins GF(9) to t^2 + 1 and GF(25) to t^2 + 2.  A candidate is irreducible
    iff no monic polynomial of degree at most m/2 divides it; with
    p^m <= _FIELD_BOUND that is at most 2 p^(m/2) <= 512 trial divisors.
    """
    if m == 1:
        return (0, 1)  # the polynomial t; arithmetic is plain mod p
    return next(
        f
        for f in _monic_polys(p, m)
        if all(_poly_mod(list(f), d, p) for k in range(1, m // 2 + 1) for d in _monic_polys(p, k))
    )


@dataclass(frozen=True)
class FiniteField:
    """GF(p^m) with the canonical modulus; build via make_field()."""

    p: int
    m: int
    modulus: Poly

    @property
    def q(self) -> int:
        return self.p**self.m

    def elements(self) -> range:
        """The element indices 0..q-1, in canonical order."""
        return range(self.q)

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> FiniteField:
    """Construct GF(p^m) with the canonical (smallest) irreducible modulus.

    The order is checked against _FIELD_BOUND before p is tested for
    primality; every prime is at least 2, so an m past log2 of the bound is
    rejected without computing p^m.
    """
    if m < 1:
        raise TooLargeError(f"extension degree must be >= 1, got {m}")
    if m >= _FIELD_BOUND.bit_length() or p**m > _FIELD_BOUND:
        raise TooLargeError(f"field order {p}^{m} exceeds bound {_FIELD_BOUND}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return FiniteField(p=p, m=m, modulus=_canonical_modulus(p, m))


@lru_cache(maxsize=None)
def _power_walk(field: FiniteField) -> tuple[int, ...]:
    """Indices of g^0, g^1, ..., g^(q-2), g the first primitive element in index order.

    Each candidate c is walked until its powers return to 1; it is primitive
    iff that takes q - 1 steps, and GF(q)^* is cyclic, so one is.  The
    powers of a candidate that is not are not primitive either, so they are
    skipped as candidates.  In a prime field the index is the element, and
    each step is e * c % p.  Otherwise multiplying by c is GF(p)-linear: its
    m columns t^j c are computed once, and each step is one matrix-vector
    product over GF(p).  A FiniteField built on a reducible modulus has no
    element of order q - 1; each walk there stops after q steps, and
    ValueError is raised.
    """
    p, m, q = field.p, field.m, field.q
    if m == 1:
        one, candidates = 1, range(1, p)
    else:
        one, candidates = (1,) + (0,) * (m - 1), islice(product(range(p), repeat=m), 1, None)
    skipped = set()
    for c in candidates:  # zero is not a candidate
        if c in skipped:
            continue
        walk, e = [one], c
        if m == 1:
            for _ in range(q - 1):
                if e == 1:
                    break
                walk.append(e)
                e = e * c % p
        else:
            cols = [c]
            for _ in range(m - 1):  # t times the last column, with t^m = t^m - modulus
                *low, top = cols[-1]
                cols.append(tuple((a - top * f) % p for a, f in zip((0, *low), field.modulus)))
            rows = tuple(zip(*cols))
            for _ in range(q - 1):  # all q - 1 steps only if the modulus is reducible
                if e == one:
                    break
                walk.append(e)
                e = tuple([sum(map(mul, e, row)) % p for row in rows])
        if len(walk) == q - 1:
            return tuple(walk) if m == 1 else tuple(_index(e, p) for e in walk)
        skipped.update(walk)
    raise ValueError(f"{field!r} has no element of order {q - 1}: its modulus is reducible")


@lru_cache(maxsize=None)
def square_index_set(field: FiniteField) -> frozenset[int]:
    """Indices of the nonzero squares, the even powers g^(2k) of _power_walk.

    In characteristic 2, q - 1 is odd and every nonzero element is a square,
    so every power is taken.  This is the route the program uses; the
    Euler criterion and the squaring of every element, both by polynomial
    arithmetic in the tests, are the independent ones, and the test suite
    checks they agree.
    """
    powers = _power_walk(field)
    return frozenset(powers if field.p == 2 else powers[::2])


def is_nonzero_square(field: FiniteField, a: int) -> bool:
    """The element of index a is nonzero and one of square_index_set's powers.

    An index outside 0..q-1 names no element and raises InvalidVertexError.
    """
    if not 0 <= a < field.q:
        raise InvalidVertexError(f"element indices of {field!r} lie in 0..{field.q - 1}")
    return a in square_index_set(field)
