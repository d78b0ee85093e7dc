"""Brute-force verification of the quadratic-residue pattern statement.

For q = 1 mod 4 and x - y a nonzero square, every subset S of
GF(q) \\ {x, y} with |S| >= 3(q-1)/4 must contain w, z with x-w, w-z, z-y
nonzero squares while x-z, y-w are non-squares.  Checked exhaustively for
small q and by seeded sampling otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable

from .errors import InvalidOrderError, InvalidPairError
from .families import prime_power_decomposition
from .fields import FieldElement, FiniteField, is_nonzero_square, make_field


@lru_cache(maxsize=None)
def square_index_set(field: FiniteField) -> frozenset[int]:
    """Indices of the nonzero squares, obtained by squaring every element.

    Independent of the Euler-criterion route in fields.is_nonzero_square;
    the test suite checks the two agree.
    """
    return frozenset((e * e).index for e in field.elements() if not e.is_zero)


def find_pattern_witness(
    field: FiniteField,
    x: FieldElement,
    y: FieldElement,
    subset: Iterable[FieldElement],
) -> tuple[FieldElement, FieldElement] | None:
    """First (w, z) in canonical index order realizing the pattern, if any.

    w must see x as a square difference but not y, z the reverse, and w - z
    must be a nonzero square; equivalently (w, z) is an edge between the
    exclusive neighborhoods of x and y inside S.
    """
    squares = square_index_set(field)
    if (x - y).index not in squares:
        raise InvalidPairError("x - y must be a nonzero square")
    members = sorted(subset, key=lambda e: e.index)
    side_x = [
        w
        for w in members
        if (x - w).index in squares and (y - w).index not in squares
    ]
    side_y = [
        z
        for z in members
        if (z - y).index in squares and (x - z).index not in squares
    ]
    for w in side_x:
        for z in side_y:
            if (w - z).index in squares:
                return (w, z)
    return None


@dataclass(frozen=True)
class CorollaryReport:
    """Aggregate outcome of a pattern-verification run over many subsets."""

    q: int
    pair: tuple[int, int]  # canonical (x, y) as element indices
    subsets_tested: int
    failures: tuple[tuple[int, ...], ...]
    mode: str  # "exhaustive" | "sampled"
    seed: int | None = None
    trials: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def subset_threshold(q: int) -> int:
    """Smallest admissible |S|, the exact rational bound 3(q-1)/4 rounded up."""
    return -((-3 * (q - 1)) // 4)


def canonical_pair(field: FiniteField) -> tuple[FieldElement, FieldElement]:
    """(0, c) with c the index-smallest nonzero square.

    Affine maps t -> a t + b with a a nonzero square act transitively on
    square-difference pairs, so verifying one pair verifies them all; the
    symmetry itself is exercised by the test suite rather than assumed
    blindly.
    """
    for e in field.elements():
        if is_nonzero_square(field, e):
            return field.zero, e
    raise InvalidOrderError(f"GF({field.q}) has no nonzero square")


def verify_corollary(
    q: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    trials: int | None = None,
) -> CorollaryReport:
    """Check every (or `trials` sampled) qualifying subset for the pattern."""
    pm = prime_power_decomposition(q)
    if pm is None or q % 4 != 1 or q <= 5:
        raise InvalidOrderError(f"need a prime power q = 1 mod 4 with q > 5, got {q}")
    field = make_field(*pm)
    x, y = canonical_pair(field)
    universe = [e for e in field.elements() if e != x and e != y]
    threshold = subset_threshold(q)
    failures: list[tuple[int, ...]] = []
    tested = 0
    if mode == "exhaustive":
        for size in range(threshold, len(universe) + 1):
            for subset in combinations(universe, size):
                tested += 1
                if find_pattern_witness(field, x, y, subset) is None:
                    failures.append(tuple(e.index for e in subset))
    elif mode == "sampled":
        if seed is None or trials is None:
            raise InvalidOrderError("sampled mode needs both seed and trials")
        sizes = list(range(threshold, len(universe) + 1))
        weights = [comb(len(universe), s) for s in sizes]
        total_weight = sum(weights)
        for counter in range(trials):
            rng = random.Random(f"{seed}:{counter}")
            r = rng.randrange(total_weight)
            size = sizes[-1]
            for s, w in zip(sizes, weights):
                if r < w:
                    size = s
                    break
                r -= w
            subset = rng.sample(universe, size)
            tested += 1
            if find_pattern_witness(field, x, y, subset) is None:
                failures.append(tuple(sorted(e.index for e in subset)))
    else:
        raise InvalidOrderError(f"unknown mode {mode!r}")
    failures.sort()
    return CorollaryReport(
        q=q,
        pair=(x.index, y.index),
        subsets_tested=tested,
        failures=tuple(failures),
        mode=mode,
        seed=seed,
        trials=trials if mode == "sampled" else None,
    )
