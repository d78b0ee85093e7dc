"""Brute-force verification of the quadratic-residue pattern statement.

For q = 1 mod 4 and x - y a nonzero square, every subset S of
GF(q) \\ {x, y} with |S| >= 3(q-1)/4 must contain w, z with x-w, w-z, z-y
nonzero squares while x-z, y-w are non-squares.  Checked exhaustively for
small q and by seeded sampling otherwise, as a statement about the Paley
graph P(q): the pattern is an edge between the exclusive neighborhoods of
the edge xy inside S.  Elements are their indices throughout: a run tests
subsets as bitmasks of indices against the root split of P(q), and
find_pattern_witness reads one subset's witness off index differences
(fields._subtract) and the squares (square_index_set).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from math import comb
from typing import Callable, Iterable

from .errors import InvalidOrderError, InvalidPairError, InvalidVertexError, TooLargeError
from .families import _check_paley_size, _paley_root_split, prime_power_decomposition
from .fields import FiniteField, _subtract, square_index_set
from .graphs import EdgeNeighborhood, _set_bits

# Subsets tested per run, in either mode.  Exhaustive mode runs at q = 29
# (397,594 subsets); q = 37 would need 32 million.
_SUBSET_BOUND = 10**6


def find_pattern_witness(
    field: FiniteField, x: int, y: int, subset: Iterable[int]
) -> tuple[int, int] | None:
    """First (w, z) in index order realizing the pattern in S, if any.

    x, y, S and the witness are element indices, 0..q-1.  w must see x as
    a square difference but not y, z the reverse, and w - z must be a
    nonzero square; equivalently (w, z) is an edge between the exclusive
    neighborhoods of x and y inside S.  The non-squares are nonzero, so x
    and y are never w or z, even when S holds them.
    """
    members = sorted(v for v in subset if v != x and v != y)
    if min(x, y, *members[:1]) < 0 or max(x, y, *members[-1:]) >= field.q:
        raise InvalidVertexError(f"element indices of {field!r} lie in 0..{field.q - 1}")
    p, squares = field.p, square_index_set(field)
    if _subtract(p, x, y) not in squares:
        raise InvalidPairError("x - y must be a nonzero square")
    side_x = [
        w for w in members if _subtract(p, x, w) in squares and _subtract(p, y, w) not in squares
    ]
    side_y = [
        z for z in members if _subtract(p, z, y) in squares and _subtract(p, x, z) not in squares
    ]
    for w in side_x:
        for z in side_y:
            if _subtract(p, w, z) in squares:
                return (w, z)
    return None


def pattern_free_kernel(split: EdgeNeighborhood) -> Callable[[int], bool]:
    """Decide vertex subsets, given as bitmasks, around the edge xy of a split.

    Each edge of H(x, y), from w in N_x to a bit of its row, is held as the
    two-bit mask of its ends.  The returned test is True iff no such edge
    lies inside the subset's mask, i.e. on the Paley graph iff
    find_pattern_witness finds nothing.
    """
    edges = [1 << w | 1 << z for w, row in zip(split.nx, split.rows) for z in _set_bits(row)]

    def pattern_free(s: int) -> bool:
        # A large S usually holds the first edge, so a plain loop beats the
        # cost of setting up all() over a generator.
        for e in edges:
            if s & e == e:
                return False
        return True

    return pattern_free


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


def verify_corollary(
    q: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    trials: int | None = None,
) -> CorollaryReport:
    """Check every (or `trials` sampled) qualifying subset for the pattern.

    Each subset is decided on the split of the root edge (x, y) = (0, c)
    of P(q), the one paley_kappa reads, whose one-orbit proof makes this
    pair decide every pair with a square difference: a witness is an edge
    of P(q) from N_x to N_y inside S, so S, as a bitmask, is pattern-free
    iff no two-bit mask of an edge of H(x, y) lies inside it
    (pattern_free_kernel).  Exhaustive mode enumerates the removed set R,
    at most gamma - 1 of the q - 2 vertices of the universe, and tests
    S = universe minus R.  Sampled mode draws R too, from one random.Random
    per run seeded from str(seed): each trial's size with weight
    comb(q - 2, size), then R uniformly among the removed sets of that
    size, so S is uniform given its size and over the whole family.  Both
    modes yield their removed sets into one loop.  find_pattern_witness
    decides a subset from element indices instead, by index subtraction
    and the squares, and the tests check the two against each other.
    The split's masks grow with q, so q is checked against the Paley edge
    bound before it is factored.
    """
    _check_paley_size(q)
    if q <= 5 or q % 4 != 1 or prime_power_decomposition(q) is None:
        raise InvalidOrderError(f"need a prime power q = 1 mod 4 with q > 5, got {q}")
    sizes = range(subset_threshold(q), q - 1)  # universe is GF(q) minus x, y
    if mode == "exhaustive":
        total = sum(comb(q - 2, s) for s in sizes)
        if total > _SUBSET_BOUND:
            raise TooLargeError(
                f"exhaustive mode at q = {q} needs {total} subsets, "
                f"above the bound {_SUBSET_BOUND}; use sampled mode"
            )
    elif mode == "sampled":
        if seed is None or trials is None:
            raise InvalidOrderError("sampled mode needs both seed and trials")
        if trials < 1:
            raise InvalidOrderError(f"sampled mode needs trials >= 1, got {trials}")
        if trials > _SUBSET_BOUND:
            raise TooLargeError(
                f"sampled mode allows at most {_SUBSET_BOUND} trials, got {trials}"
            )
    else:
        raise InvalidOrderError(f"unknown mode {mode!r}")
    split = _paley_root_split(q)
    x, y = split.x, split.y
    pattern_free = pattern_free_kernel(split)
    bits = [1 << v for v in range(q) if v != x and v != y]  # the universe, one bit each
    full = sum(bits)
    if mode == "exhaustive":
        removed_sets = chain.from_iterable(combinations(bits, len(bits) - size) for size in sizes)
    else:
        # The stream is seeded from the seed's decimal string: an int seed is
        # reduced to abs(seed), which would make seeds 1 and -1 draw alike.
        # Size s has weight comb(q - 2, s); a draw below the total lands in
        # its slot of the running sums, and sample's arguments, that draw
        # included, are evaluated before it draws R.  R, at most gamma - 1
        # bits, is a shorter draw than S.
        rng = random.Random(str(seed))
        cumulative = list(accumulate(comb(len(bits), s) for s in sizes))
        removed_sets = (
            rng.sample(
                bits, len(bits) - sizes[bisect_right(cumulative, rng.randrange(cumulative[-1]))]
            )
            for _ in range(trials)
        )
    failures: list[tuple[int, ...]] = []
    tested = 0
    for removed in removed_sets:
        s = full ^ sum(removed)
        tested += 1
        if pattern_free(s):
            failures.append(_set_bits(s))
    failures.sort()
    return CorollaryReport(
        q=q,
        pair=(x, y),
        subsets_tested=tested,
        failures=tuple(failures),
        mode=mode,
        seed=seed if mode == "sampled" else None,
        trials=trials if mode == "sampled" else None,
    )
