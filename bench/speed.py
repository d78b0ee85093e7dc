"""Machine-speed scaling of the benchmark's timings.

On a shared machine the speed of one core drifts by up to 2x over tens of
seconds as neighbours come and go, which moves every timing of a run
together.  The benchmark therefore times a fixed reference kernel right
before and after each timed stretch and reports the stretch's wall time
scaled by REFERENCE_S / (mean kernel time around it): seconds on a machine
where the kernel takes REFERENCE_S.  The kernel is the benchmark's own code
and never changes with llycurv, so it cancels drift without rewarding or
penalising a change to the program.  Raw wall times go to the run record.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010


def reference_kernel() -> tuple[int, int, Fraction]:
    """Fixed pure-Python work of the kinds llycurv does: integer arithmetic,
    tuples, dict and set updates, and Fraction sums."""
    counts: dict[int, int] = {}
    seen = set()
    acc = 0
    for i in range(20000):
        t = (i * 7919) % 10007
        counts[t] = counts.get(t, 0) + 1
        seen.add((t, i & 15))
        acc += t * t % 13
    harmonic = Fraction(0)
    for i in range(1, 300):
        harmonic += Fraction(1, i)
    return acc, len(seen), harmonic


def kernel_seconds() -> float:
    """The reference kernel's time now: the fastest of three runs."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time bracketed by two kernel timings into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
