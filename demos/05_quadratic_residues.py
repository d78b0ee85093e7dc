#!/usr/bin/env python3
"""A number-theoretic shadow of the matching theorem.

Because every edge of a Paley graph carries a perfect matching between
the exclusive neighborhoods, any subset S of GF(q) \\ {x, y} keeping at
least 3/4 of the nonzero residue classes must contain a w and z with
x-w, w-z, z-y nonzero squares while x-z and y-w are non-squares.  Small
orders are checked over every qualifying subset, larger ones by seeded
sampling.
"""

from llycurv import find_pattern_witness, make_field, verify_corollary
from llycurv.residues import square_index_set, subset_threshold

print("exhaustive verification")
for q in (13, 17):
    report = verify_corollary(q, mode="exhaustive")
    print(
        f"q = {q}: |S| >= {subset_threshold(q)}, {report.subsets_tested} subsets,"
        f" failures: {len(report.failures)}"
    )

print()
print("sampled verification (deterministic seed)")
for q in (25, 29):
    report = verify_corollary(q, mode="sampled", seed=20240814, trials=20_000)
    print(f"q = {q}: {report.subsets_tested} sampled subsets, failures: {len(report.failures)}")

print()
print("one witness in detail, q = 13, x = 0, y = 1")
f = make_field(13)
squares = sorted(square_index_set(f))
print(f"nonzero squares mod 13: {squares}")
subset = [v for v in range(13) if v not in (0, 1, 6, 7)]
w, z = find_pattern_witness(f, 0, 1, subset)  # elements of GF(13) are their indices
print(f"S = everything but {{0, 1, 6, 7}} -> witness w = {w}, z = {z}")
print(f"checks: 0-w = {-w % 13}, w-z = {(w - z) % 13}, z-1 = {(z - 1) % 13} are squares;")
print(f"        0-z = {-z % 13}, 1-w = {(1 - w) % 13} are not")
