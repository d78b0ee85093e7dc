#!/usr/bin/env python3
"""Curvature of conference graphs: every edge lands exactly on 1/2 + 1/(2g).

Builds the Paley graph P(q) for every prime power q = 4g + 1 up to 49,
computes the Lin-Lu-Yau curvature of every edge by exact optimal
assignment, and checks the closed-form value.  The curvature equals the
upper bound (2 + alpha)/d, which for conference parameters
(4g+1, 2g, g-1, g) simplifies to 1/2 + 1/(2g).
"""

from fractions import Fraction

from llycurv import (
    classify_regularity,
    curvature_spectrum,
    local_perfect_matching,
    paley_gamma_orders,
    paley_graph,
)

print("conference graph curvature, one Paley graph per prime power 4g+1 <= 49")
print()

for gamma, q in paley_gamma_orders(12):
    g = paley_graph(q)
    params = classify_regularity(g).params
    expected = Fraction(1, 2) + Fraction(1, 2 * gamma)
    spectrum = curvature_spectrum(g)
    kappas = {r.kappa for r in spectrum.reports}
    print(
        f"P({q:2d})  params {params.as_tuple()}  edges {len(spectrum.reports):4d}"
        f"  kappa {set(map(str, kappas))}  expected {expected}"
        f"  {'ok' if kappas == {expected} else 'MISMATCH'}"
    )

print()
print("the same fact through the matching lens: curvature is sharp exactly")
print("when the exclusive neighborhoods admit a perfect matching")
print()

g = paley_graph(13)
x, y = 0, 1
parts, result = local_perfect_matching(g, x, y)
print(f"P(13), edge ({x},{y}): N_x = {parts.nx}, N_y = {parts.ny}")
print(f"perfect matching: {result.perfect}")
print("pairs:", list(result.pairs))
