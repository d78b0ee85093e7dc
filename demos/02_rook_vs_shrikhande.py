#!/usr/bin/env python3
"""Two graphs, one parameter set, different curvature.

The 4x4 rook's graph and the Shrikhande graph are both strongly regular
with parameters (16, 6, 2, 2), yet their Lin-Lu-Yau curvatures differ:
2/3 on every rook edge (the upper bound (2+alpha)/d) versus 1/3 on every
Shrikhande edge.  Curvature is therefore not a function of the parameters
alone.  The matching certificates make the difference tangible: rook
edges carry a perfect matching between N_x and N_y, Shrikhande edges have
an explicit Hall violator.
"""

from llycurv import (
    classify_regularity,
    curvature_spectrum,
    local_perfect_matching,
    named_graph,
)

rook = named_graph("rook", k=4)
shri = named_graph("shrikhande")

for name, g in (("rook(4)", rook), ("shrikhande", shri)):
    rc = classify_regularity(g)
    spectrum = curvature_spectrum(g)
    kappas = sorted({str(r.kappa) for r in spectrum.reports})
    print(f"{name:11s} params {rc.params.as_tuple()}  kappa on all edges: {kappas}")

print()
print("certificates on the edge (0, 1) of each graph:")
for name, g in (("rook(4)", rook), ("shrikhande", shri)):
    parts, result = local_perfect_matching(g, 0, 1)
    print(f"\n{name}: N_x = {parts.nx}, N_y = {parts.ny}")
    if result.perfect:
        print(f"  perfect matching: {list(result.pairs)}")
    else:
        violator = list(result.violator)
        neighbors = sorted({u for v in violator for u in g.neighbors(v) if u in parts.ny})
        print(f"  Hall violator {violator} sees only {neighbors}")
