#!/usr/bin/env python3
"""Sharpness certificates from parameters alone, no graph required.

Three layers: closed-form sufficient conditions, the size-1 violator
rules, and the discriminant sweep of the obstruction quadratic.  The
(324, 152, 70, 72) parameters (a graph built from regular symmetric
Hadamard matrices) are certified sharp purely by the sweep: for every
candidate violator size b in [2, 41] the quadratic in the edge count X
has negative discriminant, so no Hall violator can exist and the
curvature must be (2 + 70)/152 = 9/19 on every edge of every graph with
those parameters.
"""

from llycurv import SrgParams, certify_curvature, evaluate_conditions, scan_parameters
from llycurv.certify import obstruction_quadratic

print("=== the Hadamard-matrix parameter set (324, 152, 70, 72) ===")
params = SrgParams(324, 152, 70, 72)
cert = certify_curvature(params)
print(f"outcome: {cert.outcome}, kappa = {cert.certified_kappa}")
print(f"size-1 violators excluded because beta - 1 = 71 > 70 = alpha ({cert.b_one})")
print("sweep transcript (first rows):")
print("   b        a2              a1              a0         disc<0")
for quad in cert.sweep[:5]:
    print(
        f"  {quad.b:2d}  {str(quad.a2):>14s} {str(quad.a1):>15s} {str(quad.a0):>15s}"
        f"   {not quad.feasible}"
    )
print(f"  ... all {len(cert.sweep)} sizes infeasible")

print()
print("=== closed-form conditions on named parameter sets ===")
for tup in [(29, 14, 6, 7), (275, 112, 30, 56), (16, 6, 2, 2), (25, 12, 5, 6)]:
    report = evaluate_conditions(SrgParams(*tup))
    fired = report.first_satisfied() or "none"
    cert = certify_curvature(SrgParams(*tup))
    print(f"{tup}: condition {fired:5s} -> {cert.outcome} (kappa {cert.certified_kappa})")

print()
print("note that (16, 6, 2, 2) stays inconclusive, and it must: the rook and")
print("Shrikhande graphs share those parameters with different curvature.")

print()
print("=== scanning all feasible parameters up to 60 vertices ===")
rows = scan_parameters(60)
print(f"{len(rows)} feasible tuples; those certified sharp:")
for row in rows:
    if row.certified_kappa is not None:
        how = row.conditions.first_satisfied() or "sweep"
        mark = " (conference)" if row.params.is_conference else ""
        print(f"  {row.params.as_tuple()}  kappa {row.certified_kappa} via {how}{mark}")

print()
print("=== the quadratic itself at conference parameters, gamma = 5 ===")
quad = obstruction_quadratic(SrgParams(21, 10, 4, 5), 3)
print(f"doubled: {2*quad.a2} X^2 + {2*quad.a1} X + {2*quad.a0} <= 0")
print(f"discriminant {quad.discriminant} >= 0: real X survive, so parameters")
print("alone cannot settle gamma = 5; the graph-level computation in demo 01 does.")
