"""Acceptance criteria, one test per criterion, each printing a PASS line.

All equalities on curvature values are exact rational comparisons; the only
numerical tolerance anywhere is the 1e-9 window on the numerical
eigensolver (criterion 7).

Criterion 8 asserts the Lichnerowicz-sharp classification exactly: among
the catalog's strongly regular graphs with beta >= alpha, the sharp ones
(min kappa = lambda2) are exactly CP(2..6), P(9), J(5,2), J(6,2), the
Clebsch graph and the 4x4 rook's graph L2(4).  Rook(4) belongs there: it
has beta = alpha = 2, every edge carries a perfect local matching, so
kappa = (2 + alpha)/d = 2/3 on every edge, and lambda2 = 1 - 2/6 = 2/3 by
the closed form.  The Shrikhande graph shares its parameters (16,6,2,2)
but is not sharp, so sharpness is a property of the graph, not of the
parameters; it and the Petersen graph are checked to stay outside the set.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

from llycurv.certify import certify_curvature, obstruction_quadratic, scan_parameters
from llycurv.families import (
    catalog,
    paley_gamma_orders,
    paley_graph,
)
from llycurv.graphs import SrgParams, classify_regularity
from llycurv.matching import local_perfect_matching
from llycurv.residues import verify_corollary
from llycurv.spectral import (
    enumerate_sharp_candidates,
    lichnerowicz_report,
    numerical_lambda2,
    srg_spectrum,
)
from llycurv.transport import (
    ProbabilityMeasure,
    idleness_identity_check,
    curvature_spectrum,
    wasserstein_w1,
)
from helpers import BipartiteInstance, hall_reduction_check, random_regular_graph

SAMPLED_SEED = 20240814


def _announce(num: int, started: float, message: str) -> None:
    print(f"[criterion {num:2d}] PASS ({time.time() - started:5.1f}s): {message}")


def test_criterion_01_conference_curvature():
    started = time.time()
    orders = paley_gamma_orders(12)
    assert [q for _, q in orders] == [9, 13, 17, 25, 29, 37, 41, 49]
    for gamma, q in orders:
        expected = F(1, 2) + F(1, 2 * gamma)
        spectrum = curvature_spectrum(paley_graph(q))
        bad = [r for r in spectrum.reports if r.kappa != expected]
        assert not bad, f"P({q}): {len(bad)} edges off {expected}"
    _announce(1, started, "kappa = 1/2 + 1/(2 gamma) on every edge of P(q), q <= 49")


def test_criterion_02_rook_shrikhande_separation():
    started = time.time()
    rook = next(e for e in catalog() if e.name == "rook(4)").graph
    shri = next(e for e in catalog() if e.name == "shrikhande").graph
    assert {r.kappa for r in curvature_spectrum(rook).reports} == {F(2, 3)}
    assert {r.kappa for r in curvature_spectrum(shri).reports} == {F(1, 3)}
    _announce(2, started, "rook(4) at 2/3 and shrikhande at 1/3 on all edges, exact")


def _criterion3_graphs():
    for entry in catalog():
        if entry.graph.is_regular():
            yield entry.name, entry.graph
    master = random.Random("criterion3")
    produced = 0
    while produced < 50:
        n = master.randrange(6, 61)
        d = master.randrange(3, 9)
        if d >= n:
            continue
        if (n * d) % 2:
            n += 1 if n < 60 else -1
        yield f"random(n={n},d={d},#{produced})", random_regular_graph(
            n, d, seed=produced
        )
        produced += 1


def test_criterion_03_upper_bound_matching_equivalence():
    started = time.time()
    edges_checked = 0
    for name, g in _criterion3_graphs():
        spectrum = curvature_spectrum(g)
        for report in spectrum.reports:
            _, match = local_perfect_matching(g, report.x, report.y)
            assert report.sharp == match.perfect, (
                f"{name} edge ({report.x},{report.y}): "
                f"kappa sharp {report.sharp} vs matching {match.perfect}"
            )
            edges_checked += 1
    _announce(3, started, f"sharp iff perfect local matching on {edges_checked} edges")


def test_criterion_04_idleness_identity():
    started = time.time()
    edges_checked = 0
    for entry in catalog():
        g = entry.graph
        if not g.is_regular():
            continue
        for x, y in g.edges():
            via_assignment, via_flow = idleness_identity_check(g, x, y)
            assert via_assignment == via_flow, (entry.name, x, y)
            edges_checked += 1
    _announce(4, started, f"assignment and flow routes agree exactly on {edges_checked} edges")


def test_criterion_05_published_324_example():
    started = time.time()
    params = SrgParams(324, 152, 70, 72)
    cert = certify_curvature(params)
    assert cert.outcome == "sharp_by_sweep"
    assert cert.certified_kappa == F(9, 19)
    for b in range(2, 42):
        quad = obstruction_quadratic(params, b)
        assert quad.a2 == F(107, 5670) + F(1, 2 * (b - 1))
        assert quad.a1 == -F(5462, 2835) * b
        assert quad.a0 == F(104791, 2835) * b * b - 40 * b
        assert not quad.feasible
    _announce(5, started, "coefficients 107/5670, 5462/2835, 104791/2835, 40; all b in [2,41] infeasible; kappa 9/19")


def test_criterion_06_parameter_scan_512():
    started = time.time()
    rows = scan_parameters(512)
    by_tuple = {r.params.as_tuple(): r for r in rows}
    for row in rows:
        if row.params.is_conference and row.params.gamma > 6:
            assert row.conditions.cond1, row.params
    assert by_tuple[(275, 112, 30, 56)].conditions.cond4
    assert not by_tuple[(16, 6, 2, 2)].conditions.any_holds
    _announce(6, started, f"{len(rows)} feasible rows; conference gamma>6 all cond1; McLaughlin cond4")


def test_criterion_07_spectral_closed_form():
    started = time.time()
    checked = 0
    for entry in catalog():
        rc = classify_regularity(entry.graph)
        if not rc.is_strongly_regular:
            continue
        report = srg_spectrum(rc.params)
        assert report.m1 == 1 and report.m2 >= 1 and report.m3 >= 1
        assert report.m1 + report.m2 + report.m3 == rc.params.n
        numeric = numerical_lambda2(entry.graph)
        assert abs(numeric - report.lambda2.to_float()) < 1e-9, entry.name
        checked += 1
    assert srg_spectrum(SrgParams(9, 4, 1, 2)).lambda2.as_fraction() == F(3, 4)
    assert srg_spectrum(SrgParams(10, 3, 0, 1)).lambda2.as_fraction() == F(2, 3)
    for k in range(2, 7):
        params = SrgParams(2 * k, 2 * k - 2, 2 * k - 4, 2 * k - 2)
        assert srg_spectrum(params).lambda2.as_fraction() == F(1)
    _announce(7, started, f"closed form within 1e-9 of numerics on {checked} catalog SRGs")


def test_criterion_08_lichnerowicz_sharp_classification():
    started = time.time()
    expected_sharp = {
        "paley(9)", "johnson(5,2)", "johnson(6,2)", "clebsch", "rook(4)"
    } | {f"cocktail_party({k})" for k in range(2, 7)}
    computed_sharp = set()
    universe = []
    for entry in catalog():
        rc = classify_regularity(entry.graph)
        if not rc.is_strongly_regular or rc.params.beta < rc.params.alpha:
            continue
        universe.append(entry.name)
        if lichnerowicz_report(entry.graph).sharp:
            computed_sharp.add(entry.name)
    assert "petersen" not in computed_sharp
    assert "shrikhande" not in computed_sharp
    assert computed_sharp == expected_sharp, (
        f"sharp set over {sorted(universe)} came out {sorted(computed_sharp)}, "
        f"criterion expects {sorted(expected_sharp)}"
    )
    _announce(8, started, "sharp set matches the expected classification")


def test_criterion_09_candidate_enumeration():
    started = time.time()
    cands = enumerate_sharp_candidates(max_alpha=12, max_k=6)
    fam = {
        family: [c.params.as_tuple() for c in cands if c.family == family]
        for family in "abc"
    }
    assert fam["a"] == [(16, 6, 2, 2), (15, 8, 4, 4), (16, 10, 6, 6), (21, 16, 12, 12)]
    assert fam["b"] == [(10, 3, 0, 1), (9, 4, 1, 2), (10, 6, 3, 4)]
    assert fam["c"] == [(2 * k, 2 * k - 2, 2 * k - 4, 2 * k - 2) for k in range(2, 7)]
    for cand in cands:
        lam2 = srg_spectrum(cand.params).lambda2
        assert lam2.as_fraction() == F(2 + cand.params.alpha, cand.params.d)
    _announce(9, started, "eight closed cases reproduced; lambda2 = (2+alpha)/d on each")


def test_criterion_10_residue_pattern():
    started = time.time()
    exhaustive = {13: 67, 17: 576}
    for q, expected_count in exhaustive.items():
        report = verify_corollary(q, mode="exhaustive")
        assert report.subsets_tested == expected_count
        assert report.failures == ()
    for q in (25, 29, 37):
        report = verify_corollary(q, mode="sampled", seed=SAMPLED_SEED, trials=100_000)
        assert report.subsets_tested == 100_000
        assert report.failures == (), f"q={q}"
    _announce(10, started, "67 + 576 exhaustive subsets and 3 x 100k samples, zero failures")


def test_criterion_11_property_suites():
    started = time.time()
    # half-size Hall hypothesis never true while full Hall fails
    rng = random.Random("criterion11")
    for _ in range(1000):
        m = rng.randrange(1, 11)
        edges = tuple(
            (li, ri) for li in range(m) for ri in range(m) if rng.random() < 0.4
        )
        inst = BipartiteInstance(
            left=tuple(range(m)), right=tuple(range(m)), edges=edges
        )
        check = hall_reduction_check(inst)
        assert not (check.hypothesis_holds and not check.full_hall_holds)
    # d(d - alpha - 1) <= (n - d - 1) beta, with equality exactly on the
    # strongly regular entries
    for entry in catalog():
        rc = classify_regularity(entry.graph)
        if not rc.is_amply_regular:
            continue
        p = rc.params
        lhs, rhs = p.d * (p.d - p.alpha - 1), (p.n - p.d - 1) * p.beta
        assert lhs <= rhs and (lhs == rhs) == rc.is_strongly_regular, entry.name
    # W1 metric axioms on sampled rational measures
    g = paley_graph(13)
    for trial in range(15):
        mrng = random.Random(f"w1:{trial}")
        mus = []
        for _ in range(3):
            support = sorted(mrng.sample(range(13), mrng.randrange(1, 5)))
            weights = [mrng.randrange(1, 5) for _ in support]
            total = sum(weights)
            mus.append(
                ProbabilityMeasure.from_dict(
                    {v: F(w, total) for v, w in zip(support, weights)}
                )
            )
        d01, _ = wasserstein_w1(g, mus[0], mus[1])
        d10, _ = wasserstein_w1(g, mus[1], mus[0])
        d02, _ = wasserstein_w1(g, mus[0], mus[2])
        d12, _ = wasserstein_w1(g, mus[1], mus[2])
        dself, _ = wasserstein_w1(g, mus[0], mus[0])
        assert d01 == d10 and dself == 0
        assert d02 <= d01 + d12
    _announce(11, started, "Hall reduction, counting identity, and W1 metric properties hold")
