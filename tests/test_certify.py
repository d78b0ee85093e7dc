"""Parameter-only certificates: conditions, obstruction quadratics, scanner."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from llycurv import certify
from llycurv.certify import (
    b_one_rule,
    certify_curvature,
    evaluate_conditions,
    obstruction_quadratic,
    scan_parameters,
)
from llycurv.errors import DegenerateParametersError, TooLargeError, ViolatorTooSmallError
from llycurv.families import catalog
from llycurv.graphs import SrgParams
from llycurv.spectral import integral_multiplicities
from llycurv.transport import curvature_spectrum

from helpers import fraction_obstruction_quadratic


def test_conditions_conference_gamma7():
    report = evaluate_conditions(SrgParams(29, 14, 6, 7))
    assert report.cond1
    assert report.first_satisfied() == "cond1"


def test_conditions_conference_gamma6_boundary():
    # 2d - 2a - 3 = 11 and 11^2 = 121 = 24*5 + 1: the strict inequality fails
    report = evaluate_conditions(SrgParams(25, 12, 5, 6))
    assert not report.any_holds


def test_conditions_mclaughlin_cond4():
    report = evaluate_conditions(SrgParams(275, 112, 30, 56))
    assert report.cond4
    assert not (report.cond1 or report.cond2 or report.cond3 or report.cond5)


def test_conditions_16_6_2_2_none():
    assert not evaluate_conditions(SrgParams(16, 6, 2, 2)).any_holds


def test_conditions_conference_cond1_iff_gamma_above_six():
    for gamma in range(2, 30):
        params = SrgParams(4 * gamma + 1, 2 * gamma, gamma - 1, gamma)
        assert evaluate_conditions(params).cond1 == (gamma > 6)


def test_conditions_hlx_and_ll():
    # cocktail party: d = 2k-2 <= 2 beta - alpha - 1 = 2k - 1
    assert evaluate_conditions(SrgParams(12, 10, 8, 10)).hlx
    # folded 5-cube parameters: alpha = 0, beta = 2
    assert evaluate_conditions(SrgParams(16, 5, 0, 2)).ll


def test_obstruction_reproduces_published_324_coefficients():
    params = SrgParams(324, 152, 70, 72)
    for b in (2, 3, 17, 41):
        quad = obstruction_quadratic(params, b)
        assert quad.a2 == F(107, 5670) + F(1, 2 * (b - 1))
        assert quad.a1 == -F(5462 * b, 2835)
        assert quad.a0 == F(104791, 2835) * b * b - 40 * b
        assert not quad.feasible


def test_obstruction_infeasible_for_all_b_up_to_41():
    params = SrgParams(324, 152, 70, 72)
    assert all(not obstruction_quadratic(params, b).feasible for b in range(2, 42))


def test_obstruction_conference_gamma5_matches_display():
    # at (21,10,4,5), b=3 the doubled inequality reads 23/20 X^2 - 12 X + 30 <= 0
    quad = obstruction_quadratic(SrgParams(21, 10, 4, 5), 3)
    assert (2 * quad.a2, 2 * quad.a1, 2 * quad.a0) == (F(23, 20), F(-12), F(30))
    assert quad.feasible  # real X survive; parameters alone cannot close gamma = 5


def test_obstruction_guards():
    with pytest.raises(ViolatorTooSmallError):
        obstruction_quadratic(SrgParams(324, 152, 70, 72), 1)
    with pytest.raises(DegenerateParametersError):
        obstruction_quadratic(SrgParams(10, 3, 0, 1), 2)  # alpha = 0


def _enters_sweep(params):
    n, d, a, _ = params.as_tuple()
    return (
        not evaluate_conditions(params).any_holds
        and d - a - 1 > 0
        and b_one_rule(params) is not None
        and n - 2 * d + a > 0
        and a >= 1
    )


def _oracle_sweep(params):
    """(outcome, last b decided) of a sweep driven by the Fraction formula."""
    last = (params.d - params.alpha) // 2
    for b in range(2, last + 1):
        if fraction_obstruction_quadratic(params, b)[3] >= 0:
            return "inconclusive", b
    return "sharp_by_sweep", last


@pytest.fixture(scope="module")
def scan400_sweeps():
    rows = scan_parameters(400)
    return {
        row.params: _oracle_sweep(row.params) for row in rows if _enters_sweep(row.params)
    }


def test_obstruction_matches_fraction_oracle(scan400_sweeps):
    cases = [
        (params, b)
        for params, (_, last) in scan400_sweeps.items()
        for b in range(2, last + 1)
    ]
    assert len(cases) == 11329
    cases += [(SrgParams(324, 152, 70, 72), b) for b in range(2, 42)]
    cases.append((SrgParams(21, 10, 4, 5), 3))
    for params, b in cases:
        quad = obstruction_quadratic(params, b)
        a2, a1, a0, disc = fraction_obstruction_quadratic(params, b)
        assert (quad.b, quad.a2, quad.a1, quad.a0, quad.discriminant, quad.feasible) == (
            b, a2, a1, a0, disc, disc >= 0
        ), (params, b)


def test_certificate_sweep_agrees_with_fraction_oracle(scan400_sweeps):
    outcomes = set()
    for params, expected in scan400_sweeps.items():
        cert = certify_curvature(params)
        assert (cert.outcome, cert.last_b) == expected, params
        outcomes.add(cert.outcome)
    assert outcomes == {"inconclusive", "sharp_by_sweep"}


def test_sweep_bound(monkeypatch):
    # (d - alpha)/2 - 1 sizes: exactly the bound is swept, one more is refused
    # before any size is decided
    at_bound = SrgParams(648000, 140000 + 2 * (certify._SWEEP_BOUND + 1), 140000, 144000)
    above = SrgParams(648000, 140000 + 2 * (certify._SWEEP_BOUND + 2), 140000, 144000)
    monkeypatch.setattr(certify, "_cleared", lambda terms, b: (0, 0, 0, 0))
    assert certify_curvature(at_bound).last_b == 2

    def fail(*args):
        raise AssertionError("sweep work before the bound check")

    monkeypatch.setattr(certify, "_cleared", fail)
    with pytest.raises(TooLargeError):
        certify_curvature(above)


def test_b_one_rules():
    assert b_one_rule(SrgParams(324, 152, 70, 72)) == "delta_deficit"  # beta-1=71 > 70
    assert b_one_rule(SrgParams(13, 6, 2, 3)) == "parity"
    assert b_one_rule(SrgParams(10, 6, 3, 4)) == "pxy_deficit"  # |P|=1 < 2
    assert b_one_rule(SrgParams(16, 6, 2, 2)) is None


def test_certify_324_by_sweep():
    cert = certify_curvature(SrgParams(324, 152, 70, 72))
    assert cert.outcome == "sharp_by_sweep"
    assert cert.certified_kappa == F(9, 19)
    assert cert.b_one == "delta_deficit"
    assert [q.b for q in cert.sweep] == list(range(2, 42))


def test_certify_conference_gamma7_by_condition():
    cert = certify_curvature(SrgParams(29, 14, 6, 7))
    assert cert.outcome == "sharp_by_condition"
    assert cert.condition == "cond1"
    assert cert.certified_kappa == F(4, 7)  # 8/14 = 1/2 + 1/14


def test_certify_16_6_2_2_inconclusive():
    # correct: Shrikhande shares these parameters and is not sharp
    cert = certify_curvature(SrgParams(16, 6, 2, 2))
    assert cert.outcome == "inconclusive"
    assert cert.certified_kappa is None


def test_certify_paley9_parameters_by_vacuous_sweep():
    cert = certify_curvature(SrgParams(9, 4, 1, 2))
    assert cert.outcome == "sharp_by_sweep"
    assert cert.b_one == "parity"
    assert cert.sweep == ()  # floor((d - alpha)/2) = 1: nothing beyond b = 1
    assert cert.certified_kappa == F(3, 4)


def test_certify_petersen_parameters_inconclusive():
    # alpha = 0 and beta = 1: no condition, no quadratic; and indeed the
    # Petersen graph is flat, so a sharp certificate would be unsound
    cert = certify_curvature(SrgParams(10, 3, 0, 1))
    assert cert.outcome == "inconclusive"


def test_certify_small_conference_parameters_inconclusive():
    # gamma in {3,4,5}: the quadratic admits real X, so parameters alone
    # do not settle these (graph-level computation does)
    for gamma in (3, 4, 5):
        params = SrgParams(4 * gamma + 1, 2 * gamma, gamma - 1, gamma)
        assert certify_curvature(params).outcome == "inconclusive"


def test_certified_kappa_sound_against_catalog_graphs():
    # every certificate for parameters realized in the catalog must match
    # the transport-computed curvature of every edge
    by_params = {}
    for entry in catalog():
        if entry.params is not None:
            by_params.setdefault(entry.params.as_tuple(), []).append(entry)
    for tup, entries in by_params.items():
        cert = certify_curvature(SrgParams(*tup))
        if not cert.sharp:
            continue
        for entry in entries:
            spectrum = curvature_spectrum(entry.graph)
            kappas = {r.kappa for r in spectrum.reports}
            assert kappas == {cert.certified_kappa}, (entry.name, tup)


def test_scan_29_contains_flagged_conference_row():
    rows = scan_parameters(29)
    match = [r for r in rows if r.params.as_tuple() == (29, 14, 6, 7)]
    assert len(match) == 1
    row = match[0]
    assert row.conference and row.conditions.cond1
    assert row.identity_holds and row.multiplicities_integral


def test_scan_16_contains_unflagged_16_6_2_2():
    rows = scan_parameters(16)
    match = [r for r in rows if r.params.as_tuple() == (16, 6, 2, 2)]
    assert len(match) == 1
    assert not match[0].conditions.any_holds
    assert not match[0].sweep_sharp
    assert match[0].certified_kappa is None


def test_scan_rows_satisfy_identity_and_bounds():
    for row in scan_parameters(60):
        n, d, a, b = row.params.as_tuple()
        assert d * (d - a - 1) == (n - d - 1) * b
        assert 1 <= b <= d and 0 <= a <= d - 1 and d < n


def test_scan_80_is_complete_against_brute_force():
    # Every non-complete (n, d, alpha, beta) with beta >= 1 that meets the
    # counting identity and has integral multiplicities, by plain search.
    expected = [
        (n, d, a, b)
        for n in range(3, 81)
        for d in range(1, n - 1)
        for a in range(d)
        for b in range(1, d + 1)
        if d * (d - a - 1) == (n - d - 1) * b
        and integral_multiplicities(n, d, a, b) is not None
    ]
    got = [r.params.as_tuple() for r in scan_parameters(80)]
    assert sorted(got) == sorted(expected)
    assert len(got) > 100


def test_scan_evaluates_conditions_once_per_row(monkeypatch):
    calls = []

    def counted(params):
        calls.append(params)
        return evaluate_conditions(params)

    monkeypatch.setattr(certify, "evaluate_conditions", counted)
    rows = scan_parameters(60)
    assert calls == [r.params for r in rows]
    assert all(r.conditions == evaluate_conditions(r.params) for r in rows)


def test_scan_finds_cocktail_party_chain():
    tuples = {r.params.as_tuple() for r in scan_parameters(12)}
    for k in range(2, 7):
        assert (2 * k, 2 * k - 2, 2 * k - 4, 2 * k - 2) in tuples
