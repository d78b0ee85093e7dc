"""Closed-form SRG spectra, the SRG verdict against the matrix identity, and Lichnerowicz reports."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from llycurv import spectral
from llycurv.errors import (
    DisconnectedError,
    InfeasibleParametersError,
    InvalidParamsError,
    NotSrgParametersError,
    TooLargeError,
)
from llycurv.families import (
    catalog,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    paley_graph,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
)
from llycurv.graphio import load_graph
from llycurv.graphs import Graph, SrgParams, classify_regularity
from llycurv.spectral import (
    enumerate_sharp_candidates,
    integral_multiplicities,
    lichnerowicz_report,
    numerical_lambda2,
    srg_spectrum,
)
from helpers import matrix_srg_identity


def test_spectrum_paley9():
    s = srg_spectrum(SrgParams(9, 4, 1, 2))
    assert s.lambda2.as_fraction() == F(3, 4)
    assert s.lambda3.as_fraction() == F(3, 2)
    assert (s.m1, s.m2, s.m3) == (1, 4, 4)


def test_spectrum_petersen():
    s = srg_spectrum(SrgParams(10, 3, 0, 1))
    assert s.lambda2.as_fraction() == F(2, 3)
    assert s.lambda3.as_fraction() == F(5, 3)
    assert (s.m2, s.m3) == (5, 4)


def test_spectrum_cocktail_party_2():
    s = srg_spectrum(SrgParams(4, 2, 0, 2))
    assert s.lambda2.as_fraction() == F(1)
    assert s.lambda3.as_fraction() == F(2)
    assert (s.m2, s.m3) == (2, 1)


def test_spectrum_conference_is_irrational_with_equal_multiplicities():
    s = srg_spectrum(SrgParams(13, 6, 2, 3))
    assert not s.lambda2.is_rational
    assert s.lambda2.disc == 13
    assert (s.m2, s.m3) == (6, 6)


def test_spectrum_rejects_non_srg_identity():
    with pytest.raises(NotSrgParametersError):
        srg_spectrum(SrgParams(8, 3, 0, 2))  # hypercube: amply but not SRG


def test_spectrum_rejects_non_integral_multiplicities():
    # (21,5,1,1) passes the counting identity but m2 is not integral
    assert 5 * 3 == 15 * 1
    with pytest.raises(InfeasibleParametersError):
        srg_spectrum(SrgParams(21, 5, 1, 1))


def test_integral_multiplicities_conference_degenerate_branch():
    assert integral_multiplicities(13, 6, 2, 3) == (6, 6)
    assert integral_multiplicities(25, 12, 5, 6) == (12, 12)


def test_multiplicities_sum_to_n_on_catalog():
    for entry in catalog():
        rc = classify_regularity(entry.graph)
        if not rc.is_strongly_regular:
            continue
        s = srg_spectrum(rc.params)
        assert s.m1 + s.m2 + s.m3 == rc.params.n, entry.name


def test_srg_verdict_examples():
    for g, params in [
        (paley_graph(13), SrgParams(13, 6, 2, 3)),
        (shrikhande_graph(), SrgParams(16, 6, 2, 2)),
        (rook_graph(4), SrgParams(16, 6, 2, 2)),
    ]:
        rc = classify_regularity(g)
        assert rc.is_strongly_regular and rc.params == params
        assert matrix_srg_identity(g, params)
    q3 = hypercube_graph(3)
    rc = classify_regularity(q3)
    assert rc.is_amply_regular and not rc.is_strongly_regular
    assert not matrix_srg_identity(q3, SrgParams(8, 3, 0, 2))


def test_srg_verdict_matches_matrix_identity():
    # classify_regularity calls g strongly regular with params exactly when
    # A^2 = dI + alpha A + beta (J - I - A).  Complete graphs are the one
    # exception: J - I - A = 0, so any beta satisfies the identity, but an
    # SRG is by definition neither complete nor edgeless.
    cases = [(entry.graph, entry.params) for entry in catalog() if entry.params is not None]
    cases += [
        (petersen_graph(), SrgParams(10, 3, 1, 1)),  # wrong alpha
        (petersen_graph(), SrgParams(10, 4, 0, 1)),  # wrong degree only
        (complete_graph(5), SrgParams(5, 4, 3, 0)),  # J - I - A = 0: any beta holds
        (complete_graph(5), SrgParams(5, 4, 2, 0)),
    ]
    rrg = load_graph(Path(__file__).parent / "data" / "rrg40_8.g6")
    cases += [(rrg, SrgParams(40, 8, a, b)) for a in range(8) for b in range(9)]
    outcomes = set()
    for g, params in cases:
        rc = classify_regularity(g)
        holds = matrix_srg_identity(g, params)
        if params.d == g.n - 1:
            assert rc.params is None and holds == (params.alpha == g.n - 2), (g, params)
        else:
            assert holds == (rc.is_strongly_regular and rc.params == params), (g, params)
        outcomes.add(holds)
    assert outcomes == {True, False}


def test_import_loads_no_numpy():
    # nor the process pool, which only `curvature_spectrum` and
    # `lichnerowicz_report` start, and only with processes > 1
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, llycurv; print('numpy' in sys.modules, 'concurrent.futures.process' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"


_RRG40 = load_graph(Path(__file__).parent / "data" / "rrg40_8.g6")


@pytest.mark.parametrize("g", [_RRG40, paley_graph(13)], ids=["rrg40_8", "paley13"])
def test_lichnerowicz_report_pool_matches_one_process(g):
    assert lichnerowicz_report(g, processes=2) == lichnerowicz_report(g, processes=1)


def test_numerical_lambda2_complete_graph():
    assert abs(numerical_lambda2(complete_graph(5)) - 1.25) < 1e-12


def test_numerical_lambda2_petersen():
    assert abs(numerical_lambda2(petersen_graph()) - 2 / 3) < 1e-9


def test_numerical_lambda2_paley9():
    assert abs(numerical_lambda2(paley_graph(9)) - 0.75) < 1e-9


def test_numerical_lambda2_bound_is_checked_before_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy raises
    with pytest.raises(TooLargeError):
        numerical_lambda2(cycle_graph(spectral._DENSE_VERTICES + 1))
    with pytest.raises(ImportError):  # at the bound it goes on to numpy
        numerical_lambda2(cycle_graph(spectral._DENSE_VERTICES))


def test_numerical_lambda2_disconnected_raises():
    with pytest.raises(DisconnectedError):
        numerical_lambda2(Graph(4, [(0, 1), (2, 3)]))


def test_numerical_lambda2_empty_graph_is_graph_level_error():
    with pytest.raises(InvalidParamsError):
        numerical_lambda2(Graph(0, []))


def test_numerical_matches_closed_form_on_catalog():
    for entry in catalog():
        rc = classify_regularity(entry.graph)
        if not rc.is_strongly_regular:
            continue
        exact = srg_spectrum(rc.params).lambda2.to_float()
        assert abs(numerical_lambda2(entry.graph) - exact) < 1e-9, entry.name


def test_lichnerowicz_paley9_sharp():
    report = lichnerowicz_report(paley_graph(9))
    assert report.min_kappa == F(3, 4)
    assert report.lambda2_exact is not None
    assert report.lambda2_exact.as_fraction() == F(3, 4)
    assert report.sharp


def test_lichnerowicz_shrikhande_not_sharp():
    report = lichnerowicz_report(shrikhande_graph())
    assert report.min_kappa == F(1, 3)
    assert report.lambda2_exact.as_fraction() == F(2, 3)
    assert not report.sharp


def test_lichnerowicz_petersen_not_sharp():
    report = lichnerowicz_report(petersen_graph())
    assert report.min_kappa == 0
    assert not report.sharp


def test_lichnerowicz_inequality_on_catalog():
    # min curvature never exceeds lambda2
    for entry in catalog():
        if not entry.graph.is_regular():
            continue
        report = lichnerowicz_report(entry.graph)
        assert float(report.min_kappa) <= report.lambda2_float + 1e-9, entry.name


def test_lichnerowicz_listed_graphs_sharp():
    # the positively classified ones, plus the two named non-examples,
    # are checked graph by graph; the exact-set criterion lives in the
    # acceptance suite
    sharp_names = {
        "paley(9)", "johnson(5,2)", "johnson(6,2)", "clebsch", "rook(4)"
    } | {f"cocktail_party({k})" for k in range(2, 7)}
    for entry in catalog():
        if entry.name in sharp_names:
            assert lichnerowicz_report(entry.graph).sharp, entry.name
    for name in ("petersen", "shrikhande"):
        entry = next(e for e in catalog() if e.name == name)
        assert not lichnerowicz_report(entry.graph).sharp, name


def test_rook4_is_lichnerowicz_sharp():
    # L2(4) attains min kappa = 2/3 = lambda2 while having beta >= alpha;
    # every edge has a perfect local matching, so kappa = (2 + alpha)/d = 2/3
    report = lichnerowicz_report(rook_graph(4))
    assert report.min_kappa == F(2, 3)
    assert report.lambda2_exact.as_fraction() == F(2, 3)
    assert report.sharp


def test_enumerate_sharp_candidates_exact_lists():
    cands = enumerate_sharp_candidates(max_alpha=12, max_k=6)
    fam_a = [c.params.as_tuple() for c in cands if c.family == "a"]
    fam_b = [c.params.as_tuple() for c in cands if c.family == "b"]
    fam_c = [c.params.as_tuple() for c in cands if c.family == "c"]
    assert fam_a == [(16, 6, 2, 2), (15, 8, 4, 4), (16, 10, 6, 6), (21, 16, 12, 12)]
    assert fam_b == [(10, 3, 0, 1), (9, 4, 1, 2), (10, 6, 3, 4)]
    assert fam_c == [
        (2 * k, 2 * k - 2, 2 * k - 4, 2 * k - 2) for k in range(2, 7)
    ]


def test_enumerate_sharp_candidates_stable_beyond_alpha_12():
    small = enumerate_sharp_candidates(max_alpha=12, max_k=6)
    large = enumerate_sharp_candidates(max_alpha=40, max_k=6)
    assert [c.params for c in small if c.family in "ab"] == [
        c.params for c in large if c.family in "ab"
    ]


def test_enumerate_candidates_lambda2_equals_bound():
    for cand in enumerate_sharp_candidates(max_alpha=12, max_k=8):
        lam2 = srg_spectrum(cand.params).lambda2
        assert lam2.as_fraction() == F(2 + cand.params.alpha, cand.params.d)
