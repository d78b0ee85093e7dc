"""Exact transport: assignment solver, W1 flow, and both curvature routes."""

from __future__ import annotations

import concurrent.futures
import hashlib
import random
from fractions import Fraction as F
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llycurv import families, fields, transport
from llycurv.errors import (
    DisconnectedError,
    InfiniteDistanceError,
    InvalidIdlenessError,
    InvalidParamsError,
    NotAnEdgeError,
    NotRegularError,
)
from llycurv.families import (
    catalog,
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    paley_graph,
    petersen_graph,
    prime_power_decomposition,
    rook_graph,
    shrikhande_graph,
)
from llycurv.fields import make_field
from llycurv.graphio import load_graph
from llycurv.graphs import Graph, decompose_edge
from llycurv.matching import _bit_matching
from llycurv.spectral import lichnerowicz_report
from llycurv.transport import (
    ProbabilityMeasure,
    idleness_identity_check,
    curvature_spectrum,
    lazy_walk_measure,
    lly_curvature,
    ollivier_kappa_p,
    paley_kappa,
    wasserstein_w1,
)
from helpers import (
    Element,
    _edge_orbits,
    all_optimal_assignments,
    brute_force_assignment,
    euler_is_nonzero_square,
    hungarian,
    lex_smallest_optimal_assignment,
    paley_automorphisms,
    poly_mul,
    poly_pow,
    random_regular_graph,
    set_decompose_edge,
    squaring_square_index_set,
    uniform_measure_w1_oracle,
)


# ---------------------------------------------------------------- assignment

def test_hungarian_trivial_cases():
    assert hungarian([]) == (0, [])
    assert hungarian([[7]]) == (7, [0])
    total, cols = hungarian([[1, 2], [2, 1]])
    assert total == 2 and cols == [0, 1]


def test_hungarian_matches_brute_force_seeded():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randrange(1, 7)
        cost = [[rng.randrange(1, 10) for _ in range(m)] for _ in range(m)]
        assert hungarian(cost)[0] == brute_force_assignment(cost)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 9), min_size=m, max_size=m),
            min_size=m,
            max_size=m,
        )
    )
)
def test_hungarian_matches_brute_force_hypothesis(cost):
    assert hungarian(cost)[0] == brute_force_assignment(cost)


def test_hungarian_negative_entries_match_brute_force():
    # the solver's "infinity" is derived from the entry range, so cover
    # negative, mixed-sign and constant matrices, not only LLY costs 1..3
    rng = random.Random(29)
    for _ in range(300):
        m = rng.randrange(1, 7)
        lo = rng.choice((-1000, -40, -9, -3, 0))
        hi = lo + rng.choice((0, 1, 5, 60, 2000))
        cost = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(m)]
        total, cols = hungarian(cost)
        assert total == brute_force_assignment(cost), cost
        assert sorted(cols) == list(range(m))
        assert sum(cost[i][cols[i]] for i in range(m)) == total
        lex_total, lex_cols = lex_smallest_optimal_assignment(cost)
        assert lex_total == total
        assert tuple(lex_cols) == min(all_optimal_assignments(cost)), cost


def test_hungarian_assignment_achieves_reported_cost():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randrange(1, 8)
        cost = [[rng.randrange(0, 12) for _ in range(m)] for _ in range(m)]
        total, cols = hungarian(cost)
        assert sorted(cols) == list(range(m))
        assert sum(cost[i][cols[i]] for i in range(m)) == total


def test_lex_smallest_optimal_assignment():
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randrange(1, 6)
        cost = [[rng.randrange(1, 4) for _ in range(m)] for _ in range(m)]
        total, cols = lex_smallest_optimal_assignment(cost)
        assert total == brute_force_assignment(cost)
        assert tuple(cols) == min(all_optimal_assignments(cost))


# ------------------------------------------------- two-matching {1,2,3} costs

def two_matching(cost, want_witness=True):
    """transport._two_matching_assignment on an explicit {1, 2, 3} matrix, column j as bit j.

    The witness is each row's column bit.
    """
    h1 = [sum(1 << j for j, c in enumerate(row) if c == 1) for row in cost]
    return transport._two_matching_assignment(
        h1,
        lambda i: sum(1 << j for j, c in enumerate(cost[i]) if c <= 2),
        (1 << len(cost)) - 1,
        want_witness,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(1, 3), min_size=m, max_size=m),
            min_size=m,
            max_size=m,
        )
    )
)
def test_two_matching_cost_matches_brute_force_hypothesis(cost):
    total, bits = two_matching(cost)
    assert total == brute_force_assignment(cost)
    assert two_matching(cost, want_witness=False) == (total, None)
    assert bits == [1 << j for j in min(all_optimal_assignments(cost))]


def test_two_matching_needs_the_cover_adjustment():
    # H1 = {(0,0)} and the cost <= 2 pairs {(0,0), (0,1), (1,0)} both have
    # matchings, of sizes 1 and 2, so 3m - nu(H1) - nu(cost <= 2) = 3; but
    # both bijections cost 4.  Row 0 is the cover C1 of H1, so H_delta
    # keeps (0,0) and (1,0) only, and nu(H_delta) = 1.
    cost = [[1, 2], [2, 3]]
    assert brute_force_assignment(cost) == 4
    assert two_matching(cost) == (4, [0b01, 0b10])


@pytest.mark.parametrize(
    "g, non_sharp_expected",
    [
        (random_regular_graph(40, 8, seed=3), 320),
        (random_regular_graph(30, 6, seed=5), 178),
        (petersen_graph(), 30),
        (hypercube_graph(4), 0),
    ],
    ids=["rrg40_8", "rrg30_6", "petersen", "hypercube4"],
)
def test_two_matching_matches_hungarian_on_every_edge(g, non_sharp_expected):
    from llycurv.graphs import bfs_distances, decompose_edge

    dist = [bfs_distances(g, v) for v in range(g.n)]
    non_sharp = 0
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            parts = decompose_edge(g, a, b)
            cost = [[min(dist[v][u], 3) for u in parts.ny] for v in parts.nx]
            total, cols = lex_smallest_optimal_assignment(cost)
            assert hungarian(cost)[0] == total
            r = lly_curvature(g, a, b, want_witness=True)
            assert r.min_bijection_cost == total
            assert r.witness == tuple((parts.nx[i], parts.ny[j]) for i, j in enumerate(cols))
            non_sharp += not r.sharp
    assert non_sharp == non_sharp_expected  # of the directed edges


# ------------------------------------------------------------------- W1 flow

def test_w1_identical_measures_is_zero_with_identity_plan():
    g = cycle_graph(6)
    mu = lazy_walk_measure(g, 0, F(1, 3))
    w1, plan = wasserstein_w1(g, mu, mu)
    assert w1 == 0
    assert all(src == dst for src, dst, _ in plan.entries)
    assert plan.total_cost == 0


def test_w1_point_masses_equal_distance():
    g = cycle_graph(8)
    for u, v in [(0, 1), (0, 4), (2, 7)]:
        w1, plan = wasserstein_w1(
            g, ProbabilityMeasure.point(u), ProbabilityMeasure.point(v)
        )
        assert w1 == min((v - u) % 8, (u - v) % 8)
        assert plan.entries == ((u, v, F(1)),)


def test_w1_c6_closed_balls():
    # uniform thirds on {5,0,1} vs {0,1,2}: surplus at 5 must travel to 2,
    # three steps away, so W1 = 1 (and kappa_{1/3} = 0, matching kappa = 0)
    g = cycle_graph(6)
    w1, _ = wasserstein_w1(g, lazy_walk_measure(g, 0, F(1, 3)), lazy_walk_measure(g, 1, F(1, 3)))
    assert w1 == 1


def test_w1_matches_uniform_bijection_oracle():
    g = petersen_graph()
    rng = random.Random(9)
    for _ in range(25):
        k = rng.randrange(1, 5)
        verts1 = tuple(sorted(rng.sample(range(10), k)))
        verts2 = tuple(sorted(rng.sample(range(10), k)))
        mu1 = ProbabilityMeasure.from_dict({v: F(1, k) for v in verts1})
        mu2 = ProbabilityMeasure.from_dict({v: F(1, k) for v in verts2})
        w1, _ = wasserstein_w1(g, mu1, mu2)
        assert w1 == uniform_measure_w1_oracle(g, verts1, verts2)


def _random_measure(rng, n, max_support=4):
    support = sorted(rng.sample(range(n), rng.randrange(1, max_support + 1)))
    weights = [rng.randrange(1, 6) for _ in support]
    total = sum(weights)
    return ProbabilityMeasure.from_dict(
        {v: F(w, total) for v, w in zip(support, weights)}
    )


def test_w1_plan_marginals_match_measures():
    g = paley_graph(13)
    rng = random.Random(17)
    for _ in range(30):
        mu1, mu2 = _random_measure(rng, 13), _random_measure(rng, 13)
        w1, plan = wasserstein_w1(g, mu1, mu2)
        rows: dict[int, F] = {}
        cols: dict[int, F] = {}
        recost = F(0)
        dists = {(u, v): None for u, v, _ in plan.entries}
        from llycurv.graphs import bfs_distances

        for src, dst, mass in plan.entries:
            assert mass > 0
            rows[src] = rows.get(src, F(0)) + mass
            cols[dst] = cols.get(dst, F(0)) + mass
            recost += mass * bfs_distances(g, src)[dst]
        assert rows == dict(mu1.support)
        assert cols == dict(mu2.support)
        assert recost == w1


def test_w1_symmetry_and_triangle_sampled():
    g = petersen_graph()
    rng = random.Random(29)
    for _ in range(12):
        mu1, mu2, mu3 = (_random_measure(rng, 10) for _ in range(3))
        d12, _ = wasserstein_w1(g, mu1, mu2)
        d21, _ = wasserstein_w1(g, mu2, mu1)
        d13, _ = wasserstein_w1(g, mu1, mu3)
        d23, _ = wasserstein_w1(g, mu2, mu3)
        assert d12 == d21
        assert d13 <= d12 + d23


def test_w1_disconnected_supports_raise():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(InfiniteDistanceError):
        wasserstein_w1(g, ProbabilityMeasure.point(0), ProbabilityMeasure.point(2))


@pytest.mark.parametrize(
    "support",
    [
        ((0.0, F(1)),),  # a float vertex
        ((True, F(1)),),  # a bool vertex
        ((0, F(1, 2)), (1, 0.5)),  # a float mass
        ((0, F(1, 3)), (1, 0.6666666666666666)),  # sums to the float 1.0
        ((0, "1"),),  # a string mass
        ((0,),),  # an entry that is not a pair
        (0, 1),  # a bare pair, not a tuple of pairs
        [(0, 1)],  # a list, which the frozen measure cannot hash
    ],
    ids=[
        "float-vertex", "bool-vertex", "float-mass", "float-sum", "str-mass",
        "short-entry", "bare-pair", "list-support",
    ],
)
def test_measure_rejects_what_w1_cannot_use(support):
    with pytest.raises(InvalidParamsError):
        ProbabilityMeasure(support)


def _random_transportation(rng):
    """Positive integer supplies and demands of equal total 2-9, costs 0-5."""

    def parts(units, k):
        cuts = sorted(rng.sample(range(1, units), k - 1))
        return [b - a for a, b in zip([0, *cuts], [*cuts, units])]

    nl, nr = rng.randint(1, 5), rng.randint(1, 5)
    units = rng.randint(max(2, nl, nr), 9)
    cost = [[rng.randint(0, 5) for _ in range(nr)] for _ in range(nl)]
    return parts(units, nl), parts(units, nr), cost


def test_transportation_cost_is_least_against_unit_hungarian():
    # Each unit of supply and demand becomes its own row or column, so the
    # least total is a Hungarian assignment on the expanded square matrix.
    rng = random.Random(34)
    for _ in range(400):
        supplies, demands, cost = _random_transportation(rng)
        total, flow = transport._transportation(supplies, demands, cost)
        rows = [i for i, s in enumerate(supplies) for _ in range(s)]
        cols = [j for j, t in enumerate(demands) for _ in range(t)]
        assert total == hungarian([[cost[i][j] for j in cols] for i in rows])[0]
        assert all(f >= 0 for row in flow for f in row)
        assert [sum(row) for row in flow] == supplies
        assert [sum(col) for col in zip(*flow)] == demands
        assert total == sum(f * c for fr, cr in zip(flow, cost) for f, c in zip(fr, cr))


def test_transportation_plans_pinned():
    # Demo 06 prints a plan, so which optimal plan is chosen is output.
    rng = random.Random(2018)
    digest = hashlib.sha256()
    for _ in range(2000):
        digest.update(repr(transport._transportation(*_random_transportation(rng))).encode())
    assert digest.hexdigest() == (
        "de91a646f56856ebb1aac1d40bbba0f8f956ec2e46daaa1c910928129e867897"
    )


# ----------------------------------------------------------------- idleness

def test_kappa_p_at_idleness_one_is_zero():
    for g in (cycle_graph(6), petersen_graph(), complete_graph(5)):
        x, y = next(iter(g.edges()))
        assert ollivier_kappa_p(g, x, y, 1) == 0


def test_kappa_p_complete_graph_uniform_overlap():
    assert ollivier_kappa_p(complete_graph(5), 0, 1, F(1, 5)) == 1


def test_kappa_p_c6_at_one_third():
    assert ollivier_kappa_p(cycle_graph(6), 0, 1, F(1, 3)) == 0


def test_kappa_p_rejects_bad_idleness():
    g = cycle_graph(6)
    with pytest.raises(InvalidIdlenessError):
        ollivier_kappa_p(g, 0, 1, F(3, 2))
    with pytest.raises(NotAnEdgeError):
        ollivier_kappa_p(g, 0, 3, F(1, 2))


# ---------------------------------------------------------------- curvature

def test_lly_complete_graph():
    r = lly_curvature(complete_graph(5), 0, 1)
    assert r.kappa == F(5, 4)
    assert r.min_bijection_cost == 0
    assert r.sharp


def test_lly_rook_vs_shrikhande():
    rook_kappas = {r.kappa for r in curvature_spectrum(rook_graph(4)).reports}
    shri_kappas = {r.kappa for r in curvature_spectrum(shrikhande_graph()).reports}
    assert rook_kappas == {F(2, 3)}
    assert shri_kappas == {F(1, 3)}


def test_lly_paley13_meets_conference_value():
    spec = curvature_spectrum(paley_graph(13))
    assert {r.kappa for r in spec.reports} == {F(2, 3)}  # 1/2 + 1/(2*3)


def test_lly_cocktail_party_and_paley9():
    assert {r.kappa for r in curvature_spectrum(cocktail_party_graph(3)).reports} == {F(1)}
    assert {r.kappa for r in curvature_spectrum(paley_graph(9)).reports} == {F(3, 4)}


def test_lly_petersen_flat():
    spec = curvature_spectrum(petersen_graph())
    assert {r.kappa for r in spec.reports} == {F(0)}
    assert spec.min_kappa == 0


def test_lly_upper_bound_never_exceeded():
    for entry in catalog():
        if not entry.graph.is_regular():
            continue
        for r in curvature_spectrum(entry.graph).reports:
            assert r.kappa <= r.upper_bound, entry.name
            assert r.sharp == (r.kappa == r.upper_bound)


def test_spectrum_equals_lly_curvature_edge_by_edge():
    # Sparse random regular graphs leave many H1 rows empty, so the
    # spectrum's matchings take the no-search paths.  Each report must
    # equal lly_curvature's, which splits its edge through decompose_edge,
    # in g.edges() order, and min_kappa, read off the largest bijection
    # cost, must be the least kappa, whether one edge has it or several.
    from llycurv.graphs import decompose_edge

    shares = []
    graphs = [(10, 3, 0), (16, 3, 1), (12, 4, 2), (18, 4, 3)]
    graphs += [(14, 5, 4), (16, 6, 5), (20, 5, 7), (24, 6, 8)]
    for n, d, seed in graphs:
        g = random_regular_graph(n, d, seed)
        spec = curvature_spectrum(g)
        assert list(spec.reports) == [lly_curvature(g, x, y) for x, y in g.edges()], (n, d)
        least = min(r.kappa for r in spec.reports)
        assert spec.min_kappa == least, (n, d)
        shares.append(sum(r.kappa == least for r in spec.reports))
        assert any(0 in decompose_edge(g, x, y).rows for x, y in g.edges()), (n, d)
    assert shares.count(1) >= 2 and sum(k >= 2 for k in shares) >= 4, shares


def test_lly_bijection_costs_capped_at_three():
    # replacing true distances with min(d, 3) never changes the optimum,
    # checked by re-solving with uncapped distances on a graph of diameter > 3
    g = cycle_graph(9)
    r = lly_curvature(g, 0, 1)
    from llycurv.graphs import bfs_distances, decompose_edge

    parts = decompose_edge(g, 0, 1)
    raw = [[bfs_distances(g, v)[u] for u in parts.ny] for v in parts.nx]
    assert hungarian(raw)[0] == r.min_bijection_cost


def test_lly_witness_is_lex_smallest_optimal():
    # Every rook(4) edge has a perfect local matching; on petersen, C7 and
    # the small random regular graphs some edges do not, so their witness
    # comes from the pairs tight under the two-matching dual.
    from llycurv.graphs import bfs_distances, decompose_edge

    graphs = [rook_graph(4), petersen_graph(), cycle_graph(7)] + [
        random_regular_graph(n, d, seed=seed)
        for seed, (n, d) in enumerate([(10, 3), (12, 4), (14, 5), (16, 6)])
    ]
    fallbacks = 0
    for g in graphs:
        for x, y in g.edges():
            for a, b in ((x, y), (y, x)):
                parts = decompose_edge(g, a, b)
                assert len(parts.nx) <= 6  # keeps the brute force small
                cost = [
                    [min(bfs_distances(g, v)[u], 3) for u in parts.ny] for v in parts.nx
                ]
                r = lly_curvature(g, a, b, want_witness=True)
                best_cols = min(all_optimal_assignments(cost))
                assert r.witness == tuple(
                    (parts.nx[i], parts.ny[best_cols[i]]) for i in range(len(parts.nx))
                )
                assert r.min_bijection_cost == brute_force_assignment(cost)
                fallbacks += r.min_bijection_cost > len(parts.nx)
    assert fallbacks > 0
    # rook(4): perfect matching, all three pairs at distance 1
    assert lly_curvature(rook_graph(4), 0, 1).min_bijection_cost == 3


def test_lly_rejects_irregular_graph():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotRegularError):
        lly_curvature(star, 0, 1)


def test_curvature_spectrum_requires_connected():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(DisconnectedError):
        curvature_spectrum(two_triangles)


def test_curvature_spectrum_empty_graph_is_graph_level_error():
    with pytest.raises(InvalidParamsError, match="no edges"):
        curvature_spectrum(Graph(0, []))


def test_curvature_spectrum_caps_processes(monkeypatch):
    # An in-process stand-in for the pool records the worker count and the
    # chunks it receives; no worker process is started.
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns, chunksize):
            # one contiguous chunk of the edges per worker
            assert -(-len(columns[0]) // chunksize) == seen[-1]
            return map(fn, *columns)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    g = complete_graph(4)  # 6 edges
    seq = curvature_spectrum(g, processes=1)
    # sharpness takes the spectrum's chunks and pool
    report = lichnerowicz_report(g, processes=1)
    monkeypatch.setattr(transport.os, "cpu_count", lambda: 64)
    assert curvature_spectrum(g, processes=8) == seq
    assert lichnerowicz_report(g, processes=8) == report
    monkeypatch.setattr(transport.os, "cpu_count", lambda: 3)
    assert curvature_spectrum(g, processes=8) == seq
    assert lichnerowicz_report(g, processes=8) == report
    assert seen == [6, 6, 3, 3]


def _worst_kappa(g):
    # The least kappa from the pruned search's largest cost C.
    d = g.degree(0)
    return F(d + 1 - transport._worst_cost(g), d)


_WORST_COST_GRAPHS = (
    [(entry.name, entry.graph) for entry in catalog()]
    + [(f"paley({q})", paley_graph(q)) for q in range(5, 102, 4) if prime_power_decomposition(q)]
    + [("K2", complete_graph(2))]
    + [("rrg40_8", load_graph(Path(__file__).parent / "data" / "rrg40_8.g6"))]
)


@pytest.mark.parametrize(
    "g", [g for _, g in _WORST_COST_GRAPHS], ids=[name for name, _ in _WORST_COST_GRAPHS]
)
def test_worst_cost_gives_the_spectrum_min_kappa(g):
    assert _worst_kappa(g) == curvature_spectrum(g).min_kappa


def test_worst_cost_gives_the_spectrum_min_kappa_on_random_regular_graphs():
    instances = [
        (n, d, seed)
        for n in range(5, 31)
        for d in range(2, min(n, 12))
        if n * d % 2 == 0
        for seed in (0, 1)
    ]
    assert len(instances) >= 300
    tied = 0
    for n, d, seed in instances:
        g = random_regular_graph(n, d, seed)
        spectrum = curvature_spectrum(g)
        assert _worst_kappa(g) == spectrum.min_kappa, (n, d, seed)
        costs = [r.min_bijection_cost for r in spectrum.reports]
        tied += costs.count(max(costs)) > 1
    # Most have several worst edges, so an edge whose bound only ties the
    # largest cost so far is dropped.
    assert tied > len(instances) // 2


def test_worst_cost_needs_h_delta_on_the_lone_worst_edge():
    # random_regular_graph(10, 4, 0) has one edge of the largest cost C = 7,
    # and on it H_delta's matching leaves a row free: every edge has
    # m + f1 <= 6, so a search that stops at H1's matching reads 6.
    g = random_regular_graph(10, 4, 0)
    costs = [r.min_bijection_cost for r in curvature_spectrum(g).reports]
    assert max(costs) == 7 and costs.count(7) == 1
    lower = []
    for x, y in g.edges():
        rows = decompose_edge(g, x, y).rows
        _, reached, cover = _bit_matching(rows)
        lower.append(len(rows) + len(reached) - cover.bit_count())
    assert max(lower) == 6
    assert transport._worst_cost(g) == 7


def _assert_orbits_share_kappa(g, maps):
    # Every edge has the kappa of the first edge of its orbit, each solved on its own.
    reports = curvature_spectrum(g).reports
    roots = _edge_orbits(g, [(r.x, r.y) for r in reports], maps)
    assert [r.kappa for r in reports] == [reports[root].kappa for root in roots]
    return roots


PALEY_ORDERS_TO_101 = [q for q in range(5, 102, 4) if prime_power_decomposition(q)]


@pytest.mark.parametrize("q", PALEY_ORDERS_TO_101)
def test_curvature_spectrum_paley_orbits_match_every_edge(q):
    _assert_orbits_share_kappa(paley_graph(q), paley_automorphisms(q))


def _root_edge(g):
    # The first edge of P(q) is (0, c), c the least nonzero square.
    x, y = next(g.edges())
    assert (x, y) == (0, min(g.neighbors(0)))
    return x, y


PALEY_ORDERS_TO_257 = [q for q in range(5, 258, 4) if prime_power_decomposition(q)]


def _forbid_translation_lists(monkeypatch):
    # The split and paley_kappa need none, and the walk runs afresh.  No
    # class in src/ multiplies field elements (test_api_surface.py).
    def forbidden(*args):
        raise AssertionError("a translation list was built")

    monkeypatch.setattr(families, "_translation", forbidden)
    fields._power_walk.cache_clear()
    fields.square_index_set.cache_clear()


@pytest.mark.parametrize("q", PALEY_ORDERS_TO_257)
def test_paley_root_split_equals_decompose_edge(monkeypatch, q):
    # decompose_edge and the root split both build through graphs._split, so
    # the reference is the split built through sets, compared field by field.
    g = paley_graph(q)
    x, y = _root_edge(g)
    expected = set_decompose_edge(g, x, y)
    del expected["pxy"]
    _forbid_translation_lists(monkeypatch)
    split = families._paley_root_split(q)
    assert (split.x, split.y) == (x, y)
    assert {name: getattr(split, name) for name in expected} == expected
    assert split.delta_mask == sum(1 << v for v in expected["delta"])


def test_paley_root_split_catches_a_shifted_translation(monkeypatch):
    # Each translate v + S built one place off breaks the rows.  P(5) is the
    # 5-cycle, whose one row is empty whatever the translate; there the
    # fault shows in ny_mask.
    real = families._rotation
    expected = {q: families._paley_root_split(q) for q in PALEY_ORDERS_TO_257}

    def shifted(radices, mask, s):
        return real(radices, mask, (s + 1) % prod(radices))

    monkeypatch.setattr(families, "_rotation", shifted)
    for q, split in expected.items():
        wrong = families._paley_root_split(q)
        assert wrong.rows != split.rows if q > 5 else wrong.ny_mask != split.ny_mask, q


@pytest.mark.parametrize("q", PALEY_ORDERS_TO_257)
def test_paley_kappa_equals_lly_curvature(monkeypatch, q):
    g = paley_graph(q)
    expected = lly_curvature(g, *_root_edge(g)).kappa
    _forbid_translation_lists(monkeypatch)
    assert paley_kappa(q) == expected


def _first_primitive(field):
    # The first element of order q - 1 in index order, by listing its
    # polynomial powers.
    q = field.q
    return next(
        e for e in (Element.of(field, i) for i in field.elements())
        if not e.is_zero and len({poly_pow(e, k).index for k in range(q - 1)}) == q - 1
    )


@pytest.mark.parametrize("q", [*PALEY_ORDERS_TO_101, 27, 125, 32])
def test_power_walk_lists_the_powers_of_the_first_primitive(q):
    field = make_field(*prime_power_decomposition(q))
    g = _first_primitive(field)
    assert fields._power_walk(field) == tuple(poly_pow(g, k).index for k in range(q - 1))
    squares = fields.square_index_set(field)
    assert squares == squaring_square_index_set(field)
    assert squares == {e for e in field.elements() if euler_is_nonzero_square(field, e)}


@pytest.mark.parametrize("q", PALEY_ORDERS_TO_101)
def test_one_orbit_check_agrees_with_the_edge_walk(monkeypatch, q):
    # The O(q) check passes where the walk over every edge finds one orbit.
    # The check fails on the walk of g^2, which is not primitive, and on a
    # walk that puts a non-square at g^((q-1)/2), where -1 belongs; g itself,
    # a non-square, fails the edge walk as a multiplier.
    g = paley_graph(q)
    edges = list(g.edges())
    families._paley_root_split(q)
    assert set(_edge_orbits(g, edges, paley_automorphisms(q))) == {0}
    field = make_field(*prime_power_decomposition(q))
    powers = fields._power_walk(field)
    for walk in (powers[::2], powers[1:] + powers[:1]):
        monkeypatch.setattr(families, "_power_walk", lambda field: walk)
        with pytest.raises(InvalidParamsError, match="one edge orbit"):
            families._paley_root_split(q)
    primitive = Element.of(field, powers[1])
    times_g = tuple(poly_mul(primitive, Element.of(field, e)).index for e in field.elements())
    with pytest.raises(InvalidParamsError, match="neighbors"):
        _edge_orbits(g, edges, [*paley_automorphisms(q)[:-1], times_g])


def _torus_3x5():
    # C3 x C5, vertex 5a + b = (a, b), with the translations by (1, 0) and
    # (0, 1).  They keep the triangle edges apart from the pentagon edges,
    # and the two classes have different curvature.
    edges = set()
    for v in range(15):
        a, b = divmod(v, 5)
        for w in (5 * ((a + 1) % 3) + b, 5 * a + (b + 1) % 5):
            edges.add((min(v, w), max(v, w)))
    shifts = [
        tuple(5 * ((v // 5 + da) % 3) + (v % 5 + db) % 5 for v in range(15))
        for da, db in ((1, 0), (0, 1))
    ]
    return Graph(15, edges), shifts


def test_curvature_spectrum_partial_orbits_match_every_edge():
    # Maps that leave several edge classes: the rook(4) transpose (i, j) ->
    # (j, i), and the translations of the C3 x C5 torus.
    transpose = tuple(4 * (v % 4) + v // 4 for v in range(16))
    torus, shifts = _torus_3x5()
    for g, maps in ((rook_graph(4), [transpose]), (torus, shifts)):
        roots = _assert_orbits_share_kappa(g, maps)
        assert 1 < len(set(roots)) < g.edge_count
    assert len({r.kappa for r in curvature_spectrum(torus).reports}) == 2


@pytest.mark.parametrize(
    "sigma",
    [
        tuple(range(12)),  # too short
        (0, 0) + tuple(range(2, 13)),  # repeats 0, misses 1
        tuple(range(1, 14)),  # 13 is not a vertex
    ],
)
def test_curvature_spectrum_rejects_non_permutation(sigma):
    g = paley_graph(13)
    with pytest.raises(InvalidParamsError, match="permutation"):
        _edge_orbits(g, list(g.edges()), [sigma])


def test_curvature_spectrum_rejects_non_automorphism():
    # Swapping 0 and 1 is a permutation, but 0 and 1 do not share all other
    # neighbors in P(13).  It fails even behind a valid generator.  Swapping
    # 11 and 12 fixes every edge of 0 up to (0, 10), each its own orbit; the
    # walk, the only automorphism check, must not skip the first moved edge,
    # (0, 12), whose image (0, 11) is not an edge.
    swap = (1, 0) + tuple(range(2, 13))
    late = tuple(range(11)) + (12, 11)
    g = paley_graph(13)
    edges = list(g.edges())
    assert edges[5] == (0, 12) and not g.has_edge(0, 11)
    assert all(late[x] == x and late[y] == y for x, y in edges[:5])
    for maps in ([swap], [*paley_automorphisms(13), swap], [late]):
        with pytest.raises(InvalidParamsError, match="neighbors"):
            _edge_orbits(g, list(g.edges()), maps)


@pytest.mark.parametrize(
    "g",
    [entry.graph for entry in catalog()]
    + [load_graph(Path(__file__).parent / "data" / "rrg40_8.g6")]
    + [paley_graph(q) for q in range(5, 62, 4) if prime_power_decomposition(q)],
    ids=repr,
)
def test_spectrum_reports_equal_lly_curvature_field_for_field(g):
    # The spectrum splits each edge itself and shares its 2-balls and
    # Fractions across the chunk; lly_curvature splits through
    # decompose_edge.  Every report must be the same, and sharp must mean
    # kappa reaching the bound.
    reports = curvature_spectrum(g).reports
    assert [(r.x, r.y) for r in reports] == list(g.edges())
    for r in reports:
        assert r == lly_curvature(g, r.x, r.y), (r.x, r.y)
        assert r.sharp == (r.kappa == r.upper_bound), (r.x, r.y)


def test_curvature_spectrum_splits_its_edges_without_decompose_edge(monkeypatch):
    def fail(*args):
        raise AssertionError("a spectrum edge went through decompose_edge")

    expected = curvature_spectrum(petersen_graph())
    monkeypatch.setattr(transport, "decompose_edge", fail)
    assert curvature_spectrum(petersen_graph()) == expected


def test_curvature_spectrum_deterministic_and_parallel_equal():
    g = paley_graph(13)
    seq = curvature_spectrum(g, processes=1)
    par = curvature_spectrum(g, processes=2)
    assert seq == par
    assert [(r.x, r.y) for r in seq.reports] == sorted(g.edges())


def test_curvature_spectrum_pool_equals_serial_on_non_sharp_edges():
    # No edge of rrg40_8 has a perfect local matching, so every edge takes
    # the second matching and the 2-balls, which each worker builds for its
    # own chunk of the edges.
    g = load_graph(Path(__file__).parent / "data" / "rrg40_8.g6")
    seq = curvature_spectrum(g, processes=1)
    assert not any(r.sharp for r in seq.reports)
    assert curvature_spectrum(g, processes=2) == seq


# -------------------------------------------------------- idleness identity

def test_idleness_identity_on_small_catalog():
    for entry in catalog():
        g = entry.graph
        if not g.is_regular() or g.n > 13:
            continue
        for x, y in list(g.edges())[:6]:
            via_assignment, via_flow = idleness_identity_check(g, x, y)
            assert via_assignment == via_flow, entry.name
