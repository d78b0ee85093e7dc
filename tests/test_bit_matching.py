"""The bit-row engine of the per-edge curvature against the list engine it replaced.

`transport._two_matching_assignment` matches on integer bit rows
(`matching._bit_matching`, which also returns the Koenig reach of its
failed searches).  The engine's reference is
`helpers.list_two_matching_assignment`, the Hopcroft-Karp engine on index
lists, fed rows built here from adjacency sets, with no mask.  Both must
give the same minimum bijection cost and the same lex-first witness in both
orientations of every edge.  The reach's reference is `helpers._bit_reach`,
one alternating search from every free row of the finished matching.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llycurv.families import catalog, paley_graph, prime_power_decomposition
from llycurv.graphio import load_graph
from llycurv.graphs import decompose_edge
from llycurv.matching import _bit_matching, _lex_first_matching
from llycurv.transport import _two_matching_assignment, lly_curvature
from helpers import (
    _bit_reach,
    _hopcroft_karp,
    _lex_first_tight_assignment,
    all_optimal_assignments,
    augmenting_path_matching_size,
    list_two_matching_assignment,
    random_regular_graph,
)

DATA = Path(__file__).parent / "data"
PALEY_ORDERS = [q for q in range(5, 201, 4) if prime_power_decomposition(q)]


def _list_rows(g, x, y):
    """N_x, N_y and the index lists of H1 and of the cost <= 2 pairs, from adjacency sets."""
    parts = decompose_edge(g, x, y)
    nbrs = {v: set(g.neighbors(v)) for v in (*parts.nx, *parts.ny)}
    h1 = [[j for j, u in enumerate(parts.ny) if u in nbrs[v]] for v in parts.nx]
    near = [
        [j for j, u in enumerate(parts.ny) if u in nbrs[v] or nbrs[v] & nbrs[u]]
        for v in parts.nx
    ]
    return parts, h1, near


def _assert_engines_agree(g, x, y, want_witness=True):
    parts, h1, near = _list_rows(g, x, y)
    cost, cols = list_two_matching_assignment(h1, near.__getitem__, want_witness)
    report = lly_curvature(g, x, y, want_witness=want_witness)
    assert report.min_bijection_cost == cost, (x, y)
    assert report.delta_size == len(parts.delta)
    if want_witness:
        assert report.witness == tuple((v, parts.ny[j]) for v, j in zip(parts.nx, cols)), (x, y)
    return report


def _assert_every_edge(g, edges=None):
    for x, y in g.edges() if edges is None else edges:
        for a, b in ((x, y), (y, x)):
            _assert_engines_agree(g, a, b)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_bit_engine_equals_list_engine_on_the_catalog(entry):
    _assert_every_edge(entry.graph)


def test_bit_engine_equals_list_engine_on_rrg40_8():
    _assert_every_edge(load_graph(DATA / "rrg40_8.g6"))


@pytest.mark.parametrize("q", PALEY_ORDERS)
def test_bit_engine_equals_list_engine_on_paley(q):
    # Every edge up to q = 61.  Above that the list engine's O(m^2) rows
    # and its witness cost about a millisecond an edge, which over every
    # edge of every P(q) up to 200 would take minutes, so 24 seeded edges
    # of each graph are compared, in both orientations.
    g = paley_graph(q)
    _assert_every_edge(g, None if q <= 61 else random.Random(q).sample(list(g.edges()), 24))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(6, 26).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(2, min(n - 2, 9)).filter(lambda d: n * d % 2 == 0),
            st.integers(0, 10**6),
        )
    )
)
def test_bit_engine_equals_list_engine_on_random_regular_graphs(nds):
    n, d, seed = nds
    _assert_every_edge(random_regular_graph(n, d, seed))


def test_bit_engine_equals_list_engine_on_sparse_random_costs():
    # With one pair in six at cost 1, H1 is sparse enough that rows outside
    # the cover C1 keep H1 pairs into covered columns, which H_delta must
    # drop; graphs rarely produce that.
    rng = random.Random(2)
    for _ in range(2000):
        m = rng.randint(1, 10)
        cost = [[rng.choice((1, 2, 2, 3, 3, 3)) for _ in range(m)] for _ in range(m)]
        h1 = [[j for j, c in enumerate(row) if c == 1] for row in cost]
        near = [[j for j, c in enumerate(row) if c <= 2] for row in cost]
        expected = list_two_matching_assignment(h1, near.__getitem__, True)
        h1_bits = [sum(1 << j for j in row) for row in h1]
        near_bits = [sum(1 << j for j in row) for row in near]
        got = _two_matching_assignment(h1_bits, near_bits.__getitem__, (1 << m) - 1, True)
        assert got == (expected[0], [1 << j for j in expected[1]]), cost


def _h_by_sets(g, x, y):
    """N_x, N_y and H(x, y) from adjacency sets: row i lists the N_y neighbours of nx[i]."""
    gx, gy = set(g.neighbors(x)), set(g.neighbors(y))
    nx, ny = sorted(gx - gy - {y}), sorted(gy - gx - {x})
    return nx, ny, [[u for u in ny if u in set(g.neighbors(v))] for v in nx]


@pytest.mark.parametrize(
    "g",
    [entry.graph for entry in catalog()]
    + [load_graph(DATA / "rrg40_8.g6")]
    + [paley_graph(q) for q in PALEY_ORDERS if q <= 61],
    ids=lambda g: repr(g),
)
def test_decompose_edge_rows_are_the_set_built_local_matching_graph(g):
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            nx, ny, h = _h_by_sets(g, a, b)
            parts = decompose_edge(g, a, b)
            assert (parts.nx, parts.ny) == (tuple(nx), tuple(ny))
            assert parts.ny_mask == sum(1 << u for u in ny), (a, b)
            assert parts.rows == tuple(sum(1 << u for u in row) for row in h), (a, b)


def _bits(row):
    return [b for b in (1 << k for k in range(row.bit_length())) if row & b]


@pytest.mark.parametrize(
    "g",
    [load_graph(DATA / "rrg40_8.g6"), random_regular_graph(30, 6, seed=5), paley_graph(29)]
    + [entry.graph for entry in catalog()],
    ids=lambda g: repr(g),
)
def test_bit_matching_is_maximum_and_its_reach_is_a_koenig_cover(g):
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            parts = decompose_edge(g, a, b)
            rows, ymask = parts.rows, parts.ny_mask
            match, reached, cover = _bit_matching(rows)
            matched = [c for c in match if c]
            # a matching of the rows: every bit is in its row, no bit twice
            assert all(c == 0 or (c & rows[i] and c.bit_count() == 1) for i, c in enumerate(match))
            assert len(set(matched)) == len(matched)
            nu = len(matched)
            edges = [(i, c.bit_length() - 1) for i, row in enumerate(rows) for c in _bits(row)]
            assert nu == augmenting_path_matching_size(len(rows), ymask.bit_length(), edges)
            assert (reached, cover) == _bit_reach(rows, match)
            # Koenig: |C1| = nu(H1), and C1 covers every H1 pair
            assert len(rows) - len(reached) + cover.bit_count() == nu
            assert cover & ~ymask == 0
            assert all(i not in reached or row & ~cover == 0 for i, row in enumerate(rows))


def test_bit_matching_augments_a_starting_matching():
    # Row 2 sees only column 0, which the start gives to row 0, so the one
    # augmenting path runs 2 -> col 0 -> 0 -> col 1 -> 1 -> col 2 (free).
    assert _bit_matching([0b011, 0b110, 0b001], [0b001, 0b010, 0])[0] == [0b010, 0b100, 0b001]
    # The greedy pass takes each row's lowest free bit and leaves row 2 free.
    assert _bit_matching([0b011, 0b110, 0b001])[0] == [0b010, 0b100, 0b001]
    assert _bit_matching([0b01, 0b01])[0].count(0) == 1


def test_bit_matching_reach_is_the_separate_koenig_reach():
    # The reach `_bit_matching` collects from its failed searches equals one
    # alternating search from every free row of the finished matching, both
    # from the greedy start and from a maximum start (Hopcroft-Karp's), and
    # it is a Koenig cover: (rows not reached) + (columns reached) = nu.
    # Sparse rows (one pair in six, as in the sparse cost test above) and
    # denser ones (one in two) both occur.
    rng = random.Random(2)
    for trial in range(2000):
        m = rng.randint(1, 10)
        p = 1 / 6 if trial % 2 else 1 / 2
        rows = [sum(1 << j for j in range(m) if rng.random() < p) for _ in range(m)]
        match, reached, cover = _bit_matching(rows)
        nu = m - match.count(0)
        assert (reached, cover) == _bit_reach(rows, match), rows
        assert m - len(reached) + cover.bit_count() == nu, rows
        assert all(i not in reached or row & ~cover == 0 for i, row in enumerate(rows))
        adj = [[j for j in range(m) if row >> j & 1] for row in rows]
        start = [1 << j if j != -1 else 0 for j in _hopcroft_karp(adj, m)[0]]
        again, reached_hk, cover_hk = _bit_matching(rows, list(start))
        assert again == start, rows  # every search fails on a maximum matching
        assert (reached_hk, cover_hk) == _bit_reach(rows, start), rows
        assert m - len(reached_hk) + cover_hk.bit_count() == nu, rows


def test_bit_matching_from_a_starting_matching_is_maximum_with_the_koenig_reach():
    # The H_delta call: the start is a maximum matching of rows h1, and
    # each row of h_delta holds its h1 row and more, so a free row may hold
    # a free column of its own, which it takes with no search.  Half the
    # instances start from an arbitrary sub-matching of Hopcroft-Karp's
    # matching of h_delta instead.  The result must be a matching of
    # h_delta that keeps every started row matched, of Hopcroft-Karp's
    # size, with the reach and cover of one search from its free rows.
    rng = random.Random(36)
    own_row_roots = 0
    for trial in range(2000):
        m = rng.randint(1, 12)
        p = rng.choice((1 / 8, 1 / 4, 1 / 2))
        h1 = [sum(1 << j for j in range(m) if rng.random() < p) for _ in range(m)]
        h_delta = [row | sum(1 << j for j in range(m) if rng.random() < p) for row in h1]
        adj = [[j for j in range(m) if row >> j & 1] for row in h_delta]
        if trial % 2:
            hk = _hopcroft_karp(adj, m)[0]
            start = [1 << j if j != -1 and rng.random() < 0.6 else 0 for j in hk]
        else:
            start = _bit_matching(h1)[0]
        taken = sum(start)
        own_row_roots += any(not b and row & ~taken for b, row in zip(start, h_delta))
        match, reached, cover = _bit_matching(h_delta, list(start))
        assert all(c == 0 or (c & h_delta[i] and c.bit_count() == 1) for i, c in enumerate(match))
        assert len({c for c in match if c}) == m - match.count(0), h_delta
        assert all(c for b, c in zip(start, match) if b), (h_delta, start)
        nu = m - match.count(0)
        assert nu == sum(j != -1 for j in _hopcroft_karp(adj, m)[0]), (h_delta, start)
        assert (reached, cover) == _bit_reach(h_delta, match), (h_delta, start)
        assert m - len(reached) + cover.bit_count() == nu, (h_delta, start)
    assert own_row_roots >= 500, own_row_roots


def test_two_matching_assignment_on_bit_rows_above_bit_zero():
    # the columns are the set bits of ymask, and the witness gives each row's bit
    cost = [[1, 3, 2], [2, 1, 3], [3, 2, 3]]
    ymask = 0b10110  # columns at bits 1, 2 and 4
    bits = _bits(ymask)
    h1 = [sum(b for b, c in zip(bits, row) if c == 1) for row in cost]
    near = [sum(b for b, c in zip(bits, row) if c <= 2) for row in cost]
    h1_lists = [[j for j, c in enumerate(row) if c == 1] for row in cost]
    near_lists = [[j for j, c in enumerate(row) if c <= 2] for row in cost]
    expected = list_two_matching_assignment(h1_lists, near_lists.__getitem__, True)
    witness = [bits[j] for j in expected[1]]
    assert _two_matching_assignment(h1, near.__getitem__, ymask, True) == (expected[0], witness)
    assert _two_matching_assignment(h1, near.__getitem__, ymask, False) == (expected[0], None)


def test_lex_first_matching_ignores_its_start_and_equals_the_list_pass():
    # Each instance plants two perfect matchings, so it has at least two
    # (different once m >= 2); the routine must give the same matching from
    # both and from `_bit_matching`'s, equal to the list-based pass and,
    # for small m, to the first perfect matching found by enumeration.
    rng = random.Random(17)
    for trial in range(400):
        m = trial % 10  # m = 0 and m = 1 included
        bits = [1 << k for k in sorted(rng.sample(range(1, 3 * m + 2), m))]  # above bit 0
        index = {b: j for j, b in enumerate(bits)}
        first = rng.sample(bits, m)
        second = rng.sample(bits, m)
        while m >= 2 and second == first:
            second = rng.sample(bits, m)
        rows = [a | b for a, b in zip(first, second)]
        rows = [row | sum(b for b in bits if rng.random() < 0.3) for row in rows]
        starts = [first, second, _bit_matching(rows)[0]]
        assert all(0 not in start for start in starts)
        results = [_lex_first_matching(rows, start) for start in starts]
        assert results[0] == results[1] == results[2], rows
        tight = [[index[b] for b in bits if row & b] for row in rows]
        expected = _lex_first_tight_assignment(tight, [index[b] for b in first])
        assert [index[b] for b in results[0]] == expected, rows
        if m <= 6:
            cost = [[0 if j in row else 1 for j in range(m)] for row in tight]
            assert tuple(expected) == min(all_optimal_assignments(cost))


def test_bit_matching_on_sparse_rows_equals_the_references():
    # Rows sparse enough that many are empty and some instances hold no
    # pair at all, so free rows that need no search (an empty row, or one
    # whose columns a failed search has closed) are common.  From scratch
    # and from a seeded sub-matching of Hopcroft-Karp's, `_bit_matching`
    # must keep every started row matched, reach Hopcroft-Karp's size, and
    # give the reach and cover of `_bit_reach`, one search from the free
    # rows of its own matching; an empty row is free and reached.
    rng = random.Random(38)
    empty_rows = all_empty = 0
    for _ in range(2000):
        m = rng.randint(1, 12)
        p = rng.choice((1 / 20, 1 / 8, 1 / 4))
        rows = [sum(1 << j for j in range(m) if rng.random() < p) for _ in range(m)]
        empty_rows += rows.count(0)
        all_empty += not any(rows)
        adj = [[j for j in range(m) if row >> j & 1] for row in rows]
        hk = _hopcroft_karp(adj, m)[0]
        nu = sum(j != -1 for j in hk)
        start = [1 << j if j != -1 and rng.random() < 0.5 else 0 for j in hk]
        for given in (None, start):
            match, reached, cover = _bit_matching(rows, None if given is None else list(given))
            assert all(c == 0 or (c & rows[i] and c.bit_count() == 1) for i, c in enumerate(match))
            assert len({c for c in match if c}) == m - match.count(0) == nu, (rows, given)
            assert given is None or all(c for b, c in zip(given, match) if b), (rows, given)
            assert (reached, cover) == _bit_reach(rows, match), (rows, given)
            assert all(i in reached for i, row in enumerate(rows) if not row), (rows, given)
    assert empty_rows >= 4000 and all_empty >= 200, (empty_rows, all_empty)
