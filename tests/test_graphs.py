"""Core graph structure: distances, edge decomposition, regularity."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from llycurv.errors import (
    InvalidVertexError,
    NotAmplyRegularError,
    NotAnEdgeError,
    TooLargeError,
)
from llycurv.families import (
    catalog,
    johnson_graph,
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    paley_graph,
    petersen_graph,
    random_regular_graph,
    rook_graph,
    shrikhande_graph,
)
from llycurv.graphs import (
    Graph,
    NeighborProfile,
    RegularityKind,
    SrgParams,
    _two_ball,
    bfs_distances,
    classify_regularity,
    decompose_edge,
    neighbor_masks,
    neighbor_profile,
    parameter_identity_check,
)
from llycurv.graphio import load_graph
from helpers import all_pairs_classify_regularity, matrix_power_distances, set_decompose_edge

DATA = Path(__file__).parent / "data"


def test_bfs_cycle_six():
    assert bfs_distances(cycle_graph(6), 0) == [0, 1, 2, 3, 2, 1]


def test_bfs_complete_five():
    assert bfs_distances(complete_graph(5), 2) == [1, 1, 0, 1, 1]


def test_bfs_petersen_profile():
    dist = bfs_distances(petersen_graph(), 0)
    assert all(d is not None and d <= 2 for d in dist)
    assert sorted(dist).count(1) == 3
    assert sorted(dist).count(2) == 6


def test_bfs_source_out_of_range():
    with pytest.raises(InvalidVertexError):
        bfs_distances(cycle_graph(4), 7)


def test_bfs_unreachable_marked_none():
    g = Graph(5, [(0, 1), (2, 3)])
    dist = bfs_distances(g, 0)
    assert dist[:2] == [0, 1] and dist[2] is None and dist[4] is None


@pytest.mark.parametrize(
    "g",
    [petersen_graph(), paley_graph(13), hypercube_graph(3), rook_graph(3)],
    ids=["petersen", "paley13", "q3", "rook3"],
)
def test_bfs_matches_matrix_power_oracle(g):
    oracle = matrix_power_distances(g)
    for s in range(g.n):
        assert bfs_distances(g, s) == oracle[s]


def test_bfs_triangle_inequality_sampled():
    g = paley_graph(17)
    dist = [bfs_distances(g, s) for s in range(g.n)]
    rng = random.Random(5)
    for _ in range(300):
        a, b, c = rng.randrange(17), rng.randrange(17), rng.randrange(17)
        assert dist[a][c] <= dist[a][b] + dist[b][c]


def test_neighbor_masks_count_common_neighbors():
    g = petersen_graph()
    masks = neighbor_masks(g)
    assert neighbor_masks(g) is masks  # built once, kept by the graph
    assert neighbor_masks(Graph(0, [])) == ()
    for u in range(g.n):
        for v in range(g.n):
            assert (masks[u] >> v & 1) == g.has_edge(u, v)
            common = set(g.neighbors(u)) & set(g.neighbors(v))
            assert (masks[u] & masks[v]).bit_count() == len(common)


def test_decompose_paley13_edge_01():
    # squares mod 13 are {1,3,4,9,10,12}
    parts = decompose_edge(paley_graph(13), 0, 1)
    assert parts.delta == (4, 10)
    assert parts.nx == (3, 9, 12)
    assert parts.ny == (2, 5, 11)
    assert parts.pxy == (6, 7, 8)


def test_decompose_complete_graph():
    parts = decompose_edge(complete_graph(5), 1, 3)
    assert set(parts.delta) == {0, 2, 4}
    assert parts.nx == () and parts.ny == () and parts.pxy == ()


def test_decompose_petersen_sizes():
    g = petersen_graph()
    for x, y in g.edges():
        parts = decompose_edge(g, x, y)
        assert len(parts.delta) == 0
        assert len(parts.nx) == len(parts.ny) == 2
        assert len(parts.pxy) == 4


def test_decompose_not_an_edge():
    with pytest.raises(NotAnEdgeError):
        decompose_edge(cycle_graph(5), 0, 2)


def test_decompose_partitions_vertex_set():
    for entry in catalog():
        g = entry.graph
        x, y = next(iter(g.edges()))
        parts = decompose_edge(g, x, y)
        pieces = [(x,), (y,), parts.delta, parts.nx, parts.ny, parts.pxy]
        flat = [v for piece in pieces for v in piece]
        assert sorted(flat) == list(range(g.n))
        if g.is_regular():
            assert len(parts.nx) == len(parts.ny)


@pytest.mark.parametrize(
    "g",
    [entry.graph for entry in catalog() if entry.graph.n <= 64] + [load_graph(DATA / "rrg40_8.g6")],
    ids=repr,
)
def test_decompose_edge_equals_the_set_built_split(g):
    # decompose_edge builds no set: N_x in one pass against y's mask, delta
    # and N_y from their masks.  Every field read must equal the set split.
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            parts = decompose_edge(g, a, b)
            expected = set_decompose_edge(g, a, b)
            got = {name: getattr(parts, name) for name in expected}
            assert got == expected, (a, b)
            assert parts.delta_mask.bit_count() == len(expected["delta"])


def test_neighbor_masks_bound_raises_before_building():
    # A cycle's masks need about n^2 / 2 bits: 2^14 vertices fit under the
    # 2^28-bit bound, 2^15 do not.
    n = 2**15
    g = cycle_graph(n)
    with pytest.raises(TooLargeError, match="neighbor masks"):
        neighbor_masks(g)
    assert g._masks is None
    assert len(neighbor_masks(cycle_graph(2**14))) == 2**14


def test_classify_rook4_strongly_regular():
    rc = classify_regularity(rook_graph(4))
    assert rc.kind is RegularityKind.STRONGLY_REGULAR
    assert rc.params == SrgParams(16, 6, 2, 2)


def test_classify_hypercube_amply_but_not_strongly():
    rc = classify_regularity(hypercube_graph(3))
    assert rc.kind is RegularityKind.AMPLY_REGULAR
    assert rc.params == SrgParams(8, 3, 0, 2)


def test_classify_path_irregular():
    rc = classify_regularity(Graph(3, [(0, 1), (1, 2)]))
    assert rc.kind is RegularityKind.IRREGULAR


def test_classify_complete_and_empty_are_regular():
    assert classify_regularity(complete_graph(4)).kind is RegularityKind.REGULAR
    assert classify_regularity(Graph(4, [])).kind is RegularityKind.REGULAR


def _disjoint_union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


def test_classify_two_ball_walk_equals_all_pairs():
    # The 2-ball walk visits only pairs within distance 2; the all-pairs
    # loop is the reference, and BFS distances that of each 2-ball.
    # Disjoint unions and hypercubes are amply but not strongly regular,
    # and mixed unions have two betas or alphas.
    rrg40 = load_graph(Path(__file__).parent / "data" / "rrg40_8.g6")
    graphs = [entry.graph for entry in catalog()] + [rrg40]
    graphs += [paley_graph(q) for q in (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61)]
    graphs += [random_regular_graph(n, d, seed) for seed in range(6) for n, d in ((12, 3), (30, 4), (40, 8))]
    graphs += [cycle_graph(n) for n in (3, 4, 5, 6, 9)] + [hypercube_graph(m) for m in (2, 3, 4)]
    graphs += [
        johnson_graph(6, 3),
        _disjoint_union(petersen_graph(), petersen_graph()),
        _disjoint_union(complete_graph(3), complete_graph(3)),
        _disjoint_union(rook_graph(3), paley_graph(9)),
        _disjoint_union(cycle_graph(4), cocktail_party_graph(2)),
        _disjoint_union(shrikhande_graph(), rook_graph(4)),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        Graph(4, [(0, 1), (1, 2)]),  # vertex 3 is isolated
    ]
    kinds = set()
    for g in graphs:
        for v in range(g.n):
            within = [w for w, d in enumerate(bfs_distances(g, v)) if d is not None and d <= 2]
            assert _two_ball(g, v) == sum(1 << w for w in within), (g, v)
        rc = classify_regularity(g)
        assert rc == all_pairs_classify_regularity(g), g
        kinds.add(rc.kind)
    assert kinds == set(RegularityKind)


def test_classify_catalog_matches_expected_params():
    for entry in catalog():
        rc = classify_regularity(entry.graph)
        if entry.params is None:
            assert rc.params is None
        else:
            assert rc.params == entry.params, entry.name


def test_neighbor_profile_paley13_degree_conservation():
    g = paley_graph(13)
    params = SrgParams(13, 6, 2, 3)
    prof = neighbor_profile(g, 0, 1, 3, params=params)
    assert prof.ell + prof.in_delta + prof.in_nx + prof.in_pxy == params.d - 1


@pytest.mark.parametrize(
    "g,params",
    [
        (paley_graph(13), SrgParams(13, 6, 2, 3)),
        (petersen_graph(), SrgParams(10, 3, 0, 1)),
        (cocktail_party_graph(2), SrgParams(4, 2, 0, 2)),
        (hypercube_graph(3), SrgParams(8, 3, 0, 2)),
    ],
    ids=["paley13", "petersen", "c4", "q3"],
)
def test_neighbor_profile_agrees_with_adjacency_everywhere(g, params):
    # the formulas are cross-checked against real intersection counts inside
    # neighbor_profile; any disagreement raises
    for x, y in g.edges():
        parts = decompose_edge(g, x, y)
        for v in parts.nx:
            prof = neighbor_profile(g, x, y, v, params=params)
            assert prof.in_delta >= 0 and prof.in_nx >= 0 and prof.in_pxy >= 0


def _profile_by_sets(g, x, y, v, params):
    """The NeighborProfile the parameters force and the one adjacency sets count."""
    gx, gy, gv = (set(g.neighbors(u)) for u in (x, y, v))
    ell = len(gv & (gy - gx - {x}))
    expected = NeighborProfile(
        ell=ell,
        in_delta=params.beta - 1 - ell,
        in_nx=params.alpha - params.beta + 1 + ell,
        in_pxy=params.d - params.alpha - 1 - ell,
    )
    pxy = set(range(g.n)) - gx - gy - {x, y}
    actual = NeighborProfile(ell, len(gv & gx & gy), len(gv & (gx - gy - {y})), len(gv & pxy))
    return expected, actual


@pytest.mark.parametrize(
    "g",
    [entry.graph for entry in catalog()]
    + [random_regular_graph(14, 3, seed=1), random_regular_graph(16, 5, seed=2)],
    ids=lambda g: repr(g),
)
def test_neighbor_profile_counts_equal_set_counts(g):
    # Graphs without parameters are given one tuple that fits their degree,
    # so most of their profiles disagree: the counts then show in the error.
    rc = classify_regularity(g)
    params = rc.params or SrgParams(g.n, g.degree(0), 0, 1)
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            for v in decompose_edge(g, a, b).nx:
                expected, actual = _profile_by_sets(g, a, b, v, params)
                if expected == actual:
                    assert neighbor_profile(g, a, b, v, params=params) == actual
                else:
                    with pytest.raises(NotAmplyRegularError) as info:
                        neighbor_profile(g, a, b, v, params=params)
                    assert str(info.value).endswith(f"adjacency gives {actual}")


def test_neighbor_profile_detects_wrong_params():
    g = petersen_graph()
    x, y = next(iter(g.edges()))
    parts = decompose_edge(g, x, y)
    with pytest.raises(NotAmplyRegularError):
        neighbor_profile(g, x, y, parts.nx[0], params=SrgParams(10, 3, 1, 1))


def test_neighbor_profile_requires_member_of_nx():
    g = paley_graph(13)
    with pytest.raises(InvalidVertexError):
        neighbor_profile(g, 0, 1, 4, params=SrgParams(13, 6, 2, 3))  # 4 is in delta


def test_identity_check_paley13_equal():
    check = parameter_identity_check(paley_graph(13))
    assert (check.lhs, check.rhs, check.relation) == (18, 18, "equal")


def test_identity_check_hypercube_strict():
    check = parameter_identity_check(hypercube_graph(3))
    assert (check.lhs, check.rhs, check.relation) == (6, 8, "strict")


def test_identity_check_shrikhande_equal():
    check = parameter_identity_check(shrikhande_graph())
    assert (check.lhs, check.rhs, check.relation) == (18, 18, "equal")


def test_identity_equality_iff_strongly_regular():
    for entry in catalog():
        rc = classify_regularity(entry.graph)
        if not rc.is_amply_regular:
            continue
        check = parameter_identity_check(entry.graph)
        assert (check.relation == "equal") == rc.is_strongly_regular, entry.name


def test_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(Exception):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidVertexError):
        Graph(3, [(0, 5)])


def test_graph_adjacency_sorted_and_symmetric():
    g = paley_graph(13)
    for v in range(g.n):
        row = g.neighbors(v)
        assert list(row) == sorted(row)
        for w in row:
            assert g.has_edge(w, v)


def test_is_regular_matches_the_degree_sequence():
    graphs = [
        Graph(0, []),
        Graph(1, []),
        Graph(4, []),
        Graph(3, [(0, 1)]),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        Graph(4, [(0, 1), (2, 3)]),
        *(entry.graph for entry in catalog()),
    ]
    for g in graphs:
        degrees = g.degree_sequence()
        assert g.is_regular() == all(d == degrees[0] for d in degrees), g


def test_from_rows_keeps_its_rows_and_masks():
    # Each trusted constructor keeps the form it was given and builds the other from it.
    ref = Graph(13, paley_graph(13).edges())
    masks = neighbor_masks(ref)
    g = Graph._from_rows(ref._adj)
    assert g._adj is ref._adj and g._masks is None
    assert g == ref and hash(g) == hash(ref) and g.n == 13
    assert neighbor_masks(g) == masks
    h = Graph._from_masks(masks)
    assert neighbor_masks(h) is masks and h._rows is None
    assert h == ref and hash(h) == hash(ref) and h.n == 13
