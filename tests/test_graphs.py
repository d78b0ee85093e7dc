"""Core graph structure: distances, edge decomposition, regularity."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from llycurv.errors import (
    InvalidVertexError,
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
    rook_graph,
    shrikhande_graph,
)
from llycurv.graphs import (
    Graph,
    RegularityKind,
    SrgParams,
    _two_ball,
    bfs_distances,
    classify_regularity,
    decompose_edge,
    neighbor_masks,
)
from llycurv.graphio import load_graph
from helpers import (
    all_pairs_classify_regularity,
    matrix_power_distances,
    random_regular_graph,
    set_decompose_edge,
)

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


def _pxy(g, parts):
    """P_xy: the vertices outside {x, y}, delta, N_x and N_y."""
    closed = {parts.x, parts.y, *parts.delta, *parts.nx, *parts.ny}
    return tuple(v for v in range(g.n) if v not in closed)


def test_decompose_paley13_edge_01():
    # squares mod 13 are {1,3,4,9,10,12}
    g = paley_graph(13)
    parts = decompose_edge(g, 0, 1)
    assert parts.delta == (4, 10)
    assert parts.nx == (3, 9, 12)
    assert parts.ny == (2, 5, 11)
    assert _pxy(g, parts) == (6, 7, 8)


def test_decompose_complete_graph():
    g = complete_graph(5)
    parts = decompose_edge(g, 1, 3)
    assert set(parts.delta) == {0, 2, 4}
    assert parts.nx == () and parts.ny == () and _pxy(g, parts) == ()


def test_decompose_petersen_sizes():
    g = petersen_graph()
    for x, y in g.edges():
        parts = decompose_edge(g, x, y)
        assert len(parts.delta) == 0
        assert len(parts.nx) == len(parts.ny) == 2
        assert len(_pxy(g, parts)) == 4


def test_decompose_not_an_edge():
    with pytest.raises(NotAnEdgeError):
        decompose_edge(cycle_graph(5), 0, 2)


def test_decompose_partitions_vertex_set():
    for entry in catalog():
        g = entry.graph
        x, y = next(iter(g.edges()))
        parts = decompose_edge(g, x, y)
        pieces = [(x,), (y,), parts.delta, parts.nx, parts.ny, _pxy(g, parts)]
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
            got = {name: getattr(parts, name) for name in expected if name != "pxy"}
            got["pxy"] = _pxy(g, parts)
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


def _forced_profile(ell, params):
    """The (ell, in_delta, in_nx, in_pxy) that the parameters force for a given ell."""
    return (
        ell,
        params.beta - 1 - ell,
        params.alpha - params.beta + 1 + ell,
        params.d - params.alpha - 1 - ell,
    )


def _profile_by_sets(g, x, y, v, params):
    """How v's neighbours other than x split: forced by the parameters, and counted by sets.

    Each is (ell, in_delta, in_nx, in_pxy), with ell = |G(v) n N_y| and the
    other three the neighbours of v in delta, N_x and P_xy.
    """
    gx, gy, gv = (set(g.neighbors(u)) for u in (x, y, v))
    ell = len(gv & (gy - gx - {x}))
    expected = _forced_profile(ell, params)
    pxy = set(range(g.n)) - gx - gy - {x, y}
    actual = (ell, len(gv & gx & gy), len(gv & (gx - gy - {y})), len(gv & pxy))
    return expected, actual


def _profiles(g, params):
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            for v in decompose_edge(g, a, b).nx:
                yield _profile_by_sets(g, a, b, v, params)


@pytest.mark.parametrize(
    "entry", [e for e in catalog() if e.params is not None], ids=lambda e: e.name
)
def test_amply_regular_parameters_force_every_neighbour_profile(entry):
    # The counting lemma: on an amply regular graph, the parameters fix how
    # the neighbours of each v in N_x split across the classes of the edge.
    rc = classify_regularity(entry.graph)
    assert rc.is_amply_regular
    for expected, actual in _profiles(entry.graph, rc.params):
        assert expected == actual


def test_wrong_parameters_break_a_neighbour_profile():
    assert any(e != a for e, a in _profiles(petersen_graph(), SrgParams(10, 3, 1, 1)))


def _fitting_parameters(g):
    """Every (alpha, beta) of g's degree whose forced profiles all equal the set counts."""
    n, d = g.n, g.degree(0)
    counted = {actual for _, actual in _profiles(g, SrgParams(n, d, 0, 1))}
    return {
        (alpha, beta)
        for alpha in range(d)
        for beta in range(1, d + 1)
        if all(_forced_profile(c[0], SrgParams(n, d, alpha, beta)) == c for c in counted)
    }


def test_neighbour_profiles_pin_the_parameters():
    # Read backwards, the counting lemma recovers (alpha, beta): on each amply
    # regular catalog graph they are the one tuple of its degree whose forced
    # profiles all equal the counts.
    for entry in catalog():
        if entry.params is not None:
            expected = {(entry.params.alpha, entry.params.beta)}
            assert _fitting_parameters(entry.graph) == expected, entry.name


@pytest.mark.parametrize(
    "g",
    [random_regular_graph(14, 3, seed=1), random_regular_graph(16, 5, seed=2)],
    ids=repr,
)
def test_no_parameters_fit_the_profiles_of_a_graph_that_is_not_amply_regular(g):
    assert not classify_regularity(g).is_amply_regular
    assert _fitting_parameters(g) == set()


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
    # decompose_edge's masks split the other neighbours of each v in N_x as
    # the adjacency sets do, into d - 1 in all, as the parameters force.
    masks = neighbor_masks(g)
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            parts = decompose_edge(g, a, b)
            nx_mask = sum(1 << v for v in parts.nx)
            pxy_mask = sum(1 << v for v in _pxy(g, parts))
            for v, row in zip(parts.nx, parts.rows):
                mv = masks[v]
                counts = (
                    row.bit_count(),
                    (mv & parts.delta_mask).bit_count(),
                    (mv & nx_mask).bit_count(),
                    (mv & pxy_mask).bit_count(),
                )
                expected, actual = _profile_by_sets(g, a, b, v, params)
                assert counts == actual == expected
                assert sum(counts) == params.d - 1


def _counting_identity(g):
    """d(d - alpha - 1) and (n - d - 1) beta from g's classified parameters, and their relation."""
    p = classify_regularity(g).params
    lhs, rhs = p.d * (p.d - p.alpha - 1), (p.n - p.d - 1) * p.beta
    return lhs, rhs, "equal" if lhs == rhs else "strict" if lhs < rhs else "violated"


def test_identity_check_paley13_equal():
    assert _counting_identity(paley_graph(13)) == (18, 18, "equal")


def test_identity_check_hypercube_strict():
    assert _counting_identity(hypercube_graph(3)) == (6, 8, "strict")


def test_identity_check_shrikhande_equal():
    assert _counting_identity(shrikhande_graph()) == (18, 18, "equal")


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
