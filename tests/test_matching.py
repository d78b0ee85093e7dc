"""Bipartite matching, Hall certificates, and the sharpness equivalence.

The random-instance suites run the engine of `local_perfect_matching`
through `helpers.max_matching`, which answers in indices; the local
matching itself answers in vertices of the graph.
"""

from __future__ import annotations

import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llycurv.errors import TooLargeError
from llycurv.families import (
    catalog,
    paley_graph,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
)
from llycurv.graphio import load_graph
from llycurv.matching import local_perfect_matching
from llycurv.transport import lly_curvature
from helpers import (
    BipartiteInstance,
    UnbalancedSidesError,
    _alternating_reach,
    _hopcroft_karp,
    adjacency,
    augmenting_path_matching_size,
    hall_reduction_check,
    lex_first_maximum_reference,
    max_matching,
    random_regular_graph,
    sharpness_equivalence,
)

DATA = Path(__file__).parent / "data"


def _random_instance(rng, max_side=10):
    nl = rng.randrange(1, max_side + 1)
    nr = rng.randrange(1, max_side + 1)
    edges = tuple(
        (li, ri)
        for li in range(nl)
        for ri in range(nr)
        if rng.random() < 0.35
    )
    return BipartiteInstance(left=tuple(range(nl)), right=tuple(range(nr)), edges=edges)


def test_max_matching_complete_3x3():
    inst = BipartiteInstance(
        left=(0, 1, 2),
        right=(0, 1, 2),
        edges=tuple((i, j) for i in range(3) for j in range(3)),
    )
    result = max_matching(inst)
    assert result.perfect and len(result.pairs) == 3 and result.violator is None


def test_max_matching_star_violator():
    inst = BipartiteInstance(left=(0, 1), right=(0, 1), edges=((0, 0), (1, 0)))
    result = max_matching(inst)
    assert not result.perfect
    assert len(result.pairs) == 1
    assert result.violator == (0, 1)  # both left vertices see only right 0


def test_max_matching_empty_sides_is_vacuously_perfect():
    result = max_matching(BipartiteInstance(left=(), right=(), edges=()))
    assert result.perfect and result.pairs == ()


def test_max_matching_matches_augmenting_oracle_seeded():
    rng = random.Random(101)
    for _ in range(150):
        inst = _random_instance(rng)
        result = max_matching(inst)
        oracle = augmenting_path_matching_size(
            len(inst.left), len(inst.right), inst.edges
        )
        assert len(result.pairs) == oracle


def test_max_matching_fifty_by_fifty_random():
    rng = random.Random(2024)
    for _ in range(5):
        edges = tuple(
            (li, ri) for li in range(50) for ri in range(50) if rng.random() < 0.05
        )
        inst = BipartiteInstance(
            left=tuple(range(50)), right=tuple(range(50)), edges=edges
        )
        assert len(max_matching(inst).pairs) == augmenting_path_matching_size(50, 50, edges)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_max_matching_matches_oracle_hypothesis(data):
    nl = data.draw(st.integers(1, 6))
    nr = data.draw(st.integers(1, 6))
    pool = [(li, ri) for li in range(nl) for ri in range(nr)]
    edges = tuple(data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))))
    inst = BipartiteInstance(left=tuple(range(nl)), right=tuple(range(nr)), edges=edges)
    assert len(max_matching(inst).pairs) == augmenting_path_matching_size(nl, nr, edges)


def test_violator_is_genuine_when_reported():
    rng = random.Random(55)
    seen = 0
    for _ in range(200):
        inst = _random_instance(rng, max_side=7)
        result = max_matching(inst)
        if result.violator is None:
            assert len(result.pairs) == len(inst.left)
            continue
        seen += 1
        neighborhood = {
            ri for li, ri in inst.edges if li in set(result.violator)
        }
        assert len(neighborhood) < len(result.violator)
    assert seen > 20  # the sample actually exercised the deficient case


def _reference_violator(inst):
    adj = adjacency(inst)
    match_left, match_right = _hopcroft_karp(adj, len(inst.right))
    if match_left.count(-1) == 0:
        return None
    return tuple(sorted(_alternating_reach(adj, match_left, match_right)[0]))


def test_violator_equals_the_list_reach():
    # Seeded instances, balanced and unbalanced either way, and empty
    # sides: the violator is read off bit rows and must be the reached set
    # of the list-based alternating search on the same matching.
    rng = random.Random(55)
    instances = [_random_instance(rng, max_side=9) for _ in range(400)]
    instances += [
        BipartiteInstance(left=(), right=(), edges=()),
        BipartiteInstance(left=(), right=(0, 1), edges=()),
        BipartiteInstance(left=(0, 1, 2), right=(), edges=()),
        BipartiteInstance(left=(0, 1), right=(0, 1), edges=()),
    ]
    shapes = set()
    for inst in instances:
        result = max_matching(inst)
        expected = _reference_violator(inst)
        assert result.violator == expected, inst
        if expected is not None:
            shapes.add((len(inst.left) > len(inst.right)) - (len(inst.left) < len(inst.right)))
    assert shapes == {-1, 0, 1}  # deficient instances of every shape were met


def _brute_force_lex_first_maximum(inst):
    # Every matching as one entry per left vertex, its column or None; the
    # first of the largest ones, None ranking after every column.
    adj = adjacency(inst)
    choices = [[*row, None] for row in adj]
    best = None
    for pick in product(*choices):
        cols = [c for c in pick if c is not None]
        if len(cols) != len(set(cols)):
            continue
        key = (-len(cols), [len(inst.right) if c is None else c for c in pick])
        if best is None or key < best[0]:
            best = key, pick
    return tuple((i, c) for i, c in enumerate(best[1]) if c is not None)


def test_max_matching_is_the_lex_first_maximum_matching():
    # Seeded instances, balanced and unbalanced either way, and empty
    # sides: the pairs are the definition's, column by column, and on
    # sides of at most 5 also the first of all maximum matchings.
    rng = random.Random(23)
    instances = [_random_instance(rng, max_side=8) for _ in range(400)]
    instances += [
        BipartiteInstance(left=(), right=(), edges=()),
        BipartiteInstance(left=(), right=(0, 1), edges=()),
        BipartiteInstance(left=(0, 1, 2), right=(), edges=()),
        BipartiteInstance(left=(0, 1), right=(0, 1), edges=()),
    ]
    shapes = set()
    brute = 0
    for inst in instances:
        pairs = max_matching(inst).pairs
        assert pairs == lex_first_maximum_reference(inst), inst
        shapes.add((len(inst.left) > len(inst.right)) - (len(inst.left) < len(inst.right)))
        if max(len(inst.left), len(inst.right)) <= 5:
            brute += 1
            assert pairs == _brute_force_lex_first_maximum(inst), inst
    assert shapes == {-1, 0, 1} and brute > 100


def test_local_matching_rook_perfect_shrikhande_not():
    rook = rook_graph(4)
    _, result = local_perfect_matching(rook, *next(iter(rook.edges())))
    assert result.perfect
    shri = shrikhande_graph()
    _, result = local_perfect_matching(shri, *next(iter(shri.edges())))
    assert not result.perfect
    assert result.violator is not None


def test_local_matching_paley13_all_edges_perfect():
    g = paley_graph(13)
    for x, y in g.edges():
        _, result = local_perfect_matching(g, x, y)
        assert result.perfect


def test_local_matching_answers_in_vertices():
    # On a sharp edge the pairs are the curvature witness, in both
    # orientations of every edge of the catalog and of P(29).  No edge of
    # rrg40_8 or Petersen is sharp: each pair there is an edge of g from
    # N_x to N_y, and the violator has fewer N_y neighbours than members.
    sharp = 0
    for g in [entry.graph for entry in catalog()] + [paley_graph(29)]:
        for x, y in g.edges():
            for a, b in ((x, y), (y, x)):
                report = lly_curvature(g, a, b, want_witness=True)
                if report.sharp:
                    sharp += 1
                    assert local_perfect_matching(g, a, b)[1].pairs == report.witness, (a, b)
    assert sharp > 1000
    for g in (load_graph(DATA / "rrg40_8.g6"), petersen_graph()):
        for x, y in g.edges():
            for a, b in ((x, y), (y, x)):
                parts, result = local_perfect_matching(g, a, b)
                nx, ny = set(parts.nx), set(parts.ny)
                assert len({v for _, v in result.pairs}) == len(result.pairs), (a, b)
                assert all(u in nx and v in ny and g.has_edge(u, v) for u, v in result.pairs)
                seen = {v for u in result.violator for v in g.neighbors(u) if v in ny}
                assert set(result.violator) <= nx and len(seen) < len(result.violator), (a, b)


def test_hall_reduction_identity_pairing():
    m = 5
    inst = BipartiteInstance(
        left=tuple(range(m)), right=tuple(range(m)),
        edges=tuple((i, i) for i in range(m)),
    )
    check = hall_reduction_check(inst)
    assert check.hypothesis_holds and check.full_hall_holds


def test_hall_reduction_isolated_right_vertex():
    inst = BipartiteInstance(left=(0, 1), right=(0, 1), edges=((0, 0), (1, 0)))
    check = hall_reduction_check(inst)
    assert not check.hypothesis_holds and not check.full_hall_holds


def test_hall_reduction_never_hypothesis_without_conclusion():
    # the lemma: half-size Hall on both sides forces full Hall
    rng = random.Random(77)
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


def test_hall_reduction_guards():
    with pytest.raises(UnbalancedSidesError):
        hall_reduction_check(
            BipartiteInstance(left=(0,), right=(0, 1), edges=())
        )
    big = BipartiteInstance(
        left=tuple(range(15)), right=tuple(range(15)), edges=()
    )
    with pytest.raises(TooLargeError):
        hall_reduction_check(big)


def test_sharpness_equivalence_named_examples():
    rook = rook_graph(4)
    eq = sharpness_equivalence(rook, *next(iter(rook.edges())))
    assert (eq.kappa_sharp, eq.matching_perfect, eq.agree) == (True, True, True)
    shri = shrikhande_graph()
    eq = sharpness_equivalence(shri, *next(iter(shri.edges())))
    assert (eq.kappa_sharp, eq.matching_perfect, eq.agree) == (False, False, True)
    pet = petersen_graph()
    eq = sharpness_equivalence(pet, *next(iter(pet.edges())))
    assert (eq.kappa_sharp, eq.matching_perfect, eq.agree) == (False, False, True)


def test_sharpness_equivalence_on_random_regular_sample():
    for seed, (n, d) in enumerate([(14, 3), (18, 4), (21, 6)]):
        g = random_regular_graph(n, d, seed=seed)
        for x, y in list(g.edges())[:10]:
            assert sharpness_equivalence(g, x, y).agree
