"""Named graph families and the random regular generator."""

from __future__ import annotations

import pytest

from llycurv import families
from llycurv.errors import (
    InvalidParamsError,
    NotPaleyOrderError,
    NotPrimePowerError,
    TooLargeError,
    UnknownFamilyError,
)
from llycurv.families import (
    catalog,
    cocktail_party_graph,
    johnson_graph,
    named_graph,
    paley_automorphisms,
    paley_gamma_orders,
    paley_graph,
    prime_power_decomposition,
    random_regular_graph,
    rook_graph,
)
from llycurv.graphs import SrgParams, bfs_distances, classify_regularity


def test_prime_power_decomposition():
    assert prime_power_decomposition(13) == (13, 1)
    assert prime_power_decomposition(49) == (7, 2)
    assert prime_power_decomposition(64) == (2, 6)
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None


def test_paley5_is_pentagon():
    g = paley_graph(5)
    assert classify_regularity(g).params == SrgParams(5, 2, 0, 1)
    assert g.edge_count == 5


@pytest.mark.parametrize(
    "q,expected",
    [(9, (9, 4, 1, 2)), (13, (13, 6, 2, 3)), (25, (25, 12, 5, 6))],
)
def test_paley_parameters(q, expected):
    rc = classify_regularity(paley_graph(q))
    assert rc.is_strongly_regular
    assert rc.params.as_tuple() == expected


def test_paley_edge_count_exact():
    for q in (5, 9, 13, 17, 25):
        assert paley_graph(q).edge_count == q * (q - 1) // 4


def test_paley_rejects_bad_orders():
    with pytest.raises(NotPaleyOrderError):
        paley_graph(7)  # prime but 3 mod 4
    with pytest.raises(NotPrimePowerError):
        paley_graph(21)


def test_paley_edge_bound_rejects_before_field_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("built a field past the Paley edge bound")

    monkeypatch.setattr(families, "make_field", forbidden)
    for q in (1033, 65521):  # 266,514 and about 1.07e9 edges
        with pytest.raises(TooLargeError):
            paley_graph(q)
        with pytest.raises(TooLargeError):
            paley_automorphisms(q)


def test_paley_gamma_orders_bounded_up_front(monkeypatch):
    # gamma 252 (q = 1009) is the largest order verify-conjecture is sized
    # for; past the edge bound no order is enumerated.
    assert paley_gamma_orders(255)[-3:] == [(252, 1009), (253, 1013), (255, 1021)]

    def forbidden(q):
        raise AssertionError("enumerated orders past the Paley edge bound")

    monkeypatch.setattr(families, "prime_power_decomposition", forbidden)
    for gamma_max in (256, 10**8):
        with pytest.raises(TooLargeError):
            paley_gamma_orders(gamma_max)


@pytest.mark.parametrize("q", [5, 9, 13, 25, 49, 81, 125])
def test_paley_automorphisms_are_affine_generators(q):
    # m translations and one square multiplier, each a permutation fixing
    # the adjacency; the multiplier cycles the (q-1)/2 nonzero squares.
    p, m = prime_power_decomposition(q)
    maps = paley_automorphisms(q)
    assert len(maps) == m + 1
    g = paley_graph(q)
    edges = set(g.edges())
    for sigma in maps:
        assert sorted(sigma) == list(range(q))
        assert {tuple(sorted((sigma[x], sigma[y]))) for x, y in edges} == edges
    multiplier = maps[-1]
    assert multiplier[0] == 0
    squares = set(g.neighbors(0))
    orbit, v = set(), next(iter(squares))
    while v not in orbit:
        orbit.add(v)
        v = multiplier[v]
    assert orbit == squares


def test_named_graph_dispatch():
    assert named_graph("rook", k=4) == rook_graph(4)
    assert named_graph("johnson", n=5, k=2) == johnson_graph(5, 2)
    with pytest.raises(UnknownFamilyError):
        named_graph("moebius")
    with pytest.raises(InvalidParamsError):
        named_graph("rook")  # missing k
    with pytest.raises(InvalidParamsError):
        named_graph("petersen", k=3)  # unexpected param


def test_cocktail_party_2_is_c4():
    g = cocktail_party_graph(2)
    assert classify_regularity(g).params == SrgParams(4, 2, 0, 2)
    assert g.edge_count == 4


def test_catalog_entries_classify_as_expected():
    for entry in catalog():
        rc = classify_regularity(entry.graph)
        assert rc.params == entry.params, entry.name


def test_catalog_has_the_standard_names():
    names = {e.name for e in catalog()}
    for needed in ("rook(4)", "shrikhande", "petersen", "clebsch", "paley(9)",
                   "johnson(5,2)", "johnson(6,2)", "cocktail_party(6)"):
        assert needed in names


def test_paley_gamma_orders_up_to_12():
    assert paley_gamma_orders(12) == [
        (2, 9), (3, 13), (4, 17), (6, 25), (7, 29), (9, 37), (10, 41), (12, 49),
    ]


def test_random_regular_graph_properties():
    for seed, (n, d) in enumerate([(12, 3), (20, 4), (31, 6), (60, 8)]):
        g = random_regular_graph(n, d, seed=seed)
        assert g.degree_sequence() == (d,) * n
        assert all(x is not None for x in bfs_distances(g, 0))


def test_random_regular_graph_deterministic():
    assert random_regular_graph(24, 5, seed=7) == random_regular_graph(24, 5, seed=7)
    assert random_regular_graph(24, 5, seed=7) != random_regular_graph(24, 5, seed=8)


def test_random_regular_graph_rejects_impossible():
    with pytest.raises(InvalidParamsError):
        random_regular_graph(7, 3, seed=0)  # odd n*d
    with pytest.raises(InvalidParamsError):
        random_regular_graph(4, 4, seed=0)  # d >= n


def test_random_regular_graph_rejects_disconnected_degree_one():
    # A perfect matching on more than two vertices is never connected, so
    # retrying for a connected one would never end.
    for n in (4, 6, 10):
        with pytest.raises(InvalidParamsError):
            random_regular_graph(n, 1, seed=0)
    assert random_regular_graph(2, 1, seed=0).edge_count == 1
