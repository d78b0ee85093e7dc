"""Named graph families and the random regular generator."""

from __future__ import annotations

import json
from functools import partial
from itertools import combinations
from math import prod

import pytest

from llycurv import families, fields, residues, transport
from llycurv.cli import main
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
    paley_gamma_orders,
    paley_graph,
    prime_power_decomposition,
    rook_graph,
)
from llycurv.fields import make_field
from llycurv.graphs import (
    Graph,
    SrgParams,
    _split,
    bfs_distances,
    classify_regularity,
    decompose_edge,
    neighbor_masks,
)
from helpers import (
    Element,
    euler_is_nonzero_square,
    paley_automorphisms,
    poly_mul,
    random_regular_graph,
)


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


def _forbidden(*args):
    raise AssertionError("work done past the edge bound")


def test_paley_edge_bound_rejects_before_field_work(monkeypatch, capsys):
    # 266,514 edges, about 1.07e9, and an order with no prime factor below
    # 3 * 10^7, whose trial division would take minutes: each is rejected
    # before q is factored.
    monkeypatch.setattr(families, "make_field", _forbidden)
    for module in (families, residues):
        monkeypatch.setattr(module, "prime_power_decomposition", _forbidden)
    for module in (families, fields):
        monkeypatch.setattr(module, "_prime_divisors", _forbidden)
    builds = (paley_graph, paley_automorphisms, residues.verify_corollary, transport.paley_kappa)
    for q in (1033, 65521, 998244359987710471):
        for build in builds:
            with pytest.raises(TooLargeError):
                build(q)
        for argv in (["gen", "--name", "paley", "--q", str(q)], ["corollary", "--q", str(q)]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and json.loads(err)["error"] == "TooLargeError"


# Each family at the first size past the edge bound (for the k-subset
# families, past it in vertex pairs to test), then sizes far past it whose
# builds would run for minutes or exhaust memory, and a hypercube dimension
# whose radices alone would not fit in memory.
_PAST_THE_BOUND = [
    ("paley", {"q": 1033}),  # 266,514 edges
    ("rook", {"k": 65}),  # 270,400 edges
    ("cocktail_party", {"k": 363}),  # 262,812 edges
    ("johnson", {"n": 725, "k": 1}),  # 262,450 pairs
    ("cycle", {"n": 2**18 + 1}),
    ("complete", {"n": 725}),  # 262,450 edges
    ("hypercube", {"m": 16}),  # 524,288 edges
    ("johnson", {"n": 20, "k": 10}),
    ("complete", {"n": 30000}),
    ("rook", {"k": 600}),
    ("cycle", {"n": 30000000}),
    ("hypercube", {"m": 17}),
    ("hypercube", {"m": 10**12}),
    # sized from the parameters before any range, connection set or C(n, k)
    ("complete", {"n": 10**20}),
    ("cocktail_party", {"k": 10**20}),
    ("johnson", {"n": 10**6, "k": 5 * 10**5}),
    ("rook", {"k": 10**8}),
    ("johnson", {"n": 30000000, "k": 30000000}),  # one subset, but a 30-million-element set
]


@pytest.mark.parametrize(
    "name, params",
    _PAST_THE_BOUND,
    ids=[f"{n}-{','.join(map(str, p.values()))}" for n, p in _PAST_THE_BOUND],
)
def test_every_family_is_bounded_before_building(monkeypatch, capsys, name, params):
    monkeypatch.setattr(families, "_translation", _forbidden)
    monkeypatch.setattr(families, "combinations", _forbidden)
    with pytest.raises(TooLargeError):
        named_graph(name, **params)
    argv = ["gen", "--name", name]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "TooLargeError"


def test_families_build_at_the_edge_bound():
    # the last size inside the bound, one below each entry of _PAST_THE_BOUND
    assert paley_graph(1021).edge_count == 260_355
    assert rook_graph(64).edge_count == 258_048
    assert cocktail_party_graph(362).edge_count == 261_364
    assert named_graph("cycle", n=2**18).edge_count == 2**18
    assert named_graph("hypercube", m=15).edge_count == 245_760
    for name, params in (("johnson", {"n": 724, "k": 1}), ("complete", {"n": 724})):
        assert named_graph(name, **params).edge_count == 261_726
    assert named_graph("johnson", n=2**18, k=2**18).n == 1


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
    assert maps == _affine_oracle(q)
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


def _by_predicate(n, adjacent):
    """The graph on 0..n-1 with u ~ v iff adjacent(u, v), tested on every pair."""
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if adjacent(u, v)])


def _paley_oracle(q):
    # the Euler criterion on polynomials, independent of the power walk
    # that paley_graph reads the squares from
    field = make_field(*prime_power_decomposition(q))
    elements = [Element.of(field, e) for e in field.elements()]

    def adjacent(u, v):
        return euler_is_nonzero_square(field, (elements[u] - elements[v]).index)

    return _by_predicate(q, adjacent)


def _rook_oracle(k):
    return _by_predicate(k * k, lambda u, v: u // k == v // k or u % k == v % k)


def _shrikhande_oracle():
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}

    def adjacent(u, v):
        (a, b), (c, d) = divmod(u, 4), divmod(v, 4)
        return ((c - a) % 4, (d - b) % 4) in conn

    return _by_predicate(16, adjacent)


def _cocktail_party_oracle(k):
    return _by_predicate(2 * k, lambda u, v: u // 2 != v // 2)


def _subset_oracle(n, k, meet):
    verts = list(combinations(range(n), k))
    return _by_predicate(len(verts), lambda u, v: len(set(verts[u]) & set(verts[v])) == meet)


def _clebsch_oracle():
    verts = [v for v in range(32) if bin(v).count("1") % 2 == 0]
    return _by_predicate(16, lambda u, v: bin(verts[u] ^ verts[v]).count("1") == 2)


# family -> (parameter sets, the graph built pair by pair from its definition)
_ORACLES = {
    "paley": ([{"q": q} for q in (5, 9, 13, 25, 49, 81, 125)], _paley_oracle),
    "rook": ([{"k": k} for k in (2, 3, 5)], _rook_oracle),
    "shrikhande": ([{}], _shrikhande_oracle),
    "cocktail_party": ([{"k": k} for k in (2, 3, 6)], _cocktail_party_oracle),
    "johnson": (
        [{"n": 4, "k": 1}, {"n": 5, "k": 2}, {"n": 6, "k": 3}, {"n": 4, "k": 4}],
        lambda n, k: _subset_oracle(n, k, k - 1),
    ),
    "clebsch": ([{}], _clebsch_oracle),
    "petersen": ([{}], lambda: _subset_oracle(5, 2, 0)),
    "cycle": (
        [{"n": n} for n in (3, 4, 7)],
        lambda n: _by_predicate(n, lambda u, v: (v - u) % n in (1, n - 1)),
    ),
    "complete": ([{"n": n} for n in (1, 2, 6)], lambda n: _by_predicate(n, lambda u, v: True)),
    "hypercube": (
        [{"m": m} for m in (1, 3, 5)],
        lambda m: _by_predicate(1 << m, lambda u, v: bin(u ^ v).count("1") == 1),
    ),
}


@pytest.mark.parametrize(
    "name, params",
    [(name, params) for name, (sets, _) in _ORACLES.items() for params in sets],
    ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v.values())),
)
def test_family_numbering_matches_its_definition(name, params):
    assert named_graph(name, **params) == _ORACLES[name][1](**params)


def test_oracles_cover_every_family():
    assert set(_ORACLES) == set(families.family_names())


def _affine_oracle(q):
    """Basis translations and t -> g^2 t by Element + and poly_mul, g of order q - 1."""
    field = make_field(*prime_power_decomposition(q))
    elements = [Element.of(field, e) for e in field.elements()]
    basis = [Element(field, tuple(int(i == k) for i in range(field.m))) for k in range(field.m)]

    def order(e):
        k, power = 1, e
        while power != basis[0]:  # the element 1
            k, power = k + 1, poly_mul(power, e)
        return k

    g = next(e for e in elements if not e.is_zero and order(e) == q - 1)
    maps = [tuple((e + b).index for e in elements) for b in basis]
    maps.append(tuple(poly_mul(poly_mul(g, g), e).index for e in elements))
    return tuple(maps)


def _edge_list_cayley(radices, connection):
    """The Cayley graph through the validating edge-list constructor."""
    n = prod(radices)
    translations = [families._translation(radices, s) for s in connection]
    return Graph(n, [(u, v) for image in translations for u, v in enumerate(image) if u < v])


@pytest.mark.parametrize(
    "radices", [(13,), (3,) * 5, (2,) * 6, (5,) * 3, (4, 4), (3, 2, 5), (5,), (61,), (257,)]
)
def test_rotation_moves_a_mask_as_the_translation_list_moves_its_members(radices):
    # Every shift s, 0 and n - 1 included, on masks from empty to full, some
    # holding bit n - 1: one radix (the orders of the prime Paley graphs
    # among them), 3-, 5- and 6-digit indices, and mixed radices.
    n = prod(radices)
    for members in (range(0), range(0, n, 3), range(1, n, 2), range(n - 1, -1, -4), range(n)):
        mask = sum(1 << u for u in members)
        for s in range(n):
            image = families._translation(radices, s)
            assert families._rotation(radices, mask, s) == sum(1 << image[u] for u in members)


@pytest.mark.parametrize(
    "g, radices",
    [
        (rook_graph(4), (4, 4)),
        (families.shrikhande_graph(), (4, 4)),
        *((cocktail_party_graph(k), (k, 2)) for k in range(2, 7)),
        (families.clebsch_graph(), (2,) * 4),
        (families.cycle_graph(6), (6,)),
        (families.complete_graph(5), (5,)),
        (families.hypercube_graph(3), (2,) * 3),
        (paley_graph(9), (3, 3)),
        (paley_graph(25), (5, 5)),
        (families._cayley_graph((3, 5), [1, 4, 5, 10]), (3, 5)),
    ],
    ids=[
        "rook4", "shrikhande", *(f"cocktail_party{k}" for k in range(2, 7)), "clebsch",
        "cycle6", "complete5", "hypercube3", "paley9", "paley25", "z3xz5",
    ],
)
def test_rotations_of_s_split_every_root_edge_of_a_cayley_graph(g, radices):
    # Vertex 0's mask is S, and v's is v + S, so rotations of S alone give
    # every neighbour mask and the split of each edge (0, s).
    masks = neighbor_masks(g)
    mask_of = partial(families._rotation, radices, masks[0])
    assert [mask_of(v) for v in range(g.n)] == list(masks)
    for s in g.neighbors(0):
        assert _split(0, s, mask_of) == decompose_edge(g, 0, s)


def test_cayley_rows_equal_the_edge_list_build(monkeypatch):
    # _cayley_graph trusts the rows it sorts; with the edge-list
    # constructor in its place every catalog entry and P(q), q <= 200,
    # comes out the same.
    orders = [q for q in range(5, 201, 4) if prime_power_decomposition(q)]
    rows_built = [entry.graph for entry in catalog()] + [paley_graph(q) for q in orders]
    monkeypatch.setattr(families, "_cayley_graph", _edge_list_cayley)
    assert rows_built == [entry.graph for entry in catalog()] + [paley_graph(q) for q in orders]
    assert len(orders) == 28


def test_cayley_masks_by_rotation_equal_the_masks_summed_from_the_rows():
    # A Cayley graph whose S outnumbers four times its digits builds v's
    # mask as S's mask rotated by v; the others sum 1 << w over row v.
    # Either way the masks are the rows'.
    orders = [q for q in range(5, 201, 4) if prime_power_decomposition(q)]
    graphs = [entry.graph for entry in catalog()] + [paley_graph(q) for q in orders]
    graphs += [rook_graph(7), cocktail_party_graph(9), families.hypercube_graph(6)]
    rotated = 0
    for g in graphs:
        rotated += g._mask_of is not None
        assert neighbor_masks(g) == tuple(sum(1 << w for w in row) for row in g._adj), g
    assert rotated == 32  # P(q) for q >= 13, cocktail_party(6), rook(7) and cocktail_party(9)
    assert paley_graph(9)._mask_of is None and rook_graph(7)._mask_of is not None


@pytest.mark.parametrize(
    "radices, connection",
    [
        ((5,), [1]),  # -1 = 4 missing
        ((5,), [0, 1, 4]),  # holds 0
        ((4, 4), [1, 3, 4]),  # (1, 0) without (3, 0)
        ((5,), [1, 4, 1]),  # 1 twice
        ((5,), [1, 4, 6]),  # 6 is no index of Z_5
        ((5,), [1, 4, -1]),  # a negative index, which no mask bit holds
        ((4, 4), [4, 12, 16]),  # 16 is no index of Z_4 x Z_4
        ((5,), [1, 4, 10**30]),  # far past n: no huge mask is built
    ],
    ids=[
        "not-closed", "zero", "not-closed-2d", "repeat",
        "out-of-range", "negative", "out-of-range-2d", "huge",
    ],
)
def test_cayley_rejects_a_bad_connection_set(monkeypatch, radices, connection):
    monkeypatch.setattr(families, "_translation", _forbidden)
    with pytest.raises(InvalidParamsError):
        families._cayley_graph(radices, connection)


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
