"""Quadratic-residue pattern checks and their symmetry audit."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from llycurv import families, residues
from llycurv.errors import (
    InvalidOrderError,
    InvalidPairError,
    InvalidParamsError,
    InvalidVertexError,
    TooLargeError,
)
from llycurv.families import paley_graph, prime_power_decomposition
from llycurv.fields import is_nonzero_square, make_field
from llycurv.graphs import Graph, decompose_edge
from llycurv.matching import local_perfect_matching
from llycurv.residues import (
    CorollaryReport,
    find_pattern_witness,
    pattern_free_kernel,
    square_index_set,
    subset_threshold,
    verify_corollary,
)
from helpers import (
    _edge_orbits,
    canonical_pair,
    coefficient_pattern_witness,
    euler_is_nonzero_square,
    paley_automorphisms,
    squaring_square_index_set,
)


def test_square_index_set_agrees_with_euler_criterion():
    for p, m in [(13, 1), (3, 2), (5, 2), (29, 1), (7, 2), (3, 3), (2, 3), (2, 4)]:
        f = make_field(p, m)
        squares = square_index_set(f)
        assert squares == squaring_square_index_set(f)
        for e in f.elements():
            assert (e in squares) == euler_is_nonzero_square(f, e) == is_nonzero_square(f, e)


def test_subset_threshold_exact():
    assert subset_threshold(13) == 9
    assert subset_threshold(17) == 12
    assert subset_threshold(29) == 21


def test_canonical_pair_q13():
    f = make_field(13)
    assert canonical_pair(f) == (0, 1)  # 1 is the smallest square mod 13


@pytest.mark.parametrize("q", [q for q in range(9, 50, 4) if prime_power_decomposition(q)])
def test_verify_corollary_reads_the_canonical_pair_from_the_graph(q):
    report = verify_corollary(q, mode="sampled", seed=0, trials=1)
    assert report.pair == canonical_pair(make_field(*prime_power_decomposition(q)))


def test_witness_exists_for_a_maximal_subset_q13():
    f = make_field(13)
    x, y = 0, 1
    subset = [v for v in range(13) if v not in (0, 1, 6, 7)]
    assert len(subset) == 9
    witness = find_pattern_witness(f, x, y, subset)
    assert witness is not None
    w, z = witness
    squares = square_index_set(f)
    assert (x - w) % 13 in squares
    assert (w - z) % 13 in squares
    assert (z - y) % 13 in squares
    assert (x - z) % 13 not in squares
    assert (y - w) % 13 not in squares


def test_witness_matches_exhaustive_pair_search():
    f = make_field(13)
    x, y = 0, 1
    squares = square_index_set(f)
    rng = random.Random(4)
    universe = [v for v in range(13) if v not in (0, 1)]
    for _ in range(40):
        subset = rng.sample(universe, rng.randrange(2, 10))
        got = find_pattern_witness(f, x, y, subset)
        brute = None
        for w in sorted(subset):
            for z in sorted(subset):
                if (
                    (x - w) % 13 in squares
                    and (w - z) % 13 in squares
                    and (z - y) % 13 in squares
                    and (x - z) % 13 not in squares
                    and (y - w) % 13 not in squares
                ):
                    brute = (w, z)
                    break
            if brute:
                break
        assert got == brute


def test_witness_single_element_subset_has_none():
    # x = 0 and y = 1 are no pattern vertices: z = x would need x - z = 0
    # to be a non-square, and w = y would need y - w = 0 to be one
    f = make_field(13)
    assert find_pattern_witness(f, 0, 1, [2]) is None
    assert find_pattern_witness(f, 0, 1, [3, 0]) is None
    assert find_pattern_witness(f, 0, 1, [1, 2]) is None


def test_witness_requires_square_difference_pair():
    f = make_field(13)
    with pytest.raises(InvalidPairError):
        find_pattern_witness(f, 0, 2, [])  # 2 is a non-square


@pytest.mark.parametrize("x, y, subset", [(0, 14, []), (-12, 1, []), (0, 1, [2, 13]), (0, 1, [-1, 2])])
def test_witness_refuses_indices_outside_the_field(x, y, subset):
    # An index outside 0..12 names no element of GF(13).
    with pytest.raises(InvalidVertexError):
        find_pattern_witness(make_field(13), x, y, subset)


def test_index_witness_matches_coefficient_tuples_on_every_subset_q13():
    # Every subset of GF(13), x and y included, around the root pair.
    f = make_field(13)
    outcomes = set()
    for mask in range(1 << 13):
        subset = [v for v in range(13) if mask >> v & 1]
        witness = find_pattern_witness(f, 0, 1, subset)
        assert witness == coefficient_pattern_witness(f, 0, 1, subset), subset
        outcomes.add(witness is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("q", [25, 49, 81])
def test_index_witness_matches_coefficient_tuples_on_seeded_pairs(q):
    # (x, y) is drawn from the whole field, so it is rarely the root pair,
    # and about half the pairs have a non-square difference, which both
    # refuse.
    f = make_field(*prime_power_decomposition(q))
    rng = random.Random(q)
    outcomes = Counter()
    for _ in range(300):
        x, y = rng.randrange(q), rng.randrange(q)
        subset = rng.sample(range(q), rng.randrange(q + 1))
        try:
            expected = coefficient_pattern_witness(f, x, y, subset)
        except InvalidPairError:
            outcomes["refused"] += 1
            with pytest.raises(InvalidPairError):
                find_pattern_witness(f, x, y, subset)
            continue
        assert find_pattern_witness(f, x, y, subset) == expected, (x, y, sorted(subset))
        outcomes["none" if expected is None else "witness"] += 1
    assert set(outcomes) == {"refused", "none", "witness"}, outcomes


def test_verify_corollary_q13_exhaustive():
    report = verify_corollary(13)
    assert report.subsets_tested == 67  # C(11,9)+C(11,10)+C(11,11)
    assert report.failures == ()
    assert report.pair == (0, 1)
    # seed and trials are echoed in sampled mode only.
    assert verify_corollary(13, "exhaustive", seed=5, trials=7) == report


def test_verify_corollary_q17_exhaustive():
    report = verify_corollary(17)
    assert report.subsets_tested == 576  # 455+105+15+1
    assert report.failures == ()


def test_verify_corollary_sampled_deterministic():
    a = verify_corollary(29, mode="sampled", seed=11, trials=500)
    b = verify_corollary(29, mode="sampled", seed=11, trials=500)
    assert a == b
    assert a.subsets_tested == 500 and a.failures == ()


def _mask(subset):
    return sum(1 << v for v in subset)


def _reference_pattern_free(q, subsets):
    f = make_field(*prime_power_decomposition(q))
    x, y = canonical_pair(f)
    return [s for s in subsets if find_pattern_witness(f, x, y, s) is None]


@pytest.mark.parametrize("q, sizes", [(13, (6, 7, 8, 9)), (17, (9, 10, 11, 12))])
def test_kernel_agrees_with_reference_on_every_subset(q, sizes):
    # below the threshold 3(q-1)/4 pattern-free subsets exist, so the two
    # failure lists are compared where they are non-empty; at it they vanish
    kernel = pattern_free_kernel(decompose_edge(paley_graph(q), 0, 1))
    universe = range(2, q)
    for size in sizes:
        subsets = list(combinations(universe, size))
        fast = [s for s in subsets if kernel(_mask(s))]
        assert fast == _reference_pattern_free(q, subsets), (q, size)
        assert bool(fast) == (size < subset_threshold(q)), (q, size)


@pytest.mark.parametrize("q, threshold", [(13, 7), (17, 11)])
def test_exhaustive_failures_are_the_pattern_free_kept_subsets(monkeypatch, q, threshold):
    # At the threshold no subset is pattern-free, so a lowered threshold is
    # what shows that each failure is listed, as its kept subset S.
    monkeypatch.setattr(residues, "subset_threshold", lambda q: threshold)
    report = verify_corollary(q)
    kept = [s for size in range(threshold, q - 1) for s in combinations(range(2, q), size)]
    reference = _reference_pattern_free(q, kept)
    assert report.subsets_tested == len(kept)
    assert reference and list(report.failures) == sorted(reference)


@pytest.mark.parametrize("q", [13, 17])
def test_reference_agrees_with_the_kernel_on_subsets_of_the_whole_field(q):
    # the subsets may hold x and y; the kernel has no edge at their bits,
    # and the reference must not take them for w or z
    split = families._paley_root_split(q)
    kernel = pattern_free_kernel(split)
    f = make_field(q)
    rng = random.Random(q)
    for _ in range(200):
        subset = rng.sample(range(q), rng.randrange(q + 1))
        witness = find_pattern_witness(f, split.x, split.y, subset)
        assert (witness is None) == kernel(_mask(subset)), sorted(subset)


def test_kernel_agrees_with_reference_on_gf25_samples():
    # GF(25) is not a prime field: vertex v of P(25) must be element v
    f = make_field(5, 2)
    x, y = canonical_pair(f)
    kernel = pattern_free_kernel(decompose_edge(paley_graph(25), x, y))
    universe = [v for v in range(25) if v not in (x, y)]
    rng = random.Random(25)
    subsets = [
        tuple(sorted(rng.sample(universe, rng.randrange(8, 19)))) for _ in range(2000)
    ]
    fast = [s for s in subsets if kernel(_mask(s))]
    assert fast == _reference_pattern_free(25, subsets)
    assert 0 < len(fast) < len(subsets)


def test_verify_corollary_q29_exhaustive_within_bound():
    report = verify_corollary(29)
    assert report.subsets_tested == 397_594  # sum of C(27, s), s >= 21
    assert report.failures == ()


def test_verify_corollary_exhaustive_bound_rejects_before_enumerating(monkeypatch):
    def forbidden(*args):
        raise AssertionError("enumerated or split the root edge past the bound")

    monkeypatch.setattr(residues, "combinations", forbidden)
    monkeypatch.setattr(residues, "_paley_root_split", forbidden)
    with pytest.raises(TooLargeError):
        verify_corollary(37)  # 32,267,668 subsets
    with pytest.raises(TooLargeError):
        verify_corollary(101)  # about 8.8e22 subsets


def test_verify_corollary_order_bound_builds_no_graph(monkeypatch):
    def forbidden(*args):
        raise AssertionError("split the root edge past the order bound")

    monkeypatch.setattr(residues, "_paley_root_split", forbidden)
    with pytest.raises(TooLargeError):
        verify_corollary(1033, mode="sampled", seed=1, trials=1)


def test_verify_corollary_builds_no_graph(monkeypatch):
    # Every subset is decided on the root split, built from the squares alone.
    def no_graph(*args):
        raise AssertionError("a graph was built")

    for name in ("_cayley_graph", "paley_graph"):
        monkeypatch.setattr(families, name, no_graph)
    monkeypatch.setattr(Graph, "__init__", no_graph)
    monkeypatch.setattr(Graph, "_from_rows", no_graph)
    for q, tested in ((13, 67), (17, 576), (29, 397_594)):
        assert verify_corollary(q) == CorollaryReport(q, (0, 1), tested, (), "exhaustive")
    for q, pair in ((25, (0, 5)), (37, (0, 1))):
        report = verify_corollary(q, mode="sampled", seed=0, trials=3000)
        assert report == CorollaryReport(q, pair, 3000, (), "sampled", 0, 3000)


def test_verify_corollary_rests_on_the_one_orbit_proof(monkeypatch):
    # 3 has order 3 in GF(13)^*, so a walk of its powers proves no orbit:
    # the corollary refuses to decide.
    assert [pow(3, k, 13) for k in range(4)] == [1, 3, 9, 1]
    monkeypatch.setattr(families, "_power_walk", lambda field: (1, 3, 9))
    with pytest.raises(InvalidParamsError, match="one edge orbit"):
        verify_corollary(13)


@pytest.mark.parametrize("trials", [0, -5])
def test_verify_corollary_sampled_needs_a_trial(trials):
    with pytest.raises(InvalidOrderError):
        verify_corollary(29, mode="sampled", seed=1, trials=trials)


def test_verify_corollary_rejects_bad_orders():
    with pytest.raises(InvalidOrderError):
        verify_corollary(5)  # too small
    with pytest.raises(InvalidOrderError):
        verify_corollary(7)  # 3 mod 4
    with pytest.raises(InvalidOrderError):
        verify_corollary(29, mode="sampled")  # missing seed/trials


def test_witness_is_uncovered_local_matching_edge():
    # a pattern witness is exactly an edge of the N_x/N_y bipartite graph of
    # the Paley graph avoiding the complement of S; when the local matching
    # is perfect and S is large, some matched edge must survive inside S
    q = 13
    f = make_field(q)
    g = paley_graph(q)
    x, y = canonical_pair(f)
    parts = decompose_edge(g, x, y)
    _, result = local_perfect_matching(g, x, y)
    assert result.perfect
    rng = random.Random(6)
    universe = [v for v in range(q) if v not in (x, y)]
    for _ in range(30):
        subset = sorted(rng.sample(universe, subset_threshold(q)))
        witness = find_pattern_witness(f, x, y, subset)
        assert witness is not None
        w, z = witness
        assert w in parts.nx and z in parts.ny
        assert g.has_edge(w, z)


@pytest.mark.parametrize("q", [q for q in range(5, 102, 4) if prime_power_decomposition(q)])
def test_paley_edges_form_one_orbit(q):
    # The affine maps t -> a t + b, a a nonzero square, are transitive on
    # the edges of P(q); canonical_pair relies on it.  The edge walk checks
    # every generator against the graph before merging classes.
    g = paley_graph(q)
    assert set(_edge_orbits(g, list(g.edges()), paley_automorphisms(q))) == {0}


def test_affine_symmetry_audit():
    # the canonical-pair reduction rests on affine maps t -> a t + b with a a
    # nonzero square preserving the pattern; transported subsets must agree
    q = 13
    f = make_field(q)
    squares = sorted(square_index_set(f))
    x, y = 0, 1
    rng = random.Random(15)
    universe = [v for v in range(q) if v not in (0, 1)]
    for _ in range(100):
        a = rng.choice(squares)
        b = rng.randrange(q)
        subset = rng.sample(universe, rng.randrange(2, 11))
        image_x, image_y = (a * x + b) % q, (a * y + b) % q
        image_subset = [(a * s + b) % q for s in subset]
        direct = find_pattern_witness(f, x, y, subset)
        transported = find_pattern_witness(f, image_x, image_y, image_subset)
        assert (direct is None) == (transported is None)


@pytest.fixture
def always_free(monkeypatch):
    # A kernel that finds every subset pattern-free makes the report list
    # every subset a run tests, drawn or enumerated.
    monkeypatch.setattr(residues, "pattern_free_kernel", lambda split: lambda subset: True)


@pytest.mark.parametrize(
    "q, digests",
    [
        (13, (
            "7d2c41798696f763ae6b959bf0616cac3710be84fba889608f5d8e8159d5f1bd",
            "a9399eaead698b8cf3481143d3e69d4b8f71603d424857a88ce3ef911639aeea",
            "6db4064f2300d5fbb32a4557a5fd6510a77490e44719ca371577255b58610001",
        )),
        (25, (
            "2c4b9547474d61fdbb802ed17e7021fae0406061455459ad77aaf64f79a29033",
            "5230590bf7bbf6471cd612df1345b79155d9d39b687f4e09cee6267708b1c71b",
            "0b0c327d12c55dfa3f248b6ae74e013d2d8e5bded1327880a20a6921cb35f687",
        )),
        (37, (
            "a5240c68bbe8df164f1903f2e856155aeeccb00ff573c1021ea28a05742485fa",
            "afde7d611ed62d3064c44c915593df05730dde6802ee4b91d9c773811ae380bc",
            "3f18bacba3060cd2e506a3a9d473765f8234736b021ae7e23e173db6910108da",
        )),
        (61, (
            "32a3ef5f78f5e4f95582b2c7b10c55a3775c3f5df6c14f9a9f157ca07077ee5a",
            "41224dd5da8339e92be847e01d53825ece6e69985d28ae50345b645822432952",
            "9b007010aae08d6bc1af39fb760cbfd07da008e96e77383d8052ac6cdef2cfb6",
        )),
    ],
)
def test_sampled_corollary_draws_pinned(always_free, q, digests):
    # The digests pin the size and subset draws of seeds 0, 1 and 2 with
    # 3,000 trials.
    for seed, digest in enumerate(digests):
        report = verify_corollary(q, mode="sampled", seed=seed, trials=3000)
        assert report.subsets_tested == len(report.failures) == 3000
        assert hashlib.sha256(json.dumps(report.failures).encode()).hexdigest() == digest, seed


def test_sampled_corollary_draws_each_qualifying_subset_uniformly(always_free):
    # At q = 13 the family is the 67 subsets exhaustive mode enumerates, so
    # 67,000 draws expect each 1,000 times; 800 and 1,200 are about 6.4
    # standard deviations out.
    family = verify_corollary(13).failures
    assert len(family) == len(set(family)) == 67
    counts = Counter(verify_corollary(13, mode="sampled", seed=7, trials=67_000).failures)
    assert set(counts) == set(family)
    assert all(800 <= n <= 1200 for n in counts.values()), sorted(counts.values())


def test_sampled_corollary_seeds_of_opposite_sign_draw_apart(always_free):
    # random.Random(n) seeds from abs(n); the run's stream is seeded from
    # the seed's decimal string, so 1 and -1 stay two streams.
    a = verify_corollary(29, mode="sampled", seed=1, trials=100)
    b = verify_corollary(29, mode="sampled", seed=-1, trials=100)
    assert len(a.failures) == len(b.failures) == 100
    assert a.failures != b.failures
