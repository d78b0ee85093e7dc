"""graph6 and JSON serialization: frozen bytes, round trips, determinism."""

from __future__ import annotations

import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llycurv import graphio
from llycurv.cli import main
from llycurv.errors import InvalidParamsError, TooLargeError
from llycurv.families import catalog, cycle_graph, paley_graph, petersen_graph
from llycurv.graphio import from_graph6, from_json, load_graph, to_graph6, to_json
from llycurv.graphs import Graph, neighbor_masks


def test_graph6_hand_encoded_examples():
    assert to_graph6(complete2()) == "A_"
    assert to_graph6(triangle()) == "Bw"
    assert to_graph6(path3()) == "Bg"
    assert to_graph6(Graph(1, [])) == "@"


def complete2():
    return Graph(2, [(0, 1)])


def triangle():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def test_graph6_roundtrip_catalog():
    for entry in catalog():
        assert from_graph6(to_graph6(entry.graph)) == entry.graph


def test_graph6_matches_networkx():
    for g in (petersen_graph(), paley_graph(13), triangle(), path3()):
        theirs = nx.to_graph6_bytes(
            make_nx(g.n, list(g.edges())), header=False
        ).decode().strip()
        assert to_graph6(g) == theirs


def test_graph6_large_n_size_field():
    g = Graph(63, [(0, 62), (1, 2)])
    text = to_graph6(g)
    assert text.startswith("~")
    assert from_graph6(text) == g


def test_graph6_pair_bound(monkeypatch):
    # 16384 vertices make 134,209,536 pairs, inside the bound of 2^27;
    # 16385 make 134,225,920.
    def built(g):
        raise LookupError("the writer passed its check")

    monkeypatch.setattr(graphio, "neighbor_masks", built)
    with pytest.raises(LookupError):
        to_graph6(Graph(16384, []))
    with pytest.raises(TooLargeError):
        to_graph6(Graph(16385, []))
    # the reader checks its size field before it reads the body
    with pytest.raises(InvalidParamsError, match="body"):
        from_graph6(bytes(graphio._encode_size(16384)).decode())
    with pytest.raises(TooLargeError):
        from_graph6(bytes(graphio._encode_size(16385)).decode())


def test_graph6_rejects_garbage():
    with pytest.raises(InvalidParamsError):
        from_graph6("B")  # truncated body
    with pytest.raises(InvalidParamsError):
        from_graph6("B" + chr(30))


def test_json_roundtrip_and_determinism():
    g = paley_graph(13)
    text = to_json(g)
    assert from_json(text) == g
    assert text == to_json(paley_graph(13))
    assert '"edges":[[0,1]' in text


def test_json_edges_sorted():
    g = Graph(4, [(3, 2), (1, 0)])
    assert to_json(g) == '{"edges":[[0,1],[2,3]],"n":4}\n'


@pytest.mark.parametrize(
    "name, writer",
    [
        ("p13.g6", "graph6"),
        ("p13.txt", "graph6"),
        ("p13.json", "json"),
        ("p13.data", "json"),
        ("c60.g6", "graph6"),  # its size byte 123 is "{"
        ("p13.json", "graph6"),
        ("p13.g6", "json"),
        ("c60.json", "graph6"),
    ],
)
def test_written_graph_round_trips_through_load_graph(tmp_path, name, writer):
    # load_graph reads the bytes, never the suffix.
    g = cycle_graph(60) if name.startswith("c60") else paley_graph(13)
    path = tmp_path / name
    path.write_text(to_json(g) if writer == "json" else to_graph6(g) + "\n")
    assert load_graph(path) == g
    assert load_graph(str(path)) == g


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3.9, "edges": [[0.5, 1.7], ["1", 2], [true, 2.2]]}',
        '{"n": 3.0, "edges": [[0, 1]]}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[0, 1.0]]}',
        '{"n": 3, "edges": [["0", 1]]}',
        '{"n": 3, "edges": [[0, false]]}',
    ],
    ids=["mixed", "float-n", "bool-n", "float-endpoint", "string-endpoint", "bool-endpoint"],
)
def test_json_accepts_only_integers(tmp_path, capsys, text):
    with pytest.raises(InvalidParamsError):
        from_json(text)
    path = tmp_path / "g.json"
    path.write_text(text)
    assert main(["spectrum", "--graph", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "InvalidParamsError"


def test_body_bits_equal_the_six_bit_join():
    # The reader decodes a body through base64; the reference reads byte b
    # as the six bits of b - 63.  The lengths cover every partial last
    # base64 group, and bytes 63 and 126 are the extreme letters.
    rng = random.Random(19)
    for length in range(1, 41):
        for _ in range(25):
            body = bytes(rng.choice((63, 126, rng.randint(63, 126))) for _ in range(length))
            reference = "".join(format(b - 63, "06b") for b in body)
            bits = int.from_bytes(graphio._body_bits(body), "little")
            assert "".join(str(bits >> k & 1) for k in range(6 * length)) == reference
            assert bits >> 6 * length == 0


def _graphs_read_from_graph6():
    # A seeded random graph and a circulant (regular) graph on each n; the
    # sizes cross every matrix width from 8 to 512.
    rng = random.Random(24)
    for n in [*range(71), 8, 9, 63, 64, 65, 128, 129, 255, 256, 257]:
        pairs = [(u, v) for v in range(n) for u in range(v)]
        circulant = [(v, (v + s) % n) for v in range(n) for s in (1, 3) if 2 * s < n]
        for edges in ([pair for pair in pairs if rng.random() < 0.3], circulant):
            ref = Graph(n, edges)
            yield ref, to_graph6(ref)


def test_graph6_reader_builds_the_masks_of_the_row_built_graph():
    for ref, text in _graphs_read_from_graph6():
        g = from_graph6(text)
        assert g._rows is None and g._masks == neighbor_masks(ref), ref


def test_graph_from_masks_answers_as_the_row_built_graph():
    # degree, has_edge and is_regular read the masks and build no row.
    for ref, text in _graphs_read_from_graph6():
        g = from_graph6(text)
        assert g.is_regular() == ref.is_regular(), ref
        for u in range(ref.n):
            assert g.degree(u) == ref.degree(u)
            assert [g.has_edge(u, v) for v in range(ref.n)] == [
                ref.has_edge(u, v) for v in range(ref.n)
            ]
        assert g._rows is None
        assert [g.neighbors(u) for u in range(ref.n)] == [ref.neighbors(u) for u in range(ref.n)]
        assert list(g.edges()) == list(ref.edges())
        assert g == ref and hash(g) == hash(ref)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 70), st.data())
def test_graph6_roundtrip_random(n, data):
    # n crosses the 62/63 switch of the size field.  The reader builds the
    # masks alone; they are compared with a fresh mask build, and the rows
    # built from them with the validating edge-list constructor's.
    pairs = [(u, v) for v in range(n) for u in range(v)]
    chosen = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    if data.draw(st.booleans()):  # thin the graph out
        chosen &= data.draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pair for k, pair in enumerate(pairs) if chosen >> k & 1]
    ref = Graph(n, edges)
    theirs = nx.to_graph6_bytes(make_nx(n, edges), header=False).decode().strip()
    g = from_graph6(theirs)
    assert g == ref
    assert g._masks == neighbor_masks(ref)
    assert to_graph6(ref) == theirs


def make_nx(n, edges):
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h
