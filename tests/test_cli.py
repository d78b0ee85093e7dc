"""Command-line interface: dispatch, determinism, round trips, exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from llycurv import certify, cli, residues
from llycurv.cli import main, parse_csv
from llycurv.graphio import load_graph
from llycurv.families import paley_automorphisms, paley_graph, rook_graph

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_graph6_roundtrip(tmp_path, capsys):
    path = tmp_path / "rook.g6"
    code, _, _ = run(capsys, "gen", "--name", "rook", "--k", "4", "--out", str(path))
    assert code == 0
    assert load_graph(path) == rook_graph(4)


def test_gen_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "paley.json"
    code, _, _ = run(
        capsys, "gen", "--name", "paley", "--q", "13", "--format", "json",
        "--out", str(path),
    )
    assert code == 0
    assert load_graph(path) == paley_graph(13)


def test_gen_byte_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.g6", tmp_path / "b.g6"
    run(capsys, "gen", "--name", "shrikhande", "--out", str(p1))
    run(capsys, "gen", "--name", "shrikhande", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_curvature_single_edge_json(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(capsys, "gen", "--name", "rook", "--k", "4", "--format", "json", "--out", str(gpath))
    code, out, _ = run(capsys, "curvature", "--graph", str(gpath), "--edge", "0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa"] == {"num": "2", "den": "3"}
    assert doc["sharp"] is True
    assert doc["config"]["edge"] == "0,1"
    assert len(doc["witness"]) == 3


def test_curvature_csv_roundtrip(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    run(capsys, "gen", "--name", "paley", "--q", "9", "--out", str(gpath))
    code, out, _ = run(capsys, "curvature", "--graph", str(gpath), "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 18
    assert all(r["kappa_num"] == 3 and r["kappa_den"] == 4 for r in rows)


def test_curvature_reads_a_60_vertex_graph6_file(tmp_path, capsys):
    # graph6 writes n = 60 as the size byte 123, which is "{".
    gpath = tmp_path / "c60.g6"
    run(capsys, "gen", "--name", "cycle", "--n", "60", "--out", str(gpath))
    assert gpath.read_text().startswith("{")
    code, out, _ = run(capsys, "curvature", "--graph", str(gpath))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["edges"]) == 60 and doc["min_kappa"] == {"num": "0", "den": "1"}


# tests/data/rrg40_8.g6 is random_regular_graph(40, 8, seed=3), stored so the
# pins below do not depend on the generator.  None of its 160 edges has a
# perfect local matching, so every kappa comes from the non-sharp path.  The
# hashes are of the stdout the Hungarian-assignment engine printed; the
# commands run from tests/data so the echoed config holds a fixed path.
_RRG40 = "rrg40_8.g6"


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (("curvature",), "15bc06ce7d4dc63f73b9529dc49dca8a6a86aba599d008b69f5c60c4e31cd9cd"),
        (
            ("curvature", "--format", "csv"),
            "98164d6052d49ab72f9a584c4bbf9ac9b8212401681fc9508833adcfe3bbb698",
        ),
        (("sharpness",), "fe5397efddc9e6f29472484db36ebb26ffa81c4464bd0a83c57e57a75f8313f1"),
    ],
)
def test_non_sharp_graph_stdout_pinned(capsys, monkeypatch, argv, sha256):
    monkeypatch.chdir(DATA)
    code, out, _ = run(capsys, argv[0], "--graph", _RRG40, *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_non_sharp_edge_witnesses_pinned(capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    g = load_graph(_RRG40)
    outs = []
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            code, out, _ = run(capsys, "curvature", "--graph", _RRG40, "--edge", f"{a},{b}")
            assert code == 0
            outs.append(out)
    docs = [json.loads(out) for out in outs]
    assert len(docs) == 320 and not any(doc["sharp"] for doc in docs)
    assert min(F(int(doc["kappa"]["num"]), int(doc["kappa"]["den"])) for doc in docs) == F(-1, 4)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "65f3c49c9a78506ecc3a5ae150b2dfc9615ded6f112686536879b610fed2532d"
    )


def test_match_witness_output(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    run(capsys, "gen", "--name", "rook", "--k", "4", "--out", str(gpath))
    code, out, _ = run(
        capsys, "match", "--graph", str(gpath), "--edge", "0,1", "--witness"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["perfect"] is True
    assert len(doc["pairs"]) == 3


def test_match_reports_violator(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    run(capsys, "gen", "--name", "shrikhande", "--out", str(gpath))
    code, out, _ = run(capsys, "match", "--graph", str(gpath), "--edge", "0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["perfect"] is False
    assert "violator" in doc


def test_certify_published_example(capsys):
    code, out, _ = run(
        capsys, "certify", "--params", "324,152,70,72", "--sweep-transcript"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa"] == {"num": "9", "den": "19"}
    assert doc["outcome"] == "sharp_by_sweep"
    assert len(doc["sweep"]) == 40
    assert all(not row["feasible"] for row in doc["sweep"])


@pytest.mark.parametrize(
    "params, sha256",
    [
        ("324,152,70,72", "00d0bf4cb9774e20121eb04b4f0dd357402d28101059afd281f7520a1500ed03"),
        ("21,10,4,5", "b937abc15db6f7533950832e8930b301ae19925bbc66f653c85b36afa7852c41"),
    ],
)
def test_certify_transcript_bytes_pinned(capsys, params, sha256):
    code, out, _ = run(capsys, "certify", "--params", params, "--sweep-transcript")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def _fail(*args):
    raise AssertionError("work done before the size bound was checked")


def test_certify_sweep_bound_exits_2(capsys, monkeypatch):
    # the (324, 152, 70, 72) shape scaled by 10^7 needs 4.1e8 sweep sizes
    monkeypatch.setattr(certify, "obstruction_quadratic", _fail)
    monkeypatch.setattr(certify, "_cleared", _fail)
    code, out, err = run(
        capsys, "certify", "--params", "3240000000,1520000000,700000000,720000000",
        "--sweep-transcript",
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "TooLargeError"


def test_scan_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(certify, "integral_multiplicities", _fail)
    code, out, err = run(capsys, "scan", "--max-n", "4097")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "TooLargeError"


def test_scan_csv_roundtrip(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--max-n", "30", "--out", str(path))
    assert code == 0
    rows = parse_csv(path.read_text())
    assert any(
        r["n"] == 29 and r["d"] == 14 and r["cond1"] == 1 and r["conference"] == 1
        for r in rows
    )
    assert any(
        r["n"] == 16 and r["d"] == 6 and r["alpha"] == 2
        and not any(r[c] for c in ("cond1", "cond2", "cond3", "cond4", "cond5", "hlx", "ll"))
        for r in rows
    )


def test_scan_1024_stdout_pinned(capsys):
    # sha256 of the stdout of `scan --max-n 1024` from the (n, d, j) search
    code, out, _ = run(capsys, "scan", "--max-n", "1024")
    assert code == 0
    assert len(parse_csv(out)) == 8862
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "aa0ed8b487a3a1b08a87c9350bdcf75c3bd3ed783901476b23a0ecd96a2246e0"
    )


def test_verify_conjecture_30_stdout_pinned(capsys):
    # sha256 of the stdout of `verify-conjecture --gamma-max 30` when every
    # edge's report was built and compared
    code, out, _ = run(capsys, "verify-conjecture", "--gamma-max", "30")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "af62afec6054fe36a58a1fbdb4084c19fa03cb22e9e3fe88dd740a4d3fbb96c7"
    )


def test_spectrum_params_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--params", "9,4,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda2"] == {"u": 9, "v": -1, "w": 8, "D": 9}
    assert doc["multiplicities"] == [1, 4, 4]


def test_spectrum_graph_includes_numerics(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    run(capsys, "gen", "--name", "petersen", "--out", str(gpath))
    code, out, _ = run(capsys, "spectrum", "--graph", str(gpath))
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["lambda2_numerical"] - 2 / 3) < 1e-9
    assert doc["params"] == [10, 3, 0, 1]


def test_sharpness_command(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    run(capsys, "gen", "--name", "paley", "--q", "9", "--out", str(gpath))
    code, out, _ = run(capsys, "sharpness", "--graph", str(gpath))
    doc = json.loads(out)
    assert code == 0
    assert doc["sharp"] is True
    assert doc["min_kappa"] == {"num": "3", "den": "4"}


def test_corollary_command(capsys):
    code, out, _ = run(capsys, "corollary", "--q", "13", "--mode", "exhaustive")
    doc = json.loads(out)
    assert code == 0
    assert doc["subsets_tested"] == 67 and doc["ok"] is True


@pytest.mark.parametrize(
    "args, error",
    [
        (
            ("--q", "29", "--mode", "sampled", "--seed", "1", "--trials", "0"),
            "InvalidOrderError",
        ),
        (("--q", "37", "--mode", "exhaustive"), "TooLargeError"),
        (
            ("--q", "13", "--mode", "sampled", "--seed", "1", "--trials", "1000000000000"),
            "TooLargeError",
        ),
        (
            ("--q", "13", "--mode", "sampled", "--seed", "1", "--trials", "1000001"),
            "TooLargeError",
        ),
    ],
)
def test_corollary_unbounded_inputs_exit_2(capsys, monkeypatch, args, error):
    def no_graph(q):
        raise AssertionError("P(q) built before the inputs were checked")

    monkeypatch.setattr(residues, "paley_graph", no_graph)
    code, out, err = run(capsys, "corollary", *args)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


def test_verify_conjecture_small(capsys):
    code, out, _ = run(capsys, "verify-conjecture", "--gamma-max", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["gammas"] == [2, 3, 4]
    assert doc["ok"] is True


def test_verify_conjecture_lists_every_edge_of_a_wrong_orbit(capsys, monkeypatch):
    # The translations alone split P(13) into three orbits of 13 edges,
    # first edges (0, 1), (0, 3) and (0, 4).  A wrong kappa on the root
    # (0, 3) must fail exactly the translates of (0, 3), in edge order.
    solved = []
    real = cli.lly_curvature

    def wrong_at_0_3(g, x, y):
        report = real(g, x, y)
        if g.n == 13:
            solved.append((x, y))
            if (x, y) == (0, 3):
                return dataclasses.replace(report, kappa=F(1))
        return report

    monkeypatch.setattr(cli, "paley_automorphisms", lambda q: paley_automorphisms(q)[:-1])
    monkeypatch.setattr(cli, "lly_curvature", wrong_at_0_3)
    code, out, _ = run(capsys, "verify-conjecture", "--gamma-max", "3")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert solved == [(0, 1), (0, 3), (0, 4)]
    p9, p13 = doc["results"]
    assert p9["all_match"] is True and p9["mismatches"] == []
    orbit = sorted({tuple(sorted((k % 13, (k + 3) % 13))) for k in range(13)})
    assert p13["edges"] == 39 and p13["all_match"] is False
    assert p13["mismatches"] == [
        {"edge": list(e), "kappa": {"num": "1", "den": "1"}} for e in orbit
    ]
    assert len(p13["mismatches"]) == 13


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--name", "paley", "--q", "65521"),
        ("verify-conjecture", "--gamma-max", "100000000"),
    ],
)
def test_paley_edge_bound_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "TooLargeError"


def test_config_echoed_in_output(capsys):
    code, out, _ = run(capsys, "spectrum", "--params", "9,4,1,2")
    doc = json.loads(out)
    assert doc["config"]["params"] == "9,4,1,2"
    assert doc["config"]["command"] == "spectrum"


def test_invalid_params_exit_code_two(capsys):
    code, _, err = run(capsys, "certify", "--params", "junk")
    assert code == 2
    assert "error" in err


def test_missing_file_exit_code_two(capsys):
    code, _, err = run(capsys, "curvature", "--graph", "/nonexistent/file.g6")
    assert code == 2


_BAD_GRAPH_FILES = [
    ("short-edge.json", b'{"n": 3, "edges": [[0]]}', "InvalidParamsError"),
    ("edges-not-a-list.json", b'{"n": 3, "edges": 5}', "InvalidParamsError"),
    ("not-utf8.g6", b"\xff\xfe{", "InvalidParamsError"),
    ("huge-n.json", b'{"n": 1000000000, "edges": []}', "TooLargeError"),
    ("many-edges.json", b'{"n": 3, "edges": [' + b"[0,1]," * 2**18 + b"[0,1]]}", "TooLargeError"),
    ("huge-n.g6", b"~~@?????", "TooLargeError"),  # n = 2^30
    ("k725.g6", b"~?JT" + b"~" * 43742, "TooLargeError"),  # K_725: 262,450 edges
]


@pytest.mark.parametrize(
    "command",
    [("curvature",), ("match", "--edge", "0,1"), ("spectrum",), ("sharpness",)],
    ids=lambda command: command[0],
)
def test_bad_graph_files_exit_2(tmp_path, capsys, command):
    for name, data, error in _BAD_GRAPH_FILES:
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, command[0], "--graph", str(path), *command[1:])
        assert (code, out, json.loads(err)["error"]) == (2, "", error), name
