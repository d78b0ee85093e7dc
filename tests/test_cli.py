"""Command-line interface: dispatch, determinism, round trips, exit codes."""

from __future__ import annotations

import hashlib
import json

import pytest

from llycurv import certify
from llycurv.cli import main, parse_csv
from llycurv.graphio import load_graph
from llycurv.families import paley_graph, rook_graph


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
    ],
)
def test_corollary_unbounded_inputs_exit_2(capsys, args, error):
    code, out, err = run(capsys, "corollary", *args)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


def test_verify_conjecture_small(capsys):
    code, out, _ = run(capsys, "verify-conjecture", "--gamma-max", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["gammas"] == [2, 3, 4]
    assert doc["ok"] is True


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
