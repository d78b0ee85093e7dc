"""Command-line interface: dispatch, determinism, round trips, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from llycurv import certify, cli, families, graphio, residues, spectral, transport
from llycurv.cli import main
from llycurv.graphio import load_graph, to_graph6, to_json
from llycurv.graphs import Graph
from llycurv.families import (
    cycle_graph,
    hypercube_graph,
    paley_graph,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
)
from helpers import parse_csv

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


# tests/data/rrg40_8.g6 is helpers.random_regular_graph(40, 8, seed=3), stored so the
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


def test_sharpness_builds_no_curvature_report(capsys, monkeypatch):
    # The least kappa comes from the largest edge cost alone.
    def refuse(*args, **kwargs):
        raise AssertionError("sharpness built a curvature report")

    monkeypatch.setattr(transport, "curvature_spectrum", refuse)
    monkeypatch.setattr(cli, "curvature_spectrum", refuse)
    monkeypatch.setattr(transport, "_edge_report", refuse)
    monkeypatch.chdir(DATA)
    code, out, _ = run(capsys, "sharpness", "--graph", _RRG40)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fe5397efddc9e6f29472484db36ebb26ffa81c4464bd0a83c57e57a75f8313f1"
    )


def test_cayley_family_stdout_pinned(capsys):
    # the python-floor CI job checks the same hash on Python 3.10
    code, out, _ = run(capsys, "gen", "--name", "shrikhande")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "003ed13bf7a90f30e4ae7df67289bbf39dab19058093845a3dbcda433490106b"
    )


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


def test_sharp_edge_witnesses_pinned(tmp_path, capsys, monkeypatch):
    # Every edge of P(29) is sharp, and on 148 of its 406 directed edges
    # the lex-first witness differs from the greedy perfect matching of H1
    # (on P(13) it differs on none of 78), so this pins the lex-first pass.  The
    # hash is of the stdout the list-based `_lex_first_tight_assignment`
    # printed.
    (tmp_path / "p29.g6").write_text(to_graph6(paley_graph(29)) + "\n")
    monkeypatch.chdir(tmp_path)
    outs = []
    for x, y in paley_graph(29).edges():
        for a, b in ((x, y), (y, x)):
            code, out, _ = run(capsys, "curvature", "--graph", "p29.g6", "--edge", f"{a},{b}")
            assert code == 0
            outs.append(out)
    assert len(outs) == 406 and all(json.loads(out)["sharp"] for out in outs)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "3d6da071f890b85a78f2313c8f12e5a6550eea2801691b0964d82525a4198470"
    )


# No directed edge of these graphs has a perfect local matching, so every
# `match` document carries a Hall violator.  The hashes are of the stdout
# printed when the violator came from the list-based alternating reach; the
# rrg40_8 `--witness` hash is of that stdout with its pairs replaced by
# `helpers.lex_first_maximum_reference` (on Petersen and Shrikhande the
# pairs Hopcroft-Karp printed were already the lex-first ones).
_MATCH_GRAPHS = {
    "rrg40_8.g6": lambda: load_graph(DATA / _RRG40),
    "pet.g6": petersen_graph,
    "shri.g6": shrikhande_graph,
}


@pytest.mark.parametrize(
    "name, witness, sha256",
    [
        ("rrg40_8.g6", False, "5070b6c0c94adae249143edf772e20e9467b7fd110ebae18a1207e83a19d61c4"),
        ("rrg40_8.g6", True, "8b66cfa18988c106fb8c0df2878f06b1a6ca35c61b1550e543dbffb06c637851"),
        ("pet.g6", False, "3fd5842dbb3d3634750aae36d82c66aa93fec93de5336a338cd07b751507449c"),
        ("pet.g6", True, "9cb2224813694dec4795a0123619be8b6aac5f3855c7d0b8c7baf384de6ceb97"),
        ("shri.g6", False, "a4f6c7eca5703aa6f7f6f5527ee12708a9c4314d70729e8671d52378ff57840a"),
        ("shri.g6", True, "6211c1f119343ce5615280cc813eeb3a744f66a4223d4cce43e48089dea69a87"),
    ],
)
def test_deficient_match_stdout_pinned(tmp_path, capsys, monkeypatch, name, witness, sha256):
    g = _MATCH_GRAPHS[name]()
    (tmp_path / name).write_text(to_graph6(g) + "\n")
    monkeypatch.chdir(tmp_path)
    outs = []
    for x, y in g.edges():
        for a, b in ((x, y), (y, x)):
            argv = ["match", "--graph", name, "--edge", f"{a},{b}"] + ["--witness"] * witness
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            outs.append(out)
    assert len(outs) == 2 * g.edge_count and all("violator" in json.loads(out) for out in outs)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == sha256


def test_match_witness_is_the_curvature_witness_on_sharp_edges(tmp_path, capsys, monkeypatch):
    # On a sharp edge the lex-first perfect matching of H(x, y) is both the
    # `match --witness` pairs and the `curvature --edge` witness, in both
    # orientations, on every edge of the catalog and of P(29).
    graphs = {f"g{k}.g6": e.graph for k, e in enumerate(families.catalog())}
    graphs["p29.g6"] = paley_graph(29)
    monkeypatch.chdir(tmp_path)
    sharp = {}
    for name, g in graphs.items():
        (tmp_path / name).write_text(to_graph6(g) + "\n")
        sharp[name] = 0
        for x, y in g.edges():
            for a, b in ((x, y), (y, x)):
                edge = ["--graph", name, "--edge", f"{a},{b}"]
                matched = json.loads(run(capsys, "match", *edge, "--witness")[1])
                curvature = json.loads(run(capsys, "curvature", *edge)[1])
                assert matched["perfect"] == curvature["sharp"], (name, a, b)
                if curvature["sharp"]:
                    sharp[name] += 1
                    assert matched["pairs"] == curvature["witness"], (name, a, b)
    assert sharp["p29.g6"] == 406 and sum(sharp.values()) > 1000


# Every command's (exit code, stdout, stderr), plus the --out file when one
# is written, hashed as the CLI printed them before `main` became its one
# writer.  The commands run from a directory holding p13.g6 = P(13) (every
# edge sharp) and pet.g6 = Petersen (no edge sharp), so the echoed config
# paths are fixed.  `spectrum --graph` and `sharpness` print numpy's float
# lambda2, so their pins assume the same numpy/BLAS build as the recording,
# as the rrg40_8 `sharpness` pin does.
_PINNED = [
    (
        ("gen", "--name", "paley", "--q", "13"),
        "923cd31a9d05145c51985469a97395e3dc87776f6a04fd50ffb55344efa248f8",
    ),
    (
        ("gen", "--name", "petersen", "--format", "json"),
        "80af2eec8dcc3e58e389552f6c23b7e4dc54e6691f29d60139ae030b9fa61d90",
    ),
    (
        ("gen", "--name", "nope"),
        "eae200782161e050e26cd260d7872b363bd243bcad76c837495c6c28843c38b7",
    ),
    (
        ("curvature", "--graph", "p13.g6"),
        "2abbf661b779c302162aeca3a2b5c1ca9119d31e415c0c55dde956de9354937a",
    ),
    (
        ("curvature", "--graph", "p13.g6", "--format", "csv"),
        "9141be32560d2cf94cdd23ce1f51ec9013f8e416cb39b250792708e8df07ada5",
    ),
    (
        ("curvature", "--graph", "p13.g6", "--edge", "0,1"),
        "630f9821fc4b492c05fdb4cd65d1fe835534cdb5a58107873fb4917846ac35e1",
    ),
    (
        ("curvature", "--graph", "p13.g6", "--threads", "2"),
        "3c1d78caa4e0618a753a44745e259bede0c52eee874e3e3fb49d7614be5b3cdc",
    ),
    (
        ("curvature", "--graph", "pet.g6"),
        "bd018914c536fad4f089f40e098813cce17debfaae4734140d508bb580795715",
    ),
    (
        ("curvature", "--graph", "pet.g6", "--format", "csv"),
        "0d725445ee855fc3aaf8c2eb82389a17d10f559e950cec0000508ed286c9672c",
    ),
    (
        ("curvature", "--graph", "pet.g6", "--edge", "7,0"),
        "18935c93378b1c612207330ed090845e880b3be7e0382dc9b4d5e23d7b1606fb",
    ),
    (
        ("curvature", "--graph", "pet.g6", "--out", "pet.json"),
        "8810c374282073b47eaa82d2c254f91d4e96f20fcfdda74cc133ea4eac2b53cf",
    ),
    (
        ("match", "--graph", "p13.g6", "--edge", "0,1"),
        "4c288cf61bf76f64f04eab034b3c59fb4cf14846598e87d4e89606184b772b03",
    ),
    (
        ("match", "--graph", "p13.g6", "--edge", "0,1", "--witness"),
        "d3fc398be9ccaf8d755386d9face13d4067e1008772ec6b9440ba1848f295a01",
    ),
    (
        ("match", "--graph", "pet.g6", "--edge", "0,7"),
        "66bbdc8826567f02a7d4657f1b2d8b33174c2619c51ffc09874eba6d82418492",
    ),
    (
        ("match", "--graph", "pet.g6", "--edge", "0,7", "--witness"),
        "4a9948294bf2b2163a94fda82cb9ac4302881e97e55d99ae7888aadfd4c8adef",
    ),
    (
        ("certify", "--params", "29,14,6,7"),
        "6fd4da5fde4ba12a572a9672b90cd495672351292721599efaad93787e23ec22",
    ),
    (
        ("certify", "--params", "324,152,70,72"),
        "acaa77cc5025a014da380dcef08a9988d77d02b3844b76c579a882a6124d4420",
    ),
    (
        ("certify", "--params", "16,6,2,2"),
        "1e55720a7728d02140a3bb1cd1e62cf5950746c95c6f15e7a3bbf8209f982b74",
    ),
    (
        ("scan", "--max-n", "60"),
        "e2e3a5e24e0b1ae92998b614973b85b3a528214237b6a6ab35ab8b2939e25be1",
    ),
    (
        ("scan", "--max-n", "60", "--out", "scan.csv"),
        "7c163ac75f51cf355938c8f9f6a73a15644a49f8db8e249d0623385cc7e48417",
    ),
    (
        ("spectrum", "--params", "9,4,1,2"),
        "c0722d3dfa3773cf7d29aeb59a3956d5f30a9ca3b2749b0fb3be1b78810cdffa",
    ),
    (
        ("spectrum", "--graph", "pet.g6"),
        "9d3ecc3a7cbe215ec1f8c139c7d98bf6803d63bc79c45e5acb08b013badcfcd2",
    ),
    (
        ("sharpness", "--graph", "p13.g6"),
        "46c859e099faee908a25e9482318548f1083d8e877f64d95279285130709a328",
    ),
    (
        ("sharpness", "--graph", "pet.g6"),
        "3669bd4c02fb46ad4245e5f3085409caa79b063844cac7670c82de1553a5ae68",
    ),
    (
        ("corollary", "--q", "13"),
        "0e1c36aa2d602301030c4668d45eadaa1d85f051bd685a429508bd2d8602be93",
    ),
    (
        ("corollary", "--q", "29", "--mode", "sampled", "--seed", "1", "--trials", "500"),
        "81d5834abfcbabac42b2a45021b5e3bc955e27d2d2648cadbe5db8698658ca5a",
    ),
    (
        ("verify-conjecture", "--gamma-max", "12"),
        "b5231c92fc466f01a5cdb9cd5c24e60dfd3e2415029ffa4e0b23d89020030cdc",
    ),
    (
        ("curvature", "--graph", "pet.g6", "--edge", "0,2"),
        "5fc81bc4bee84e4a114e34f2c535c0d9ba6519843959b1c1bc0216978246899f",
    ),
    (
        ("match", "--graph", "pet.g6", "--edge", "0,2"),
        "5fc81bc4bee84e4a114e34f2c535c0d9ba6519843959b1c1bc0216978246899f",
    ),
    (
        ("curvature", "--graph", "pet.g6", "--edge", "0,7,1"),
        "35844c29851a599c353708f58fead887f56759f3679038ddf7d421fca5811db0",
    ),
    (
        ("match", "--graph", "pet.g6", "--edge", "x"),
        "0ff7e1d32ed7b20fe2786abe133efd6158fec89101435bc8ba3931a992de195d",
    ),
    (
        ("spectrum", "--params", "9,4,1"),
        "5f8daf1364b7957f35ff4246b809bdc15f759fcf13cccbae64cb8230dabb7174",
    ),
    (
        ("curvature", "--graph", "pet.g6", "--threads", "x"),
        "106346b6a3ea2232720705be59e22458619bc95fe2bf44bd7cec841e27a8304c",
    ),
    (
        ("corollary", "--q", "13", "--out", "c.json"),
        "b31f8fc2d319f8d89f372adbba004cf74c2468cbc247cac40038528636a83ca4",
    ),
    (
        ("certify", "--params", "junk"),
        "494554414117d8ef27ddea47ab38697092859f13f6d7993f680cbbe734caf00f",
    ),
    (
        ("curvature", "--graph", "missing.g6"),
        "a0923ffffedd63b9e8c6bf9a81fc1334e0f6c8f6bdb6f243fe642d9fa9ca91e6",
    ),
    (
        ("corollary", "--q", "7"),
        "69879c812d83982b1d83fc6c39db9dbd3099b427624e6bb6ce23a666ff87cd7b",
    ),
    (
        ("scan", "--max-n", "5000"),
        "9bcecbe434beee92009255ea14cca11343ce09de4c9658635a05316513fd1f00",
    ),
    (
        ("certify", "--params", "29,14,6,7", "--out", "nodir/c.json"),
        "2729ee28348cd5b2afc2ba7b540fab50b8de8dc95187ed8601c8dc29e3bd4eeb",
    ),
    # No Paley graph has gamma below 2: recorded when such a run, which
    # verified nothing, became an error.
    (
        ("verify-conjecture", "--gamma-max", "1"),
        "90f0c4d0ac531973c493031253d8f5458767a51703b548a907eea5639170cf30",
    ),
    (
        ("verify-conjecture", "--gamma-max", "0"),
        "d4e712839140c25e3fd23371d23625d8b303ce9236b236dd4b345fc2d9f5ef01",
    ),
    (
        ("verify-conjecture", "--gamma-max", "-5"),
        "375c4b78188db7212e430e49c1a25efc671c5599e1bb8bc3c000b45457c1c34a",
    ),
    # Usage, help and parse errors, recorded while `main` built the full
    # parser for every argv.
    ((), "08272e4467e53589feb2587ed1ccecb8b87ab523b7947a2adc0e27cd691c8fda"),
    (("nope",), "46767e32620c014100f386fd34f28b49949fbadb2a36526421c36c0d2e0730bf"),
    (("--help",), "fd23173bad871ee6459385464d516e8b612af3a17244c1d1edee10c1b2acadbb"),
    (
        ("curvature", "--help"),
        "a6330ade7c3caef1869e647bf90d7ff34a10f61e1e81baf0c282ee0baff250c2",
    ),
    (
        ("curvature", "--graph", "p13.g6", "--bogus"),
        "d54437b9fbd10af0949c682d5a8a933fe6652219412e4c2664279e1282146dcb",
    ),
    (
        ("--bogus", "scan", "--max-n", "60"),
        "d54437b9fbd10af0949c682d5a8a933fe6652219412e4c2664279e1282146dcb",
    ),
    (
        ("match", "--graph", "p13.g6", "--edge", "0,1", "extra"),
        "a2be4970220eac0547e2d66e0a4b1ea0ab287d973df8fa72673a22dfdf68474c",
    ),
    (
        ("spectrum", "--params", "9,4,1,2", "--graph", "pet.g6"),
        "3dd197befe47e4f06871e983b528321901066aceda2ff37209df3c7f895c729c",
    ),
    (
        ("scan", "--max", "60"),
        "e2e3a5e24e0b1ae92998b614973b85b3a528214237b6a6ab35ab8b2939e25be1",
    ),
]
_PINNED_IDS = [" ".join(argv) or "no args" for argv, _ in _PINNED]

# The pinned argvs that only the full parser answers: no command or an
# unknown one, a top-level option, or an argument the command leaves over.
_FULL_PARSER_ARGVS = {
    (),
    ("nope",),
    ("--help",),
    ("curvature", "--graph", "p13.g6", "--bogus"),
    ("--bogus", "scan", "--max-n", "60"),
    ("match", "--graph", "p13.g6", "--edge", "0,1", "extra"),
}


@pytest.fixture
def pin_dir(tmp_path, monkeypatch):
    (tmp_path / "p13.g6").write_text(to_graph6(paley_graph(13)) + "\n")
    (tmp_path / "pet.g6").write_text(to_graph6(petersen_graph()) + "\n")
    monkeypatch.chdir(tmp_path)
    # argparse wraps usage and help at $COLUMNS; the pins were recorded at 80.
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


def _command_bytes(capsys, argv) -> bytes:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    record = [code, captured.out, captured.err]
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        record.append(out.read_text() if out.exists() else None)
    return json.dumps(record).encode()


@pytest.mark.parametrize("argv, sha256", _PINNED, ids=_PINNED_IDS)
def test_command_bytes_pinned(pin_dir, capsys, argv, sha256):
    assert hashlib.sha256(_command_bytes(capsys, argv)).hexdigest() == sha256


# The graph-level refusals of the whole-graph commands, recorded while both
# `curvature` and `sharpness` built a full curvature spectrum.
_GRAPH_REFUSALS = [
    (
        {"n": 3, "edges": [[0, 1], [1, 2]]},
        '{"error": "NotRegularError", "message": "curvature spectrum needs a regular graph"}\n',
    ),
    (
        {"n": 3, "edges": []},
        '{"error": "InvalidParamsError", "message": "graph has no edges"}\n',
    ),
    (
        {"n": 6, "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]},
        '{"error": "DisconnectedError", "message": "curvature spectrum needs a connected graph"}\n',
    ),
]


@pytest.mark.parametrize("command", ["curvature", "sharpness"])
@pytest.mark.parametrize(
    "doc, err", _GRAPH_REFUSALS, ids=["irregular", "edgeless", "disconnected"]
)
def test_whole_graph_refusals_pinned(tmp_path, capsys, command, doc, err):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(doc))
    assert run(capsys, command, "--graph", str(gpath)) == (2, "", err)


@pytest.mark.parametrize(
    "q, digests",
    [
        (13, (
            "b7918fa3b0da3f1fbcaf56c79116de4e2502bb0e212cebdd72fc53c93da72f67",
            "ac3595e55407cb508906d7a50f1d63de705d8ee4b4c725e35caf3fa95ab4cc38",
            "cad0cbfaf80ceb90c1e23b4844bbbedbe542c90acc4baaaa2fd36dc121a6323f",
        )),
        (25, (
            "3aee836ee2e81d1ec94b0082a96de7f8dbeae5da673ee4c270317c4cf994d363",
            "93f31eaef21b45e78f570d04586b03bab94fd20a4d6261802cb4423f53dcf2dc",
            "4b04c9d8db7ccd541da0d2f3e5e49ef6fec68fc532184fb152af662e429a6e1e",
        )),
        (37, (
            "fc5acf0fbed496f6b5478546805a4368af3d90025c912ba6f96051b7f771a104",
            "5b82818ffbc7cacbf7a3c05d157df1400b76c0869d34b7818ca572d1e29625f6",
            "cc8ee492b9688e208617b9daedd88e34dc67d044e8e7af288fea98d8a2071279",
        )),
        (61, (
            "dbd865cc735e4a37d37308ab05317f93b3cb7a7046ceb8d2da9628b8f80c0adb",
            "f0522c4be0b4e43c105d0e2c5cdfcc2eef257d309bf43e3c3b71f3815c674698",
            "0acd4a8ed87866f3df4f0bf603c77f1de296b653f0c53c89d0faf2d44dfaf1c7",
        )),
    ],
)
def test_sampled_corollary_stdout_pinned(capsys, q, digests):
    # Seeds 0, 1 and 2 with 3,000 trials.  The corollary holds, so stdout
    # lists no subset; tests/test_residues.py pins the draws themselves.
    for seed, digest in enumerate(digests):
        argv = ("corollary", "--q", str(q), "--mode", "sampled", "--seed", str(seed))
        code, out, err = run(capsys, *argv, "--trials", "3000")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


def test_main_builds_the_full_parser_only_for_the_top_level_answers(pin_dir, capsys, monkeypatch):
    # Every other pinned argv, success or error, is parsed by its command's
    # parser alone; build_parser is called only where its usage is printed.
    calls, real = [], cli.build_parser

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv, sha256 in _PINNED:
        calls.clear()
        assert hashlib.sha256(_command_bytes(capsys, argv)).hexdigest() == sha256, argv
        assert len(calls) == (argv in _FULL_PARSER_ARGVS), argv


@pytest.mark.parametrize("argv", [("corollary", "--q", "13"), *sorted(_FULL_PARSER_ARGVS)])
def test_main_reads_the_terminal_width_once(pin_dir, capsys, monkeypatch, argv):
    # Left to itself argparse reads it for every formatter it builds, one
    # per argument added; a call that builds both parsers reads it once too.
    calls, real = [], shutil.get_terminal_size

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    _command_bytes(capsys, argv)
    assert len(calls) == 1, argv


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_command_help_matches_the_full_parsers(pin_dir, capsys, name):
    # A command's own parser prints the help of its subparser in build_parser.
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([name, "--help"])
    full = capsys.readouterr()
    assert _command_bytes(capsys, (name, "--help")) == json.dumps([0, full.out, full.err]).encode()


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["certify", "--params", "9,4,1,2"]
    monkeypatch.setattr(sys, "argv", ["llycurv", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == run(capsys, *argv)
    assert code == 0 and json.loads(captured.out)["params"] == [9, 4, 1, 2]


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("curvature", "--graph", "pet.g6"),
        ("sharpness", "--graph", "pet.g6"),
        ("verify-conjecture", "--gamma-max", "4"),
    ],
    ids=lambda argv: argv[0],
)
def test_threads_below_one_exit_2(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument --threads: must be at least 1, got {value}" in captured.err


@pytest.mark.parametrize(
    "options, conflict",
    [
        (("--format", "csv"), "--format"),
        (("--threads", "2"), "--threads"),
        (("--format", "csv", "--threads", "3"), "--format"),
    ],
    ids=["format", "threads", "both"],
)
def test_curvature_edge_refuses_options_it_cannot_honour(pin_dir, capsys, options, conflict):
    # One edge is answered as one JSON document in this process, so a
    # non-default --format or --threads is an error, not a silent echo.
    argv = ["curvature", "--graph", "pet.g6", "--edge", "0,7", *options]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "LlycurvError"
    assert error["message"].startswith(f"--edge takes no {conflict} ")
    code, out, _ = run(capsys, *argv[:5], "--format", "json", "--threads", "1")
    assert code == 0 and json.loads(out)["config"]["threads"] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("corollary", "--q", "13", "--seed", "1"),
            "--mode exhaustive takes no --seed, got 1",
        ),
        (
            ("corollary", "--q", "13", "--mode", "exhaustive", "--trials", "5"),
            "--mode exhaustive takes no --trials, got 5",
        ),
        (
            ("verify-conjecture", "--gamma-max", "4", "--threads", "2"),
            "verify-conjecture takes no --threads other than 1, got 2",
        ),
    ],
    ids=["corollary-seed", "corollary-trials", "verify-conjecture-threads"],
)
def test_options_a_run_never_uses_exit_2(capsys, monkeypatch, argv, message):
    # Exhaustive mode draws no sample and verify-conjecture solves one edge
    # orbit per graph, so these options would be echoed in config unused.
    def no_graph(q):
        raise AssertionError("P(q) or its root split built before the options were checked")

    monkeypatch.setattr(residues, "_paley_root_split", no_graph)
    monkeypatch.setattr(cli, "paley_graph", no_graph)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "LlycurvError", "message": message}


def test_verify_conjecture_threads_1_is_the_default_run(capsys):
    code, out, _ = run(capsys, "verify-conjecture", "--gamma-max", "4", "--threads", "1")
    assert code == 0 and json.loads(out)["config"]["threads"] == 1
    assert run(capsys, "verify-conjecture", "--gamma-max", "4") == (code, out, "")


def test_console_entry_matches_main(capsys):
    # `python -m llycurv.cli` runs the same `main` as the console script.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def entry(*argv):
        return subprocess.run(
            [sys.executable, "-m", "llycurv.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = entry("certify", "--params", "324,152,70,72")
    assert done.returncode == 0
    assert done.stdout == run(capsys, "certify", "--params", "324,152,70,72")[1]
    failed = entry("corollary", "--q", "7")
    assert failed.returncode == 2 and failed.stdout == ""
    assert json.loads(failed.stderr)["error"] == "InvalidOrderError"


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


def test_edge_queries_on_graph6_build_no_row(tmp_path, capsys, monkeypatch):
    # The graph6 reader builds only the neighbour masks, and `curvature
    # --edge` and `match` read nothing else: with every read of the rows
    # made to fail, their output is unchanged.  The rrg edges fall back to
    # the second matching (2-balls) and carry Hall violators.
    paley = tmp_path / "p13.g6"
    run(capsys, "gen", "--name", "paley", "--q", "13", "--out", str(paley))
    queries = [
        (command, "--graph", str(path), "--edge", edge, *extra)
        for path, edges in ((paley, ("0,1", "4,0")), (DATA / "rrg40_8.g6", ("0,2", "30,0")))
        for edge in edges
        for command, *extra in (("curvature",), ("match", "--witness"))
    ]
    expected = [run(capsys, *argv) for argv in queries]
    assert all(code == 0 for code, _, _ in expected)

    def no_rows(self):
        raise AssertionError("a row was built")

    monkeypatch.setattr(Graph, "_adj", property(no_rows))
    assert [run(capsys, *argv) for argv in queries] == expected


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
    monkeypatch.setattr(certify, "_first_feasible", _fail)
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


# sha256 of the stdout of `verify-conjecture --gamma-max 30` when every
# edge's report was built and compared
_VERIFY_CONJECTURE_30_SHA256 = "af62afec6054fe36a58a1fbdb4084c19fa03cb22e9e3fe88dd740a4d3fbb96c7"


def test_verify_conjecture_30_stdout_pinned(capsys):
    code, out, _ = run(capsys, "verify-conjecture", "--gamma-max", "30")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_CONJECTURE_30_SHA256


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
    "q, sha256",
    [
        (17, "3081b9d6c0e2a01f4aebd82fd8f062103904def6fae6f9c0f52eafb055733728"),
        (29, "1960110bda64d26caf566e5100a969950cb74b543ff0d49f3749c9607365c75b"),
    ],
)
def test_exhaustive_corollary_stdout_pinned(capsys, q, sha256):
    # Recorded while each kept subset was enumerated directly, before the
    # enumeration went over the removed sets.
    code, out, err = run(capsys, "corollary", "--q", str(q), "--mode", "exhaustive")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


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
    def no_split(q):
        raise AssertionError("the root split of P(q) built before the inputs were checked")

    monkeypatch.setattr(residues, "_paley_root_split", no_split)
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
    # The edges of P(13) are one orbit, so a wrong kappa on its root edge
    # fails every edge, listed in edge order with that kappa; P(9) is
    # untouched.
    real = cli.paley_kappa
    monkeypatch.setattr(cli, "paley_kappa", lambda q: F(1) if q == 13 else real(q))
    code, out, _ = run(capsys, "verify-conjecture", "--gamma-max", "3")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    p9, p13 = doc["results"]
    assert p9["all_match"] is True and p9["mismatches"] == []
    squares = {k * k % 13 for k in range(1, 13)}
    edges = [[u, v] for u in range(13) for v in range(u + 1, 13) if v - u in squares]
    assert p13["edges"] == 39 and p13["all_match"] is False
    assert p13["mismatches"] == [{"edge": e, "kappa": {"num": "1", "den": "1"}} for e in edges]
    assert len(p13["mismatches"]) == 39


def test_verify_conjecture_builds_no_graph(capsys, monkeypatch):
    # On the success path each order is decided from its squares alone.
    def no_graph(*args):
        raise AssertionError("a graph was built")

    for module, name in ((families, "_cayley_graph"), (families, "paley_graph"), (cli, "paley_graph")):
        monkeypatch.setattr(module, name, no_graph)
    monkeypatch.setattr(Graph, "__init__", no_graph)
    monkeypatch.setattr(Graph, "_from_rows", no_graph)
    code, out, _ = run(capsys, "verify-conjecture", "--gamma-max", "30")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_CONJECTURE_30_SHA256


def test_verify_conjecture_252_stdout_pinned(capsys):
    # sha256 of the stdout of `verify-conjecture --gamma-max 252` when every
    # edge was labelled by its orbit under the affine generators
    code, out, _ = run(capsys, "verify-conjecture", "--gamma-max", "252")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "34c4ed41f34903032e011e9fd360254ca84c8e9ca3e5673cecd8bb3391c7a602"
    )


@pytest.mark.parametrize("gamma_max", ["1", "0", "-5"])
def test_verify_conjecture_gamma_max_below_2_exits_2_before_any_work(capsys, monkeypatch, gamma_max):
    # No Paley graph has gamma below 2, so such a run would verify nothing.
    def no_orders(gamma_max):
        raise AssertionError("orders listed before --gamma-max was checked")

    monkeypatch.setattr(cli, "paley_gamma_orders", no_orders)
    code, out, err = run(capsys, "verify-conjecture", "--gamma-max", gamma_max)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "InvalidParamsError",
        "message": f"--gamma-max must be at least 2, got {gamma_max}",
    }


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


def test_graph6_bound_exits_2_before_building_the_bits(capsys, monkeypatch):
    # The cycle on 2^18 vertices is inside the edge bound, but its graph6
    # string would spend a character on each of its 3.4e10 vertex pairs.
    monkeypatch.setattr(graphio, "neighbor_masks", _fail)
    code, out, err = run(capsys, "gen", "--name", "cycle", "--n", "262144")
    assert (code, out, json.loads(err)["error"]) == (2, "", "TooLargeError")


def test_neighbor_mask_bound_exits_2_before_any_mask(tmp_path, capsys):
    # The JSON cycle on 2^15 vertices needs about 2^29 mask bits (64 MiB),
    # past the 2^28-bit bound, which is checked from the rows alone: the
    # run never holds even half of the masks.
    import tracemalloc

    path = tmp_path / "cycle.json"
    path.write_text(to_json(cycle_graph(2**15)))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "curvature", "--graph", str(path), "--edge", "0,1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, json.loads(err)["error"]) == (2, "", "TooLargeError")
    assert "neighbor masks" in json.loads(err)["message"]
    assert peak < 2**25


@pytest.mark.parametrize("command", ["spectrum", "sharpness"])
def test_numerical_lambda2_bound_exits_2_before_numpy(tmp_path, capsys, monkeypatch, command):
    # A cycle has no SRG parameters, so both commands need the numerical
    # lambda2; one vertex past the bound they exit 2, and an import of
    # numpy (blocked here) would fail the test instead.
    path = tmp_path / "cycle.json"
    path.write_text(to_json(cycle_graph(spectral._DENSE_VERTICES + 1)))
    monkeypatch.setitem(sys.modules, "numpy", None)
    code, out, err = run(capsys, command, "--graph", str(path))
    assert (code, out, json.loads(err)["error"]) == (2, "", "TooLargeError")


def _past_dense_bound(kind):
    # (n, file text) of a graph of each kind above numerical_lambda2's
    # bound of 4,096 vertices.
    if kind == "hypercube13":  # regular and connected, not strongly regular
        return 8192, to_graph6(hypercube_graph(13)) + "\n"
    n = spectral._DENSE_VERTICES + 2
    half = n // 2
    edges = {
        "irregular": [[v, v + 1] for v in range(n - 1)],
        "edgeless": [],
        "disconnected": [[b + v, b + (v + 1) % half] for b in (0, half) for v in range(half)],
    }[kind]
    return n, json.dumps({"n": n, "edges": edges})


def _dense_refusal(n):
    return (
        '{"error": "TooLargeError", "message": "numerical lambda2 on %d vertices needs dense '
        '%d x %d matrices; the bound is 4096 vertices"}\n' % (n, n, n)
    )


@pytest.mark.parametrize("command", ["sharpness", "spectrum"])
@pytest.mark.parametrize(
    "kind, sharpness_err",
    [("hypercube13", _dense_refusal(8192))]
    + [(kind, err) for kind, (_, err) in zip(["irregular", "edgeless", "disconnected"], _GRAPH_REFUSALS)],
    ids=["hypercube13", "irregular", "edgeless", "disconnected"],
)
def test_dense_bound_refuses_before_the_whole_graph_work(
    tmp_path, capsys, monkeypatch, command, kind, sharpness_err
):
    # Past the bound only a strongly regular graph has an answer, so
    # sharpness refuses any other before its search, once the search's own
    # checks have passed, and spectrum before the classification.  Each
    # exits 2 with the message it gave when it refused after both.
    n, text = _past_dense_bound(kind)
    path = tmp_path / "g"
    path.write_text(text)
    monkeypatch.setattr(spectral, "_worst_cost", _fail)
    monkeypatch.setattr(cli, "classify_regularity", _fail)
    err = sharpness_err if command == "sharpness" else _dense_refusal(n)
    assert run(capsys, command, "--graph", str(path)) == (2, "", err)


def test_sharpness_answers_a_strongly_regular_graph_past_the_dense_bound(tmp_path, capsys, monkeypatch):
    # With the bound lowered below P(13)'s 13 vertices, sharpness still
    # answers it, byte for byte, from its closed-form spectrum.
    path = tmp_path / "p13.g6"
    path.write_text(to_graph6(paley_graph(13)) + "\n")
    answer = run(capsys, "sharpness", "--graph", str(path))
    assert answer[0] == 0
    monkeypatch.setattr(spectral, "_DENSE_VERTICES", 12)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert run(capsys, "sharpness", "--graph", str(path)) == answer


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
