"""The benchmark's hooks into llycurv still resolve, and its self-tests pass.

bench/run.py traces llycurv functions by (module, name), its probes
import llycurv names directly, and its workloads run CLI command lines; a
rename or deletion in src/ would break the benchmark without failing any
other test.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from llycurv.cli import build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _replay_targets() -> list[tuple[str, str]]:
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REPLAY_TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/run.py defines no REPLAY_TARGETS")


def _llycurv_imports() -> list[tuple[str, str]]:
    """(module, name) for every `from llycurv... import name` under bench/."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "llycurv":
                found.extend((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend(
                    (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "llycurv"
                )
    return found


def test_replay_targets_resolve():
    targets = _replay_targets()
    assert ("families", "paley_graph") in targets
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"llycurv.{module}"), name, None)), (module, name)


def test_probe_imports_resolve():
    imports = _llycurv_imports()
    assert ("llycurv.fields", "is_nonzero_square") in imports
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # `from llycurv import cli`


@pytest.mark.parametrize("module, name", [("graphs", "all_pairs_distances"), ("families", "paley_graph")])
def test_a_missing_target_is_caught(monkeypatch, module, name):
    monkeypatch.delattr(importlib.import_module(f"llycurv.{module}"), name)
    with pytest.raises(AssertionError):
        test_replay_targets_resolve()


def test_bench_command_lines_parse(tmp_path, monkeypatch):
    # Every batch and query argv the workloads hand to the CLI still parses,
    # so dropping or renaming an option they pass fails here.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    parser = build_parser()
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        inp = workload.generate(1, workdir)
        for argv in [*workload.batch(inp), *workload.queries(inp)]:
            try:
                parser.parse_args(list(argv))
            except SystemExit:
                pytest.fail(f"{name}: `{' '.join(argv)}` does not parse")


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
