"""Every demo prints exactly its recorded output.

The files under tests/data/demos/ are the recorded outputs; regenerate one
with `PYTHONPATH=src python demos/NAME.py > tests/data/demos/NAME.txt` only
for a declared output change.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recorded_output():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "data" / "demos").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_byte_identical(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_bytes()
