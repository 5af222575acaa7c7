"""Byte-identity of the demos: each script in `demos/` runs in a fresh
interpreter and its stdout must equal the recorded file
`tests/golden/demos/<name>.out`.

To record the files after an intended output change, run
`for f in demos/*.py; do PYTHONPATH=src python "$f" > tests/golden/demos/$(basename "$f" .py).out; done`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_the_recorded_bytes(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()
