"""The benchmark harness still runs against the engine: `bench/run.py
--selftest` (every checker rejects its planted bad outputs) and `--smoke`
(every workload on one round, traced and untraced, with every output
checked).  An engine API change that breaks `bench/` fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(flag: str) -> subprocess.CompletedProcess:
    # bench/run.py puts the checkout's src/ first on its own path; its smoke
    # run writes only to .bench_out/.
    return subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), flag],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_selftest_rejects_every_bad_output():
    proc = run_bench("--selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr


def test_smoke_run_is_correct_on_every_workload():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert results, proc.stdout
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result
