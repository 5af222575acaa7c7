"""Run one `wittcert` invocation under the benchmark's tracer.

    python3 bench/trace_child.py <verb> '<json>' [options]

Stdout is exactly the CLI's, and is closed before the report is written, so
a parent that reads stdout to its end and then stderr cannot block on a full
pipe.  The last line of stderr is a JSON object with the tracer's aggregate
plus `import_s` (importing wittcert.cli) and `run_s` (the call to `main`).
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402

t0 = perf_counter()
import wittcert.cli  # noqa: E402

import_s = perf_counter() - t0
tracer = Tracer()
tracer.install()
t1 = perf_counter()
try:
    code = wittcert.cli.main(sys.argv[1:])
finally:
    run_s = perf_counter() - t1
    sys.stdout.close()
    report = tracer.snapshot()
    report.update(import_s=import_s, run_s=run_s)
    print(json.dumps(report), file=sys.stderr)
sys.exit(code)
