"""wittcert benchmark: one command, three closed-loop workloads.

    python3 bench/run.py --workload {certify,decide,cli} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --selftest     # every checker rejects bad output
    python3 bench/run.py --smoke        # every workload on one round

One client with one operation in flight, and at most one child process at
a time.  The last line of stdout is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a separately traced pass with --trace 1.  A copy
of the result, and with --trace 1 the span aggregate, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 3      # fresh processes timed for setup_s; the median is reported
MIN_BEYOND = 10        # samples a tail percentile needs beyond it
WALL_LIMIT_S = 120.0   # stop the timed phase early rather than overrun a run


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def load_workloads():
    if not (ROOT / "src" / "wittcert" / "__init__.py").is_file():
        raise ImportError(f"no wittcert sources under {ROOT / 'src'}")
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    import workloads
    return workloads


def min_samples(q: int) -> int:
    """The fewest samples that leave MIN_BEYOND beyond the q-th percentile:
    40 for p75, 200 for p95."""
    return ceil(100 * MIN_BEYOND / (100 - q))


def tail(latencies: list[float], q: int) -> tuple[int, float]:
    """(percentile, value): the q-th percentile (nearest rank), or the median
    when too few samples leave MIN_BEYOND beyond it."""
    s = sorted(latencies)
    if len(s) < min_samples(q):
        return 50, statistics.median(s)
    return q, s[ceil(q / 100 * len(s)) - 1]


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh benchmark process until it is ready for
    its first timed operation (interpreter, imports, inputs, warm-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup process failed with status {proc.returncode}")
    return elapsed


class Tally:
    """Operations attempted and failed, and the checks on those that ran."""

    def __init__(self):
        self.attempted = self.checks = 0
        self.errors: dict[str, int] = {}    # operations that raised
        self.problems: dict[str, int] = {}  # checks that failed

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def run_round(self, wl, inputs) -> tuple[list, list[float], float]:
        outs, lat = [], []
        t_round = perf_counter()
        for inp in inputs:
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = wl.run(inp)
            except Exception as exc:  # an engine fault: count it, keep going
                _count(self.errors, f"{type(exc).__name__}: {exc}")
                outs.append(None)
                continue
            lat.append(perf_counter() - t0)
            outs.append(out)
        return outs, lat, perf_counter() - t_round

    def check(self, wl, inputs, outs) -> None:
        for inp, out in zip(inputs, outs):
            if out is not None:
                self.checks += 1
                for problem in wl.check(inp, out):
                    _count(self.problems, problem)

    def report(self) -> None:
        for what, counts in (("raised", self.errors), ("check failed", self.problems)):
            for detail, n in sorted(counts.items()):
                print(f"# {what} x{n}: {detail}", file=sys.stderr)


def _count(counts: dict, key: str) -> None:
    counts[key] = counts.get(key, 0) + 1


def result(tally: Tally, metrics: dict) -> dict:
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def emit(out: dict, name: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.json").write_text(json.dumps(out, indent=1))
    print(json.dumps(out))


def timed_run(workloads, args) -> int:
    setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tally, lat, busy, r = Tally(), [], 0.0, 0
    start = perf_counter()
    while busy < args.seconds or len(lat) < min_samples(wl.tail_pct):
        if perf_counter() - start > WALL_LIMIT_S:
            break
        inputs = wl.round_inputs(r)
        outs, round_lat, round_s = tally.run_round(wl, inputs)
        busy += round_s
        lat += round_lat
        tally.check(wl, inputs, outs)
        r += 1
        if not round_lat:
            break
    if not lat:
        tally.report()
        return _fail("no operation completed")
    # For cli the work happens in the children, so their peak counts.
    rss_kib = getattr(wl, "peak_rss_kib", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    q, tail_value = tail(lat, wl.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_per_s": (len(lat) / busy, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_value, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    print(f"# {args.workload} seed={args.seed}: {tally.attempted} operations in {r} rounds, "
          f"{busy:.2f} s timed; {tally.checks} outputs checked; latency_tail_s is p{q} "
          f"of n={len(lat)}; setup samples {[round(s, 4) for s in setups]}")
    tally.report()
    emit(result(tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}),
         f"{args.workload}-seed{args.seed}-trace0")
    return 0


def trace_passes(wl, rounds, tally: Tally) -> tuple[dict, float, float]:
    """Run the rounds traced and then untraced, check the outputs of both
    passes and require them to be equal.  Returns the span aggregate (the
    children's, for cli) and the time of each pass."""
    from tracer import Tracer, merge

    tracer, children = Tracer(), wl.name == "cli"
    if children:
        wl.trace = True  # its children trace themselves
    else:
        tracer.install()
    traced, traced_s = [], 0.0
    for inputs in rounds:
        outs, _, t = tally.run_round(wl, inputs)
        traced.append(outs)
        traced_s += t
    tracer.uninstall()
    wl.trace = False
    plain_s = 0.0
    for inputs, touts in zip(rounds, traced):
        outs, _, t = tally.run_round(wl, inputs)
        plain_s += t
        tally.check(wl, inputs, touts)
        tally.check(wl, inputs, outs)
        for a, b in zip(touts, outs):
            if a is not None and b is not None and not wl.same(a, b):
                _count(tally.problems, "traced output differs from untraced")
    snap = tracer.snapshot()
    snap["cli"] = {"cli.import_s": 0.0, "cli.run_s": 0.0, "cli.process_s": 0.0}
    for out in (o for outs in traced for o in outs if children and o is not None):
        merge(snap, out.spans)
        snap["cli"]["cli.import_s"] += out.spans["import_s"]
        snap["cli"]["cli.run_s"] += out.spans["run_s"]
        snap["cli"]["cli.process_s"] += out.wall_s - out.spans["import_s"] - out.spans["run_s"]
    return snap, traced_s, plain_s


def traced_run(workloads, args, n_rounds: int | None = None) -> dict:
    """A fixed number of rounds, traced and then untraced on the same inputs:
    the counts repeat exactly for a seed, the outputs of both passes must be
    equal, and their time ratio is the tracing overhead.  certify then runs
    the rounds of cli the same way, for the cli and codecs layers, which no
    engine workload reaches."""
    from tracer import layer_metrics

    wl = workloads.WORKLOADS[args.workload](args.seed)
    rounds = [wl.round_inputs(r) for r in range(n_rounds or wl.trace_rounds)]
    tally = Tally()
    snap, traced_s, plain_s = trace_passes(wl, rounds, tally)
    cli_snap = snap
    if args.workload == "certify":
        cli_wl = workloads.Cli(args.seed)
        cli_rounds = [cli_wl.round_inputs(r) for r in range(n_rounds or cli_wl.trace_rounds)]
        cli_snap, _, _ = trace_passes(cli_wl, cli_rounds, tally)
    metrics = layer_metrics(snap)
    metrics.update(cli_snap["cli"])
    incl = cli_snap["incl_s"]
    metrics["codecs.parse_s"] = sum(v for k, v in incl.items() if k.startswith("codecs.parse_"))
    metrics["codecs.dump_s"] = sum(v for k, v in incl.items() if k.startswith("codecs.dump_"))
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    metrics["trace.unreconciled"] = unreconciled(metrics, snap, sum(map(len, rounds)), args.workload)
    print(f"# {args.workload} seed={args.seed} traced: {len(rounds)} rounds, "
          f"traced {traced_s:.2f} s, untraced {plain_s:.2f} s")
    tally.report()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(snap, indent=1))
    out = result(tally, {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()})
    emit(out, f"{args.workload}-seed{args.seed}-trace1")
    return out


def unreconciled(m: dict, snap: dict, ops: int, workload: str) -> int:
    """How many of the identities between the counters fail."""
    kinds = sum(v for k, v in m.items() if k.startswith("localfields.hilbert_symbol.calls."))
    degrees = sum(m[f"similitude.tower_degree.{d}"] for d in (1, 2, 4))
    accepted = snap["counters"].get("accepted", 0)
    searches = snap["calls"].get("similitude.lemma24_certificate", 0)
    bad = [
        ("hilbert kinds sum to the total", kinds == m["localfields.hilbert_symbol.calls"]),
        ("tower degrees sum to the certificates searched", degrees == searches),
        ("every certify operation yields one certificate",
         workload != "certify" or degrees == ops),
        ("candidates tried = rejected by norm + rejected by index + accepted",
         m["similitude.candidates_tried"]
         == m["similitude.rejected_norm"] + m["similitude.rejected_index"] + accepted),
    ]
    for what, ok in bad:
        if not ok:
            print(f"# unreconciled: {what}", file=sys.stderr)
    return sum(not ok for _, ok in bad)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "symbols_per_form_class")):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("certify", "decide", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (timed by the parent)")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        workloads = load_workloads()
    except ImportError as exc:
        return _fail(f"cannot load the program: {exc}")
    if args.selftest:
        import selftest
        return selftest.main()
    if args.smoke:  # every workload on one round, traced and untraced
        results = [traced_run(workloads, argparse.Namespace(workload=w, seed=1), 1)
                   for w in workloads.WORKLOADS]
        return 0 if all(r["correct"] and not r["failed"] for r in results) else 1
    if args.workload is None:
        return _fail("--workload is required")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        traced_run(workloads, args)
        return 0
    return timed_run(workloads, args)


if __name__ == "__main__":
    sys.exit(main())
