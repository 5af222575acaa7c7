"""The three workloads: input generation, one operation, and the checks on
its output.

Each workload hands out rounds: a round is a fixed list of operations of
the same kinds, so every run attempts whole rounds of the same mix.  Timed
inputs come from the workload seed.  decide makes fresh forms for every
round, so no input repeats within a run.  certify runs a fixed pool of
instances in every round, each presented differently per seed and round
(see `Certify`), so that every run does the same mathematical work.  Warm-up
inputs, and the instances behind the cli certificates, are fixed for every
seed.  Checks never compare with a stored copy of the engine's output: they
use `numth` (the benchmark's own arithmetic), properties the mathematics
requires, and answers known by construction.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numth
import wittcert.cli as cli
import wittcert.codecs as codecs
import wittcert.forms as forms
import wittcert.similitude as similitude

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# Entries of `decide` carry primes above the engine's trial-division bound
# (10^5).  At most four such primes (with multiplicity) enter any entry
# product, so products stay below 3.18 * 10^23, where the engine's
# Miller-Rabin bases are exact, and Pollard-Brent finishes in milliseconds.
LARGE_LO, LARGE_HI = 100_003, 500_000
SMALL = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _nonzero_value(rng, entries, span: int) -> int:
    while True:
        x = [rng.randint(-span, span) for _ in entries]
        v = sum(a * t * t for a, t in zip(entries, x))
        if v:
            return v


def _planted(rng, n: int, entries: list[int]) -> tuple[list[int], list[int]]:
    """Append a_n so that a vector of small integers is isotropic."""
    while True:
        x = [rng.randint(1, 3) for _ in range(n - 1)]
        total = sum(a * t * t for a, t in zip(entries, x))
        if total:
            last, t = numth.squarefree_part(-total)
            return entries + [last], x + [t]


# ----------------------------------------------------------------------
# certify: lemma24_certificate followed by verify_certificate.


def certify_instance(rng, definite: bool) -> dict:
    """A lemma24 instance (pi, psi, c) satisfying the hypotheses by
    construction: psi has signed discriminant c0, a value of pi, so
    pi (x) psi is congruent to <<a, b, c0>> = 0 modulo I^4; c is a value of
    pi times a square, hence a similarity factor of the Pfister form pi and
    of pi (x) psi.  A definite pi (a, b < 0) is ramified at the real place."""
    def slot():
        k = rng.randint(1, 12)
        return numth.sq_class(-k if definite else rng.choice((-1, 1)) * k)

    a, b = slot(), slot()
    pi = [1, -a, -b, numth.sq_class(a * b)]
    c0 = numth.sq_class(_nonzero_value(rng, pi, 3))
    e = [rng.randint(1, 10) * (1 if definite else rng.choice((-1, 1))) for _ in range(5)]
    prod = 1
    for t in e:
        prod *= t
    psi = [numth.sq_class(t) for t in e] + [numth.sq_class(-c0 * prod)]
    c = numth.sq_class(_nonzero_value(rng, pi, 3)) * rng.choice((1, 1, 4, 9))
    return {"definite": definite, "pi": pi, "psi": psi, "c": c}


def certify_op(inp: dict):
    pi, psi = forms.QForm(tuple(inp["pi"])), forms.QForm(tuple(inp["psi"]))
    cert = similitude.lemma24_certificate(pi, psi, inp["c"])
    if not isinstance(cert, similitude.HypCertificate):
        raise RuntimeError(f"search exhausted: {cert}")
    return cert, similitude.verify_certificate(forms.tensor(pi, psi), cert)


def present(rng, inp: dict) -> dict:
    """The same instance written differently: the slots of pi swapped or
    not, the entries of psi permuted, and c times another square.  None of
    this changes the forms up to isometry, the hypotheses or the search."""
    a, b = -inp["pi"][1], -inp["pi"][2]
    if rng.random() < 0.5:
        a, b = b, a
    psi = list(inp["psi"])
    rng.shuffle(psi)
    return {"definite": inp["definite"], "pi": [1, -a, -b, numth.sq_class(a * b)],
            "psi": psi, "c": numth.sq_class(inp["c"]) * rng.choice((1, 4, 9))}


class Certify:
    """One operation: lemma24_certificate(pi, psi, c) and verify_certificate
    on pi (x) psi, for a 2-fold Pfister form pi and a 6-dimensional psi.

    A round runs a fixed pool of four definite instances (the real place
    obstructs, so a tower of degree 2 with a negative generator is needed)
    and three indefinite ones, drawn once for every seed.  The cost of one
    operation varies up to eightfold between instances, so fresh instances
    per run would make the runs of different seeds do different amounts of
    work.  The seed and the round decide the order of the pool and how each
    instance is written (`present`), which the engine must not depend on.
    The pool is odd in size so that the median and the 75th percentile of a
    run fall among the repeats of one instance, not between two.
    """

    name = "certify"
    trace_rounds = 1
    tail_pct = 75
    POOL = (True, False, True, False, True, False, True)  # definite or not

    def __init__(self, seed: int):
        self.seed = seed
        pool = _rng(0, "certify-pool")
        self.pool = [certify_instance(pool, definite) for definite in self.POOL]
        warm = _rng(0, "certify-warm-up")
        for definite in (True, False):
            certify_op(certify_instance(warm, definite))

    def round_inputs(self, r: int) -> list[dict]:
        rng = _rng(self.seed, "certify", r)
        out = [present(rng, inp) for inp in self.pool]
        rng.shuffle(out)
        return out

    run = staticmethod(certify_op)

    @staticmethod
    def check(inp: dict, out) -> list[str]:
        cert, verified = out
        failures = [] if verified is True else ["verify_certificate"]
        gens = list(cert.tower.generators)
        if cert.tower.degree not in (1, 2, 4) or cert.tower.degree != 1 << len(gens):
            failures.append("tower-degree")
        if len(set(gens)) != len(gens) or not all(g != 1 and numth.is_squarefree(g) for g in gens):
            failures.append("squarefree-generators")
        if len(gens) == 2 and numth.sq_class(gens[0] * gens[1]) == 1:
            failures.append("independent-generators")
        m, adj = cert.multiplier, Fraction(cert.square_adjustment)
        if not numth.is_squarefree(m) or m != adj * inp["c"] or not numth.is_rational_square(adj):
            failures.append("multiplier")
        # Over a tower whose generators are all positive the real place stays
        # real, so hyperbolicity forces signature 0; a definite pi gives
        # signature +-16, so its tower needs a negative generator.
        sig = numth.signature(inp["pi"]) * numth.signature(inp["psi"])
        if all(g > 0 for g in gens) and sig != 0:
            failures.append("real-place")
        if inp["definite"] and not any(g < 0 for g in gens):
            failures.append("definite-needs-negative-generator")
        for d in gens:
            w = numth.norm_witness(m, d)
            if w is None or not numth.is_norm_witness(m, d, w):
                failures.append("norm-witness")
        return failures

    @staticmethod
    def same(a, b) -> bool:
        return a == b


# ----------------------------------------------------------------------
# decide: is_isotropic plus witt_decompose on forms with large entries.


class Decide:
    """One operation: qform, is_isotropic and witt_decompose on a form of
    dimension 2 to 5 whose entries have prime factors above the engine's
    trial-division bound and whose products exceed its factor-cache limit.

    A round holds four forms with answers known by construction, each
    followed by a copy scaled by a square class and permuted:
    * planted: a_n chosen so that a vector of small integers is isotropic;
    * definite: all entries of one sign, so the real place obstructs;
    * block: <1, -u, -p, up> with primes u, p and u a non-residue mod p, the
      norm form of a quaternion algebra ramified at p, so anisotropic;
    * block5: that block plus a fifth entry of either sign, indefinite of
      dimension 5 and therefore isotropic (Meyer).
    """

    name = "decide"
    trace_rounds = 4
    tail_pct = 95
    KINDS = ("planted", "definite", "block", "block5")

    def __init__(self, seed: int):
        self.seed = seed
        for inp in self.round_inputs(-1, _rng(0, "decide-warm-up")):
            self.run(inp)

    @staticmethod
    def form(rng, kind: str) -> dict:
        if kind in ("block", "block5"):
            p = numth.random_prime(rng, LARGE_LO, LARGE_HI)
            u = p
            while u == p or numth.legendre(u, p) != -1:
                u = numth.random_prime(rng, LARGE_LO, LARGE_HI)
            entries = [1, -u, -p, u * p]
            if kind == "block5":
                entries.append(rng.choice((-1, 1)) * rng.choice(SMALL))
            return {"kind": kind, "entries": entries, "vector": None,
                    "isotropic": kind == "block5"}
        n = rng.randint(2, 5)
        sign = rng.choice((-1, 1))

        def entry(i):
            large = numth.random_prime(rng, LARGE_LO, LARGE_HI) if i < 2 else 1
            s = sign if kind == "definite" else rng.choice((-1, 1))
            return s * rng.choice(SMALL) * large

        if kind == "definite":
            return {"kind": kind, "entries": [entry(i) for i in range(n)],
                    "vector": None, "isotropic": False}
        if n == 2:
            a = entry(0)
            return {"kind": kind, "entries": [a, -a], "vector": [1, 1], "isotropic": True}
        entries, vec = _planted(rng, n, [entry(i) for i in range(n - 1)])
        return {"kind": kind, "entries": entries, "vector": vec, "isotropic": True}

    @staticmethod
    def variant(rng, base: dict) -> dict:
        """Scale by a square class k and permute; a planted vector follows."""
        k = rng.choice((-1, 1)) * rng.choice(SMALL[1:])
        scaled = [numth.scale_entry(k, a) for a in base["entries"]]
        order = list(range(len(scaled)))
        rng.shuffle(order)
        vec = base["vector"]
        return {"kind": base["kind"] + "-scaled", "entries": [scaled[i][0] for i in order],
                "vector": None if vec is None else [vec[i] * scaled[i][1] for i in order],
                "isotropic": base["isotropic"]}

    def round_inputs(self, r: int, rng=None) -> list[dict]:
        rng = rng or _rng(self.seed, "decide", r)
        out = []
        for kind in self.KINDS:
            base = self.form(rng, kind)
            out += [base, self.variant(rng, base)]
        return out

    @staticmethod
    def run(inp: dict):
        phi = forms.qform(inp["entries"])
        return tuple(phi.entries), forms.is_isotropic(phi), forms.witt_decompose(phi)[:2]

    @staticmethod
    def check(inp: dict, out) -> list[str]:
        entries, isotropic, (w, aniso) = out
        failures = []
        n = len(inp["entries"])
        if list(entries) != inp["entries"]:
            failures.append("entries-reduced")
        if isotropic is not inp["isotropic"]:
            failures.append("verdict")
        if inp["vector"] is not None and not numth.substitutes_to_zero(inp["entries"], inp["vector"]):
            failures.append("planted-vector")
        if 2 * w + aniso != n or aniso < abs(numth.signature(inp["entries"])) or (aniso - n) % 2:
            failures.append("witt-shape")
        if (w >= 1) is not inp["isotropic"]:
            failures.append("witt-index")
        if inp["kind"].startswith("definite") and aniso != n:
            failures.append("definite-aniso")
        if inp["kind"].startswith("block") and n == 4 and aniso != 4:
            failures.append("block-aniso")
        return failures

    @staticmethod
    def same(a, b) -> bool:
        return a == b


# ----------------------------------------------------------------------
# cli: one wittcert process per operation.

# What the installed `wittcert` console script runs.
CLI_ENTRY = "import sys; from wittcert.cli import main; sys.exit(main())"


class Cli:
    """One operation: one `wittcert <verb> '<json>'` process, timed from
    spawn to exit.  A round runs every verb once on payloads fixed for the
    run, so from the second round on each invocation repeats an earlier one
    and its stdout must be byte-identical.  Expected answers are known by
    construction; the certificates passed to verify-cert are made during
    set-up, plus a tampered copy of the definite one whose generator is made
    positive, which the verifier must reject (the real place then stays real
    and the signature, 16, is not 0).
    """

    name = "cli"
    trace_rounds = 1
    tail_pct = 75

    def __init__(self, seed: int):
        self.env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        self.trace = False
        self.first_stdout: dict[int, bytes] = {}
        self.peak_rss_kib = 0
        self.ops = self._payloads(_rng(seed, "cli"))
        for op in self.ops:  # warm-up in process: imports, lazy engine set-up
            with redirect_stdout(io.StringIO()):
                cli.main([op["verb"], op["payload"]])

    @staticmethod
    def _payloads(rng) -> list[dict]:
        ops = []

        def add(verb, payload, expect):
            ops.append({"index": len(ops), "verb": verb, "payload": json.dumps(payload),
                        "expect": expect})

        for verb in ("invariants", "isotropic"):
            n = rng.randint(3, 5)
            planted = rng.random() < 0.5
            if planted:
                entries, vec = _planted(rng, n, [rng.choice((-1, 1)) * rng.choice(SMALL)
                                                 for _ in range(n - 1)])
            else:
                sign = rng.choice((-1, 1))
                entries, vec = [sign * rng.choice(SMALL) for _ in range(n)], None
            expect = {"isotropic": planted}
            if verb == "invariants":
                expect.update(dim=n, disc=numth.signed_disc(entries),
                              signature=numth.signature(entries), vector=vec)
            add(verb, {"diag": entries}, expect)
        a = 1
        while a == 1:
            a = numth.sq_class(rng.choice((-1, 1)) * rng.randint(2, 30))
        b = numth.sq_class(rng.choice((-1, 1)) * rng.randint(1, 30))
        # <<a, b>> becomes hyperbolic once a is a square; every value of a
        # Pfister form is a similarity factor; x^2 - a y^2 is a norm.
        add("witt", {"form": {"pfister": [a, b]}, "tower": {"tower": [a]}},
            {"witt_index": 2, "hyperbolic": True})
        c = _nonzero_value(rng, [1, -a, -b, numth.sq_class(a * b)], 5)
        add("in-g", {"form": {"pfister": [a, b]}, "c": c}, {"c": c, "in_g": True})
        x, y = rng.randint(1, 9), rng.randint(1, 9)
        norm = x * x - a * y * y
        add("norm-member", {"c": norm, "d": a}, {"member": True})
        split = rng.random() < 0.5
        if split:  # (a, N(x + y sqrt a)) splits
            qa, qb = a, numth.sq_class(norm)
        else:      # both negative: ramified at the real place
            qa, qb = -rng.choice(SMALL[1:8]), -rng.choice(SMALL[1:8])
        add("quaternion", {"quaternion": [qa, qb]},
            {"norm_form": [1, -qa, -qb, numth.sq_class(qa * qb)], "split": split})
        # The certificates come from fixed instances, so that set-up does the
        # same engine work for every seed.
        fixed = _rng(0, "cli-certificates")
        for definite in (True, False):
            inp = certify_instance(fixed, definite)
            cert, _ = certify_op(inp)
            phi = {"diag": [numth.sq_class(p * q) for p in inp["pi"] for q in inp["psi"]]}
            dumped = codecs.dump_certificate(cert)
            add("verify-cert", {"form": phi, "certificate": dumped}, {"valid": True})
            if definite:
                tampered = json.loads(json.dumps(dumped))
                tampered["tower"]["generators"] = [abs(g) for g in cert.tower.generators]
                control = ({"form": phi, "certificate": tampered}, {"valid": False})
        add("verify-cert", *control)
        return ops

    def round_inputs(self, r: int) -> list[dict]:
        return self.ops

    def run(self, op: dict) -> Proc:
        argv = [op["verb"], op["payload"]]
        if self.trace:
            cmd = [sys.executable, str(BENCH_DIR / "trace_child.py")] + argv
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY] + argv
        proc = run_child(cmd, self.env, self.trace)
        self.peak_rss_kib = max(self.peak_rss_kib, proc.rss_kib)
        return proc

    def check(self, op: dict, out: Proc) -> list[str]:
        failures = [] if out.code == 0 else ["exit-status"]
        first = self.first_stdout.setdefault(op["index"], out.stdout)
        if out.stdout != first:
            failures.append("byte-identical")
        try:
            got = json.loads(out.stdout)
        except ValueError:
            return failures + ["json"]
        expect = dict(op["expect"])
        vec = expect.pop("vector", None)
        if vec is not None:
            entries = json.loads(op["payload"])["diag"]
            if not numth.substitutes_to_zero(entries, vec):
                failures.append("planted-vector")
        for key, value in expect.items():
            if got.get(key) != value:
                failures.append(f"{op['verb']}:{key}")
        if op["verb"] == "invariants":
            w, aniso = got.get("witt_index"), got.get("aniso_dim")
            if 2 * w + aniso != got["dim"] or (w >= 1) is not expect["isotropic"]:
                failures.append("invariants:witt")
        return failures

    @staticmethod
    def same(a: Proc, b: Proc) -> bool:
        return (a.code, a.stdout) == (b.code, b.stdout)


class Proc(NamedTuple):
    code: int
    stdout: bytes
    rss_kib: int        # this child's own peak resident memory
    spans: dict | None  # a traced child's report
    wall_s: float       # spawn to exit


def run_child(cmd, env, traced: bool) -> Proc:
    """Run one process to its end.  `os.wait4` gives its own peak RSS; a
    traced child reports its spans as the last line of its stderr."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        stdout, stderr = proc.stdout.read(), proc.stderr.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = perf_counter() - t0
        proc.stdout.close()
        proc.stderr.close()
    spans = None
    if traced:
        reports = [line for line in stderr.decode().splitlines() if line.startswith('{"calls"')]
        if not reports:
            raise RuntimeError(f"traced child reported no spans: {stderr.decode()[-300:]}")
        spans = json.loads(reports[-1])
    return Proc(proc.returncode, stdout, usage.ru_maxrss, spans, wall)


WORKLOADS = {w.name: w for w in (Certify, Decide, Cli)}
