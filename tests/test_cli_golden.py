"""Byte-identity of the CLI: stdout and exit status of every verb on a fixed
set of payloads, each run with and without `--trace`, against a recorded
golden file.

The payloads cover the README examples and dyadic, tower, rational-`diag`,
large-entry, search-bound and error cases.  Tower generators, quaternion
slots, `n` and `d` are integers throughout.  The verbs that build sets of
places and primes also print the same bytes in fresh interpreters under
different string-hash seeds.

To record the golden file after an intended output change, run
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wittcert.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
SRC = Path(__file__).resolve().parents[1] / "src"

CERT = {
    "schema": "hyp-certificate/1", "multiplier": 2,
    "tower": {"generators": [-1], "degree": 2, "downgraded": False},
    "square_adjustment": 1, "evidence": [],
}
LEMMA24_FORM = {"tensor": [{"pfister": [-1, -1]}, {"diag": [1, 1, 1, 1, 1, -3]}]}

PAYLOADS = [
    # invariants
    ("invariants", '{"diag":[1,1,1,1,1,2]}'),
    ("invariants", "<<2,5>>"),
    ("invariants", "<1,1,1,1,-7,-7>"),
    ("invariants", '{"diag":["1/2","3/4",-6,10]}'),
    ("invariants", '{"diag":[2,-6,10,-14,3]}'),
    ("invariants", '{"diag":[1,1000000000039,-3000000000013]}'),
    ("invariants", '{"tensor":[{"pfister":[2,5]},{"diag":[1,1,1,1,1,2]}]}'),
    ("invariants", '{"sum":[{"pfister":[2,3,5]},{"scale":[-1,{"pfister":[2,3,5]}]}]}'),
    ("invariants", '{"diag":[5]}'),
    ("invariants", '{"diag":[]}'),
    ("invariants", '{"gram":[[1,0],[0,1]]}'),
    ("invariants", '{"diag":[0,1]}'),
    ("invariants", "not a form"),
    # isotropic
    ("isotropic", '{"diag":[1,-1]}'),
    ("isotropic", '{"diag":[1,1,1]}'),
    ("isotropic", '{"diag":[1,1,-3]}'),
    ("isotropic", '{"diag":[1,1,-7]}'),
    ("isotropic", '{"diag":[2,3,-5,-30]}'),
    ("isotropic", '{"diag":[1,1,1,1,1]}'),
    ("isotropic", '{"diag":["1/3",-3,"5/7"]}'),
    ("isotropic", '{"diag":[1,1000000000039,-3000000000013]}'),
    ("isotropic", '{"diag":[1,-73,-318665857834031151167461]}'),
    ("isotropic", '{"diag":[7]}'),
    # witt
    ("witt", '{"diag":[1,1,1,1,-7,-7]}'),
    ("witt", '{"form":{"diag":[2,-3,6,-10,15]}}'),
    ("witt", '{"form":{"diag":[1,1,1,1]},"tower":{"tower":[-1]}}'),
    ("witt", '{"form":{"diag":[1,-10]},"tower":"Q(sqrt 10)"}'),
    ("witt", '{"form":{"pfister":[2,5,-2]},"tower":{"tower":[-1,2]}}'),
    ("witt", '{"form":{"diag":[1,1]},"tower":{"tower":[2,18]}}'),
    ("witt", '{"form":{"diag":[1,3,-7]},"tower":{"tower":[5,-7]}}'),
    ("witt", '{"form":{"diag":[1,1]},"tower":{"tower":[0]}}'),
    ("witt", '{"form":{"diag":[1,1]},"tower":{"tower":[2,3,5]}}'),
    # isometric
    ("isometric", '{"left":{"diag":[1,7]},"right":{"diag":[2,14]}}'),
    ("isometric", '{"left":{"diag":[1,1]},"right":{"diag":[3,3]}}'),
    ("isometric", '{"left":{"diag":[1,1,1]},"right":{"diag":[2,2,1]}}'),
    ("isometric", '{"left":{"diag":[1,1]},"right":{"diag":[1,1,1]}}'),
    ("isometric", '{"left":{"diag":[1]}}'),
    # pfister-expand
    ("pfister-expand", '{"pfister":[2,5]}'),
    ("pfister-expand", "<<-1,-1,-1>>"),
    ("pfister-expand", '{"pfister":[1,2,3,5,7]}'),
    # in-g
    ("in-g", '{"form":{"diag":[1,1,1,1]},"c":2}'),
    ("in-g", '{"form":{"diag":[1,1,1,1]},"c":-1}'),
    ("in-g", '{"form":{"pfister":[2,5]},"c":"3/4"}'),
    ("in-g", '{"form":{"diag":[1,2,3]},"c":6}'),
    ("in-g", '{"form":{"diag":[1,-6]},"c":"10/3"}'),
    ("in-g", '{"form":{"diag":[1,1]},"c":0}'),
    # in-in
    ("in-in", '{"form":{"pfister":[2,3,5,7]},"n":4}'),
    ("in-in", '{"form":{"pfister":[2,3,5]},"n":3}'),
    ("in-in", '{"form":{"pfister":[2,3,5]},"n":4}'),
    ("in-in", '{"form":{"diag":[1,1,1,1,1,1,1,1]},"n":3}'),
    ("in-in", '{"form":{"diag":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]},"n":4}'),
    ("in-in", '{"form":{"diag":[1,-2]},"n":2}'),
    ("in-in", '{"form":{"diag":[3,5,7]},"n":1}'),
    ("in-in", '{"form":{"diag":[1,-1]},"n":5}'),
    # quaternion
    ("quaternion", '{"quaternion":[2,5]}'),
    ("quaternion", '{"quaternion":[-1,-1]}'),
    ("quaternion", "[3,-3]"),
    ("quaternion", '{"quaternion":[0,1]}'),
    # delta and reduce
    ("delta", '{"inv_algebra":{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5]}}'),
    ("delta", '{"inv_algebra":{"phi":{"diag":[1,1,1,1,1,1]},"q":[-1,-1]}}'),
    ("reduce", '{"inv_algebra":{"phi":{"diag":[1]},"q":[3,7]}}'),
    ("reduce", '{"phi":{"diag":[1,-2,3]},"q":[-1,5]}'),
    # lemma-beta
    ("lemma-beta", '{"form":{"diag":[1,1,1,1]},"a":1}'),
    ("lemma-beta", '{"form":{"diag":[1,1,1,1]},"a":3}'),
    ("lemma-beta", '{"form":{"diag":[1,1,1,1]},"a":1}', "--bound", "50"),
    ("lemma-beta", '{"form":{"diag":[1,1,1,1]},"a":3}', "--bound", "1"),
    ("lemma-beta", '{"form":{"diag":[1,1,1,1]},"a":1}', "--bound", "0"),
    ("lemma-beta", '{"form":{"diag":[1,-1]},"a":1}'),
    ("lemma-beta", '{"form":{"diag":[2,3,7]},"a":1}'),
    # lemma24
    ("lemma24", '{"pi":{"pfister":[-1,-1]},"psi":{"diag":[1,1,1,1,1,-3]},"c":2}'),
    ("lemma24", '{"pi":{"pfister":[2,5]},"psi":{"diag":[1,1,1,1,1,2]},"c":-2}'),
    ("lemma24", '{"pi":{"pfister":[2,5]},"psi":{"diag":[1,1,1,1,1,2]},"c":"10/9"}'),
    ("lemma24", '{"pi":{"pfister":[-1,-1]},"psi":{"diag":[1,1,1,1,1,-3]},"c":2}',
     "--bound", "1"),
    ("lemma24", '{"pi":{"pfister":[-1,-1]},"psi":{"diag":[1,1,1,1,1]},"c":2}'),
    # thm4, thm6
    ("thm4", '{"phi":{"diag":[1,1,1,1]},"q":[3,5]}'),
    ("thm4", '{"phi":{"diag":[2,3,-5,7]},"q":[-1,3]}'),
    ("thm6", '{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5],"multipliers":[1,-2,10]}'),
    ("thm6", '{"phi":{"diag":[1,1,1,1,1,1]},"q":[-1,-1]}'),
    ("thm6", '{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5]}', "--seed", "3"),
    # verify-cert
    ("verify-cert", json.dumps({"form": LEMMA24_FORM, "certificate": CERT})),
    ("verify-cert", json.dumps({"form": LEMMA24_FORM,
                                "certificate": dict(CERT, multiplier=3)})),
    ("verify-cert", json.dumps({"form": LEMMA24_FORM,
                                "certificate": dict(CERT, tower={"generators": [2]})})),
    ("verify-cert", json.dumps({"form": LEMMA24_FORM,
                                "certificate": dict(CERT, schema="other/1")})),
    # norm-member
    ("norm-member", '{"c":-1,"d":2}'),
    ("norm-member", '{"c":-1,"tower":[2,3]}'),
    ("norm-member", '{"c":3,"d":-1}'),
    ("norm-member", '{"c":"3/4","d":5}'),
    ("norm-member", '{"c":7,"tower":[-1]}'),
    ("norm-member", '{"c":5,"d":1}'),
    # argument errors
    ("frobnicate", "{}"),
    # searches that exhaust their bound, closed by Q(sqrt -c)
    ("lemma24", '{"pi":{"pfister":[-1,-1]},"psi":{"diag":[1,1,1,1,1,-3]},"c":3}',
     "--bound", "1"),
    ("thm6", '{"phi":{"diag":[1,-2,6,5,2,7]},"q":[-1,-1],"multipliers":[2,3,21]}',
     "--bound", "1"),
    # verify-cert on towers stated outside the rule: invalid, not rewritten
    *(("verify-cert", json.dumps({"form": LEMMA24_FORM,
                                  "certificate": dict(CERT, tower={"generators": gens})}))
      for gens in ([-4], [-1, -1], [0], [2, 3, 5])),
]

CASES = [list(p) + extra for p in PAYLOADS for extra in ([], ["--trace"])]


def run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def test_golden_covers_every_verb():
    from wittcert.cli import VERBS

    assert set(VERBS) <= {argv[0] for argv in CASES}


def test_golden_lists_these_cases():
    recorded = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in recorded] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i])[:60])
def test_cli_output_matches_golden(index):
    expected = json.loads(GOLDEN.read_text())[index]
    assert run(CASES[index]) == expected


HASH_SEED_VERBS = {"invariants", "witt", "delta", "lemma24", "thm6", "verify-cert"}

# Runs each argv read from stdin through the CLI and prints the records as
# JSON, as `run` makes them.
CHILD = """
import contextlib, io, json, sys
from wittcert.cli import main
records = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    records.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
json.dump(records, sys.stdout)
"""


def test_output_is_independent_of_the_hash_seed():
    """One fresh interpreter per seed runs every golden entry of the verbs
    above; the two print the same bytes, and the golden records."""
    cases = [argv for argv in CASES if argv[0] in HASH_SEED_VERBS]
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(cases).encode(),
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    expected = [r for r in json.loads(GOLDEN.read_text()) if r["argv"][0] in HASH_SEED_VERBS]
    assert len(expected) == 84
    assert json.loads(outputs[0]) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
