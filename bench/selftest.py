"""Self-test of the checkers.

The self-test shows that each independent checker can fail: it feeds the
workload checks outputs with a wrong witness vector, a wrong norm witness,
a swapped verdict, a tower that ignores the real place, a changed CLI answer
and a CLI repeat whose output differs, and requires every one to be
rejected.
"""

from __future__ import annotations

import dataclasses
import json

import numth


def main() -> int:
    import workloads as w

    rejected, total = 0, 0

    def expect_rejected(what: str, failures) -> None:
        nonlocal rejected, total
        total += 1
        rejected += bool(failures)
        print(f"{'ok  ' if failures else 'MISS'} {what}: {failures or 'accepted'}")

    # decide: wrong planted vector, swapped verdict.
    rng = w._rng(0, "selftest")
    planted = w.Decide.form(rng, "planted")
    out = w.Decide.run(planted)
    assert not w.Decide.check(planted, out), "a true decide output was rejected"
    bad_vec = dict(planted, vector=[v + 1 for v in planted["vector"]])
    expect_rejected("decide: wrong witness vector", w.Decide.check(bad_vec, out))
    entries, iso, wd = out
    expect_rejected("decide: swapped verdict", w.Decide.check(planted, (entries, not iso, wd)))
    block = w.Decide.form(rng, "block")
    e2, _, _ = w.Decide.run(block)
    expect_rejected("decide: block called isotropic", w.Decide.check(block, (e2, True, (1, 2))))

    # norm witnesses: a wrong triple, and a value that is not a norm.
    expect_rejected("numth: wrong norm witness", not numth.is_norm_witness(5, -1, (1, 1, 1)))
    expect_rejected("numth: 3 is no norm from Q(i)", numth.norm_witness(3, -1) is None)

    # certify: the real place, a wrong multiplier, a failed verification.
    inp = w.certify_instance(w._rng(0, "selftest-certify"), True)
    cert, ok = w.certify_op(inp)
    assert ok and not w.Certify.check(inp, (cert, ok)), "a true certificate was rejected"
    tower = dataclasses.replace(cert.tower, generators=tuple(abs(g) for g in cert.tower.generators))
    expect_rejected("certify: positive tower for a definite pi",
                    w.Certify.check(inp, (dataclasses.replace(cert, tower=tower), True)))
    expect_rejected("certify: wrong multiplier",
                    w.Certify.check(inp, (dataclasses.replace(cert, multiplier=-cert.multiplier), True)))
    expect_rejected("certify: verifier said no", w.Certify.check(inp, (cert, False)))

    # cli: a swapped answer, and a repeat whose stdout differs.
    cli = w.Cli.__new__(w.Cli)
    for op in w.Cli._payloads(w._rng(0, "selftest-cli")):
        expected = {k: v for k, v in op["expect"].items() if k != "vector"}
        if op["verb"] == "invariants":
            iso = expected["isotropic"]
            expected.update(witt_index=int(iso), aniso_dim=expected["dim"] - 2 * iso)
        good = w.Proc(0, json.dumps(expected).encode(), 0, None, 0.0)
        cli.first_stdout = {}
        assert not cli.check(op, good), (op["verb"], cli.check(op, good))
        flipped = {k: (not v if isinstance(v, bool) else v) for k, v in expected.items()}
        cli.first_stdout = {}
        expect_rejected(f"cli {op['verb']}: swapped answer",
                        cli.check(op, good._replace(stdout=json.dumps(flipped).encode())))
        cli.first_stdout = {op["index"]: good.stdout}
        expect_rejected(f"cli {op['verb']}: repeat differs",
                        cli.check(op, good._replace(stdout=good.stdout + b" ")))
    print(f"selftest: {rejected} of {total} bad outputs rejected")
    return 0 if rejected == total else 1
