import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wittcert import cli, codecs, extensions, involutions, similitude
from wittcert.cli import EXIT_CLOSED_PIPE, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestBasicVerbs:
    def test_invariants(self, capsys):
        code, out = run_json(capsys, "invariants", '{"diag":[1,1,1,1,1,2]}')
        assert code == 0
        assert out["dim"] == 6 and out["disc"] == -2 and out["signature"] == 6

    def test_isotropic(self, capsys):
        code, out = run_json(capsys, "isotropic", '{"diag":[1,-1]}')
        assert code == 0 and out == {"isotropic": True}

    def test_text_syntax(self, capsys):
        code, out = run_json(capsys, "invariants", "<<2,5>>")
        assert code == 0 and out["dim"] == 4 and out["disc"] == 1

    def test_pfister_expand(self, capsys):
        code, out = run_json(capsys, "pfister-expand", '{"pfister":[2,5]}')
        assert code == 0 and out == {"diag": [1, -2, -5, 10]}

    def test_composed_descriptor(self, capsys):
        payload = '{"tensor":[{"pfister":[2,5]},{"diag":[1,1,1,1,1,2]}]}'
        code, out = run_json(capsys, "invariants", payload)
        assert code == 0 and out["dim"] == 24

    def test_witt_over_tower(self, capsys):
        payload = '{"form":{"diag":[1,1,1,1]},"tower":{"tower":[-1]}}'
        code, out = run_json(capsys, "witt", payload)
        assert code == 0 and out == {"witt_index": 2, "hyperbolic": True}

    def test_isometric(self, capsys):
        code, out = run_json(capsys, "isometric",
                             '{"left":{"diag":[1,7]},"right":{"diag":[2,14]}}')
        assert code == 0 and out["isometric"] is True

    def test_in_g_and_in_in(self, capsys):
        code, out = run_json(capsys, "in-g", '{"form":{"diag":[1,1,1,1]},"c":2}')
        assert code == 0 and out["in_g"] is True
        code, out = run_json(capsys, "in-in", '{"form":{"pfister":[2,3,5,7]},"n":4}')
        assert code == 0 and out["in_in"] is True

    def test_quaternion_and_reduce(self, capsys):
        code, out = run_json(capsys, "quaternion", '{"quaternion":[2,5]}')
        assert code == 0 and out == {"norm_form": [1, -2, -5, 10], "split": False}
        code, out = run_json(capsys, "reduce",
                             '{"inv_algebra":{"phi":{"diag":[1]},"q":[3,7]}}')
        assert code == 0 and out == {"diag": [1, -3, -7, 21]}

    def test_isotropic_with_large_entries(self, capsys):
        # The entry products exceed 10^24; each entry is factored on its own.
        code, out = run_json(capsys, "isotropic", '{"diag":[1,1000000000039,-3000000000013]}')
        assert code == 0 and out == {"isotropic": False}
        # 399165290221 * 798330580441, a strong pseudoprime to every base up to 37.
        code, out = run_json(capsys, "isotropic", '{"diag":[1,-73,-318665857834031151167461]}')
        assert code == 0 and out == {"isotropic": True}

    def test_norm_member(self, capsys):
        code, out = run_json(capsys, "norm-member", '{"c":-1,"d":2}')
        assert code == 0 and out == {"member": True}
        code, out = run_json(capsys, "norm-member", '{"c":-1,"tower":[2,3]}')
        assert code == 0 and out == {"member": False}


class TestPipelineVerbs:
    def test_delta(self, capsys):
        code, out = run_json(capsys, "delta",
                             '{"inv_algebra":{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5]}}')
        assert code == 0
        assert out["degree"] == 12 and out["index"] == 2 and out["trivial"] is True

    def test_delta_decides_splitting_once(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(involutions, "is_split",
                            lambda q, split=involutions.is_split: calls.append(q) or split(q))
        code, _ = run_json(capsys, "delta",
                           '{"inv_algebra":{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5]}}')
        assert code == 0 and len(calls) == 1

    def test_lemma_beta(self, capsys):
        code, out = run_json(capsys, "lemma-beta", '{"form":{"diag":[1,1,1,1]},"a":1}')
        assert code == 0 and out == {"d": -1}

    def test_thm4(self, capsys):
        code, out = run_json(capsys, "thm4", '{"phi":{"diag":[1,1,1,1]},"q":[3,5]}')
        assert code == 0
        assert out["slots4"] == [-1, -1, 3, 5] and out["scale4"] == 1

    def test_thm6_worked(self, capsys):
        payload = '{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5],"multipliers":[1,-2,10]}'
        code, out = run_json(capsys, "thm6", payload)
        assert code == 0
        assert out["hypotheses_passed"] is True
        assert all(m["status"] == "certificate" for m in out["multipliers"])

    def test_thm6_negative_control_exits_2(self, capsys):
        payload = '{"phi":{"diag":[1,1,1,1,1,1]},"q":[-1,-1]}'
        code, out = run_json(capsys, "thm6", payload)
        assert code == 2
        assert out["halted_at"] == "delta-trivial"

    def test_certificate_round_trip(self, capsys):
        payload = ('{"pi":{"pfister":[-1,-1]},"psi":{"diag":[1,1,1,1,1,-3]},"c":2}')
        code, out = run_json(capsys, "lemma24", payload)
        assert code == 0
        cert = out["certificate"]
        assert cert["schema"] == "hyp-certificate/1"
        verify_payload = json.dumps({
            "form": {"tensor": [{"pfister": [-1, -1]}, {"diag": [1, 1, 1, 1, 1, -3]}]},
            "certificate": cert,
        })
        code, out = run_json(capsys, "verify-cert", verify_payload)
        assert code == 0 and out == {"valid": True}

    def test_trace_evidence(self, capsys):
        payload = ('{"pi":{"pfister":[-1,-1]},"psi":{"diag":[1,1,1,1,1,-3]},"c":2}')
        code, out = run_json(capsys, "lemma24", payload, "--trace")
        assert code == 0
        assert out["trace"]
        assert all(e["local_verdict"] == {"aniso_dim": 0, "hyperbolic": True}
                   for e in out["trace"])

    @staticmethod
    def count_walks(monkeypatch) -> list:
        """The towers of every `hyperbolicity_evidence` walk from now on."""
        calls = []
        evidence = extensions.hyperbolicity_evidence

        def counted(phi, M, *args):
            calls.append(M)
            return evidence(phi, M, *args)

        for module in (cli, extensions, similitude):
            monkeypatch.setattr(module, "hyperbolicity_evidence", counted)
        return calls

    def test_trace_is_the_certificate_evidence(self, capsys, monkeypatch):
        # The trace prints the evidence the certificate already carries: one
        # walk builds it, and the search's check reads the same evidence.
        calls = self.count_walks(monkeypatch)
        # An imaginary quadratic tower, then the trivial one.
        for psi, c in (([1, 1, 1, 1, 1, -3], 2), ([1, 1, 1, -1, -1, -1], -1)):
            payload = json.dumps({"pi": {"pfister": [-1, -1]}, "psi": {"diag": psi}, "c": c})
            calls.clear()
            code, out = run_json(capsys, "lemma24", payload, "--trace")
            assert code == 0 and out["trace"] == out["certificate"]["evidence"]
            assert len(calls) == 1 and len(out["certificate"]["tower"]["generators"]) == (c > 0)

    def test_thm6_walks_once_per_certificate(self, capsys, monkeypatch):
        calls = self.count_walks(monkeypatch)
        payload = json.dumps({"phi": {"diag": [1, 1, 1, 1, 1, -3]}, "q": [-1, -1],
                              "multipliers": [2, -2, 3, 7, "5/4"]})
        code, out = run_json(capsys, "thm6", payload)
        certified = [m for m in out["multipliers"] if m["status"] == "certificate"]
        assert code == 0 and len(certified) == 4
        assert [M.generators for M in calls] == [
            tuple(m["certificate"]["tower"]["generators"]) for m in certified]


class TestCliContract:
    def test_unknown_verb_exit_1(self, capsys):
        assert main(["frobnicate", "{}"]) == 1

    def test_malformed_payload_exit_1(self, capsys):
        code, _ = run_cli(capsys, "isometric", '{"left":{"diag":[1]}}')
        assert code == 1

    def test_unknown_descriptor_exit_1(self, capsys):
        code, out = run_json(capsys, "invariants", '{"gram":[[1,0],[0,1]]}')
        assert code == 1 and out["error"] == "malformed-input"

    def test_witt_reports_aniso_class(self, capsys):
        code, out = run_json(capsys, "witt", '{"diag":[1,1,1,1,-7,-7]}')
        assert code == 0
        assert out["witt_index"] == 2 and out["aniso_dim"] == 2
        assert out["aniso_class"]["signature"] == 2

    @pytest.mark.parametrize("payload", ['{"tensor":[]}', '{"sum":[]}', '{"scale":[2]}',
                                         '{"scale":[2,{"diag":[1]},3]}'])
    def test_descriptor_arity_is_malformed_input(self, capsys, payload):
        code, out = run_json(capsys, "invariants", payload)
        assert code == 1 and out["error"] == "malformed-input"

    @pytest.mark.parametrize("verb, payload", [
        ("invariants", '{"diag":"123"}'),
        ("invariants", '{"pfister":"23"}'),
        ("invariants", '{"tensor":{"<1,1>":0,"<1,-1>":0}}'),
        ("invariants", '{"sum":"<1,1>"}'),
        ("invariants", '{"scale":"2<"}'),
        ("invariants", '{"scale":{"2":0,"<1>":0}}'),
        ("witt", '{"form":{"diag":[1,1]},"tower":{"tower":{"-1":5}}}'),
        ("witt", '{"form":{"diag":[1,1]},"tower":{"tower":"-1"}}'),
        ("norm-member", '{"c":7,"tower":"23"}'),
        ("norm-member", '{"c":7,"tower":{"2":0}}'),
        ("thm6", '{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5],"multipliers":"23"}'),
        ("thm6", '{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5],"multipliers":{"2":0}}'),
        ("verify-cert", json.dumps({
            "form": {"tensor": [{"pfister": [-1, -1]}, {"diag": [1, 1, 1, 1, 1, -3]}]},
            "certificate": {"schema": "hyp-certificate/1", "multiplier": 2,
                            "tower": {"generators": {"-1": 0}}, "square_adjustment": 1}})),
        ("verify-cert", json.dumps({
            "form": {"tensor": [{"pfister": [-1, -1]}, {"diag": [1, 1, 1, 1, 1, -3]}]},
            "certificate": {"schema": "hyp-certificate/1", "multiplier": 2,
                            "tower": {"generators": "-1"}, "square_adjustment": 1}})),
    ])
    def test_strings_and_objects_are_not_arrays(self, capsys, verb, payload):
        # A JSON string is not read as its characters, nor an object as its
        # keys; the bare text syntaxes stay.
        code, out = run_json(capsys, verb, payload)
        assert code == 1 and out["error"] == "malformed-input"
        assert "must be a JSON array" in out["detail"]

    def test_expanded_dimension_limit_exit_3(self, capsys):
        four_fold = [{"pfister": [2, 3, 5, 7]}, {"pfister": [-1, 11, 13, 17]},
                     {"pfister": [19, 23, 29, 31]}, {"pfister": [37, 41, 43, 47]}]
        code, out = run_json(capsys, "invariants", json.dumps({"tensor": four_fold}))
        assert code == 3 and out["error"] == "limit-exceeded"
        assert "65536" in out["detail"]
        code, out = run_json(capsys, "isometric", json.dumps(
            {"left": {"diag": [1]}, "right": {"sum": [{"tensor": four_fold[:3]}, {"diag": [1]}]}}))
        assert code == 3 and out["error"] == "limit-exceeded"

    def test_precondition_failure_exit_2(self, capsys):
        code, out = run_json(capsys, "lemma-beta", '{"form":{"diag":[1,-1]},"a":1}')
        assert code == 2 and out["error"] == "precondition-failed"

    def test_third_independent_tower_generator_is_refused_at_once(self, capsys):
        # The tower is refused when its third independent generator is met,
        # before the remaining ones are read: the Kummer subgroup never grows
        # past four classes, however many generators are supplied.
        primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
        assert len(primes) == 30
        for verb, payload in [
            ("witt", {"form": {"diag": [1, 1, 1]}, "tower": {"tower": primes}}),
            ("norm-member", {"c": 2, "tower": primes}),
        ]:
            code, out = run_json(capsys, verb, json.dumps(payload))
            assert code == 2 and out == {"error": "precondition-failed",
                                         "detail": "towers of degree > 4 are out of scope"}

    def test_byte_identical_output(self, capsys):
        payload = '{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5],"multipliers":[1,-2,10,-5]}'
        _, out1 = run_cli(capsys, "thm6", payload)
        _, out2 = run_cli(capsys, "thm6", payload)
        assert out1 == out2

    def test_no_floats_anywhere(self, capsys):
        payload = '{"phi":{"diag":[1,1,1,1,1,2]},"q":[2,5],"multipliers":[1,-2]}'
        _, out = run_cli(capsys, "thm6", payload)
        def scan(obj):
            if isinstance(obj, float):
                raise AssertionError("float in output")
            if isinstance(obj, dict):
                for v in obj.values():
                    scan(v)
            if isinstance(obj, list):
                for v in obj:
                    scan(v)
        scan(json.loads(out))

    def test_bound_flag_threads_through(self, capsys):
        code, out = run_json(capsys, "lemma-beta",
                             '{"form":{"diag":[1,1,1,1]},"a":1}', "--bound", "50")
        assert code == 0 and out == {"d": -1}

    def test_bound_below_one_is_a_precondition_failure(self, capsys):
        for bound in ("-7", "0"):
            code, out = run_json(capsys, "lemma-beta",
                                 '{"form":{"diag":[1,1,1,1]},"a":1}', "--bound", bound)
            assert code == 2
            assert out == {"error": "precondition-failed",
                           "detail": f"search bound must be at least 1, got {bound}"}


class TestRationalArguments:
    """Tower generators, quaternion slots, `d` and a certificate multiplier
    are rationals and never truncated; `n` is a JSON integer."""

    def test_quaternion_slot(self, capsys):
        code, out = run_json(capsys, "quaternion", '{"quaternion":["5/2",3]}')
        assert code == 0 and out["norm_form"] == [1, -10, -3, 30]

    def test_tower_generator(self, capsys):
        payload = '{"form":{"diag":[1,-10]},"tower":{"tower":["5/2"]}}'
        code, out = run_json(capsys, "witt", payload)
        assert code == 0 and out == {"witt_index": 1, "hyperbolic": True}

    def test_norm_member_tower_generator(self, capsys):
        code, out = run_json(capsys, "norm-member", '{"c":-1,"tower":["1/2"]}')
        assert code == 0 and out == {"member": True}

    def test_norm_member_d(self, capsys):
        code, out = run_json(capsys, "norm-member", '{"c":-1,"d":"1/2"}')
        assert code == 0 and out == {"member": True}
        code, out = run_json(capsys, "norm-member", '{"c":-1,"d":2.5}')
        assert code == 1 and out["error"] == "malformed-input"

    def test_certificate_multiplier(self, capsys):
        lemma24 = '{"pi":{"pfister":[-1,-1]},"psi":{"diag":[1,1,1,1,1,-3]},"c":2}'
        _, out = run_json(capsys, "lemma24", lemma24)
        cert = dict(out["certificate"], multiplier="5/2")
        payload = json.dumps({
            "form": {"tensor": [{"pfister": [-1, -1]}, {"diag": [1, 1, 1, 1, 1, -3]}]},
            "certificate": cert,
        })
        code, out = run_json(capsys, "verify-cert", payload)
        assert code == 0 and out == {"valid": False}

    @pytest.mark.parametrize("generators", ["[2.5]", "[true, -1]"])
    def test_certificate_generators_are_rationals(self, capsys, generators):
        cert = ('{"schema":"hyp-certificate/1","multiplier":2,'
                '"tower":{"generators":%s},"square_adjustment":1}' % generators)
        payload = ('{"form":{"tensor":[{"pfister":[-1,-1]},{"diag":[1,1,1,1,1,-3]}]},'
                   '"certificate":%s}' % cert)
        code, out = run_json(capsys, "verify-cert", payload)
        assert code == 1 and out["error"] == "malformed-input"

    @pytest.mark.parametrize("verb", ["invariants", "isotropic", "witt"])
    def test_entry_with_parts_below_the_factorization_limit(self, capsys, verb):
        # Numerator and denominator each factor exactly; their product
        # lies beyond the limit.  Inverting the entry keeps its class.
        code, out = run_cli(capsys, verb, '{"diag":["2000000000003/2000000000009", 1]}')
        assert code == 0, out
        assert run_cli(capsys, verb, '{"diag":["2000000000009/2000000000003", 1]}') == (code, out)

    @pytest.mark.parametrize("verb, payload, expected", [
        ("in-g", '{"form":{"diag":[1,1]},"c":"2000000000003/2000000000009"}',
         {"c": "2000000000003/2000000000009", "in_g": False}),
        ("lemma-beta", '{"form":{"diag":[1,1,1,1]},"a":"2000000000003/2000000000009"}',
         {"d": -2}),
    ])
    def test_multiplier_with_parts_below_the_factorization_limit(self, capsys, verb,
                                                                 payload, expected):
        # The multiplier's square class lies beyond the limit; its primes
        # come from the one factorization by parts.
        assert run_json(capsys, verb, payload) == (0, expected)

    @pytest.mark.parametrize("verb, payload", [
        ("lemma24", '{"pi":{"pfister":[-1,-1]},"psi":{"diag":[1,1,1,1,1,-3]},'
                    '"c":"2000000000003/2000000000009"}'),
        ("thm6", '{"phi":{"diag":[1,1,1,1,1,-3]},"q":[-1,-1],'
                 '"multipliers":["2000000000003/2000000000009"]}'),
    ])
    def test_certificate_for_a_multiplier_class_beyond_the_factorization_limit(
            self, capsys, verb, payload):
        # c is factored by parts, and neither the search, its check of the
        # certificate nor the verifier factors the class
        # 4000000000024000000000027: the verifier factors multiplier /
        # square_adjustment, which is c.
        code, out = run_json(capsys, verb, payload)
        cert = out["certificate"] if verb == "lemma24" else out["multipliers"][0]["certificate"]
        assert code == 0 and cert["multiplier"] == 4000000000024000000000027
        assert cert["tower"]["generators"] == [-2]
        verify_payload = json.dumps({
            "form": {"tensor": [{"pfister": [-1, -1]}, {"diag": [1, 1, 1, 1, 1, -3]}]},
            "certificate": cert,
        })
        assert run_json(capsys, "verify-cert", verify_payload) == (0, {"valid": True})

    def test_certificate_with_a_zero_adjustment_is_invalid(self, capsys):
        # c * s^2 = multiplier needs s^2 != 0.
        lemma24 = '{"pi":{"pfister":[-1,-1]},"psi":{"diag":[1,1,1,1,1,-3]},"c":2}'
        _, out = run_json(capsys, "lemma24", lemma24)
        payload = {
            "form": {"tensor": [{"pfister": [-1, -1]}, {"diag": [1, 1, 1, 1, 1, -3]}]},
            "certificate": out["certificate"],
        }
        assert run_json(capsys, "verify-cert", json.dumps(payload)) == (0, {"valid": True})
        payload["certificate"] = dict(out["certificate"], square_adjustment=0)
        assert run_json(capsys, "verify-cert", json.dumps(payload)) == (0, {"valid": False})

    @pytest.mark.parametrize("n", ["2.7", "true", '"4"'])
    def test_in_in_n_must_be_an_integer(self, capsys, n):
        code, out = run_json(capsys, "in-in", '{"form":{"pfister":[2,3,5,7]},"n":%s}' % n)
        assert code == 1 and out["error"] == "malformed-input"


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=60)


def nested_tensor(depth: int, leaf: str = '{"diag":[1,-1]}') -> str:
    """The leaf inside `depth` one-factor tensors: 2 * depth + 2 levels of
    JSON nesting for a descriptor leaf."""
    payload = leaf
    for _ in range(depth):
        payload = '{"tensor":[' + payload + ']}'
    return payload


def json_depth(text: str) -> int:
    """The deepest nesting of arrays and objects (no payload here holds a
    bracket inside a string)."""
    depth = deepest = 0
    for ch in text:
        depth += (ch in "[{") - (ch in "]}")
        deepest = max(deepest, depth)
    return deepest


LIMIT = codecs.MAX_NESTING_DEPTH
PSI = '{"diag":[1,1,1,1,1,-3]}'


def lemma24_payload(psi: str) -> str:
    return '{"pi":{"pfister":[-1,-1]},"psi":%s,"c":2}' % psi


class TestProcess:
    def test_shallow_nesting_is_decided(self):
        proc = run_process("-m", "wittcert.cli", "isotropic", nested_tensor(100))
        assert proc.returncode == 0 and json.loads(proc.stdout) == {"isotropic": True}

    @pytest.mark.parametrize("depth", [495, 1200])
    def test_deep_nesting_is_limit_exceeded(self, depth):
        proc = run_process("-m", "wittcert.cli", "isotropic", nested_tensor(depth))
        assert proc.returncode == 3
        assert json.loads(proc.stdout) == {
            "error": "limit-exceeded",
            "detail": f"payload nests deeper than the limit {LIMIT}"}
        assert "Traceback" not in proc.stderr

    # A form descriptor nests to an even depth, so an isotropic payload is
    # of even depth and a lemma24 payload, which holds its forms in an
    # object, of odd depth.  The payloads of the other parity wrap a form in
    # a list: at the limit that is malformed input, beyond it the depth is
    # refused before the payload is decoded.
    @pytest.mark.parametrize("verb, payload, depth, status", [
        pytest.param(verb, payload, depth, status, id=f"{verb}-limit{depth - LIMIT:+d}")
        for verb, payload, depth, status in [
            ("isotropic", nested_tensor(LIMIT // 2 - 1), LIMIT, 0),
            ("isotropic", "[%s]" % nested_tensor(LIMIT // 2 - 1), LIMIT + 1, 3),
            ("isotropic", nested_tensor(LIMIT // 2), LIMIT + 2, 3),
            ("lemma24", lemma24_payload(nested_tensor(LIMIT // 2 - 2, PSI)), LIMIT - 1, 0),
            ("lemma24", lemma24_payload("[%s]" % nested_tensor(LIMIT // 2 - 2, PSI)), LIMIT, 1),
            ("lemma24", lemma24_payload(nested_tensor(LIMIT // 2 - 1, PSI)), LIMIT + 1, 3),
        ]])
    def test_nesting_limit(self, verb, payload, depth, status):
        assert json_depth(payload) == depth
        proc = run_process("-m", "wittcert.cli", verb, payload)
        assert proc.returncode == status and "Traceback" not in proc.stderr
        out = json.loads(proc.stdout)
        if status == 3:
            assert out["error"] == "limit-exceeded"
        elif status == 1:
            assert out["error"] == "malformed-input"
        else:
            assert "error" not in out

    def test_factorization_limit_exits_3(self):
        # 10^111 + 3 lies beyond exact primality testing; it used to run on
        # in Pollard-Brent without an answer.
        payload = json.dumps({"diag": [1, 1, 10 ** 111 + 3]})
        proc = run_process("-m", "wittcert.cli", "isotropic", payload)
        assert proc.returncode == 3 and json.loads(proc.stdout)["error"] == "limit-exceeded"
        assert "Traceback" not in proc.stderr

    def test_closed_pipe_exits_141_without_a_traceback(self):
        # About 160 kB of output: more than the pipe holds, so the CLI is
        # still writing when the reader closes the pipe after one line.
        payload = json.dumps({"phi": {"diag": [1, 1, 1, 1, 1, -3]}, "q": [-1, -1],
                              "multipliers": list(range(2, 102))})
        proc = subprocess.Popen([sys.executable, "-m", "wittcert.cli", "thm6", payload, "--trace"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_CLOSED_PIPE
        assert stderr == b""

    def test_import_leaves_logging_unloaded(self):
        proc = run_process("-c", "import sys, wittcert.cli; print('logging' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout.strip() == "False"
