"""Command-line surface: every engine capability behind one verb with JSON
input and output.

    wittcert <verb> '<json payload>' [--bound N] [--trace] [--seed N]

Exit status: 0 on success (including the explicit not-found result of
`lemma-beta`), 2 when a hypothesis check or precondition fails (the failing
check is named), 1 on malformed input, 3 on input beyond a fixed size limit
(`limit-exceeded`: a form descriptor expanding above
`codecs.MAX_EXPANDED_DIM` dimensions, or a payload nesting deeper than
`codecs.MAX_NESTING_DEPTH`), 141 when the reader closes standard
output before the answer is written (the status of a process that a shell
pipe ends by SIGPIPE; nothing is printed).  Output is deterministic: fixed key
order, exact integers and rational strings, never floats; it depends on the
arguments alone, never on the environment.  `--bound` decides whether
`lemma-beta` finds an extension; for `lemma24` and `thm6` it caps only the
cost of the search, since a similarity factor always certifies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import DomainError
from . import codecs
from .codecs import LimitExceeded, ParseError
from .extensions import TRIVIAL_TOWER, aniso_dim_over, hyperbolicity_evidence, norm_member, norm_member_tower
from .forms import disc, in_G, in_In, is_isometric, is_isotropic, signature, witt_decompose
from .involutions import degree_index, involution_discriminant, is_split, norm_form, reduce_to_form
from .localfields import completions, form_class_at
from .similitude import (
    DEFAULT_BOUND,
    lemma24_certificate,
    lemma_beta_search,
    thm4_decompose,
    thm6_pipeline,
    verify_certificate,
)

VERBS = (
    "invariants", "isotropic", "witt", "isometric", "pfister-expand",
    "in-g", "in-in", "quaternion", "delta", "reduce", "lemma-beta",
    "lemma24", "thm4", "thm6", "verify-cert", "norm-member",
)


EXIT_CLOSED_PIPE = 141


class HypothesisFailure(Exception):
    """Named hypothesis-check failure: exit status 2."""


def _form_invariants(phi, trace: bool) -> dict:
    walk = [(E, form_class_at(phi.entries, E)) for E in completions(phi.support)]
    w, aniso, cls = witt_decompose(phi, walk)
    out = {
        "dim": phi.dim,
        "disc": disc(phi),
        "signature": signature(phi),
        "hasse_minus_places": [str(v) for v in cls.hasse_minus_places],
        "isotropic": w > 0,
        "witt_index": w,
        "aniso_dim": aniso,
    }
    if trace:
        out["hasse"] = [{"place": str(E.base), "value": c.hasse} for E, c in walk]
    return out


def _run_verb(verb: str, payload, opts) -> dict:
    if verb == "invariants":
        return _form_invariants(codecs.parse_form(payload), opts.trace)

    if verb == "isotropic":
        phi = codecs.parse_form(payload)
        out = {"isotropic": is_isotropic(phi)}
        if opts.trace:
            out["evidence"] = codecs.dump_evidence(hyperbolicity_evidence(phi, TRIVIAL_TOWER))
        return out

    if verb == "witt":
        if isinstance(payload, dict) and "form" in payload:
            phi = codecs.parse_form(payload["form"])
            if "tower" in payload:
                tower = codecs.parse_tower(payload["tower"])
                aniso = aniso_dim_over(phi, tower)
                return {"witt_index": (phi.dim - aniso) // 2, "hyperbolic": aniso == 0}
        else:
            phi = codecs.parse_form(payload)
        w, aniso, cls = witt_decompose(phi)
        return {"witt_index": w, "aniso_dim": aniso,
                "hyperbolic": aniso == 0,
                "aniso_class": {
                    "dim_parity": cls.dim_parity,
                    "disc": cls.disc,
                    "hasse_minus_places": [str(v) for v in cls.hasse_minus_places],
                    "signature": cls.signature,
                }}

    if verb == "isometric":
        left = codecs.parse_form(payload["left"])
        right = codecs.parse_form(payload["right"])
        return {"isometric": is_isometric(left, right)}

    if verb == "pfister-expand":
        phi = codecs.parse_form(payload)
        return {"diag": list(phi.entries)}

    if verb == "in-g":
        phi = codecs.parse_form(payload["form"])
        c = codecs.parse_rat(payload["c"])
        return {"c": codecs.dump_rat(c), "in_g": in_G(phi, c)}

    if verb == "in-in":
        phi = codecs.parse_form(payload["form"])
        n = payload["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError(f"n must be an integer: {n!r}")
        return {"n": n, "in_in": in_In(phi, n)}

    if verb == "quaternion":
        q = codecs.parse_quaternion(payload)
        return {"norm_form": list(norm_form(q).entries), "split": is_split(q)}

    if verb == "delta":
        alg = codecs.parse_inv_algebra(payload)
        degree, index = degree_index(alg)
        delta, trivial = involution_discriminant(alg)
        return {
            "degree": degree,
            "index": index,
            "delta_pfister": list(delta.entries),
            "trivial": trivial,
        }

    if verb == "reduce":
        alg = codecs.parse_inv_algebra(payload)
        return {"diag": list(reduce_to_form(alg).entries)}

    if verb == "lemma-beta":
        phi = codecs.parse_form(payload["form"])
        a = codecs.parse_rat(payload["a"])
        d = lemma_beta_search(phi, a, opts.bound)
        if d is None:
            return {"result": "not-found-within-bounds", "bound": opts.bound}
        return {"d": d}

    if verb == "lemma24":
        pi = codecs.parse_form(payload["pi"])
        psi = codecs.parse_form(payload["psi"])
        c = codecs.parse_rat(payload["c"])
        cert = lemma24_certificate(pi, psi, c, opts.bound)
        out = {"certificate": codecs.dump_certificate(cert)}
        if opts.trace:
            out["trace"] = codecs.dump_evidence(cert.evidence)
        return out

    if verb == "thm4":
        phi = codecs.parse_form(payload["phi"])
        q = codecs.parse_quaternion(payload["q"])
        dec = thm4_decompose(phi, q)
        return codecs.dump_decomposition(dec)

    if verb == "thm6":
        phi = codecs.parse_form(payload["phi"])
        q = codecs.parse_quaternion(payload["q"])
        multipliers = payload.get("multipliers")
        if multipliers is not None:
            multipliers = [codecs.parse_rat(c) for c in multipliers]
        rep = thm6_pipeline(phi, q, multipliers, opts.bound, opts.seed)
        out = codecs.dump_report(rep)
        if not rep.hypotheses_passed:
            raise HypothesisFailure(json.dumps(out, indent=2))
        return out

    if verb == "verify-cert":
        phi = codecs.parse_form(payload["form"])
        cert = codecs.parse_certificate(payload["certificate"])
        return {"valid": verify_certificate(phi, cert)}

    if verb == "norm-member":
        c = codecs.parse_rat(payload["c"])
        if "tower" in payload:
            tower = codecs.parse_tower({"tower": payload["tower"]})
            return {"member": norm_member_tower(c, tower)}
        return {"member": norm_member(c, codecs.parse_rat(payload["d"]))}

    raise DomainError(f"unknown verb {verb!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittcert",
        description="Exact quadratic-form engine over Q: invariants, "
                    "local-global decisions, and hyperbolicity certificates.",
    )
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("payload", nargs="?", default="{}",
                        help="JSON payload (or a bare form/tower string)")
    parser.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                        help="largest square-free tower generator searched "
                             "(default 10^6); for lemma24 and thm6 it caps "
                             "only the search cost, Q(sqrt -c) closes the search")
    parser.add_argument("--trace", action="store_true",
                        help="emit per-place local evidence for hyperbolicity verdicts")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for multiplier sampling when none are supplied")
    return parser


def main(argv=None) -> int:
    try:
        status = _answer(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (`wittcert ... | head`): stdout goes to devnull
        # so that the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return status


def _decode(text: str):
    """The JSON payload, or the text itself for the bare text syntaxes; a
    payload nesting deeper than `codecs.MAX_NESTING_DEPTH` is refused before
    it is decoded."""
    codecs.check_nesting(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _answer(argv) -> int:
    """Run one invocation and print its JSON; the exit status."""
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        result = _run_verb(opts.verb, _decode(opts.payload), opts)
    except HypothesisFailure as exc:
        print(str(exc))
        return 2
    except ParseError as exc:
        print(json.dumps({"error": "malformed-input", "detail": str(exc)}, indent=2))
        return 1
    except LimitExceeded as exc:
        print(json.dumps({"error": "limit-exceeded", "detail": str(exc)}, indent=2))
        return 3
    except DomainError as exc:
        print(json.dumps({"error": "precondition-failed", "detail": str(exc)}, indent=2))
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(json.dumps({"error": "malformed-input", "detail": str(exc)}, indent=2))
        return 1
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
