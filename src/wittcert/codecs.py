"""Parsing and serialisation: the canonical text syntax for forms and
towers, the composable JSON descriptors, and the versioned certificate and
report schemas.

Rationals appear in JSON as integers or as exact strings "n/d"; no value is
ever a float.  Serialisation builds dictionaries in a fixed key order, so
identical inputs produce byte-identical JSON.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import prod

from .arith import DomainError, LimitExceeded  # noqa: F401 (re-exported)


class ParseError(DomainError):
    """Malformed descriptor or payload (maps to CLI exit status 1)."""
from .extensions import ExtensionTower, make_tower
from .forms import QForm, orth_sum, pfister, qform, scale, tensor
from .involutions import InvolutionAlgebra, QuaternionAlg, quaternion
from .localfields import LocalField
from .similitude import HypCertificate, MultiplierResult, PipelineReport, PfisterDecomposition

CERTIFICATE_SCHEMA = "hyp-certificate/1"
REPORT_SCHEMA = "pipeline-report/1"
# Largest dimension a `tensor` or `sum` descriptor may expand to: far above
# the 24 dimensions of the certificate pipeline's forms, and small enough
# that every verb answers within a second.
MAX_EXPANDED_DIM = 1024
# Deepest nesting of JSON arrays and objects in a CLI payload: far above the
# depth of any descriptor the verbs need, and far below the depth at which
# `json.loads` or the recursion of `parse_form` would exhaust the stack.
MAX_NESTING_DEPTH = 256

_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_BRACKET = re.compile(r"[\[\]{}]")


def check_nesting(text: str) -> None:
    """Refuse a payload whose arrays and objects nest deeper than
    `MAX_NESTING_DEPTH` (`LimitExceeded`), before it is decoded.  Brackets
    inside JSON strings do not count."""
    depth = 0
    for bracket in _BRACKET.findall(_STRING.sub("", text)):
        depth += 1 if bracket in "[{" else -1
        if depth > MAX_NESTING_DEPTH:
            raise LimitExceeded(f"payload nests deeper than the limit {MAX_NESTING_DEPTH}")


# ----------------------------------------------------------------------
# Rationals.


def parse_rat(obj) -> Fraction:
    if isinstance(obj, bool):
        raise ParseError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {obj!r}") from exc
    raise ParseError(f"not a rational: {obj!r}")


def dump_rat(q) -> int | str:
    q = Fraction(q)
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ----------------------------------------------------------------------
# Forms: text and JSON.


def parse_form_text(text: str) -> QForm:
    """`<a1,a2,...>` for diagonal forms, `<<a1,...,an>>` for Pfister forms."""
    t = text.strip()
    if t.startswith("<<") and t.endswith(">>"):
        return pfister([int(x) for x in t[2:-2].split(",")])
    if t.startswith("<") and t.endswith(">"):
        return qform([int(x) for x in t[1:-1].split(",")])
    raise ParseError(f"unrecognised form syntax: {text!r}")


def parse_form(obj) -> QForm:
    """Composable JSON descriptor: diag / pfister / tensor / sum / scale.  A
    `tensor` or `sum` whose expansion would exceed `MAX_EXPANDED_DIM`
    dimensions is refused before it is expanded."""
    if isinstance(obj, str):
        return parse_form_text(obj)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParseError(f"form descriptor must be a single-key object: {obj!r}")
    key, val = next(iter(obj.items()))
    if key == "diag":
        return qform([parse_rat(x) for x in val])
    if key == "pfister":
        return pfister([parse_rat(x) for x in val])
    if key in ("tensor", "sum"):
        if not val:
            raise ParseError(f"{key} descriptor needs at least one form")
        parts = [parse_form(x) for x in val]
        dims = [p.dim for p in parts]
        dim = prod(dims) if key == "tensor" else sum(dims)
        if dim > MAX_EXPANDED_DIM:
            raise LimitExceeded(f"{key} descriptor expands to dimension {dim}, "
                                f"above the limit {MAX_EXPANDED_DIM}")
        combine = tensor if key == "tensor" else orth_sum
        out = parts[0]
        for p in parts[1:]:
            out = combine(out, p)
        return out
    if key == "scale":
        if len(val) != 2:
            raise ParseError(f"scale descriptor must be [c, form]: {val!r}")
        return scale(parse_rat(val[0]), parse_form(val[1]))
    raise ParseError(f"unknown form descriptor key: {key!r}")


def dump_form(phi: QForm) -> dict:
    return {"diag": list(phi.entries)}


# ----------------------------------------------------------------------
# Towers.


def parse_tower_text(text: str) -> ExtensionTower:
    """`Q` or `Q(sqrt d1, sqrt d2)`."""
    t = text.strip()
    if t == "Q":
        return make_tower([])
    if not (t.startswith("Q(") and t.endswith(")")):
        raise ParseError(f"unrecognised tower syntax: {text!r}")
    ds = []
    for part in t[2:-1].split(","):
        part = part.strip()
        if not part.startswith("sqrt"):
            raise ParseError(f"unrecognised tower generator: {part!r}")
        ds.append(int(part[4:].strip()))
    return make_tower(ds)


def parse_tower(obj) -> ExtensionTower:
    if isinstance(obj, str):
        return parse_tower_text(obj)
    if isinstance(obj, dict) and set(obj) == {"tower"}:
        return make_tower([parse_rat(x) for x in obj["tower"]])
    raise ParseError(f"unrecognised tower descriptor: {obj!r}")


def dump_tower(M: ExtensionTower) -> dict:
    return {
        "generators": list(M.generators),
        "degree": M.degree,
        "downgraded": M.downgraded,
    }


# ----------------------------------------------------------------------
# Quaternions and involution algebras.


def parse_quaternion(obj) -> QuaternionAlg:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return quaternion(parse_rat(obj[0]), parse_rat(obj[1]))
    if isinstance(obj, dict) and set(obj) == {"quaternion"}:
        return parse_quaternion(obj["quaternion"])
    raise ParseError(f"unrecognised quaternion descriptor: {obj!r}")


def parse_inv_algebra(obj) -> InvolutionAlgebra:
    if isinstance(obj, dict) and set(obj) == {"inv_algebra"}:
        obj = obj["inv_algebra"]
    if not isinstance(obj, dict) or set(obj) != {"phi", "q"}:
        raise ParseError(f"unrecognised involution algebra descriptor: {obj!r}")
    return InvolutionAlgebra(parse_form(obj["phi"]), parse_quaternion(obj["q"]))


# ----------------------------------------------------------------------
# Completions, certificates, reports.


def dump_completion(E: LocalField) -> dict:
    return {
        "base": str(E.base),
        "generators": list(E.gens),
        "e": E.e,
        "f": E.f,
        "degree": E.degree,
    }


def dump_certificate(cert: HypCertificate) -> dict:
    return {
        "schema": CERTIFICATE_SCHEMA,
        "multiplier": dump_rat(cert.multiplier),
        "tower": dump_tower(cert.tower),
        "square_adjustment": dump_rat(cert.square_adjustment),
        "evidence": dump_evidence(cert.evidence),
    }


def dump_evidence(evidence) -> list[dict]:
    """One entry per `PlaceEvidence`: the place, its completion, the
    multiplicity and the local verdict."""
    return [
        {
            "place": str(ev.completion.base),
            "completion": dump_completion(ev.completion),
            "multiplicity": ev.multiplicity,
            "local_verdict": {"aniso_dim": ev.aniso_dim,
                              "hyperbolic": ev.aniso_dim == 0},
        }
        for ev in evidence
    ]


def parse_certificate(obj) -> HypCertificate:
    """The certificate as stated, its tower never rewritten by `make_tower`
    (integral generators as `int`); its evidence is advisory and not parsed."""
    if not isinstance(obj, dict) or obj.get("schema") != CERTIFICATE_SCHEMA:
        raise ParseError("certificate payload must carry schema "
                          f"{CERTIFICATE_SCHEMA!r}")
    gens = [parse_rat(g) for g in obj["tower"]["generators"]]
    tower = ExtensionTower(tuple(int(g) if g.denominator == 1 else g for g in gens))
    return HypCertificate(
        multiplier=parse_rat(obj["multiplier"]),
        tower=tower,
        square_adjustment=parse_rat(obj.get("square_adjustment", 1)),
        evidence=(),
    )


def dump_decomposition(dec: PfisterDecomposition) -> dict:
    return {
        "scale4": dec.scale4,
        "slots4": list(dec.slots4),
        "scale3": dec.scale3,
        "slots3": list(dec.slots3),
    }


def dump_multiplier_result(res: MultiplierResult) -> dict:
    out: dict = {"multiplier": res.multiplier, "status": res.status}
    if res.certificate is not None:
        out["certificate"] = dump_certificate(res.certificate)
    return out


def dump_report(rep: PipelineReport) -> dict:
    out: dict = {
        "schema": REPORT_SCHEMA,
        "description": rep.description,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in rep.checks
        ],
        "hypotheses_passed": rep.hypotheses_passed,
    }
    if rep.halted_at is not None:
        out["halted_at"] = rep.halted_at
    if rep.psi is not None:
        out["psi"] = dump_form(rep.psi)
    out["multipliers"] = [dump_multiplier_result(m) for m in rep.multipliers]
    return out
