"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time

import pytest

from oracles import check_witness, isotropic_witness, kummer_group, least_member, prop_index_check
from test_local import derived
from wittcert import forms as forms_mod
from wittcert.arith import prime_support, squarefree_rep
from wittcert.extensions import make_tower
from wittcert.forms import (
    in_G,
    in_In,
    is_isotropic,
    isotropy_obstruction,
    pfister,
    qform,
    tensor,
    witt_equivalent,
)
from wittcert.involutions import norm_form, quaternion
from wittcert.localfields import (
    LocalField,
    Place,
    REAL,
    hilbert_symbol,
)
from wittcert.similitude import (
    HypCertificate,
    lemma24_certificate,
    thm4_decompose,
    thm6_pipeline,
    verify_certificate,
)

_collected_certificates: list = []  # (form, certificate), shared with criterion 8


def _report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_form(rng, dim, height=20):
    return qform([rng.choice([-1, 1]) * rng.randint(1, height) for _ in range(dim)])


def test_criterion_1_hasse_minkowski_oracle():
    """1,000 random forms: every isotropic verdict is backed by an explicit
    integer witness, every anisotropic verdict by a local obstruction."""
    rng = random.Random(101)
    t0 = time.time()
    disagreements = 0
    isotropic_count = 0
    for _ in range(1000):
        phi = random_form(rng, rng.randint(1, 5), height=20)
        if is_isotropic(phi):
            isotropic_count += 1
            w = isotropic_witness(phi.entries, heights=(12, 60, 200))
            if w is None or not check_witness(phi.entries, w):
                disagreements += 1
        else:
            v = isotropy_obstruction(phi)
            if v is None:
                disagreements += 1
            elif isotropic_witness(phi.entries, heights=(12,)) is not None:
                disagreements += 1
    elapsed = time.time() - t0
    _report(1, disagreements == 0 and elapsed < 120,
            f"{isotropic_count} isotropic / 1000 forms, {disagreements} disagreements, "
            f"{elapsed:.1f}s")


def test_criterion_2_hilbert_symbol_laws():
    """Symmetry, bimultiplicativity, (a, -a) = +1 and the product formula on
    10,000 random pairs over every supported completion shape, including all
    degree <= 4 dyadic fields (the closed forms; their agreement with the
    residue searches is checked exhaustively in test_local)."""
    rng = random.Random(102)
    fields = [LocalField(REAL), LocalField(REAL, gens=(-1,)),
              LocalField(Place(2)), LocalField(Place(3)),
              LocalField(Place(5)), LocalField(Place(7))]
    # The 2-adic classes by number: the unramified one, of 5, is number 2.
    dyadic = [least_member(i, 2) for i in range(1, 8)]
    for c in dyadic:
        f = 2 if c == 5 else 1
        fields.append(derived(Place(2), (c,), 2 // f, f))
    quartics = []
    import itertools
    for c1, c2 in itertools.combinations(dyadic, 2):
        group = kummer_group([c1, c2], 2)
        if len(group) == 4 and group not in [q[0] for q in quartics]:
            f = 2 if 2 in group else 1
            gens = tuple(sorted(least_member(i, 2) for i in group if i)[:2])
            quartics.append((group, derived(Place(2), gens, 4 // f, f)))
    fields.extend(E for _, E in quartics)
    fields.append(derived(Place(3), (3,), 2, 1))
    fields.append(derived(Place(7), (3,), 1, 2))
    fields.append(derived(Place(5), (2, 5), 2, 2))

    t0 = time.time()
    failures = 0
    for i in range(10000):
        a = rng.randint(-50, 50) or 1
        b = rng.randint(-50, 50) or 1
        c = rng.randint(-50, 50) or 1
        E = fields[i % len(fields)]
        sab = hilbert_symbol(a, b, E)
        if sab != hilbert_symbol(b, a, E):
            failures += 1
        if hilbert_symbol(a, -a, E) != 1:
            failures += 1
        if hilbert_symbol(a * c, b, E) != sab * hilbert_symbol(c, b, E):
            failures += 1
        prod = hilbert_symbol(a, b, LocalField(REAL))
        for p in prime_support([a, b]):
            prod *= hilbert_symbol(a, b, LocalField(Place(p)))
        if prod != 1:
            failures += 1
    elapsed = time.time() - t0
    _report(2, failures == 0,
            f"10000 pairs x {len(fields)} completion shapes, {failures} failures, "
            f"{elapsed:.1f}s")


def test_criterion_3_thm4_identity():
    """1,000 random (phi4, Q): the scaled 4-fold + scaled 3-fold Pfister
    decomposition is Witt equivalent to <<a,b>> (x) phi4."""
    rng = random.Random(103)
    t0 = time.time()
    failures = 0
    for _ in range(1000):
        phi4 = random_form(rng, 4, height=20)
        q = quaternion(rng.choice([-1, 1]) * rng.randint(1, 15),
                       rng.choice([-1, 1]) * rng.randint(1, 15))
        try:
            dec = thm4_decompose(phi4, q)  # verifies internally
        except forms_mod.InvariantViolation:
            failures += 1
            continue
        if not witt_equivalent(dec.reassemble(), tensor(norm_form(q), phi4)):
            failures += 1
    elapsed = time.time() - t0
    _report(3, failures == 0, f"1000 instances, {failures} failures, {elapsed:.1f}s")


def _generate_lemma24_instances(rng, count):
    """Instances satisfying the hypotheses, roughly half of them definite
    (signature 16) so that non-trivial towers are actually exercised: only
    the real place can obstruct such a product form over Q, so definite
    instances are exactly the ones whose certificates need an extension."""
    out = []
    while len(out) < count:
        definite = rng.random() < 0.5
        if definite:
            a = squarefree_rep(-rng.randint(1, 12))
            b = squarefree_rep(-rng.randint(1, 12))
        else:
            a = squarefree_rep(rng.choice([-1, 1]) * rng.randint(1, 12))
            b = squarefree_rep(rng.choice([-1, 1]) * rng.randint(1, 12))
        nf = pfister([a, b])
        x = [rng.randint(-6, 6) for _ in range(4)]
        c0 = sum(e * t * t for e, t in zip(nf.entries, x))
        if c0 == 0:
            continue
        c0 = squarefree_rep(c0)
        if definite:
            e = [rng.randint(1, 10) for _ in range(5)]
        else:
            e = [rng.choice([-1, 1]) * rng.randint(1, 10) for _ in range(5)]
        prod = 1
        for t in e:
            prod *= t
        psi = qform(e + [squarefree_rep(-c0 * prod)])
        phi = tensor(nf, psi)
        if not in_In(phi, 4):
            continue
        y = [rng.randint(-6, 6) for _ in range(4)]
        cval = sum(t * s * s for t, s in zip(nf.entries, y)) or 1
        c = squarefree_rep(cval) * rng.choice([1, 1, 4, 9])
        if not in_G(phi, c):
            continue
        out.append((nf, psi, c))
    return out


def test_criterion_4_lemma24_certificate_suite():
    """100 generated instances satisfying the hypotheses: the search returns a
    certificate of tower degree 1, 2 or 4 within the default bound, and every
    certificate passes the independent verifier."""
    rng = random.Random(104)
    t0 = time.time()
    instances = _generate_lemma24_instances(rng, 100)
    not_found = 0
    verification_failures = 0
    degrees = {1: 0, 2: 0, 4: 0}
    for nf, psi, c in instances:
        phi = tensor(nf, psi)
        outcome = lemma24_certificate(nf, psi, c)
        if not isinstance(outcome, HypCertificate):
            not_found += 1
            continue
        degrees[outcome.tower.degree] += 1
        if not verify_certificate(phi, outcome):
            verification_failures += 1
        _collected_certificates.append((phi, outcome))
    elapsed = time.time() - t0
    _report(4, not_found == 0 and verification_failures == 0 and elapsed < 300,
            f"100 instances, degrees {degrees}, {not_found} not found, "
            f"{verification_failures} verification failures, {elapsed:.1f}s")


def test_criterion_5_thm6_worked_instance():
    """Q = (2,5), phi = <1,1,1,1,1,2>: all hypothesis checks pass and at least
    10 sampled multipliers certify.  Negative control Q = (-1,-1),
    phi = <1,...,1> halts at the discriminant check."""
    multipliers = [1, -1, -2, -5, 10, 2, -7, -6, -3, 7, 11, -23]
    rep = thm6_pipeline(qform([1, 1, 1, 1, 1, 2]), quaternion(2, 5), multipliers)
    ok = rep.hypotheses_passed
    checks = {name: passed for name, passed, _ in rep.checks}
    ok &= checks.get("degree", False) and checks.get("index", False)
    ok &= checks.get("delta-trivial", False) and checks.get("psi-in-I4", False)
    certified = [m for m in rep.multipliers if m.status == "certificate"]
    ok &= len(certified) >= 10
    for m in certified:
        if not verify_certificate(rep.psi, m.certificate):
            ok = False
        _collected_certificates.append((rep.psi, m.certificate))
    control = thm6_pipeline(qform([1, 1, 1, 1, 1, 1]), quaternion(-1, -1))
    ok &= control.halted_at == "delta-trivial"
    _report(5, ok,
            f"worked instance: {len(certified)}/{len(rep.multipliers)} multipliers "
            f"certified; negative control halted at {control.halted_at!r}")


def test_criterion_7_prop_index_shadow():
    """500 random (pi 1- or 2-fold, even psi, tower of degree <= 4): the
    anisotropic dimension over the tower always factors through pi."""
    rng = random.Random(107)
    t0 = time.time()
    failures = 0
    for _ in range(500):
        n = rng.choice([1, 2])
        pi = pfister([rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(n)])
        psi = random_form(rng, rng.choice([2, 4, 6]), height=12)
        M = make_tower([rng.choice([-1, 1]) * rng.randint(2, 30)
                        for _ in range(rng.randint(0, 2))])
        if not prop_index_check(pi, psi, M):
            failures += 1
    elapsed = time.time() - t0
    _report(7, failures == 0, f"500 instances, {failures} failures, {elapsed:.1f}s")


def test_criterion_8_hyp_subset_of_g():
    """Every verified certificate's multiplier is a similarity factor of the
    certified form (the norm-group inclusion side of the multiplier group)."""
    if not _collected_certificates:
        rng = random.Random(108)
        for nf, psi, c in _generate_lemma24_instances(rng, 10):
            phi = tensor(nf, psi)
            cert = lemma24_certificate(nf, psi, c)
            assert isinstance(cert, HypCertificate)
            _collected_certificates.append((phi, cert))
    violations = 0
    for phi, cert in _collected_certificates:
        if not verify_certificate(phi, cert):
            violations += 1
        if not in_G(phi, cert.multiplier):
            violations += 1
    _report(8, violations == 0,
            f"{len(_collected_certificates)} certificates, {violations} violations")


def test_criterion_6_arason_pfister_runtime_assertion(monkeypatch):
    """The guard armed on every witt_decompose call fires: with a fault that
    reports a local anisotropic dimension of 2, a hyperbolic form in I^4
    would decompose with anisotropic dimension strictly between 0 and 16,
    and witt_decompose raises instead."""
    phi = pfister([1, 2, 3, 5])
    assert in_In(phi, 4) and forms_mod.witt_decompose(phi)[1] == 0
    monkeypatch.setattr(forms_mod, "local_aniso_dim", lambda cls, E: 2)
    with pytest.raises(forms_mod.InvariantViolation, match="Arason-Pfister"):
        forms_mod.witt_decompose(phi)
    _report(6, True, "a faulty local dimension on <<1,2,3,5>> raises InvariantViolation")
