"""The main procedures: the quadratic-extension search that raises the Witt
index, the hyperbolicity-certificate constructor (a trivial or an imaginary
quadratic tower, which is all the theorems over Q leave), the degree-8
Pfister decomposition, the degree-12 pipeline, and the independent
certificate verifier.

Searches are deterministic: square-free candidates are ordered by absolute
value (smallest first, + before -), built from the instance's prime support
and the small primes, and the first qualifying candidate is returned.  The
certificate constructor is total: its search bound caps only the cost of the
search, because Q(sqrt -c) closes it when no candidate within the bound
qualifies.  The verifier re-derives both certificate conclusions from
scratch; the engine memoises nothing, so no verdict of the search is reused.
The search checks each certificate it issues against the same conditions
(`_certificate_holds`), on the evidence it has just built and the primes it
already holds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import DomainError, Rat, _class_product, _is_rational_square, _squarefree_part, squarefree_rep
from .extensions import (
    ExtensionTower,
    PlaceEvidence,
    TRIVIAL_TOWER,
    _aniso_dim_from,
    _is_class_of,
    _norm_member,
    _tower_rule_holds,
    hyperbolicity_evidence,
)
from .forms import (
    InvariantViolation,
    QForm,
    _in_G,
    _pfister_entries,
    _scaled,
    orth_sum,
    pfister_slots,
    signature,
    tensor,
    witt_decompose,
    witt_equivalent,
)
from .involutions import InvolutionAlgebra, QuaternionAlg, degree_index, involution_discriminant, norm_form, reduce_to_form

DEFAULT_BOUND = 10**6
_MAX_FACTORS = 4
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True, slots=True)
class HypCertificate:
    """Checkable witness that a tower hyperbolises the form and contains the
    multiplier in its norm group (up to squares)."""

    multiplier: Rat  # parsed as given; the verifier rejects a non-integer
    tower: ExtensionTower
    square_adjustment: Fraction  # s^2 with c * s^2 = multiplier; 1 when unused
    evidence: tuple[PlaceEvidence, ...]


@dataclass(frozen=True, slots=True)
class PfisterDecomposition:
    """Witt decomposition of <<a,b>> (x) phi4 into a scaled 4-fold and a
    scaled 3-fold Pfister form.  `primes` holds 2 and the primes that the
    scales and slots are built from (those of phi4 and of a, b)."""

    scale4: int
    slots4: tuple[int, int, int, int]
    scale3: int
    slots3: tuple[int, int, int]
    primes: frozenset[int] = field(compare=False, repr=False)

    def reassemble(self) -> QForm:
        """The scaled Pfister forms, expanded by gcd products of the square
        classes; the support is read off `primes`, nothing is factored."""
        four = QForm._derived(_pfister_entries(self.slots4), self.primes)
        three = QForm._derived(_pfister_entries(self.slots3), self.primes)
        return orth_sum(_scaled(self.scale4, (), four), _scaled(self.scale3, (), three))


@dataclass(slots=True)
class MultiplierResult:
    multiplier: int
    status: str  # "certificate" | "not-in-G"; a similarity factor always certifies
    certificate: HypCertificate | None = None


@dataclass(slots=True)
class PipelineReport:
    """Instance-level record of the degree-12 pipeline: hypothesis checks in
    order, then one entry per requested multiplier."""

    description: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    halted_at: str | None = None
    psi: QForm | None = None
    multipliers: list[MultiplierResult] = field(default_factory=list)

    @property
    def hypotheses_passed(self) -> bool:
        return self.halted_at is None


# ----------------------------------------------------------------------
# Candidate stream.


def _check_bound(bound: int) -> None:
    if bound < 1:
        raise DomainError(f"search bound must be at least 1, got {bound}")


def candidate_classes(support_primes, bound: int):
    """Square-free candidates d != 1 ordered by |d| (then + before -): -1 and
    the products of one to four primes of the given support or the small
    primes, up to the bound, each yielded as (d, the primes of d), so that
    no caller factors a candidate again.

    The products are enumerated lazily in increasing order from a heap.  A
    product whose largest prime is pool[i] has two successors, both larger:
    times pool[i+1], and with pool[i] replaced by pool[i+1].  Every set of
    prime indices arises from exactly one predecessor, so each product is
    pushed once, and only when it is within the bound."""
    pool = sorted(set(support_primes) | set(_SMALL_PRIMES))
    heap = [(1, -1, ())]  # (product, index of its largest prime, its primes)
    while heap:
        v, i, primes = heapq.heappop(heap)
        if v != 1:
            yield v, primes
        yield -v, primes
        j = i + 1
        if j == len(pool):
            continue
        if len(primes) < _MAX_FACTORS and v * pool[j] <= bound:
            heapq.heappush(heap, (v * pool[j], j, primes + (pool[j],)))
        if primes and v // pool[i] * pool[j] <= bound:
            heapq.heappush(heap, (v // pool[i] * pool[j], j, primes[:-1] + (pool[j],)))


def lemma_beta_search(phi: QForm, a: Rat, bound: int = DEFAULT_BOUND) -> int | None:
    """A square-free d != 1 with i(phi over Q(sqrt d)) > i(phi) and a in
    N*_{Q(sqrt d)}, or None when the bound is exhausted.

    Preconditions: the bound is at least 1, a is a similarity factor of phi
    and phi is not hyperbolic (such a d exists; the search bound is an
    engineering cap).
    """
    _check_bound(bound)
    _, aniso, _ = witt_decompose(phi)
    if aniso == 0:
        raise DomainError("form is hyperbolic: no index-raising extension is needed")
    if Fraction(a) == 0:
        raise DomainError("similarity factor must be nonzero")
    a_sf, a_primes = _squarefree_part(a)
    if not _in_G(phi, a_sf, a_primes):
        raise DomainError(f"{a} is not a similarity factor of the form")
    for d, d_primes in candidate_classes(phi.support.union(a_primes), bound):
        if not _norm_member(a_sf, a_primes, d, d_primes):
            continue
        # The index rises iff the anisotropic dimension falls.
        tower = ExtensionTower((d,))
        if _aniso_dim_from(phi, tower, hyperbolicity_evidence(phi, tower, (d_primes,))) < aniso:
            return d
    return None


# ----------------------------------------------------------------------
# Certificates.


def _certificate(phi: QForm, tower: ExtensionTower, gen_primes, c_original: Rat, c_sf: int,
                 c_primes) -> HypCertificate:
    """The certificate for phi over the tower, whose generators have the
    primes `gen_primes` (one tuple per generator), c_sf the square class of
    the multiplier c_original with the primes `c_primes`.  Its evidence is
    built once, and the certificate is checked against every verifier
    condition on that evidence before it is returned; nothing is factored."""
    if not _tower_rule_holds(tower.generators, gen_primes):
        raise InvariantViolation(f"search produced a tower outside the rule: {tower}")
    cert = HypCertificate(
        multiplier=c_sf,
        tower=tower,
        square_adjustment=Fraction(c_sf) / Fraction(c_original),
        evidence=tuple(hyperbolicity_evidence(phi, tower, gen_primes)),
    )
    if not _certificate_holds(phi, cert, cert.evidence, gen_primes, c_primes):
        raise InvariantViolation(f"search produced a certificate that fails verification: {cert}")
    return cert


def _tensor_hypotheses(phi: QForm) -> tuple[bool, bool]:
    """(phi in I^4, phi hyperbolic) for phi = pi (x) psi, pi a 2-fold Pfister
    form and psi even-dimensional, both read off the signature.

    phi is hyperbolic at every prime p.  If pi is isotropic over Q_p it is
    hyperbolic.  Otherwise it is universal, so a pi = pi for every a and
    pi (x) psi is a sum of copies of 2 pi = <<-1, a, b>>, which has dimension
    8 > 4 and is therefore isotropic, hence hyperbolic (Lam, Introduction to
    Quadratic Forms over Fields, VI.2 and X; Serre, A Course in Arithmetic,
    IV.2).  So phi has trivial discriminant and split finite Hasse data: it
    lies in I^4 iff 16 divides its signature, and c phi = phi holds at every
    prime, so c is a similarity factor iff c > 0 or phi is hyperbolic
    (signature 0).  `tests/test_closed_forms.py` checks the local fact on
    every base completion Q_p, p <= 13."""
    sig = signature(phi)
    return sig % 16 == 0, sig == 0


def lemma24_certificate(pi: QForm, psi: QForm, c: Rat,
                        bound: int = DEFAULT_BOUND) -> HypCertificate:
    """For phi = pi (x) psi in I^4 (pi a 2-fold Pfister form, psi of dimension
    6) and a similarity factor c, produce a verified certificate whose tower
    is trivial or imaginary quadratic, with phi hyperbolic over the tower and
    c in Q*^2 * N*.

    Both hypotheses are read off the signature of phi, which is hyperbolic
    at every prime (`_tensor_hypotheses`): no place is walked to decide
    them, and c is factored once.  The tower follows from two theorems.
    I^3(Q) is torsion-free and detected by the signature, so a phi of
    signature 0 is hyperbolic and the tower is Q.  Otherwise phi is Witt
    equivalent to a multiple of 16<1> and c > 0.  For d > 0 the real place
    survives in Q(sqrt d), so the Witt index cannot rise; for d < 0 the
    field is totally imaginary, its I^3 is 0 and phi becomes hyperbolic.
    The tower is therefore Q(sqrt d) for the first negative candidate d
    with c a norm from it: the first candidate of the index-raising search
    (`lemma_beta_search`).  When no candidate within the bound qualifies,
    d = -c closes the search: c = N(sqrt -c).  The bound caps the cost of
    the search, never whether a certificate exists.  Every certificate is
    still checked against every verifier condition on its own evidence
    before it is returned.
    """
    _check_bound(bound)
    if pfister_slots(pi) is None or pi.dim != 4:
        raise DomainError("first argument must be a 2-fold Pfister form")
    if psi.dim != 6:
        raise DomainError("second argument must be 6-dimensional")
    phi = tensor(pi, psi)
    in_i4, hyperbolic = _tensor_hypotheses(phi)
    if not in_i4:
        raise DomainError("pi (x) psi does not lie in I^4")
    if Fraction(c) == 0:
        raise DomainError("similarity factor must be nonzero")
    c_sf, primes = _squarefree_part(c)
    if c_sf < 0 and not hyperbolic:
        raise DomainError(f"{c} is not a similarity factor of pi (x) psi")
    return _certify_in_I4(phi, hyperbolic, c, c_sf, primes, bound)


def _certify_in_I4(phi: QForm, hyperbolic: bool, c: Rat, c_sf: int, primes,
                   bound: int) -> HypCertificate:
    """The certificate of `lemma24_certificate` for a form phi = pi (x) psi
    in I^4 and a similarity factor c of it, of square class c_sf with the
    given primes; both verdicts are already read off the signature by the
    caller, which passes whether phi is hyperbolic, and c is not factored
    again.  The tower is trivial when phi is hyperbolic, else Q(sqrt d) for
    the first negative candidate d within the bound with c a norm, else
    Q(sqrt -c); a square-free d != 1 is its own canonical tower, and its
    primes come with it, so no candidate is factored.  The certificate is
    checked against every verifier condition on its own evidence before it
    is returned."""
    if hyperbolic:
        return _certificate(phi, TRIVIAL_TOWER, (), c, c_sf, primes)
    for d, d_primes in candidate_classes(phi.support.union(primes), bound):
        if d < 0 and _norm_member(c_sf, primes, d, d_primes):
            return _certificate(phi, ExtensionTower((d,)), (d_primes,), c, c_sf, primes)
    return _certificate(phi, ExtensionTower((-c_sf,)), (primes,), c, c_sf, primes)


def verify_certificate(phi: QForm, cert: HypCertificate) -> bool:
    """Independent re-derivation of both certificate conclusions over the
    tower as stated (the engine keeps no cache, so nothing is shared with any
    search): each generator is factored once, a tower outside
    `_tower_rule_holds` is refused before any walk, the multiplier's primes
    come from one factorization by parts of multiplier / square_adjustment
    (the c of the search), the evidence is walked afresh, and
    `_certificate_holds` is decided on them."""
    tower, adjustment = cert.tower, cert.square_adjustment
    if 0 in tower.generators or cert.multiplier == 0 or not _is_rational_square(adjustment):
        return False  # a zero generator or multiplier has no square class; no c
    gen_primes = [_squarefree_part(d)[1] for d in tower.generators]
    if not _tower_rule_holds(tower.generators, gen_primes):
        return False
    c_primes = _squarefree_part(Fraction(cert.multiplier, adjustment))[1]
    return _certificate_holds(phi, cert, hyperbolicity_evidence(phi, tower, gen_primes),
                              gen_primes, c_primes)


def _certificate_holds(phi: QForm, cert: HypCertificate, evidence, gen_primes,
                       c_primes) -> bool:
    """Every condition of a valid certificate for phi, given phi's evidence
    over its tower, the primes of each generator (`gen_primes`, in order)
    and the primes of the multiplier (`c_primes`): the tower within the rule
    (`_tower_rule_holds`); a square-free multiplier; a nonzero square adjustment; phi
    hyperbolic over the tower (the Kummer bound and every local anisotropic
    dimension 0, `_aniso_dim_from`); and the multiplier a norm from each
    quadratic subextension (Hasse's norm theorem and the intersection law
    N*_L cap N*_L' = Q*^2 * N*_M).  Nothing is factored or walked here."""
    if not _tower_rule_holds(cert.tower.generators, gen_primes):
        return False
    c = cert.multiplier
    if not _is_class_of(c, c_primes):
        return False
    if not _is_rational_square(cert.square_adjustment):
        return False
    if _aniso_dim_from(phi, cert.tower, evidence) != 0:
        return False
    return all(_norm_member(int(c), c_primes, int(d), p) for d, p in zip(cert.tower.generators, gen_primes))


# ----------------------------------------------------------------------
# Degree-8: explicit Pfister decomposition.


def thm4_decompose(phi4: QForm, q: QuaternionAlg) -> PfisterDecomposition:
    """Decompose <<a,b>> (x) <a1,a2,a3,a4> up to Witt equivalence as
    a1<<-a1a3, -a1a2, a, b>> + a4<<a1a2a3a4, a, b>>, and verify the identity
    by invariant equality at every relevant place."""
    if phi4.dim != 4:
        raise DomainError("decomposition needs a 4-dimensional form")
    a1, a2, a3, a4 = phi4.entries
    pi = norm_form(q)
    dec = PfisterDecomposition(
        scale4=a1,
        slots4=(_class_product(-a1, a3), _class_product(-a1, a2), q.a, q.b),
        scale3=a4,
        slots3=(_class_product(_class_product(a1, a2), _class_product(a3, a4)), q.a, q.b),
        primes=phi4.support | pi.support,
    )
    target = tensor(pi, phi4)
    if not witt_equivalent(dec.reassemble(), target):
        raise InvariantViolation(f"Pfister decomposition failed to verify for {phi4}, {q}")
    return dec


# ----------------------------------------------------------------------
# Degree-12 pipeline.


def _norm_values(q: QuaternionAlg, count: int, seed: int = 0) -> list[int]:
    """Sample distinct square classes represented by the norm form of q;
    these are always similarity factors of any phi (x) <<a,b>>."""
    import random

    rng = random.Random(seed)
    nf = norm_form(q)
    seen: list[int] = []
    tries = 0
    while len(seen) < count and tries < 20000:
        tries += 1
        x = [rng.randint(-9, 9) for _ in range(4)]
        val = sum(e * t * t for e, t in zip(nf.entries, x))
        if val == 0:
            continue
        c = squarefree_rep(val)
        if c not in seen:
            seen.append(c)
    return seen


def thm6_pipeline(phi6: QForm, q: QuaternionAlg, multipliers=None,
                  bound: int = DEFAULT_BOUND, seed: int = 0) -> PipelineReport:
    """Hypothesis checks for the degree-12 symplectic instance, then a
    certificate per multiplier.

    Checks, in order: degree 12, index <= 2, trivial involution discriminant,
    psi = phi (x) <<a,b>> in I^4.  A nontrivial discriminant halts the
    pipeline and is recorded in the report (not raised).  psi is the form
    pi (x) phi of `lemma24_certificate` up to the order of its entries,
    hyperbolic at every prime, so psi in I^4 and each c in G(psi) are read
    off its signature (`_tensor_hypotheses`): psi is in I^4 iff 16 divides
    sig psi = sig phi * sig <<a,b>>.  A trivial discriminant <<a, b, disc
    phi>> forces this: sig <<a,b>> is 0 unless a, b < 0, when it is 4 and
    disc phi > 0, so phi has an odd number of negative entries among its
    six and sig phi is 0 or +-4.  The psi-in-I4 check stays in the report
    as a guard, like the Arason-Pfister guard: its failure raises
    `InvariantViolation`.  Each multiplier is factored once for its status
    and its certificate, which is checked against every verifier condition
    on its own evidence.  When no multipliers are supplied, ten square
    classes represented by the norm form are sampled.  The bound
    must be at least 1; it caps only the cost of each certificate search,
    since every similarity factor certifies.
    """
    _check_bound(bound)
    if phi6.dim != 6:
        raise DomainError("pipeline needs a 6-dimensional form")
    alg = InvolutionAlgebra(phi6, q)
    report = PipelineReport(description=f"phi={phi6} Q={q}")

    degree, index = degree_index(alg)
    report.checks.append(("degree", degree == 12, f"degree = {degree}"))
    report.checks.append(("index", index <= 2, f"index = {index}"))

    delta, trivial = involution_discriminant(alg)
    report.checks.append(
        ("delta-trivial", trivial,
         f"Delta = <<{', '.join(str(s) for s in pfister_slots(delta))}>>"))
    if not trivial:
        report.halted_at = "delta-trivial"
        return report

    psi = reduce_to_form(alg)
    report.psi = psi
    in_i4, hyperbolic = _tensor_hypotheses(psi)
    report.checks.append(("psi-in-I4", in_i4, f"dim psi = {psi.dim}"))
    if not in_i4:
        raise InvariantViolation(f"psi-in-I4 violation: Delta is trivial but {psi} is not in I^4")

    if multipliers is None:
        multipliers = _norm_values(q, 10, seed)
    for c in multipliers:
        c_sf, primes = _squarefree_part(c)
        if c_sf < 0 and not hyperbolic:
            report.multipliers.append(MultiplierResult(c_sf, "not-in-G"))
            continue
        cert = _certify_in_I4(psi, hyperbolic, c, c_sf, primes, bound)
        report.multipliers.append(MultiplierResult(c_sf, "certificate", cert))
    return report

