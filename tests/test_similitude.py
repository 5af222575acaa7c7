import contextlib
import io
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from oracles import prop_index_check, verify_certificate_by_parts
from wittcert import arith, cli, codecs, similitude
from wittcert.arith import DomainError, _squarefree_part, is_prime, squarefree_rep
from wittcert.extensions import (
    TRIVIAL_TOWER,
    ExtensionTower,
    hyperbolicity_evidence,
    make_tower,
    norm_member,
    witt_index_over,
)
from wittcert.forms import (
    InvariantViolation,
    disc,
    in_G,
    in_In,
    is_hyperbolic,
    pfister,
    qform,
    signature,
    tensor,
    witt_decompose,
    witt_equivalent,
)
from wittcert.involutions import quaternion, norm_form
from wittcert.similitude import (
    DEFAULT_BOUND,
    HypCertificate,
    candidate_classes,
    lemma24_certificate,
    lemma_beta_search,
    thm4_decompose,
    thm6_pipeline,
    verify_certificate,
)

WORKED_PHI6 = qform([1, 1, 1, 1, 1, 2])
WORKED_Q = quaternion(2, 5)


def instance_pool(rng, count):
    """Generated instances satisfying the certificate-search hypotheses:
    pi 2-fold Pfister, psi 6-dimensional, pi (x) psi in I^4, c a similarity
    factor sampled from the values of the norm form."""
    out = []
    while len(out) < count:
        a = squarefree_rep(rng.choice([-1, 1]) * rng.randint(1, 12))
        b = squarefree_rep(rng.choice([-1, 1]) * rng.randint(1, 12))
        # disc constraint: a norm value of <<a,b>> keeps the discriminant
        # obstruction trivial by construction.
        x = [rng.randint(-6, 6) for _ in range(4)]
        nf = pfister([a, b])
        c0 = sum(e * t * t for e, t in zip(nf.entries, x))
        if c0 == 0:
            continue
        c0 = squarefree_rep(c0)
        e = [rng.choice([-1, 1]) * rng.randint(1, 10) for _ in range(5)]
        prod = 1
        for t in e:
            prod *= t
        e6 = squarefree_rep(-c0 * prod)
        psi = qform(e + [e6])
        phi = tensor(nf, psi)
        if not in_In(phi, 4):
            continue
        y = [rng.randint(-6, 6) for _ in range(4)]
        cval = sum(t * s * s for t, s in zip(nf.entries, y))
        if cval == 0:
            cval = 1
        c = squarefree_rep(cval) * rng.choice([1, 4, 9])
        out.append((nf, psi, c))
    return out


class TestCandidateStream:
    def test_ordering(self):
        stream = candidate_classes({2, 3}, 100)
        first = [next(stream) for _ in range(8)]
        assert first == [(-1, ()), (2, (2,)), (-2, (2,)), (3, (3,)), (-3, (3,)),
                         (5, (5,)), (-5, (5,)), (6, (2, 3))]

    def test_squarefree_and_bounded(self):
        for d, primes in candidate_classes({2, 3, 5}, 300):
            assert abs(d) <= 300
            assert squarefree_rep(d) == d
            assert prod(primes) == abs(d) and all(is_prime(p) for p in primes)


class TestLemmaBetaSearch:
    def test_definite_form(self):
        # First candidate -1 raises the index 0 -> 2 and 1 is a norm everywhere.
        assert lemma_beta_search(qform([1, 1, 1, 1]), 1) == -1
        # 2567 = 17 * 151: the first qualifying candidate, -2 * 151, draws on
        # a prime of the multiplier beyond the small primes.
        assert lemma_beta_search(qform([1, 1, 1, 1]), 2567) == -302

    def test_anisotropic_pfister(self):
        d = lemma_beta_search(pfister([2, 5]), -2)
        assert d == 2
        assert norm_member(-2, 2)
        assert witt_index_over(pfister([2, 5]), make_tower([2])) > 0

    def test_postconditions_verified_independently(self):
        rng = random.Random(81)
        for _ in range(15):
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 10) for _ in range(4)])
            if is_hyperbolic(phi):
                continue
            d = lemma_beta_search(phi, 1)
            assert d is not None and d != 1
            assert witt_index_over(phi, make_tower([d])) > witt_decompose(phi)[0]
            assert norm_member(1, d)

    def test_hyperbolic_precondition(self):
        with pytest.raises(DomainError):
            lemma_beta_search(qform([1, -1]), 1)

    def test_non_factor_precondition(self):
        with pytest.raises(DomainError):
            lemma_beta_search(qform([1, 1]), -1)

    def test_bound_exhaustion_returns_none(self):
        # bound 1 leaves only the candidate -1, and 3 is not a sum of two squares.
        assert lemma_beta_search(qform([1, 1, 1, 1]), 3, bound=1) is None


class TestNoFactoringPerCandidate:
    """The searches factor their multiplier once and take each candidate's
    primes from the stream, so scanning more candidates makes no more
    factorizations, and neither the index test nor the certificate's own
    check factors a candidate.  For a = 3135 = 3 * 5 * 11 * 19 the first
    candidate in the norm group is -110, after 106 others: at bound 10 no
    candidate qualifies, at 10^6 the search scans all 107."""

    A = 3135
    HIT = -110

    @staticmethod
    def factorizations(monkeypatch, fn, *args) -> int:
        calls = []
        factorize = arith.factorize
        monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
        fn(*args)
        monkeypatch.setattr(arith, "factorize", factorize)
        return len(calls)

    def test_lemma_beta_search(self, monkeypatch):
        phi = qform([1, 1, 1, 1])
        assert lemma_beta_search(phi, self.A, 10) is None
        assert lemma_beta_search(phi, self.A, 10**6) == self.HIT
        # Only a is factored, once: the index test walks with the
        # candidate's primes from the stream.
        assert self.factorizations(monkeypatch, lemma_beta_search, phi, self.A, 10) == 1
        assert self.factorizations(monkeypatch, lemma_beta_search, phi, self.A, 10**6) == 1

    def test_lemma_beta_search_index_tests(self, monkeypatch):
        # 2567 = 17 * 151: the norm-group members 2, 17, 34 and -151 fail
        # the index test before -302 passes it; none of them is factored.
        phi = qform([1, 1, 1, 1])
        assert lemma_beta_search(phi, 2567) == -302
        assert self.factorizations(monkeypatch, lemma_beta_search, phi, 2567) == 1

    def test_lemma24_certificate(self, monkeypatch):
        pi, psi = pfister([-1, -1]), qform([1, 1, 1, 1, 1, -1])
        assert lemma24_certificate(pi, psi, self.A, 10).tower == make_tower([-self.A])
        assert lemma24_certificate(pi, psi, self.A, 10**6).tower == make_tower([self.HIT])
        # c is factored once; the tower's generator and the certificate's
        # check take their primes from the search.
        for bound in (10, 10**6):
            assert self.factorizations(monkeypatch, lemma24_certificate, pi, psi, self.A,
                                       bound) == 1

    @pytest.mark.parametrize("tower", [[], [HIT], [HIT, 3]])
    def test_verifier_factors_each_generator_and_the_multiplier_once(self, monkeypatch, tower):
        pi, psi = pfister([-1, -1]), qform([1, 1, 1, 1, 1, -1])
        phi = tensor(pi, psi)
        cert = replace(lemma24_certificate(pi, psi, self.A), tower=make_tower(tower))
        assert verify_certificate(phi, cert) == (tower == [self.HIT])
        assert self.factorizations(monkeypatch, verify_certificate, phi, cert) == len(tower) + 1


class TestCertificates:
    def test_worked_instance_multipliers(self):
        pi = norm_form(WORKED_Q)
        phi = tensor(pi, WORKED_PHI6)
        for c in (1, -2, 10, -5):
            cert = lemma24_certificate(pi, WORKED_PHI6, c)
            assert isinstance(cert, HypCertificate)
            assert cert.tower.degree in (1, 2, 4)
            assert verify_certificate(phi, cert)
            assert in_G(phi, cert.multiplier)

    def test_trivial_tower_when_already_hyperbolic(self):
        pi = norm_form(WORKED_Q)
        cert = lemma24_certificate(pi, WORKED_PHI6, 1)
        assert cert.tower.degree == 1  # psi is hyperbolic over Q here

    def test_square_multiplier_adjustment(self):
        pi = norm_form(WORKED_Q)
        cert = lemma24_certificate(pi, WORKED_PHI6, 4)
        assert cert.multiplier == 1
        assert cert.square_adjustment == Fraction(1, 4)

    def test_definite_instance_needs_quadratic_tower(self):
        pi = pfister([-1, -1])
        psi = qform([1, 1, 1, 1, 1, -3])
        phi = tensor(pi, psi)
        assert signature(phi) == 16 and not is_hyperbolic(phi)
        cert = lemma24_certificate(pi, psi, 2)
        assert cert.tower.degree == 2
        assert cert.tower.generators[0] < 0  # must kill the real place
        assert verify_certificate(phi, cert)

    def test_precondition_violations(self):
        with pytest.raises(DomainError):
            lemma24_certificate(qform([1, 2, 3, 4]), WORKED_PHI6, 1)  # not Pfister
        with pytest.raises(DomainError):
            lemma24_certificate(norm_form(WORKED_Q), qform([1, 1]), 1)  # wrong dim
        with pytest.raises(DomainError):
            # Delta nontrivial: phi not in I^4.
            lemma24_certificate(pfister([-1, -1]), qform([1, 1, 1, 1, 1, 2]), 1)
        with pytest.raises(DomainError):
            # -1 flips the signature: not a similarity factor.
            lemma24_certificate(pfister([-1, -1]), qform([1, 1, 1, 1, 1, -3]), -1)

    def test_generated_instances_round_trip(self):
        rng = random.Random(82)
        for pi, psi, c in instance_pool(rng, 12):
            phi = tensor(pi, psi)
            cert = lemma24_certificate(pi, psi, c)
            assert isinstance(cert, HypCertificate), (pi, psi, c)
            assert verify_certificate(phi, cert)
            assert in_G(phi, cert.multiplier)

    @pytest.mark.parametrize("c, bound", [
        # bound 1 leaves only the candidate -1, and 3 is not a sum of two squares
        (3, 1),
        # no candidate of at most four primes has this c as a norm, at any bound
        (3 * 7 * 11 * 19 * 23 * 31 * 43 * 47 * 59 * 67 * 71, DEFAULT_BOUND),
    ])
    def test_bound_exhaustion_closes_with_sqrt_minus_c(self, c, bound):
        # c = N(sqrt -c) closes the search.
        pi, psi = pfister([-1, -1]), qform([1, 1, 1, 1, 1, -3])
        cert = lemma24_certificate(pi, psi, c, bound)
        assert isinstance(cert, HypCertificate)
        assert cert.tower == make_tower([-c]) and cert.multiplier == c
        assert verify_certificate(tensor(pi, psi), cert)


magnitude = st.integers(1, 30)
# Integers and rationals of either sign; 0 is drawn now and then.
multiplier = st.one_of(
    st.integers(-200, 200),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60)),
)


@st.composite
def signed(draw, size):
    """`size` nonzero integers, the number of negative ones uniform in
    0..size, so that definite and near-definite forms are common."""
    values = draw(st.lists(magnitude, min_size=size, max_size=size))
    negative = draw(st.sampled_from(range(size + 1)))
    return [-v if i < negative else v for i, v in enumerate(values)]


# Pfister slots, both negative (a definite <<a, b>>) half the time.
slots = st.one_of(st.lists(magnitude, min_size=2, max_size=2).map(lambda v: [-a for a in v]),
                  signed(2))


@st.composite
def thm6_instances(draw):
    """(phi6 entries, (a, b)); half the time the last entry makes disc phi6
    a value of <<a, b>>, so that the involution discriminant is trivial and
    the pipeline reaches its psi-in-I4 check."""
    a, b = draw(slots)
    entries = draw(signed(5))
    nf = pfister([squarefree_rep(a), squarefree_rep(b)])
    x = draw(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
    value = sum(e * t * t for e, t in zip(nf.entries, x))
    if value and draw(st.booleans()):
        last = -value
        for e in entries:
            last *= e
    else:
        last = draw(signed(1))[0]
    return entries + [squarefree_rep(last)], (a, b)


def hypotheses_by_oracle(phi, c) -> str | None:
    """The DomainError text of the general route, in_In(phi, 4) then
    in_G(phi, c), or None when both hold."""
    if not in_In(phi, 4):
        return "pi (x) psi does not lie in I^4"
    try:
        if not in_G(phi, c):
            return f"{c} is not a similarity factor of pi (x) psi"
    except DomainError as exc:
        return str(exc)
    return None


class TestHypothesesAgreeWithTheGeneralRoute:
    """lemma24 and thm6 read I^4 and G off the signature; in_In and in_G,
    which walk every place, are the oracles."""

    @settings(max_examples=200, deadline=None)
    @given(slots, signed(6), multiplier)
    @example([-1, -1], [1, 1, 1, 1, 1, 2], 0)   # not in I^4, and c = 0
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 0)  # in I^4, and c = 0
    @example([-1, -1], [1, 1, 1, 1, 1, -3], Fraction(-7, 3))
    @example([2, 5], [1, 1, 1, 1, 1, 2], -5)
    def test_lemma24(self, ab, entries, c):
        pi, psi = pfister([squarefree_rep(a) for a in ab]), qform(entries)
        want = hypotheses_by_oracle(tensor(pi, psi), c)
        try:
            cert = lemma24_certificate(pi, psi, c)
        except DomainError as exc:
            assert str(exc) == want
        else:
            assert want is None
            assert cert.multiplier == squarefree_rep(c)

    @settings(max_examples=60, deadline=None)
    @given(thm6_instances(), st.lists(multiplier.filter(bool), min_size=1, max_size=3))
    @example(([1, 1, 1, 1, 1, -3], (-1, -1)), [Fraction(-7, 3), 2])
    def test_thm6(self, instance, multipliers):
        entries, ab = instance
        rep = thm6_pipeline(qform(entries), quaternion(*ab), multipliers)
        if rep.psi is None:
            assert rep.halted_at == "delta-trivial"
            return
        checks = {name: ok for name, ok, _ in rep.checks}
        assert checks["psi-in-I4"] and in_In(rep.psi, 4)
        assert [m.multiplier for m in rep.multipliers] == [squarefree_rep(c) for c in multipliers]
        for m in rep.multipliers:
            assert (m.status == "certificate") == in_G(rep.psi, m.multiplier), m

    def test_thm6_multiplier_zero(self):
        with pytest.raises(DomainError, match="squarefree_rep of 0"):
            thm6_pipeline(qform([1, 1, 1, 1, 1, -3]), quaternion(-1, -1), [0])


def trivial_delta_instance(rng):
    """(phi6, Q) with a trivial involution discriminant <<a, b, disc phi6>>:
    a and b are both negative half the time, and then one entry's sign is
    flipped when needed to make disc phi6 positive."""
    a, b = (rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(2))
    if rng.random() < 0.5:
        a, b = -abs(a), -abs(b)
    entries = [rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(6)]
    phi = qform(entries)
    if a < 0 and b < 0 and disc(phi) < 0:
        phi = qform([-entries[0]] + entries[1:])
    return phi, quaternion(a, b)


class TestThm6I4Guard:
    """Once the involution discriminant is trivial, psi = phi (x) <<a, b>>
    lies in I^4, so the psi-in-I4 check is a guard: it always passes, and
    its failure raises `InvariantViolation`."""

    def test_a_failing_check_raises(self, monkeypatch):
        monkeypatch.setattr(similitude, "_tensor_hypotheses", lambda psi: (False, False))
        with pytest.raises(InvariantViolation, match="psi-in-I4"):
            thm6_pipeline(WORKED_PHI6, WORKED_Q, [1])

    def test_random_trivial_discriminants_pass(self):
        rng = random.Random(23)
        definite = 0
        for _ in range(3000):
            phi, q = trivial_delta_instance(rng)
            rep = thm6_pipeline(phi, q, [])
            assert rep.hypotheses_passed and rep.checks[-1][:2] == ("psi-in-I4", True), (phi, q)
            definite += q.a < 0 and q.b < 0
        assert definite > 1000


class TestVerifier:
    def test_tampered_tower_rejected(self):
        pi = pfister([-1, -1])
        psi = qform([1, 1, 1, 1, 1, -3])
        phi = tensor(pi, psi)
        cert = lemma24_certificate(pi, psi, 2)
        bad = replace(cert, tower=make_tower([7]))
        assert not verify_certificate(phi, bad)

    def test_trivial_tower_on_nonhyperbolic_rejected(self):
        pi = pfister([-1, -1])
        psi = qform([1, 1, 1, 1, 1, -3])
        phi = tensor(pi, psi)
        cert = lemma24_certificate(pi, psi, 2)
        bad = replace(cert, tower=TRIVIAL_TOWER)
        assert not verify_certificate(phi, bad)

    def test_multiplier_outside_norm_group_rejected(self):
        pi = pfister([-1, -1])
        psi = qform([1, 1, 1, 1, 1, -3])
        phi = tensor(pi, psi)
        cert = lemma24_certificate(pi, psi, 2)
        d = cert.tower.generators[0]
        bad_mult = next(c for c in (3, 5, 7, 11, 13)
                        if not norm_member(c, d))
        bad = replace(cert, multiplier=bad_mult)
        assert not verify_certificate(phi, bad)

    @pytest.mark.parametrize("gens", [(-1, -1), (1,), (-4,), (0,), (-1, 2, 3)])
    def test_repeated_generator_rejected(self, monkeypatch, gens):
        # A tower outside the rule (a repeated generator, 1, a generator
        # that is not square-free, 0, three generators) is refused before
        # any walk over it.
        pi, psi = pfister([-1, -1]), qform([1, 1, 1, 1, 1, -3])
        phi = tensor(pi, psi)
        cert = lemma24_certificate(pi, psi, 2)
        assert cert.tower.generators == (-1,)
        assert verify_certificate(phi, cert)
        walks = []
        walk = similitude.hyperbolicity_evidence
        monkeypatch.setattr(similitude, "hyperbolicity_evidence",
                            lambda *args: walks.append(args) or walk(*args))
        assert not verify_certificate(phi, replace(cert, tower=ExtensionTower(gens)))
        assert walks == []

    def test_malformed_certificates_rejected(self):
        phi = qform([1, -1])
        cert = HypCertificate(1, TRIVIAL_TOWER, Fraction(1), ())
        assert verify_certificate(phi, cert)
        assert not verify_certificate(phi, replace(cert, multiplier=12))  # not square-free
        assert not verify_certificate(phi, replace(cert, square_adjustment=Fraction(2)))


class TestSelfCheck:
    """The search checks each certificate against every verifier condition
    on the evidence it has just built: a fault anywhere below it still
    raises `InvariantViolation`."""

    PI, PSI = pfister([-1, -1]), qform([1, 1, 1, 1, 1, -3])  # signature 16

    @staticmethod
    def forge_evidence(monkeypatch, aniso_dim):
        """Make the search's walk report `aniso_dim(i, ev)` at entry i."""
        walk = similitude.hyperbolicity_evidence

        def forged(phi, M, *args):
            return [replace(ev, aniso_dim=aniso_dim(i, ev))
                    for i, ev in enumerate(walk(phi, M, *args))]

        monkeypatch.setattr(similitude, "hyperbolicity_evidence", forged)

    @pytest.mark.parametrize("entry", [0, 1, -1])
    def test_a_nonzero_local_anisotropic_dimension(self, monkeypatch, entry):
        n = len(lemma24_certificate(self.PI, self.PSI, 2).evidence)
        self.forge_evidence(monkeypatch, lambda i, ev: 2 if i == entry % n else ev.aniso_dim)
        with pytest.raises(InvariantViolation):
            lemma24_certificate(self.PI, self.PSI, 2)

    def test_a_multiplier_outside_the_norm_group(self):
        # 3 is not a sum of two squares, so not a norm from Q(sqrt -1),
        # over which phi is hyperbolic.
        phi = tensor(self.PI, self.PSI)
        similitude._certificate(phi, make_tower([-2]), ((2,),), 3, 3, (3,))
        with pytest.raises(InvariantViolation):
            similitude._certificate(phi, make_tower([-1]), ((),), 3, 3, (3,))

    def test_a_discriminant_outside_the_tower(self, monkeypatch):
        # <1, 1> has discriminant -1, not a square in Q: the Kummer bound
        # refuses it even when every walked completion reports 0.
        self.forge_evidence(monkeypatch, lambda i, ev: 0)
        with pytest.raises(InvariantViolation):
            similitude._certificate(qform([1, 1]), TRIVIAL_TOWER, (), 1, 1, ())
        similitude._certificate(qform([1, 1]), make_tower([-1]), ((),), 1, 1, ())

    @pytest.mark.parametrize("primes", [(2, 2, 3), (2, 3), (3,)])
    def test_a_generator_that_is_not_square_free(self, monkeypatch, primes):
        # 7 = N(2 + sqrt -3) is a norm from Q(sqrt -12) = Q(sqrt -3), and
        # phi is hyperbolic over it, so only the generator is at fault.
        stream = [(-3, (3,))]
        monkeypatch.setattr(similitude, "candidate_classes", lambda support, bound: stream)
        assert lemma24_certificate(self.PI, self.PSI, 7).tower == make_tower([-3])
        stream[:] = [(-12, primes)]
        with pytest.raises(InvariantViolation):
            lemma24_certificate(self.PI, self.PSI, 7)


def certificate_conditions(phi, cert) -> bool:
    """`_certificate_holds` on evidence and primes derived from scratch, the
    generators' primes passed to the walk as the verifier passes them.  A
    zero generator has no primes, and a tower outside the rule no evidence:
    the predicate must refuse it without reading any."""
    gen_primes = [_squarefree_part(d)[1] if d else () for d in cert.tower.generators]
    try:
        evidence = hyperbolicity_evidence(phi, cert.tower, gen_primes)
    except DomainError:
        evidence = None
    return similitude._certificate_holds(
        phi, cert, evidence, gen_primes, _squarefree_part(cert.multiplier)[1])


def verify_on_the_cli(phi, cert) -> bool:
    """The verdict of `wittcert verify-cert` on the certificate as dumped."""
    payload = {"form": codecs.dump_form(phi), "certificate": codecs.dump_certificate(cert)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-cert", json.dumps(payload)])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue())["valid"]


nonzero = st.integers(-60, 60).filter(bool)
tampering = st.one_of(
    st.tuples(st.just("multiplier"), st.one_of(nonzero, st.builds(Fraction, nonzero, nonzero))),
    st.tuples(st.just("generator"), st.tuples(
        st.integers(0, 1), st.one_of(nonzero, st.sampled_from([0, 1, -4, -9, 12])))),
    st.tuples(st.just("repeat"), st.integers(0, 1)),
    st.tuples(st.just("adjustment"), st.one_of(
        st.builds(lambda n, d: Fraction(n * n, d * d), nonzero, nonzero),
        st.builds(Fraction, nonzero, nonzero))),
)


def tamper(cert, how):
    what, value = how
    if what == "multiplier":
        return replace(cert, multiplier=value)
    if what == "adjustment":
        return replace(cert, square_adjustment=value)
    gens = list(cert.tower.generators)
    if what == "generator":
        i, g = value
    elif not gens:
        return cert
    else:  # "repeat": generator i, or a second one, repeats the other
        i = value if len(gens) == 2 else 1
        g = gens[1 - i]
    gens[min(i, len(gens)):i + 1] = [g]
    return replace(cert, tower=ExtensionTower(tuple(gens)))


class TestCertificateConditions:
    """`verify_certificate` and the search's check decide the same
    predicate; on searched and tampered certificates it agrees with the
    verifier taken condition by condition through the public tests, and
    with `verify-cert` on the certificate as dumped."""

    @settings(max_examples=150, deadline=None)
    @given(slots, signed(6), multiplier, st.lists(tampering, max_size=2))
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 2, [("generator", (1, 5))])
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 2, [("generator", (1, -2)), ("generator", (0, -2))])
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 3, [("generator", (0, -1))])
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 2, [("generator", (0, -12))])
    @example([2, 5], [1, 1, 1, 1, 1, 2], 10, [("multiplier", 12)])
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 2, [("adjustment", 0)])
    # Towers stated outside the rule: [-4], [-1, -1], [-9, -1] and [0].
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 2, [("generator", (0, -4))])
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 2, [("repeat", 0)])
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 2, [("generator", (0, -9)), ("generator", (1, -1))])
    @example([-1, -1], [1, 1, 1, 1, 1, -3], 2, [("generator", (0, 0))])
    def test_agreement(self, ab, entries, c, tamperings):
        pi, psi = pfister([squarefree_rep(a) for a in ab]), qform(entries)
        try:
            cert = lemma24_certificate(pi, psi, c)
        except DomainError:
            assume(False)
        phi = tensor(pi, psi)
        assert verify_certificate(phi, cert) and certificate_conditions(phi, cert)
        for how in tamperings:
            cert = tamper(cert, how)
        want = verify_certificate_by_parts(phi, cert)
        event(f"tampered {len(tamperings)}, valid {want}")
        assert verify_certificate(phi, cert) == want
        assert certificate_conditions(phi, cert) == want
        assert verify_on_the_cli(phi, cert) == want


class TestThm4:
    def test_formula_shape(self):
        dec = thm4_decompose(qform([1, 1, 1, 1]), quaternion(3, 5))
        assert dec.scale4 == 1 and dec.scale3 == 1
        assert dec.slots4 == (-1, -1, 3, 5)
        assert dec.slots3 == (1, 3, 5)
        # <<1, a, b>> is hyperbolic, so psi is Witt equivalent to the 4-fold part.
        assert is_hyperbolic(pfister(dec.slots3))

    def test_witt_identity_random(self):
        rng = random.Random(83)
        for _ in range(120):
            phi4 = qform([rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(4)])
            q = quaternion(rng.choice([-1, 1]) * rng.randint(1, 15),
                           rng.choice([-1, 1]) * rng.randint(1, 15))
            dec = thm4_decompose(phi4, q)
            assert witt_equivalent(dec.reassemble(), tensor(norm_form(q), phi4))

    def test_split_quaternion_makes_everything_hyperbolic(self):
        rng = random.Random(84)
        for _ in range(20):
            phi4 = qform([rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(4)])
            q = quaternion(1, rng.randint(1, 12))
            dec = thm4_decompose(phi4, q)
            assert is_hyperbolic(tensor(norm_form(q), phi4))
            assert is_hyperbolic(dec.reassemble())

    def test_dimension_check(self):
        with pytest.raises(DomainError):
            thm4_decompose(qform([1, 1]), quaternion(2, 5))


class TestThm6Pipeline:
    def test_worked_instance(self):
        rep = thm6_pipeline(WORKED_PHI6, WORKED_Q,
                            [1, -1, -2, -5, 10, 2, -7, -6, -3, 7])
        assert rep.hypotheses_passed
        checks = dict((name, ok) for name, ok, _ in rep.checks)
        assert checks == {"degree": True, "index": True,
                          "delta-trivial": True, "psi-in-I4": True}
        assert rep.psi.dim == 24
        assert len(rep.multipliers) == 10
        assert all(m.status == "certificate" for m in rep.multipliers)
        phi = rep.psi
        for m in rep.multipliers:
            assert verify_certificate(phi, m.certificate)

    def test_negative_control_halts(self):
        rep = thm6_pipeline(qform([1, 1, 1, 1, 1, 1]), quaternion(-1, -1))
        assert rep.halted_at == "delta-trivial"
        assert not rep.multipliers

    def test_split_quaternion_trivial_certificates(self):
        rep = thm6_pipeline(qform([1, 2, 3, 4, 5, 6]), quaternion(1, 3), [1, 2, -3])
        assert rep.hypotheses_passed
        for m in rep.multipliers:
            if m.status == "certificate":
                assert m.certificate.tower.degree == 1

    def test_non_factor_multiplier_recorded(self):
        pi = pfister([-1, -1])
        rep = thm6_pipeline(qform([1, 1, 1, 1, 1, -3]), quaternion(-1, -1), [2, -2])
        assert rep.hypotheses_passed
        statuses = {m.multiplier: m.status for m in rep.multipliers}
        assert statuses[2] == "certificate"
        assert statuses[-2] == "not-in-G"  # negative values flip the signature

    def test_sampled_multipliers_deterministic(self):
        r1 = thm6_pipeline(WORKED_PHI6, WORKED_Q, seed=7)
        r2 = thm6_pipeline(WORKED_PHI6, WORKED_Q, seed=7)
        assert [m.multiplier for m in r1.multipliers] == [m.multiplier for m in r2.multipliers]
        assert len(r1.multipliers) == 10


class TestPropIndexCheck:
    def test_frozen(self):
        assert prop_index_check(pfister([-1, -1]), qform([1, 1]), TRIVIAL_TOWER)

    def test_random_sweep(self):
        rng = random.Random(85)
        for _ in range(80):
            n = rng.choice([1, 2])
            pi = pfister([rng.choice([-1, 1]) * rng.randint(1, 10) for _ in range(n)])
            psi = qform([rng.choice([-1, 1]) * rng.randint(1, 10)
                         for _ in range(rng.choice([2, 4]))])
            M = make_tower([rng.choice([-1, 1]) * rng.randint(2, 20)
                            for _ in range(rng.randint(0, 2))])
            assert prop_index_check(pi, psi, M), (pi, psi, M)
