"""The engine's closed forms against the routes and searches they replaced
(kept in `oracles`): similarity factors by the Hasse-invariant scaling law,
norm groups by Hasse's norm theorem, the lazily enumerated candidate stream,
the one-stage certificate construction, Witt cancellation of any number
of hyperbolic planes at once, and the hyperbolic-plane law in place of the
real-place sign count, the power of (-1, -1) and the padded Witt
equivalence test."""

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from itertools import combinations, combinations_with_replacement, product
from math import prod

from oracles import (
    aniso_dim_by_descent,
    eager_candidate_classes,
    in_G_via_isometry,
    in_G_via_tensor,
    lemma24_by_search,
    norm_member_via_represents,
    real_kernel_hasse_by_negs,
    split_planes_by_descent,
    witt_equivalent_by_padding,
)
from test_acceptance import _generate_lemma24_instances
from wittcert import codecs, forms
from wittcert.arith import _class_product, squarefree_rep
from wittcert.extensions import norm_member
from wittcert.localfields import (
    REAL,
    LocalField,
    LocalFormClass,
    Place,
    _base_reps,
    _split_planes,
    form_class_at,
    hilbert_symbol,
    local_aniso_dim,
)
from wittcert.forms import (
    InvariantViolation,
    QForm,
    _pfister_entries,
    in_G,
    pfister,
    qform,
    signature,
    tensor,
    witt_decompose,
    witt_equivalent,
)
from wittcert.similitude import HypCertificate, candidate_classes, lemma24_certificate, verify_certificate

SQUAREFREE = [n for n in range(-150, 151) if n and squarefree_rep(n) == n]
PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def bench_certify_pool():
    """The (pi, psi, c) instances of the benchmark's certify workload."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    rng = workloads._rng(0, "certify-pool")
    return [workloads.certify_instance(rng, definite) for definite in workloads.Certify.POOL]


class TestSplitPlanes:
    """The closed form of Witt cancellation against the plane-by-plane
    descent, on every completion of degree at most 4 over Q_p, p <= 13."""

    @staticmethod
    def finite_completions():
        """Q_p and each of its quadratic and biquadratic extensions, p <= 13:
        15 over Q_2 and 5 over each odd Q_p."""
        fields = {}
        for p in (2, 3, 5, 7, 11, 13):
            reps = _base_reps(p)
            for k in (0, 1, 2):
                for gens in combinations(reps[1:], k):
                    fields[LocalField(Place(p), gens)] = None
        return list(fields)

    def test_every_class_and_target_dimension(self):
        fields = self.finite_completions()
        assert len(fields) == 40
        checked = 0
        for E in fields:
            for d in sorted(set(E.reps)):
                for s in (1, -1):
                    for n in range(30):
                        c = LocalFormClass(n, d, s)
                        assert local_aniso_dim(c, E) == aniso_dim_by_descent(c, E), (str(E), c)
                        for m in range(n % 2, n + 1, 2):
                            assert _split_planes(s, d, n, m, E) == split_planes_by_descent(
                                s, d, n, m, E), (str(E), n, d, s, m)
                            checked += 1
        # 105 (completion, discriminant) pairs, 2 Hasse values, 240 (n, m).
        assert checked == 50400


class TestOneHyperbolicPlaneLaw:
    """`_split_planes` decides at every completion, the real place included,
    what the engine once decided apart: the real Hasse invariant of the
    Witt kernel by counting its negative entries, and the split Hasse data
    of I^3 and I^4 as a power of (-1, -1)."""

    def test_real_place_of_the_kernel_on_every_sign_pattern(self):
        # 153 sign patterns (pos, neg) with pos + neg <= 16; for each, the
        # entries +-1 and three draws of square-free magnitudes, so that the
        # kernel is often larger than |signature|.
        rng = random.Random(618)
        magnitudes = [a for a in SQUAREFREE if 0 < a <= 40]
        patterns = [(pos, n - pos) for n in range(17) for pos in range(n + 1)]
        assert len(patterns) == 153
        seen = Counter()
        for pos, neg in patterns:
            for draw in range(4):
                mags = [1 if draw == 0 else rng.choice(magnitudes) for _ in range(pos + neg)]
                phi = qform([m if i < pos else -m for i, m in enumerate(mags)])
                _, aniso, cls = witt_decompose(phi)
                expected = real_kernel_hasse_by_negs(aniso, pos - neg)
                assert (REAL in cls.hasse_minus_places) == (expected == -1), (phi, aniso)
                seen[aniso > abs(pos - neg), expected] += 1
        assert len(seen) == 4, seen

    def test_planes_alone_against_the_power_of_minus_one_minus_one(self):
        fields = [LocalField(REAL), LocalField(REAL, (-1,))]
        fields += TestSplitPlanes.finite_completions()
        for E in fields:
            for h in (1, -1):
                for k in range(1, 9):
                    power = hilbert_symbol(-1, -1, E) ** (k * (k - 1) // 2)
                    assert (_split_planes(h, 1, 2 * k, 0, E) == 1) == (h == power), (str(E), h, k)


square_free = st.integers(-40, 40).filter(bool).map(squarefree_rep)


@settings(max_examples=300, deadline=None)
@given(st.lists(square_free, max_size=6), st.lists(square_free, max_size=6),
       st.lists(square_free, max_size=3), st.booleans())
@example([1, 1], [2, 2], [], False)
@example([3], [5, 1, -1], [], False)
def test_witt_equivalent_against_padded_isometry(phi, other, planes, related):
    """phi against a form that is either unrelated or phi (reversed) plus
    the hyperbolic form rho + (-rho)."""
    psi = list(reversed(phi)) if related else other
    psi = QForm(tuple(psi + planes + [-a for a in planes]))
    phi = QForm(tuple(phi))
    assert witt_equivalent(phi, psi) == witt_equivalent_by_padding(phi, psi), (phi, psi)


class TestPfisterTensorHyperbolicAtEveryPrime:
    """pi (x) psi, pi a 2-fold Pfister form and psi 6-dimensional, is
    hyperbolic over every Q_p: the fact from which `lemma24_certificate` and
    `thm6_pipeline` read I^4 membership and similarity factors off the
    signature.  Both hypotheses are about forms over Q, so only the base
    completions enter."""

    def test_every_pair_of_slots_and_every_psi_over_Q_p(self):
        # Every ordered pair of slots and every 6-element multiset of
        # entries, by class representatives, p <= 13.
        checked = 0
        for p in (2, 3, 5, 7, 11, 13):
            E = LocalField(Place(p))
            reps = _base_reps(p)
            psis = list(combinations_with_replacement(reps, 6))
            for slots in product(reps, repeat=2):
                pi = _pfister_entries(slots)
                for psi in psis:
                    entries = tuple(_class_product(a, b) for a in pi for b in psi)
                    assert local_aniso_dim(form_class_at(entries, E), E) == 0, (p, slots, psi)
                    checked += 1
        # 8^2 * C(13, 6) at p = 2, 4^2 * C(9, 6) at each odd p.
        assert checked == 109824 + 5 * 1344

    def test_real_place_signature_is_multiplicative(self):
        for slots in product((1, -1), repeat=2):
            pi = pfister(slots)
            for signs in product((1, -1), repeat=6):
                psi = qform(signs)
                assert signature(tensor(pi, psi)) == signature(pi) * signature(psi), (slots, signs)


class TestSimilarityFactors:
    def check(self, phi, c) -> bool:
        expected = in_G_via_tensor(phi, c)
        assert in_G_via_isometry(phi, c) == expected, (phi, c)
        assert in_G(phi, c) == expected, (phi, c)
        return expected

    def test_random_forms_of_dimension_0_to_8(self):
        rng = random.Random(601)
        verdicts = []
        for _ in range(3000):
            if rng.random() < 0.25:
                # Pfister forms are round: each value is a similarity factor.
                phi = pfister([rng.choice([-1, 1]) * rng.randint(1, 30)
                               for _ in range(rng.randint(1, 3))])
                x = [rng.randint(-4, 4) for _ in phi.entries]
                c = sum(a * t * t for a, t in zip(phi.entries, x)) or 1
            else:
                phi = qform([rng.choice([-1, 1]) * rng.randint(1, 30)
                             for _ in range(rng.randint(0, 8))])
                c = rng.choice([-1, 1]) * rng.randint(1, 60) * rng.choice([1, 1, 4])
            verdicts.append(self.check(phi, c))
        assert verdicts.count(True) > 700 and verdicts.count(False) > 700

    def test_bench_certify_pool(self):
        verdicts = []
        for inst in bench_certify_pool():
            phi = tensor(QForm(tuple(inst["pi"])), QForm(tuple(inst["psi"])))
            assert phi.dim == 24
            for c in [inst["c"]] + [c for c in SQUAREFREE if abs(c) <= 30]:
                verdicts.append(self.check(phi, c))
        assert verdicts.count(True) > 30 and verdicts.count(False) > 30

    def test_disagreement_with_the_isometry_test_raises(self, monkeypatch):
        """A fault in the scaled form that the agreement check compares with
        phi makes it disagree with the closed form, and in_G raises."""
        scaled = forms._scaled
        faults = [
            # Scaling by -c: c*phi reads as anisometric to phi (its signature
            # flips) where the closed form says isometric.
            (lambda c, primes, phi: scaled(-c, primes, phi),
             [([1, 1], 2), ([3, 5, 7], 1), ([1, 1, 1], 1)]),
            # Ignoring c: c*phi reads as isometric to phi where the closed
            # form says anisometric.
            (lambda c, primes, phi: phi, [([1, 1], 3), ([1, 1, 1, 1, 1, 2], 5), ([1, 1], -1)]),
        ]
        for fault, cases in faults:
            with monkeypatch.context() as m:
                m.setattr(forms, "_scaled", fault)
                for entries, c in cases:
                    with pytest.raises(InvariantViolation):
                        in_G(qform(entries), c)


class TestNormGroups:
    def test_every_pair_of_small_classes(self):
        members = 0
        for d in SQUAREFREE:
            if d == 1:
                continue
            for c in SQUAREFREE:
                expected = norm_member_via_represents(c, d)
                assert norm_member(c, d) == expected, (c, d)
                members += expected
        assert 0 < members < len(SQUAREFREE) ** 2 // 2

    def test_rational_and_non_squarefree_arguments(self):
        for c, d in ((-3 * 49, -3 * 4), ("-3/4", -3), ("5/18", 10), (12, 3), ("2/7", 14)):
            assert norm_member(Fraction(c), d) == norm_member_via_represents(Fraction(c), d)


class TestCandidateStream:
    @pytest.mark.parametrize("bound", [1, 2, 10, 100, 10**4, 10**6])
    def test_lazy_matches_eager(self, bound):
        rng = random.Random(602 + bound)
        supports = [set(), {2}, {2, 3}, {2, 53}, {2, 997, 991}]
        supports += [set(rng.sample(PRIMES, rng.randint(1, 6))) | {rng.choice(PRIMES[15:])}
                     for _ in range(10)]
        for support in supports:
            stream = list(candidate_classes(support, bound))
            assert [d for d, _ in stream] == list(
                eager_candidate_classes(support, bound)), (support, bound)
            assert all(prod(primes) == abs(d) for d, primes in stream), (support, bound)


class TestCertificateSearch:
    """The one quadratic stage gives the certificates of the two-stage search
    it replaced, and where that search exhausts its bound, the verified
    tower Q(sqrt -c)."""

    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
    def test_same_outcomes_as_the_two_stage_search(self, seed):
        instances = _generate_lemma24_instances(random.Random(seed), 100)
        outcomes = {"certificate": 0, "exhausted": 0}
        for pi, psi, c in instances:
            for bound in (1, 2, 10, 10**6):
                got = lemma24_certificate(pi, psi, c, bound)
                want = lemma24_by_search(pi, psi, c, bound)
                if isinstance(want, HypCertificate):
                    assert isinstance(got, HypCertificate), (pi, psi, c, bound)
                    assert codecs.dump_certificate(got) == codecs.dump_certificate(want)
                    assert got.tower.degree in (1, 2)
                    outcomes["certificate"] += 1
                else:
                    assert want is None
                    assert got.tower.generators == (-squarefree_rep(c),), (pi, psi, c, bound)
                    assert verify_certificate(tensor(pi, psi), got)
                    outcomes["exhausted"] += 1
        assert outcomes["certificate"] and outcomes["exhausted"]
