"""The walk over completions and what the decisions built on it rely on:
the fiber rule on every Kummer group, everything a completion derives from
its generators, one local class per (form, completion) in each decision,
each verdict of the degree-12 pipeline decided once, its hypotheses
decided without a walk, no Witt decomposition in the lemma24 search, and
the verdicts the walk lets a caller read off one
decomposition."""

import contextlib
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import kummer_group, least_coset_member, least_member
from test_acceptance import _generate_lemma24_instances
from wittcert import forms, localfields
from wittcert.cli import main
from wittcert.arith import DomainError, _class_product, prime_support, squarefree_rep
from wittcert.extensions import aniso_dim_over, hyperbolicity_evidence, make_tower
from wittcert.forms import (
    QForm,
    in_G,
    in_In,
    is_hyperbolic,
    is_isometric,
    is_isotropic,
    orth_sum,
    pfister,
    qform,
    scale,
    signature,
    tensor,
    witt_decompose,
)
from wittcert.localfields import (
    REAL,
    LocalField,
    Place,
    completions,
    form_class_at,
    hilbert_symbol,
    local_aniso_dim,
)
from wittcert.involutions import InvolutionAlgebra, degree_index, involution_discriminant, quaternion
from wittcert.similitude import lemma24_certificate, thm6_pipeline


class TestFiberRule:
    """`LocalField(v, gens)` on every Kummer group of one or two generators
    at 2 and at small odd primes."""

    @staticmethod
    def generator_sets(reps):
        return [(g,) for g in reps] + list(combinations(reps, 2))

    def test_dyadic(self):
        v = Place(2)
        for gens in self.generator_sets([least_member(i, 2) for i in range(1, 8)]):
            E = LocalField(v, gens)
            group = kummer_group(gens, 2)
            # The 2-adic unramified quadratic extension is Q2(sqrt 5), and 5
            # is class number 2.
            assert E.f == (2 if 2 in group else 1), gens
            assert E.e * E.f == 1 << len(gens), gens
            assert E.kummer == kummer_group(E.gens, 2) == group, gens
            # The least nontrivial representatives as integers: Q2(sqrt 2,
            # sqrt 3), not Q2(sqrt 3, sqrt 2).
            assert E.gens == tuple(sorted(least_member(i, 2) for i in group if i)[:len(gens)])

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_odd(self, p):
        v = Place(p)
        reps = [least_member(i, p) for i in (1, 2, 3)]
        for gens in self.generator_sets(reps):
            E = LocalField(v, gens)
            group = kummer_group(gens, p)
            # Ramified iff a class of odd valuation (number 2 or 3) is
            # adjoined; inert iff the unramified non-square class (number 1) is.
            assert E.e == (2 if any(i & 2 for i in group) else 1), gens
            assert E.f == (2 if 1 in group else 1), gens
            assert E.degree == 1 << len(gens), gens
            assert E.kummer == kummer_group(E.gens, p) == group, gens
            assert E.gens == tuple(sorted(least_member(i, p) for i in group if i)[:len(gens)])

    def test_walk_matches_the_fiber_rule(self):
        rng = random.Random(91)
        for _ in range(40):
            M = make_tower([rng.choice([-1, 1]) * rng.randint(2, 60)
                            for _ in range(rng.randint(0, 2))])
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 200) for _ in range(4)])
            support = phi.support | prime_support(M.generators)
            walk = list(completions(support, M.generators))
            places = [E.base for E in walk]
            assert places[0] == REAL
            assert [v.p for v in places[1:]] == sorted(support)
            for E in walk:
                assert LocalField(E.base, M.generators) == E
            evidence = hyperbolicity_evidence(phi, M)
            assert [ev.completion for ev in evidence] == walk
            for ev in evidence:
                assert ev.completion.degree * ev.multiplicity == M.degree


class TestDerivation:
    """Everything `LocalField` derives from its generators, on every
    generator set of a finite domain, against the class-number oracle."""

    @staticmethod
    def check(p, gens, scaled):
        """`LocalField(Place(p), g)` for every order g of `scaled` (the
        integer generators `gens`, each times a rational square)."""
        group = kummer_group(gens, p)
        if len(group) > 4:
            with pytest.raises(DomainError):
                LocalField(Place(p), scaled)
            return 0
        unramified = 2 if p == 2 else 1
        f = 2 if unramified in group else 1
        expected_gens = tuple(sorted(least_member(i, p) for i in group if i)
                              [:len(group).bit_length() - 1])
        expected_reps = tuple(least_coset_member(i, group, p) for i in range(8 if p == 2 else 4))
        fields = {LocalField(Place(p), g) for g in permutations(scaled)}
        assert len(fields) == 1, scaled
        E = fields.pop()
        assert E.kummer == group, scaled
        assert (E.e, E.f) == (len(group) // f, f), scaled
        assert E.degree == len(group), scaled
        assert E.gens == expected_gens, scaled
        assert E.reps == expected_reps, scaled
        return 1

    def test_every_dyadic_generator_set(self):
        # The 8 canonical dyadic classes, 1 included: 92 sets, of which the
        # 28 bases of Q2*/Q2*^2 generate a group of order 8.
        reps = [least_member(i, 2) for i in range(8)]
        checked = sum(self.check(2, gens, gens)
                      for k in (1, 2, 3) for gens in combinations(reps, k))
        assert checked == 64

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_odd_generator_set_and_its_square_multiples(self, p):
        rng = random.Random(p)
        reps = [least_member(i, p) for i in range(4)]
        for k in (1, 2):
            for gens in combinations(reps, k):
                square = Fraction(rng.randint(1, 99), rng.randint(1, 99)) ** 2
                for squares in product((1, 4, p * p, square), repeat=k):
                    scaled = tuple(g * s for g, s in zip(gens, squares))
                    assert self.check(p, gens, scaled)

    def test_refusals(self):
        for v in (REAL, Place(2), Place(3)):
            for gens in [(0,), (5, 0), (Fraction(0),)]:
                with pytest.raises(DomainError):
                    LocalField(v, gens)
        with pytest.raises(DomainError):
            LocalField(Place(2), (2, 3, 5))
        # e and f are derived, never passed.
        with pytest.raises(TypeError):
            LocalField(Place(2), (3, 5), 1, 1)
        with pytest.raises(TypeError):
            LocalField(Place(5), (2, 2), e=2, f=2)

    def test_contradictions_once_accepted(self):
        E = LocalField(Place(2), (3, 5))
        assert (E.e, E.f, E.degree) == (2, 2, 4)
        assert hilbert_symbol(-1, -1, E) == 1
        assert LocalField(REAL, (5,)).is_real
        assert local_aniso_dim(form_class_at((1, 1), LocalField(REAL, (5,))),
                               LocalField(REAL, (5,))) == 2
        assert LocalField(REAL, (5, Fraction(-1, 3))).is_complex
        assert LocalField(Place(5), (2, 2)).degree == 2
        assert LocalField(Place(2), (7,)) == LocalField(Place(2), (-1,))

    def test_one_derivation_per_finite_field(self, monkeypatch):
        calls = {"_kummer_group": [], "_base_reps": []}
        for name, log in calls.items():
            spy(monkeypatch, getattr(localfields, name), log)
        phi = qform([3, -7, 11, 13 * 17])
        for M in TOWERS:
            for log in calls.values():
                log.clear()
            walk = list(completions(phi.support | prime_support(M.generators), M.generators))
            finite = [p for _, p in calls["_kummer_group"]]
            assert finite == [E.base.p for E in walk if not E.base.is_real]
            assert [args[0] for args in calls["_base_reps"]] == finite
        calls["_kummer_group"].clear()
        LocalField(REAL, (-1,))
        assert calls["_kummer_group"] == []


def spy(monkeypatch, fn, calls):
    """Record every call of `fn` made through any wittcert module."""
    def recording(*args):
        calls.append(args)
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("wittcert"):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, recording)


FORMS = [
    tensor(pfister([-1, -1]), qform([1, 1, 1, 1, 1, -3])),
    tensor(pfister([2, 5]), qform([1, 1, 1, 1, 1, 2])),
    qform([1, 1000003, -1000033, 6]),
    qform([2, -3, 6, -10, 15]),
    qform([1, 1, 7]),
    pfister([3, -7, 11]),
]
TOWERS = [make_tower([]), make_tower([-1]), make_tower([5]), make_tower([-3, 2])]


class TestOneClassPerCompletion:
    @pytest.fixture
    def classes(self, monkeypatch):
        calls = []
        spy(monkeypatch, localfields.form_class_at, calls)
        return calls

    @staticmethod
    def at_most_once(calls):
        assert calls and max(Counter(calls).values()) == 1

    @pytest.mark.parametrize("phi", FORMS, ids=str)
    def test_witt_decompose_and_in_In(self, classes, phi):
        witt_decompose(phi)
        self.at_most_once(classes)
        hyperbolic = orth_sum(phi, scale(-1, phi))
        for n in (3, 4):
            classes.clear()
            assert in_In(hyperbolic, n)
            self.at_most_once(classes)

    @pytest.mark.parametrize("phi", FORMS, ids=str)
    def test_is_isometric(self, classes, phi):
        psi = QForm(tuple(reversed(phi.entries)))
        assert is_isometric(phi, psi)
        self.at_most_once(classes)

    @pytest.mark.parametrize("phi", FORMS, ids=str)
    def test_aniso_dim_over(self, classes, phi):
        for M in TOWERS:
            classes.clear()
            aniso_dim_over(phi, M)
            self.at_most_once(classes)

    @pytest.mark.parametrize("phi", FORMS, ids=str)
    def test_cli_invariants_trace(self, classes, phi):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["invariants", json.dumps({"diag": phi.entries}), "--trace"]) == 0
        assert len(json.loads(out.getvalue())["hasse"]) == len(classes)
        self.at_most_once(classes)

    def test_thm6_and_lemma24_read_their_verdicts_off_the_signature(self, monkeypatch):
        # pi (x) psi is hyperbolic at every prime, so neither search walks
        # the places to decide I^4 or G.
        decided = {"in_In": [], "in_G": []}
        spy(monkeypatch, forms.in_In, decided["in_In"])
        spy(monkeypatch, forms.in_G, decided["in_G"])
        report = thm6_pipeline(qform([1, 1, 1, 1, 1, 2]), quaternion(2, 5), [1, -2, 10])
        assert [m.status for m in report.multipliers] == ["certificate"] * 3
        report = thm6_pipeline(qform([1, 1, 1, 1, 1, -3]), quaternion(-1, -1), [2, -2])
        assert [m.status for m in report.multipliers] == ["certificate", "not-in-G"]
        for nf, psi, c in _generate_lemma24_instances(random.Random(24), 6):
            lemma24_certificate(nf, psi, c)
        assert decided == {"in_In": [], "in_G": []}

    def test_lemma24_makes_no_witt_decomposition(self, monkeypatch):
        calls = []
        spy(monkeypatch, forms.witt_decompose, calls)
        rng = random.Random(24)
        for nf, psi, c in _generate_lemma24_instances(rng, 12):
            lemma24_certificate(nf, psi, c)
        assert calls == []


class TestWalksPerDecision:
    """Walks over completions, counted wherever a module binds
    `completions`: the algebra layer decides by theorem and walks nothing,
    so the degree-12 pipeline walks once per certificate."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        spy(monkeypatch, localfields.completions, calls)
        return calls

    @pytest.mark.parametrize("phi, q", [
        ([1, 1, 1, 1, 1, 2], (2, 5)), ([1, 1, 1, 1, 1, 1], (-1, -1)),
        ([1, -2, 3, -5, 7, -11], (3, 7)), ([1, 1, 1], (1, 5)), ([2, -3, 5], (5, -5)),
        ([2, -3, 5], (-1, 3)),
    ], ids=str)
    def test_index_and_discriminant_walk_nothing(self, walks, phi, q):
        alg = InvolutionAlgebra(qform(phi), quaternion(*q))
        degree_index(alg)
        with contextlib.suppress(DomainError):  # undefined: division q, odd dim phi
            involution_discriminant(alg)
        assert walks == []

    def test_thm6_walks_once_per_certificate(self, walks):
        report = thm6_pipeline(qform([1, -2, 3, -5, 7, -11]), quaternion(-1, -1))
        assert [m.status for m in report.multipliers] == ["certificate"] * 10
        assert len(walks) == 10


def test_signature_decides_hyperbolicity_in_I4():
    # I^3(Q) is torsion-free, so a form in I^4 is hyperbolic iff its
    # signature is 0: the theorem lemma24_certificate relies on.
    seen = set()
    for seed in range(1000, 1004):
        for nf, psi, _ in _generate_lemma24_instances(random.Random(seed), 10):
            phi = tensor(nf, psi)
            assert in_In(phi, 4)
            assert is_hyperbolic(phi) == (signature(phi) == 0), phi
            seen.add(signature(phi) == 0)
    assert seen == {True, False}


nonzero = st.integers(-10**4, 10**4).filter(bool)
entry = st.one_of(nonzero.map(squarefree_rep),
                  nonzero.map(lambda a: _class_product(squarefree_rep(a), 1000003)))


@settings(max_examples=300, deadline=None)
@given(st.lists(entry, max_size=8))
def test_verdicts_read_off_one_decomposition(entries):
    phi = QForm(tuple(entries))
    w, aniso, _ = witt_decompose(phi)
    assert is_isotropic(phi) == (w > 0)
    assert is_hyperbolic(phi) == (aniso == 0)
