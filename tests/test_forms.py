import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from oracles import check_witness, isotropic_witness, oracle_witt_index
from wittcert.arith import DomainError, squarefree_rep
from wittcert.forms import (
    HYPERBOLIC_PLANE,
    QForm,
    disc,
    hasse_invariant,
    in_G,
    in_In,
    is_hyperbolic,
    is_isometric,
    is_isotropic,
    isotropy_obstruction,
    orth_sum,
    pfister,
    pfister_slots,
    qform,
    represents,
    scale,
    signature,
    tensor,
    witt_decompose,
    witt_equivalent,
    witt_index,
)
from wittcert.localfields import Place, REAL


def random_form(rng, dim, height=20):
    return qform([rng.choice([-1, 1]) * rng.randint(1, height) for _ in range(dim)])


class TestInvariants:
    def test_disc_frozen(self):
        assert disc(HYPERBOLIC_PLANE) == 1
        assert disc(qform([1, 1, 1, 1, 1, 2])) == -2
        assert disc(qform([12])) == 3

    def test_signature(self):
        assert signature(HYPERBOLIC_PLANE) == 0
        assert signature(qform([1, 1, 1, 1])) == 4
        assert signature(qform([-3, 5, -7])) == -1

    def test_hasse_frozen(self):
        assert hasse_invariant(qform([1, 1]), REAL) == 1
        assert hasse_invariant(qform([-1, -1]), REAL) == -1
        assert hasse_invariant(qform([2, 5]), Place(5)) == -1

    def test_disc_stable_under_hyperbolic_sum(self):
        rng = random.Random(31)
        for _ in range(100):
            phi = random_form(rng, rng.randint(1, 5))
            assert disc(orth_sum(phi, HYPERBOLIC_PLANE)) == disc(phi)

    def test_entry_validation(self):
        for entries in ((4,), (0,), (1, 12), (-18,)):
            with pytest.raises(DomainError):
                QForm(entries)
        with pytest.raises(TypeError):  # the support is learned, never given
            QForm((1,), frozenset({2}))


class TestIsotropy:
    def test_frozen(self):
        assert is_isotropic(HYPERBOLIC_PLANE)
        assert not is_isotropic(qform([1, 1]))
        assert is_isotropic(qform([1, 1, 1, 1, -7]))
        assert not is_isotropic(qform([1]))
        assert not is_isotropic(qform([1, -2, -5, 10]))  # division norm form

    def test_oracle_agreement(self):
        # Hasse-Minkowski against explicit integer witnesses.
        rng = random.Random(32)
        for _ in range(150):
            phi = random_form(rng, rng.randint(2, 5))
            witness = isotropic_witness(phi.entries, heights=(12, 60))
            if witness is not None:
                assert check_witness(phi.entries, witness)
                assert is_isotropic(phi), phi
            if not is_isotropic(phi):
                v = isotropy_obstruction(phi)
                assert v is not None, phi
                assert witness is None


class TestWittDecomposition:
    def test_frozen(self):
        assert witt_decompose(HYPERBOLIC_PLANE)[:2] == (1, 0)
        assert witt_decompose(qform([1, 1, 1, 1]))[:2] == (0, 4)
        w, a, _ = witt_decompose(qform([1, 1, 1, 1, -7, -7]))
        assert w == 2 and a == 2

    def test_gram_splitting_oracle_fixed(self):
        # Full agreement on hand-checkable instances.
        for entries, expected in [
            ((1, -1), 1),
            ((1, 1, 1, 1), 0),
            ((1, 2, -3), 1),
            ((2, 3, -5), 1),
            ((1, -1, 2, -2), 2),
            ((1, 1, 1, 1, -7, -7), 2),
            ((1, 1, -1), 1),
        ]:
            steps, residual = oracle_witt_index(entries, heights=(12, 60))
            w, aniso, _ = witt_decompose(qform(entries))
            assert steps == w == expected, (entries, steps, w)
            assert aniso == len(residual)

    def test_gram_splitting_oracle_random(self):
        # Independent route: split hyperbolic planes from explicit witnesses by
        # exact rational Gram algebra.  Every split the oracle performs is a
        # certified lower bound; the search is conclusive when it reaches the
        # engine's Witt index, which it must on almost all small instances.
        rng = random.Random(33)
        conclusive = 0
        total = 70
        for _ in range(total):
            phi = random_form(rng, rng.randint(2, 4), height=10)
            steps, residual = oracle_witt_index(phi.entries, heights=(12, 60))
            w, aniso, _ = witt_decompose(phi)
            assert steps <= w, (phi, steps, w)
            if steps == w:
                conclusive += 1
                assert aniso == len(residual)
        assert conclusive >= total - 3, conclusive

    def test_hasse_minus_places_even_including_real(self):
        rng = random.Random(34)
        for _ in range(80):
            phi = random_form(rng, rng.randint(2, 6))
            _, _, cls = witt_decompose(phi)
            assert len(cls.hasse_minus_places) % 2 == 0

    def test_witt_index(self):
        assert witt_index(qform([1, 1, 1, -1, -1])) == 2
        assert witt_index(qform([1, 1, 1, 1])) == 0
        assert witt_index(tensor(pfister([-1, -1]), qform([1, -1]))) == 4

    def test_zero_dim_is_hyperbolic(self):
        empty = QForm(())
        assert is_hyperbolic(empty)
        assert witt_decompose(empty)[:2] == (0, 0)


class TestHyperbolic:
    def test_frozen(self):
        assert is_hyperbolic(qform([1, -1, 2, -2]))
        assert is_hyperbolic(qform([1, 1, -1, -1]))
        assert not is_hyperbolic(pfister([-1, -1]))
        assert not is_hyperbolic(qform([1, -1, 3]))

    def test_tensor_with_plane_is_hyperbolic(self):
        rng = random.Random(35)
        for _ in range(60):
            psi = random_form(rng, rng.randint(1, 4))
            assert is_hyperbolic(tensor(HYPERBOLIC_PLANE, psi))


class TestIsometry:
    def test_frozen(self):
        assert is_isometric(qform([1, -1]), qform([2, -2]))
        assert not is_isometric(qform([1, 1]), qform([1, 2]))
        # 2*(1/4)^2 + 14*(1/4)^2 = 1, and both have disc -7, signature 2.
        assert is_isometric(qform([1, 7]), qform([2, 14]))
        # Same dimension, disc -1 and signature; the Hasse invariants differ
        # only at 3 and 7, primes of the second form alone.
        assert not is_isometric(qform([1, 1]), qform([21, 21]))
        assert not is_isometric(qform([21, 21]), qform([1, 1]))

    def test_witt_cancellation(self):
        rng = random.Random(36)
        for _ in range(60):
            phi = random_form(rng, rng.randint(1, 3))
            psi = random_form(rng, phi.dim)
            rho = random_form(rng, rng.randint(1, 3))
            lhs = is_isometric(orth_sum(phi, rho), orth_sum(psi, rho))
            assert lhs == is_isometric(phi, psi)

    def test_scaling_the_plane(self):
        assert is_isometric(scale(-1, HYPERBOLIC_PLANE), HYPERBOLIC_PLANE)
        assert is_isometric(scale(30, HYPERBOLIC_PLANE), HYPERBOLIC_PLANE)


class TestPfister:
    def test_expansions(self):
        assert pfister([1]) == qform([1, -1])
        assert pfister([-1, -1]) == qform([1, 1, 1, 1])
        assert pfister([2, 5]) == qform([1, -2, -5, 10])
        assert pfister_slots(pfister([3, -7])) == (3, -7)
        assert pfister_slots(qform([1, 2, 3, 4, 5])) is None

    def test_slot_limit(self):
        with pytest.raises(DomainError):
            pfister([2, 3, 5, 7, 11])

    def test_tensor_of_pfister_is_pfister(self):
        assert is_isometric(tensor(pfister([-1]), pfister([-1])), pfister([-1, -1]))

    def test_roundness(self):
        # Represented values of 2- and 3-fold Pfister forms are similarity factors.
        rng = random.Random(37)
        hits = 0
        for _ in range(150):
            n = rng.choice([2, 3])
            pi = pfister([rng.choice([-1, 1]) * rng.randint(1, 10) for _ in range(n)])
            x = [rng.randint(-6, 6) for _ in range(pi.dim)]
            val = sum(e * t * t for e, t in zip(pi.entries, x))
            if val == 0:
                continue
            assert represents(pi, val)
            assert in_G(pi, val), (pi, val)
            hits += 1
        assert hits > 100


class TestRepresents:
    def test_frozen(self):
        assert represents(qform([1]), 4)
        assert not represents(qform([1, 1]), -1)
        # <1,-2,-5,10> is the anisotropic norm form of (2,5): -10 is not
        # represented by its ternary subform (obstruction at p = 5).
        assert not represents(qform([1, -2, -5]), -10)
        assert represents(qform([1, -2]), -1)
        assert QForm(()) .dim == 0 and not represents(QForm(()), 3)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            represents(qform([1, 2]), 0)

    def test_witness_confirmation(self):
        # Any witness for phi + <-c> certifies representation (an isotropic
        # regular form is universal), so the engine must agree.
        rng = random.Random(38)
        hits = 0
        for _ in range(80):
            phi = random_form(rng, rng.randint(1, 4), height=12)
            c = rng.randint(-30, 30) or 1
            witness = isotropic_witness(phi.entries + (squarefree_rep(-c),), heights=(25, 80))
            if witness is not None:
                assert represents(phi, c), (phi, c, witness)
                hits += 1
        assert hits > 30


class TestSimilarityFactors:
    def test_frozen(self):
        assert in_G(qform([3, 5, 7]), 1)
        assert in_G(qform([1, 1, 1, 1]), 2)
        assert not in_G(qform([1, 1]), -1)

    def test_squares_are_factors(self):
        rng = random.Random(39)
        for _ in range(40):
            phi = random_form(rng, rng.randint(1, 4))
            s = rng.randint(1, 12)
            assert in_G(phi, s * s)

    def test_closed_under_squares(self):
        rng = random.Random(40)
        for _ in range(60):
            phi = random_form(rng, rng.randint(2, 4))
            c = rng.randint(-20, 20) or 1
            if in_G(phi, c):
                assert in_G(phi, c * rng.randint(1, 10) ** 2)

    def test_both_paths_always_agree(self):
        # in_G raises InvariantViolation on any disagreement; a clean sweep of
        # random instances is the property.
        rng = random.Random(41)
        for _ in range(250):
            phi = random_form(rng, rng.randint(1, 5))
            c = rng.randint(-25, 25) or 1
            in_G(phi, c)


class TestFundamentalIdealPowers:
    def test_frozen(self):
        assert in_In(HYPERBOLIC_PLANE, 4)
        assert not in_In(qform([1, 1, 1, 1]), 3)  # signature 4
        assert in_In(qform([1, 1, 1, 1]), 2)
        assert not in_In(qform([1, 2]), 2)  # disc 2

    def test_pfister_forms_generate(self):
        rng = random.Random(42)
        for _ in range(40):
            slots = [rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(4)]
            assert in_In(pfister(slots), 4), slots
            slots3 = slots[:3]
            assert in_In(pfister(slots3), 3), slots3

    def test_filtration(self):
        rng = random.Random(43)
        for _ in range(60):
            phi = random_form(rng, 2 * rng.randint(1, 4))
            for n in (4, 3, 2):
                if in_In(phi, n):
                    assert in_In(phi, n - 1)

    def test_bad_power_rejected(self):
        with pytest.raises(DomainError):
            in_In(qform([1, 1]), 5)


def test_witt_equivalent_padding():
    assert witt_equivalent(HYPERBOLIC_PLANE, QForm(()))
    assert witt_equivalent(qform([3]), orth_sum(qform([3]), HYPERBOLIC_PLANE))
    assert not witt_equivalent(qform([3]), qform([5, 1, -1]))


# Entries whose prime factors lie above the trial-division bound (10^5), so
# that the decisions below rest on Pollard-Brent and Miller-Rabin as well as
# on trial division.
LARGE_PRIMES = [p for p in range(100_003, 100_400, 2)
                if all(p % d for d in range(3, int(p ** 0.5) + 1, 2))]
SMALL_CLASSES = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15)


def large_entries(max_large: int):
    """Square-free integers: a sign, a small class and up to `max_large`
    distinct primes above 10^5."""
    return st.builds(lambda sign, small, large: sign * small * prod(large),
                     st.sampled_from((-1, 1)), st.sampled_from(SMALL_CLASSES),
                     st.sets(st.sampled_from(LARGE_PRIMES), max_size=max_large))


class TestDecisionProperties:
    """`is_isotropic`, `witt_decompose`, `in_In` and `is_isometric` on forms
    with large prime entries: invariance under permuting the entries and
    under scaling by a square class, and Witt cancellation."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(large_entries(2), min_size=1, max_size=5), st.randoms(use_true_random=False))
    def test_permuting_the_entries(self, entries, rnd):
        shuffled = list(entries)
        rnd.shuffle(shuffled)
        phi, psi = qform(entries), qform(shuffled)
        assert is_isotropic(psi) == is_isotropic(phi)
        assert witt_decompose(psi) == witt_decompose(phi)
        assert [in_In(psi, n) for n in (1, 2, 3, 4)] == [in_In(phi, n) for n in (1, 2, 3, 4)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(large_entries(2), min_size=1, max_size=5), large_entries(1))
    def test_scaling_by_a_square_class(self, entries, k):
        phi = qform(entries)
        scaled = scale(k, phi)
        assert is_isotropic(scaled) == is_isotropic(phi)
        assert witt_decompose(scaled)[:2] == witt_decompose(phi)[:2]
        assert scale(k, scaled) == phi

    @settings(max_examples=60, deadline=None)
    @given(st.lists(large_entries(1), min_size=1, max_size=3),
           st.tuples(large_entries(1), large_entries(1)), st.booleans(), large_entries(1))
    def test_witt_cancellation(self, phi_entries, ab, isometric, t):
        """phi + psi = phi + psi' iff psi = psi'.  psi' is either <a + b,
        ab(a + b)>, isometric to psi = <a, b> when a + b != 0, or psi with one
        entry scaled by t, which may or may not be isometric to it."""
        a, b = ab
        psi = qform([a, b])
        if isometric and a + b:
            psi2 = qform([a + b, a * b * (a + b)])
            assert is_isometric(psi, psi2)
        else:
            psi2 = qform([a * t, b])
        phi = qform(phi_entries)
        assert is_isometric(orth_sum(phi, psi), orth_sum(phi, psi2)) == is_isometric(psi, psi2)


class TestFundamentalIdealProperties:
    """`in_In` on forms with large prime entries: the filtration
    I^4 < I^3 < I^2 < I^1, n-fold Pfister forms in I^n, and phi + (-phi)
    in I^4."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(large_entries(1), st.lists(large_entries(1), min_size=1, max_size=4)),
                    min_size=1, max_size=2))
    def test_filtration(self, terms):
        # A sum of scaled Pfister forms lies in I^n for its fewest slots n,
        # so that every power is reached as well as refused.
        phi = QForm(())
        for k, slots in terms:
            phi = orth_sum(phi, scale(k, pfister(slots)))
        member = [in_In(phi, n) for n in (1, 2, 3, 4)]
        assert member == sorted(member, reverse=True), member
        assert member[min(len(slots) for _, slots in terms) - 1]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(large_entries(1), min_size=1, max_size=4))
    def test_pfister_forms(self, slots):
        phi = pfister(slots)
        assert all(in_In(phi, n) for n in range(1, len(slots) + 1))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(large_entries(2), min_size=1, max_size=6))
    def test_phi_plus_minus_phi(self, entries):
        phi = qform(entries)
        assert in_In(orth_sum(phi, scale(-1, phi)), 4)
