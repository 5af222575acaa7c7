import random

import pytest
from fractions import Fraction
from math import prod

from wittcert import codecs
from wittcert.arith import (
    _EXACT_LIMIT,
    DomainError,
    LimitExceeded,
    _is_probable_prime,
    factorize,
    is_prime,
    legendre,
    padic_valuation,
    prime_support,
    squarefree_rep,
)


def naive_squarefree(n: int) -> int:
    """Strip square divisors by direct scanning (independent of factorize)."""
    k = 2
    while k * k <= abs(n):
        while n % (k * k) == 0:
            n //= k * k
        k += 1
    return n


class TestSquarefreeRep:
    def test_frozen_examples(self):
        assert squarefree_rep(1) == 1
        assert squarefree_rep(18) == 2
        assert squarefree_rep(Fraction(-4, 9)) == -1
        assert squarefree_rep(Fraction(8, 3)) == 6
        assert squarefree_rep(-7) == -7

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            squarefree_rep(0)

    def test_matches_naive_scan(self):
        rng = random.Random(11)
        for _ in range(400):
            n = rng.randint(-5000, 5000) or 1
            assert squarefree_rep(n) == naive_squarefree(n)

    def test_product_with_input_is_square(self):
        rng = random.Random(12)
        for _ in range(300):
            r = Fraction(rng.randint(-300, 300) or 1, rng.randint(1, 300))
            s = squarefree_rep(r)
            q = r * s
            assert q > 0
            num, den = q.numerator, q.denominator
            assert int(num ** 0.5 + 0.5) ** 2 == num
            assert int(den ** 0.5 + 0.5) ** 2 == den

    def test_idempotent_and_multiplicative_up_to_squares(self):
        rng = random.Random(13)
        for _ in range(300):
            a = rng.randint(-400, 400) or 1
            b = rng.randint(-400, 400) or 1
            sa, sb = squarefree_rep(a), squarefree_rep(b)
            assert squarefree_rep(sa) == sa
            assert squarefree_rep(a * b) == squarefree_rep(sa * sb)


class TestRationals:
    """A rational is reduced by factoring its numerator and denominator
    apart: each must lie below the exactness limit, not their product."""

    # Both parts are below _EXACT_LIMIT; their product is above it.
    N, D = 2000000000003, 2000000000009

    def test_parts_below_the_limit_with_product_above(self):
        assert max(self.N, self.D) < _EXACT_LIMIT <= self.N * self.D
        expected = naive_squarefree(self.D) * self.N
        assert squarefree_rep(Fraction(self.N, self.D)) == expected
        assert squarefree_rep(Fraction(self.D, self.N)) == expected
        assert squarefree_rep(Fraction(-self.N, 4 * self.D)) == -expected
        support = {2} | set(factorize(self.N)) | set(factorize(self.D))
        assert prime_support([Fraction(self.N, self.D)]) == support
        assert prime_support([Fraction(self.D, self.N), 1]) == support

    def test_small_rationals(self):
        rng = random.Random(17)
        for _ in range(300):
            n, d = rng.randint(-500, 500) or 1, rng.randint(1, 500)
            q = Fraction(n, d)
            assert squarefree_rep(q) == naive_squarefree(q.numerator * q.denominator)
            assert prime_support([q]) == prime_support([q.numerator * q.denominator])

    @pytest.mark.parametrize("q", [Fraction(_EXACT_LIMIT, 7), Fraction(7, _EXACT_LIMIT),
                                   Fraction(-_EXACT_LIMIT, 2)])
    def test_a_part_at_the_limit_is_refused(self, q):
        with pytest.raises(LimitExceeded):
            squarefree_rep(q)
        with pytest.raises(LimitExceeded):
            prime_support([q])


class TestValuation:
    def test_frozen_examples(self):
        assert padic_valuation(2, 12) == 2
        assert padic_valuation(3, Fraction(1, 9)) == -2
        assert padic_valuation(5, 7) == 0

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            padic_valuation(6, 5)

    def test_additive(self):
        rng = random.Random(14)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11])
            a = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            b = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            assert padic_valuation(p, a * b) == padic_valuation(p, a) + padic_valuation(p, b)


class TestPrimeSupport:
    def test_always_contains_two(self):
        assert prime_support([1]) == {2}
        assert prime_support([-1]) == {2}

    def test_example(self):
        assert prime_support([15, -2]) == {2, 3, 5}

    def test_covers_factorizations(self):
        rng = random.Random(15)
        for _ in range(100):
            xs = [rng.randint(-200, 200) or 1 for _ in range(3)]
            supp = prime_support(xs)
            for x in xs:
                for p, _ in factorize(x).items():
                    assert p in supp


class TestFactorize:
    def test_reconstructs(self):
        rng = random.Random(16)
        for _ in range(200):
            n = rng.randint(2, 10 ** 9)
            fac = factorize(n)
            prod = 1
            for p, e in fac.items():
                assert is_prime(p)
                prod *= p ** e
            assert prod == n

    def test_large_cofactor_path(self):
        # Product of two primes above the trial-division bound.
        p, q = 1_000_003, 1_000_033
        fac = factorize(p * q)
        assert fac == {p: 1, q: 1}


class TestIsPrime:
    def test_matches_trial_division(self):
        small = [n for n in range(2, 500) if all(n % d for d in range(2, n))]
        assert [n for n in range(500) if is_prime(n)] == small

    def test_strong_pseudoprime_to_bases_up_to_37(self):
        # The least strong pseudoprime to every prime base up to 37 (OEIS
        # A014233); base 41 exposes it, and factorize must split it.
        n = 318665857834031151167461
        assert not is_prime(n)
        assert factorize(n) == {399165290221: 1, 798330580441: 1}


class TestExactnessLimit:
    """Miller-Rabin on `_MR_BASES` is exact only below the least strong
    pseudoprime to all of them; at and beyond it both `is_prime` and
    `factorize` refuse."""

    def test_the_limit_is_a_strong_pseudoprime(self):
        assert _EXACT_LIMIT == 1287836182261 * 2575672364521
        assert _is_probable_prime(_EXACT_LIMIT)

    def test_below_the_limit(self):
        assert factorize(2 ** 81) == {2: 81}
        assert is_prime(2 ** 81 - 1) is False
        fac = factorize(_EXACT_LIMIT - 1)
        assert prod(p ** e for p, e in fac.items()) == _EXACT_LIMIT - 1
        assert all(is_prime(p) for p in fac)

    @pytest.mark.parametrize("n", [_EXACT_LIMIT, -_EXACT_LIMIT, _EXACT_LIMIT + 2, 10 ** 111 + 3])
    def test_refused(self, n):
        with pytest.raises(LimitExceeded):
            factorize(n)
        with pytest.raises(LimitExceeded):
            is_prime(n)
        with pytest.raises(LimitExceeded):
            squarefree_rep(Fraction(1, n))

    def test_one_error_class(self):
        assert codecs.LimitExceeded is LimitExceeded
        assert issubclass(LimitExceeded, DomainError)


def test_legendre_matches_residue_scan():
    for p in (3, 5, 7, 11, 13):
        residues = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in residues else -1)
