import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from math import prod

from oracles import factorize_by_trial_division
from wittcert import arith, codecs
from wittcert.arith import (
    _EXACT_LIMIT,
    _MR_BASES,
    _TRIAL_BOUND,
    DomainError,
    LimitExceeded,
    _is_probable_prime,
    factorize,
    is_prime,
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

    # 31 and 37 close one turn of the wheel and open the next; 99,991 is the
    # last prime below the trial bound, 100,003 and 100,019 the first above.
    EDGE_PRIMES = (7, 11, 13, 31, 37, 997, 1009, 99_991, 100_003, 100_019)

    @pytest.mark.parametrize("p", EDGE_PRIMES)
    def test_against_trial_division_at_the_edges(self, p):
        assert _TRIAL_BOUND == 100_000
        cases = [p, -p, p ** 2, p ** 3, 30 * p ** 2]
        cases += [p * q for q in self.EDGE_PRIMES if q >= p]
        for n in cases:
            assert factorize(n) == factorize_by_trial_division(n), n

    @pytest.mark.parametrize("n", [1, -1, 49, 77, 121, 169, -169, 7 * 11 * 13 * 17])
    def test_wheel_composites(self, n):
        # Integers prime to 30 that the wheel visits but that are not prime.
        assert factorize(n) == factorize_by_trial_division(n)

    def test_against_trial_division_below_20000(self):
        for n in range(1, 20_000):
            assert factorize(n) == factorize_by_trial_division(n), n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10 ** 18, 10 ** 18).filter(bool))
    def test_product_of_prime_powers(self, n):
        fac = factorize(n)
        assert prod(p ** e for p, e in fac.items()) == abs(n)
        assert all(e > 0 and is_strong_probable_prime(p, _ALL_BASES) for p, e in fac.items())


class TestFactorizeWork:
    """Which routes a factorization takes: a cofactor below
    (_TRIAL_BOUND + 1)^2 left by trial division is prime without a test, and
    Pollard-Brent runs only on a composite cofactor."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"_is_probable_prime": 0, "_pollard_brent": 0}
        for name in counts:
            inner = getattr(arith, name)

            def counted(n, name=name, inner=inner):
                counts[name] += 1
                return inner(n)
            monkeypatch.setattr(arith, name, counted)
        return counts

    def test_a_prime_cofactor_needs_no_miller_rabin(self, calls):
        assert factorize(30 * 300_007) == {2: 1, 3: 1, 5: 1, 300_007: 1}
        assert calls == {"_is_probable_prime": 0, "_pollard_brent": 0}

    def test_two_primes_above_the_bound_split_once(self, calls):
        assert factorize(100_003 * 100_019) == {100_003: 1, 100_019: 1}
        assert calls == {"_is_probable_prime": 1, "_pollard_brent": 1}


def is_strong_probable_prime(n: int, bases) -> bool:
    """Whether n > 1 passes the strong test to every prime base, with
    n - 1 = d 2^s; a base that divides n passes only when it is n."""
    for a in bases:
        if n % a == 0:
            return n == a
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2 ** r, n) != n - 1 for r in range(s)):
            return False
    return True


_ALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# OEIS A014233 a(1)..a(12): the least odd composite that is a strong
# pseudoprime to each of the first k prime bases.
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461)


def sieve(n: int) -> list[bool]:
    flags = [False, False] + [True] * (n - 2)
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(range(p * p, n, p))
    return flags


class TestIsPrime:
    def test_matches_trial_division(self):
        small = [n for n in range(2, 500) if all(n % d for d in range(2, n))]
        assert [n for n in range(500) if is_prime(n)] == small

    def test_matches_a_sieve_below_two_million(self):
        # Covers every n below a(2) = 1,373,653, where one and two bases run.
        flags = sieve(2_000_000)
        assert [is_prime(n) for n in range(2_000_000)] == flags

    @pytest.mark.parametrize("k", range(1, 13))
    def test_each_threshold_is_caught(self, k):
        # a(k) fools the first k bases and not all thirteen, so it is
        # composite, and at n = a(k) more than k bases must run.
        n = A014233[k - 1]
        assert _MR_BASES == _ALL_BASES
        assert is_strong_probable_prime(n, _ALL_BASES[:k])
        assert not is_strong_probable_prime(n, _ALL_BASES)
        assert not is_prime(n)

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
