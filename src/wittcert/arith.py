"""Exact integer and rational arithmetic substrate.

Everything downstream works with square classes: nonzero square-free
integers representing elements of Q*/Q*^2.  This module provides the
canonicalisation (`squarefree_rep`), p-adic valuations and prime support,
backed by exact integer factorization below 3.3 * 10^24: trial division by
the integers prime to 30 up to 10^5, then Miller-Rabin on as many bases as
the size of the number needs, and Pollard-Brent for composite cofactors.
A number with no prime factor up to 10^5 and below (10^5 + 1)^2 is prime
without a test.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt

Rat = int | Fraction

_TRIAL_BOUND = 100_000
# A number with no prime factor up to _TRIAL_BOUND is prime below this.
_TRIAL_PROVEN = (_TRIAL_BOUND + 1) ** 2
# The gaps between consecutive integers prime to 30, starting from 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)

# Miller-Rabin witnesses, deterministic below _EXACT_LIMIT, the least strong
# pseudoprime to all of them (OEIS A014233); larger numbers are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981
# A014233 a(1)..a(12): the least strong pseudoprime to the first k bases
# (Jaeschke 1993; Sorenson and Webster 2017).  Below a(k) the first k bases
# decide primality exactly.
_MR_THRESHOLDS = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
)


class DomainError(ValueError):
    """Raised when an operation's precondition is violated."""


class LimitExceeded(DomainError):
    """Well-formed input beyond a fixed size limit (maps to CLI exit status
    3)."""


def _check_exact(n: int) -> None:
    if abs(n) >= _EXACT_LIMIT:
        raise LimitExceeded(f"{n} is too large: exact primality testing and "
                            f"factorization need |n| < {_EXACT_LIMIT}")


def _is_probable_prime(n: int) -> bool:
    """Whether n passes Miller-Rabin; exact for n < _EXACT_LIMIT.

    n runs against the first k of `_MR_BASES`, k the least index with
    n < a(k) in `_MR_THRESHOLDS`: one base below 2,047, two below 1,373,653,
    and all thirteen from a(12) on, at and beyond the limit too.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:bisect_right(_MR_THRESHOLDS, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly; |n| >= _EXACT_LIMIT raises `LimitExceeded`."""
    _check_exact(n)
    return _is_probable_prime(n)


def _pollard_brent(n: int) -> int:
    """Find a nontrivial factor of composite n.  `factorize` calls it only on
    cofactors with no prime factor up to _TRIAL_BOUND, so n is odd."""
    seed = 1
    while True:
        seed += 1
        y, c, m = seed % n, seed % n + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _divide_out(out: dict[int, int], m: int, p: int) -> int:
    """m stripped of the prime p, which divides it; records p's exponent."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    out[p] = e
    return m


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero
    and |n| < _EXACT_LIMIT (else `LimitExceeded`).

    Trial division by 2, 3, 5 and the integers prime to 30 up to
    min(isqrt(m), _TRIAL_BOUND), where m is what is left to factor.  A
    cofactor below _TRIAL_PROVEN is then prime; a larger one goes to
    Miller-Rabin, and Pollard-Brent splits the composite ones.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    _check_exact(n)
    m = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        if m % p == 0:
            m = _divide_out(out, m, p)
    limit = min(isqrt(m), _TRIAL_BOUND)
    p = 7
    # Whole turns of the wheel while the last candidate, p + 24, is in
    # range: one remainder and one addition per candidate.  A division
    # lowers the limit to isqrt(m), and a candidate past it divides m only
    # when it is m itself, a prime.
    while p + 24 <= limit:
        for step in _WHEEL:
            if m % p == 0:
                m = _divide_out(out, m, p)
                limit = min(isqrt(m), _TRIAL_BOUND)
            p += step
    for step in _WHEEL:
        if p > limit:
            break
        if m % p == 0:
            m = _divide_out(out, m, p)
            limit = min(isqrt(m), _TRIAL_BOUND)
        p += step
    # Trial division reached isqrt(m) or _TRIAL_BOUND, so m, and every
    # factor of m that Pollard-Brent splits off, is prime below _TRIAL_PROVEN.
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_PROVEN or _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _factorize_rat(r: Rat) -> dict[int, int]:
    """{prime: exponent} of the numerator times the denominator of the
    nonzero int or Fraction r (the square class of r), from one
    factorization of each: each part, not their product, must lie below
    _EXACT_LIMIT.  An integer is factored once."""
    out = factorize(r.numerator)
    if r.denominator != 1:
        for p, e in factorize(r.denominator).items():
            out[p] = out.get(p, 0) + e
    return out


def _squarefree_part(r: Rat) -> tuple[int, list[int]]:
    """(squarefree_rep(r), the primes dividing it), from one factorization
    of each of the numerator and the denominator."""
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    if r == 0:
        raise DomainError("squarefree_rep of 0")
    primes = [p for p, e in _factorize_rat(r).items() if e % 2]
    s = -1 if r < 0 else 1
    for p in primes:
        s *= p
    return s, primes


def squarefree_rep(r: Rat) -> int:
    """The unique square-free integer s with r*s a nonzero rational square.

    Squares map to 1; the sign of r is preserved.
    """
    return _squarefree_part(r)[0]


def _class_product(a: int, b: int) -> int:
    """The square class of a*b, without factoring: with g = gcd(a, b),
    ab = g^2 (a/g)(b/g).  For square-free a and b the result is square-free
    (a/g and b/g are coprime), so it equals squarefree_rep(a * b)."""
    g = gcd(a, b)
    return (a // g) * (b // g)


def _is_rational_square(q: Rat) -> bool:
    """Whether q is the square of a nonzero rational, by integer square roots."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    return n > 0 and isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def _valuation_unit(p: int, r: Rat) -> tuple[int, int]:
    """(v, u) with r = p^v * u up to the square of a p-adic unit: v is the
    valuation of r at the prime p (not re-checked) and u a signed integer
    prime to p (numerator times denominator, both stripped of p)."""
    num, den = r.numerator, r.denominator
    if num == 0:
        raise DomainError("valuation of 0")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * den


def padic_valuation(p: int, r: Rat) -> int:
    """Exponent of the prime p in r (negative for denominators)."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return _valuation_unit(p, Fraction(r))[0]


def prime_support(items) -> set[int]:
    """Primes dividing any item, always including 2."""
    out = {2}
    for x in items:
        x = Fraction(x)
        if x == 0:
            continue
        out |= set(_factorize_rat(x))
    return out
