"""Number theory the benchmark does itself, apart from the engine.

Every input generator and output checker in the benchmark uses these
functions instead of `wittcert.arith`, so a fault in the engine's arithmetic
cannot make a wrong answer look right.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24 (bases up to 41).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def random_prime(rng, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def squarefree_part(n: int) -> tuple[int, int]:
    """(s, t) with n = s * t^2 and s square-free, sign kept in s.

    Trial division up to the cube root of |n|: what remains has at most two
    prime factors, so it is a prime, a product of two distinct primes, or a
    prime square.
    """
    if n == 0:
        raise ValueError("square-free part of 0")
    s, t, m = (-1 if n < 0 else 1), 1, abs(n)
    d = 2
    while d * d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e % 2:
            s *= d
        t *= d ** (e // 2)
        d += 1
    r = isqrt(m)
    if m > 1 and r * r == m:
        t *= r
    else:
        s *= m
    return s, t


def is_squarefree(n: int) -> bool:
    return n != 0 and squarefree_part(n)[1] == 1


def sq_class(n: int) -> int:
    """Square-free representative of a nonzero integer's square class."""
    return squarefree_part(n)[0]


def scale_entry(k: int, a: int) -> tuple[int, int]:
    """Square class of k*a for square-free k and a, as (entry, g) with
    k*a = entry * g^2."""
    g = gcd(k, a)
    return (k // g) * (a // g), g


def legendre(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion, p an odd prime not dividing a."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        raise ValueError("legendre of a multiple of p")
    return 1 if r == 1 else -1


def is_rational_square(q: Fraction) -> bool:
    n, d = q.numerator, q.denominator
    return n > 0 and isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def signed_disc(entries) -> int:
    n = len(entries)
    prod = (-1) ** (n * (n - 1) // 2)
    for a in entries:
        prod *= a
    return sq_class(prod)


def signature(entries) -> int:
    return sum(1 if a > 0 else -1 for a in entries)


def substitutes_to_zero(entries, vec) -> bool:
    """A planted isotropic vector: nonzero and sum a_i x_i^2 = 0."""
    return any(vec) and sum(a * x * x for a, x in zip(entries, vec)) == 0


def norm_witness(c: int, d: int) -> tuple[int, int, int] | None:
    """Integers (x, y, z), z > 0, with x^2 - d y^2 = c z^2, or None.

    The search box |y|, z <= sqrt|cd| + 1 contains a solution whenever one
    exists: for square-free c and d this is Holzer's bound for
    x^2 - d y^2 - c z^2 = 0 after removing the common factor of c and d.
    """
    bound = isqrt(abs(c * d)) + 1
    for z in range(1, bound + 1):
        for y in range(bound + 1):
            t = c * z * z + d * y * y
            if t >= 0 and isqrt(t) ** 2 == t:
                return isqrt(t), y, z
    return None


def is_norm_witness(c: int, d: int, w) -> bool:
    x, y, z = w
    return z != 0 and x * x - d * y * y == c * z * z
