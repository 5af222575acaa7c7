"""Places of Q, local completions of multiquadratic towers, and local form data.

Completions are represented by invariants (base place, adjoined square
classes, ramification index e, residue degree f), never by element-level
p-adic arithmetic; elements are global rationals interpreted locally.

Square classes of rationals in a completion are base classes reduced modulo
the Kummer subgroup of the adjoined square roots; a base class at a finite
place is a pair (valuation parity, unit part), computed from one valuation
and one Legendre symbol or residue mod 8.  Hilbert symbols of rationals are
closed forms: +1 over every even-degree completion (norm compatibility), the
sign rule over R, and over Q_p bit formulas on the class pairs (the tame
formula for p odd, Serre's formula for p = 2).

The local invariants of a diagonal form over a finite completion depend
only on how many of its entries lie in each class of Q_p*/Q_p*^2 (4 classes
for p odd, 8 for p = 2): its histogram, an element of the group ring
Z[Q_p*/Q_p*^2].  Each distinct entry is mapped once to its class, and
equal entries only add to its count; the discriminant and the Hasse
invariant then come from the at most 8 class counts by the multiplicity
law and a table of the closed-form symbols, without calling
`hilbert_symbol`.  Scaling a form by c translates its histogram by the
class of c.  No local answer is memoised.

The fiber rule `completion_over` gives the completion of a tower above a
place from the Kummer group of its generators, and `completions` walks the
real place, 2 and the primes of an instance in a fixed order.  Every
local-global decision in `forms`, `extensions` and the CLI reads its local
classes from that walk, one `form_class_at` per form and completion.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .arith import DomainError, Rat, _valuation_unit, is_prime, legendre, prime_support


@dataclass(frozen=True, slots=True)
class Place:
    """A place of Q: the real place (p is None) or a finite prime."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")

    @property
    def is_real(self) -> bool:
        return self.p is None

    def sort_key(self):
        return (0, 0) if self.p is None else (1, self.p)

    def __str__(self) -> str:
        return "real" if self.p is None else str(self.p)


REAL = Place(None)


@dataclass(frozen=True, slots=True)
class LocalField:
    """A completion of a multiquadratic tower at a place of Q, degree <= 4.

    For a finite base, `gens` holds canonical local square-class
    representatives of the adjoined square roots (only the locally
    independent ones).  For the real base, gens = () is R and gens = (-1,)
    is C.
    """

    base: Place
    gens: tuple[int, ...] = ()
    e: int = 1
    f: int = 1

    @property
    def is_real(self) -> bool:
        return self.base.is_real and not self.gens

    @property
    def is_complex(self) -> bool:
        return self.base.is_real and bool(self.gens)

    @property
    def degree(self) -> int:
        if self.base.is_real:
            return 2 if self.gens else 1
        return self.e * self.f

    def __str__(self) -> str:
        if self.is_real:
            return "R"
        if self.is_complex:
            return "C"
        body = f"Q{self.base.p}"
        if self.gens:
            body += "(" + ", ".join(f"sqrt {g}" for g in self.gens) + ")"
        return body


def rationals_at(v: Place) -> LocalField:
    return LocalField(v)


@dataclass(frozen=True, slots=True)
class LocalFormClass:
    """Local invariants of a quadratic form class: the local shadow used by
    every isotropy and hyperbolicity decision."""

    dim: int
    disc: int  # canonical local square class, 1 = trivial
    hasse: int  # +1 or -1
    signature: int | None = None  # real completions only


# ----------------------------------------------------------------------
# Square classes of completions.
#
# At a finite place p the class of a = p^v u (u a unit) in Q_p*/Q_p*^2 is a
# pair (v mod 2, unit part).  For p odd the unit part is the nonresidue bit
# of u, so the group is (Z/2)^2 under XOR; for p = 2 it is u mod 8, and the
# group (Z/2)^3 multiplies it mod 8.

# Canonical representatives of Q_2* / Q_2*^2, ordered.
DYADIC_CLASSES = (1, 3, 5, 7, 2, 6, 10, 14)
_DYADIC_ORDER = {c: i for i, c in enumerate(DYADIC_CLASSES)}


def _dyadic_pair(a: Rat) -> tuple[int, int]:
    """(valuation parity, unit residue mod 8) of a in Q_2*."""
    v, u = _valuation_unit(2, a)
    return v % 2, u % 8


def dyadic_class(r: Rat) -> int:
    """Canonical representative of the square class of r in Q_2."""
    v, u = _dyadic_pair(r)
    return u * 2 if v else u


def dyadic_subgroup(gens) -> frozenset[int]:
    """Subgroup of Q_2*/Q_2*^2 generated by the given elements."""
    group = {1}
    for g in gens:
        c = dyadic_class(g)
        group |= {dyadic_class(c * h) for h in group}
    return frozenset(group)


def _odd_nonresidue(p: int) -> int:
    u = 2
    while legendre(u, p) == 1:
        u += 1
    return u


def _odd_class_pair(a: Rat, p: int) -> tuple[int, int]:
    """(valuation parity, nonresidue bit) of a in Q_p*, p odd.  The bit is
    Euler's criterion on the unit part, which is prime to p."""
    v, u = _valuation_unit(p, a)
    return v % 2, 0 if pow(u, (p - 1) // 2, p) == 1 else 1


def _odd_subgroup(gens, p: int) -> set[tuple[int, int]]:
    """Subgroup of Q_p*/Q_p*^2 (p odd) generated by the given elements, as
    (valuation parity, nonresidue bit) pairs."""
    group = {(0, 0)}
    for g in gens:
        gp = _odd_class_pair(g, p)
        group |= {(gp[0] ^ h[0], gp[1] ^ h[1]) for h in group}
    return group


def _odd_class_rep(pair: tuple[int, int], p: int) -> int:
    v, chi = pair
    rep = p if v else 1
    return rep * _odd_nonresidue(p) if chi else rep


def _class_rep(pair: tuple[int, int], E: LocalField) -> int:
    """Canonical representative in E (finite base) of the base class with
    this pair: the least member, in the fixed order, of its coset modulo the
    Kummer subgroup of the adjoined square roots."""
    p = E.base.p
    if p == 2:
        v, u = pair
        c = u * 2 if v else u
        coset = [dyadic_class(c * h) for h in dyadic_subgroup(E.gens)]
        return min(coset, key=_DYADIC_ORDER.__getitem__)
    coset = [(pair[0] ^ h[0], pair[1] ^ h[1]) for h in _odd_subgroup(E.gens, p)]
    return _odd_class_rep(min(coset), p)


def local_square_class(a: Rat, E: LocalField) -> int:
    """Canonical representative of the square class of a in E (1 = trivial).

    Inputs are global rationals; for extensions, the class is the base class
    reduced modulo the subgroup generated by the adjoined square roots
    (Kummer: an element of Q_p is a square in a multiquadratic extension iff
    its class lies in that subgroup).
    """
    if a == 0:
        raise DomainError("square class of 0")
    if E.is_complex:
        return 1
    if E.is_real:
        return 1 if a > 0 else -1
    p = E.base.p
    return _class_rep(_dyadic_pair(a) if p == 2 else _odd_class_pair(a, p), E)


# ----------------------------------------------------------------------
# Completions of a tower, and the walk over the ones a decision reads.


def completion_over(v: Place, gens) -> tuple[LocalField, int]:
    """The completion of the tower Q(sqrt g : g in gens) (independent
    square-free generators) at a place above v, and the number of places
    above v; all of them are conjugate.

    At the real place a negative generator makes the completion C.  At a
    prime the Kummer group of the generators' classes in Q_p*/Q_p*^2 has
    order e*f: f = 2 iff it contains the unramified non-square class, and
    e = |group| / f.  The completion adjoins the least one or two nontrivial
    canonical representatives of the group."""
    if not gens:
        return LocalField(v), 1
    degree = 1 << len(gens)
    if v.is_real:
        if any(g < 0 for g in gens):
            return LocalField(REAL, (-1,)), degree // 2
        return LocalField(REAL), degree
    p = v.p
    if p == 2:
        group, unramified = dyadic_subgroup(gens), 5
    else:
        group = {_odd_class_rep(h, p) for h in _odd_subgroup(gens, p)}
        unramified = _odd_nonresidue(p)
    f = 2 if unramified in group else 1
    e = len(group) // f
    local_gens = sorted(group - {1})[:len(group).bit_length() - 1]
    return LocalField(v, tuple(local_gens), e, f), degree // (e * f)


def completions(primes, gens=()) -> Iterator[tuple[Place, LocalField, int]]:
    """(place, completion, multiplicity) of the tower Q(sqrt g : g in gens)
    above the real place, 2, the primes of `primes` and the primes of the
    generators, in that order (primes increasing): the only completions where
    a form whose entries are supported on `primes` can have a nontrivial
    local invariant.  Every local-global decision reads its local classes
    from this walk."""
    yield (REAL, *completion_over(REAL, gens))
    for p in sorted(prime_support(gens).union(primes)):
        v = Place(p)
        yield (v, *completion_over(v, gens))


# ----------------------------------------------------------------------
# Hilbert symbols.
#
# Over Q_p a symbol is (-1)^t, with t a bit formula on the class pairs of
# its arguments: the tame formula for p odd, Serre's formula for p = 2
# (Serre, A Course in Arithmetic, III.1.2).  `hilbert_symbol` evaluates
# symbols through these two helpers, `form_class_at` through tables of them.


def _tame_exponent(alpha: int, chi_u: int, beta: int, chi_w: int, eps: int) -> int:
    """t with (a, b)_p = (-1)^t, p odd, from the class pairs (alpha, chi_u)
    and (beta, chi_w) of a = p^alpha u and b = p^beta w, where
    (u|p) = (-1)^chi_u: the tame formula
    (-1)^(alpha beta eps) (u|p)^beta (w|p)^alpha with eps = (p - 1)/2 mod 2."""
    return (alpha & beta & eps) ^ (chi_u & beta) ^ (chi_w & alpha)


def _serre_exponent(alpha: int, u: int, beta: int, w: int) -> int:
    """t with (a, b)_2 = (-1)^t from the class pairs (alpha, u mod 8) and
    (beta, w mod 8) of a = 2^alpha u and b = 2^beta w: Serre's formula
    t = eps(u) eps(w) + alpha omega(w) + beta omega(u) mod 2, with
    eps(x) = (x - 1)/2 and omega(x) = (x^2 - 1)/8."""
    t = (u - 1) // 2 * ((w - 1) // 2) + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
    return t % 2


def _qp_symbol(a: Rat, b: Rat, p: int) -> int:
    """(a, b)_p over Q_p for a prime p: Serre's formula for p = 2, the tame
    formula for p odd, on the class pairs of a and b.  p is taken as prime
    (it comes from a factorization or a `Place`) and is not re-tested."""
    if p == 2:
        t = _serre_exponent(*_dyadic_pair(a), *_dyadic_pair(b))
    else:
        t = _tame_exponent(*_odd_class_pair(a, p), *_odd_class_pair(b, p), (p - 1) // 2 % 2)
    return -1 if t else 1


def hilbert_symbol(a: Rat, b: Rat, E: LocalField) -> int:
    """+1 iff <1, -a, -b> is isotropic over E (iff the quaternion algebra
    (a, b) splits over E).

    For rational a, b and a completion E of degree n over Q_v, norm
    compatibility gives (a, b)_E = (a, N b)_{Q_v} = (a, b)_{Q_v}^n, so every
    even-degree completion gives +1.  Over Q_v: the sign rule at the real
    place, `_qp_symbol` at a prime.
    """
    if a == 0 or b == 0:
        raise DomainError("hilbert symbol of 0")
    if E.degree % 2 == 0:
        return 1
    if E.is_real:
        return -1 if a < 0 and b < 0 else 1
    return _qp_symbol(a, b, E.base.p)


def _symbol_split_at(a: Rat, b: Rat, primes) -> bool:
    """Whether (a, b)_p = +1 at every prime p of `primes`."""
    return all(_qp_symbol(a, b, p) == 1 for p in primes)


# ----------------------------------------------------------------------
# Class histograms: forms over Q_p as elements of Z[Q_p*/Q_p*^2].
#
# A class is numbered so that multiplying classes is XOR of their numbers:
# 2 v + chi for p odd (the pair (v, chi)), and 4 v + (u mod 8) // 2 for
# p = 2 (u mod 8 = 1, 3, 5, 7 gives 0, 1, 2, 3, and the units mod 8 form
# (Z/2)^2 under that numbering).  -1 is number eps = (p - 1)/2 mod 2 for
# p odd and 3 for p = 2.  The tables hold the exponent t of
# (i, j)_p = (-1)^t for every pair of class numbers, from the tame formula
# (one table per eps) and Serre's formula.

_TAME_TABLES = tuple(
    tuple(tuple(_tame_exponent(i >> 1, i & 1, j >> 1, j & 1, eps) for j in range(4))
          for i in range(4))
    for eps in (0, 1))
_SERRE_TABLE = tuple(
    tuple(_serre_exponent(i >> 2, 2 * (i & 3) + 1, j >> 2, 2 * (j & 3) + 1) for j in range(8))
    for i in range(8))


def _class_index(a: int, p: int) -> int:
    """The number of the class of the nonzero integer a in Q_p*/Q_p*^2.  An
    integer prime to p is a unit: one Euler criterion for p odd, a residue
    mod 8 for p = 2.  Any other integer goes through the valuation."""
    if p == 2:
        if a & 1:
            return a % 8 >> 1
        v, u = _valuation_unit(2, a)
        return (v & 1) << 2 | u % 8 >> 1
    if a % p:
        return 0 if pow(a, (p - 1) >> 1, p) == 1 else 1
    v, u = _valuation_unit(p, a)
    return (v & 1) << 1 | (0 if pow(u, (p - 1) >> 1, p) == 1 else 1)


def _class_histogram(entries, p: int) -> list[int]:
    """How many of the entries lie in each class of Q_p*/Q_p*^2, indexed by
    class number.  Each distinct entry is mapped once to its class; a
    repeated entry only adds to its count."""
    hist = [0] * (8 if p == 2 else 4)
    seen: dict[int, int] = {}
    for a in entries:
        i = seen.get(a)
        if i is None:
            i = seen[a] = _class_index(a, p)
        hist[i] += 1
    return hist


def _translate(hist: list[int], i: int) -> list[int]:
    """The histogram of c * phi from that of phi, c of class number i: the
    group-ring product with the class of c."""
    return [hist[j ^ i] for j in range(len(hist))]


def _histogram_class(hist: list[int], E: LocalField) -> LocalFormClass:
    """Local invariants over E (a finite completion) of a form whose entries
    have the class histogram `hist` in the base field Q_p.

    The Hasse invariant prod_{i<j} (a_i, a_j) is accumulated class by class:
    m entries of class a, appended to a prefix of product P, contribute
    (P, a)^m (a, -1)^(m(m-1)/2), since (a, a) = (a, -1).  Each factor is one
    table lookup.  Over an even-degree completion every symbol is +1, so
    only the prefix is kept.  The final prefix, times (-1)^(n(n-1)/2) and
    reduced modulo the adjoined square roots, is the discriminant."""
    p = E.base.p
    if p == 2:
        table, minus_one = _SERRE_TABLE, 3
    else:
        minus_one = (p - 1) >> 1 & 1
        table = _TAME_TABLES[minus_one]
    symbols = E.degree & 1
    n = t = prefix = 0
    for i, m in enumerate(hist):
        if m:
            n += m
            if symbols:
                t ^= (m & table[prefix][i]) ^ (m * (m - 1) >> 1 & table[i][minus_one])
            if m & 1:
                prefix ^= i
    if n * (n - 1) >> 1 & 1:
        prefix ^= minus_one
    pair = (prefix >> 2, 2 * (prefix & 3) + 1) if p == 2 else (prefix >> 1, prefix & 1)
    return LocalFormClass(n, _class_rep(pair, E), -1 if t else 1, None)


# ----------------------------------------------------------------------
# Local form classes and anisotropic dimension.


def form_class_at(entries: tuple[int, ...], E: LocalField) -> LocalFormClass:
    """Local invariants of the diagonal form with the given nonzero integer
    entries over E.

    Over R and C they are read off the signs.  At a finite place they come
    from the entries' class histogram in Q_p*/Q_p*^2 (`_histogram_class`):
    one class per distinct entry, then at most 8 class counts, with no
    Hilbert-symbol call, no per-entry prefix and no factoring."""
    n = len(entries)
    if E.is_real:
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        negs = sum(1 for a in entries if a < 0)
        sig = n - 2 * negs
        h = -1 if (negs * (negs - 1) // 2) % 2 else 1
        return LocalFormClass(n, -sign if negs % 2 else sign, h, sig)
    if E.is_complex:
        return LocalFormClass(n, 1, 1, None)
    return _histogram_class(_class_histogram(entries, E.base.p), E)


def _plane_factors(d: Rat, E: LocalField) -> tuple[int, int]:
    """The factor the Hasse invariant of a form with discriminant d picks up
    when a hyperbolic plane is split off, leaving m dimensions: (P, -1)_E for
    the entry product P = (-1)^(m(m-1)/2) d of the remainder.  It takes two
    values, ((d, -1)_E, (-d, -1)_E), indexed by m(m-1)/2 mod 2; both are
    evaluated once."""
    return hilbert_symbol(d, -1, E), hilbert_symbol(-d, -1, E)


def local_aniso_dim(c: LocalFormClass, E: LocalField) -> int:
    """Dimension of the anisotropic kernel of any form with these invariants
    over E, by the standard p-adic classification: descent on the invariant
    tuple two dimensions at a time; dim >= 5 is always isotropic, dim 4 is
    anisotropic iff the discriminant is trivial and the Hasse invariant is
    -(-1, -1)_E, dim 3 iff the Hasse invariant is -(d, -1)_E.  Over a finite
    place it evaluates at most the two symbols of `_plane_factors`."""
    if c.dim < 0 or c.hasse not in (1, -1):
        raise DomainError(f"invalid local form class {c}")
    if E.is_complex:
        return c.dim % 2
    if E.is_real:
        if c.signature is None or abs(c.signature) > c.dim or (c.signature - c.dim) % 2:
            raise DomainError(f"invalid signature data {c}")
        return abs(c.signature)
    n, d, s = c.dim, c.disc, c.hasse
    trivial = d == 1
    if n > 2:
        # With d = 1 the second factor is (-1, -1)_E.
        factors = _plane_factors(d, E)
    while n > 2:
        if n == 3 and s == -factors[0]:
            return 3
        if n == 4 and trivial and s == -factors[1]:
            return 4
        n -= 2
        s *= factors[n * (n - 1) // 2 % 2]
    if n == 2:
        return 0 if trivial else 2
    return n
