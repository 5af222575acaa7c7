"""Places of Q, local completions of multiquadratic towers, and local form data.

A completion is its base place and tower generators, from whose Kummer
group `LocalField` derives e, f, canonical generators and a table of class
representatives; there is no element-level p-adic arithmetic, and elements
are global rationals interpreted locally.

A class of Q_p*/Q_p*^2 is a number: 2 v + chi for p odd (chi = 1 iff the
unit part is a non-residue) and 4 v + (u mod 8) // 2 for p = 2, and a class
of R*/R*^2 (p is None) is 0 if positive and 1 if negative, so that the
product of two classes is the XOR of their numbers.  `_class_index` is the
one map to these numbers; a rational n/d has the class of the integer n d.
Every completion, R and C included, holds its Kummer group (the classes
that the adjoined square roots make squares) as a set of numbers, and a
table from each number to the canonical representative of its coset, both
built when the `LocalField` is constructed; the square class of a rational
in it is one lookup.  Hilbert symbols of rationals are closed forms: +1
over every even-degree completion (norm compatibility), and over Q_v one
lookup on the numbers of the two arguments in a table of the tame formula
(p odd), of Serre's formula (p = 2) or of the signs (R).

The local invariants of a diagonal form over a completion depend only on
how many of its entries lie in each class of Q_v*/Q_v*^2 (4 classes for p
odd, 8 for p = 2, 2 over R): its histogram, an element of the group ring
Z[Q_v*/Q_v*^2].  Each distinct entry is mapped once to its class (over R
the signs are counted), and equal entries only add to its count; the
discriminant and the Hasse invariant then come from the at most 8 class
counts by the multiplicity law and a table of the closed-form symbols,
without calling `hilbert_symbol`.  These numbers, histograms and symbol
tables are private to this module: other modules read local data only
through `form_class_at`, `local_aniso_dim`, `_split_planes` and the
symbols.  No local answer is memoised.

`completions` walks the completions of a tower above the real place, 2 and
the primes of a support in a fixed order, yielding each `LocalField` once;
its place is its `base`.  The caller supplies the whole support, the
tower's primes included: this module factors nothing.  Every local-global
decision in `forms`, `extensions` and the CLI reads its local classes from
that walk, one `form_class_at` per form and completion, the real place
included.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

from .arith import DomainError, Rat, _valuation_unit, is_prime


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

    def __str__(self) -> str:
        return "real" if self.p is None else str(self.p)


REAL = Place(None)


@dataclass(frozen=True, slots=True)
class LocalField:
    """The completion of Q(sqrt g : g in gens) at a place above `base`.

    The constructor takes only the base and nonzero rational generators, and
    derives the rest once, in the same way at every place: `kummer`, the
    class numbers of the generators' subgroup of Q_v*/Q_v*^2 (order at most
    4), whose order is the degree; `gens`, the least one or two nontrivial
    canonical representatives of `kummer`, in increasing order; `reps[i]`,
    the canonical representative in the field of base class i, the
    least-numbered member of its coset.  At a prime, f = 2 iff `kummer`
    holds the unramified non-square class, and e = |kummer| / f.  Over R a
    negative generator gives C: `kummer` is {0, 1}, gens (-1,) and `reps`
    (1, 1); otherwise R: `kummer` is {0}, gens () and `reps` (1, -1).  Both
    keep e = f = 1.
    """

    base: Place
    gens: tuple[int, ...] = ()
    e: int = field(init=False)
    f: int = field(init=False)
    kummer: frozenset[int] = field(init=False, repr=False, compare=False)
    reps: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(self.gens)
        if 0 in gens:
            raise DomainError(f"completion generators must be nonzero: {gens}")
        p = self.base.p
        group = _kummer_group(gens, p)
        reps = _base_reps(p)
        e = f = 1
        gens = ()
        if len(group) > 1:
            if len(group) > 4:
                raise DomainError(f"generators {self.gens} give a completion of "
                                  f"degree {len(group)} over Q{p}, above 4")
            if p:  # C keeps e = f = 1: the real place has no residue field
                f = 2 if (2 if p == 2 else 1) in group else 1  # the unramified non-square
                e = len(group) // f
            gens = tuple(sorted(reps[i] for i in group if i)[:len(group).bit_length() - 1])
            table = [0] * len(reps)
            # In ascending order, the first number met of a coset is its least.
            for i, rep in enumerate(reps):
                if not table[i]:
                    for h in group:
                        table[i ^ h] = rep
            reps = tuple(table)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "kummer", group)
        object.__setattr__(self, "reps", reps)

    @property
    def is_real(self) -> bool:
        return self.base.is_real and not self.gens

    @property
    def is_complex(self) -> bool:
        return self.base.is_real and bool(self.gens)

    @property
    def degree(self) -> int:
        return len(self.kummer)

    def __str__(self) -> str:
        if self.is_real:
            return "R"
        if self.is_complex:
            return "C"
        body = f"Q{self.base.p}"
        if self.gens:
            body += "(" + ", ".join(f"sqrt {g}" for g in self.gens) + ")"
        return body


@dataclass(frozen=True, slots=True)
class LocalFormClass:
    """Local invariants of a quadratic form class: the local shadow used by
    every isotropy and hyperbolicity decision."""

    dim: int
    disc: int  # canonical local square class, 1 = trivial
    hasse: int  # +1 or -1
    signature: int | None = None  # real completions only


# ----------------------------------------------------------------------
# Square classes, numbered.
#
# The class of a = p^v u (u a unit) in Q_p*/Q_p*^2 is numbered so that
# multiplying classes is XOR of their numbers: 2 (v mod 2) + chi for p odd,
# chi = 1 iff u is a non-residue, so the group is (Z/2)^2; and
# 4 (v mod 2) + (u mod 8) // 2 for p = 2, where u mod 8 = 1, 3, 5, 7 gives
# 0, 1, 2, 3 and the group is (Z/2)^3.  -1 is number eps = (p - 1)/2 mod 2
# for p odd and 3 for p = 2; the unramified non-square class is number 1 for
# p odd and 2 (the class of 5) for p = 2.  The canonical representative of a
# number is the least positive integer of its class.  R*/R*^2 = {+1, -1}
# (p is None) is numbered the same way: 0 positive, 1 negative, so -1 is
# number 1, with representatives 1 and -1.  Rationals become integers (n/d
# has the class of n d) only at the public entry points.

# Canonical representatives of Q_2*/Q_2*^2, indexed by class number.
DYADIC_CLASSES = (1, 3, 5, 7, 2, 6, 10, 14)


def _integral(a: Rat) -> int:
    """An integer in the square class of the nonzero rational a = n/d: n d."""
    return a if isinstance(a, int) else a.numerator * a.denominator


def _class_index(a: int, p: int) -> int:
    """The number of the class of the nonzero integer a in Q_p*/Q_p*^2, or
    of its sign in R*/R*^2 when p is None.  An integer prime to p is a unit:
    one Euler criterion for p odd, a residue mod 8 for p = 2.  Any other
    integer goes through the valuation."""
    if p == 2:
        if a & 1:
            return a % 8 >> 1
        v, u = _valuation_unit(2, a)
        return (v & 1) << 2 | u % 8 >> 1
    if p is None:
        return 0 if a > 0 else 1
    if a % p:
        return 0 if pow(a, (p - 1) >> 1, p) == 1 else 1
    v, u = _valuation_unit(p, a)
    return (v & 1) << 1 | (0 if pow(u, (p - 1) >> 1, p) == 1 else 1)


def _kummer_group(gens, p: int) -> frozenset[int]:
    """The numbers of the subgroup of Q_p*/Q_p*^2 (R*/R*^2 when p is None)
    generated by the classes of the nonzero rationals `gens`."""
    group = {0}
    for g in gens:
        i = _class_index(_integral(g), p)
        group |= {i ^ h for h in group}
    return frozenset(group)


def _base_reps(p: int) -> tuple[int, ...]:
    """The canonical representative of each class number of Q_p*/Q_p*^2:
    `DYADIC_CLASSES` for p = 2, 1, n, p, p n for p odd, with n the least
    quadratic non-residue mod p, and 1, -1 over R (p is None)."""
    if p == 2:
        return DYADIC_CLASSES
    if p is None:
        return 1, -1
    n = 2
    while pow(n, (p - 1) >> 1, p) == 1:
        n += 1
    return 1, n, p, p * n


def local_square_class(a: Rat, E: LocalField) -> int:
    """Canonical representative of the square class of a in E (1 = trivial).

    Inputs are global rationals.  The class is the base class reduced
    modulo the subgroup generated by the adjoined square roots (Kummer: an
    element of Q_v is a square in a multiquadratic extension iff its class
    lies in that subgroup), one lookup in `E.reps`: the sign over R, 1 over C.
    """
    if a == 0:
        raise DomainError("square class of 0")
    return E.reps[_class_index(_integral(a), E.base.p)]


# ----------------------------------------------------------------------
# Completions of a tower, and the walk over the ones a decision reads.


def completions(support, gens=()) -> Iterator[LocalField]:
    """The completions of the tower Q(sqrt g : g in gens) (independent
    square-free generators) above the real place, 2 and the primes of
    `support`, in that order (primes increasing), each once: the only
    completions where a form whose entries are supported on `support` can
    have a nontrivial local invariant.  The caller passes the full support,
    the generators' primes included; nothing is factored here, and each
    completion's place is its `base`.  Every local-global decision reads its
    local classes from this walk."""
    for v in chain((REAL,), map(Place, sorted({2}.union(support)))):
        yield LocalField(v, gens)


# ----------------------------------------------------------------------
# Hilbert symbols.
#
# Over Q_v a symbol is (-1)^t, with t read from a table indexed by the
# class numbers of its arguments: the tame formula for p odd (one table per
# eps), Serre's formula for p = 2 (Serre, A Course in Arithmetic, III.1.2),
# and over R the 2 x 2 table on the signs, -1 only for two negative
# arguments (Serre, III.1.1).
# `hilbert_symbol` and `form_class_at` both read these tables.


def _tame_exponent(alpha: int, chi_u: int, beta: int, chi_w: int, eps: int) -> int:
    """t with (a, b)_p = (-1)^t, p odd, for a = p^alpha u and b = p^beta w
    with (u|p) = (-1)^chi_u and (w|p) = (-1)^chi_w: the tame formula
    (-1)^(alpha beta eps) (u|p)^beta (w|p)^alpha with eps = (p - 1)/2 mod 2."""
    return (alpha & beta & eps) ^ (chi_u & beta) ^ (chi_w & alpha)


def _serre_exponent(alpha: int, u: int, beta: int, w: int) -> int:
    """t with (a, b)_2 = (-1)^t for a = 2^alpha u and b = 2^beta w, u and w
    odd: Serre's formula t = eps(u) eps(w) + alpha omega(w) + beta omega(u)
    mod 2, with eps(x) = (x - 1)/2 and omega(x) = (x^2 - 1)/8."""
    t = (u - 1) // 2 * ((w - 1) // 2) + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
    return t % 2


_TAME_TABLES = tuple(
    tuple(tuple(_tame_exponent(i >> 1, i & 1, j >> 1, j & 1, eps) for j in range(4))
          for i in range(4))
    for eps in (0, 1))
_SERRE_TABLE = tuple(
    tuple(_serre_exponent(i >> 2, 2 * (i & 3) + 1, j >> 2, 2 * (j & 3) + 1) for j in range(8))
    for i in range(8))


def _symbol_table(p: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The exponent table of (i, j)_p on class numbers, and the number of
    -1; p is None for R."""
    if p == 2:
        return _SERRE_TABLE, 3
    if p is None:
        return ((0, 0), (0, 1)), 1
    eps = (p - 1) >> 1 & 1
    return _TAME_TABLES[eps], eps


def _qp_symbol(a: int, b: int, p: int) -> int:
    """(a, b)_p over Q_p for nonzero integers a, b and a prime p, or over R
    when p is None: one table lookup on their class numbers.  p is taken as
    prime (it comes from a factorization or a `Place`) and is not re-tested."""
    return -1 if _symbol_table(p)[0][_class_index(a, p)][_class_index(b, p)] else 1


def hilbert_symbol(a: Rat, b: Rat, E: LocalField) -> int:
    """+1 iff <1, -a, -b> is isotropic over E (iff the quaternion algebra
    (a, b) splits over E).

    For rational a, b and a completion E of degree n over Q_v, norm
    compatibility gives (a, b)_E = (a, N b)_{Q_v} = (a, b)_{Q_v}^n, so every
    even-degree completion, C included, gives +1.  Over Q_v, R included:
    `_qp_symbol` of the base place.
    """
    if a == 0 or b == 0:
        raise DomainError("hilbert symbol of 0")
    if E.degree % 2 == 0:
        return 1
    return _qp_symbol(_integral(a), _integral(b), E.base.p)


def _symbol_split_at(a: int, b: int, primes) -> bool:
    """Whether (a, b)_p = +1 at every prime p of `primes`, a and b nonzero
    integers."""
    return all(_qp_symbol(a, b, p) == 1 for p in primes)


# ----------------------------------------------------------------------
# Class histograms: forms over Q_v as elements of Z[Q_v*/Q_v*^2].


def _class_histogram(entries, p: int) -> list[int]:
    """How many of the entries lie in each class of Q_p*/Q_p*^2, indexed by
    class number.  Each distinct entry is mapped once to its class; a
    repeated entry only adds to its count.  Over R (p is None) the two
    signs are counted."""
    if p is None:
        negs = sum(1 for a in entries if a < 0)
        return [len(entries) - negs, negs]
    hist = [0] * (8 if p == 2 else 4)
    seen: dict[int, int] = {}
    for a in entries:
        i = seen.get(a)
        if i is None:
            i = seen[a] = _class_index(a, p)
        hist[i] += 1
    return hist


def _histogram_class(hist: list[int], E: LocalField) -> LocalFormClass:
    """Local invariants over E of a form whose entries have the class
    histogram `hist` in the base field Q_v, with the signature over R.

    The Hasse invariant prod_{i<j} (a_i, a_j) is accumulated class by class:
    m entries of class a, appended to a prefix of product P, contribute
    (P, a)^m (a, -1)^(m(m-1)/2), since (a, a) = (a, -1).  Each factor is one
    table lookup.  Over an even-degree completion every symbol is +1, so
    only the prefix is kept.  The final prefix, times (-1)^(n(n-1)/2), is
    the discriminant's class number, and `E.reps` gives its representative."""
    table, minus_one = _symbol_table(E.base.p)
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
    return LocalFormClass(n, E.reps[prefix], -1 if t else 1, hist[0] - hist[1] if E.is_real else None)


# ----------------------------------------------------------------------
# Local form classes and anisotropic dimension.


def form_class_at(entries: tuple[int, ...], E: LocalField) -> LocalFormClass:
    """Local invariants of the diagonal form with the given nonzero integer
    entries over E.

    At every place, R and C included, they come from the entries' class
    histogram in Q_v*/Q_v*^2 (`_histogram_class`): one class per distinct
    entry (over R the signs), then at most 8 class counts, with no
    Hilbert-symbol call, no per-entry prefix and no factoring."""
    return _histogram_class(_class_histogram(entries, E.base.p), E)


def _split_planes(s: int, d: Rat, n: int, m: int, E: LocalField) -> int:
    """The Hasse invariant over any completion E (R and C included) of the
    m-dimensional remainder of a form of dimension n, signed discriminant d
    and Hasse invariant s, once its k = (n - m)/2 hyperbolic planes are
    split off.

    Each plane split off, leaving j dimensions, multiplies s by (P_j, -1)_E
    with P_j = (-1)^(j(j-1)/2) d, and P_{j+2} = -P_j, so the k factors
    multiply to (P_m, -1)^(k mod 2) (-1, -1)^(floor(k/2) mod 2) (Lam, V.3
    and VI.2).  When both exponents are odd the two symbols are the one
    symbol (-P_m, -1), so at most one is evaluated."""
    k = (n - m) // 2
    if k % 2 == 0:
        return s * hilbert_symbol(-1, -1, E) if k % 4 else s
    negate = (m * (m - 1) // 2 + k // 2) % 2
    return s * hilbert_symbol(-d if negate else d, -1, E)


def local_aniso_dim(c: LocalFormClass, E: LocalField) -> int:
    """Dimension of the anisotropic kernel of any form with these invariants
    over E: |signature| over R, and otherwise the standard p-adic
    classification, which gives n mod 2 over C, where every square class and
    every symbol is trivial.
    A form of dimension n >= 3 is read through its remainder of dimension 3
    (n odd) or 4 (n even) after hyperbolic planes are split off, with Hasse
    invariant s' from `_split_planes`: the remainder of dimension 3 is
    anisotropic iff s' = -(d, -1)_E, that of dimension 4 iff d is trivial
    and s' = -(-1, -1)_E.  Otherwise the kernel has dimension 1 (n odd), or
    0 or 2 as d is trivial or not (n even).  At most two symbols are
    evaluated."""
    if c.dim < 0 or c.hasse not in (1, -1):
        raise DomainError(f"invalid local form class {c}")
    if E.is_real:
        if c.signature is None or abs(c.signature) > c.dim or (c.signature - c.dim) % 2:
            raise DomainError(f"invalid signature data {c}")
        return abs(c.signature)
    n, d = c.dim, c.disc
    if n % 2:
        if n > 1 and _split_planes(c.hasse, d, n, 3, E) == -hilbert_symbol(d, -1, E):
            return 3
        return 1
    if d != 1:
        return 2 if n else 0
    if n > 2 and _split_planes(c.hasse, d, n, 4, E) == -hilbert_symbol(-1, -1, E):
        return 4
    return 0
