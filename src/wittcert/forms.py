"""Quadratic forms over Q: invariants, isotropy, Witt decomposition,
isometry, hyperbolicity, Pfister constructors, representation and
similarity-factor tests.

Forms are identified with diagonal representatives over square classes;
isometry is decided by the complete invariant set (dimension, discriminant,
signature, Hasse invariants at all places), which classifies forms over Q.
Every verdict is a fold over the (completion, class) pairs of the walk
`localfields.completions` over the real place, 2 and the primes of the
form, one `form_class_at` per completion, whose place is its `base`; the
real place is one more completion, and the local laws
(`local_aniso_dim`, `_split_planes`) hold there as at every prime, so no
decision treats it apart.  Isotropy stops at the first obstructing place.
How a local class is encoded is known only to `localfields`.
Membership in I^n is decided by one exact criterion for the rational Witt
ring, shared by `in_In` and the Arason-Pfister guard of `witt_decompose`:
even dimension, trivial discriminant, split Hasse data at every completion
and signature divisible by 8 resp. 16.  (High powers of the fundamental
ideal are torsion-free over Q; this classical fact is trusted here,
everything else is recomputed.)

The zero-dimensional form is admitted internally as the empty orthogonal sum
(hyperbolic by convention) so that Witt arithmetic is total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import DomainError, Rat, _class_product, _squarefree_part
from .localfields import (
    LocalField,
    Place,
    _split_planes,
    _symbol_split_at,
    completions,
    form_class_at,
    local_aniso_dim,
)

class InvariantViolation(RuntimeError):
    """An internal consistency invariant failed; indicates an engine bug."""


@dataclass(frozen=True, slots=True)
class QForm:
    """A diagonal quadratic form over Q: an ordered tuple of square classes.

    `support` is the prime support of the entries, always including 2: the
    finite places where a local invariant can be nontrivial.  The constructor
    learns it while validating, with one factorization per entry; `qform`,
    `orth_sum`, `tensor`, `scale` and `pfister` derive it from what they
    already know, without factoring the results.  Equality, hashing and repr
    use the entries alone."""

    entries: tuple[int, ...]
    support: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        reps, support = [], {2}
        for a in self.entries:
            s, primes = _squarefree_part(a) if a != 0 else (None, ())
            if s != a:
                raise DomainError(f"form entry {a} is not a square-free nonzero integer")
            reps.append(s)
            support.update(primes)
        object.__setattr__(self, "entries", tuple(reps))
        object.__setattr__(self, "support", frozenset(support))

    @classmethod
    def _derived(cls, entries: tuple[int, ...], support) -> QForm:
        """A form from entries already known to be square-free integers, with
        their prime support (including 2): no validation, no factoring."""
        phi = object.__new__(cls)
        object.__setattr__(phi, "entries", entries)
        object.__setattr__(phi, "support", frozenset(support))
        return phi

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "<" + ",".join(str(a) for a in self.entries) + ">"


def qform(values) -> QForm:
    """Build a form, reducing every value to its square class (one
    factorization per value)."""
    entries, support = [], {2}
    for v in values:
        s, primes = _squarefree_part(v)
        entries.append(s)
        support.update(primes)
    return QForm._derived(tuple(entries), support)


def _support_among(entries, primes) -> set[int]:
    """2 and the primes among `primes` that divide an entry: the support of
    a form whose entries are square classes of products of numbers
    supported on `primes`."""
    return {2} | {p for p in primes if any(a % p == 0 for a in entries)}


HYPERBOLIC_PLANE = QForm((1, -1))


@dataclass(frozen=True, slots=True)
class WittClassQ:
    """Complete invariant of a Witt class over Q, carried by the anisotropic
    representative: parity, signed discriminant, places with Hasse invariant
    -1, and the real signature."""

    dim_parity: int
    disc: int
    hasse_minus_places: tuple[Place, ...]  # walk order: real, then primes increasing
    signature: int


# ----------------------------------------------------------------------
# Invariants.


def disc(phi: QForm) -> int:
    """Signed discriminant (-1)^(n(n-1)/2) * a_1...a_n as a square class."""
    n = phi.dim
    d = -1 if (n * (n - 1) // 2) % 2 else 1
    for a in phi.entries:
        d = _class_product(d, a)
    return d


def signature(phi: QForm) -> int:
    return sum(1 if a > 0 else -1 for a in phi.entries)


def hasse_invariant(phi: QForm, v: Place) -> int:
    """Product of Hilbert symbols (a_i, a_j) over i < j at the completion at
    v, evaluated by `form_class_at` from the entries' class histogram."""
    return form_class_at(phi.entries, LocalField(v)).hasse


# ----------------------------------------------------------------------
# Isotropy and Witt decomposition.


def isotropy_obstruction(phi: QForm) -> Place | None:
    """The first place of the walk where the form is locally anisotropic,
    if any.  Forms of dimension 0 and 1 are anisotropic at the real place."""
    for E in completions(phi.support):
        if local_aniso_dim(form_class_at(phi.entries, E), E) == phi.dim:
            return E.base
    return None


def is_isotropic(phi: QForm) -> bool:
    """Hasse-Minkowski: isotropic over Q iff isotropic at every completion."""
    return isotropy_obstruction(phi) is None


def witt_decompose(phi: QForm, local=None) -> tuple[int, int, WittClassQ]:
    """(witt_index, aniso_dim, aniso_class): phi = (anisotropic kernel) + witt_index x H.

    The anisotropic dimension is the largest local anisotropic dimension
    (iterated Hasse-Minkowski), read off the one local class computed at
    each completion of the walk, the real place included (where it is
    |signature|).  The kernel's Hasse invariant at each place is that
    class's with the witt_index hyperbolic planes split off, in closed form
    (`localfields._split_planes`).  The Arason-Pfister guard reads the same
    classes and raises `InvariantViolation` if a form in I^4 has anisotropic
    dimension strictly between 0 and 16.  A caller that already holds the
    classes passes them as `local`: (completion, form_class_at) at each
    completion of `completions(phi.support)`.
    """
    n = phi.dim
    d = disc(phi)
    sig = signature(phi)
    if local is None:
        local = [(E, form_class_at(phi.entries, E)) for E in completions(phi.support)]
    aniso = max(local_aniso_dim(cls, E) for E, cls in local)
    witt_index = (n - aniso) // 2
    # A list: tuple() of a generator shrinks an oversized tuple and grows CPython's free lists.
    minus = tuple([E.base for E, cls in local if _split_planes(cls.hasse, d, n, aniso, E) == -1])
    cls = WittClassQ(aniso % 2, d if aniso else 1, minus, sig)
    if _in_I(4, n, d, sig, local) and 0 < aniso < 16:
        raise InvariantViolation(
            f"Arason-Pfister violation: {phi} lies in I^4 with anisotropic dimension {aniso}"
        )
    return witt_index, aniso, cls


def witt_index(phi: QForm) -> int:
    return witt_decompose(phi)[0]


def is_hyperbolic(phi: QForm) -> bool:
    """True iff the dimension is even and the anisotropic kernel is trivial."""
    return phi.dim % 2 == 0 and witt_decompose(phi)[1] == 0


# ----------------------------------------------------------------------
# Isometry and Witt equivalence.


def is_isometric(phi: QForm, psi: QForm) -> bool:
    """Complete invariant test: dimension, discriminant, signature, and Hasse
    invariants at every completion of the walk over the joint prime
    support (at the real place the signature already fixes it)."""
    if phi.dim != psi.dim:
        return False
    if disc(phi) != disc(psi) or signature(phi) != signature(psi):
        return False
    return all(form_class_at(phi.entries, E).hasse == form_class_at(psi.entries, E).hasse
               for E in completions(phi.support | psi.support))


def witt_equivalent(phi: QForm, psi: QForm) -> bool:
    """Same Witt class: phi - psi, the orthogonal sum of phi and -psi, is
    hyperbolic."""
    return is_hyperbolic(orth_sum(phi, _scaled(-1, (), psi)))


# ----------------------------------------------------------------------
# Constructors.


def orth_sum(phi: QForm, psi: QForm) -> QForm:
    return QForm._derived(phi.entries + psi.entries, phi.support | psi.support)


def tensor(phi: QForm, psi: QForm) -> QForm:
    entries = tuple(_class_product(a, b) for a in phi.entries for b in psi.entries)
    return QForm._derived(entries, _support_among(entries, phi.support | psi.support))


def scale(c: Rat, phi: QForm) -> QForm:
    return _scaled(*_squarefree_part(c), phi)


def _scaled(c: int, primes, phi: QForm) -> QForm:
    """c*phi for a square-free integer c whose primes are given: entries by
    gcd products, support among the known primes, nothing factored."""
    entries = tuple(_class_product(c, a) for a in phi.entries)
    return QForm._derived(entries, _support_among(entries, phi.support.union(primes)))


def _pfister_entries(slots) -> tuple[int, ...]:
    """Subset-order expansion of square-free slots: the entry at index S (as
    a bit set) is the class of prod_{i in S} (-a_i)."""
    if len(slots) > 4:
        raise DomainError("Pfister forms of more than 4 slots are out of scope")
    entries = [1]
    for a in slots:
        entries += [_class_product(e, -a) for e in entries]
    return tuple(entries)


def pfister(slots) -> QForm:
    """The n-fold Pfister form <1,-a_1> x ... x <1,-a_n>, n <= 4, expanded in
    subset order: the entry at index S (as a bit set) is prod_{i in S} (-a_i)."""
    parts = [_squarefree_part(s) for s in slots]
    support = {2}.union(*(primes for _, primes in parts))
    return QForm._derived(_pfister_entries([s for s, _ in parts]), support)


def pfister_slots(phi: QForm) -> tuple[int, ...] | None:
    """Recover slots if phi is a canonical Pfister expansion, else None."""
    n = phi.dim.bit_length() - 1
    if phi.dim != 1 << n or phi.entries[0] != 1:
        return None
    slots = tuple(-phi.entries[1 << i] for i in range(n))
    return slots if _pfister_entries(slots) == phi.entries else None


# ----------------------------------------------------------------------
# Representation, similarity factors, powers of the fundamental ideal.


def represents(phi: QForm, c: Rat) -> bool:
    """True iff phi represents c over Q (c nonzero)."""
    if Fraction(c) == 0:
        raise DomainError("represented value must be nonzero")
    if phi.dim == 0:
        return False
    return is_isotropic(orth_sum(phi, qform([-Fraction(c)])))


def in_G(phi: QForm, c: Rat) -> bool:
    """Similarity-factor test, c*phi isometric to phi, in closed form over Q.

    An odd-dimensional phi has G(phi) = Q*^2, its discriminant changing by c.
    For even dimension the scaling law s_p(c phi) = s_p(phi) (c, disc phi)_p
    of the Hasse invariant (Lam, Ch. V) gives: c is a similarity factor iff
    c > 0 or sig phi = 0, and (c, disc phi)_p = +1 at every prime p of the
    support of phi and of c (elsewhere both are units at an odd p).  The
    verdict is checked against the complete invariant test `is_isometric`
    of c*phi = phi; disagreement means an engine bug."""
    if Fraction(c) == 0:
        raise DomainError("similarity factor must be nonzero")
    return _in_G(phi, *_squarefree_part(c))


def _in_G(phi: QForm, c: int, primes) -> bool:
    """`in_G` for a square-free c given with its primes, so c is not
    factored again."""
    if phi.dim % 2:
        closed = c == 1
    else:
        closed = (c > 0 or signature(phi) == 0) and _symbol_split_at(
            c, disc(phi), phi.support.union(primes))
    if closed != is_isometric(phi, _scaled(c, primes, phi)):
        raise InvariantViolation(
            f"in_G closed form disagrees with the isometry test for {phi}, c={c}: "
            f"closed form {closed}"
        )
    return closed


def in_In(phi: QForm, n: int) -> bool:
    """Membership of the Witt class in the n-th power of the fundamental
    ideal, 1 <= n <= 4."""
    if n not in (1, 2, 3, 4):
        raise DomainError("only I^1..I^4 are supported")
    local = ((E, form_class_at(phi.entries, E)) for E in completions(phi.support))
    return _in_I(n, phi.dim, disc(phi), signature(phi), local)


def _in_I(n: int, dim: int, d: int, sig: int, local) -> bool:
    """The exact criterion for I^n over Q, 1 <= n <= 4, from the dimension,
    discriminant and signature of a form and its (completion, class) pairs
    along the walk, which are read only when every global condition holds:
    even dimension; for n >= 2 trivial discriminant; for n >= 3 signature
    divisible by 8 resp. 16 and, at every completion, the Hasse invariant
    of dim/2 hyperbolic planes (the class splits into planes with nothing
    left, `_split_planes`; at the real place the signature implies it)."""
    if dim % 2 or (n >= 2 and d != 1):
        return False
    if n <= 2:
        return True
    return sig % (8 if n == 3 else 16) == 0 and all(
        _split_planes(cls.hasse, 1, dim, 0, E) == 1 for E, cls in local)
