"""Quadratic forms over Q: invariants, isotropy, Witt decomposition,
isometry, hyperbolicity, Pfister constructors, representation and
similarity-factor tests.

Forms are identified with diagonal representatives over square classes;
isometry is decided by the complete invariant set (dimension, discriminant,
signature, Hasse invariants at all places), which classifies forms over Q.
Membership in I^3 and I^4 is decided by the standard exact criterion for the
rational Witt ring: even dimension, trivial discriminant, split Hasse data at
the finite places and signature divisible by 8 resp. 16.  (High powers of the
fundamental ideal are torsion-free over Q; this classical fact is trusted
here, everything else is recomputed.)

The zero-dimensional form is admitted internally as the empty orthogonal sum
(hyperbolic by convention) so that Witt arithmetic is total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import DomainError, Rat, prime_support, squarefree_rep
from .localfields import (
    REAL,
    Place,
    form_class_at,
    hilbert_symbol,
    local_aniso_dim,
    rationals_at,
)

# Arason-Pfister runtime check: a form in I^4 may never have anisotropic
# dimension strictly between 0 and 16.  Toggled off only for experiments.
ARASON_PFISTER_CHECK = True
_ap_violations = 0


class InvariantViolation(RuntimeError):
    """An internal consistency invariant failed; indicates an engine bug."""


@dataclass(frozen=True, slots=True)
class QForm:
    """A diagonal quadratic form over Q: an ordered tuple of square classes."""

    entries: tuple[int, ...]

    def __post_init__(self):
        for a in self.entries:
            if a == 0 or squarefree_rep(a) != a:
                raise DomainError(f"form entry {a} is not a square-free nonzero integer")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "<" + ",".join(str(a) for a in self.entries) + ">"


def qform(values) -> QForm:
    """Build a form, reducing every entry to its square class."""
    return QForm(tuple(squarefree_rep(v) for v in values))


HYPERBOLIC_PLANE = QForm((1, -1))


@dataclass(frozen=True, slots=True)
class WittClassQ:
    """Complete invariant of a Witt class over Q, carried by the anisotropic
    representative: parity, signed discriminant, places with Hasse invariant
    -1, and the real signature."""

    dim_parity: int
    disc: int
    hasse_minus_places: frozenset[Place]
    signature: int


# ----------------------------------------------------------------------
# Invariants.


def disc(phi: QForm) -> int:
    """Signed discriminant (-1)^(n(n-1)/2) * a_1...a_n as a square class."""
    n = phi.dim
    if n == 0:
        return 1
    prod = 1
    for a in phi.entries:
        prod *= a
    return squarefree_rep(prod * (-1) ** (n * (n - 1) // 2))


def signature(phi: QForm) -> int:
    return sum(1 if a > 0 else -1 for a in phi.entries)


def hasse_invariant(phi: QForm, v: Place) -> int:
    """Product of Hilbert symbols (a_i, a_j) over i < j at the completion at v."""
    return form_class_at(phi.entries, rationals_at(v)).hasse


def relevant_places(phi: QForm, extra=()) -> list[Place]:
    """Real place, 2, and all primes dividing an entry (or an extra element);
    outside this set every local invariant is automatically split."""
    primes = prime_support(list(phi.entries) + [x for x in extra if x])
    return [REAL] + [Place(p) for p in sorted(primes)]


# ----------------------------------------------------------------------
# Isotropy and Witt decomposition.


def _local_aniso_dims(phi: QForm) -> dict[Place, int]:
    out = {}
    for v in relevant_places(phi):
        E = rationals_at(v)
        out[v] = local_aniso_dim(form_class_at(phi.entries, E), E)
    return out


def is_isotropic(phi: QForm) -> bool:
    """Hasse-Minkowski: isotropic over Q iff isotropic at every completion."""
    if phi.dim <= 1:
        return False
    return all(d < phi.dim for d in _local_aniso_dims(phi).values())


def isotropy_obstruction(phi: QForm) -> Place | None:
    """A place where the form is locally anisotropic, if any."""
    for v, d in _local_aniso_dims(phi).items():
        if d == phi.dim:
            return v
    return None


def witt_decompose(phi: QForm) -> tuple[int, int, WittClassQ]:
    """(witt_index, aniso_dim, aniso_class): phi = (anisotropic kernel) + witt_index x H.

    The anisotropic dimension is the largest local anisotropic dimension over
    all relevant places (iterated Hasse-Minkowski); the Hasse data of the
    kernel is obtained by descending the invariant tuple two dimensions at a
    time.
    """
    n = phi.dim
    d = disc(phi)
    sig = signature(phi)
    places = relevant_places(phi)
    local = {}
    for v in places:
        E = rationals_at(v)
        local[v] = (form_class_at(phi.entries, E), E)
    aniso = abs(sig)
    for v, (cls, E) in local.items():
        aniso = max(aniso, local_aniso_dim(cls, E))
    witt_index = (n - aniso) // 2
    # Hasse data of the anisotropic representative, by the descent law
    # s_small = s_big * ((-1)^(m(m-1)/2) d, -1) at each step down.
    minus = set()
    for v, (cls, E) in local.items():
        s = cls.hasse
        if v.is_real:
            continue
        m = n
        while m > aniso:
            m -= 2
            prod_rep = d if (m * (m - 1) // 2) % 2 == 0 else -d
            s *= hilbert_symbol(prod_rep, -1, E)
        if s == -1:
            minus.add(v)
    negs = (aniso - sig) // 2
    if (negs * (negs - 1) // 2) % 2:
        minus.add(REAL)
    cls = WittClassQ(aniso % 2, d if aniso else 1, frozenset(minus), sig)
    if ARASON_PFISTER_CHECK and in_In(phi, 4) and 0 < aniso < 16:
        global _ap_violations
        _ap_violations += 1
        raise InvariantViolation(
            f"Arason-Pfister violation: {phi} lies in I^4 with anisotropic dimension {aniso}"
        )
    return witt_index, aniso, cls


def witt_index(phi: QForm) -> int:
    return witt_decompose(phi)[0]


def is_hyperbolic(phi: QForm) -> bool:
    """True iff the dimension is even and the anisotropic kernel is trivial."""
    if phi.dim % 2:
        return False
    if phi.dim == 0:
        return True
    if disc(phi) != 1 or signature(phi) != 0:
        return False
    return witt_decompose(phi)[1] == 0


# ----------------------------------------------------------------------
# Isometry and Witt equivalence.


def is_isometric(phi: QForm, psi: QForm) -> bool:
    """Complete invariant test: dimension, discriminant, signature, and Hasse
    invariants at every place of the joint prime support (plus 2, real)."""
    if phi.dim != psi.dim:
        return False
    if disc(phi) != disc(psi) or signature(phi) != signature(psi):
        return False
    primes = prime_support(phi.entries) | prime_support(psi.entries)
    for p in sorted(primes):
        v = Place(p)
        if hasse_invariant(phi, v) != hasse_invariant(psi, v):
            return False
    return True


def witt_equivalent(phi: QForm, psi: QForm) -> bool:
    """Same Witt class: pad the smaller form with hyperbolic planes, then
    compare the complete invariants."""
    a, b = phi, psi
    if (a.dim - b.dim) % 2:
        return False
    while a.dim < b.dim:
        a = orth_sum(a, HYPERBOLIC_PLANE)
    while b.dim < a.dim:
        b = orth_sum(b, HYPERBOLIC_PLANE)
    return is_isometric(a, b)


# ----------------------------------------------------------------------
# Constructors.


def orth_sum(phi: QForm, psi: QForm) -> QForm:
    return QForm(phi.entries + psi.entries)


def tensor(phi: QForm, psi: QForm) -> QForm:
    return QForm(tuple(squarefree_rep(a * b) for a in phi.entries for b in psi.entries))


def scale(c: Rat, phi: QForm) -> QForm:
    c = squarefree_rep(c)
    return QForm(tuple(squarefree_rep(c * a) for a in phi.entries))


def pfister(slots) -> QForm:
    """The n-fold Pfister form <1,-a_1> x ... x <1,-a_n>, n <= 4, expanded in
    subset order: the entry at index S (as a bit set) is prod_{i in S} (-a_i)."""
    slots = [squarefree_rep(s) for s in slots]
    if len(slots) > 4:
        raise DomainError("Pfister forms of more than 4 slots are out of scope")
    entries = []
    for mask in range(1 << len(slots)):
        prod = 1
        for i, a in enumerate(slots):
            if mask >> i & 1:
                prod *= -a
        entries.append(squarefree_rep(prod))
    return QForm(tuple(entries))


def pfister_slots(phi: QForm) -> tuple[int, ...] | None:
    """Recover slots if phi is a canonical Pfister expansion, else None."""
    n = phi.dim.bit_length() - 1
    if phi.dim != 1 << n or phi.entries[0] != 1:
        return None
    slots = tuple(squarefree_rep(-phi.entries[1 << i]) for i in range(n))
    return slots if pfister(slots) == phi else None


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
    """Similarity-factor test: c in G(phi) iff <<c>> x phi is hyperbolic,
    equivalently c*phi is isometric to phi.  Both routes are computed and must
    agree; disagreement means an engine bug."""
    if Fraction(c) == 0:
        raise DomainError("similarity factor must be nonzero")
    c = squarefree_rep(c)
    if phi.dim == 0:
        return True
    via_pfister = is_hyperbolic(tensor(pfister([c]), phi))
    via_isometry = is_isometric(scale(c, phi), phi)
    if via_pfister != via_isometry:
        raise InvariantViolation(
            f"in_G decision paths disagree for {phi}, c={c}: "
            f"pfister={via_pfister} isometry={via_isometry}"
        )
    return via_pfister


def in_In(phi: QForm, n: int) -> bool:
    """Membership of the Witt class in the n-th power of the fundamental
    ideal, 1 <= n <= 4."""
    if n not in (1, 2, 3, 4):
        raise DomainError("only I^1..I^4 are supported")
    if phi.dim % 2:
        return False
    if n == 1:
        return True
    if disc(phi) != 1:
        return False
    if n == 2:
        return True
    sig = signature(phi)
    if sig % (8 if n == 3 else 16):
        return False
    k = phi.dim // 2
    for p in sorted(prime_support(phi.entries)):
        v = Place(p)
        E = rationals_at(v)
        split_hasse = hilbert_symbol(-1, -1, E) ** (k * (k - 1) // 2)
        if hasse_invariant(phi, v) != split_hasse:
            return False
    return True


def ap_violation_count() -> int:
    """Number of Arason-Pfister runtime violations observed (should stay 0)."""
    return _ap_violations
