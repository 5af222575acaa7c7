"""Places of Q, local completions of multiquadratic towers, and local form data.

Completions are represented by invariants (base place, adjoined square
classes, ramification index e, residue degree f), never by element-level
p-adic arithmetic; elements are global rationals interpreted locally.

Square classes of rationals in a completion are base classes reduced modulo
the Kummer subgroup of the adjoined square roots.  Hilbert symbols of
rationals are closed forms: +1 over every even-degree completion (norm
compatibility), the sign rule over R, the tame formula over Q_p for p odd
and Serre's formula over Q_2.  No local answer is memoised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import DomainError, Rat, _class_product, _valuation_unit, is_prime, legendre


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

# Canonical representatives of Q_2* / Q_2*^2, ordered.  The unit part of a
# class is determined mod 8, the valuation mod 2.
DYADIC_CLASSES = (1, 3, 5, 7, 2, 6, 10, 14)
_DYADIC_ORDER = {c: i for i, c in enumerate(DYADIC_CLASSES)}


def dyadic_class(r: Rat) -> int:
    """Canonical representative of the square class of r in Q_2."""
    v, u = _valuation_unit(2, r)
    return u % 8 * 2 if v % 2 else u % 8


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
    """(valuation parity, nonresidue bit) of a in Q_p*, p odd."""
    v, u = _valuation_unit(p, a)
    return (v % 2, 0 if legendre(u, p) == 1 else 1)


def _odd_subgroup(gens, p: int) -> set[tuple[int, int]]:
    """Subgroup of Q_p*/Q_p*^2 (p odd) generated by the given elements, as
    (valuation parity, nonresidue bit) pairs."""
    group = {(0, 0)}
    for g in gens:
        gp = _odd_class_pair(g, p)
        group |= {((gp[0] + h[0]) % 2, (gp[1] + h[1]) % 2) for h in group}
    return group


def _odd_class_rep(pair: tuple[int, int], p: int) -> int:
    u = _odd_nonresidue(p)
    return {(0, 0): 1, (0, 1): u, (1, 0): p, (1, 1): p * u}[pair]


_ODD_PAIR_ORDER = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}


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
    if p == 2:
        c = dyadic_class(a)
        coset = [dyadic_class(c * h) for h in dyadic_subgroup(E.gens)]
        return min(coset, key=_DYADIC_ORDER.__getitem__)
    pair = _odd_class_pair(a, p)
    coset = [((pair[0] + h[0]) % 2, (pair[1] + h[1]) % 2) for h in _odd_subgroup(E.gens, p)]
    best = min(coset, key=_ODD_PAIR_ORDER.__getitem__)
    return _odd_class_rep(best, p)


# ----------------------------------------------------------------------
# Hilbert symbols.


def hilbert_symbol(a: Rat, b: Rat, E: LocalField) -> int:
    """+1 iff <1, -a, -b> is isotropic over E (iff the quaternion algebra
    (a, b) splits over E).

    For rational a, b and a completion E of degree n over Q_v, norm
    compatibility gives (a, b)_E = (a, N b)_{Q_v} = (a, b)_{Q_v}^n, so every
    even-degree completion gives +1.  Over Q_v: the sign rule at the real
    place, the tame formula for p odd and Serre's formula for p = 2, with
    a = p^alpha u and b = p^beta w for units u, w.
    """
    if a == 0 or b == 0:
        raise DomainError("hilbert symbol of 0")
    if E.degree % 2 == 0:
        return 1
    if E.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = E.base.p
    alpha, u = _valuation_unit(p, a)
    beta, w = _valuation_unit(p, b)
    alpha, beta = alpha % 2, beta % 2
    if p == 2:
        # (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)) with
        # eps(x) = (x - 1)/2 and omega(x) = (x^2 - 1)/8 mod 2.
        u, w = u % 8, w % 8
        eps_u, eps_w = (u - 1) // 2, (w - 1) // 2
        omega_u, omega_w = (u * u - 1) // 8, (w * w - 1) // 8
        t = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if t % 2 else 1
    # (-1)^(alpha beta (p-1)/2) (u|p)^beta (w|p)^alpha.
    if not (alpha or beta):
        return 1
    return legendre((-1) ** (alpha * beta) * u ** beta * w ** alpha, p)


def _symbol_split_at(a: Rat, b: Rat, primes) -> bool:
    """Whether (a, b)_p = +1 at every prime p of `primes`."""
    return all(hilbert_symbol(a, b, LocalField(Place(p))) == 1 for p in primes)


# ----------------------------------------------------------------------
# Anisotropic dimension from local invariants.


def local_aniso_dim(c: LocalFormClass, E: LocalField) -> int:
    """Dimension of the anisotropic kernel of any form with these invariants
    over E, by the standard p-adic classification (descent on the invariant
    tuple; dim >= 5 always isotropic, dim 4 anisotropic iff trivial
    discriminant and anti-hyperbolic Hasse invariant)."""
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
    while True:
        if n <= 0:
            return 0
        if n == 1:
            return 1
        if n == 2:
            return 0 if trivial else 2
        if n == 3 and s == -hilbert_symbol(d, -1, E):
            return 3
        if n == 4 and trivial and s == -hilbert_symbol(-1, -1, E):
            return 4
        # Split off a hyperbolic plane: disc is stable, the Hasse invariant
        # picks up (P, -1) where P is the entry product of the smaller form.
        m = n - 2
        prod_rep = d if (m * (m - 1) // 2) % 2 == 0 else -d
        s *= hilbert_symbol(prod_rep, -1, E)
        n = m


def form_class_at(entries: tuple[int, ...], E: LocalField) -> LocalFormClass:
    """Local invariants of the diagonal form with the given nonzero integer
    entries over E.

    Over Q_p and its extensions the Hasse invariant prod_{i<j} (a_i, a_j) is
    evaluated by bilinearity as prod_j (a_1...a_{j-1}, a_j): n - 1 symbols,
    with the prefix product carried as a square class by gcd cancellation
    (no factorization).  The final prefix gives the discriminant."""
    n = len(entries)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    if E.is_real:
        negs = sum(1 for a in entries if a < 0)
        sig = n - 2 * negs
        h = -1 if (negs * (negs - 1) // 2) % 2 else 1
        return LocalFormClass(n, -sign if negs % 2 else sign, h, sig)
    if E.is_complex:
        return LocalFormClass(n, 1, 1, None)
    h = 1
    prefix = entries[0] if n else 1
    for a in entries[1:]:
        h *= hilbert_symbol(prefix, a, E)
        prefix = _class_product(prefix, a)
    return LocalFormClass(n, local_square_class(sign * prefix, E), h, None)
