"""Multiquadratic towers M = Q(sqrt d1[, sqrt d2]): base change of forms,
hyperbolicity and Witt index over M, and norm-group membership.

Hyperbolicity over M is decided purely locally: a form over a number field is
hyperbolic iff it is hyperbolic at every completion.  Two global ingredients
keep the place set finite: the discriminant must be a square in M, which for
a rational discriminant is the Kummer condition "class lies in the subgroup
generated by the tower generators"; given that, every place outside the prime
support of (entries + generators, 2, real) is automatically split.  The
completions at those places, each a `LocalField` of the generators, come from
`localfields.completions` over that support, whose generator primes only
`hyperbolicity_evidence` factors; it holds one local verdict per completion,
and `aniso_dim_over` is their maximum with the Kummer bound
(`_aniso_dim_from`, which the certificate checks read too).

Norm membership in a quadratic extension is Hasse's norm theorem: a Hilbert
symbol at 2, at the primes of the two classes and at the real place.  For
biquadratic towers the intersection law N*_L cap N*_L' = Q*^2 * N*_M reduces
it to the two quadratic subextensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .arith import DomainError, Rat, _class_product, _squarefree_part, squarefree_rep
from .localfields import (
    LocalField,
    _symbol_split_at,
    completions,
    form_class_at,
    local_aniso_dim,
)
from . import forms
from .forms import QForm


@dataclass(frozen=True, slots=True)
class ExtensionTower:
    """M = Q(sqrt d1[, sqrt d2]), degree 1, 2 or 4, of any generators, since
    a certificate's tower is verified as stated: `_tower_rule_holds` refuses
    a malformed one.  `downgraded` records that dependent generators were dropped."""

    generators: tuple[int, ...]
    downgraded: bool = False

    @property
    def degree(self) -> int:
        return 1 << len(self.generators)

    def subgroup(self) -> set[int]:
        """Square classes of Q becoming squares in M (Kummer group)."""
        out = {1}
        for g in self.generators:
            out |= {_class_product(g, h) for h in out}
        return out

    def __str__(self) -> str:
        if not self.generators:
            return "Q"
        return "Q(" + ", ".join(f"sqrt {d}" for d in self.generators) + ")"


def make_tower(ds) -> ExtensionTower:
    """Canonical tower from requested generators.  Square generators are
    discarded; a generator whose class already lies in the Kummer subgroup
    of the earlier ones is dependent and is dropped, with the downgraded
    flag set.  A third independent generator is refused as soon as it is
    met (a later generator never removes one already kept), so the subgroup
    never exceeds four classes."""
    gens: list[int] = []
    downgraded = False
    for d in ds:
        if Fraction(d) == 0:
            raise DomainError("tower generator must be nonzero")
        c = squarefree_rep(d)
        if c in ExtensionTower(tuple(gens)).subgroup():
            downgraded = downgraded or c != 1
            continue
        if len(gens) == 2:
            raise DomainError("towers of degree > 4 are out of scope")
        gens.append(c)
    gens.sort(key=lambda d: (abs(d), d < 0))
    return ExtensionTower(tuple(gens), downgraded)


TRIVIAL_TOWER = ExtensionTower(())


def _tower_rule_holds(gens, gen_primes) -> bool:
    """At most two distinct generators, each != 1 and the signed product of its distinct primes."""
    return len(gens) <= 2 and len(set(gens)) == len(gens) and all(
        d != 1 and _is_class_of(d, primes) for d, primes in zip(gens, gen_primes, strict=True))


def _is_class_of(r: Rat, primes) -> bool:
    """Whether r is the square-free integer with the given distinct primes
    and r's sign."""
    return r != 0 and r == (1 if r > 0 else -1) * prod(primes) and len(set(primes)) == len(primes)


# ----------------------------------------------------------------------
# Hyperbolicity and Witt index over M.


def aniso_dim_over(phi: QForm, M: ExtensionTower) -> int:
    """Dimension of the anisotropic kernel of phi over M: `_aniso_dim_from`
    its `hyperbolicity_evidence`, which refuses a tower outside the rule."""
    return _aniso_dim_from(phi, M, hyperbolicity_evidence(phi, M))


def _aniso_dim_from(phi: QForm, M: ExtensionTower, evidence) -> int:
    """The anisotropic dimension of phi over M read off its evidence over M:
    the maximum of the local anisotropic dimensions and the global Kummer
    discriminant bound.  An even-dimensional form whose discriminant is not
    a square in M has anisotropic dimension at least 2, and such a failure
    can hide at places outside the prime support.  By Kummer theory it is a
    square in M iff its square class lies in M's subgroup; both are
    square-free integers, so membership is equality of classes."""
    lower = phi.dim % 2
    if lower == 0 and forms.disc(phi) not in M.subgroup():
        lower = 2
    return max(lower, *(ev.aniso_dim for ev in evidence))


def witt_index_over(phi: QForm, M: ExtensionTower) -> int:
    """(dim - aniso_dim over M) / 2; exact over number fields by the
    local-global principle for the Witt index."""
    return (phi.dim - aniso_dim_over(phi, M)) // 2


def is_hyperbolic_over(phi: QForm, M: ExtensionTower) -> bool:
    if phi.dim % 2:
        return False
    return aniso_dim_over(phi, M) == 0


@dataclass(frozen=True, slots=True)
class PlaceEvidence:
    """One completion's verdict inside a hyperbolicity certificate; its
    place is `completion.base`."""

    completion: LocalField
    multiplicity: int
    aniso_dim: int


def hyperbolicity_evidence(phi: QForm, M: ExtensionTower, gen_primes=None) -> list[PlaceEvidence]:
    """The anisotropic dimension of phi over each completion of M above the
    primes of phi and of M's generators, from one local class per
    completion, with the number of places of M above its place (all
    conjugate: M's degree over the completion's).  `gen_primes`, the primes
    of each generator when the caller holds them, spares their factoring.  A
    tower outside `_tower_rule_holds`, whose degree would be wrong, is refused."""
    if gen_primes is None:
        gen_primes = [_squarefree_part(g)[1] for g in M.generators]
    if not _tower_rule_holds(M.generators, gen_primes):
        raise DomainError(f"tower outside the rule: {M.generators}")
    return [PlaceEvidence(E, M.degree // E.degree, local_aniso_dim(form_class_at(phi.entries, E), E))
            for E in completions(phi.support.union(*gen_primes), M.generators)]


# ----------------------------------------------------------------------
# Norm groups.


def norm_member(c: Rat, d: int) -> bool:
    """c in N*_{Q(sqrt d)/Q}, by Hasse's norm theorem for cyclic extensions
    (Serre, A Course in Arithmetic, III): c is a norm iff (c, d)_v = +1 at
    every place v.  At the real place that fails only for c < 0 and d < 0;
    at an odd prime dividing neither c nor d both are units."""
    if Fraction(c) == 0:
        raise DomainError("norm membership of 0")
    d, d_primes = _squarefree_part(d)
    if d == 1:
        raise DomainError("trivial extension: norm group is all of Q*")
    return _norm_member(*_squarefree_part(c), d, d_primes)


def _norm_member(c: int, c_primes, d: int, d_primes) -> bool:
    """`norm_member` for square-free c and d != 1 given with their primes,
    so neither is factored again."""
    if c < 0 and d < 0:
        return False
    return _symbol_split_at(c, d, {2, *c_primes, *d_primes})


def norm_member_tower(c: Rat, M: ExtensionTower) -> bool:
    """c in Q*^2 * N*_{M/Q}.  Trivial tower: everything.  Quadratic tower:
    plain norm membership.  Biquadratic tower: membership in both quadratic
    subextension norm groups (the intersection law
    N*_L cap N*_L' = Q*^2 * N*_M).  Each generator is factored once, as the
    test reaches it, and c once, after the first generator."""
    if Fraction(c) == 0:
        raise DomainError("norm membership of 0")
    c_part = None
    for g in M.generators:
        d, d_primes = _squarefree_part(g)
        if d == 1:
            raise DomainError("trivial extension: norm group is all of Q*")
        c_part = c_part or _squarefree_part(c)
        if not _norm_member(*c_part, d, d_primes):
            return False
    return True
