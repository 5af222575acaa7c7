"""Quaternion algebras over Q and the structural model of symplectic
involution algebras (A, sigma) = Ad(phi) (x) (Q, can).

The pair (phi, Q) is a complete proxy for every question asked here: the
multiplier group and the hyperbolicity behaviour of (A, sigma) coincide with
those of the trace form psi = phi (x) n_Q, so no matrix model of the algebra
is ever built.  Both structural facts are decided by theorem, with no walk
over places: splitting by Hasse's norm test, and the discriminant of the
involution, carried as the 3-fold Pfister representative <<a, b, disc phi>>,
by the sign of that form at the real place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import DomainError, _squarefree_part, squarefree_rep
from .extensions import _norm_member
from .forms import QForm, disc, pfister, tensor


@dataclass(frozen=True, slots=True)
class QuaternionAlg:
    """The quaternion algebra (a, b) over Q."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise DomainError("quaternion symbol entries must be nonzero")

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


def quaternion(a, b) -> QuaternionAlg:
    return QuaternionAlg(squarefree_rep(a), squarefree_rep(b))


@dataclass(frozen=True, slots=True)
class InvolutionAlgebra:
    """(A, sigma) = Ad(phi) (x) (Q, can): degree 2*dim(phi), symplectic."""

    phi: QForm
    q: QuaternionAlg

    @property
    def degree(self) -> int:
        return 2 * self.phi.dim


def norm_form(q: QuaternionAlg) -> QForm:
    """The norm form <<a, b>> = <1, -a, -b, ab>."""
    return pfister([q.a, q.b])


def is_split(q: QuaternionAlg) -> bool:
    """(a, b) splits iff a is a norm from Q(sqrt b), which is all of Q* when
    b is a square (Serre, A Course in Arithmetic, III): Hasse's norm test on
    one factorization of each slot."""
    b, b_primes = _squarefree_part(q.b)
    return b == 1 or _norm_member(*_squarefree_part(q.a), b, b_primes)


def degree_index(alg: InvolutionAlgebra) -> tuple[int, int]:
    """(degree, Schur index); this constructor only produces index <= 2."""
    return alg.degree, 1 if is_split(alg.q) else 2


def involution_discriminant(alg: InvolutionAlgebra) -> tuple[QForm, bool]:
    """The discriminant of the symplectic involution as the 3-fold Pfister
    representative <<a, b, disc phi>>, plus its triviality.

    A 3-fold Pfister form over Q_p has dimension 8 > 4, so it is isotropic,
    hence hyperbolic (Lam, Introduction to Quadratic Forms over Fields,
    X.1); over R, <<a, b, c>> is anisotropic iff a, b and c are all
    negative.  So the class is trivial iff the three slots are not all
    negative.

    Defined only when 2*ind(A) divides deg(A); for this constructor that
    fails exactly when the quaternion is division and dim(phi) is odd, so
    splitting is decided only for odd dim(phi).
    """
    if alg.phi.dim % 2 and not is_split(alg.q):
        raise DomainError(
            f"discriminant undefined: 2*ind = 4 does not divide deg = {alg.degree}"
        )
    slots = [alg.q.a, alg.q.b, disc(alg.phi)]
    return pfister(slots), any(s > 0 for s in slots)


def reduce_to_form(alg: InvolutionAlgebra) -> QForm:
    """The form phi (x) <<a, b>> through which all multiplier and
    hyperbolicity questions about (A, sigma) are answered."""
    return tensor(alg.phi, norm_form(alg.q))
