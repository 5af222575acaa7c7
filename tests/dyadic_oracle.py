"""Reference oracle for dyadic completions: exact models of the 2-adic
fields of degree <= 4 over Q_2 and bounded residue searches in them.

The engine decides every dyadic question by closed forms (Serre's formula,
norm compatibility, Kummer theory); this module decides the same questions
from element-level arithmetic, so tests can compare the two.

A completion E = Q_2(sqrt(c1)[, sqrt(c2)]) is modelled through its ring of
integers O_E = Z_2[theta] in a verified power basis: the generator theta is
found by a small deterministic search and certified maximal via Dedekind's
criterion at 2, so no wild-ramification case table enters the code.  All
decisions reduce to finite searches in O_E / 2^K:

* a unit u is a square iff z^2 = u is solvable mod pi^(2e+1)   (Hensel bound)
* a ternary form with unit-normalised coefficients is isotropic iff it has a
  solution with one coordinate equal to 1 mod pi^(2e+3)

Both criteria are sound and complete at these precisions: a found solution
satisfies v(f) > 2*v(f') at the fixed coordinate and lifts by Newton
iteration, and an exact solution scales and truncates to a found one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from wittcert.arith import DomainError, squarefree_rep
from wittcert.localfields import DYADIC_CLASSES, LocalField, dyadic_class, dyadic_subgroup


# ----------------------------------------------------------------------
# F_2[x] utilities, polynomials as bit masks (bit i = coefficient of x^i).


def _f2_deg(a: int) -> int:
    return a.bit_length() - 1


def _f2_mulmod(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _f2_divmod(a: int, b: int) -> tuple[int, int]:
    q = 0
    db = _f2_deg(b)
    while _f2_deg(a) >= db and a:
        shift = _f2_deg(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _f2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _f2_divmod(a, b)[1]
    return a


def _f2_factor(a: int) -> list[int]:
    """Irreducible factors of a (degree <= 4 suffices here), with multiplicity."""
    out = []
    for irr in (0b10, 0b11, 0b111):  # x, x+1, x^2+x+1
        while a != 1 and _f2_divmod(a, irr)[1] == 0:
            a = _f2_divmod(a, irr)[0]
            out.append(irr)
    if a != 1:
        # No factor of degree <= 2 remains; degree-3/4 remainder is irreducible
        # (the only irreducible quadratic over F_2 is x^2+x+1).
        out.append(a)
    return out


def _poly_bits(g: tuple[int, ...]) -> int:
    out = 0
    for i, c in enumerate(g):
        if c % 2:
            out |= 1 << i
    return out


def _bits_poly(b: int, length: int) -> tuple[int, ...]:
    return tuple((b >> i) & 1 for i in range(length))


def dedekind_2_maximal(g: tuple[int, ...]) -> bool:
    """Dedekind's criterion at p=2 for a monic integer polynomial g.

    True iff Z[x]/(g) is 2-maximal in its fraction field order.
    """
    n = len(g) - 1
    gbar = _poly_bits(g)
    factors = _f2_factor(gbar)
    radical = 1
    for irr in set(factors):
        radical = _f2_mulmod(radical, irr)
    hbar = _f2_divmod(gbar, radical)[0]
    gstar = _bits_poly(radical, n + 1)
    hstar = _bits_poly(hbar, n + 1)
    # F = (gstar * hstar - g) / 2, exact over Z.
    prod = [0] * (2 * n + 1)
    for i, ci in enumerate(gstar):
        for j, cj in enumerate(hstar):
            prod[i + j] += ci * cj
    diff = [prod[i] - (g[i] if i < len(g) else 0) for i in range(len(prod))]
    assert all(c % 2 == 0 for c in diff)
    fbar = 0
    for i, c in enumerate(diff):
        if (c // 2) % 2:
            fbar |= 1 << i
    return _f2_gcd(fbar, _f2_gcd(radical, hbar)) == 1


# ----------------------------------------------------------------------
# Exact arithmetic in the biquadratic Q-algebra Q(sqrt(c1), sqrt(c2)),
# basis (1, s1, s2, s1*s2), used to hunt for power-basis generators.


def _q4_mul(x, y, c1: int, c2: int):
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e + c1 * b * f + c2 * c * g + c1 * c2 * d * h,
        a * f + b * e + c2 * (c * h + d * g),
        a * g + c * e + c1 * (b * h + d * f),
        a * h + d * e + b * g + c * f,
    )


def _q4_conjugates(x):
    a, b, c, d = x
    return [
        (a, b, c, d),
        (a, b, -c, -d),
        (a, -b, c, -d),
        (a, -b, -c, d),
    ]


def _q4_norm(x, c1: int, c2: int) -> Fraction:
    prod = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for conj in _q4_conjugates(x):
        prod = _q4_mul(prod, conj, c1, c2)
    assert prod[1] == prod[2] == prod[3] == 0
    return prod[0]


def _q4_minpoly(x, c1: int, c2: int) -> tuple[Fraction, ...] | None:
    """Monic degree-4 minimal polynomial of x, or None if x has lower degree."""
    powers = [(Fraction(1), Fraction(0), Fraction(0), Fraction(0))]
    for _ in range(4):
        powers.append(_q4_mul(powers[-1], x, c1, c2))
    # Solve powers[4] = -(g0*powers[0] + ... + g3*powers[3]).
    rows = [[powers[j][i] for j in range(4)] for i in range(4)]
    rhs = [powers[4][i] for i in range(4)]
    mat = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    cols = []
    r = 0
    for col in range(4):
        piv = next((k for k in range(r, 4) if mat[k][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for k in range(4):
            if k != r and mat[k][col] != 0:
                f = mat[k][col]
                mat[k] = [vk - f * vr for vk, vr in zip(mat[k], mat[r])]
        cols.append(col)
        r += 1
    if r < 4:
        return None  # x does not generate the quartic algebra
    sol = [Fraction(0)] * 4
    for i, col in enumerate(cols):
        sol[col] = mat[i][4]
    return tuple(-s for s in sol) + (Fraction(1),)


# ----------------------------------------------------------------------


def _inv_mod(a: int, mod: int) -> int:
    return pow(a % mod, -1, mod)


@dataclass
class DyadicModel:
    """O_E / 2^K arithmetic for a dyadic completion E, power basis of degree n."""

    key: frozenset[int]  # nontrivial square classes of the subgroup cut out by E
    n: int
    e: int
    f: int
    kprec: int  # elements are carried mod 2^kprec
    reduction: tuple[tuple[int, ...], ...]  # theta^n .. theta^(2n-2) mod g
    pi: tuple[int, ...]
    two_unit: tuple[int, ...] | None  # 2 / pi^e, only when e is even

    def __post_init__(self):
        self.mask = 1 << self.kprec
        self._reps: dict[int, list[tuple[int, ...]]] = {}
        self._lattice: dict[int, frozenset[tuple[int, ...]]] = {}
        self._sqsets: dict = {}

    # -- basic tuple arithmetic ------------------------------------------

    def scalar(self, c: int) -> tuple[int, ...]:
        return (c % self.mask,) + (0,) * (self.n - 1)

    def add(self, x, y):
        return tuple((a + b) % self.mask for a, b in zip(x, y))

    def neg(self, x):
        return tuple((-a) % self.mask for a in x)

    def mul(self, x, y):
        n, mask = self.n, self.mask
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] += a * b
        out = list(prod[:n])
        for i in range(n, 2 * n - 1):
            c = prod[i]
            if c:
                row = self.reduction[i - n]
                for j in range(n):
                    out[j] += c * row[j]
        return tuple(v % mask for v in out)

    # -- pi-adic structure -----------------------------------------------

    def digits(self) -> list[tuple[int, ...]]:
        if self.f == 1:
            return [self.scalar(0), self.scalar(1)]
        theta = (0, 1) + (0,) * (self.n - 2)
        one = self.scalar(1)
        return [self.scalar(0), one, theta, self.add(one, theta)]

    def pi_power(self, j: int) -> tuple[int, ...]:
        out = self.scalar(1)
        for _ in range(j):
            out = self.mul(out, self.pi)
        return out

    def reps(self, N: int) -> list[tuple[int, ...]]:
        """Representatives of O / pi^N, distinct mod 2^kprec (needs N <= e*kprec)."""
        if N in self._reps:
            return self._reps[N]
        cur = [self.scalar(0)]
        for j in range(N):
            pj = self.pi_power(j)
            nxt = []
            for r in cur:
                for d in self.digits():
                    nxt.append(self.add(r, self.mul(d, pj)))
            cur = nxt
        self._reps[N] = cur
        return cur

    def lattice(self, N: int) -> frozenset[tuple[int, ...]]:
        """pi^N * O mod 2^kprec."""
        if N in self._lattice:
            return self._lattice[N]
        pN = self.pi_power(N)
        seen = set()
        # pi^N * O is spanned by pi^N * (basis digits shifted); enumerate the
        # quotient pi^N*O / 2^kprec*O directly: it equals pi^N * (O / pi^(e*k - N)).
        for u in self.reps(self.e * self.kprec - N):
            seen.add(self.mul(pN, u))
        out = frozenset(seen)
        self._lattice[N] = out
        return out

    # -- coefficient normalisation ----------------------------------------

    def unit_of(self, c: int) -> tuple[int, ...]:
        """Tuple representing a unit in the square class of c (e even), or the
        2-integral scalar c itself (e odd, where pi = 2)."""
        v = 0
        u = c
        while u % 2 == 0:
            u //= 2
            v += 1
        if self.e % 2 == 0:
            out = self.scalar(u)
            for _ in range(v):
                out = self.mul(out, self.two_unit)
            return out
        return self.scalar(c)

    # -- decision searches -------------------------------------------------

    def is_square(self, r) -> bool:
        """Square test in E for a rational r, by residue search mod pi^(2e+1)."""
        c = squarefree_rep(r)
        v = 1 if c % 2 == 0 else 0
        if self.e % 2 and v:
            return False  # odd valuation
        u = self.unit_of(c)
        N = 2 * self.e + 1
        latt = self.lattice(N)
        neg_u = self.neg(u)
        for z in self.reps(N):
            if self.add(self.mul(z, z), neg_u) in latt:
                return True
        return False

    def _sq_set(self, coeff: tuple[int, ...], N: int) -> frozenset[tuple[int, ...]]:
        key = (coeff, N)
        if key in self._sqsets:
            return self._sqsets[key]
        latt = self.lattice(N)
        out = set()
        for z in self.reps(N):
            s = self.mul(coeff, self.mul(z, z))
            for m in latt:
                out.add(self.add(s, m))
        out = frozenset(out)
        self._sqsets[key] = out
        return out

    def ternary_isotropic(self, c1: int, c2: int, c3: int) -> bool:
        """Isotropy of <c1, c2, c3> over E for square-free integer entries.

        Searches solutions with one coordinate fixed to 1 mod pi^(2e+3); with
        unit-normalised coefficients this is exactly the Hensel-liftable range.
        """
        coeffs = [c1, c2, c3]
        if self.e % 2:
            # Uniformiser is 2; arrange at most one coefficient of odd valuation.
            if sum(1 for c in coeffs if c % 2 == 0) >= 2:
                coeffs = [squarefree_rep(2 * c) for c in coeffs]
        elems = [self.unit_of(c) for c in coeffs]
        N = 2 * self.e + 3
        for i in range(3):
            j, k = [t for t in range(3) if t != i]
            target_set = self._sq_set(elems[k], N)
            base = elems[i]
            cj = elems[j]
            for y in self.reps(N):
                t = self.neg(self.add(base, self.mul(cj, self.mul(y, y))))
                if t in target_set:
                    return True
        return False


# ----------------------------------------------------------------------
# Model construction.

_CANON_INDEX = {c: i for i, c in enumerate(DYADIC_CLASSES)}


def _reduction_rows(g: list[int], n: int, mask: int) -> tuple[tuple[int, ...], ...]:
    """theta^n .. theta^(2n-2) as Z/mask combinations of 1..theta^(n-1)."""
    rows = []
    cur = [(-g[i]) % mask for i in range(n)]  # theta^n
    rows.append(tuple(cur))
    for _ in range(n - 2):
        shifted = [0] + cur[:-1]
        top = cur[-1]
        cur = [(shifted[i] + top * rows[0][i]) % mask for i in range(n)]
        rows.append(tuple(cur))
    return tuple(rows)


def _vec_mod(vec, mask: int) -> tuple[int, ...]:
    out = []
    for q in vec:
        q = Fraction(q)
        if q.denominator % 2 == 0:
            raise DomainError("element is not 2-integral")
        out.append(q.numerator * _inv_mod(q.denominator, mask) % mask)
    return tuple(out)


def _solve_fraction_system(cols, target):
    """Solve sum x_i * cols[i] = target exactly over Q; cols are 4-vectors."""
    n = len(target)
    mat = [[Fraction(cols[j][i]) for j in range(len(cols))] + [Fraction(target[i])] for i in range(n)]
    m = len(cols)
    r = 0
    pivots = []
    for col in range(m):
        piv = next((k for k in range(r, n) if mat[k][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for k in range(n):
            if k != r and mat[k][col] != 0:
                fac = mat[k][col]
                mat[k] = [vk - fac * vr for vk, vr in zip(mat[k], mat[r])]
        pivots.append(col)
        r += 1
    sol = [Fraction(0)] * m
    for i, col in enumerate(pivots):
        sol[col] = mat[i][-1]
    return sol


def _build_base() -> DyadicModel:
    return DyadicModel(
        key=frozenset(), n=1, e=1, f=1, kprec=5,
        reduction=(), pi=(2,), two_unit=None,
    )


def _build_quadratic(c: int) -> DyadicModel:
    if c == 5:
        # Unramified: O = Z_2[(1+sqrt 5)/2], x^2 - x - 1.
        g = [-1, -1, 1]
        e, f, kprec = 1, 2, 5
        mask = 1 << kprec
        red = _reduction_rows(g, 2, mask)
        return DyadicModel(frozenset({5}), 2, e, f, kprec, red, pi=(2, 0), two_unit=None)
    # Ramified: O = Z_2[sqrt c] (Eisenstein at sqrt c, or at 1 + sqrt c for c = 3 mod 4).
    g = [-c, 0, 1]
    e, f, kprec = 2, 1, 4
    mask = 1 << kprec
    red = _reduction_rows(g, 2, mask)
    pi_frac = (Fraction(1), Fraction(1)) if c % 2 else (Fraction(0), Fraction(1))
    pi = _vec_mod(pi_frac, mask)
    # two_unit = 2 / pi^2: pi^2 = c (odd v) or 2*pi + c - 1 (unit c).
    if c % 2 == 0:
        tu = (Fraction(2, c), Fraction(0))
    else:
        # 2 / (1+sqrt c)^2 = 2(1+sqrt c)^(-2); (1+sqrt c)^2 = (1+c) + 2 sqrt c.
        a, b = Fraction(1 + c), Fraction(2)
        nrm = a * a - c * b * b
        tu = (Fraction(2) * a / nrm, Fraction(-2) * b / nrm)
    model = DyadicModel(frozenset({c}), 2, e, f, kprec, red, pi=pi, two_unit=_vec_mod(tu, mask))
    return model


# Candidate numerators for quartic generator searches, in search order.
_COORD_ORDER = (0, 1, -1, 2, -2, 3, -3, 4, -4)


def _quartic_candidates():
    cands = []
    for a0 in _COORD_ORDER:
        for a1 in _COORD_ORDER:
            for a2 in _COORD_ORDER:
                for a3 in _COORD_ORDER:
                    w = abs(a0) + abs(a1) + abs(a2) + abs(a3)
                    cands.append((w, (a0, a1, a2, a3)))
    cands.sort(key=lambda t: (t[0], t[1]))
    return [c for _, c in cands]


_QUARTIC_CANDIDATES = _quartic_candidates()


def _build_quartic(subgroup: frozenset[int]) -> DyadicModel:
    nontrivial = sorted(subgroup - {1}, key=_CANON_INDEX.__getitem__)
    c1, c2 = nontrivial[0], nontrivial[1]
    f = 2 if 5 in subgroup else 1
    e = 4 // f
    kprec = 4 if e == 2 else 3
    mask = 1 << kprec

    for coords in _QUARTIC_CANDIDATES:
        x = tuple(Fraction(a, 2) for a in coords)
        g = _q4_minpoly(x, c1, c2)
        if g is None:
            continue
        if any(q.denominator != 1 for q in g[:-1]):
            continue
        gi = tuple(int(q) for q in g)
        gbar = _f2_factor(_poly_bits(gi))
        if len(gbar) != e or len(set(gbar)) != 1 or _f2_deg(gbar[0]) != f:
            continue  # wrong (e, f) shape: not the expected local behaviour
        if not dedekind_2_maximal(gi):
            continue
        theta = x
        # Power-basis columns in the naive basis, for change of basis.
        pows = [(Fraction(1), Fraction(0), Fraction(0), Fraction(0))]
        for _ in range(3):
            pows.append(_q4_mul(pows[-1], theta, c1, c2))
        red = _reduction_rows(list(gi), 4, mask)
        model = DyadicModel(frozenset(nontrivial), 4, e, f, kprec,
                            red, pi=(0,) * 4, two_unit=None)
        # Uniformiser.
        if e == 4:
            # Totally ramified and monogenic: theta minus its residue has v = 1.
            nrm = _q4_norm(theta, c1, c2)
            resid = 1 if _v2(nrm) == 0 else 0
            pi_naive = (theta[0] - resid, theta[1], theta[2], theta[3])
        else:
            # Type (e, f) = (2, 2): a ramified square root r in the field gives
            # sqrt(r) (odd valuation) or 1 + sqrt(r) (unit r = 3 mod 4) with v = 1.
            r, s_naive = _ramified_root(c1, c2)
            if r % 2 == 0:
                pi_naive = s_naive
            else:
                pi_naive = (s_naive[0] + 1, s_naive[1], s_naive[2], s_naive[3])
        nrm_pi = _q4_norm(pi_naive, c1, c2)
        if _v2(nrm_pi) != f:
            continue
        pi_coords = _solve_fraction_system(pows, pi_naive)
        model.pi = _vec_mod(pi_coords, mask)
        # two_unit = 2 / pi^e, solved exactly in the naive basis.
        pi_e = pi_naive
        for _ in range(e - 1):
            pi_e = _q4_mul(pi_e, pi_naive, c1, c2)
        conj_prod = (Fraction(2), Fraction(0), Fraction(0), Fraction(0))
        for conj in _q4_conjugates(pi_e)[1:]:
            conj_prod = _q4_mul(conj_prod, conj, c1, c2)
        nrm_e = _q4_norm(pi_e, c1, c2)
        tu_naive = tuple(q / nrm_e for q in conj_prod)
        tu_coords = _solve_fraction_system(pows, tu_naive)
        model.two_unit = _vec_mod(tu_coords, mask)
        _validate_model(model)
        return model
    raise DomainError(f"no power-basis generator found for subgroup {sorted(subgroup)}")


def _ramified_root(c1: int, c2: int):
    """A square-free integer r with sqrt(r) in Q(sqrt c1, sqrt c2) and
    Q_2(sqrt r)/Q_2 ramified, together with sqrt(r) as a naive-basis vector."""
    candidates = [
        (c1, (Fraction(0), Fraction(1), Fraction(0), Fraction(0))),
        (c2, (Fraction(0), Fraction(0), Fraction(1), Fraction(0))),
    ]
    prod = squarefree_rep(c1 * c2)
    # sqrt(prod) = sqrt(c1) sqrt(c2) / t with t^2 = c1*c2/prod a perfect square.
    t = _exact_sqrt(Fraction(c1 * c2, prod))
    candidates.append((prod, (Fraction(0), Fraction(0), Fraction(0), Fraction(1) / t)))
    for r, vec in candidates:
        if dyadic_class(r) not in (1, 5):
            return r, vec
    raise DomainError("no ramified quadratic subextension found")


def _exact_sqrt(q: Fraction) -> Fraction:
    from math import isqrt

    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise DomainError(f"{q} is not a rational square")
    return Fraction(rn, rd)


def _v2(q: Fraction) -> int:
    q = Fraction(q)
    if q == 0:
        raise DomainError("valuation of 0")
    v = 0
    n = abs(q.numerator)
    while n % 2 == 0:
        n //= 2
        v += 1
    d = q.denominator
    while d % 2 == 0:
        d //= 2
        v -= 1
    return v


def _validate_model(model: DyadicModel) -> None:
    assert model.e * model.f == model.n
    # v(2) = e: 2 in pi^e O \ pi^(e+1) O.
    two = model.scalar(2)
    assert two in model.lattice(model.e)
    assert two not in model.lattice(model.e + 1)
    # Digits are distinct mod pi.
    latt1 = model.lattice(1)
    ds = model.digits()
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            assert model.add(ds[i], model.neg(ds[j])) not in latt1
    if model.two_unit is not None:
        # two_unit * pi^e = 2.
        assert model.mul(model.two_unit, model.pi_power(model.e)) == two
        assert model.two_unit not in model.lattice(1)


def build_model(subgroup: frozenset[int]) -> DyadicModel:
    """Model for the completion cut out by a subgroup of Q_2*/Q_2*^2."""
    nontrivial = subgroup - {1}
    if not nontrivial:
        return _build_base()
    if len(nontrivial) == 1:
        model = _build_quadratic(next(iter(nontrivial)))
        _validate_model(model)
        return model
    if len(nontrivial) == 3:
        return _build_quartic(subgroup)
    raise DomainError(f"not a square-class subgroup: {sorted(subgroup)}")


# ----------------------------------------------------------------------
# Oracle entry points over engine completions.


@cache
def _model_for(subgroup: frozenset[int]) -> DyadicModel:
    return build_model(subgroup)


def _dyadic_model(E: LocalField) -> DyadicModel:
    if E.base.is_real or E.base.p != 2:
        raise DomainError("dyadic residue search needs residue characteristic 2")
    return _model_for(dyadic_subgroup(E.gens))


def residue_square_test(a, E: LocalField) -> bool:
    """Square test in a dyadic completion by exhaustive residue search modulo
    pi^(2e+1) (the Hensel-sufficient precision)."""
    if Fraction(a) == 0:
        raise DomainError("square test of 0")
    return _dyadic_model(E).is_square(squarefree_rep(a))


def residue_hilbert_symbol(a, b, E: LocalField) -> int:
    """(a, b) over a dyadic completion: +1 iff <1, -a, -b> is isotropic, by
    the ternary residue search modulo pi^(2e+3)."""
    if Fraction(a) == 0 or Fraction(b) == 0:
        raise DomainError("hilbert symbol of 0")
    # dyadic_class absorbs the sign into the unit part mod 8.
    ca, cb = dyadic_class(a), dyadic_class(b)
    return 1 if _dyadic_model(E).ternary_isotropic(1, -ca, -cb) else -1
