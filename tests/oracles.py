"""Independent oracles for the test suite.

Most of what is here decides by explicit witnesses or exhaustive residue
enumeration, never through the engine's invariant machinery, so that each
engine verdict is checked along a second, unrelated route.  The last
sections keep the generic routes, the searches and the loops that the
engine's closed forms replaced, as reference implementations for those
closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import gcd, isqrt

from wittcert.arith import prime_support, squarefree_rep
from wittcert.extensions import (
    TRIVIAL_TOWER,
    hyperbolicity_evidence,
    is_hyperbolic_over,
    make_tower,
    norm_member_tower,
    witt_index_over,
)
from wittcert.forms import (
    HYPERBOLIC_PLANE,
    disc,
    is_hyperbolic,
    is_isometric,
    is_isotropic,
    orth_sum,
    pfister,
    qform,
    represents,
    scale,
    tensor,
)
from wittcert.involutions import norm_form
from wittcert.localfields import LocalFormClass, hilbert_symbol, local_square_class
from wittcert.similitude import _MAX_FACTORS, _SMALL_PRIMES, HypCertificate, lemma_beta_search


def perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def factorize_by_trial_division(n: int) -> dict[int, int]:
    """{prime: exponent} of |n| by dividing by every integer d >= 2 while
    d^2 is at most what is left: no wheel, no bound, no primality test."""
    m, out, d = abs(n), {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def isotropic_witness(entries, heights=(12, 60, 200)):
    """A nonzero integer vector x with sum c_i x_i^2 = 0, searching coordinate
    boxes of escalating height (signs are irrelevant), or None."""
    n = len(entries)
    if n < 2:
        return None
    for h in heights:
        w = _witness_at_height(entries, h)
        if w is not None:
            return w
    return None


def _witness_at_height(entries, h):
    n = len(entries)
    cs = list(entries)
    if n == 2:
        # c1 x^2 = -c2 y^2: ratio must be minus a square.
        r = Fraction(-cs[1], cs[0])
        if r >= 0 and perfect_square(r.numerator) and perfect_square(r.denominator):
            return (isqrt(r.numerator), isqrt(r.denominator))
        return None
    if n <= 4 or h <= 20:
        return _direct_search(cs, h)
    return _meet_in_middle(cs, h)


def _direct_search(cs, h):
    """Enumerate all but the last coordinate, solve the last by a square test."""
    n = len(cs)
    last = cs[-1]
    box = [0]
    out = None

    def rec(i, acc, vec):
        nonlocal out
        if out is not None:
            return
        if i == n - 1:
            q = Fraction(-acc, last)
            if q < 0 or q.denominator != 1:
                return
            if perfect_square(q.numerator):
                x = isqrt(q.numerator)
                if any(vec) or x:
                    out = tuple(vec) + (x,)
            return
        for x in range(h + 1):
            rec(i + 1, acc + cs[i] * x * x, vec + [x])
            if out is not None:
                return

    rec(0, 0, [])
    return out


def _meet_in_middle(cs, h):
    """Split dim-5 searches: table the first two coordinates, scan the rest."""
    first = {}
    for x1 in range(h + 1):
        for x2 in range(h + 1):
            first.setdefault(cs[0] * x1 * x1 + cs[1] * x2 * x2, (x1, x2))
    rest = cs[2:]
    for x3 in range(h + 1):
        for x4 in range(h + 1):
            partial = rest[0] * x3 * x3 + rest[1] * x4 * x4
            for x5 in range(h + 1):
                val = partial + rest[2] * x5 * x5
                hit = first.get(-val)
                if hit is not None and (any(hit) or x3 or x4 or x5):
                    return hit + (x3, x4, x5)
    return None


def check_witness(entries, vec) -> bool:
    return any(vec) and sum(c * x * x for c, x in zip(entries, vec)) == 0


# ----------------------------------------------------------------------
# Witt index by explicit hyperbolic splitting (exact rational Gram algebra).


def _bilinear(diag, x, y):
    return sum(c * a * b for c, a, b in zip(diag, x, y))


def _diagonalize(gram):
    """Diagonal entries of a nondegenerate symmetric Fraction matrix, by
    symmetric elimination."""
    g = [row[:] for row in gram]
    k = len(g)
    basis = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    out = []
    idx = 0
    while idx < k:
        piv = next((i for i in range(idx, k) if _gram_entry(g, basis, i, i) != 0), None)
        if piv is None:
            i, j = next(((i, j) for i in range(idx, k) for j in range(idx, k)
                         if _gram_entry(g, basis, i, j) != 0))
            basis[i] = [a + b for a, b in zip(basis[i], basis[j])]
            piv = i
        basis[idx], basis[piv] = basis[piv], basis[idx]
        d = _gram_entry(g, basis, idx, idx)
        out.append(d)
        for i in range(idx + 1, k):
            lam = _gram_entry(g, basis, i, idx) / d
            basis[i] = [a - lam * b for a, b in zip(basis[i], basis[idx])]
        idx += 1
    return out


def _gram_entry(g, basis, i, j):
    vi, vj = basis[i], basis[j]
    return sum(vi[a] * g[a][b] * vj[b] for a in range(len(g)) for b in range(len(g)))


def split_hyperbolic(entries, witness):
    """Entries of the orthogonal complement of the hyperbolic plane spanned by
    an isotropic witness, reduced to square classes."""
    n = len(entries)
    diag = [Fraction(c) for c in entries]
    v = [Fraction(x) for x in witness]
    e_idx = next(i for i in range(n) if diag[i] * v[i] != 0)
    e = [Fraction(int(i == e_idx)) for i in range(n)]
    t = _bilinear(diag, v, e)
    u = [x / t for x in e]
    uu = _bilinear(diag, u, u)
    comp = []
    for i in range(n):
        x = [Fraction(int(j == i)) for j in range(n)]
        beta = _bilinear(diag, x, v)
        alpha = _bilinear(diag, x, u) - beta * uu
        y = [a - alpha * b - beta * c for a, b, c in zip(x, v, u)]
        comp.append(y)
    # Pick n-2 independent projections.
    chosen = []
    rank_rows = []
    for y in comp:
        row = y[:]
        for r in rank_rows:
            lead = next((j for j in range(n) if r[j] != 0), None)
            if lead is not None and row[lead] != 0:
                f = row[lead] / r[lead]
                row = [a - f * b for a, b in zip(row, r)]
        if any(row):
            rank_rows.append(row)
            chosen.append(y)
        if len(chosen) == n - 2:
            break
    gram = [[_bilinear(diag, a, b) for b in chosen] for a in chosen]
    return [squarefree_rep(d) for d in _diagonalize(gram)]


def oracle_witt_index(entries, heights=(12, 60, 200)):
    """Number of hyperbolic planes split off by explicit witnesses; exact as
    long as every isotropic residual yields a witness within the heights."""
    current = list(entries)
    steps = 0
    while len(current) >= 2:
        w = isotropic_witness(current, heights)
        if w is None:
            break
        current = split_hyperbolic(current, w)
        steps += 1
    return steps, current


# ----------------------------------------------------------------------
# Square-class numbers by plain arithmetic.


def class_number(a: int, p: int) -> int:
    """The number of the class of the nonzero integer a in Q_p*/Q_p*^2 as
    `localfields` numbers classes, computed apart from the engine: strip the
    factors p, then 4 (v mod 2) + (u mod 8) // 2 for p = 2 and
    2 (v mod 2) + chi for p odd, chi = 1 iff Euler's criterion finds the
    unit part u a non-residue."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if p == 2:
        return 4 * (v % 2) + a % 8 // 2
    return 2 * (v % 2) + (pow(a, (p - 1) // 2, p) != 1)


def kummer_group(gens, p: int) -> frozenset[int]:
    """The class numbers of the subgroup of Q_p*/Q_p*^2 generated by the
    nonzero integers `gens`."""
    group = {0}
    for g in gens:
        group |= {class_number(g, p) ^ h for h in group}
    return frozenset(group)


def least_member(i: int, p: int) -> int:
    """The least positive integer of class number i: the least positive
    unit of its unit class, times p when the valuation is odd (p^3 times a
    unit of the class is larger)."""
    odd = 4 if p == 2 else 2
    u = next(u for u in count(1) if u % p and class_number(u, p) == i % odd)
    return u * p if i & odd else u


def least_coset_member(i: int, group, p: int) -> int:
    """The canonical representative of base class i in a completion with
    Kummer group `group`: of the classes in the coset of i, the one with the
    least number, given by its least positive integer."""
    return least_member(min(i ^ h for h in group), p)


# Local residue-search oracles.


def hilbert_oracle_q2(a: int, b: int) -> int:
    """(a, b) over the 2-adic numbers by primitive-solution search mod 32.

    For square-free a, b a primitive solution of z^2 = a x^2 + b y^2 mod 2^5
    always Hensel-lifts (some unit coordinate has derivative valuation <= 2).
    """
    a, b = squarefree_rep(a), squarefree_rep(b)
    for x in range(32):
        for y in range(32):
            for z in range(32):
                if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                    continue
                if (z * z - a * x * x - b * y * y) % 32 == 0:
                    return 1
    return -1


def hilbert_oracle_odd(a: int, b: int, p: int) -> int:
    """(a, b) over the p-adic numbers (p odd) by fixed-coordinate search mod
    p^3 on the form <1, -a, -b>: sound and complete for square-free a, b."""
    mod = p ** 3
    coeffs = (1, -squarefree_rep(a) % mod, -squarefree_rep(b) % mod)
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        targets = {coeffs[k] * z * z % mod for z in range(mod)}
        for y in range(mod):
            t = (-(coeffs[i] + coeffs[j] * y * y)) % mod
            if t in targets:
                return 1
    return -1


def square_mod_2_15(u: int) -> bool:
    """Existence of x <= 2^15 with x^2 = u mod 2^15 (the brute-force side of
    the dyadic square-test invariant)."""
    mod = 1 << 15
    return (u % mod) in _SQ_2_15


_SQ_2_15 = frozenset((x * x) % (1 << 15) for x in range(1 << 15))


def norm_witness(c, d, height=200):
    """Integer (x, y, z), z != 0, with x^2 - d y^2 = c z^2, or None."""
    c = Fraction(c)
    for z in range(1, height + 1):
        rhs_f = c * z * z
        if rhs_f.denominator != 1:
            continue
        rhs = int(rhs_f)
        for y in range(height + 1):
            t = rhs + d * y * y
            if perfect_square(t):
                return (isqrt(t), y, z)
    return None


# ----------------------------------------------------------------------
# Element-level isotropy over a real or imaginary quadratic field.


def _quadratic_component_sums(entries, d, h):
    """All (rational part, sqrt-d part, coords) of sum c_i (a_i + b_i sqrt d)^2
    over the coordinate box; (a + b sqrt d)^2 = (a^2 + d b^2) + 2ab sqrt d."""
    out = [(0, 0, ())]
    for c in entries:
        nxt = []
        for r, s, coords in out:
            for a in range(-h, h + 1):
                for b in range(-h, h + 1):
                    nxt.append((r + c * (a * a + d * b * b),
                                s + c * a * b,
                                coords + ((a, b),)))
        out = nxt
    return out


def quadratic_field_witness(entries, d, h=5):
    """A nonzero vector over Q(sqrt d) on which the form vanishes, found by a
    meet-in-the-middle search on the two components, or None."""
    n = len(entries)
    if n < 2:
        return None
    k = n // 2
    table = {}
    for r, s, coords in _quadratic_component_sums(entries[:k], d, h):
        table.setdefault((r, s), coords)
    for r, s, coords in _quadratic_component_sums(entries[k:], d, h):
        hit = table.get((-r, -s))
        if hit is None:
            continue
        full = hit + coords
        if any(a or b for a, b in full):
            return full
    return None


def check_quadratic_witness(entries, d, witness) -> bool:
    rat = sum(c * (a * a + d * b * b) for c, (a, b) in zip(entries, witness))
    irr = sum(c * a * b for c, (a, b) in zip(entries, witness))
    return rat == 0 and irr == 0 and any(a or b for a, b in witness)


# ----------------------------------------------------------------------
# Generic routes and searches behind the engine's closed forms.


def in_G_via_tensor(phi, c) -> bool:
    """c in G(phi) iff the Pfister multiple <<c>> (x) phi is hyperbolic."""
    return is_hyperbolic(tensor(pfister([squarefree_rep(c)]), phi))


def in_G_via_isometry(phi, c) -> bool:
    """c in G(phi) iff c*phi is isometric to phi."""
    return is_isometric(scale(c, phi), phi)


def witt_equivalent_by_padding(phi, psi) -> bool:
    """Same Witt class: pad the smaller form with hyperbolic planes, then
    compare the complete invariants (`is_isometric`)."""
    if (phi.dim - psi.dim) % 2:
        return False
    while phi.dim < psi.dim:
        phi = orth_sum(phi, HYPERBOLIC_PLANE)
    while psi.dim < phi.dim:
        psi = orth_sum(psi, HYPERBOLIC_PLANE)
    return is_isometric(phi, psi)


def real_kernel_hasse_by_negs(aniso: int, sig: int) -> int:
    """The Hasse invariant at the real place of an anisotropic kernel of
    dimension aniso and signature sig: a diagonal form over R with negs =
    (aniso - sig)/2 negative entries has (-1)^(negs(negs-1)/2)."""
    negs = (aniso - sig) // 2
    return -1 if negs * (negs - 1) // 2 % 2 else 1


def norm_member_via_represents(c, d) -> bool:
    """c in N*_{Q(sqrt d)} iff the norm form <1, -d> represents c."""
    return represents(qform([1, -d]), c)


def is_split_by_walk(q) -> bool:
    """(a, b) splits iff its norm form <<a, b>> is isotropic."""
    return is_isotropic(norm_form(q))


def delta_trivial_by_walk(alg) -> bool:
    """The involution discriminant is trivial iff <<a, b, disc phi>> is
    hyperbolic."""
    return is_hyperbolic(pfister([alg.q.a, alg.q.b, disc(alg.phi)]))


def prop_index_check(pi, psi, M) -> bool:
    """For phi = pi (x) psi (pi a Pfister form, psi even-dimensional), the
    anisotropic kernel over any extension is pi (x) (something of dimension
    congruent to dim psi mod 2): check that the anisotropic dimension over M
    is divisible by dim pi with quotient of the right parity."""
    phi = tensor(pi, psi)
    aniso = phi.dim - 2 * witt_index_over(phi, M)
    if aniso % pi.dim:
        return False
    return (aniso // pi.dim) % 2 == psi.dim % 2


def eager_candidate_classes(support_primes, bound):
    """The candidate stream built eagerly: every product of up to four pool
    primes within the bound, sorted, each followed by its negative."""
    pool = sorted(set(support_primes) | set(_SMALL_PRIMES))
    values = {1}
    for k in range(1, _MAX_FACTORS + 1):
        for combo in combinations(pool, k):
            prod = 1
            for p in combo:
                prod *= p
            if prod <= bound:
                values.add(prod)
    for v in sorted(values):
        if v != 1:
            yield v
        yield -v


def verify_certificate_by_parts(phi, cert) -> bool:
    """The certificate verifier through the public tests, one condition at a
    time: the tower's generators nonzero and, like the multiplier,
    square-free by `squarefree_rep`, the two generators independent, the
    adjustment a nonzero rational square, phi hyperbolic by
    `is_hyperbolic_over` and the multiplier a norm by `norm_member_tower`."""
    gens = cert.tower.generators
    if len(gens) > 2:
        return False
    if any(d in (0, 1) or squarefree_rep(d) != d for d in gens):
        return False
    if len(gens) == 2 and squarefree_rep(gens[0] * gens[1]) == 1:
        return False
    if cert.multiplier == 0 or squarefree_rep(cert.multiplier) != cert.multiplier:
        return False
    adjustment = Fraction(cert.square_adjustment)
    if adjustment <= 0 or not (perfect_square(adjustment.numerator)
                              and perfect_square(adjustment.denominator)):
        return False
    return is_hyperbolic_over(phi, cert.tower) and norm_member_tower(cert.multiplier, cert.tower)


def lemma24_by_search(pi, psi, c, bound):
    """The two-stage certificate search for a hypothesis-satisfying
    (pi, psi, c): an index-raising quadratic extension with c a norm, then,
    if that does not hyperbolise, a second generator against it.  Returns
    the certificate, unverified, or None when the bound is exhausted."""
    phi = tensor(pi, psi)
    c_sf = squarefree_rep(c)

    def certificate(tower):
        return HypCertificate(c_sf, tower, Fraction(c_sf) / Fraction(c),
                              tuple(hyperbolicity_evidence(phi, tower)))

    if is_hyperbolic(phi):
        return certificate(TRIVIAL_TOWER)
    d1 = lemma_beta_search(phi, c_sf, bound)
    if d1 is None:
        return None
    L = make_tower([d1])
    if is_hyperbolic_over(phi, L):
        return certificate(L)
    for d2 in eager_candidate_classes(phi.support | prime_support([c_sf, d1]), bound):
        if d2 == d1 or not norm_member_via_represents(c_sf, d2):
            continue
        M = make_tower([d1, d2])
        if not M.downgraded and M.degree == 4 and is_hyperbolic_over(phi, M):
            return certificate(M)
    return None


# ----------------------------------------------------------------------
# Local invariants symbol by symbol, as the engine computed them before
# its class-pair kernel.  The valuations, the Legendre symbols and the
# products of square classes are computed here, not borrowed from the
# engine, so that a fault in its helpers cannot pass both sides.


def valuation_and_unit(p: int, r: Fraction) -> tuple[int, int]:
    """(v, u) with r = p^v * u / (square of a unit prime to p): v counts p
    in the numerator less p in the denominator, and u is the product of
    their parts prime to p."""
    num, den, v = r.numerator, r.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v, num * den


def euler_criterion(a: int, p: int) -> int:
    """The Legendre symbol (a|p) for an odd prime p not dividing a."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def class_times(a: int, b: int) -> int:
    """The square class of a*b for square-free a and b: their common
    factor g is squared in a*b."""
    g = gcd(a, b)
    return (a // g) * (b // g)


def hilbert_symbol_closed_form(a, b, E) -> int:
    """(a, b)_E from the valuations and units of a and b: +1 over an
    even-degree completion, the sign rule over R, the tame formula
    (-1)^(alpha beta (p-1)/2) (u|p)^beta (w|p)^alpha for p odd and Serre's
    formula for p = 2, with a = p^alpha u and b = p^beta w."""
    if E.degree % 2 == 0:
        return 1
    if E.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = E.base.p
    alpha, u = valuation_and_unit(p, Fraction(a))
    beta, w = valuation_and_unit(p, Fraction(b))
    alpha, beta = alpha % 2, beta % 2
    if p == 2:
        u, w = u % 8, w % 8
        eps_u, eps_w = (u - 1) // 2, (w - 1) // 2
        omega_u, omega_w = (u * u - 1) // 8, (w * w - 1) // 8
        t = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if t % 2 else 1
    if not (alpha or beta):
        return 1
    return euler_criterion((-1) ** (alpha * beta) * u ** beta * w ** alpha, p)


def form_class_by_symbols(entries, E) -> LocalFormClass:
    """Local invariants with n - 1 Hilbert symbols: the Hasse invariant as
    prod_j (a_1...a_{j-1}, a_j) with the prefix carried by gcd products,
    the discriminant from the square class of the final prefix."""
    n = len(entries)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    if E.is_real:
        negs = sum(1 for a in entries if a < 0)
        h = -1 if (negs * (negs - 1) // 2) % 2 else 1
        return LocalFormClass(n, -sign if negs % 2 else sign, h, n - 2 * negs)
    if E.is_complex:
        return LocalFormClass(n, 1, 1, None)
    h = 1
    prefix = entries[0] if n else 1
    for a in entries[1:]:
        h *= hilbert_symbol_closed_form(prefix, a, E)
        prefix = class_times(prefix, a)
    return LocalFormClass(n, local_square_class(sign * prefix, E), h, None)


# ----------------------------------------------------------------------
# Witt cancellation plane by plane, as the engine computed it before the
# closed form `localfields._split_planes`.


def _plane_factors(d, E) -> tuple[int, int]:
    """The factor the Hasse invariant of a form with discriminant d picks up
    when a hyperbolic plane is split off, leaving m dimensions: (P, -1)_E for
    P = (-1)^(m(m-1)/2) d, indexed by m(m-1)/2 mod 2."""
    return hilbert_symbol(d, -1, E), hilbert_symbol(-d, -1, E)


def split_planes_by_descent(s, d, n, m, E) -> int:
    """The Hasse invariant of the m-dimensional remainder of a form of
    dimension n, discriminant d and Hasse invariant s over a finite E,
    splitting off one hyperbolic plane at a time."""
    factors = _plane_factors(d, E)
    while n > m:
        n -= 2
        s *= factors[n * (n - 1) // 2 % 2]
    return s


def aniso_dim_by_descent(c: LocalFormClass, E) -> int:
    """`local_aniso_dim` at a finite place, descending two dimensions at a
    time: dimension 3 is anisotropic iff s = -(d, -1)_E, dimension 4 iff d
    is trivial and s = -(-1, -1)_E, dimension 2 iff d is not trivial."""
    n, d, s = c.dim, c.disc, c.hasse
    trivial = d == 1
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
