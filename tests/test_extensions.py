import random
from fractions import Fraction
from math import isqrt

import pytest

from oracles import check_quadratic_witness, norm_witness, quadratic_field_witness
from wittcert import arith
from wittcert.arith import DomainError, squarefree_rep
from wittcert.extensions import (
    TRIVIAL_TOWER,
    ExtensionTower,
    aniso_dim_over,
    hyperbolicity_evidence,
    is_hyperbolic_over,
    make_tower,
    norm_member,
    norm_member_tower,
    witt_index_over,
)
from wittcert.forms import pfister, qform, tensor, witt_decompose, witt_equivalent, scale
from wittcert.localfields import Place, REAL


def random_tower(rng, max_gens=2):
    ds = [rng.choice([-1, 1]) * rng.randint(2, 40) for _ in range(rng.randint(0, max_gens))]
    return make_tower(ds)


class TestMakeTower:
    def test_degrees(self):
        assert make_tower([]).degree == 1
        assert make_tower([5]).degree == 2
        assert make_tower([2, 3]).degree == 4

    def test_square_generators_discarded(self):
        assert make_tower([4]).degree == 1
        assert make_tower([9, 5]).generators == (5,)

    def test_downgrade_of_dependent_generators(self):
        t = make_tower([2, 18])
        assert t.generators == (2,) and t.downgraded
        t = make_tower([6, 24])
        assert t.generators == (6,) and t.downgraded
        t = make_tower([2, 3, 6])  # 6 = 2 * 3 lies in the Kummer subgroup
        assert t.generators == (2, 3) and t.downgraded

    def test_third_independent_generator_rejected(self):
        with pytest.raises(DomainError, match="degree > 4"):
            make_tower([2, 3, 6, 5])

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            make_tower([0])

    def test_canonical_order(self):
        assert make_tower([7, -2]).generators == (-2, 7)
        assert make_tower([-3, 3]).generators == (3, -3)

    def test_str(self):
        assert str(TRIVIAL_TOWER) == "Q"
        assert str(make_tower([-3, 2])) == "Q(sqrt 2, sqrt -3)"


def fiber(v, gens):
    """The completion of the tower Q(sqrt g : g in gens) above v and the
    number of places above v, as `hyperbolicity_evidence` of a form
    supported at v gives them from the walk over completions."""
    phi = qform([1] if v.is_real else [v.p])
    ev = next(ev for ev in hyperbolicity_evidence(phi, ExtensionTower(tuple(gens)))
              if ev.completion.base == v)
    return ev.completion, ev.multiplicity


class TestCompletionFibers:
    def test_real_fiber(self):
        E, mult = fiber(REAL, make_tower([-1]).generators)
        assert E.is_complex and mult == 1
        E, mult = fiber(REAL, make_tower([2, 3]).generators)
        assert E.is_real and mult == 4
        E, mult = fiber(REAL, make_tower([2, -3]).generators)
        assert E.is_complex and mult == 2

    def test_split_inert_ramified(self):
        # 5 = 4^2 mod 11: split.
        E, mult = fiber(Place(11), make_tower([5]).generators)
        assert E.degree == 1 and mult == 2
        # 5 has odd valuation at 5: ramified.
        E, mult = fiber(Place(5), make_tower([5]).generators)
        assert (E.e, E.f, mult) == (2, 1, 1)
        # 2 is a nonresidue mod 5: unramified quadratic.
        E, mult = fiber(Place(5), make_tower([2]).generators)
        assert (E.e, E.f, mult) == (1, 2, 1)

    def test_fiber_degree_bookkeeping(self):
        rng = random.Random(51)
        for _ in range(150):
            M = random_tower(rng)
            for p in (None, 2, 3, 5, 7, 11, 13, 17):
                v = REAL if p is None else Place(p)
                E, mult = fiber(v, M.generators)
                assert E.degree * mult == M.degree

    def test_dyadic_quartic_types(self):
        E, mult = fiber(Place(2), make_tower([5, 2]).generators)
        assert (E.e, E.f) == (2, 2) and mult == 1
        E, mult = fiber(Place(2), make_tower([-1, 2]).generators)
        assert (E.e, E.f) == (4, 1)


class TestHyperbolicOver:
    def test_frozen(self):
        assert is_hyperbolic_over(qform([1, -1]), make_tower([10]))
        assert is_hyperbolic_over(qform([1, -5]), make_tower([5]))
        assert is_hyperbolic_over(pfister([2, 5, -2]), TRIVIAL_TOWER)
        assert not is_hyperbolic_over(qform([1, -3]), make_tower([-1]))
        assert not is_hyperbolic_over(qform([1, 1]), make_tower([3]))
        assert is_hyperbolic_over(qform([1, 1]), make_tower([-1]))

    def test_odd_dimension_never_hyperbolic(self):
        rng = random.Random(52)
        for _ in range(30):
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(3)])
            assert not is_hyperbolic_over(phi, random_tower(rng))

    def test_kernel_law(self):
        # <<d>> (x) theta becomes hyperbolic over Q(sqrt d).
        rng = random.Random(53)
        for _ in range(80):
            d = squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 50))
            if d == 1:
                continue
            theta = qform([rng.choice([-1, 1]) * rng.randint(1, 20)
                           for _ in range(rng.randint(1, 3))])
            assert is_hyperbolic_over(tensor(pfister([d]), theta), make_tower([d]))

    def test_kernel_law_converse_small(self):
        # If phi is anisotropic over Q but hyperbolic over Q(sqrt d), its Witt
        # class is <<d>> (x) theta for some theta found by bounded search.
        rng = random.Random(54)
        found_cases = 0
        for _ in range(200):
            if found_cases >= 10:
                break
            d = squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 12))
            if d == 1:
                continue
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 10) for _ in range(2)])
            _, aniso, _ = witt_decompose(phi)
            if aniso != phi.dim or not is_hyperbolic_over(phi, make_tower([d])):
                continue
            pool = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 15, -15, 30, -30]
            assert any(witt_equivalent(phi, tensor(pfister([d]), qform([t])))
                       for t in pool), (phi, d)
            found_cases += 1
        assert found_cases >= 5

    def test_evidence_covers_all_relevant_places(self):
        phi = pfister([-1, -1])
        M = make_tower([-1])
        ev = hyperbolicity_evidence(phi, M)
        assert [str(e.completion.base) for e in ev] == ["real", "2"]
        assert all(e.aniso_dim == 0 for e in ev)


class TestWittIndexOver:
    def test_frozen(self):
        assert witt_index_over(qform([1, -1]), make_tower([7])) == 1
        assert witt_index_over(qform([1, 1, 1, 1]), make_tower([-1])) == 2
        assert witt_index_over(qform([1, -5]), make_tower([2])) == 0

    def test_trivial_tower_matches_base(self):
        rng = random.Random(55)
        for _ in range(60):
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 20)
                         for _ in range(rng.randint(1, 5))])
            assert witt_index_over(phi, TRIVIAL_TOWER) == witt_decompose(phi)[0]

    def test_monotone_under_extension(self):
        rng = random.Random(56)
        for _ in range(60):
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 15)
                         for _ in range(rng.randint(2, 5))])
            M = random_tower(rng)
            assert witt_index_over(phi, M) >= witt_decompose(phi)[0], (phi, M)

    @pytest.mark.parametrize("entries, gens, aniso", [
        ([1, 1], [], 2), ([1, 1], [-1], 0), ([1, 1], [-2], 2),
        ([1, -6], [2], 2), ([1, -6], [2, 3], 0), ([1, -6], [-2, -3], 0),
        ([1, 1, 1, -6], [3], 2), ([1, 1, 1, -6], [2, -3], 0),
    ])
    def test_discriminant_square_only_in_the_tower(self, entries, gens, aniso):
        # disc <1, 1> = -1, disc <1, -6> = 6 and disc <1, 1, 1, -6> = -6: a
        # square in the tower exactly when a product of its generators is.
        assert aniso_dim_over(qform(entries), make_tower(gens)) == aniso

    @pytest.mark.parametrize("gens", [(12,), (4,), (2, 12), (Fraction(1, 3),),
                                      (-1, -1), (1,), (2, 3, 5)])
    def test_non_canonical_tower_refused(self, gens):
        # Over Q(sqrt 12) = Q(sqrt 3) the plane <1, -3> is hyperbolic, but
        # only canonical generators make the Kummer bound a membership test,
        # and only distinct ones, at most two, make M's degree the one the
        # multiplicities are read from.
        with pytest.raises(DomainError):
            aniso_dim_over(qform([1, -3]), ExtensionTower(gens))
        with pytest.raises(DomainError):
            hyperbolicity_evidence(qform([1, -3]), ExtensionTower(gens))

    def test_kummer_bound_on_planes(self):
        # <1, -d> is hyperbolic over M iff d is a square in M, i.e. iff d
        # times a product of generators is a rational square.
        rng = random.Random(62)
        for _ in range(80):
            d = squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 40))
            M = random_tower(rng)
            products = [1]
            for g in M.generators:
                products += [g * s for s in products]
            square = any(s * d > 0 and isqrt(s * d) ** 2 == s * d for s in products)
            assert aniso_dim_over(qform([1, -d]), M) == (0 if square else 2), (d, M)

    def test_aniso_parity(self):
        rng = random.Random(57)
        for _ in range(60):
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 15)
                         for _ in range(rng.randint(1, 5))])
            M = random_tower(rng)
            assert aniso_dim_over(phi, M) % 2 == phi.dim % 2

    def test_element_level_witnesses_over_quadratic_fields(self):
        # Independent route: search explicit vectors with entries a + b sqrt(d)
        # on which the form vanishes, and compare against the invariant-based
        # verdict in both directions.
        rng = random.Random(63)
        confirmed_isotropic = confirmed_anisotropic = 0
        for _ in range(120):
            d = squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 15))
            if d == 1:
                continue
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 10)
                         for _ in range(rng.randint(2, 4))])
            M = make_tower([d])
            w = quadratic_field_witness(phi.entries, d, h=4)
            if w is not None:
                assert check_quadratic_witness(phi.entries, d, w)
                assert witt_index_over(phi, M) >= 1, (phi, d, w)
                confirmed_isotropic += 1
            elif aniso_dim_over(phi, M) == phi.dim:
                confirmed_anisotropic += 1
        assert confirmed_isotropic >= 40, confirmed_isotropic
        assert confirmed_anisotropic >= 10, confirmed_anisotropic

    def test_engine_isotropy_over_quadratic_field_is_witnessed(self):
        # The demanding direction: when the engine says the form gains
        # isotropy over Q(sqrt d), a small element-level witness must exist.
        rng = random.Random(64)
        witnessed = 0
        for _ in range(150):
            if witnessed >= 25:
                break
            d = squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 10))
            if d == 1:
                continue
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 6)
                         for _ in range(rng.choice([2, 3]))])
            M = make_tower([d])
            if witt_decompose(phi)[0] == 0 and witt_index_over(phi, M) > 0:
                w = quadratic_field_witness(phi.entries, d, h=8)
                assert w is not None, (phi, d)
                assert check_quadratic_witness(phi.entries, d, w)
                witnessed += 1
        assert witnessed >= 15, witnessed

    def test_biquadratic_monotone_under_subtowers(self):
        # The anisotropic dimension over Q(sqrt d1, sqrt d2) is bounded by the
        # value over each of the three quadratic subtowers; this exercises the
        # quartic completions (both dyadic types) against the quadratic ones.
        rng = random.Random(62)
        hit = 0
        while hit < 60:
            d1 = squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 20))
            d2 = squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 20))
            M = make_tower([d1, d2])
            if M.degree != 4:
                continue
            hit += 1
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 15)
                         for _ in range(rng.randint(1, 5))])
            a_M = aniso_dim_over(phi, M)
            for sub in ([d1], [d2], [squarefree_rep(d1 * d2)], []):
                assert a_M <= aniso_dim_over(phi, make_tower(sub))


class TestNormGroups:
    def test_frozen(self):
        assert norm_member(-1, 2)      # -1 = N(1 + sqrt 2)
        assert not norm_member(3, 2)   # x^2 - 2y^2 = 3 has no solution mod 8
        assert norm_member(4, 7)       # squares are norms
        assert norm_member(2, 2)
        assert not norm_member(3, 3)
        assert norm_member(-3, 3)

    def test_trivial_extension_rejected(self):
        with pytest.raises(DomainError):
            norm_member(5, 1)

    def test_witness_agreement(self):
        rng = random.Random(58)
        hits = 0
        for _ in range(250):
            d = squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 20))
            if d == 1:
                continue
            c = rng.randint(-30, 30) or 1
            w = norm_witness(c, d, height=60)
            if w is not None:
                x, y, z = w
                assert x * x - d * y * y == c * z * z and z
                assert norm_member(c, d), (c, d, w)
                hits += 1
        assert hits > 40

    def test_multiplicativity(self):
        rng = random.Random(59)
        for _ in range(150):
            d = squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 30))
            if d == 1:
                continue
            c1 = rng.randint(-40, 40) or 1
            c2 = rng.randint(-40, 40) or 1
            if norm_member(c1, d) and norm_member(c2, d):
                assert norm_member(c1 * c2, d)

    def test_tower_membership(self):
        assert norm_member_tower(7, TRIVIAL_TOWER)
        assert norm_member_tower(25, make_tower([2, 3]))
        assert norm_member_tower(-1, make_tower([2]))
        # -1 is a norm from Q(sqrt 2) but not from Q(sqrt 3).
        assert not norm_member_tower(-1, make_tower([2, 3]))

    def test_biquadratic_is_intersection(self):
        rng = random.Random(60)
        for _ in range(80):
            M = make_tower([rng.choice([-1, 1]) * rng.randint(2, 20),
                            rng.choice([-1, 1]) * rng.randint(2, 20)])
            if M.degree != 4:
                continue
            c = rng.randint(-30, 30) or 1
            d1, d2 = M.generators
            assert norm_member_tower(c, M) == (norm_member(c, d1) and norm_member(c, d2))

    def test_tower_membership_factors_each_number_once(self, monkeypatch):
        M = make_tower([2, 3])
        calls = []
        factorize = arith.factorize
        monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
        assert norm_member_tower(73, M)
        assert sorted(calls) == [2, 3, 73]
        # The trivial tower holds every c, which is never factored.
        calls.clear()
        assert norm_member_tower(2 ** 127 - 1, TRIVIAL_TOWER)
        assert calls == []

    def test_tower_membership_refusals(self):
        with pytest.raises(DomainError):
            norm_member_tower(0, make_tower([2]))
        with pytest.raises(DomainError):
            norm_member_tower(Fraction(0), TRIVIAL_TOWER)
        # A hand-built tower with a trivial generator, met first or after a
        # generator that c passes.
        for gens in [(1,), (4,), (2, 1)]:
            with pytest.raises(DomainError):
                norm_member_tower(7, ExtensionTower(gens))


def test_scaling_invariance_of_hyperbolicity_over():
    rng = random.Random(61)
    for _ in range(40):
        phi = qform([rng.choice([-1, 1]) * rng.randint(1, 12)
                     for _ in range(rng.choice([2, 4]))])
        M = random_tower(rng)
        c = rng.randint(-10, 10) or 1
        assert is_hyperbolic_over(phi, M) == is_hyperbolic_over(scale(c, phi), M)
