import itertools
import random
from fractions import Fraction

import pytest

from dyadic_oracle import (
    DYADIC_CLASSES,
    build_model,
    residue_hilbert_symbol,
    residue_square_test,
    two_adic_subgroup,
)
from oracles import (
    class_number,
    hilbert_oracle_odd,
    hilbert_oracle_q2,
    hilbert_symbol_closed_form,
    kummer_group,
    least_coset_member,
    least_member,
    square_mod_2_15,
)
from wittcert.arith import DomainError, prime_support, squarefree_rep
from wittcert.localfields import (
    REAL,
    LocalField,
    LocalFormClass,
    Place,
    form_class_at,
    hilbert_symbol,
    local_aniso_dim,
    local_square_class,
)

Q2 = LocalField(Place(2))
Q3 = LocalField(Place(3))
Q5 = LocalField(Place(5))
R = LocalField(REAL)
C = LocalField(REAL, gens=(-1,))


def derived(v, gens, e, f) -> LocalField:
    """`LocalField(v, gens)`, checked to keep the canonical generators `gens`
    and to derive the given e and f."""
    E = LocalField(v, gens)
    assert (E.gens, E.e, E.f) == (tuple(gens), e, f), repr(E)
    return E


def all_quartic_subgroups():
    out = set()
    for c1, c2 in itertools.combinations(DYADIC_CLASSES[1:], 2):
        sub = two_adic_subgroup([c1, c2])
        if len(sub) == 4:
            out.add(sub)
    return sorted(out, key=sorted)


def dyadic_completion(sub) -> LocalField:
    """The completion of Q_2 cut out by a square-class subgroup."""
    f = 2 if 5 in sub else 1
    return derived(Place(2), tuple(sorted(sub - {1})[:2]), len(sub) // f, f)


ALL_DYADIC_COMPLETIONS = (
    [Q2]
    + [dyadic_completion(two_adic_subgroup([c])) for c in DYADIC_CLASSES[1:]]
    + [dyadic_completion(sub) for sub in all_quartic_subgroups()]
)


class TestDyadicModels:
    def test_all_fourteen_extensions_build(self):
        for c in DYADIC_CLASSES[1:]:
            m = build_model(frozenset({1, c}))
            assert m.e * m.f == 2
            assert (m.f == 2) == (c == 5)
        subs = all_quartic_subgroups()
        assert len(subs) == 7
        for sub in subs:
            m = build_model(sub)
            assert m.e * m.f == 4
            assert (m.f == 2) == (5 in sub)

    def test_square_test_matches_kummer(self):
        # Element-level residue search against the Galois-theoretic answer,
        # which is what local_square_class computes.
        for c in DYADIC_CLASSES[1:]:
            m = build_model(frozenset({1, c}))
            E = dyadic_completion(frozenset({1, c}))
            for d in DYADIC_CLASSES:
                assert m.is_square(d) == (d in {1, c}) == (local_square_class(d, E) == 1)
        for sub in all_quartic_subgroups()[:3]:
            m = build_model(sub)
            E = dyadic_completion(sub)
            for d in DYADIC_CLASSES:
                assert m.is_square(d) == (d in sub) == (local_square_class(d, E) == 1)


class TestHilbertSymbolQ2:
    def test_frozen(self):
        assert hilbert_symbol(-1, -1, Q2) == -1
        assert hilbert_symbol(1, 5, Q2) == 1
        assert hilbert_symbol(2, 5, Q2) == -1
        assert hilbert_symbol(-1, 7, Q2) == -1  # x^2 + y^2 = 7 mod 8 unsolvable
        assert hilbert_symbol(-1, -7, Q2) == 1

    def test_exhaustive_vs_residue_oracle(self):
        signed = [s * c for c in DYADIC_CLASSES for s in (1, -1)]
        for a in signed:
            for b in signed:
                assert hilbert_symbol(a, b, Q2) == hilbert_oracle_q2(a, b), (a, b)

    def test_closed_form_matches_residue_search_on_every_dyadic_completion(self):
        # Every class pair over Q_2 and its 7 quadratic and 7 biquadratic
        # extensions: the closed form against element-level residue searches.
        assert len(ALL_DYADIC_COMPLETIONS) == 15
        assert len({E.gens for E in ALL_DYADIC_COMPLETIONS}) == 15
        minus = 0
        for E in ALL_DYADIC_COMPLETIONS:
            for a in DYADIC_CLASSES:
                for b in DYADIC_CLASSES:
                    expected = residue_hilbert_symbol(a, b, E)
                    assert hilbert_symbol(a, b, E) == expected, (a, b, str(E))
                    minus += expected == -1
        assert minus > 0


class TestHilbertSymbolOdd:
    def test_frozen(self):
        assert hilbert_symbol(2, 5, Q5) == -1
        assert hilbert_symbol(1, 7, Q3) == 1
        assert hilbert_symbol(3, 3, Q3) == -1  # (3,3) = (3,-1) = legendre(-1|3)

    def test_vs_residue_oracle(self):
        rng = random.Random(21)
        for p in (3, 5, 7, 11):
            E = LocalField(Place(p))
            for _ in range(40):
                a = squarefree_rep(rng.randint(-60, 60) or 1)
                b = squarefree_rep(rng.randint(-60, 60) or 1)
                assert hilbert_symbol(a, b, E) == hilbert_oracle_odd(a, b, p), (p, a, b)


class TestSymbolLaws:
    FIELDS = [
        R, C, Q2, Q3, Q5,
        derived(Place(3), (3,), 2, 1),
        derived(Place(5), (2,), 1, 2),
        derived(Place(2), (5,), 1, 2),
        derived(Place(2), (7,), 2, 1),
        derived(Place(2), (3, 5), 2, 2),
        derived(Place(2), (2, 7), 4, 1),
    ]

    def test_symmetry_bimultiplicativity_antidiagonal(self):
        rng = random.Random(22)
        for _ in range(150):
            a = rng.randint(-40, 40) or 1
            b = rng.randint(-40, 40) or 1
            c = rng.randint(-40, 40) or 1
            for E in self.FIELDS:
                sab = hilbert_symbol(a, b, E)
                assert sab == hilbert_symbol(b, a, E)
                assert hilbert_symbol(a, -a, E) == 1
                assert hilbert_symbol(a * c, b, E) == sab * hilbert_symbol(c, b, E)

    def test_product_formula(self):
        rng = random.Random(23)
        for _ in range(400):
            a = rng.randint(-99, 99) or 1
            b = rng.randint(-99, 99) or 1
            prod = hilbert_symbol(a, b, R)
            for p in sorted(prime_support([a, b])):
                prod *= hilbert_symbol(a, b, LocalField(Place(p)))
            assert prod == 1, (a, b)

    def test_even_degree_extensions_split_everything(self):
        # Rational symbols restrict trivially to any even-degree completion
        # (norm compatibility).
        for E in self.FIELDS:
            if E.degree < 2 or E.base.is_real:
                continue
            for a in (-1, 2, -2, 5, 3, -10):
                for b in (-1, 2, 7, -5, 6):
                    assert hilbert_symbol(a, b, E) == 1, (str(E), a, b)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            hilbert_symbol(0, 3, Q2)


class TestLocalSquareClass:
    def test_frozen(self):
        assert local_square_class(4, Q5) == 1
        assert local_square_class(2, Q5) == 2  # least nonresidue mod 5
        assert local_square_class(-1, R) == -1
        assert local_square_class(-1, C) == 1
        assert local_square_class(17, Q2) == 1
        assert local_square_class(5, Q2) == 5

    def test_reduction_modulo_tower_generators(self):
        E = derived(Place(2), (5,), 1, 2)
        assert local_square_class(5, E) == 1
        assert local_square_class(10, E) == 2
        E7 = derived(Place(7), (7,), 2, 1)
        assert local_square_class(7, E7) == 1
        assert local_square_class(14, E7) == local_square_class(2, E7)

    def test_agrees_with_dyadic_square_test(self):
        # Kummer reduction against the residue-search square test of the oracle.
        rng = random.Random(24)
        fields = [Q2,
                  derived(Place(2), (5,), 1, 2),
                  derived(Place(2), (14,), 2, 1),
                  derived(Place(2), (3, 5), 2, 2)]
        for _ in range(80):
            a = rng.randint(-100, 100) or 1
            for E in fields:
                assert (local_square_class(a, E) == 1) == residue_square_test(a, E), (a, str(E))


def odd_completions(p: int) -> list[LocalField]:
    """Q_p and its completions for every Kummer group of one or two
    generators, the generators taken among the least members of the classes."""
    reps = [least_member(i, p) for i in (1, 2, 3)]
    gen_sets = [()] + [(g,) for g in reps] + list(itertools.combinations(reps, 2))
    return [LocalField(Place(p), gens) for gens in gen_sets]


# Rationals n/d over a small box, with 2, 3, 5 and 7 in both n and d.
BOX = [Fraction(n, d) for n in range(-10, 11) if n for d in range(1, 9)]
SECOND = [Fraction(n, d) for n in (-6, -3, -2, -1, 1, 2, 3, 5, 7) for d in (1, 2, 3, 4)]


class TestRationalArguments:
    """`hilbert_symbol` and `local_square_class` on n/d equal their values on
    the integer n d, and the class-number oracles, over every dyadic
    completion and Q_3, Q_5, Q_7 with their quadratic extensions."""

    FIELDS = ALL_DYADIC_COMPLETIONS + [E for p in (3, 5, 7) for E in odd_completions(p)
                                       if E.degree <= 2]

    def test_hilbert_symbol(self):
        assert len(self.FIELDS) == 15 + 3 * 4
        for E in self.FIELDS:
            for a in BOX:
                n = a.numerator * a.denominator
                for b in SECOND:
                    m = b.numerator * b.denominator
                    expected = hilbert_symbol_closed_form(a, b, E)
                    assert hilbert_symbol(a, b, E) == hilbert_symbol(n, m, E) == expected, (
                        str(E), a, b)

    def test_local_square_class(self):
        for E in self.FIELDS:
            p = E.base.p
            group = kummer_group(E.gens, p)
            for a in BOX:
                n = a.numerator * a.denominator
                expected = least_coset_member(class_number(n, p), group, p)
                assert local_square_class(a, E) == local_square_class(n, E) == expected, (
                    str(E), a)


class TestRepresentativeTables:
    """The square class of each base class is the least member of its coset
    modulo the Kummer group, as the oracle computes it, over every dyadic
    completion and every Kummer group of one or two generators at odd p."""

    @staticmethod
    def check(E, p):
        group = kummer_group(E.gens, p)
        assert E.kummer == group, str(E)
        for i in range(8 if p == 2 else 4):
            expected = least_coset_member(i, group, p)
            for k in (1, 3, 4):  # other members of the class: times k^2
                assert local_square_class(least_member(i, p) * k * k, E) == expected, (str(E), i)

    def test_every_dyadic_completion(self):
        for E in ALL_DYADIC_COMPLETIONS:
            self.check(E, 2)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_odd_kummer_group(self, p):
        fields = odd_completions(p)
        assert [E.degree for E in fields] == [1, 2, 2, 2, 4, 4, 4]
        for E in fields:
            self.check(E, p)


class TestDyadicSquareTest:
    # "a is a square in E" is local_square_class(a, E) == 1; the residue
    # search of the oracle is checked alongside.
    def test_frozen(self):
        for a, square in ((9, True), (17, True), (5, False), (2, False), (-7, True)):
            assert (local_square_class(a, Q2) == 1) == square, a
            assert residue_square_test(a, Q2) == square, a

    def test_brute_force_agreement(self):
        # Units of height <= 100 against x^2 = u mod 2^15.
        for u in range(-99, 100, 2):
            assert (local_square_class(u, Q2) == 1) == square_mod_2_15(u), u
            assert residue_square_test(u, Q2) == square_mod_2_15(u), u

    def test_odd_place_rejected(self):
        with pytest.raises(DomainError):
            residue_square_test(3, Q5)


class TestLocalAnisoDim:
    def test_frozen(self):
        Q7 = LocalField(Place(7))
        assert local_aniso_dim(form_class_at((1, -1), Q7), Q7) == 0
        assert local_aniso_dim(form_class_at((1, 1, 1, 1), R), R) == 4
        assert local_aniso_dim(form_class_at((1, 1, 1, 1), Q2), Q2) == 4
        assert local_aniso_dim(form_class_at((1, 1, 1), Q2), Q2) == 3
        assert local_aniso_dim(form_class_at((1, 1, 1, 1), Q5), Q5) == 0
        assert local_aniso_dim(form_class_at((3,), Q3), Q3) == 1

    def test_complex_parity(self):
        assert local_aniso_dim(form_class_at((1, 2, 3), C), C) == 1
        assert local_aniso_dim(form_class_at((1, 2, 3, 5), C), C) == 0

    def test_dim_five_always_isotropic_locally(self):
        rng = random.Random(25)
        for _ in range(60):
            entries = tuple(squarefree_rep(rng.randint(-30, 30) or 1) for _ in range(5))
            for E in (Q2, Q3, Q5):
                assert local_aniso_dim(form_class_at(entries, E), E) <= 3

    def test_split_class_detection(self):
        # aniso dim 0 iff even dim, trivial disc, split hasse (signature 0 at R).
        rng = random.Random(26)
        for _ in range(120):
            entries = tuple(squarefree_rep(rng.randint(-20, 20) or 1)
                            for _ in range(rng.choice([2, 4])))
            for E in (Q2, Q3, Q5, R):
                cls = form_class_at(entries, E)
                dim0 = local_aniso_dim(cls, E) == 0
                hyp_ref = form_class_at(tuple([1, -1] * (len(entries) // 2)), E)
                expected = (cls.disc == hyp_ref.disc and cls.hasse == hyp_ref.hasse
                            and cls.signature == hyp_ref.signature)
                assert dim0 == expected, (entries, str(E))

    def test_invalid_class_rejected(self):
        with pytest.raises(DomainError):
            local_aniso_dim(LocalFormClass(2, 1, 1, signature=5), R)


def test_concurrent_calls_match_sequential():
    # Concurrent calls must be observationally identical to sequential ones.
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(27)
    pairs = [(rng.randint(-60, 60) or 1, rng.randint(-60, 60) or 1) for _ in range(120)]
    fields = [Q2, Q5, derived(Place(2), (3, 5), 2, 2)]
    expected = [hilbert_symbol(a, b, E) for a, b in pairs for E in fields]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda t: hilbert_symbol(*t),
                            [(a, b, E) for a, b in pairs for E in fields]))
    assert got == expected


def test_archimedean_completions_print_as_r_and_c():
    assert (str(R), str(C)) == ("R", "C")
