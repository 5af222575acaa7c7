"""Local invariants from one factorization per entry: the class-histogram
kernel of `form_class_at` and its symbol formulas, gcd products of square
classes, the prime support a form carries, the Arason-Pfister guard's I^4
test, and the sizes of the integers the engine factorizes."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    class_number,
    class_times,
    euler_criterion,
    form_class_by_symbols,
    hilbert_symbol_closed_form,
    least_member,
    valuation_and_unit,
)
from wittcert import arith, codecs, forms
from wittcert.arith import _class_product, is_prime, padic_valuation, prime_support, squarefree_rep
from wittcert.extensions import aniso_dim_over, make_tower
from wittcert.forms import (
    QForm,
    in_In,
    is_isometric,
    is_isotropic,
    orth_sum,
    pfister,
    qform,
    scale,
    tensor,
    witt_decompose,
)
from wittcert.involutions import quaternion
from wittcert.localfields import (
    DYADIC_CLASSES,
    REAL,
    LocalField,
    Place,
    _SERRE_TABLE,
    _TAME_TABLES,
    _class_index,
    _qp_symbol,
    form_class_at,
    hilbert_symbol,
    local_aniso_dim,
    local_square_class,
)
from wittcert.similitude import thm4_decompose

FIELDS = [LocalField(REAL), LocalField(REAL, [-1])] + [LocalField(Place(p)) for p in (2, 3, 5, 7, 11, 13)]

nonzero = st.integers(-10**6, 10**6).filter(bool)
squarefree = nonzero.map(squarefree_rep)
# Square-free values with a large prime factor now and then, so that forms
# carry places beyond the small primes.
entry = st.one_of(squarefree, squarefree.map(lambda a: _class_product(a, 1000003)))
entries = st.lists(entry, max_size=8)


def all_pairs_class(es, E):
    """The definition: disc from the full product, Hasse from every pair."""
    n = len(es)
    prod = (-1) ** (n * (n - 1) // 2)
    for a in es:
        prod *= a
    h = 1
    for i in range(n):
        for j in range(i + 1, n):
            h *= hilbert_symbol(es[i], es[j], E)
    return local_square_class(prod, E), h


class TestPrefixHasse:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(nonzero, max_size=24), st.sampled_from(FIELDS))
    def test_prefix_hasse_matches_all_pairs(self, es, E):
        cls = form_class_at(tuple(es), E)
        assert (cls.disc, cls.hasse) == all_pairs_class(es, E)
        assert cls.dim == len(es)

    def test_symbol_calls_per_local_decision(self, monkeypatch):
        # form_class_at works on class histograms alone; local_aniso_dim
        # needs at most two symbols.
        import wittcert.localfields as lf

        calls = []
        original = lf.hilbert_symbol
        monkeypatch.setattr(lf, "hilbert_symbol", lambda *a: calls.append(a) or original(*a))
        rng = random.Random(8)
        for E in FIELDS + completions(rng, 30):
            for n in (0, 1, 2, 3, 4, 5, 8, 24):
                es = tuple(rng.choice([-1, 1]) * rng.randint(1, 10**4) for _ in range(n))
                calls.clear()
                cls = form_class_at(es, E)
                assert calls == [], (str(E), es)
                local_aniso_dim(cls, E)
                assert len(calls) <= 3, (str(E), es)


def completions(rng, towers):
    """Every distinct completion of random towers of degree 2 and 4 at the
    real place, 2, 3, 5, 7 and the primes of the generators."""
    out = {}
    for _ in range(towers):
        M = make_tower([squarefree_rep(rng.choice([-1, 1]) * rng.randint(2, 60))
                        for _ in range(rng.randint(1, 2))])
        for v in [REAL] + [Place(p) for p in sorted(prime_support(M.generators) | {3, 5, 7})]:
            out[LocalField(v, M.generators)] = None
    return list(out)


class TestClassKernel:
    """The class-histogram kernel against the symbol-by-symbol computation
    and against the all-pairs definition."""

    def test_every_completion_kind(self):
        rng = random.Random(88)
        fields = FIELDS + completions(rng, 60)
        kinds = {("real" if E.base.is_real else "dyadic" if E.base.p == 2 else "odd", E.degree, E.e)
                 for E in fields}
        # R and C; over Q_2 and Q_p the base, ramified and unramified
        # quadratic, and biquadratic completions (totally ramified only at 2).
        assert kinds == {("real", 1, 1), ("real", 2, 1),
                         ("dyadic", 1, 1), ("dyadic", 2, 2), ("dyadic", 2, 1),
                         ("dyadic", 4, 2), ("dyadic", 4, 4),
                         ("odd", 1, 1), ("odd", 2, 2), ("odd", 2, 1), ("odd", 4, 2)}
        for E in fields:
            for _ in range(40):
                n = rng.choice([0, 1, 2, 3, 4, 5, 6, 8, 12, 24])
                es = tuple(rng.choice([-1, 1]) * rng.choice([rng.randint(1, 200), rng.randint(1, 10**6)])
                           for _ in range(n))
                cls = form_class_at(es, E)
                assert cls == form_class_by_symbols(es, E), (str(E), es)
                assert (cls.disc, cls.hasse) == all_pairs_class(es, E), (str(E), es)


class TestClassSymbols:
    """The symbol tables on class numbers against the closed form written on
    valuations and units, on every pair of square classes."""

    def test_serre_formula_on_all_dyadic_class_pairs(self):
        Q2 = LocalField(Place(2))
        reps = [least_member(i, 2) for i in range(8)]
        assert tuple(reps) == DYADIC_CLASSES == Q2.reps
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                expected = hilbert_symbol_closed_form(a, b, Q2)
                assert (-1) ** _SERRE_TABLE[i][j] == expected, (a, b)
                assert _qp_symbol(a, b, 2) == hilbert_symbol(a, b, Q2) == expected
                # Another representative of each class: times 4 and 9.
                assert _class_index(4 * a, 2) == class_number(4 * a, 2) == i
                assert _class_index(9 * b, 2) == class_number(9 * b, 2) == j

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 10007, 10009])
    def test_tame_formula_on_all_odd_class_pairs(self, p):
        E = LocalField(Place(p))
        eps = (p - 1) // 2 % 2
        reps = [least_member(i, p) for i in range(4)]
        assert tuple(reps) == E.reps
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                expected = hilbert_symbol_closed_form(a, b, E)
                assert (-1) ** _TAME_TABLES[eps][i][j] == expected, (a, b)
                assert _qp_symbol(a, b, p) == hilbert_symbol(a, b, E) == expected
                # Another representative of each class: times p^2 and 4.
                assert _class_index(a * p * p, p) == class_number(a * p * p, p) == i
                assert _class_index(4 * b, p) == class_number(4 * b, p) == j


    @pytest.mark.parametrize("E", [LocalField(REAL), LocalField(REAL, [-1])], ids=str)
    def test_sign_rule_on_all_real_class_pairs(self, E):
        # R*/R*^2 is numbered like Q_p*/Q_p*^2: 0 positive, 1 negative.
        assert E.reps == ((1, -1) if E.is_real else (1, 1))
        for i, a in enumerate((1, -1)):
            for j, b in enumerate((1, -1)):
                expected = hilbert_symbol_closed_form(a, b, E)
                assert expected == (-1 if E.is_real and a < 0 and b < 0 else 1)
                # Another representative of each class: times 2 and 1/3.
                assert hilbert_symbol(a, b, E) == hilbert_symbol(2 * a, Fraction(b, 3), E) == expected
                assert _class_index(a, None) == _class_index(-3 * a, None) ^ 1 == i
                if E.is_real:
                    assert _qp_symbol(a, b, None) == expected
        for a in (1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3)):
            assert local_square_class(a, E) == (1 if a > 0 or not E.is_real else -1)


class TestClassProduct:
    @settings(max_examples=500, deadline=None)
    @given(squarefree, squarefree)
    def test_squarefree_operands(self, a, b):
        assert _class_product(a, b) == squarefree_rep(a * b)

    @settings(max_examples=300, deadline=None)
    @given(nonzero, nonzero)
    def test_any_operands_keep_the_class(self, a, b):
        assert squarefree_rep(_class_product(a, b)) == squarefree_rep(a * b)


class TestOracleArithmetic:
    """The symbol oracle's own valuations, Legendre symbols and class
    products, checked against their definitions; the valuation also
    against `padic_valuation`."""

    def test_legendre_matches_residue_scan(self):
        for p in (3, 5, 7, 11, 13):
            residues = {x * x % p for x in range(1, p)}
            for a in range(-2 * p, 2 * p):
                if a % p:
                    assert euler_criterion(a, p) == (1 if a % p in residues else -1)

    @settings(max_examples=300, deadline=None)
    @given(nonzero, st.integers(1, 10**4), st.sampled_from((2, 3, 5, 1000003)))
    def test_valuation_and_unit(self, num, den, p):
        r = Fraction(num, den)
        v, u = valuation_and_unit(p, r)
        assert u % p and squarefree_rep(u * Fraction(p) ** v / r) == 1
        assert v == padic_valuation(p, r)

    @settings(max_examples=300, deadline=None)
    @given(squarefree, squarefree)
    def test_class_times(self, a, b):
        assert class_times(a, b) == squarefree_rep(a * b)


def descriptor(draw_leaf, depth):
    """Composable JSON form descriptors, as codecs.parse_form reads them."""
    if depth == 0:
        return draw_leaf
    sub = st.deferred(lambda: descriptor(draw_leaf, depth - 1))
    return st.one_of(
        draw_leaf,
        st.lists(sub, min_size=1, max_size=2).map(lambda xs: {"tensor": xs}),
        st.lists(sub, min_size=1, max_size=3).map(lambda xs: {"sum": xs}),
        st.tuples(nonzero, sub).map(lambda t: {"scale": [t[0], t[1]]}),
    )


leaf = st.one_of(
    st.lists(nonzero, min_size=1, max_size=3).map(lambda xs: {"diag": xs}),
    st.lists(nonzero, max_size=2).map(lambda xs: {"pfister": xs}),
)


class TestSupport:
    def check(self, phi):
        """The support is exactly 2 and the primes dividing an entry, tested
        without factoring the entries, which may lie beyond the exactness
        limit when they are derived products."""
        assert isinstance(phi.support, frozenset)
        assert 2 in phi.support and all(is_prime(p) for p in phi.support)
        for a in phi.entries:
            for p in phi.support:
                if a % p == 0:
                    a //= p
            assert a in (1, -1), phi
        assert all(any(a % p == 0 for a in phi.entries) for p in phi.support - {2})

    @settings(max_examples=100, deadline=None)
    @given(entries, entries, nonzero, st.lists(nonzero, max_size=3))
    # An entry of each tensor product, 4.4 * 10^24 and 5.1 * 10^24, lies
    # beyond the exactness limit of factorization.
    @example([5482016446], [1], 1, [55957, 92297, 154217])
    @example([435288305861], [1], 1, [694, 23753, 709679])
    def test_every_constructor(self, xs, ys, c, slots):
        phi, psi = QForm(tuple(xs)), qform(ys)
        for form in (phi, psi, orth_sum(phi, psi), tensor(phi, psi), scale(c, psi),
                     pfister(slots), tensor(pfister(slots), phi)):
            self.check(form)

    @settings(max_examples=100, deadline=None)
    @given(descriptor(leaf, 2))
    def test_parsed_descriptors(self, desc):
        self.check(codecs.parse_form(desc))

    def test_support_stays_out_of_value(self):
        phi, psi = qform([3, 5]), QForm((3, 5))
        assert phi == psi and hash(phi) == hash(psi)
        assert repr(phi) == "QForm(entries=(3, 5))"
        assert codecs.dump_form(tensor(phi, psi)) == {"diag": [1, 15, 15, 1]}


class TestArasonPfisterGuard:
    def test_guard_agrees_with_in_In(self, monkeypatch):
        # The guard and in_In share one I^n criterion, `forms._in_I`; the
        # guard feeds it the classes witt_decompose already holds.
        verdicts = []
        original = forms._in_I

        def recording(*args):
            verdicts.append(original(*args))
            return verdicts[-1]

        monkeypatch.setattr(forms, "_in_I", recording)
        rng = random.Random(5)
        cases = [pfister([2, 3, 5, 7]), pfister([-1, -1, -1, -1]),
                 tensor(pfister([-1, -1]), qform([1, 1, 1, 1, 1, -3])),
                 tensor(pfister([2, 5]), qform([1, 1, 1, 1, 1, 2])),
                 orth_sum(pfister([2, 3, 5]), scale(-1, pfister([2, 3, 5]))),
                 qform([1] * 16), qform([1] * 8 + [-1] * 8), qform([1, -1])]
        for _ in range(60):
            slots = [rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(rng.randint(2, 4))]
            form = pfister(slots)
            if rng.random() < 0.5:
                form = scale(rng.randint(-30, 30) or 1, form)
            cases.append(orth_sum(form, qform([rng.choice([-1, 1]) * rng.randint(1, 30)
                                               for _ in range(rng.choice([0, 2, 4]))])))
        for phi in cases:
            verdicts.clear()
            witt_decompose(phi)
            guard = list(verdicts)
            assert guard == [in_In(phi, 4)], phi
        assert {True, False} <= {in_In(phi, 4) for phi in cases}


class TestFactorizationSizes:
    """The engine factorizes each entry, never a product of entries."""

    FORMS = [
        (1, 1000000000039, -3000000000013),
        (1, -73, -318665857834031151167461),
        (1000003, -1000033, 1000037, -1000039, 6),
        (-2, 1000003 * 1000033, -1000037, 7, -7 * 1000037, 1000039),
    ]

    @pytest.fixture
    def factored(self, monkeypatch):
        args = []
        original = arith.factorize
        monkeypatch.setattr(arith, "factorize", lambda n, *a: args.append(n) or original(n, *a))
        return args

    @pytest.mark.parametrize("entries", FORMS)
    def test_no_argument_exceeds_the_largest_entry(self, factored, entries):
        phi = QForm(entries)
        other = QForm(tuple(reversed(entries)))
        tower = make_tower([-1, 3])
        bits = max(abs(a).bit_length() for a in entries)
        factored.clear()
        is_isotropic(phi)
        witt_decompose(phi)
        is_isometric(phi, other)
        in_In(phi, 4)
        in_In(orth_sum(phi, phi), 3)
        aniso_dim_over(phi, tower)
        assert max((abs(n).bit_length() for n in factored), default=0) <= bits

    def test_thm4_decompose_factors_no_product(self, factored):
        # The slots are classes of products of two and four entries.
        phi4 = QForm((1000000000039, -3000000000013, 1000000000061, -1000000000063))
        q = quaternion(3, 5)
        bits = max(abs(a).bit_length() for a in phi4.entries)
        factored.clear()
        thm4_decompose(phi4, q).reassemble()
        assert max(abs(n).bit_length() for n in factored) <= bits

    def test_qform_factors_each_value_once(self, factored):
        values = [12, -1000000000039, 3000000000013 * 4, 18, -7]
        phi = qform(values)
        assert len(factored) == len(values)
        assert phi.entries == (3, -1000000000039, 3000000000013, 2, -7)
