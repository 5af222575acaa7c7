"""Local invariants from class histograms: `form_class_at` over a finite
completion counts how many entries lie in each class of Q_p*/Q_p*^2 and
reads the discriminant and the Hasse invariant off those counts.

Over R and C, whose square classes are the two signs, every sign pattern
up to dimension 8 is checked.  The invariants depend on each count only modulo 4 (the multiplicity law
involves m mod 2 and m(m-1)/2 mod 2), so every count vector in {0..3}^k
covers the kernel on a field with k base classes; it is compared there with
the symbol-by-symbol computation in `oracles`.  Properties: the product
formula and invariance under permuting the entries and under square
factors."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import class_number, form_class_by_symbols
from wittcert.arith import squarefree_rep
from wittcert.forms import qform
from wittcert.localfields import (
    REAL,
    LocalField,
    Place,
    _class_histogram,
    form_class_at,
    local_aniso_dim,
)


def representatives(p: int, per_class: int = 3) -> list[list[int]]:
    """A few integers of each class, square-free or not, so that both the
    unit path and the valuation path of the kernel are taken."""
    k = 8 if p == 2 else 4
    reps = [[] for _ in range(k)]
    pool = list(range(-600, 601))
    random.Random(p).shuffle(pool)
    for a in pool:
        if a and len(reps[class_number(a, p)]) < per_class:
            reps[class_number(a, p)].append(a)
    assert all(len(r) == per_class for r in reps)
    return reps


EVEN_TOWER = LocalField(Place(2), [-1])      # Q_2(sqrt -1), ramified
ODD_TOWER = LocalField(Place(17), [-1, 2])   # 17 splits completely: Q_17


class TestEveryCountVector:
    @pytest.mark.parametrize("E", [LocalField(Place(3)), LocalField(Place(5)),
                                   LocalField(Place(2)), EVEN_TOWER, ODD_TOWER],
                             ids=str)
    def test_against_symbol_by_symbol(self, E):
        assert E.degree == (2 if E is EVEN_TOWER else 1)
        p = E.base.p
        reps = representatives(p)
        rng = random.Random(17 * p + E.degree)
        seen = set()
        for counts in product(range(4), repeat=len(reps)):
            entries = [reps[i][j % len(reps[i])] for i, m in enumerate(counts) for j in range(m)]
            rng.shuffle(entries)
            entries = tuple(entries)
            assert _class_histogram(entries, p) == list(counts)
            cls = form_class_at(entries, E)
            assert cls == form_class_by_symbols(entries, E), (str(E), counts)
            seen.add((cls.disc, cls.hasse))
        # Every discriminant class occurs, with both Hasse invariants over Q_p.
        classes = len(reps) if E.degree == 1 else len(reps) // 2
        assert len(seen) == classes * (2 if E.degree % 2 else 1)

    @pytest.mark.parametrize("E", [LocalField(REAL), LocalField(REAL, [-1])], ids=str)
    def test_every_sign_pattern(self, E):
        """R*/R*^2 has two classes, so every sign pattern of dimension 0 to
        8 is checked: the kernel against the sign formulas of the oracle,
        and the anisotropic dimension, |signature| over R and n mod 2 over C."""
        rng = random.Random(E.degree)
        for n in range(9):
            for signs in product((1, -1), repeat=n):
                entries = tuple(s * rng.choice((1, 2, 3, 5, 12, 1000003)) for s in signs)
                negs = signs.count(-1)
                assert _class_histogram(entries, E.base.p) == [n - negs, negs]
                cls = form_class_at(entries, E)
                assert cls == form_class_by_symbols(entries, E), (str(E), entries)
                assert local_aniso_dim(cls, E) == (abs(n - 2 * negs) if E.is_real else n % 2)


nonzero = st.integers(-10**6, 10**6).filter(bool)
squarefree = nonzero.map(squarefree_rep)
FIELDS = [LocalField(v) for v in (REAL, Place(2), Place(3), Place(5), Place(7), Place(10007))]
FIELDS += [LocalField(Place(p), gens) for p, gens in
           ((2, [-1]), (2, [5]), (2, [-1, 2]), (3, [3]), (3, [-1]), (5, [2, 5]), (17, [-1, 2]))]
FIELDS.append(LocalField(REAL, [-1]))


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(squarefree, max_size=12))
    def test_product_formula(self, entries):
        """prod_v s_v(phi) = 1 over R, 2 and the support: Hilbert
        reciprocity for each pair of entries."""
        phi = qform(entries)
        hasse = [form_class_at(phi.entries, LocalField(v)).hasse
                 for v in [REAL] + [Place(p) for p in sorted(phi.support)]]
        assert hasse.count(-1) % 2 == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(nonzero, max_size=16), st.randoms(use_true_random=False),
           st.sampled_from(FIELDS))
    def test_permuting_the_entries(self, entries, rnd, E):
        shuffled = list(entries)
        rnd.shuffle(shuffled)
        assert form_class_at(tuple(shuffled), E) == form_class_at(tuple(entries), E)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(nonzero, st.integers(1, 60)), max_size=16),
           st.sampled_from(FIELDS))
    def test_scaling_by_squares(self, pairs, E):
        entries = tuple(a for a, _ in pairs)
        scaled = tuple(a * r * r for a, r in pairs)
        assert form_class_at(scaled, E) == form_class_at(entries, E)
