import random

import pytest

from oracles import delta_trivial_by_walk, is_split_by_walk
from wittcert import involutions
from wittcert.arith import DomainError
from wittcert.forms import (
    disc,
    in_G,
    in_In,
    is_hyperbolic,
    orth_sum,
    pfister,
    qform,
    scale,
    witt_decompose,
)
from wittcert.involutions import (
    InvolutionAlgebra,
    QuaternionAlg,
    degree_index,
    involution_discriminant,
    is_split,
    norm_form,
    quaternion,
    reduce_to_form,
)
from wittcert.similitude import thm6_pipeline


def random_quaternion(rng, height=15):
    return quaternion(rng.choice([-1, 1]) * rng.randint(1, height),
                      rng.choice([-1, 1]) * rng.randint(1, height))


class TestNormForm:
    def test_frozen(self):
        assert norm_form(quaternion(1, 7)) == qform([1, -1, -7, 7])
        assert norm_form(quaternion(-1, -1)) == qform([1, 1, 1, 1])
        assert norm_form(quaternion(2, 5)) == qform([1, -2, -5, 10])


class TestSplitting:
    def test_frozen(self):
        assert is_split(quaternion(1, 7))
        assert not is_split(quaternion(-1, -1))
        assert not is_split(quaternion(2, 5))

    def test_split_iff_norm_form_hyperbolic_iff_witt_two(self):
        rng = random.Random(71)
        for _ in range(60):
            q = random_quaternion(rng)
            nf = norm_form(q)
            w = witt_decompose(nf)[0]
            assert is_split(q) == is_hyperbolic(nf) == (w == 2)
            assert w in (0, 2)  # Pfister forms are hyperbolic once isotropic


class TestClosedForms:
    """The theorems `involutions` decides by, against the walks they
    replaced (`tests/oracles.py`)."""

    BOX = [x for x in range(-60, 61) if x]

    def test_norm_test_splits_as_the_norm_form_is_isotropic(self):
        # Every (a, b) with 0 < |a|, |b| <= 60, squares and entries that are
        # not square-free included.
        for a in self.BOX:
            for b in self.BOX:
                q = QuaternionAlg(a, b)
                assert is_split(q) == is_split_by_walk(q), q

    def test_real_sign_decides_delta_as_its_hyperbolicity(self):
        # <d> and <1, -d> both have discriminant d: odd and even phi over
        # every triple (a, b, d) with 0 < |a|, |b|, |d| <= 10.
        small = [x for x in self.BOX if abs(x) <= 10]
        undefined = 0
        for a in small:
            for b in small:
                q = QuaternionAlg(a, b)
                division = not is_split_by_walk(q)
                for d in small:
                    for phi in (qform([d]), qform([1, -d])):
                        alg = InvolutionAlgebra(phi, q)
                        if phi.dim % 2 and division:
                            with pytest.raises(DomainError, match="^discriminant undefined"):
                                involution_discriminant(alg)
                            undefined += 1
                            continue
                        delta, trivial = involution_discriminant(alg)
                        assert delta == pfister([a, b, d])
                        assert trivial == delta_trivial_by_walk(alg), (phi, q)
        assert undefined


class TestDegreeIndex:
    def test_frozen(self):
        assert degree_index(InvolutionAlgebra(qform([1, 1, 1, 1]), quaternion(-1, -1))) == (8, 2)
        assert degree_index(InvolutionAlgebra(qform([1, 1, 1, 1, 1, 2]), quaternion(2, 5))) == (12, 2)
        assert degree_index(InvolutionAlgebra(qform([1, 1, 1, 1, 1, 2]), quaternion(1, 3))) == (12, 1)


class TestDiscriminant:
    def test_worked_instance(self):
        alg = InvolutionAlgebra(qform([1, 1, 1, 1, 1, 2]), quaternion(2, 5))
        delta, trivial = involution_discriminant(alg)
        assert delta == pfister([2, 5, -2])
        assert trivial  # -2 = -2*1^2 is a norm of (2,5)

    def test_definite_control(self):
        alg = InvolutionAlgebra(qform([1, 1, 1, 1, 1, 1]), quaternion(-1, -1))
        delta, trivial = involution_discriminant(alg)
        assert delta == pfister([-1, -1, -1])
        assert not trivial  # 8-dimensional definite form

    def test_split_always_trivial(self):
        rng = random.Random(72)
        for _ in range(40):
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 12)
                         for _ in range(rng.choice([2, 4, 6]))])
            b = rng.choice([-1, 1]) * rng.randint(1, 12)
            alg = InvolutionAlgebra(phi, quaternion(1, b))
            _, trivial = involution_discriminant(alg)
            assert trivial

    def test_divisibility_condition(self):
        # Division quaternion with odd-dimensional factor: 2*ind does not
        # divide the degree.
        alg = InvolutionAlgebra(qform([1, 1, 1]), quaternion(-1, -1))
        with pytest.raises(DomainError, match=r"^discriminant undefined: 2\*ind = 4 does not "
                                              r"divide deg = 6$"):
            involution_discriminant(alg)
        # Split algebra: defined for every dimension.
        involution_discriminant(InvolutionAlgebra(qform([1, 1, 1]), quaternion(1, 5)))


    def test_pipeline_decides_splitting_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(involutions, "is_split",
                            lambda q, split=is_split: calls.append(q) or split(q))
        for phi, q in (([1, 1, 1, 1, 1, 2], (2, 5)), ([1, 1, 1, 1, 1, 1], (-1, -1)),
                       ([1, 1, 1, 1, 1, 2], (1, 3))):
            calls.clear()
            thm6_pipeline(qform(phi), quaternion(*q), [1])
            assert len(calls) == 1, (phi, q)

class TestReduceToForm:
    def test_frozen(self):
        alg = InvolutionAlgebra(qform([1]), quaternion(3, 7))
        assert reduce_to_form(alg) == pfister([3, 7])
        alg = InvolutionAlgebra(qform([1, 1, 1, 1]), quaternion(2, 5))
        assert reduce_to_form(alg).dim == 16

    def test_unit_multiplier_and_square_closure(self):
        rng = random.Random(73)
        for _ in range(30):
            phi = qform([rng.choice([-1, 1]) * rng.randint(1, 10)
                         for _ in range(rng.choice([2, 4]))])
            psi = reduce_to_form(InvolutionAlgebra(phi, random_quaternion(rng)))
            assert in_G(psi, 1)
            c = rng.randint(-15, 15) or 1
            if in_G(psi, c):
                assert in_G(psi, c * rng.randint(2, 8) ** 2)

    def test_delta_welldefined_mod_I4(self):
        # psi = <<a,b>> (x) phi6 agrees with <<a, b, disc phi6>> modulo I^4.
        rng = random.Random(74)
        for _ in range(25):
            phi6 = qform([rng.choice([-1, 1]) * rng.randint(1, 10) for _ in range(6)])
            q = random_quaternion(rng, height=10)
            alg = InvolutionAlgebra(phi6, q)
            psi = reduce_to_form(alg)
            delta = pfister([q.a, q.b, disc(phi6)])
            assert in_In(orth_sum(psi, scale(-1, delta)), 4), (phi6, q)

    def test_delta_trivial_iff_psi_in_I4(self):
        rng = random.Random(75)
        seen_trivial = seen_nontrivial = 0
        for _ in range(40):
            phi6 = qform([rng.choice([-1, 1]) * rng.randint(1, 10) for _ in range(6)])
            q = random_quaternion(rng, height=10)
            alg = InvolutionAlgebra(phi6, q)
            _, trivial = involution_discriminant(alg)
            assert trivial == in_In(reduce_to_form(alg), 4)
            seen_trivial += trivial
            seen_nontrivial += not trivial
        assert seen_trivial and seen_nontrivial
