import random
from fractions import Fraction as Q
from math import factorial

import pytest

from hypident.algebra import Polynomial
from hypident.asymptotics import (
    bernoulli_combination,
    bernoulli_number,
    bernoulli_polynomial,
    check_residue_polynomial,
    exp_series_coefficient,
)
from hypident.fuzzing import random_instance
from hypident.hyper import IdentityInstance

from oracles import compositions

CANONICAL = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0))


class TestBernoulliNumbers:
    def test_small_values(self):
        expected = [1, Q(-1, 2), Q(1, 6), 0, Q(-1, 30), 0, Q(1, 42)]
        assert [bernoulli_number(j) for j in range(7)] == expected

    def test_odd_vanish(self):
        for j in range(3, 16, 2):
            assert bernoulli_number(j) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)


class TestBernoulliPolynomials:
    def test_small_polynomials(self):
        assert bernoulli_polynomial(0) == Polynomial.one()
        assert bernoulli_polynomial(1) == Polynomial.of(Q(-1, 2), 1)
        assert bernoulli_polynomial(2) == Polynomial.of(Q(1, 6), -1, 1)

    def test_monic(self):
        for n in range(9):
            p = bernoulli_polynomial(n)
            assert p.degree == n
            assert p.leading == 1

    def test_difference_identity(self):
        # B_n(x+1) - B_n(x) == n x^(n-1)
        for n in range(1, 9):
            p = bernoulli_polynomial(n)
            diff = p.compose_affine(1, 1) - p
            expected = Polynomial(tuple([Q(0)] * (n - 1) + [Q(n)]))
            assert diff == expected

    def test_constant_terms_are_bernoulli_numbers(self):
        for n in range(9):
            assert bernoulli_polynomial(n)(0) == bernoulli_number(n)


class TestBernoulliCombination:
    def test_canonical_linear_polynomial(self):
        q1 = bernoulli_combination(CANONICAL, 1)
        assert q1 == Polynomial.of(1, Q(23, 6))

    def test_pointwise_against_direct_evaluation(self):
        # independent route: evaluate the Bernoulli sum directly at each k
        be2 = lambda x: x * x - x + Q(1, 6)
        for k in range(-3, 4):
            direct = Q(0)
            for a_i, b_i, m_i, n_i in zip(
                CANONICAL.a, CANONICAL.b, CANONICAL.m, CANONICAL.n
            ):
                direct += be2(-a_i - k) - be2(1 - b_i - k)
                direct += be2(1 - b_i + m_i) - be2(1 - a_i + n_i)
            assert bernoulli_combination(CANONICAL, 1)(k) == direct

    def test_degree_is_exactly_j(self):
        rng = random.Random(41)
        for _ in range(8):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2, family="one")
            for j in (1, 2, 3):
                assert bernoulli_combination(inst, j).degree == j

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bernoulli_combination(CANONICAL, 0)
        confluent = IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(0, 0))
        with pytest.raises(ValueError):
            bernoulli_combination(confluent, 1)


class TestExpSeriesCoefficient:
    def test_order_zero_is_one(self):
        assert exp_series_coefficient(CANONICAL, 0) == Polynomial.one()

    def test_order_one_is_half_the_combination(self):
        expected = bernoulli_combination(CANONICAL, 1) * Q(1, 2)
        assert exp_series_coefficient(CANONICAL, 1) == expected

    def test_degree_matches_order(self):
        rng = random.Random(42)
        for _ in range(6):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2, family="one")
            for s in (1, 2):
                assert exp_series_coefficient(inst, s).degree == s

    def test_composition_and_recurrence_routes_agree(self):
        # q_s = sum_l (1/l!) sum_{s_1+...+s_l=s} G_{s_1}...G_{s_l}, summed
        # literally from the library's G_j, against the library's recurrence
        rng = random.Random(43)
        for _ in range(3):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2, family="one")
            gs = {
                j: bernoulli_combination(inst, j) * Q((-1) ** (j + 1), j * (j + 1))
                for j in range(1, 7)
            }
            for s in range(7):
                expected = Polynomial.one() if s == 0 else Polynomial.zero()
                for l in range(1, s + 1):
                    for parts in compositions(s, l):
                        prod = Polynomial.one()
                        for part in parts:
                            prod = prod * gs[part]
                        expected = expected + prod * Q(1, factorial(l))
                assert exp_series_coefficient(inst, s) == expected, (inst, s)


class TestResiduePolynomialLaw:
    def test_vanishing_case(self):
        report = check_residue_polynomial(CANONICAL)
        assert report.p == -1
        assert report.polynomial is None
        assert all(v == 0 for v in report.residue_values)

    def test_constant_case(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(1, 0), n=(0, 0))
        report = check_residue_polynomial(inst)
        assert report.p == 0
        assert all(v == 1 for v in report.residue_values)

    def test_quadratic_case(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(2, 1), n=(0, 0))
        report = check_residue_polynomial(inst)
        assert report.p == 2
        assert report.polynomial is not None
        assert report.polynomial.degree == 2
        assert len(report.points) == 5  # p + 3 sample points

    def test_random_balanced_instances(self):
        rng = random.Random(44)
        for _ in range(6):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2, family="one")
            report = check_residue_polynomial(inst)
            if report.p >= 1:
                assert report.polynomial.degree == report.p

    def test_confluent_rejected(self):
        confluent = IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(0, 0))
        with pytest.raises(ValueError):
            check_residue_polynomial(confluent)
