import random
from fractions import Fraction as Q
from math import factorial

import pytest

from hypident import asymptotics
from hypident.algebra import Polynomial
from hypident.asymptotics import check_residue_polynomial, exp_series_coefficient
from hypident.errors import CheckFailed
from hypident.fuzzing import random_instance
from hypident.hyper import IdentityInstance
from hypident.identity import verify

from oracles import bernoulli_numbers, compositions, law_g, law_q

CANONICAL = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0))
# p = 15 with r = 3, D = 420 and a negative shift
P15 = IdentityInstance(
    a=(0, Q(1, 3), Q(-2, 5)), b=(Q(1, 4), Q(5, 7), Q(-1, 6)), m=(5, 6, 6), n=(0, 1, -1)
)
# p = 31, the top rung of the shift ladder
P31 = IdentityInstance(a=(Q(-7, 5), Q(2, 9)), b=(Q(3, 4), Q(-5, 11)), m=(16, 16), n=(0, 0))


def oracle_q(inst, p, k):
    return law_q(inst.a, inst.b, inst.m, inst.n, p, k)


class TestBernoulliCombination:
    # Q_j, the Bernoulli combination at order j of the log expansion, is
    # not built on its own: these tests read it through q_1 = G_1 = Q_1 / 2,
    # and its degree through q_j, whose leading term is G_1^j / j!

    def test_canonical_linear_polynomial(self):
        q1 = exp_series_coefficient(CANONICAL, 1)
        assert q1 == Polynomial.of(Q(1, 2), Q(23, 12))

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
            assert exp_series_coefficient(CANONICAL, 1)(k) * 2 == direct

    def test_degree_is_exactly_j(self):
        rng = random.Random(41)
        for _ in range(8):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2, family="one")
            for j in (1, 2, 3):
                assert exp_series_coefficient(inst, j).degree == j

    def test_preconditions(self):
        with pytest.raises(ValueError):
            exp_series_coefficient(CANONICAL, -1)
        confluent = IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(0, 0))
        with pytest.raises(ValueError):
            exp_series_coefficient(confluent, 1)


class TestExpSeriesCoefficient:
    def test_order_zero_is_one(self):
        assert exp_series_coefficient(CANONICAL, 0) == Polynomial.one()

    def test_order_one_is_half_the_combination(self):
        numbers = bernoulli_numbers(2)
        q1 = exp_series_coefficient(CANONICAL, 1)
        for k in range(-3, 4):
            g1 = law_g(CANONICAL.a, CANONICAL.b, CANONICAL.m, CANONICAL.n, 1, k, numbers)
            assert q1(k) == g1

    def test_degree_matches_order(self):
        rng = random.Random(42)
        for _ in range(6):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2, family="one")
            for s in (1, 2):
                assert exp_series_coefficient(inst, s).degree == s

    def test_composition_and_recurrence_routes_agree(self):
        # q_s(k) = sum_l (1/l!) sum_{s_1+...+s_l=s} G_{s_1}(k)...G_{s_l}(k),
        # summed literally from the oracle's G_j, against the library's q_s
        rng = random.Random(43)
        numbers = bernoulli_numbers(7)
        for _ in range(3):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2, family="one")
            polys = [exp_series_coefficient(inst, s) for s in range(7)]
            for k in (-2, 0, 3):
                gs = {j: law_g(inst.a, inst.b, inst.m, inst.n, j, k, numbers) for j in range(1, 7)}
                for s in range(7):
                    expected = Q(1) if s == 0 else Q(0)
                    for l in range(1, s + 1):
                        for parts in compositions(s, l):
                            prod = Q(1)
                            for part in parts:
                                prod *= gs[part]
                            expected += prod / factorial(l)
                    assert polys[s](k) == expected, (inst, s, k)

    def test_against_the_oracle(self):
        q15 = exp_series_coefficient(P15, 15)
        assert q15.degree == 15
        for k in range(-8, 9):
            assert q15(k) == oracle_q(P15, 15, k)
        q31 = exp_series_coefficient(P31, 31)
        assert q31.degree == 31
        for k in (-16, 0, 7, 40):
            assert q31(k) == oracle_q(P31, 31, k)


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

    def test_against_the_oracle(self):
        report = check_residue_polynomial(P15)
        assert report.p == 15
        assert report.points == tuple(range(-5, 13))
        for k, value in zip(report.points, report.residue_values):
            assert value == oracle_q(P15, 15, k)
        for k in (-30, -6, 13, 50):
            assert report.polynomial(k) == oracle_q(P15, 15, k)
        report = check_residue_polynomial(P31)
        assert report.p == 31
        for k in (-16, -3, 17):
            index = report.points.index(k)
            assert report.residue_values[index] == oracle_q(P31, 31, k)
            assert report.polynomial(k) == oracle_q(P31, 31, k)

    def test_failure_names_the_k(self, monkeypatch):
        # the law's value off by one at k = 1 only: the law check fails
        # there, and verify records the failure instead of raising
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(3, 3), n=(0, 0))
        real = asymptotics._law_values

        def perturbed(inst, order, start, count):
            values = real(inst, order, start, count)
            values[1 - start] += 1
            return values

        monkeypatch.setattr(asymptotics, "_law_values", perturbed)
        report = verify(inst)
        assert report.cross_checks == {"residue": True, "lemma1": False, "alpha": True}
        assert not report.passed
        with pytest.raises(CheckFailed, match=r"for k=1 is .*\(p=5\)"):
            check_residue_polynomial(inst)
