import random
import sys
from fractions import Fraction as Q
from math import factorial

import pytest

from hypident import asymptotics
from hypident.algebra import Polynomial
from hypident.asymptotics import check_residue_polynomial, exp_series_coefficient, law_points
from hypident.errors import CheckFailed
from hypident.fuzzing import random_instance
from hypident.hyper import IdentityInstance
from hypident.identity import kernel_ladder, verify
from hypident.residues import residue_at_infinity, residue_kernel, residue_sum_closed_form

from oracles import bernoulli_numbers, compositions, law_g, law_q, poly_value

CANONICAL = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0))
P0 = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(1, 0), n=(0, 0))
# p = 15 with r = 3, D = 420 and a negative shift
P15 = IdentityInstance(
    a=(0, Q(1, 3), Q(-2, 5)), b=(Q(1, 4), Q(5, 7), Q(-1, 6)), m=(5, 6, 6), n=(0, 1, -1)
)
# p = 31, the top rung of the shift ladder
P31 = IdentityInstance(a=(Q(-7, 5), Q(2, 9)), b=(Q(3, 4), Q(-5, 11)), m=(16, 16), n=(0, 0))
# p = 11 with n_i of both signs and an odd D = 315
MIXED = IdentityInstance(a=(Q(1, 7), Q(-2, 3)), b=(Q(5, 9), Q(1, 5)), m=(6, 5), n=(-3, 2))


def oracle_q(inst, p, k):
    return law_q(inst.a, inst.b, inst.m, inst.n, p, k)


def check_law(inst):
    """The law on route 4's expansion at its first point and route 2 at each point,
    as the ``lemma`` command runs it."""
    points = law_points(inst)
    expansion = residue_kernel(inst, points.start).expansion
    return check_residue_polynomial(inst, expansion, [residue_sum_closed_form(inst, k) for k in points])


class TestBernoulliCombination:
    # Q_j, the Bernoulli combination at order j of the log expansion, is
    # not built on its own: these tests read it through q_1 = G_1 = Q_1 / 2,
    # and its degree through q_j, whose leading term is G_1^j / j!

    def test_canonical_linear_polynomial(self):
        q1 = exp_series_coefficient(CANONICAL, 1)
        assert q1 == Polynomial((Q(1, 2), Q(23, 12)))

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
            assert poly_value(exp_series_coefficient(CANONICAL, 1).coeffs, k) * 2 == direct

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


class TestTangentNumberBernoulli:
    def test_numbers_against_the_oracle(self):
        expected = bernoulli_numbers(64)
        for n in range(65):
            assert asymptotics._bernoulli_numbers(n) == expected[: n + 1], n

    def test_law_values_past_the_window(self):
        # verify's window for P31 is k = -16 .. -4, so the law alone reads -3 and -2
        values = asymptotics._law_values(P31, 31, -3, 2)[1]
        assert values == [oracle_q(P31, 31, -3), oracle_q(P31, 31, -2)]

    def test_law_needs_bernoulli_numbers_through_p(self, monkeypatch):
        # the l = 0 term of each h_u multiplies the sum of the argument signs,
        # which is 0, so B_(p+1) is never read
        real, asked = asymptotics._bernoulli_numbers, []

        def recorded(n):
            asked.append(n)
            return real(n)

        monkeypatch.setattr(asymptotics, "_bernoulli_numbers", recorded)
        start, d = -P31.derived.m_min, P31.derived.scale
        series, values = asymptotics._law_values(P31, 31, start, 1)
        assert asked == [31]
        assert series == [d**t * oracle_q(P31, t, start) for t in range(32)]
        assert values == [oracle_q(P31, 31, start)]

    @pytest.mark.parametrize("order", [0, 1, 7, 15])
    def test_stepped_law_values(self, order):
        # the series steps 39 times from k = -20, below -m_min = -5, at p = 15
        # and at the lower orders that exp_series_coefficient asks for
        series, values = asymptotics._law_values(P15, order, -20, 40)
        assert values == [oracle_q(P15, order, k) for k in range(-20, 20)]
        # the start series D^t q_t, integers with no scale factor, at the first point only
        d = P15.derived.scale
        assert series == [d**t * oracle_q(P15, t, -20) for t in range(order + 1)]


class TestLogSeriesContent:
    # the telescoping of the module docstring: D^u Q_u / (u + 1) is an integer,
    # so g_u = u D^u G_u is one, and the law's recurrence divides by t alone

    @pytest.mark.parametrize("inst", [P15, P31, MIXED], ids=["p=15", "p=31", "mixed n"])
    def test_g_is_an_integer(self, inst):
        derived = inst.derived
        d, p = derived.scale, derived.p
        numbers = bernoulli_numbers(p + 1)
        for k in (-derived.m_min, -derived.m_min + 3):
            for u in range(1, p + 1):
                g = u * d**u * law_g(inst.a, inst.b, inst.m, inst.n, u, k, numbers)
                assert g.denominator == 1, (k, u, g)

    def test_bernoulli_fault_in_the_log_series(self, monkeypatch):
        # B_4 off by 1 on the odd D of MIXED: g_u leaves the integers at the
        # first u where the oracle's u D^u G_u, from the same wrong numbers, does
        real = asymptotics._bernoulli_numbers

        def bumped(n):
            numbers = real(n)
            numbers[4] += 1
            return numbers

        monkeypatch.setattr(asymptotics, "_bernoulli_numbers", bumped)
        start, p, d = -MIXED.derived.m_min, MIXED.derived.p, MIXED.derived.scale
        numbers = bernoulli_numbers(p + 1)
        numbers[4] += 1
        u = 1
        while (u * d**u * law_g(MIXED.a, MIXED.b, MIXED.m, MIXED.n, u, start, numbers)).denominator == 1:
            u += 1
        assert u <= p
        with pytest.raises(CheckFailed, match=rf"^law's log series at k={start}, order u={u}: not an integer$"):
            asymptotics._law_values(MIXED, p, start, 1)
        report = verify(MIXED)
        assert report.cross_checks == {"residue": True, "lemma1": False, "alpha": None}


class TestExpSeriesCoefficient:
    def test_order_zero_is_one(self):
        assert exp_series_coefficient(CANONICAL, 0) == Polynomial((1,))

    def test_order_one_is_half_the_combination(self):
        numbers = bernoulli_numbers(2)
        q1 = exp_series_coefficient(CANONICAL, 1)
        for k in range(-3, 4):
            g1 = law_g(CANONICAL.a, CANONICAL.b, CANONICAL.m, CANONICAL.n, 1, k, numbers)
            assert poly_value(q1.coeffs, k) == g1

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
                    assert poly_value(polys[s].coeffs, k) == expected, (inst, s, k)

    def test_against_the_oracle(self):
        q15 = exp_series_coefficient(P15, 15)
        assert q15.degree == 15
        for k in range(-8, 9):
            assert poly_value(q15.coeffs, k) == oracle_q(P15, 15, k)
        q31 = exp_series_coefficient(P31, 31)
        assert q31.degree == 31
        for k in (-16, 0, 7, 40):
            assert poly_value(q31.coeffs, k) == oracle_q(P31, 31, k)


class TestResiduePolynomialLaw:
    def test_vanishing_case(self):
        report = check_law(CANONICAL)
        assert report.p == -1
        assert report.polynomial is None
        assert all(v == 0 for v in report.residue_values)

    def test_constant_case(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(1, 0), n=(0, 0))
        report = check_law(inst)
        assert report.p == 0
        assert all(v == 1 for v in report.residue_values)

    def test_quadratic_case(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(2, 1), n=(0, 0))
        report = check_law(inst)
        assert report.p == 2
        assert report.polynomial is not None
        assert report.polynomial.degree == 2
        assert len(report.points) == 5  # p + 3 sample points

    def test_random_balanced_instances(self):
        rng = random.Random(44)
        for _ in range(6):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2, family="one")
            report = check_law(inst)
            if report.p >= 1:
                assert report.polynomial.degree == report.p

    def test_confluent_rejected(self):
        confluent = IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(0, 0))
        for call in (law_points, check_law, lambda inst: check_residue_polynomial(inst, [], [])):
            with pytest.raises(ValueError, match=r"^defined only for balanced instances \(s = r\)$"):
                call(confluent)

    @pytest.mark.parametrize(
        "inst, points",
        [(CANONICAL, range(0, 3)), (P0, range(0, 3)), (P15, range(-5, 13)), (P31, range(-16, 18))],
        ids=["p=-1", "p=0", "p=15", "p=31"],
    )
    def test_law_points(self, inst, points):
        # -m_min .. -m_min + max(p, 0) + 2
        assert law_points(inst) == points

    def test_against_the_oracle(self):
        report = check_law(P15)
        assert report.p == 15
        assert report.points == tuple(range(-5, 13))
        for k, value in zip(report.points, report.residue_values):
            assert value == oracle_q(P15, 15, k)
        for k in (-30, -6, 13, 50):
            assert poly_value(report.polynomial.coeffs, k) == oracle_q(P15, 15, k)
        report = check_law(P31)
        assert report.p == 31
        for k in (-16, -3, 17):
            index = report.points.index(k)
            assert report.residue_values[index] == oracle_q(P31, 31, k)
            assert poly_value(report.polynomial.coeffs, k) == oracle_q(P31, 31, k)

    def test_large_p(self):
        # p = 119 on the shift ladder's instance: 122 law points, each stepped from the last
        inst = IdentityInstance(a=P31.a, b=P31.b, m=(60, 60), n=(0, 0))
        assert inst.derived.p == 119
        assert verify(inst).cross_checks == {"residue": True, "lemma1": True, "alpha": None}

    @pytest.mark.parametrize("inst", [CANONICAL, P0, P15, P31], ids=["p=-1", "p=0", "p=15", "p=31"])
    def test_handed_residues(self, inst):
        # the law's values are route 4's on a kernel ladder; fewer handed values
        # check fewer points, an expansion of the wrong length raises ValueError,
        # and a wrong order t or a wrong value at the last point CheckFailed
        points = law_points(inst)
        ladder = kernel_ladder(inst, len(points))
        report = check_law(inst)
        assert report.points == tuple(points)
        assert list(report.residue_values) == [residue_at_infinity(kernel) for kernel in ladder]
        expansion = ladder[0].expansion
        assert len(expansion) == max(inst.derived.p + 1, 0)
        values = list(report.residue_values)
        assert check_residue_polynomial(inst, expansion, values[:1]) == report
        assert check_residue_polynomial(inst, expansion, []) == report
        with pytest.raises(ValueError, match="argument 2 is longer"):
            check_residue_polynomial(inst, expansion + [1], values)
        if expansion:
            with pytest.raises(ValueError, match="argument 2 is shorter"):
                check_residue_polynomial(inst, expansion[:-1], values)
        with pytest.raises(CheckFailed, match=rf"residue for k={points[-1]} is "):
            check_residue_polynomial(inst, expansion, values[:-1] + [values[-1] + 1])
        for t in range(len(expansion)):
            wrong = expansion[:t] + [expansion[t] + 1] + expansion[t + 1 :]
            with pytest.raises(CheckFailed, match=rf"^law's series at k={points.start}, order t={t}: "):
                check_residue_polynomial(inst, wrong, values)

    def test_failure_names_the_k(self, monkeypatch):
        # the law's value off by one at k = 1 only: the law check fails
        # there, and verify records the failure instead of raising
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(3, 3), n=(0, 0))
        real = asymptotics._law_values

        def perturbed(inst, order, start, count):
            series, values = real(inst, order, start, count)
            values[1 - start] += 1
            return series, values

        monkeypatch.setattr(asymptotics, "_law_values", perturbed)
        report = verify(inst)
        assert report.cross_checks == {"residue": True, "lemma1": False, "alpha": None}
        assert not report.passed
        with pytest.raises(CheckFailed, match=r"for k=1 is .*\(p=5\)"):
            check_law(inst)

    def test_failure_under_the_int_text_cap(self, monkeypatch):
        # at p = 199 the law's last value has more than 640 digits: a failure
        # message that printed it would raise ValueError under a cap of 640
        inst = IdentityInstance(a=P31.a, b=P31.b, m=(100, 100), n=(0, 0))
        real = asymptotics._law_values

        def perturbed(inst, order, start, count):
            series, values = real(inst, order, start, count)
            values[-1] += 1
            return series, values

        monkeypatch.setattr(asymptotics, "_law_values", perturbed)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert verify(inst).cross_checks["lemma1"] is False
        finally:
            sys.set_int_max_str_digits(limit)
