import random
from fractions import Fraction as Q
from math import comb

import pytest

from hypident import asymptotics, identity
from hypident.algebra import LaurentSeries, one_minus_z_power
from hypident.errors import SupportViolation, TruncationTooSmall
from hypident.fuzzing import random_instance
from hypident.hyper import IdentityInstance, Theorem, validate
from hypident.identity import beta_coefficients, lhs_series, verify
from hypident.residues import residue_sum_closed_form

from oracles import lhs_coefficients, lhs_value, partial_fraction_zero_sum

ZERO_SHIFT = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0))
UNIT_SHIFT = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(1, 1), n=(0, 0))
CONFLUENT = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(3,), n=(0, 0))


class TestLhsSeries:
    def test_zero_shift_vanishes_identically(self):
        series = lhs_series(ZERO_SHIFT, 20)
        assert all(series.coefficient(e) == 0 for e in range(0, 21))

    def test_constant_term_antisymmetry(self):
        rng = random.Random(51)
        for _ in range(50):
            r = rng.randint(2, 4)
            while True:
                a = tuple(Q(rng.randint(-15, 15), rng.choice([2, 3, 5, 7])) for _ in range(r))
                if all(
                    (a[i] - a[j]).denominator != 1
                    for i in range(r)
                    for j in range(i + 1, r)
                ):
                    break
            assert partial_fraction_zero_sum(a) == 0

    def test_matches_oracle_coefficients(self):
        rng = random.Random(52)
        sign_path = 0
        # D = 6, but term 0's first series has the parameters 1 over 4/3,
        # whose own lcm is 3: route 1 runs on the instance's scale, not on
        # each series' own
        fixed = IdentityInstance(a=(Q(1, 6), Q(1, 2)), b=(Q(7, 6),), m=(1,), n=(0, 1))
        draws = [random_instance(rng, r_range=(2, 4), shift_range=2) for _ in range(12)]
        for inst in [fixed, *draws]:
            hi = 30
            series = lhs_series(inst, hi)
            expected = lhs_coefficients(inst.a, inst.b, inst.m, inst.n, hi)
            n_max = validate(inst).n_max
            for e in range(-n_max, hi + 1):
                assert series.coefficient(e) == expected.get(e, Q(0)), (inst, e)
            if (inst.r - inst.s) % 2 and len({n % 2 for n in inst.n}) == 2:
                sign_path += 1
        # odd r - s with mixed n parities: the per-term sign (-1)^((r-s) n_i)
        assert sign_path >= 2

    def test_truncation_too_small(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(-2, -2))
        with pytest.raises(TruncationTooSmall):
            lhs_series(inst, 1)
        lhs_series(inst, 2)

    def test_unit_shift_collapses_to_geometric_square(self):
        # S(z) = beta_0 / (1-z)^2 exactly: (1-z)^2 S has a single coefficient
        series = lhs_series(UNIT_SHIFT, 25)
        reduced = one_minus_z_power(2, 25) * series
        assert reduced.coefficient(0) == Q(23, 12)
        assert all(reduced.coefficient(e) == 0 for e in range(1, reduced.trunc + 1))


class TestAgainstAnalysis:
    @pytest.mark.parametrize(
        "family, seed, zs",
        [
            ("one", 1001, (Q(3, 10), Q(-3, 10), Q(-7, 10), Q(11, 20))),
            # the confluent series are entire, so |z| > 1 too
            ("two", 1002, (Q(3, 10), Q(-7, 10), Q(5, 2), Q(-3))),
        ],
        ids=["balanced", "confluent"],
    )
    def test_table_matches_the_mpmath_sum(self, family, seed, zs):
        # sum_j beta_j z^j / (1-z)^(p+1), or sum_j beta_j z^j for a
        # confluent instance, is S(z) as mpmath sums it at 40 digits; the
        # tolerance leaves room for cancellation between the r terms
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(seed)
        for _ in range(12):
            inst = random_instance(rng, family=family)
            table = beta_coefficients(inst)
            for z in zs:
                exact = sum((v * z**j for j, v in table.values.items()), Q(0))
                if family == "one":
                    exact /= (1 - z) ** (validate(inst).p + 1)
                value = lhs_value(inst.a, inst.b, inst.m, inst.n, z)
                with mpmath.workdps(40):
                    rhs = mpmath.mpf(exact.numerator) / exact.denominator
                    assert abs(value - rhs) <= mpmath.mpf(10) ** -20 * max(1, abs(rhs)), (inst, z)


class TestAlphaCoefficient:
    def test_matches_series_coefficient(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(1, 0))
        series = lhs_series(inst, 10)
        expected = lhs_coefficients(inst.a, inst.b, inst.m, inst.n, 10)
        assert residue_sum_closed_form(inst, -1) == series.coefficient(-1) == expected[-1]

    def test_deeper_shift(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(2, 0))
        series = lhs_series(inst, 10)
        assert residue_sum_closed_form(inst, -2) == series.coefficient(-2)
        assert residue_sum_closed_form(inst, -1) == series.coefficient(-1)


class TestBetaCoefficients:
    def test_empty_support_zero_identity(self):
        table = beta_coefficients(ZERO_SHIFT)
        assert table.is_empty
        assert table.values == {}
        assert table.support_low == 0 and table.support_high == -1

    def test_single_negative_coefficient(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(1, 0))
        table = beta_coefficients(inst)
        assert (table.support_low, table.support_high) == (-1, -1)
        expected = lhs_coefficients(inst.a, inst.b, inst.m, inst.n, 5)
        assert table.values == {-1: expected[-1]}

    def test_unit_shift_value(self):
        table = beta_coefficients(UNIT_SHIFT)
        assert table.values == {0: Q(23, 12)}
        assert table.theorem is Theorem.ONE

    def test_confluent_support(self):
        table = beta_coefficients(CONFLUENT)
        assert (table.support_low, table.support_high) == (0, 2)
        assert table.values == {0: Q(121, 12), 1: Q(-23, 3), 2: Q(1)}
        assert table.theorem is Theorem.TWO

    def test_confluent_mixed_parity_shifts(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(0,), n=(1, 0))
        table = beta_coefficients(inst)
        assert (table.support_low, table.support_high) == (-1, -1)
        assert table.values == {-1: Q(3)}

    def test_buffer_invariance(self):
        rng = random.Random(53)
        for _ in range(6):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2)
            assert beta_coefficients(inst, 25) == beta_coefficients(inst, 35)

    def test_bad_buffer(self):
        with pytest.raises(ValueError):
            beta_coefficients(ZERO_SHIFT, 0)

    @pytest.mark.parametrize("inst", [CONFLUENT, UNIT_SHIFT], ids=["confluent", "balanced"])
    def test_violation_found_at_every_forbidden_exponent(self, monkeypatch, inst):
        # S(z) perturbed at z^e, for e below the support, just above it and
        # at the truncation itself, fails with the first violation at z^e
        real = identity.lhs_series
        table = beta_coefficients(inst)
        trunc = verify(inst).checked_up_to
        for e in (table.support_low - 1, table.support_high + 1, trunc):
            bump = LaurentSeries(e, (1,), trunc, 7)
            monkeypatch.setattr(identity, "lhs_series", lambda i, t: real(i, t) + bump)
            with pytest.raises(SupportViolation, match=rf"^coefficient 1/7 at z\^{e} "):
                beta_coefficients(inst)
            assert verify(inst).vanishing_ok is False


class TestVerify:
    def test_balanced_report(self):
        report = verify(UNIT_SHIFT)
        assert report.passed and report.vanishing_ok
        assert report.cross_checks == {"residue": True, "lemma1": True, "alpha": True}
        assert report.checked_up_to == 25
        assert report.beta.beta_map() == {"0": "23/12"}

    def test_alpha_range_exercised(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(2, 1))
        report = verify(inst)
        assert report.passed
        assert report.cross_checks["alpha"] is True

    def test_confluent_checks_marked_skipped(self):
        report = verify(CONFLUENT)
        assert report.passed
        assert report.cross_checks == {"residue": None, "lemma1": None, "alpha": None}

    def test_random_instances_pass(self):
        rng = random.Random(54)
        for _ in range(10):
            inst = random_instance(rng, r_range=(2, 4), shift_range=3)
            report = verify(inst)
            assert report.passed, inst

    def test_report_serialization(self):
        data = verify(UNIT_SHIFT).to_dict()
        assert data["vanishing_ok"] is True
        assert data["beta"] == {"0": "23/12"}
        assert data["derived"]["theorem"] == "One"
        assert data["instance"]["a"] == ["0", "1/2"]
        assert set(data["cross_checks"]) == {"residue", "lemma1", "alpha"}

    def test_law_runs_through_its_entry_point(self, monkeypatch):
        # once per balanced verify, with the window's residues at infinity,
        # and never for a confluent one
        calls = []
        real = identity.check_residue_polynomial

        def counting(inst, at_infinity=None):
            calls.append((inst, sorted(at_infinity)))
            return real(inst, at_infinity)

        monkeypatch.setattr(identity, "check_residue_polynomial", counting)
        for inst in (UNIT_SHIFT, CONFLUENT, ZERO_SHIFT):
            assert verify(inst).cross_checks["lemma1"] in (True, None)
        assert calls == [(UNIT_SHIFT, list(range(-1, 12))), (ZERO_SHIFT, list(range(0, 13)))]

    def test_top_beta_is_cross_checked(self, monkeypatch):
        # p = 31: the residue window -16 .. -4 stops below the top beta at
        # p - m_min = 15, which only the law's points -16 .. 17 reach
        inst = IdentityInstance(
            a=(Q(-7, 5), Q(2, 9)), b=(Q(3, 4), Q(-5, 11)), m=(16, 16), n=(0, 0)
        )
        p, top = 31, 15
        real = identity.lhs_series

        def perturbed(inst, trunc):
            # plus z^top / (1 - z)^(p + 1): the top beta moves by 1, the support stays
            bump = [comb(t + p, p) for t in range(trunc - top + 1)]
            return real(inst, trunc) + LaurentSeries(top, bump, trunc)

        # with buffer 1 the law's top point lies above the truncation
        for buffer in (25, 1):
            assert verify(inst, buffer).passed
        table = verify(inst).beta
        monkeypatch.setattr(identity, "lhs_series", perturbed)
        for buffer in (25, 1):
            report = verify(inst, buffer)
            assert report.vanishing_ok
            assert report.beta.values == {**table.values, top: table.values[top] + 1}
            assert report.cross_checks == {"residue": False, "lemma1": True, "alpha": True}

    @pytest.mark.parametrize(
        "inst, ks",
        [
            # p = 1: the residue window -1 .. 11 holds the law's points -1 .. 2
            (UNIT_SHIFT, range(-1, 12)),
            # p = 15: the law's points -8 .. 9 reach past the window -8 .. 4
            (
                IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(8, 8), n=(0, 0)),
                range(-8, 10),
            ),
        ],
    )
    def test_one_kernel_per_k(self, monkeypatch, inst, ks):
        built = []
        real = identity.residue_kernel

        def counting(inst, k):
            built.append(k)
            return real(inst, k)

        monkeypatch.setattr(identity, "residue_kernel", counting)
        monkeypatch.setattr(asymptotics, "residue_kernel", counting)
        report = verify(inst)
        assert report.passed
        assert built == list(ks)
