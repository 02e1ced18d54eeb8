import json
import random
import sys
from fractions import Fraction as Q
from math import comb, factorial
from pathlib import Path

import pytest

from hypident import asymptotics, identity, residues
from hypident.algebra import LaurentSeries, clear_denominators
from hypident.asymptotics import law_points
from hypident.cli import main
from hypident.errors import SupportViolation
from hypident.fuzzing import random_instance
from hypident.hyper import IdentityInstance, Theorem, validate
from hypident.identity import DEFAULT_BUFFER, beta_coefficients, kernel_ladder, lhs_series, verify
from hypident.residues import ResidueKernel, residue_kernel, residue_sum_closed_form

from oracles import (
    expansion_at_infinity,
    kernel_pole_residue,
    kernel_roots,
    lhs_coefficients,
    lhs_value,
    partial_fraction_zero_sum,
    poch,
    root_product,
)

ZERO_SHIFT = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0))
UNIT_SHIFT = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(1, 1), n=(0, 0))
CONFLUENT = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(3,), n=(0, 0))
P0 = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(1, 0), n=(0, 0))
# p = 31, the top rung of the shift ladder: the residue window is k = -16 .. -4,
# the law's points -16 .. 17 and the top beta is at p - m_min = 15
P31 = IdentityInstance(a=(Q(-7, 5), Q(2, 9)), b=(Q(3, 4), Q(-5, 11)), m=(16, 16), n=(0, 0))


def bumped(series, low, values):
    """``series`` plus values[i] z^(low + i), every value at or below its trunc,
    rebuilt from its coefficients: the fault the tests inject into S(z)."""
    bump = dict(enumerate(values, low))
    start = min(series.low, low)
    coeffs = [series.coefficient(e) + bump.get(e, 0) for e in range(start, series.trunc + 1)]
    den, nums = clear_denominators(coeffs)
    return LaurentSeries(start, nums, series.trunc, den)


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

    @pytest.mark.parametrize(
        "inst",
        [
            # b_0 - a_0 = -2 with m_0 >= n_0, balanced and confluent: term 0's
            # first series has the upper parameter -2 and a nonzero prefactor
            IdentityInstance(a=(0, Q(1, 2)), b=(-2, Q(1, 3)), m=(1, 0), n=(0, 0)),
            IdentityInstance(a=(Q(1, 4), Q(1, 2), Q(1, 3)), b=(Q(-7, 4),), m=(3,), n=(1, 0, 2)),
        ],
        ids=["balanced", "confluent"],
    )
    def test_terminating_first_series(self, monkeypatch, inst):
        real, tables = identity.hyper_series, []

        def spy(*args):
            tables.append(real(*args))
            return tables[-1]

        monkeypatch.setattr(identity, "hyper_series", spy)
        hi = 12
        series = lhs_series(inst, hi)
        # the first series' table ends at its last nonzero entry, z^2
        assert len(tables[0].nums) == 3 < tables[0].trunc + 1
        expected = lhs_coefficients(inst.a, inst.b, inst.m, inst.n, hi)
        for e in range(-validate(inst).n_max, hi + 1):
            assert series.coefficient(e) == expected.get(e, Q(0)), e

    def test_truncation_too_small(self):
        # below -n_max every term is skipped: the zero series through z^trunc
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(-2, -2))
        assert lhs_series(inst, 2).coefficient(2) == lhs_series(inst, 6).coefficient(2) != 0
        rng = random.Random(17)
        draws = [random_instance(rng, family=family) for family in ("one", "two") * 10]
        for inst in [inst, *draws]:
            n_max = validate(inst).n_max
            for trunc in range(-n_max - 3, -n_max):
                series = lhs_series(inst, trunc)
                assert (series.nums, series.trunc) == ((), trunc), (inst, trunc)

    @pytest.mark.parametrize("family", ["one", "two"])
    def test_validated_lower_parameters_stay_off_the_poles(self, monkeypatch, family):
        # hyper_series checks nothing: the instance's NotDistinctModZ check is
        # what keeps every lower parameter off the non-positive integers
        real, calls = identity.hyper_series, []

        def spy(scale, upper, lower, trunc, sign=1):
            calls.append((scale, tuple(lower)))
            return real(scale, upper, lower, trunc, sign)

        monkeypatch.setattr(identity, "hyper_series", spy)
        rng = random.Random(31)
        for _ in range(200):
            lhs_series(random_instance(rng, r_range=(2, 5), shift_range=4, family=family), 2)
        assert len(calls) > 400
        bad = [(scale, lower) for scale, lower in calls for w in lower if w <= 0 and w % scale == 0]
        assert not bad

    def test_unit_shift_collapses_to_geometric_square(self):
        # S(z) = beta_0 / (1-z)^2 exactly: (1-z)^2 S has a single coefficient
        series = lhs_series(UNIT_SHIFT, 25)
        reduced = series.times_one_minus_z(2)
        assert reduced.trunc == 25
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


class TestLommelClosedForm:
    # a = (0, nu), b = (), n = (m, 0): the table is Lommel's polynomial
    # R_{m-1, nu+1}, beta_{j-m} = (-1)^(m+1) (m-1-j)! (nu+1+j)_{m-1-2j}
    # / (j! (m-1-2j)!) for 0 <= j <= (m-1) // 2, and 0 elsewhere

    @staticmethod
    def lommel(m, nu):
        return {
            j - m: (-1) ** (m + 1) * factorial(m - 1 - j) * poch(nu + 1 + j, m - 1 - 2 * j)
            / (factorial(j) * factorial(m - 1 - 2 * j))
            for j in range((m - 1) // 2 + 1)
        }

    def check(self, inst, expected):
        table = beta_coefficients(inst)
        support = range(table.support_low, table.support_high + 1)
        assert set(expected) <= set(support)
        assert table.values == {e: expected.get(e, 0) for e in support}, inst

    @pytest.mark.parametrize("nu", [Q(1, 3), Q(-2, 7), Q(5, 4), Q(-9, 2)])
    def test_positive_index(self, nu):
        for m in range(1, 16):
            self.check(IdentityInstance(a=(0, nu), b=(), m=(), n=(m, 0)), self.lommel(m, nu))

    def test_negative_index_mirrors_at_minus_nu(self):
        # n = (-|m|, 0): the table at (-nu, |m|), its index shifted up by |m|
        nu = Q(1, 3)
        for m in (1, 2, 5):
            mirrored = {e + m: v for e, v in self.lommel(m, -nu).items()}
            self.check(IdentityInstance(a=(0, nu), b=(), m=(), n=(-m, 0)), mirrored)


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


def confluent_sign_instances():
    # the demo's three, the two confluent shapes CI pins at m = (6,), 20 draws
    yield IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(3,), n=(0, 0))
    yield IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(0,), n=(1, 0))
    yield IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(2, -1))
    yield IdentityInstance(a=(Q(-7, 5), Q(2, 9)), b=(Q(3, 4),), m=(6,), n=(0, 0))
    yield IdentityInstance(
        a=(Q(-7, 12), Q(3, 11), Q(5, 7), Q(-2, 5)), b=(Q(1, 9),), m=(6,), n=(0, 1, -1, 2)
    )
    rng = random.Random(1002)
    for _ in range(20):
        yield random_instance(rng, family="two")


class TestConfluentSign:
    @pytest.mark.parametrize("inst", confluent_sign_instances())
    def test_series_is_signed_route_2(self, inst):
        # for s < r the coefficient of z^k is (-1)^((r-s) k) times route 2
        # (the identity module's docstring), through the support and past it
        derived = inst.derived
        assert derived.theorem is Theorem.TWO
        trunc = max(derived.p, -derived.m_min - 1) + 10
        series = lhs_series(inst, trunc)
        for k in range(-derived.n_max, trunc + 1):
            sign = 1 if (derived.r - derived.s) * k % 2 == 0 else -1
            assert series.coefficient(k) == sign * residue_sum_closed_form(inst, k), k

    @pytest.mark.parametrize("inst", confluent_sign_instances())
    def test_routes_2_to_4_are_the_signed_series(self, inst):
        # the three residue routes agree with the signed series at every
        # window kernel, the values verify would compare for s < r
        derived = inst.derived
        kernels = kernel_ladder(inst, DEFAULT_BUFFER // 2 + 1)
        series = lhs_series(inst, kernels[-1].k)
        for kernel in kernels:
            k = kernel.k
            sign = 1 if (derived.r - derived.s) * k % 2 == 0 else -1
            assert identity.residue_routes(inst, kernel) == (sign * series.coefficient(k),) * 3, k


class TestBetaCoefficients:
    def test_empty_support_zero_identity(self):
        table = beta_coefficients(ZERO_SHIFT)
        assert table.support_high < table.support_low
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
            monkeypatch.setattr(
                identity, "lhs_series", lambda i, t: bumped(real(i, t), e, [Q(1, 7)])
            )
            with pytest.raises(
                SupportViolation, match=rf"^nonzero coefficient at z\^{e} .*: 1-bit numerator, 3-bit "
            ):
                beta_coefficients(inst)
            assert verify(inst).vanishing_ok is False

    def test_violation_under_the_int_text_cap(self, monkeypatch):
        # at p = 199 S(z)'s denominator has more than 640 digits: a violation
        # message that printed the coefficient would raise ValueError under a cap of 640
        inst = IdentityInstance(a=P31.a, b=P31.b, m=(100, 100), n=(0, 0))
        real = identity.lhs_series

        def perturbed(inst, trunc):
            series = real(inst, trunc)
            nums = series.nums[:-1] + (series.nums[-1] + 1,)
            return LaurentSeries(series.low, nums, series.trunc, series.den)

        monkeypatch.setattr(identity, "lhs_series", perturbed)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert verify(inst).vanishing_ok is False
            with pytest.raises(SupportViolation, match=r"^nonzero coefficient at z\^\d+ above "):
                beta_coefficients(inst)
        finally:
            sys.set_int_max_str_digits(limit)


class TestVerify:
    def test_balanced_report(self):
        report = verify(UNIT_SHIFT)
        assert report.passed and report.vanishing_ok
        assert report.cross_checks == {"residue": True, "lemma1": True, "alpha": None}
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
        # once per balanced verify and never for a confluent one, handed route 4's
        # expansion at k = -m_min and the series at each law point up to the truncation
        calls = []
        real = identity.check_residue_polynomial

        def counting(inst, expansion, at_points):
            calls.append((inst, list(expansion), list(at_points)))
            return real(inst, expansion, at_points)

        monkeypatch.setattr(identity, "check_residue_polynomial", counting)
        for inst in (UNIT_SHIFT, CONFLUENT, ZERO_SHIFT, P31):
            assert verify(inst).cross_checks["lemma1"] in (True, None)
        assert [inst for inst, _, _ in calls] == [UNIT_SHIFT, ZERO_SHIFT, P31]
        monkeypatch.undo()
        for inst, expansion, at_points in calls:
            kernel = residue_kernel(inst, -inst.derived.m_min)
            assert expansion == kernel.expansion and len(expansion) == max(inst.derived.p + 1, 0)
            series = lhs_series(inst, verify(inst).checked_up_to)
            assert at_points == [series.coefficient(k) for k in law_points(inst)]

    @pytest.mark.parametrize("inst", [ZERO_SHIFT, P0], ids=["p=-1", "p=0"])
    def test_law_gets_a_value_per_point(self, monkeypatch, inst):
        # at buffer 1 the truncation is 1 and the law's last point, 2, lies above
        # it: that point rests on the proof alone, and the report still holds it
        handed = []
        real = identity.check_residue_polynomial

        def counting(inst, expansion, at_points):
            handed.append(len(at_points))
            report = real(inst, expansion, at_points)
            assert report.points == (0, 1, 2) and len(report.residue_values) == 3
            return report

        monkeypatch.setattr(identity, "check_residue_polynomial", counting)
        for buffer in (1, 2):
            assert verify(inst, buffer).passed
        assert handed == [2, 3]

    def test_top_beta_is_cross_checked(self, monkeypatch):
        # the residue window stops below the top beta, which only the law's points reach:
        # lemma1 compares the law with the series there and flips, residue does not
        inst, p, top = P31, 31, 15
        real = identity.lhs_series

        def perturbed(inst, trunc):
            # plus z^top / (1 - z)^(p + 1): the top beta moves by 1, the support stays
            bump = [comb(t + p, p) for t in range(trunc - top + 1)]
            return bumped(real(inst, trunc), top, bump)

        # with buffer 1 the law's top point lies above the truncation
        for buffer in (25, 1):
            assert verify(inst, buffer).passed
        table = verify(inst).beta
        monkeypatch.setattr(identity, "lhs_series", perturbed)
        for buffer in (25, 1):
            report = verify(inst, buffer)
            assert report.vanishing_ok
            assert report.beta.values == {**table.values, top: table.values[top] + 1}
            assert report.cross_checks == {"residue": True, "lemma1": False, "alpha": None}

    @pytest.mark.parametrize(
        "inst, ks",
        [
            # p = 1: the residue window -1 .. 11 holds the law's points -1 .. 2
            (UNIT_SHIFT, range(-1, 12)),
            # p = 15: the law's points -8 .. 9 reach past the window -8 .. 4
            (
                IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(8, 8), n=(0, 0)),
                range(-8, 5),
            ),
            # p = 31: the law's points -16 .. 17 reach past the window -16 .. -4
            (P31, range(-16, -3)),
        ],
    )
    def test_one_kernel_per_k(self, monkeypatch, tmp_path, capsys, inst, ks):
        # verify builds the residue window only, each kernel stepped from the one
        # below but the first, through identity's one ladder; the law module
        # cannot build a kernel at all
        assert not hasattr(asymptotics, "residue_kernel")
        assert not hasattr(asymptotics, "residue_at_infinity")
        built = []
        real = identity.residue_kernel

        def build(inst, k, below=None):
            built.append((k, below is None))
            return real(inst, k, below)

        monkeypatch.setattr(identity, "residue_kernel", build)
        report = verify(inst)
        assert report.passed
        assert built == [(k, k == ks[0]) for k in ks]
        # the lemma command builds the one kernel at the law's first point
        built.clear()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict()))
        assert main(["lemma", str(path)]) == 0
        points = law_points(inst)
        assert json.loads(capsys.readouterr().out)["points"] == list(points)
        assert built == [(ks[0], True)]

    @pytest.mark.parametrize("count", [-2, 0, 1, 13])
    def test_kernel_ladder_has_count_kernels(self, count):
        # k = -m_min .. -m_min + count - 1, each equal to the kernel built from its roots
        ladder = kernel_ladder(P31, count)
        assert [kernel.k for kernel in ladder] == list(range(-16, -16 + count))
        assert ladder == [residue_kernel(P31, k) for k in range(-16, -16 + count)]


class TestOracleAtPinnedSizes:
    # CI pins the sha256 of verify's stdout on these instances, written from the
    # same file; this checks what those bytes say against S(z) from the oracle,
    # one Fraction per term, taken through (1 - z)^(p + 1) when balanced
    PINNED = json.loads(Path(__file__).with_name("pinned_instances.json").read_text())

    @pytest.mark.parametrize("name", ["balanced", "r3", "confluent", "mixed"])
    def test_every_beta_and_vanishing_coefficient(self, name):
        data = self.PINNED[name]
        report = verify(IdentityInstance.from_dict(data)).to_dict()
        a, b, m, n = data["a"], data["b"], data["m"], data["n"]
        low, trunc = -max(n), report["checked_up_to"]
        coeffs = lhs_coefficients(a, b, m, n, trunc)
        reduced = [coeffs.get(e, Q(0)) for e in range(low, trunc + 1)]
        if len(a) == len(b):
            p = max(-1, sum(m) - sum(n) - len(a) + 1)
            assert report["derived"]["p"] == p
            for _ in range(p + 1):
                reduced = [c - below for c, below in zip(reduced, [0, *reduced])]
        beta = report["beta"]
        assert report["vanishing_ok"] is True and beta
        assert set(beta) <= {str(e) for e in range(low, trunc + 1)}
        # a printed beta equals the oracle's, and every other coefficient is 0
        for e, c in enumerate(reduced, low):
            assert beta.get(str(e), "0") == str(c), (name, e)


    def test_residue_check_at_p199(self, tmp_path, capsys):
        # CI pins residue-check --k 50 on the p = 199 instance: route 3's
        # printed sum against the oracle's product formula at every
        # denominator root, and route 4's against its long division in z
        data, k = self.PINNED["balanced"], 50
        path = tmp_path / "balanced.json"
        path.write_text(json.dumps(data))
        assert main(["residue-check", "--k", str(k), str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        args = data["a"], data["b"], data["m"], data["n"]
        num, den = kernel_roots(*args, k)
        assert len(den) == len(set(den)) == 102
        finite = sum([kernel_pole_residue(*args, k, z0) for z0 in den])
        top = len(num) - len(den)
        at_infinity = expansion_at_infinity(root_product(num), root_product(den), top + 2)[top + 1]
        assert out["finite_residue_sum"] == str(finite) == out["closed_form_sum"]
        assert out["residue_at_infinity"] == str(at_infinity)


def seeded_draws(seed, family):
    rng = random.Random(seed)
    return [random_instance(rng, family=family) for _ in range(5)]


# The faults of TestFaultInjection's matrix.  Each is called as fault(patch, inst)
# and patches, on a monkeypatch context, the globals that verify(inst) reaches.

# routes 2-4 as verify calls them through identity's globals, each with the k of
# its arguments: route 2 takes (inst, k), routes 3 and 4 a kernel
ROUTES = {
    2: ("residue_sum_closed_form", lambda inst, k: k),
    3: ("sum_finite_residues", lambda kernel: kernel.k),
    4: ("residue_at_infinity", lambda kernel: kernel.k),
}


def route_fault(route, at):
    """Route 2, 3 or 4 with 1 added to its value at k = at(inst)."""
    name, k_of = ROUTES[route]

    def fault(patch, inst):
        real, k = getattr(identity, name), at(inst)

        def bumped(*args):
            value = real(*args)
            return value + 1 if k_of(*args) == k else value

        patch.setattr(identity, name, bumped)

    return fault


def window_top(inst):
    # the residue window's top k, above the law's points start .. start + p + 2
    derived = inst.derived
    k = -derived.m_min + DEFAULT_BUFFER // 2
    assert k > -derived.m_min + derived.p + 2
    return k


def first_pole(inst):
    # k = -n_max, the first kernel with a pole
    return -inst.derived.n_max


def below_the_window(inst):
    # a low order of alpha, below the window's start -m_min
    k = first_pole(inst)
    assert k < -inst.derived.m_min
    return k


def expansion_fault(t):
    """Route 4's expansion at the law's first point, k = -m_min, off by 1 at order t:
    below t = p only the law reads it, and at t = p it is the residue as well."""

    def fault(patch, inst):
        real = ResidueKernel.expansion.func

        def bumped(kernel):
            values = real(kernel)
            if kernel.k == -inst.derived.m_min:
                values[t] += 1
            return values

        patch.setattr(ResidueKernel, "expansion", property(bumped))

    return fault


SERIES, VALUES = 0, 1  # what _law_values returns: the law's series at k = -m_min, its values


def law_fault(part, index):
    """One entry of the law's series or of its values off by 1."""

    def fault(patch, inst):
        real = asymptotics._law_values

        def bumped(*args):
            result = real(*args)
            result[part][index] += 1
            return result

        patch.setattr(asymptotics, "_law_values", bumped)

    return fault


def bernoulli_fault(patch, _inst):
    # B_2 off by 1
    real = asymptotics._bernoulli_numbers

    def bumped(n):
        numbers = real(n)
        numbers[2] += 1
        return numbers

    patch.setattr(asymptotics, "_bernoulli_numbers", bumped)


def step_fault(patch, _inst):
    # the step from k to k + 1 taken as the one from k - 1 to k
    real = asymptotics._step
    patch.setattr(asymptotics, "_step", lambda series, d, a, b, k: real(series, d, a, b, k - 1))


def skip_fault(patch, _inst):
    # the law skips its last point
    real = asymptotics._law_values
    patch.setattr(
        asymptotics, "_law_values", lambda inst, order, start, count: real(inst, order, start, count - 1)
    )


BALANCED = seeded_draws(1001, "one")
M8 = IdentityInstance(a=P31.a, b=P31.b, m=(8, 8), n=(0, 0))


class TestFaultInjection:
    # route 1 perturbed by +z^k, for every k from the support's bottom to
    # the truncation: some check of verify must fail at each k
    @pytest.mark.parametrize(
        "family, seed",
        [
            ("one", 1001),
            pytest.param(
                "two",
                1002,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 3: confluent verify runs no residue, alpha or law "
                    "check, so an in-support coefficient rests on route 1 alone",
                ),
            ),
        ],
    )
    def test_route_1_fault_is_caught(self, monkeypatch, family, seed):
        real = identity.lhs_series
        bump_at = []

        def perturbed(inst, trunc):
            return bumped(real(inst, trunc), bump_at[-1], [1])

        missed, tried = [], 0
        for inst in seeded_draws(seed, family):
            report = verify(inst)
            monkeypatch.setattr(identity, "lhs_series", perturbed)
            for k in range(report.beta.support_low, report.checked_up_to + 1):
                bump_at.append(k)
                tried += 1
                if verify(inst).passed:
                    missed.append((inst, k))
            monkeypatch.setattr(identity, "lhs_series", real)
        assert tried > 100
        assert not missed, f"{len(missed)} of {tried} missed, first {missed[0]}"

    # one row per fault: its instances, the fault and the exact set of
    # cross-checks it turns False; a strict xfail is a fault no check catches yet
    @pytest.mark.parametrize(
        "instances, fault, flips",
        [
            pytest.param(BALANCED, route_fault(2, window_top), {"residue"}, id="route2-window-top"),
            pytest.param(BALANCED, route_fault(2, below_the_window), {"alpha"}, id="route2-below-the-window"),
            pytest.param(BALANCED, route_fault(3, window_top), {"residue"}, id="route3-window-top"),
            pytest.param(BALANCED, route_fault(4, window_top), {"residue"}, id="route4-window-top"),
            # at m = (8, 8) the window -8 .. 4 holds k = 0, and at m = (16, 16) it does not
            pytest.param([M8], route_fault(2, first_pole), {"residue"}, id="route2-first-pole-m8"),
            pytest.param(
                [P31],
                route_fault(2, first_pole),
                {"residue"},
                id="route2-first-pole-P31",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 1: P31's residue window k = -16 .. -4 lies below "
                    "k = -n_max = 0, the first kernel with a pole, so it compares no residue",
                ),
            ),
            pytest.param([P31], expansion_fault(0), {"lemma1"}, id="route4-expansion-t0"),
            pytest.param([P31], expansion_fault(17), {"lemma1"}, id="route4-expansion-t17"),
            pytest.param([P31], expansion_fault(31), {"residue", "lemma1"}, id="route4-expansion-t31"),
            pytest.param([P31], law_fault(VALUES, 0), {"lemma1"}, id="law-value-first"),
            pytest.param([P31], law_fault(VALUES, -1), {"lemma1"}, id="law-value-last"),
            pytest.param([P31], law_fault(SERIES, 0), {"lemma1"}, id="law-series-t0"),
            pytest.param([P31], law_fault(SERIES, 15), {"lemma1"}, id="law-series-t15"),
            pytest.param([P31], law_fault(SERIES, 30), {"lemma1"}, id="law-series-t30"),
            pytest.param([P31], bernoulli_fault, {"lemma1"}, id="bernoulli-B2"),
            pytest.param([P31], step_fault, {"lemma1"}, id="law-step-from-k-1"),
            pytest.param([P31], skip_fault, {"lemma1"}, id="law-skips-its-last-point"),
        ],
    )
    def test_fault_flips_exactly(self, monkeypatch, instances, fault, flips):
        for inst in instances:
            with monkeypatch.context() as patch:
                fault(patch, inst)
                report = verify(inst)
            assert report.vanishing_ok
            assert {check for check, ok in report.cross_checks.items() if ok is False} == flips, inst

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the series and route 2 both build their prefactors "
        "with rising_quotient, so a fault there moves both and alpha still agrees",
    )
    def test_shared_prefactor_fault_flips_alpha(self, monkeypatch):
        # rising_quotient halved in both its callers, at p = -1: beta is halved
        # from {-2: 27/2, -1: -9/4}, and only a route apart from it can notice
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 1), n=(2, 0))
        real = identity.rising_quotient

        def halved(*args):
            return real(*args) / 2

        monkeypatch.setattr(identity, "rising_quotient", halved)
        monkeypatch.setattr(residues, "rising_quotient", halved)
        report = verify(inst)
        assert report.beta.values == {-2: Q(27, 4), -1: Q(-9, 8)}
        assert report.cross_checks["alpha"] is False
