import json
import random
from fractions import Fraction as Q
from math import comb, factorial

import pytest

from hypident import asymptotics, cli, identity
from hypident.algebra import LaurentSeries, clear_denominators
from hypident.asymptotics import law_points
from hypident.cli import main
from hypident.errors import CheckFailed, SupportViolation, TruncationTooSmall
from hypident.fuzzing import random_instance
from hypident.hyper import IdentityInstance, Theorem, validate
from hypident.identity import DEFAULT_BUFFER, beta_coefficients, lhs_series, verify
from hypident.residues import ResidueKernel, residue_kernel, residue_sum_closed_form

from oracles import bernoulli_numbers, law_g, lhs_coefficients, lhs_value, partial_fraction_zero_sum, poch

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

    def test_truncation_too_small(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(-2, -2))
        with pytest.raises(TruncationTooSmall):
            lhs_series(inst, 1)
        lhs_series(inst, 2)

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
            monkeypatch.setattr(
                identity, "lhs_series", lambda i, t: bumped(real(i, t), e, [Q(1, 7)])
            )
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
            assert report.cross_checks == {"residue": True, "lemma1": False, "alpha": True}

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
        monkeypatch.setattr(cli, "residue_kernel", build)
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
                    reason="ROADMAP item 1: confluent verify runs no residue, alpha or law "
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

        rng = random.Random(seed)
        missed, tried = [], 0
        for _ in range(5):
            inst = random_instance(rng, family=family)
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

    # routes 2-4, each wrapped through the module global that verify calls, with 1
    # added to its value at one k; route 2 takes (inst, k), routes 3 and 4 a kernel
    ROUTES = {
        "route 2": ("residue_sum_closed_form", lambda inst, k: k),
        "route 3": ("sum_finite_residues", lambda kernel: kernel.k),
        "route 4": ("residue_at_infinity", lambda kernel: kernel.k),
    }

    @staticmethod
    def bump(monkeypatch, module, name, at, k_of):
        real = getattr(module, name)

        def bumped(*args):
            value = real(*args)
            return value + 1 if k_of(*args) == at else value

        monkeypatch.setattr(module, name, bumped)

    @staticmethod
    def failed(report):
        return {key for key, ok in report.cross_checks.items() if ok is False}

    @pytest.mark.parametrize(
        "route, where, flips",
        [
            ("route 2", "window", {"residue"}),
            ("route 2", "low order", {"alpha"}),
            ("route 3", "window", {"residue"}),
            ("route 4", "window", {"residue"}),
        ],
    )
    def test_route_fault_flips_its_check(self, monkeypatch, route, where, flips):
        name, k_of = self.ROUTES[route]
        rng = random.Random(1001)
        for _ in range(5):
            inst = random_instance(rng, family="one")
            derived = inst.derived
            start = -derived.m_min
            if where == "window":
                # the window's top k, above the law's points start .. start + p + 2
                k = start + DEFAULT_BUFFER // 2
                assert k > start + derived.p + 2
            else:
                k = -derived.n_max
                assert k < start
            with monkeypatch.context() as patch:
                self.bump(patch, identity, name, k, k_of)
                report = verify(inst)
            assert report.vanishing_ok
            assert self.failed(report) == flips, (inst, k)

    def test_route_4_fault_at_a_law_point_flips_lemma1(self, monkeypatch):
        # route 4's expansion at the law's first point, k = -16, off by 1 at order t:
        # below t = p only the law reads it, and at t = p it is the residue as well
        real = ResidueKernel.expansion.func
        for t, flips in ((0, {"lemma1"}), (17, {"lemma1"}), (31, {"residue", "lemma1"})):

            def bumped(kernel, t=t):
                values = real(kernel)
                if kernel.k == -16:
                    values[t] += 1
                return values

            with monkeypatch.context() as patch:
                patch.setattr(ResidueKernel, "expansion", property(bumped))
                report = verify(P31)
            assert report.vanishing_ok
            assert self.failed(report) == flips, t

    @pytest.mark.parametrize("index", [0, -1])
    def test_law_fault_flips_lemma1_only(self, monkeypatch, index):
        real = asymptotics._law_values

        def bumped(inst, order, start, count):
            series, values = real(inst, order, start, count)
            values[index] += 1
            return series, values

        monkeypatch.setattr(asymptotics, "_law_values", bumped)
        report = verify(P31)
        assert report.vanishing_ok
        assert self.failed(report) == {"lemma1"}

    @pytest.mark.parametrize("t", [0, 15, 30])
    def test_start_series_fault_flips_lemma1(self, monkeypatch, t):
        # one order t < p of the law's series at k = -m_min off by 1
        real = asymptotics._law_values

        def bumped(inst, order, start, count):
            series, values = real(inst, order, start, count)
            series[t] += 1
            return series, values

        monkeypatch.setattr(asymptotics, "_law_values", bumped)
        report = verify(P31)
        assert report.vanishing_ok
        assert self.failed(report) == {"lemma1"}

    def test_bernoulli_fault_flips_lemma1_only(self, monkeypatch):
        # B_2 off by 1: the law's series leaves the integers at the first order t
        # where the oracle's D^t q_t, from the same wrong numbers, does
        real = asymptotics._bernoulli_numbers

        def bumped(n):
            numbers = real(n)
            numbers[2] += 1
            return numbers

        monkeypatch.setattr(asymptotics, "_bernoulli_numbers", bumped)
        report = verify(P31)
        assert report.vanishing_ok
        assert self.failed(report) == {"lemma1"}

        start, p, d = -P31.derived.m_min, P31.derived.p, P31.derived.scale
        numbers = bernoulli_numbers(p + 1)
        numbers[2] += 1
        g = [None] + [law_g(P31.a, P31.b, P31.m, P31.n, j, start, numbers) for j in range(1, p + 1)]
        q, t = [Q(1)], 0
        while (d**t * q[t]).denominator == 1:
            t += 1
            q.append(sum(u * g[u] * q[t - u] for u in range(1, t + 1)) / t)
        with pytest.raises(CheckFailed, match=rf"^law's series at k={start}, order t={t}: not an integer$"):
            asymptotics._law_values(P31, p, start, 1)

    def test_law_step_fault_flips_lemma1(self, monkeypatch):
        # the step from k to k + 1 taken as the one from k - 1 to k
        real = asymptotics._step
        monkeypatch.setattr(asymptotics, "_step", lambda series, d, a, b, k: real(series, d, a, b, k - 1))
        report = verify(P31)
        assert report.vanishing_ok
        assert self.failed(report) == {"lemma1"}

    def test_law_skipping_its_last_point_flips_lemma1(self, monkeypatch):
        real = asymptotics._law_values
        monkeypatch.setattr(
            asymptotics, "_law_values", lambda inst, order, start, count: real(inst, order, start, count - 1)
        )
        report = verify(P31)
        assert report.vanishing_ok
        assert self.failed(report) == {"lemma1"}
