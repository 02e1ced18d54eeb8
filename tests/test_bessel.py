import math
from fractions import Fraction as Q

import pytest

from hypident.bessel import bessel_demo, bessel_j, divided_differences
from hypident.errors import NotDistinctModZ, NumericResidualExceeded


class TestBesselJ:
    def test_half_integer_closed_forms(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x,  J_{-1/2}(x) = sqrt(2/(pi x)) cos x
        for x in (0.7, 1.3, 2.9):
            factor = math.sqrt(2.0 / (math.pi * x))
            assert bessel_j(0.5, x) == pytest.approx(factor * math.sin(x), abs=1e-13)
            assert bessel_j(-0.5, x) == pytest.approx(factor * math.cos(x), abs=1e-13)

    def test_series_converged_at_order_30(self):
        for x in (0.5, 3.0):
            assert bessel_j(1.0 / 3.0, x, 30) == pytest.approx(
                bessel_j(1.0 / 3.0, x, 60), rel=1e-15
            )


class TestDividedDifferences:
    def test_polynomial_annihilation(self):
        ts = [0.5, 1.0, 2.0, 3.0, 4.5]
        ys = [3.0 * t * t - 2.0 * t + 1.0 for t in ts]
        table = divided_differences(ts, ys)
        assert table[2] == pytest.approx([3.0] * 3)  # leading coefficient
        for row in table[3:]:
            assert all(abs(v) < 1e-12 for v in row)


class TestBesselDemo:
    def test_zero_shift_is_identically_zero(self):
        report = bessel_demo(Q(1, 3), 0)
        assert report.passed
        assert report.degree_bound == -1
        assert report.exact.beta.is_empty

    def test_first_shift_constant(self):
        report = bessel_demo(Q(1, 3), 1, samples=(0.5, 1.0, 1.5, 2.0))
        assert report.passed
        assert report.degree_bound == 0
        assert report.max_residual < 1e-10
        assert report.exact.passed

    def test_third_shift_linear_in_t(self):
        report = bessel_demo(Q(1, 4), 3)
        assert report.passed
        assert report.degree_bound == 1
        assert (report.exact.beta.support_low, report.exact.beta.support_high) == (-3, -1)

    def test_negative_shift(self):
        report = bessel_demo(Q(1, 3), -2)
        assert report.passed
        assert report.degree_bound == 0

    def test_integer_order_rejected_by_exact_layer(self):
        with pytest.raises(NotDistinctModZ):
            bessel_demo(2, 1)

    def test_float_order_rejected(self):
        with pytest.raises(ValueError):
            bessel_demo(1 / 3, 1)

    def test_unreachable_tolerance(self):
        with pytest.raises(NumericResidualExceeded):
            bessel_demo(Q(1, 3), 1, tolerance=1e-18)

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            bessel_demo(Q(1, 3), 1, samples=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            bessel_demo(Q(1, 3), 1, samples=(2.0,))
        with pytest.raises(ValueError):
            bessel_demo(Q(1, 3), 1, samples=(-1.0, 2.0, 3.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                bessel_demo(Q(1, 3), 3, samples=(bad, 1.0, 2.0))

    def test_vacuous_settings_rejected(self):
        with pytest.raises(ValueError):
            bessel_demo(Q(1, 3), 3, order=-1)
        for tolerance in (math.inf, math.nan, 0.0, -1e-10):
            with pytest.raises(ValueError):
                bessel_demo(Q(1, 3), 3, tolerance=tolerance)

    def test_report_serialization(self):
        data = bessel_demo(Q(1, 3), 2).to_dict()
        assert data["ok"] is True
        assert data["nu"] == "1/3"
        assert data["m"] == 2
        assert data["exact"]["vanishing_ok"] is True
