import math
from fractions import Fraction as Q

import pytest

from hypident import bessel
from hypident.bessel import bessel_demo, bessel_j
from hypident.errors import NotDistinctModZ, NumericResidualExceeded
from hypident.hyper import IdentityInstance
from hypident.identity import beta_coefficients


class TestBesselJ:
    def test_half_integer_closed_forms(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x,  J_{-1/2}(x) = sqrt(2/(pi x)) cos x
        for x in (0.7, 1.3, 2.9):
            factor = math.sqrt(2.0 / (math.pi * x))
            assert bessel_j(0.5, x) == pytest.approx(factor * math.sin(x), abs=1e-13)
            assert bessel_j(-0.5, x) == pytest.approx(factor * math.cos(x), abs=1e-13)

    @pytest.mark.parametrize("nu", [1 / 3, -1 / 3, -20.5, -40.25, 16 / 3])
    def test_against_mpmath(self, nu):
        # for nu = -20.5 and -40.25 the terms grow again near k = -nu - 1,
        # and 30 terms were 3.8e-6 off at nu = -20.5, x = 15
        mpmath = pytest.importorskip("mpmath")
        for x in (0.5, 3.0, 10.0, 15.0):
            assert bessel_j(nu, x) == pytest.approx(float(mpmath.besselj(nu, x)), rel=1e-9)

    def test_terms_that_grow_again_are_summed(self):
        # nu + 5 is -1e-14: term 4 (about 4e-18) leaves the float total
        # unchanged, and term 5 is 4.5e9 times larger.  A stop rule that reads
        # only k and x ends the sum there, 2e-8 short
        mpmath = pytest.importorskip("mpmath")
        nu, x = -5 - 1e-14, 0.03
        with mpmath.workdps(30):
            expected = float(mpmath.besselj(nu, x))
        assert bessel_j(nu, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nu", [-20.000001, Q(-20000001, 10**6), 20.000001, -1e-6])
    def test_order_next_to_an_integer(self, nu):
        # next to its pole 1/Gamma(nu + 1) moves by 1e6 relative per unit of nu,
        # so rounding nu = -20000001/10^6 to a float put J 1.03e-9 off; the exact
        # order and the reflection keep it at float precision, float orders too
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            order = mpmath.mpf(Q(nu).numerator) / Q(nu).denominator
            for x in (0.5, 3.0):
                expected = float(mpmath.besselj(order, x))
                assert bessel_j(nu, x) == pytest.approx(expected, rel=1e-13, abs=0), (nu, x)

    @pytest.mark.parametrize(
        "nu, x",
        [
            (-170 - 1 / 3, 0.5),  # (x/2)^nu / Gamma(nu + 1) overflows
            (-1 / 3, 1e300),  # the first term ratio overflows
            (-2 - 1 / 3, 1e-300),  # the float power overflows
            (-190.5, 0.5),  # Gamma(nu + 1) underflows to 0
        ],
    )
    def test_overflow_names_nu_and_x(self, nu, x):
        with pytest.raises(OverflowError) as caught:
            bessel_j(nu, x)
        assert str(caught.value) == f"J_nu(x) does not fit in a float at nu={nu}, x={x}"

    @pytest.mark.parametrize("nu, x", [(1 / 3, -1.0), (-1 / 3, 0.0), (1 / 3, math.nan), (1 / 3, math.inf)])
    def test_x_outside_the_domain_rejected(self, nu, x):
        # unchecked, these end in TypeError, ZeroDivisionError or a misleading OverflowError
        with pytest.raises(ValueError, match=f"^x must be finite and positive, got {x}$"):
            bessel_j(nu, x)

    @pytest.mark.parametrize("nu", [-1, -2, -1.0, Q(-3)])
    def test_negative_integer_order_rejected(self, nu):
        # unchecked, nu + 1 + k reaches 0 in the series loop: a bare ZeroDivisionError
        with pytest.raises(ValueError, match=rf"^nu \+ 1 must not be a non-positive integer, got nu={nu}$"):
            bessel_j(nu, 1.0)


class TestBesselDemo:
    def test_zero_shift_is_identically_zero(self):
        report = bessel_demo(Q(1, 3), 0)
        assert report.passed
        beta = report.exact.beta
        assert beta.support_high < beta.support_low

    def test_first_shift_constant(self):
        report = bessel_demo(Q(1, 3), 1, samples=(0.5, 1.0, 1.5, 2.0))
        assert report.passed
        assert report.max_residual < 1e-10
        assert report.exact.passed

    def test_third_shift_linear_in_t(self):
        report = bessel_demo(Q(1, 4), 3)
        assert report.passed
        assert (report.exact.beta.support_low, report.exact.beta.support_high) == (-3, -1)

    def test_negative_shift(self):
        report = bessel_demo(Q(1, 3), -2)
        assert report.passed

    @pytest.mark.parametrize(
        "nu, m",
        [(Q(1, 10**6), 20), (Q(-1, 10**6), -20), (Q(20000001, 10**6), 5), (Q(1000001, 10**6), 7)],
    )
    def test_order_next_to_an_integer(self, nu, m):
        # J and sin(nu pi) both take nu exactly; with float orders the residual
        # was 1.0e-9, 1.0e-9 and 6.8e-10 at x = 0.5 in the first three.  The
        # last is next to an odd integer, where sin(nu pi) changes sign
        report = bessel_demo(nu, m)
        assert report.passed
        assert report.max_residual < 1e-13

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
        for tolerance in (math.inf, math.nan, 0.0, -1e-10):
            with pytest.raises(ValueError):
                bessel_demo(Q(1, 3), 3, tolerance=tolerance)

    def test_report_serialization(self):
        data = bessel_demo(Q(1, 3), 2).to_dict()
        assert data["ok"] is True
        assert data["nu"] == "1/3"
        assert data["m"] == 2
        assert data["exact"]["vanishing_ok"] is True


class TestAgainstCertifiedTable:
    @pytest.mark.parametrize("m", [1, 2, 3, -2, 5, 11])
    def test_doubled_bessel_j_is_caught(self, monkeypatch, m):
        # a factor-2 transcription fault quadruples the combination but not
        # the closed form read from the certified table
        single = bessel.bessel_j
        monkeypatch.setattr(bessel, "bessel_j", lambda nu, x: 2 * single(nu, x))
        with pytest.raises(NumericResidualExceeded, match=r"at x=0\.5 "):
            bessel_demo(Q(1, 3), m)

    def test_nan_fails(self, monkeypatch):
        monkeypatch.setattr(bessel, "bessel_j", lambda nu, x: math.nan)
        with pytest.raises(NumericResidualExceeded, match="nan"):
            bessel_demo(Q(1, 3), 2)

    def test_closed_form_overflow_names_the_sample(self):
        # near an integer nu, sin(nu pi) is small: every J fits in a float at
        # x = 1, but the polynomial that the combination equals does not
        with pytest.raises(OverflowError, match=r"^the closed form .* at x=1\.0$"):
            bessel_demo(Q(1, 10**6), 152, samples=(1.0, 2.0))

    @pytest.mark.parametrize("m", [11, 40])
    def test_large_shift_is_checked(self, m):
        report = bessel_demo(Q(1, 3), m)
        assert report.passed
        assert 0 < report.max_residual < 1e-10


class TestClosedFormAgainstMpmath:
    # (-1)^m J_{-nu} J_{nu+m} - J_nu J_{-nu-m}
    #   = (2 sin(nu pi) / (pi x)) (-1)^m (x/2)^(m+1) sum_j beta_j (-x^2/4)^j,
    # with the J from mpmath.besselj, independent of bessel_j
    @pytest.mark.parametrize(
        "nu, m",
        [(Q(1, 3), 1), (Q(1, 3), 4), (Q(-2, 7), 7), (Q(5, 4), 6), (Q(1, 3), -3), (Q(1, 5), -8),
         (Q(7, 3), 9)],
    )
    def test_certified_table(self, nu, m):
        mpmath = pytest.importorskip("mpmath")
        table = beta_coefficients(IdentityInstance(a=(0, nu), b=(), m=(), n=(m, 0)))
        for x in (Q(1, 2), Q(7, 5), Q(3)):
            poly = (x / 2) ** (m + 1) * sum(
                (v * (-x * x / 4) ** j for j, v in table.values.items()), Q(0)
            )
            with mpmath.workdps(30):
                v, xf = (mpmath.mpf(q.numerator) / q.denominator for q in (nu, x))
                first = (-1) ** m * mpmath.besselj(-v, xf) * mpmath.besselj(v + m, xf)
                second = mpmath.besselj(v, xf) * mpmath.besselj(-v - m, xf)
                closed = (
                    2 * mpmath.sin(v * mpmath.pi) / (mpmath.pi * xf) * (-1) ** m
                    * mpmath.mpf(poly.numerator) / poly.denominator
                )
                scale = abs(first) + abs(second)
                assert abs(first - second - closed) <= mpmath.mpf(10) ** -25 * scale, (nu, m, x)
