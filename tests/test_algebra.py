import random
from fractions import Fraction as Q
from math import gcd

import pytest

from hypident.algebra import (
    LaurentSeries,
    Polynomial,
    RationalFunction,
    clear_denominators,
    expansion_at_infinity,
    one_minus_z_power,
)
from hypident.errors import TruncationError
from hypident.residues import residue_at_simple_pole

from oracles import convolve


def rand_fraction(rng, num=9, den=9):
    return Q(rng.randint(-num, num), rng.randint(1, den))


def rand_poly(rng, max_deg=5):
    return Polynomial(tuple(rand_fraction(rng) for _ in range(rng.randint(0, max_deg + 1))))


def series(low, values, trunc):
    """The series with these rational coefficients from z^low on."""
    den, nums = clear_denominators(values)
    return LaurentSeries(low, nums, trunc, den)


def rand_series(rng):
    low = rng.randint(-4, 4)
    values = [rand_fraction(rng) for _ in range(rng.randint(0, 6))]
    trunc = low + len(values) - 1 + rng.randint(0, 4)
    return series(low, values, trunc)


# the constant -1, certified far past every test series' window
MINUS_ONE = LaurentSeries(0, (-1,), 99)


def coeffs(s):
    return [c for _, c in s.items()]


def as_dict(series):
    return {e: c for e, c in series.items() if c != 0}


class TestPolynomial:
    def test_canonical_form(self):
        p = Polynomial((Q(1), Q(0), Q(0)))
        assert p.coeffs == (Q(1),)
        assert Polynomial(()).is_zero

    def test_value_semantics(self):
        p = Polynomial.from_roots([-1])
        q = Polynomial.interpolate(0, [1, 2])
        assert p == q == Polynomial(coeffs=[1, 1, 0]) and hash(p) == hash(q)
        assert p != Polynomial((1, 2)) and p != ((1, 1),)

    def test_zero_degree_sentinel(self):
        assert Polynomial(()).degree == -1
        assert Polynomial((1,)).degree == 0

    def test_from_roots_and_eval(self):
        p = Polynomial.from_roots([1, Q(1, 2), -3])
        assert p.degree == 3
        assert p.coeffs[-1] == 1
        for root in (1, Q(1, 2), -3):
            assert p(root) == 0
        assert p(0) == (0 - 1) * (0 - Q(1, 2)) * (0 + 3)

    def test_compose_affine(self):
        # p(c0 + c1 t), of degree deg p in t, rebuilt by interpolation at
        # deg p + 1 consecutive points and checked at others
        rng = random.Random(14)
        for _ in range(30):
            p = rand_poly(rng)
            c0, c1 = rand_fraction(rng), rand_fraction(rng)
            start = rng.randint(-4, 4)
            samples = [p(c0 + c1 * t) for t in range(start, start + len(p.coeffs))]
            composed = Polynomial.interpolate(start, samples)
            for t in range(-3, 4):
                assert composed(t) == p(c0 + c1 * t)


class TestLaurentSeries:
    def test_canonicalisation(self):
        s = LaurentSeries(-2, (0, 1, 0), 5)
        assert s.low == -1
        assert s.nums == (1,)
        z = LaurentSeries(0, (0,), 7)
        assert z.is_zero and z.low == 8
        assert z.den == 1
        # cleared rationals, ints over a denominator and a negative
        # denominator with common content all give the one stored form
        forms = [
            series(0, (Q(1, 3), Q(-2, 3), Q(0)), 5),
            LaurentSeries(0, (1, -2), 5, 3),
            LaurentSeries(0, (-4, 8, 0), 5, -12),
            LaurentSeries(0, (4, -8), 5, 12),
            LaurentSeries(-1, (0, 2, -4), 5, 6),
            LaurentSeries(low=0, nums=(-1, 2), trunc=5, den=-3),
            LaurentSeries(0, (1,), 5, 3) + LaurentSeries(1, (-2,), den=3, trunc=5),
        ]
        for s in forms:
            assert (s.nums, s.den) == ((1, -2), 3)
            assert all(type(c) is int for c in s.nums)
            assert s == forms[0] and hash(s) == hash(forms[0])
        assert LaurentSeries(0, (2, 4), 5, -1) != LaurentSeries(0, (2, 4), 5, 1)
        with pytest.raises(ZeroDivisionError):
            LaurentSeries(0, (1,), 5, 0)
        # numerators are ints only; rationals go through clear_denominators
        with pytest.raises(TypeError):
            LaurentSeries(0, (1, Q(1, 2)), 5)
        with pytest.raises(TypeError):
            LaurentSeries(0, (Q(2),), 5, 3)

    def test_equal_series_compare_equal_whatever_built_them(self):
        rng = random.Random(20)
        for _ in range(60):
            a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
            for s in (a + b, a * b, c * MINUS_ONE):
                assert s.den > 0
                assert gcd(s.den, *s.nums) == 1
                assert all(type(x) is int for x in s.nums)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            t = min(a.trunc, b.trunc)
            assert (a + b) + b * MINUS_ONE == a + LaurentSeries.zero(t)
            # rebuilt from its Fraction coefficients it is the same value
            assert series(a.low, coeffs(a), a.trunc) == a

    def test_construction_arguments(self):
        assert LaurentSeries(0, (3,), 5) == LaurentSeries(0, (3,), trunc=5, den=1)
        # a missing field, one too many, one given twice, an unknown one
        for args, kwargs in [
            ((0, (1,)), {}),
            ((0, (1,), 5, 1, 2), {}),
            ((0, (1,), 5), {"nums": (2,)}),
            ((0, (1,), 5), {"scale": 2}),
        ]:
            with pytest.raises(TypeError):
                LaurentSeries(*args, **kwargs)

    def test_sum_across_denominators(self):
        half = series(-1, (Q(1, 2), Q(1, 4)), 3)
        third = series(0, (Q(1, 3), Q(-1, 6), Q(5, 9)), 2)
        total = half + third
        assert total.trunc == 2
        assert [total.coefficient(e) for e in range(-1, 3)] == [
            Q(1, 2), Q(1, 4) + Q(1, 3), Q(-1, 6), Q(5, 9)
        ]
        assert total.den == 36
        # the common denominator cancels away when the sum is an integer series
        assert (half + half * MINUS_ONE).is_zero
        assert series(0, (Q(1, 6),), 3) + series(0, (Q(5, 6),), 3) == (
            LaurentSeries(0, (1,), 3)
        )

    def test_reading_above_truncation_raises(self):
        s = LaurentSeries(0, (1,), 3)
        assert s.coefficient(3) == 0
        with pytest.raises(TruncationError):
            s.coefficient(4)

    def test_storing_above_truncation_rejected(self):
        with pytest.raises(ValueError):
            LaurentSeries(0, (1, 1), 0)

    def test_difference_of_squares(self):
        one_plus = LaurentSeries(0, (1, 1), 5)
        one_minus = LaurentSeries(0, (1, -1), 5)
        prod = one_plus * one_minus
        assert prod.trunc == 5
        assert [prod.coefficient(e) for e in range(6)] == [1, 0, -1, 0, 0, 0]

    def test_exponent_cancellation_truncation_rule(self):
        zinv = LaurentSeries(-1, (1,), 5)
        z = LaurentSeries(1, (1,), 5)
        prod = zinv * z
        # each operand certifies the product only through z^4
        assert prod.trunc == min(5 + 1, 5 - 1) == 4
        assert prod.coefficient(0) == 1
        assert all(prod.coefficient(e) == 0 for e in range(1, 5))

    def test_geometric_times_one_minus_z(self):
        geometric = LaurentSeries(0, (1,) * 11, 10)
        prod = geometric * one_minus_z_power(1, 10)
        assert prod.coefficient(0) == 1
        assert all(prod.coefficient(e) == 0 for e in range(1, prod.trunc + 1))

    def test_mul_against_convolution_oracle(self):
        rng = random.Random(16)
        for _ in range(100):
            a, b = rand_series(rng), rand_series(rng)
            prod = a * b
            expected = convolve(as_dict(a), as_dict(b))
            for e in range(prod.low - 2, prod.trunc + 1):
                assert prod.coefficient(e) == expected.get(e, Q(0))

    def test_truncation_propagation(self):
        rng = random.Random(17)
        for _ in range(50):
            a, b = rand_series(rng), rand_series(rng)
            assert (a * b).trunc == min(a.trunc + b.low, b.trunc + a.low)
            assert (a + b).trunc == min(a.trunc, b.trunc)

    def test_ring_axioms(self):
        rng = random.Random(18)
        for _ in range(30):
            a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
            lhs = (a + b) * c
            rhs = a * c + b * c
            for e in range(lhs.low, min(lhs.trunc, rhs.trunc) + 1):
                assert lhs.coefficient(e) == rhs.coefficient(e)


@pytest.mark.parametrize(
    "value, text",
    [
        (Polynomial(()), "0"),
        (Polynomial((1, -2, 0, -1)), "-z^3 - 2*z + 1"),
        (Polynomial((Q(1, 2), 1, Q(-3, 4), -1)), "-z^3 - 3/4*z^2 + z + 1/2"),
        (Polynomial((-5,)), "-5"),
        (Polynomial((0, 1)), "z"),
        (Polynomial((0, -1)), "-z"),
        (Polynomial((3, 0, 1)), "z^2 + 3"),
        (Polynomial((0, Q(-2, 3), Q(7, 5))), "7/5*z^2 - 2/3*z"),
        (LaurentSeries.zero(4), "0 + O(z^5)"),
        (LaurentSeries.zero(-3), "0 + O(z^-2)"),
        (series(-1, (Q(-1), 2, 0, Q(3, 7), -1), 6), "-z^-1 + 2 + 3/7*z^2 - z^3 + O(z^7)"),
        (
            series(-2, (1, Q(-1, 2), 0, -3, 1, Q(5, 2)), 9),
            "z^-2 - 1/2*z^-1 - 3*z + z^2 + 5/2*z^3 + O(z^10)",
        ),
        (LaurentSeries(0, (0, -1), 3), "-z + O(z^4)"),
        (series(-3, (Q(2, 3),), -1), "2/3*z^-3 + O(z^0)"),
    ],
)
def test_str(value, text):
    assert str(value) == text


class TestOneMinusZPower:
    def test_small_exponents(self):
        for exponent, expected in ((0, [1, 0, 0, 0, 0]), (2, [1, -2, 1, 0, 0])):
            s = one_minus_z_power(exponent, 4)
            assert [s.coefficient(e) for e in range(5)] == expected

    def test_binomial_table(self):
        from math import comb

        s = one_minus_z_power(5, 10)
        assert s.coefficient(3) == -10
        for e in range(6):
            assert s.coefficient(e) == (-1) ** e * comb(5, e)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            one_minus_z_power(-1, 5)


class TestExpansionAtInfinity:
    def test_exact_identity(self):
        f = RationalFunction(Polynomial((1, 1)), Polynomial((0, 1)))  # (z+1)/z
        assert f.num.degree - f.den.degree == 0
        assert expansion_at_infinity(f, 2) == [1, 1]

    def test_degree_gap(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((0, -1, 1)))  # 1/(z(z-1))
        assert f.num.degree - f.den.degree == -2
        assert expansion_at_infinity(f, 3) == [1, 1, 1]

    def test_geometric_expansion(self):
        f = RationalFunction(Polynomial((0, 0, 1)), Polynomial((-1, 1)))  # z^2/(z-1)
        assert f.num.degree - f.den.degree == 1
        assert expansion_at_infinity(f, 4) == [1, 1, 1, 1]

    def test_zero_numerator(self):
        f = RationalFunction(Polynomial(()), Polynomial((77, 1)))
        assert f.num.degree == -1
        assert expansion_at_infinity(f, 3) == [0, 0, 0]

    def test_bad_depth(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((0, 1)))
        with pytest.raises(ValueError):
            expansion_at_infinity(f, 0)


class TestRationalFunction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial((1,)), Polynomial(()))

    def test_residue_sum_equals_inverse_z_coefficient(self):
        # for deg num < deg den with simple poles: sum of residues == C_{-1}
        rng = random.Random(19)
        pool = [Q(p, q) for p in range(-6, 7) for q in (1, 2, 3)]
        for _ in range(40):
            roots = rng.sample(pool, rng.randint(1, 4))
            den = Polynomial.from_roots(roots)
            num = Polynomial(
                tuple(rand_fraction(rng) for _ in range(rng.randint(1, len(roots))))
            )
            f = RationalFunction(num, den)
            total = sum(residue_at_simple_pole(f, r) for r in roots)
            top = num.degree - den.degree
            coeffs = expansion_at_infinity(f, len(roots) + 1)
            c_minus_one = Q(0)
            if top >= -1:
                c_minus_one = coeffs[top + 1]
            assert total == c_minus_one
