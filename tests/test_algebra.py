import random
from fractions import Fraction as Q
from math import comb, gcd

import pytest

from hypident.algebra import (
    LaurentSeries,
    Polynomial,
    clear_denominators,
    convolve as integer_convolve,
)
from hypident.errors import TruncationError
from hypident.residues import Pole, ResidueKernel, residue_at_infinity, sum_finite_residues

from oracles import convolve, expansion_at_infinity, poly_value, root_product


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


def coeffs(s):
    return [Q(c, s.den) for c in s.nums]


class TestPolynomial:
    def test_canonical_form(self):
        p = Polynomial((Q(1), Q(0), Q(0)))
        assert p.coeffs == (Q(1),)
        assert Polynomial(()).coeffs == ()

    def test_value_semantics(self):
        p = Polynomial(root_product([-1]))
        q = Polynomial.interpolate(0, [1, 2])
        assert p == q == Polynomial(coeffs=[1, 1, 0]) and hash(p) == hash(q)
        assert p != Polynomial((1, 2)) and p != ((1, 1),)

    def test_zero_degree_sentinel(self):
        assert Polynomial(()).degree == -1
        assert Polynomial((1,)).degree == 0

    def test_compose_affine(self):
        # p(c0 + c1 t), of degree deg p in t, rebuilt by interpolation at
        # deg p + 1 consecutive points and checked at others
        rng = random.Random(14)
        for _ in range(30):
            p = rand_poly(rng)
            c0, c1 = rand_fraction(rng), rand_fraction(rng)
            start = rng.randint(-4, 4)
            samples = [poly_value(p.coeffs, c0 + c1 * t) for t in range(start, start + len(p.coeffs))]
            composed = Polynomial.interpolate(start, samples)
            for t in range(-3, 4):
                assert poly_value(composed.coeffs, t) == poly_value(p.coeffs, c0 + c1 * t)


class TestLaurentSeries:
    def test_canonicalisation(self):
        s = LaurentSeries(-2, (0, 1, 0), 5)
        assert s.low == -1
        assert s.nums == (1,)
        z = LaurentSeries(0, (0,), 7)
        assert z.nums == () and z.low == 8
        assert z.den == 1
        # cleared rationals, ints over a denominator, a negative denominator
        # with common content and zeros at both ends all give the one stored form
        forms = [
            series(0, (Q(1, 3), Q(-2, 3), Q(0)), 5),
            LaurentSeries(0, (1, -2), 5, 3),
            LaurentSeries(0, (-4, 8, 0), 5, -12),
            LaurentSeries(0, (4, -8), 5, 12),
            LaurentSeries(-1, (0, 2, -4), 5, 6),
            LaurentSeries(low=0, nums=(-1, 2), trunc=5, den=-3),
            LaurentSeries(-2, [0, 0, -3, 6, 0], 5, -9),
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
            a = rand_series(rng)
            n, m = rng.randint(0, 4), rng.randint(0, 4)
            s = a.times_one_minus_z(n + m)
            assert s.den > 0
            assert gcd(s.den, *s.nums) == 1
            assert all(type(x) is int for x in s.nums)
            # one power or two in turn, and zero powers, give the same value
            assert a.times_one_minus_z(n).times_one_minus_z(m) == s
            assert a.times_one_minus_z(0) == a
            # rebuilt from its Fraction coefficients it is the same value
            assert series(a.low, coeffs(a), a.trunc) == a
            assert series(s.low, coeffs(s), s.trunc) == s

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

    def test_reading_above_truncation_raises(self):
        s = LaurentSeries(0, (1,), 3)
        assert s.coefficient(3) == 0
        with pytest.raises(TruncationError):
            s.coefficient(4)

    def test_storing_above_truncation_rejected(self):
        with pytest.raises(ValueError):
            LaurentSeries(0, (1, 1), 0)

    def test_difference_of_squares(self):
        prod = LaurentSeries(0, (1, 1), 5).times_one_minus_z(1)
        assert prod.trunc == 5
        assert [prod.coefficient(e) for e in range(6)] == [1, 0, -1, 0, 0, 0]

    def test_geometric_times_one_minus_z(self):
        geometric = LaurentSeries(0, (1,) * 11, 10)
        prod = geometric.times_one_minus_z(1)
        assert prod.coefficient(0) == 1
        assert all(prod.coefficient(e) == 0 for e in range(1, prod.trunc + 1))
        # from a negative power, over a denominator
        prod = LaurentSeries(-2, (1,) * 8, 5, 3).times_one_minus_z(1)
        assert (prod.low, prod.nums, prod.den, prod.trunc) == (-2, (1,), 3, 5)

    def test_truncation_propagation(self):
        # the product keeps the series' truncation: z^-2 (1 - z)^12 is cut at z^6,
        # past the one stored coefficient, so the zeros up to there take part
        prod = LaurentSeries(-2, (1,), 6).times_one_minus_z(12)
        assert prod.trunc == 6
        assert [prod.coefficient(e) for e in range(-2, 7)] == [
            (-1) ** i * comb(12, i) for i in range(9)
        ]
        with pytest.raises(TruncationError):
            prod.coefficient(7)
        assert LaurentSeries(0, (), 3).times_one_minus_z(4) == LaurentSeries(0, (), 3)


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
        (LaurentSeries(0, (), 4), "0 + O(z^5)"),
        (LaurentSeries(0, (), -3), "0 + O(z^-2)"),
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


class TestConvolve:
    def test_against_the_oracle(self):
        """``algebra.convolve`` on its own: the first ``width`` entries of the
        oracle's product, whatever the operands' lengths and order."""
        row = (3, -1, 4, 1, -5)
        # an empty operand; width <= 0, which a product with a zero series
        # passes; operands both shorter than width, both longer, and ragged
        cases = [((), row, 4), (row, row, 0), (row, row, -3), (row, (2, 7), 9),
                 (row, row, 3), (row, (2, 7), 4)]
        rng = random.Random(25)
        for _ in range(300):
            a = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 13)))
            b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 13))]
            cases.append((a, b, rng.randint(-2, 10)))
        for a, b, width in cases:
            for x, y in ((a, b), (b, a)):
                product = convolve(dict(enumerate(x)), dict(enumerate(y)))
                expected = [product.get(e, 0) for e in range(width)]
                assert integer_convolve(x, y, width) == expected, (x, y, width)


class TestOneMinusZPower:
    """(1 - z)^n as the constant 1 times it."""

    def test_small_exponents(self):
        for exponent, expected in ((0, [1, 0, 0, 0, 0]), (2, [1, -2, 1, 0, 0])):
            s = LaurentSeries(0, (1,), 4).times_one_minus_z(exponent)
            assert [s.coefficient(e) for e in range(5)] == expected

    def test_binomial_table(self):
        s = LaurentSeries(0, (1,), 10).times_one_minus_z(5)
        assert s.coefficient(3) == -10
        for e in range(11):
            assert s.coefficient(e) == (-1) ** e * comb(5, e)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="power must be non-negative"):
            LaurentSeries(0, (1,), 5).times_one_minus_z(-1)


def kernel_of(num, den, roots=()):
    """A kernel built directly from integer coefficient tuples in w = z (scale
    1, with den's simple ``roots`` as its poles), with its true offset
    deg num - deg den."""
    poles = tuple([Pole(root, 0, j) for j, root in enumerate(roots)])
    return ResidueKernel(0, 1, num, den, poles, len(num) - len(den))


class TestExpansionAtInfinity:
    # route 4's expansion, C_0 .. C_{offset+1}, through the coefficient of 1/z
    def test_exact_identity(self):
        assert kernel_of((1, 1), (0, 1)).expansion == [1, 1]  # (z+1)/z

    def test_degree_gap(self):
        assert kernel_of((1,), (0, -1, 1)).expansion == []  # 1/(z(z-1)): offset -2
        assert kernel_of((1,), (-1, 1)).expansion == [1]  # 1/(z-1): offset -1

    def test_geometric_expansion(self):
        assert kernel_of((0, 0, 1), (-1, 1)).expansion == [1, 1, 1]  # z^2/(z-1)

    def test_zero_numerator(self):
        assert kernel_of((), (77, 1)).expansion == []
        assert kernel_of((), (1,)).expansion == [0]


class TestRationalFunction:
    def test_residue_sum_equals_inverse_z_coefficient(self):
        # for simple poles: route 3's sum == route 4's C_{-1} == the oracle's
        # long division, which is 0 when deg num <= deg den - 2
        rng = random.Random(19)
        offsets = set()
        for _ in range(40):
            roots = rng.sample(range(-6, 7), rng.randint(1, 4))
            num = [rng.randint(-9, 9) for _ in range(rng.randint(0, len(roots) + 1))]
            num.append(rng.choice([-2, -1, 1, 2]))  # a nonzero leading coefficient
            kernel = kernel_of(tuple(num), root_product(roots), roots)
            top = kernel.offset
            offsets.add(top)
            c_minus_one = Q(0)
            if top >= -1:
                c_minus_one = expansion_at_infinity(num, kernel.den, top + 2)[top + 1]
            assert sum_finite_residues(kernel) == residue_at_infinity(kernel) == c_minus_one
        assert {-2, -1, 0, 1} <= offsets
