import random
from fractions import Fraction as Q
from math import factorial, gcd

import pytest

from hypident.algebra import LaurentSeries, clear_denominators
from hypident.errors import DimensionMismatch, NotDistinctModZ, PrefactorPole
from hypident.hyper import (
    IdentityInstance,
    Theorem,
    hyper_series,
    rising_quotient,
    validate,
)

from oracles import poch, series_coefficient


def non_integer_rational(rng):
    return Q(rng.randint(-20, 20) * 2 + 1, rng.choice([2, 3, 4, 5, 7]))


def poch_of(x, k):
    """(x)_k through the library: one rising_quotient over x's denominator."""
    x = Q(x)
    return rising_quotient(x.denominator, [(x.numerator, k)], [])


def outcome(scale, ups, downs):
    """rising_quotient(scale, ups, downs), None where it raises ZeroDivisionError."""
    try:
        return rising_quotient(scale, ups, downs)
    except ZeroDivisionError:
        return None


def series_of(upper, lower, trunc, lift=1, sign=1):
    """hyper_series over rational parameters, on lift times the lcm of
    their denominators."""
    scale, ints = clear_denominators([*upper, *lower])
    ints = [lift * x for x in ints]
    return hyper_series(lift * scale, ints[: len(upper)], ints[len(upper) :], trunc, sign)


class TestPochhammer:
    """``rising_quotient``, the one Pochhammer of the package: ups and downs of
    either sign, a pole of an up or a zero of a down a ZeroDivisionError."""

    def test_empty_product(self):
        for x in (Q(0), Q(7, 3), Q(-5)):
            assert poch_of(x, 0) == 1
            assert rising_quotient(x.denominator, [], [(x.numerator, 0)]) == 1
        assert rising_quotient(5, [], []) == 1

    def test_factorial(self):
        assert poch_of(1, 4) == 24
        assert rising_quotient(1, [], [(1, 4)]) == Q(1, 24)
        assert poch_of(Q(1, 2), 2) == Q(3, 4)  # (1/2)_2 = 1 * 3 / 2^2
        assert rising_quotient(2, [], [(1, 2)]) == Q(4, 3)

    def test_negative_shift(self):
        assert poch_of(Q(1, 2), -1) == -2  # (1/2)_{-1} = 1 / (-1/2)
        assert rising_quotient(2, [], [(1, -1)]) == Q(-1, 2)
        assert poch_of(Q(1, 2), -2) == Q(4, 3)  # 1/((-3/2)(-1/2))

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            poch_of(1, -1)
        with pytest.raises(ZeroDivisionError):
            poch_of(3, -5)
        with pytest.raises(ZeroDivisionError):
            rising_quotient(3, [(9, -5)], [])  # (3)_{-5}, scaled by 3
        # a zero of a down is a pole of the quotient too, a pole of a down a zero
        with pytest.raises(ZeroDivisionError):
            rising_quotient(2, [(1, 1)], [(0, 2)])
        assert rising_quotient(1, [], [(1, -1)]) == 0
        assert rising_quotient(3, [(1, 2)], [(9, -5)]) == 0

    def test_reflection(self):
        rng = random.Random(21)
        for _ in range(60):
            x = non_integer_rational(rng)
            k = rng.randint(-6, 6)
            assert poch_of(x, k) * poch_of(x + k, -k) == 1
            d = x.denominator
            assert rising_quotient(d, [(x.numerator, k)], [(x.numerator, k)]) == 1
            assert rising_quotient(d, [(x.numerator, k), (x.numerator + k * d, -k)], []) == 1

    def test_shift_law(self):
        rng = random.Random(22)
        for _ in range(60):
            x = non_integer_rational(rng)
            k = rng.randint(-6, 6)
            assert poch_of(x, k + 1) == poch_of(x, k) * (x + k)

    def test_against_the_oracle(self):
        rng = random.Random(24)
        for _ in range(200):
            x = Q(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 5, 12]))
            k = rng.randint(-8, 8)
            if x.denominator == 1 and 1 <= x <= -k:
                continue  # a pole, see test_pole_set
            assert poch_of(x, k) == poch(x, k)
        # quotients of several factors over a common scale, ups and downs
        # with shifts of either sign (odd over even: no factor vanishes)
        for _ in range(200):
            scale = rng.choice([2, 6, 10, 12])
            ups, downs = (
                [(rng.randint(-40, 40) * 2 + 1, rng.randint(-6, 6)) for _ in range(rng.randint(0, 3))]
                for _ in range(2)
            )
            expected = Q(1)
            for x, q in ups:
                expected *= poch(Q(x, scale), q)
            for y, q in downs:
                expected /= poch(Q(y, scale), q)
            assert rising_quotient(scale, ups, downs) == expected, (scale, ups, downs)

    def test_pole_set(self):
        for x in range(-8, 9):
            for k in range(-6, 7):
                for scale in (1, 3):
                    # a pole of the up, and the same Pochhammer a zero as a down
                    assert (outcome(scale, [(x * scale, k)], []) is None) == (1 <= x <= -k), (x, k, scale)
                    assert (outcome(scale, [], [(x * scale, k)]) == 0) == (1 <= x <= -k), (x, k, scale)
                if 1 <= x <= -k:
                    with pytest.raises(ZeroDivisionError):
                        poch_of(x, k)
                else:
                    assert poch_of(x, k) == poch(x, k)

    def test_sign_reversal_identity(self):
        # (z)_j == (-1)^j (1 - z - j)_j for j >= 0
        rng = random.Random(23)
        for _ in range(60):
            z = Q(rng.randint(-30, 30), rng.randint(1, 9))
            j = rng.randint(0, 8)
            assert poch_of(z, j) == (-1) ** j * poch_of(1 - z - j, j)


class TestHyperSeries:
    """``hyper_series`` returns the canonical ``LaurentSeries``: c_0 = 1, so
    low is 0 and den is nums[0], and a terminating series ends at its last
    nonzero entry."""

    def test_upper_lower_cancellation_gives_exp(self):
        s = series_of([Q(2, 7)], [Q(2, 7)], 5)
        assert [s.coefficient(k) for k in range(6)] == [Q(1, factorial(k)) for k in range(6)]

    def test_terminating_square(self):
        s = series_of([-2, 1], [1], 5)
        assert s == LaurentSeries(0, (1, -2, 1), 5, 1)
        assert [s.coefficient(k) for k in range(6)] == [1, -2, 1, 0, 0, 0]

    def test_no_parameters_gives_exp(self):
        s = series_of([], [], 3)
        assert [s.coefficient(k) for k in range(4)] == [1, 1, Q(1, 2), Q(1, 6)]

    def test_terminating_tail_vanishes(self):
        rng = random.Random(24)
        for _ in range(20):
            d = rng.randint(0, 6)
            extra = non_integer_rational(rng)
            # the 1/11 offset keeps the lower parameter off the integers
            s = series_of([-d, extra], [extra + Q(1, 11)], 10)
            assert s.high == d and s.nums[d] != 0
            assert [s.coefficient(k) for k in range(d + 1, 11)] == [0] * (10 - d)

    def test_against_the_oracle(self):
        # upper and lower counts differ in both directions (the D power moves
        # between P and Q), and a third of the upper lists terminate; a
        # scale above the parameters' own lcm gives the same series, and
        # argument sign -1 multiplies coefficient k by (-1)^k
        rng = random.Random(25)
        terminating = 0
        for _ in range(60):
            upper = [
                Q(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6, 9, 10]))
                for _ in range(rng.randint(0, 4))
            ]
            if rng.random() < 1 / 3:
                upper.append(-rng.randint(0, 8))
            lower = [
                w for w in (non_integer_rational(rng) for _ in range(rng.randint(0, 4)))
                if w.denominator != 1
            ]
            trunc = rng.randint(0, 14)
            s = series_of(upper, lower, trunc)
            flipped = series_of(upper, lower, trunc, sign=-1)
            assert s.trunc == flipped.trunc == trunc
            # den is c_0's numerator, positive, with the content divided out,
            # and the stored numerators end at a nonzero entry
            assert s.den == s.nums[0] > 0 and gcd(*s.nums) == 1 and s.nums[-1] != 0
            expected = [series_coefficient(upper, lower, k) for k in range(trunc + 1)]
            assert [s.coefficient(k) for k in range(trunc + 1)] == expected, (upper, lower)
            signed = [(-1) ** k * c for k, c in enumerate(expected)]
            assert [flipped.coefficient(k) for k in range(trunc + 1)] == signed
            lifted = series_of(upper, lower, trunc, lift=rng.choice([2, 5, 7]))
            assert [lifted.coefficient(k) for k in range(trunc + 1)] == expected, (upper, lower)
            # the same record the oracle's coefficients build, terminating or not
            for series, values in ((s, expected), (flipped, signed), (lifted, expected)):
                den, nums = clear_denominators(values)
                assert series == LaurentSeries(0, nums, trunc, den), (upper, lower)
            terminating += s.high < trunc
        assert terminating >= 10  # the draws reach the trailing strip

    def test_bad_lower_parameter(self):
        # hyper_series checks nothing: a pole inside the truncation fails
        # loudly, from the zero denominator or, where p(t) is 0 too, from gcd 0
        for lower, lift in (([0], 1), ([-3], 1), ([-3], 4)):
            with pytest.raises(ZeroDivisionError, match="series with zero denominator"):
                series_of([Q(1, 2)], lower, 5, lift=lift)
        with pytest.raises(ZeroDivisionError):
            series_of([-3], [-3], 5)
        # positive integers, non-integers and a pole past the truncation are fine
        for lower in ([2], [Q(-7, 2)], [-5], [-9]):
            s = series_of([Q(1, 2)], lower, 5)
            for k in range(6):
                assert s.coefficient(k) == series_coefficient([Q(1, 2)], lower, k)


class TestValidate:
    def test_zero_shift_instance(self):
        inst = IdentityInstance(
            a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0)
        )
        derived = validate(inst)
        assert (derived.M, derived.N) == (0, 0)
        assert (derived.m_min, derived.n_max) == (0, 0)
        assert derived.p == -1
        assert derived.theorem is Theorem.ONE

    def test_integer_collision_rejected(self):
        inst = IdentityInstance(a=(0, 1), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0))
        with pytest.raises(NotDistinctModZ):
            validate(inst)
        inst = IdentityInstance(
            a=(Q(1, 3), Q(7, 3)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0)
        )
        with pytest.raises(NotDistinctModZ):
            validate(inst)

    def test_confluent_floor_formula(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(3,), n=(0, 0))
        derived = validate(inst)
        assert derived.theorem is Theorem.TWO
        assert derived.p == 2  # floor((3 - 0 - 2 + 1) / 1)

    def test_floor_rounds_toward_minus_infinity(self):
        inst = IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(2, 0))
        derived = validate(inst)
        assert derived.p == (0 - 2 - 2 + 1) // 2 == -2

    def test_dimension_mismatches(self):
        with pytest.raises(DimensionMismatch):
            validate(IdentityInstance(a=(Q(1, 2),), b=(), m=(), n=(0,)))
        with pytest.raises(DimensionMismatch):
            validate(IdentityInstance(a=(0, Q(1, 2)), b=(), m=(), n=(0,)))
        with pytest.raises(DimensionMismatch):
            validate(IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(), n=(0, 0)))
        with pytest.raises(DimensionMismatch):
            validate(
                IdentityInstance(
                    a=(0, Q(1, 2)),
                    b=(Q(1, 3), Q(1, 4), Q(1, 5)),
                    m=(0, 0, 0),
                    n=(0, 0),
                )
            )

    def test_prefactor_pole(self):
        # (1 - b_0 + a_0)_{m_0 - n_0} = (1)_{-1} is undefined
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(0, Q(1, 4)), m=(-1, 0), n=(0, 0))
        with pytest.raises(PrefactorPole):
            validate(inst)

    def test_zero_prefactor_value_allowed(self):
        # (1 - b_0 + a_0)_{m_0} = (0)_2 = 0: term drops out but stays defined
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(1, Q(1, 4)), m=(2, 0), n=(0, 0))
        derived = validate(inst)
        assert derived.theorem is Theorem.ONE

    def test_empty_b_conventions(self):
        inst = IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(1, 0))
        derived = validate(inst)
        assert derived.M == 0
        assert derived.m_min == 0
        assert derived.theorem is Theorem.TWO

    def test_validated_once(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(3,), n=(0, 0))
        assert validate(inst) is validate(inst) is inst.derived

    def test_failure_not_cached(self):
        inst = IdentityInstance(a=(0, 1), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0))
        for _ in range(2):
            with pytest.raises(NotDistinctModZ):
                validate(inst)
        assert "derived" not in vars(inst)

    def test_equality_and_hash_ignore_the_cached_derived(self):
        inst = IdentityInstance((0, Q(1, 2)), (Q(1, 3),), (3,), (0, 0))
        same = IdentityInstance.from_dict({"a": ["0", "1/2"], "b": ["1/3"], "m": [3], "n": [0, 0]})
        before = hash(inst)
        assert inst == same and hash(same) == before
        validate(inst)
        assert "derived" in vars(inst) and "derived" not in vars(same)
        assert inst == same and hash(inst) == hash(same) == before


class TestInstanceSerialization:
    def test_roundtrip(self):
        data = {"a": ["0", "1/2"], "b": ["1/3", "-2/5"], "m": [1, -2], "n": [0, 3]}
        inst = IdentityInstance.from_dict(data)
        assert inst.a == (0, Q(1, 2))
        assert inst.b == (Q(1, 3), Q(-2, 5))
        assert inst.to_dict() == data

    def test_b_and_m_optional(self):
        inst = IdentityInstance.from_dict({"a": ["0", "1/3"], "n": [1, 0]})
        assert inst.s == 0

    def test_malformed(self):
        with pytest.raises(ValueError):
            IdentityInstance.from_dict({"a": ["0", "x"], "n": [0, 0]})
        with pytest.raises(ValueError):
            IdentityInstance.from_dict({"n": [0, 0]})
        with pytest.raises(ValueError, match=r"unknown keys \['B', 'M'\]"):
            IdentityInstance.from_dict({"a": ["0", "1/2"], "B": [], "M": [], "n": [0, 0]})
        # no float, exponent, padding, plus sign, underscore, bool or
        # denominator sign: each of these used to be coerced silently
        for bad in (1.5, 0.1, "1e-3", " 1/2 ", "+1/2", "1_0/3", True, "1/-2", "1.5"):
            with pytest.raises(ValueError, match="rational must be"):
                IdentityInstance.from_dict({"a": [bad, "1/3"], "n": [0, 0]})
            with pytest.raises(ValueError, match="rational must be"):
                IdentityInstance.from_dict({"a": ["0", "1/3"], "b": [bad], "m": [0], "n": [0, 0]})
        with pytest.raises(ZeroDivisionError):
            IdentityInstance.from_dict({"a": ["1/0", "1/3"], "n": [0, 0]})
        # a string or an object in place of an array used to be iterated
        for bad in ("12", {"1": 0, "1/2": 0}):
            with pytest.raises(ValueError, match="must be arrays"):
                IdentityInstance.from_dict({"a": bad, "n": [0, 0]})
        inst = IdentityInstance.from_dict({"a": [2, "-7/3"], "b": ["-0"], "m": [0], "n": [0, 0]})
        assert inst.a == (2, Q(-7, 3)) and inst.b == (0,)

    @pytest.mark.parametrize("shift", [1.7, 1.0, True, "1", Q(1)])
    def test_shifts_must_be_ints(self, shift):
        with pytest.raises(ValueError):
            IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(shift,), n=(0, 0))
        with pytest.raises(ValueError):
            IdentityInstance(a=(0, Q(1, 2)), b=(), m=(), n=(shift, 0))
        with pytest.raises(ValueError):
            IdentityInstance.from_dict(
                {"a": ["0", "1/2"], "b": ["1/3"], "m": [shift], "n": [0, 0]}
            )

    @pytest.mark.parametrize("value", [0.1, 0.5, "1/2", True, False])
    def test_parameters_must_be_ints_or_fractions(self, value):
        # 0.1 used to become 3602879701896397/36028797018963968, "1/2" 1/2
        # and True 1
        with pytest.raises(ValueError):
            IdentityInstance(a=(value, Q(1, 3)), b=(), m=(), n=(0, 0))
        with pytest.raises(ValueError):
            IdentityInstance(a=(0, Q(1, 2)), b=(value,), m=(0,), n=(0, 0))
