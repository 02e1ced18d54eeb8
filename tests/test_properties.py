"""Property-based tests on instances drawn beyond ``fuzz``'s range, and
on the balanced reduction's series arithmetic, route 4's expansion at
infinity and validation's prefactor-pole test.

Denominators run up to 60 and shifts to +-4, s runs over 0 .. r, and some
b_l land on a_i plus an integer, where route 2 has zero stretches; the
law's oracle draws balanced ones only (s = r), and the Wronskian-type
family its own r = 2 parameters.  The draws are derandomized and the example counts fixed, so the suite runs
the same examples on every run.
"""

from fractions import Fraction
from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypident import asymptotics  # noqa: E402
from hypident.algebra import LaurentSeries, clear_denominators  # noqa: E402
from hypident.asymptotics import check_residue_polynomial, law_points  # noqa: E402
from hypident.errors import PrefactorPole, ValidationError  # noqa: E402
from hypident.hyper import IdentityInstance, rising_quotient, validate  # noqa: E402
from hypident.identity import beta_coefficients, kernel_ladder, verify  # noqa: E402
from hypident.residues import ResidueKernel, residue_at_infinity, residue_sum_closed_form  # noqa: E402

import oracles  # noqa: E402
from oracles import convolve, law_q  # noqa: E402

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
SHIFTS = st.integers(-4, 4)
PARAMETERS = st.fractions(min_value=-4, max_value=4, max_denominator=60)


@st.composite
def instances(draw, balanced=False):
    r = draw(st.integers(2, 3))
    s = r if balanced else draw(st.integers(0, r))
    a = draw(st.lists(PARAMETERS, min_size=r, max_size=r))
    # a b_l on some a_i plus an integer gives route 2 a run of zero terms
    b_l = st.one_of(PARAMETERS, st.builds(lambda i, t: a[i] + t, st.integers(0, r - 1), SHIFTS))
    b = draw(st.lists(b_l, min_size=s, max_size=s))
    m = draw(st.lists(SHIFTS, min_size=s, max_size=s))
    n = draw(st.lists(SHIFTS, min_size=r, max_size=r))
    inst = IdentityInstance(a=tuple(a), b=tuple(b), m=tuple(m), n=tuple(n))
    try:
        validate(inst)
    except ValidationError:
        assume(False)
    return inst


@SETTINGS
@given(instances())
def test_verify_passes(inst):
    report = verify(inst)
    assert report.passed, report.to_dict()


@settings(SETTINGS, max_examples=30)
@given(instances(balanced=True))
def test_the_law_is_route_4_at_every_point(inst):
    # the per-point comparison that the one-k proof replaced, as an oracle: the
    # law's values are route 4's on a full kernel ladder, and its series at
    # k = -m_min is route 4's expansion there, C_t / D^t against the oracle's q_t
    points = law_points(inst)
    ladder = kernel_ladder(inst, len(points))
    expansion = ladder[0].expansion
    at_points = [residue_sum_closed_form(inst, k) for k in points]
    report = check_residue_polynomial(inst, expansion, at_points)
    assert list(report.residue_values) == [residue_at_infinity(kernel) for kernel in ladder]
    # and the law's series, started at each k, is route 4's expansion there, unscaled
    for kernel in ladder:
        assert asymptotics._law_values(inst, inst.derived.p, kernel.k, 1)[0] == kernel.expansion
    d = inst.derived.scale
    assert [Fraction(c, d**t) for t, c in enumerate(expansion)] == [
        law_q(inst.a, inst.b, inst.m, inst.n, t, points.start) for t in range(inst.derived.p + 1)
    ]


# The Wronskian-type family at r = 2, p = 0: for every a and b, each of these
# (m, n) shapes gives the single beta_{-n_max} = 1.  It looks like the
# normalized Wronskian of the hypergeometric equation (DLMF 15.10), with
# Euler's transformation absorbing the power of 1 - z; the map from
# (a, b, m, n) to that Wronskian has not been derived yet.
WRONSKIAN_SHAPES = [((1, 0), (0, 0)), ((1, 1), (1, 0)), ((2, 1), (1, 1))]
SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=13)


@SETTINGS
@given(st.sampled_from(WRONSKIAN_SHAPES), st.tuples(SMALL, SMALL), st.tuples(SMALL, SMALL))
def test_wronskian_type_family_is_a_single_one(shape, a, b):
    m, n = shape
    inst = IdentityInstance(a=a, b=b, m=m, n=n)
    try:
        validate(inst)
    except ValidationError:
        assume(False)
    assert inst.derived.p == 0
    assert beta_coefficients(inst).values == {-max(n): 1}


def permuted(pairs, order):
    return tuple(zip(*[pairs[i] for i in order])) or ((), ())


@SETTINGS
@given(instances(), st.data())
def test_beta_table_ignores_the_order_of_the_pairs(inst, data):
    # S(z) is a sum over i of products over l, so the (a_i, n_i) pairs and the
    # (b_l, m_l) pairs may each come in any order
    table = beta_coefficients(inst).to_dict()
    upper = data.draw(st.permutations(range(len(inst.a))))
    lower = data.draw(st.permutations(range(len(inst.b))))
    a, n = permuted(list(zip(inst.a, inst.n)), upper)
    b, m = permuted(list(zip(inst.b, inst.m)), lower)
    shuffled = IdentityInstance(a=a, b=b, m=m, n=n)
    assert beta_coefficients(shuffled).to_dict() == table


def test_the_draws_reach_every_family():
    # the strategy covers s = 0, 0 < s < r and s = r, integer gaps b_l - a_i,
    # and denominators past fuzz's 12
    seen = set()

    @SETTINGS
    @given(instances())
    def record(inst):
        s, r = len(inst.b), len(inst.a)
        seen.add("s=0" if s == 0 else "s=r" if s == r else "0<s<r")
        if any((b_l - a_i).denominator == 1 for b_l in inst.b for a_i in inst.a):
            seen.add("integer gap")
        if max(x.denominator for x in inst.a + inst.b) > 12:
            seen.add("denominator > 12")

    record()
    assert seen == {"s=0", "0<s<r", "s=r", "integer gap", "denominator > 12"}


@SETTINGS
@given(
    power=st.integers(0, 8),
    low=st.integers(-4, 4),
    nums=st.lists(st.integers(-40, 40), max_size=8),
    den=st.integers(-12, 12).filter(bool),
    pad=st.integers(0, 4),
)
# the ends of each range, a negative denominator, and a trunc above high
@example(power=8, low=-4, nums=[3, 0, -5], den=-6, pad=4)
@example(power=0, low=4, nums=[1, 2], den=-1, pad=0)
@example(power=3, low=0, nums=[], den=5, pad=2)
def test_times_one_minus_z_against_the_convolution_oracle(power, low, nums, den, pad):
    # (1 - z)^power times the series is the oracle's product with the binomial
    # row, cut at the series' trunc; the zeros above its high take part
    series = LaurentSeries(low, nums, low + len(nums) - 1 + pad, den)
    product = series.times_one_minus_z(power)
    row = {i: (-1) ** i * comb(power, i) for i in range(power + 1)}
    expected = convolve({e: Fraction(c, den) for e, c in enumerate(nums, low)}, row)
    assert product.trunc == series.trunc
    for e in range(low - 2, series.trunc + 1):
        assert product.coefficient(e) == expected.get(e, 0)


def outcome(scale, ups, downs):
    """rising_quotient(scale, ups, downs), None where it raises ZeroDivisionError."""
    try:
        return rising_quotient(scale, ups, downs)
    except ZeroDivisionError:
        return None


PAIRS = st.lists(st.tuples(st.integers(-12, 12), st.integers(-4, 4)), max_size=3)


@settings(SETTINGS, max_examples=200)
@given(st.integers(1, 4), PAIRS, PAIRS)
@example(2, [], [(0, 2)])  # a zero of a down: both raise
@example(1, [(2, 1)], [(1, -1)])  # a pole of a down: both 0
def test_a_down_is_its_reflected_up(scale, ups, downs):
    # (x)_q (x + q)_{-q} = 1: a quotient is the product over its ups and
    # each down (y, q) as the up (y + q scale, -q), zeros and poles included
    reflected = [(y + q * scale, -q) for y, q in downs]
    assert outcome(scale, ups, downs) == outcome(scale, ups + reflected, [])


def prefactor_instance(x, q, a_1, n):
    # r = 2, s = 1: the pair (0, 0) has 1 - b_0 + a_0 = x and the shift q
    return IdentityInstance(a=(Fraction(0), a_1), b=(1 - x,), m=(q + n[0],), n=n)


# x, an integer t or t plus a fraction of denominator up to 12, lands on the
# poles of the pair (0, 0), x in 1 .. -q, in about one draw in ten
PREFACTOR_INSTANCES = st.builds(
    prefactor_instance,
    st.builds(
        lambda t, rem: t + rem, st.integers(-1, 6), st.just(0) | st.fractions(0, 1, max_denominator=12)
    ),
    st.integers(-6, 1),
    PARAMETERS.filter(lambda c: c.denominator > 1),
    st.tuples(SHIFTS, SHIFTS),
)


@settings(SETTINGS, max_examples=200)
@given(PREFACTOR_INSTANCES)
# both ends of the poles 1 .. -q, one past each end, and q = 0
@example(prefactor_instance(Fraction(1), -3, Fraction(1, 2), (0, 0)))
@example(prefactor_instance(Fraction(3), -3, Fraction(1, 2), (1, -2)))
@example(prefactor_instance(Fraction(4), -3, Fraction(1, 2), (0, 0)))
@example(prefactor_instance(Fraction(0), -3, Fraction(1, 2), (0, 0)))
@example(prefactor_instance(Fraction(1), 0, Fraction(1, 3), (0, 0)))
def test_prefactor_pole_is_a_zero_factor_of_rising(inst):
    # validation rejects exactly the pairs whose (1 - b_l + a_i)_(m_l - n_i),
    # as ``rising_quotient`` multiplies it out, has a zero factor below the bar
    scale, ints = clear_denominators(inst.a + inst.b)
    a, b = ints[: inst.r], ints[inst.r :]
    pole = any(
        outcome(scale, [(scale - b_l + a_i, m_l - n_i)], []) is None
        for a_i, n_i in zip(a, inst.n)
        for b_l, m_l in zip(b, inst.m)
    )
    if pole:
        with pytest.raises(PrefactorPole):
            validate(inst)
    else:
        validate(inst)


@SETTINGS
@given(
    below_num=st.lists(st.integers(-50, 50), max_size=8),
    below_den=st.lists(st.integers(-50, 50), max_size=6),
)
# den = 1, where the expansion runs one past the numerator, and offset -1
@example(below_num=[3, -2], below_den=[])
@example(below_num=[0, 0, 7, 1, -5], below_den=[-4, 0, 9, 1, -1, 2])
def test_expansion_at_infinity_against_long_division(below_num, below_den):
    # route 4 on a kernel in w = z built from monic integer polynomials of
    # degree 0 .. 8 over 0 .. 6, each listed by its lower coefficients
    num, den = [*below_num, 1], [*below_den, 1]
    offset = len(num) - len(den)
    out = ResidueKernel(0, 1, tuple(num), tuple(den), (), offset).expansion
    assert out == (oracles.expansion_at_infinity(num, den, offset + 2) if offset >= -1 else [])
    assert all(type(c) is int for c in out)
