"""Property-based tests on instances drawn beyond ``fuzz``'s range.

Denominators run up to 60 and shifts to +-4, s runs over 0 .. r, and some
b_l land on a_i plus an integer, where route 2 has zero stretches; the
law's oracle draws balanced ones only (s = r), and the Wronskian-type
family its own r = 2 parameters.  The draws are derandomized and the example counts fixed, so the suite runs
the same examples on every run.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypident import asymptotics  # noqa: E402
from hypident.asymptotics import check_residue_polynomial, law_points  # noqa: E402
from hypident.errors import ValidationError  # noqa: E402
from hypident.hyper import IdentityInstance, validate  # noqa: E402
from hypident.identity import beta_coefficients, kernel_ladder, verify  # noqa: E402
from hypident.residues import residue_at_infinity, residue_sum_closed_form  # noqa: E402

from oracles import law_q  # noqa: E402

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
