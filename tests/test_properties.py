"""Property-based tests on instances drawn beyond ``fuzz``'s range.

Denominators run up to 60 and shifts to +-4, s runs over 0 .. r, and some
b_l land on a_i plus an integer, where route 2 has zero stretches.  The
draws are derandomized and the example counts fixed, so the suite runs
the same examples on every run.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypident.errors import ValidationError  # noqa: E402
from hypident.hyper import IdentityInstance, validate  # noqa: E402
from hypident.identity import beta_coefficients, verify  # noqa: E402

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
def instances(draw):
    r = draw(st.integers(2, 3))
    s = draw(st.integers(0, r))
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
