"""Acceptance suite: one test per criterion, exact tolerances, fixed seeds.

Every assertion is exact rational equality except the Bessel demonstration,
whose floating-point layer uses the stated 1e-10 relative residual bound.
Each test prints one summary line, so `pytest -v -s tests/test_acceptance.py`
reads as a pass/fail checklist.
"""

import random
import time
from fractions import Fraction as Q

import pytest

from hypident.errors import ValidationError
from hypident.fuzzing import random_instance, random_rational
from hypident.hyper import IdentityInstance, Theorem, validate
from hypident.identity import beta_coefficients, kernel_ladder, lemma_report, lhs_series
from hypident.bessel import bessel_demo
from hypident.residues import (
    residue_at_infinity,
    residue_kernel,
    residue_sum_closed_form,
    sum_finite_residues,
)

from oracles import partial_fraction_zero_sum

R_RANGE = (2, 4)
SHIFT_RANGE = 3
BUFFER = 25


def stamp(number: int, label: str, detail: str) -> None:
    print(f"CRITERION {number} ({label}): PASS - {detail}")


@pytest.fixture(scope="module")
def balanced_instances():
    rng = random.Random(1001)
    return [
        random_instance(rng, r_range=R_RANGE, shift_range=SHIFT_RANGE, family="one")
        for _ in range(100)
    ]


@pytest.fixture(scope="module")
def confluent_instances():
    rng = random.Random(1002)
    return [
        random_instance(rng, r_range=R_RANGE, shift_range=SHIFT_RANGE, family="two")
        for _ in range(100)
    ]


def test_criterion_1_balanced_support_vanishing(balanced_instances):
    started = time.perf_counter()
    for inst in balanced_instances:
        assert validate(inst).theorem is Theorem.ONE
        beta_coefficients(inst, BUFFER)  # raises SupportViolation on any nonzero
    stamp(
        1,
        "balanced support vanishing",
        f"100 seeded instances, exact, {time.perf_counter() - started:.1f}s",
    )


def test_criterion_2_confluent_support_vanishing(confluent_instances):
    started = time.perf_counter()
    zero_s = 0
    for inst in confluent_instances:
        derived = validate(inst)
        assert derived.theorem is Theorem.TWO
        zero_s += inst.s == 0
        beta_coefficients(inst, BUFFER)
    assert zero_s > 0  # the s = 0 regime is represented
    stamp(
        2,
        "confluent support vanishing",
        f"100 seeded instances ({zero_s} with s=0), exact, "
        f"{time.perf_counter() - started:.1f}s",
    )


def test_criterion_3_residue_consistency(balanced_instances):
    started = time.perf_counter()
    for inst in balanced_instances:
        derived = validate(inst)
        hi = -derived.m_min + 10
        series = lhs_series(inst, hi)
        for k in range(-derived.m_min, hi + 1):
            kernel = residue_kernel(inst, k)
            finite = sum_finite_residues(kernel)
            assert finite == residue_at_infinity(kernel)
            assert finite == residue_sum_closed_form(inst, k)
            assert finite == series.coefficient(k)
    stamp(
        3,
        "residue-theorem consistency",
        f"100 instances x 11 indices x 4 routes, exact, "
        f"{time.perf_counter() - started:.1f}s",
    )


def _balanced_with_target_p(rng, p_target):
    """Seeded balanced instance with a prescribed support parameter p.

    For p >= 1 the draw additionally avoids the degenerate parameter slice
    where the leading coefficient of the degree-p law cancels (the sum
    r + sum(a) - sum(b) landing in {0, -1, ..., 1-p}), since the degree
    assertion is a generic claim.
    """
    for _ in range(10_000):
        r = rng.randint(2, 3)
        n = [rng.randint(-3, 3) for _ in range(r)]
        if p_target >= 0:
            total_m = sum(n) + r - 1 + p_target
        else:
            total_m = sum(n) + r - 2 - rng.randint(0, 2)
        parts = [rng.randint(-2, 2) for _ in range(r - 1)]
        m = parts + [total_m - sum(parts)]
        a = tuple(random_rational(rng, SHIFT_RANGE) for _ in range(r))
        b = tuple(random_rational(rng, SHIFT_RANGE) for _ in range(r))
        inst = IdentityInstance(a=a, b=b, m=tuple(m), n=tuple(n))
        try:
            derived = validate(inst)
        except ValidationError:
            continue
        if derived.p != p_target:
            continue
        if p_target >= 1:
            c = r + sum(a) - sum(b)
            if c.denominator == 1 and 1 - p_target <= c <= 0:
                continue
        return inst
    raise RuntimeError("could not hit the target p")


def test_criterion_4_residue_polynomial_law():
    started = time.perf_counter()
    rng = random.Random(1004)
    for p_target in (-1, 0, 1, 2, 3):
        for _ in range(5):
            inst = _balanced_with_target_p(rng, p_target)
            report = lemma_report(inst)  # CheckFailed on mismatch
            assert report.p == p_target
            assert len(report.points) == max(p_target, 0) + 3
            # the law's values are route 4's at every point
            ladder = kernel_ladder(inst, len(report.points))
            assert list(report.residue_values) == [residue_at_infinity(kernel) for kernel in ladder]
            if p_target == -1:
                assert all(v == 0 for v in report.residue_values)
            elif p_target == 0:
                assert all(v == 1 for v in report.residue_values)
            else:
                assert report.polynomial.degree == p_target
    stamp(
        4,
        "polynomial law for residues at infinity",
        f"25 instances spanning p in -1..3, exact, "
        f"{time.perf_counter() - started:.1f}s",
    )


def test_criterion_5_degenerate_zero_identity():
    started = time.perf_counter()
    rng = random.Random(1005)

    def draw_distinct(r):
        while True:
            a = tuple(random_rational(rng, SHIFT_RANGE) for _ in range(r))
            if all(
                (a[i] - a[j]).denominator != 1
                for i in range(r)
                for j in range(i + 1, r)
            ):
                return a

    for r in (2, 3, 4):
        for _ in range(5):
            a = draw_distinct(r)
            b = tuple(random_rational(rng, SHIFT_RANGE) for _ in range(r))
            inst = IdentityInstance(a=a, b=b, m=(0,) * r, n=(0,) * r)
            series = lhs_series(inst, 25)
            assert all(series.coefficient(e) == 0 for e in range(0, 26))
            table = beta_coefficients(inst, BUFFER)
            assert table.support_high < table.support_low
    zero_sum_draws = 0
    while zero_sum_draws < 50:
        a = draw_distinct(rng.randint(2, 4))
        assert partial_fraction_zero_sum(a) == 0
        zero_sum_draws += 1
    stamp(
        5,
        "degenerate zero identity",
        f"15 zero-shift instances + 50 partial-fraction draws, exact, "
        f"{time.perf_counter() - started:.1f}s",
    )


def test_criterion_6_bessel_remark():
    started = time.perf_counter()
    for nu in (Q(1, 3), Q(1, 4)):
        for m in (1, 2, 3):
            report = bessel_demo(
                nu,
                m,
                samples=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
                tolerance=1e-10,
            )
            assert report.max_residual < 1e-10
            assert report.exact.vanishing_ok  # the instance satisfies criterion 2
            assert report.passed
    stamp(
        6,
        "Bessel product demonstration",
        f"nu in (1/3, 1/4) x m in (1, 2, 3), residual < 1e-10, "
        f"{time.perf_counter() - started:.1f}s",
    )


def test_criterion_7_beta_stability(balanced_instances, confluent_instances):
    started = time.perf_counter()
    sample = balanced_instances[:8] + confluent_instances[:8]
    for inst in sample:
        assert beta_coefficients(inst, 25) == beta_coefficients(inst, 35)
    stamp(
        7,
        "coefficient-table buffer stability",
        f"16 instances, buffers 25 vs 35 identical, "
        f"{time.perf_counter() - started:.1f}s",
    )
