"""Bessel-product demonstration of the confluent identity.

For non-integer rational nu and integer m, the combination

    (-1)^m J_{-nu}(x) J_{nu+m}(x) - J_nu(x) J_{-nu-m}(x)

multiplied by x^|m| is a polynomial in t = x^2 of degree < |m|/2.  The
underlying algebra is the r=2, s=0 instance with a = (0, nu) and
n = (m, 0), which the exact layer certifies in rational arithmetic; the
floating-point layer then samples the Bessel form and checks the
polynomial structure through divided differences.  The numeric side is a
smoke test of the series-to-Bessel transcription only; the certificate is
the exact layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import Scalar
from .errors import NumericResidualExceeded
from .hyper import IdentityInstance
from .identity import VerificationReport, verify

DEFAULT_SAMPLES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
DEFAULT_ORDER = 30
DEFAULT_TOLERANCE = 1e-10


def bessel_j(nu: float, x: float, order: int = DEFAULT_ORDER) -> float:
    """J_nu(x) for x > 0 from the ascending series, truncated after
    ``order`` terms.  nu + 1 must not be a non-positive integer."""
    total = 0.0
    term = 1.0
    w = -0.25 * x * x
    for k in range(order + 1):
        total += term
        term *= w / ((nu + 1 + k) * (k + 1))
    return (0.5 * x) ** nu / math.gamma(nu + 1) * total


def divided_differences(ts: Sequence[float], ys: Sequence[float]) -> list[list[float]]:
    """Full Newton divided-difference table; row d holds the order-d values."""
    table = [list(ys)]
    for d in range(1, len(ys)):
        prev = table[-1]
        table.append(
            [
                (prev[i + 1] - prev[i]) / (ts[i + d] - ts[i])
                for i in range(len(prev) - 1)
            ]
        )
    return table


@dataclass(frozen=True)
class BesselReport:
    """Combined exact/numeric outcome of the Bessel demonstration."""

    nu: Fraction
    m_shift: int
    order: int
    samples: tuple[float, ...]
    tolerance: float
    degree_bound: int  # largest degree the polynomial in t may have
    max_residual: float  # worst divided-difference residual, relative
    exact: VerificationReport

    @property
    def passed(self) -> bool:
        return self.exact.passed and self.max_residual < self.tolerance

    def to_dict(self) -> dict:
        return {
            "nu": str(self.nu),
            "m": self.m_shift,
            "order": self.order,
            "samples": list(self.samples),
            "tolerance": self.tolerance,
            "degree_bound": self.degree_bound,
            "max_residual": self.max_residual,
            "exact": self.exact.to_dict(),
            "ok": self.passed,
        }


def bessel_demo(
    nu: Scalar,
    m_shift: int,
    order: int = DEFAULT_ORDER,
    samples: Sequence[float] = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BesselReport:
    """Run both layers of the Bessel-product check.

    Raises NumericResidualExceeded when a divided difference that should
    vanish stays above ``tolerance`` relative to the largest sampled
    magnitude; exact-layer validation errors propagate (nu must be a
    non-integer Fraction, so that (0, nu) is distinct modulo integers; a
    float raises ValueError).
    Raises ValueError for a negative ``order`` (every truncated J would be
    0), a ``tolerance`` that is not finite and positive, and samples that
    are not finite, positive and distinct; any of these would let the
    numeric layer pass vacuously.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    if len(samples) < 2:
        raise ValueError("need at least two sample points")
    if not all(math.isfinite(x) and x > 0 for x in samples):
        raise ValueError("samples must be finite and positive")
    if len(set(samples)) != len(samples):
        raise ValueError("samples must be distinct")

    inst = IdentityInstance(a=(Fraction(0), nu), b=(), m=(), n=(m_shift, 0))
    exact = verify(inst)

    nu_f = float(nu)
    size = abs(m_shift)
    sign = -1.0 if m_shift % 2 else 1.0
    ys = []
    for x in samples:
        lhs = sign * bessel_j(-nu_f, x, order) * bessel_j(nu_f + m_shift, x, order)
        lhs -= bessel_j(nu_f, x, order) * bessel_j(-nu_f - m_shift, x, order)
        ys.append(x**size * lhs)
    ts = [x * x for x in samples]

    degree_bound = (size - 1) // 2 if size else -1
    scale = max(1.0, max(abs(y) for y in ys))
    table = divided_differences(ts, ys)
    max_residual = 0.0
    worst_x = samples[0]
    for d in range(degree_bound + 1, len(samples)):
        for pos, value in enumerate(table[d]):
            residual = abs(value) / scale
            if residual > max_residual:
                max_residual = residual
                worst_x = samples[pos]
    if max_residual >= tolerance:
        raise NumericResidualExceeded(
            f"divided-difference residual {max_residual:.3e} at sample window "
            f"starting x={worst_x} exceeds tolerance {tolerance:.1e}"
        )
    return BesselReport(
        nu=nu,
        m_shift=m_shift,
        order=order,
        samples=tuple(float(x) for x in samples),
        tolerance=tolerance,
        degree_bound=degree_bound,
        max_residual=max_residual,
        exact=exact,
    )
