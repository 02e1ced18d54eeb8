"""Bessel-product demonstration of the confluent identity.

For non-integer rational nu and integer m, the combination

    (-1)^m J_{-nu}(x) J_{nu+m}(x) - J_nu(x) J_{-nu-m}(x)

is the r=2, s=0 instance with a = (0, nu) and n = (m, 0), which the exact
layer certifies in rational arithmetic.  Each J_nu(x) is
(x/2)^nu / Gamma(nu+1) * 0F1(; nu+1; -x^2/4), so with z = -x^2/4 each
product is a power of x/2 times one term of S(z), and the reflection
Gamma(nu) Gamma(1-nu) = pi / sin(nu pi) turns its Gamma quotient into that
term's rational prefactor.  Collecting both terms,

    combination = (2 sin(nu pi) / (pi x)) (-1)^m (x/2)^(m+1) sum_j beta_j z^j

over the certified table.  The floating-point layer evaluates that closed
form at each sample (the polynomial exactly, then the float factor) and
compares it with the combination of ``bessel_j`` values, each summed to
float precision.  Both sides take nu exactly, in sin(nu pi) and in each
order: next to its poles 1/Gamma(nu+1) magnifies the rounding of a float
order, to 1e-9 relative at nu = 10^-6, m = 20.  The numeric side is a
check of the series-to-Bessel transcription only; the certificate is the
exact layer.
"""

from __future__ import annotations

__all__ = ["BesselReport", "bessel_demo", "bessel_j"]

import math
from fractions import Fraction
from typing import Sequence

from .algebra import Scalar, record
from .errors import NumericResidualExceeded
from .hyper import IdentityInstance
from .identity import VerificationReport, verify

DEFAULT_SAMPLES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
DEFAULT_TOLERANCE = 1e-10


def bessel_j(nu: Scalar | float, x: float) -> float:
    """J_nu(x) for finite x > 0 from the ascending series (Watson, section 3.1), nu + 1
    not a non-positive integer.  The order is taken exactly, as ``Fraction(nu)``
    (exact for a float too), and each nu + 1 + k is formed exactly before it
    becomes a float, so an order next to a negative integer keeps its distance
    from the poles; for nu + 1 <= 0, 1/Gamma(nu+1) comes by reflection.  Past
    the k with (nu+1+k)(k+1) > x^2/4 every term ratio is below 1 and falls, so
    the first term there that leaves the float total unchanged ends the sum.
    Raises ValueError for any other x or for nu + 1 a non-positive integer, where
    a term's divisor nu + 1 + k is 0, and OverflowError, naming nu and x, where a
    term, (x/2)^nu, Gamma(nu+1) or Gamma(-nu), or J is not a finite float."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"x must be finite and positive, got {x}")
    order = Fraction(nu)
    if order.denominator == 1 and order < 0:
        raise ValueError(f"nu + 1 must not be a non-positive integer, got nu={nu}")
    w = -0.25 * x * x
    total, term, k = 0.0, 1.0, 0
    while math.isfinite(term):
        c = float(order + 1 + k) * (k + 1)  # nu + 1 + k formed exactly
        if c > -w and total + term == total:
            break
        total += term
        term *= w / c
        k += 1
    z = order + 1
    try:  # total + term is total at the stop, and not finite where a term was not
        # 1/Gamma(z) = sin(pi z) Gamma(1 - z) / pi for z <= 0
        reciprocal = 1 / math.gamma(z) if z > 0 else _sin_pi(z) * math.gamma(1 - z) / math.pi
        value = (0.5 * x) ** float(order) * reciprocal * (total + term)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"J_nu(x) does not fit in a float at nu={float(order)}, x={x}")
    return value


def _sin_pi(q: Fraction) -> float:
    """sin(pi q) from its exact distance f = q - round(q) to the nearest integer."""
    n = round(q)
    return (-1) ** n * math.sin(math.pi * (q - n))


@record
class BesselReport:
    """Combined exact/numeric outcome of the Bessel demonstration."""

    nu: Fraction
    m_shift: int
    samples: tuple[float, ...]
    tolerance: float
    max_residual: float  # worst residual against the certified closed form, relative
    exact: VerificationReport

    @property
    def passed(self) -> bool:
        return self.exact.passed and self.max_residual < self.tolerance

    def to_dict(self) -> dict:
        return {
            "nu": str(self.nu),
            "m": self.m_shift,
            "samples": list(self.samples),
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "exact": self.exact.to_dict(),
            "ok": self.passed,
        }


def bessel_demo(
    nu: Scalar,
    m_shift: int,
    samples: Sequence[float] = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BesselReport:
    """Run both layers of the Bessel-product check.

    Raises NumericResidualExceeded, naming the sample, where
    |combination - closed form| reaches ``tolerance`` relative to
    |(-1)^m J_{-nu} J_{nu+m}| + |J_nu J_{-nu-m}| (a NaN fails too), and
    OverflowError, naming the sample, where a value does not fit in a float.
    Exact-layer validation errors propagate (nu must be a non-integer
    Fraction, so that (0, nu) is distinct modulo integers; a float raises
    ValueError).
    Raises ValueError for a ``tolerance`` that is not finite and positive,
    and for fewer than two samples or samples that are not finite, positive
    and distinct.
    """
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

    sign = -1.0 if m_shift % 2 else 1.0
    # 2 sin(nu pi) / (pi x) * (x/2)^(m+1) is sin(nu pi) / pi * (x/2)^m
    factor = sign * _sin_pi(nu) / math.pi
    max_residual = 0.0
    for x in samples:
        first = sign * bessel_j(-nu, x) * bessel_j(nu + m_shift, x)
        second = bessel_j(nu, x) * bessel_j(-nu - m_shift, x)
        half = Fraction(x) / 2
        z = -half * half
        poly = half**m_shift * sum(beta * z**j for j, beta in exact.beta.values.items())
        try:
            closed = factor * float(poly)
        except OverflowError:
            raise OverflowError(f"the closed form does not fit in a float at x={x}") from None
        scale = abs(first) + abs(second)
        residual = abs(first - second - closed) / scale if scale else 0.0
        if not residual < tolerance:
            raise NumericResidualExceeded(
                f"residual {residual:.3e} against the certified closed form at x={x} "
                f"exceeds tolerance {tolerance:.1e}"
            )
        max_residual = max(max_residual, residual)
    return BesselReport(
        nu=nu,
        m_shift=m_shift,
        samples=tuple([float(x) for x in samples]),
        tolerance=tolerance,
        max_residual=max_residual,
        exact=exact,
    )
