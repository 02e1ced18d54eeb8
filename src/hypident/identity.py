"""Assembly and certification of the reduction identities.

The left-hand side S(z) is a sum of r terms, each a prefactor times
z^{-n_i} times a product of two hypergeometric series.  The certified
claims are support bounds:

  balanced (s = r):   (1-z)^{p+1} S(z) is a Laurent polynomial supported
                      on [-n_max, p - m_min];
  confluent (s < r):  S(z) itself is supported on
                      [-n_max, max(-m_min - 1, p)].

``beta_coefficients`` extracts the coefficient table on the support and
proves every coefficient above it vanishes exactly, out to a configurable
buffer past the boundary.  ``verify`` additionally cross-checks the series
coefficients against the residue machinery (three independent routes) and
the Bernoulli polynomial law.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentSeries, one_minus_z_power
# check_residue_polynomial is not called here, but perfbench/tracer.py hooks
# it by this module's name
from .asymptotics import _check_law, _law_points, check_residue_polynomial  # noqa: F401
from .errors import CheckFailed, SupportViolation, TruncationTooSmall
from .hyper import (
    DerivedQuantities,
    IdentityInstance,
    Theorem,
    hyper_series,
    pochhammer,
)
from .residues import (
    residue_at_infinity,
    residue_kernel,
    residue_sum_closed_form,
    sum_finite_residues,
)

DEFAULT_BUFFER = 25


def lhs_series(inst: IdentityInstance, trunc: int) -> LaurentSeries:
    """The identity's left-hand side as an exact series through z^trunc.

    For confluent instances the second series carries argument sign
    (-1)^(r-s), folded into its coefficients, and term i carries the
    multiplier (-1)^((r-s) n_i).  A constant multiplier instead of the
    n_i-dependent one breaks the support bound whenever r - s is odd and
    the n_i parities are mixed, so the per-term form is the one certified.
    """
    derived = inst.derived
    if trunc < -derived.n_max:
        raise TruncationTooSmall(
            f"truncation {trunc} cannot reach the lowest exponent {-derived.n_max}"
        )
    diff = derived.r - derived.s
    total = LaurentSeries.zero(trunc)
    for i in range(derived.r):
        a_i, n_i = inst.a[i], inst.n[i]
        if trunc + n_i < 0:
            continue  # term starts above the window
        others = [l for l in range(derived.r) if l != i]
        first = hyper_series(
            [b_l - a_i for b_l in inst.b],
            [1 + inst.a[l] - a_i for l in others],
            trunc + n_i,
        )
        second = hyper_series(
            [1 - b_l + a_i + m_l - n_i for b_l, m_l in zip(inst.b, inst.m)],
            [1 - inst.a[l] + a_i + inst.n[l] - n_i for l in others],
            trunc + n_i,
        )
        if diff % 2:
            second = second.substitute_neg_z()
        prefactor = Fraction(1)
        for b_l, m_l in zip(inst.b, inst.m):
            prefactor *= pochhammer(1 - b_l + a_i, m_l - n_i)
        for l in others:
            prefactor /= pochhammer(a_i - inst.a[l], inst.n[l] - n_i + 1)
        if (diff * n_i) % 2:
            prefactor = -prefactor
        total = total + (first * second).shift(-n_i).scale(prefactor)
    return total


@dataclass(frozen=True)
class BetaTable:
    """Certified right-hand-side coefficients with their support interval.

    An empty interval (support_high < support_low) encodes the identically
    zero right-hand side.
    """

    support_low: int
    support_high: int
    values: dict[int, Fraction]
    theorem: Theorem

    @property
    def is_empty(self) -> bool:
        return self.support_high < self.support_low

    def beta_map(self) -> dict[str, str]:
        return {str(j): str(v) for j, v in sorted(self.values.items())}

    def to_dict(self) -> dict:
        return {
            "support_low": self.support_low,
            "support_high": self.support_high,
            "theorem": self.theorem.value,
            "beta": self.beta_map(),
        }


def _certify(
    inst: IdentityInstance, buffer: int
) -> tuple[LaurentSeries, BetaTable, int, list[str]]:
    """The certification step shared by ``beta_coefficients`` and ``verify``.

    Picks the support window and truncation K, assembles S(z) through z^K,
    reduces it (S(z) for confluent instances, (1-z)^(p+1) S(z) for balanced
    ones), reads off the coefficient table and collects every nonzero
    coefficient in the forced-vanishing ranges.  Returns (S, table, K,
    violations).
    """
    derived = inst.derived
    if buffer < 1:
        raise ValueError("buffer must be positive")
    support_low = -derived.n_max
    if derived.theorem is Theorem.ONE:
        support_high = derived.p - derived.m_min
    else:
        support_high = max(-derived.m_min - 1, derived.p)
    trunc = max(support_high, support_low) + buffer
    series = lhs_series(inst, trunc)
    reduced = series
    if derived.theorem is Theorem.ONE:
        # the factor needs its own truncation high enough not to cap the product
        reduced = one_minus_z_power(derived.p + 1, trunc + derived.n_max) * series
    # vanishing is read off the integer numerators; only a nonzero one
    # outside the support becomes a Fraction, for its message
    violations = []
    for e, num in enumerate(reduced.nums, reduced.low):
        if num and not support_low <= e <= support_high:
            side = "below" if e < support_low else "above"
            violations.append(f"coefficient {reduced.coefficient(e)} at z^{e} {side} support")
    table = BetaTable(
        support_low=support_low,
        support_high=support_high,
        values={j: reduced.coefficient(j) for j in range(support_low, support_high + 1)},
        theorem=derived.theorem,
    )
    return series, table, trunc, violations


def beta_coefficients(inst: IdentityInstance, buffer: int = DEFAULT_BUFFER) -> BetaTable:
    """Extract the certified coefficient table.

    Raises SupportViolation if any coefficient that the identity forces to
    vanish is nonzero; with exact arithmetic that signals a bug or an
    invalid instance, never a tolerance problem.
    """
    _, table, _, violations = _certify(inst, buffer)
    if violations:
        raise SupportViolation(violations[0])
    return table


@dataclass(frozen=True)
class VerificationReport:
    """Everything ``verify`` established about one instance.

    ``cross_checks`` maps check name to True/False, or None when the check
    does not apply (the residue, alpha, and polynomial-law routes are
    defined for balanced instances only).
    """

    instance: IdentityInstance
    derived: DerivedQuantities
    beta: BetaTable
    checked_up_to: int
    vanishing_ok: bool
    cross_checks: dict[str, bool | None]

    @property
    def passed(self) -> bool:
        return self.vanishing_ok and all(
            v is not False for v in self.cross_checks.values()
        )

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.to_dict(),
            "derived": self.derived.to_dict(),
            "beta": self.beta.beta_map(),
            "checked_up_to": self.checked_up_to,
            "vanishing_ok": self.vanishing_ok,
            "cross_checks": dict(self.cross_checks),
        }


def verify(inst: IdentityInstance, buffer: int = DEFAULT_BUFFER) -> VerificationReport:
    """Certify the instance's support claim and run all exact cross-checks.

    Check failures are recorded in the report rather than raised; only
    validation of the instance itself can raise.
    """
    derived = inst.derived
    series, table, trunc, violations = _certify(inst, buffer)

    cross_checks: dict[str, bool | None] = {
        "residue": None,
        "lemma1": None,
        "alpha": None,
    }
    if derived.theorem is Theorem.ONE:
        # one kernel per k of the residue window and the law's points
        window = range(-derived.m_min, -derived.m_min + buffer // 2 + 1)
        points = _law_points(derived)
        ks = range(window.start, max(window.stop, points.stop))
        kernels = [residue_kernel(inst, k) for k in ks]
        at_infinity = [residue_at_infinity(kernel) for kernel in kernels]
        cross_checks["residue"] = all(
            sum_finite_residues(kernel) == value == residue_sum_closed_form(inst, kernel.k)
            == series.coefficient(kernel.k)
            for kernel, value in zip(kernels[: len(window)], at_infinity)
        )
        try:
            _check_law(inst, at_infinity[: len(points)])
            cross_checks["lemma1"] = True
        except CheckFailed:
            cross_checks["lemma1"] = False
        alpha_ok = True
        for k in range(-derived.n_max, -derived.m_min):
            if residue_sum_closed_form(inst, k) != series.coefficient(k):
                alpha_ok = False
                break
        cross_checks["alpha"] = alpha_ok

    return VerificationReport(
        instance=inst,
        derived=derived,
        beta=table,
        checked_up_to=trunc,
        vanishing_ok=not violations,
        cross_checks=cross_checks,
    )
