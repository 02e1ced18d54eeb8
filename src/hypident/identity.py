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
from .asymptotics import check_residue_polynomial
from .errors import CheckFailed, SupportViolation, TruncationTooSmall
from .hyper import (
    DerivedQuantities,
    IdentityInstance,
    Theorem,
    hyper_series,
    rising_quotient,
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
    scale, a, b = derived.scale, derived.a_int, derived.b_int
    total = LaurentSeries.zero(trunc)
    for i, (a_i, n_i) in enumerate(zip(a, inst.n)):
        if trunc + n_i < 0:
            continue  # term starts above the window
        # times D: x_l = 1 - b_l + a_i with q_l = m_l - n_i, and
        # y_l = a_i - a_l with Q_l = n_l - n_i + 1 for l != i.  The prefactor
        # is prod (x_l)_{q_l} / prod (y_l)_{Q_l}, the first series has the
        # parameters 1 - x_l over 1 - y_l, the second x_l + q_l over y_l + Q_l
        ups = [(scale - b_l + a_i, m_l - n_i) for b_l, m_l in zip(b, inst.m)]
        downs = [(a_i - a_l, n_l - n_i + 1) for l, (a_l, n_l) in enumerate(zip(a, inst.n))
                 if l != i]
        first = hyper_series(
            scale, [scale - x for x, _ in ups], [scale - y for y, _ in downs], trunc + n_i
        )
        second = hyper_series(
            scale,
            [x + q * scale for x, q in ups],
            [y + q * scale for y, q in downs],
            trunc + n_i,
        )
        if diff % 2:
            second = second.substitute_neg_z()
        prefactor = rising_quotient(scale, ups, downs)
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

    ``cross_checks`` maps check name to True/False, or None for a check not
    run: ``verify`` does not run the residue, alpha and polynomial-law checks
    on confluent instances yet, and the law is stated for balanced ones only.
    ``residue``: routes 2-4 meet the series at k = -m_min .. -m_min +
    buffer // 2, and route 4 at the law's points up to ``checked_up_to``,
    which cover the top beta at p - m_min.
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
        # one kernel per k of the residue window; the law builds its other points
        start = -derived.m_min
        kernels = [residue_kernel(inst, k) for k in range(start, start + buffer // 2 + 1)]
        at_infinity = {kernel.k: residue_at_infinity(kernel) for kernel in kernels}
        try:
            law = check_residue_polynomial(inst, at_infinity)
            cross_checks["lemma1"] = True
            at_infinity.update(zip(law.points, law.residue_values))
        except CheckFailed:
            cross_checks["lemma1"] = False
        # route 4 meets the series also at the law's points, up to the top beta
        cross_checks["residue"] = all(
            sum_finite_residues(kernel) == at_infinity[kernel.k]
            == residue_sum_closed_form(inst, kernel.k) for kernel in kernels
        ) and all(value == series.coefficient(k) for k, value in at_infinity.items() if k <= trunc)
        cross_checks["alpha"] = all(
            residue_sum_closed_form(inst, k) == series.coefficient(k)
            for k in range(-derived.n_max, start)
        )

    return VerificationReport(
        instance=inst,
        derived=derived,
        beta=table,
        checked_up_to=trunc,
        vanishing_ok=not violations,
        cross_checks=cross_checks,
    )
