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

from fractions import Fraction
from math import lcm

from .algebra import LaurentSeries, convolve, record
from .asymptotics import check_residue_polynomial, law_points
from .errors import CheckFailed, SupportViolation, TruncationTooSmall
from .hyper import (
    DerivedQuantities,
    IdentityInstance,
    Theorem,
    hyper_series,
    rising_quotient,
)
from .residues import (
    ResidueKernel,
    residue_at_infinity,
    residue_kernel,
    residue_sum_closed_form,
    sum_finite_residues,
)

DEFAULT_BUFFER = 25


def lhs_series(inst: IdentityInstance, trunc: int) -> LaurentSeries:
    """The identity's left-hand side as an exact series through z^trunc.

    For confluent instances the second series carries argument sign
    (-1)^(r-s), which ``hyper_series`` takes into its term ratio, and term i
    carries the multiplier (-1)^((r-s) n_i).  A constant multiplier instead
    of the n_i-dependent one breaks the support bound whenever r - s is odd
    and the n_i parities are mixed, so the per-term form is the one certified.

    Each term's convolution goes, times its prefactor's numerator, into one
    integer list at offset n_max - n_i over the lcm of the terms'
    denominators, so S(z) divides out its content once.
    """
    derived = inst.derived
    if trunc < -derived.n_max:
        raise TruncationTooSmall(
            f"truncation {trunc} cannot reach the lowest exponent {-derived.n_max}"
        )
    diff = derived.r - derived.s
    scale, a, b = derived.scale, derived.a_int, derived.b_int
    terms = []  # (offset, numerators, denominator, prefactor numerator)
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
            scale, [x + q * scale for x, q in ups], [y + q * scale for y, q in downs],
            trunc + n_i, (-1) ** diff,
        )
        prefactor = rising_quotient(scale, ups, downs)
        if (diff * n_i) % 2:
            prefactor = -prefactor
        # both series start at c_0 = 1, so the product's entry j is at z^(j - n_i)
        product = convolve(first.nums, second.nums, trunc + n_i + 1)
        term_den = first.den * second.den * prefactor.denominator
        terms.append((derived.n_max - n_i, product, term_den, prefactor.numerator))
    den = lcm(*[term_den for _, _, term_den, _ in terms])
    out = [0] * (trunc + derived.n_max + 1)
    for offset, product, term_den, numerator in terms:
        factor = numerator * (den // term_den)
        for j, c in enumerate(product, offset):
            out[j] += factor * c
    return LaurentSeries(-derived.n_max, out, trunc, den)


@record
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
) -> tuple[LaurentSeries, BetaTable, list[str]]:
    """The certification step shared by ``beta_coefficients`` and ``verify``.

    Picks the support window and truncation K, assembles S(z) through z^K,
    reduces it (S(z) for confluent instances, (1-z)^(p+1) S(z) for balanced
    ones), reads off the coefficient table and collects every nonzero
    coefficient in the forced-vanishing ranges.  Returns (S, table,
    violations); K is ``S.trunc``.
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
        reduced = series.times_one_minus_z(derived.p + 1)
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
    return series, table, violations


def beta_coefficients(inst: IdentityInstance, buffer: int = DEFAULT_BUFFER) -> BetaTable:
    """Extract the certified coefficient table.

    Raises SupportViolation if any coefficient that the identity forces to
    vanish is nonzero; with exact arithmetic that signals a bug or an
    invalid instance, never a tolerance problem.
    """
    _, table, violations = _certify(inst, buffer)
    if violations:
        raise SupportViolation(violations[0])
    return table


@record
class VerificationReport:
    """Everything ``verify`` established about one instance.

    ``cross_checks`` maps check name to True/False, or None for a check not
    run: none runs on confluent instances yet, and the law is stated for
    balanced ones only.  ``residue``: routes 2-4 agree with the series over
    the window k = -m_min .. -m_min + buffer // 2, the only kernels built.
    ``lemma1``: the law equals route 4's expansion at k = -m_min, which
    proves it at every k, and the series at its points up to
    ``checked_up_to``, so it covers the top beta above the window; points
    above the truncation (a small ``buffer``) rest on the proof alone.
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


def kernel_ladder(inst: IdentityInstance, count: int) -> list[ResidueKernel]:
    """The kernels at k = -m_min .. -m_min + count - 1, each stepped from the one below but the first."""
    kernels = [residue_kernel(inst, -inst.derived.m_min)]
    for _ in range(count - 1):
        kernels.append(residue_kernel(inst, kernels[-1].k + 1, kernels[-1]))
    return kernels


def verify(inst: IdentityInstance, buffer: int = DEFAULT_BUFFER) -> VerificationReport:
    """Certify the instance's support claim and run all exact cross-checks.

    Check failures are recorded in the report rather than raised; only
    validation of the instance itself can raise.
    """
    derived = inst.derived
    series, table, violations = _certify(inst, buffer)

    cross_checks: dict[str, bool | None] = {
        "residue": None,
        "lemma1": None,
        "alpha": None,
    }
    if derived.theorem is Theorem.ONE:
        # the kernels of the residue window; the law reads route 4's whole expansion at the first
        kernels = kernel_ladder(inst, buffer // 2 + 1)
        at_points = [series.coefficient(k) for k in law_points(inst) if k <= series.trunc]
        try:
            check_residue_polynomial(inst, kernels[0].expansion, at_points)
            cross_checks["lemma1"] = True
        except CheckFailed:
            cross_checks["lemma1"] = False
        cross_checks["residue"] = all(
            sum_finite_residues(kernel) == residue_at_infinity(kernel)
            == residue_sum_closed_form(inst, kernel.k) == series.coefficient(kernel.k)
            for kernel in kernels
        )
        cross_checks["alpha"] = all(
            residue_sum_closed_form(inst, k) == series.coefficient(k)
            for k in range(-derived.n_max, -derived.m_min)
        )

    return VerificationReport(
        instance=inst,
        derived=derived,
        beta=table,
        checked_up_to=series.trunc,
        vanishing_ok=not violations,
        cross_checks=cross_checks,
    )
