"""hypident: exact certification of reduction identities for sums of
products of generalized hypergeometric series.

Sums of r products of hypergeometric series, indexed by rational parameter
vectors and integer shift vectors, collapse to a rational expression whose
numerator is supported on an explicitly bounded exponent interval.  This
package assembles the left-hand side over arbitrary-precision rationals,
extracts the right-hand-side coefficients, and proves every coefficient
outside the support vanishes exactly — no floating point is involved in
any certificate.  A residue calculus on an associated family of rational
kernels and a Bernoulli-polynomial growth law give independent routes to
the same coefficients, which the verifier compares exactly.
"""

from .algebra import LaurentSeries, Polynomial, RationalFunction
from .asymptotics import (
    Lemma1Report,
    check_residue_polynomial,
    exp_series_coefficient,
    law_points,
)
from .bessel import BesselReport, bessel_demo, bessel_j
from .errors import (
    CheckFailed,
    DimensionMismatch,
    HypidentError,
    KBelowRange,
    NotDistinctModZ,
    NumericResidualExceeded,
    PrefactorPole,
    SupportViolation,
    TruncationError,
    ValidationError,
)
from .fuzzing import FuzzReport, fuzz, random_instance
from .hyper import (
    DerivedQuantities,
    IdentityInstance,
    Theorem,
    validate,
)
from .identity import (
    BetaTable,
    VerificationReport,
    beta_coefficients,
    kernel_ladder,
    lhs_series,
    verify,
)
from .residues import (
    ResidueKernel,
    finite_residues,
    residue_at_infinity,
    residue_kernel,
    residue_sum_closed_form,
    sum_finite_residues,
)

__version__ = "0.1.0"

__all__ = [
    "BesselReport",
    "BetaTable",
    "CheckFailed",
    "DerivedQuantities",
    "DimensionMismatch",
    "FuzzReport",
    "HypidentError",
    "IdentityInstance",
    "KBelowRange",
    "LaurentSeries",
    "Lemma1Report",
    "NotDistinctModZ",
    "NumericResidualExceeded",
    "Polynomial",
    "PrefactorPole",
    "RationalFunction",
    "ResidueKernel",
    "SupportViolation",
    "Theorem",
    "TruncationError",
    "ValidationError",
    "VerificationReport",
    "bessel_demo",
    "bessel_j",
    "beta_coefficients",
    "check_residue_polynomial",
    "exp_series_coefficient",
    "finite_residues",
    "fuzz",
    "kernel_ladder",
    "law_points",
    "lhs_series",
    "random_instance",
    "residue_at_infinity",
    "residue_kernel",
    "residue_sum_closed_form",
    "sum_finite_residues",
    "validate",
    "verify",
]
