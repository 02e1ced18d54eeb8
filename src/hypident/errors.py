"""Exception hierarchy for the library.

Everything raised on purpose derives from :class:`HypidentError`, so callers
can catch one base class.  Validation problems (malformed or mathematically
inadmissible instances) are grouped under :class:`ValidationError`; genuine
check failures (a certificate that does not hold) get their own classes.
No class guards what validation guarantees: a kernel built wrongly shows
as residue routes that disagree, not as an error raised here.
"""

from __future__ import annotations

__all__ = [
    "HypidentError", "ValidationError", "DimensionMismatch", "NotDistinctModZ", "PrefactorPole",
    "TruncationError", "KBelowRange", "SupportViolation", "CheckFailed", "NumericResidualExceeded",
]


class HypidentError(Exception):
    """Base class for all library errors."""


class ValidationError(HypidentError):
    """An identity instance violates a structural precondition."""


class DimensionMismatch(ValidationError):
    """Parameter and shift vectors have inconsistent lengths, or r < 2."""


class NotDistinctModZ(ValidationError):
    """Two upper parameters differ by an integer."""


class PrefactorPole(ValidationError):
    """A negative-shift Pochhammer in a prefactor is undefined."""


class TruncationError(HypidentError):
    """A coefficient above the certified truncation order was requested."""


class KBelowRange(HypidentError):
    """Kernel index below the range where the numerator stays polynomial."""


class SupportViolation(HypidentError):
    """A coefficient that the identity forces to vanish is nonzero."""


class CheckFailed(HypidentError):
    """An exact cross-check found a discrepancy."""


class NumericResidualExceeded(HypidentError):
    """Floating-point layer residual above tolerance."""
