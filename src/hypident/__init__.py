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

Each module lists its public names in its own ``__all__``; this package
re-exports exactly those names and no others.
"""

from .algebra import *
from .asymptotics import *
from .bessel import *
from .errors import *
from .fuzzing import *
from .hyper import *
from .identity import *
from .residues import *

__version__ = "0.1.0"

# importing a submodule binds its name here, so each list is in reach
__all__ = [
    *algebra.__all__, *asymptotics.__all__, *bessel.__all__, *errors.__all__,
    *fuzzing.__all__, *hyper.__all__, *identity.__all__, *residues.__all__,
]
