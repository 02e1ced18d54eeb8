"""Walk one balanced instance through the full reduction pipeline.

The left-hand side is a sum of r = 2 products of hypergeometric series.
With the shifts below, multiplying by (1 - z)^(p+1) collapses it to a
single rational coefficient: S(z) = beta_0 / (1 - z)^2, certified exactly.
"""

from fractions import Fraction as Q

from hypident import (
    IdentityInstance,
    beta_coefficients,
    lhs_series,
    validate,
    verify,
)

inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(1, 1), n=(0, 0))

derived = validate(inst)
print("instance:", inst.to_dict())
print("derived quantities:", derived.to_dict())
print()

# The raw series has infinitely many nonzero coefficients...
series = lhs_series(inst, 12)
print("S(z) through z^12:")
print(" ", series)
print()

# ...but (1-z)^(p+1) S(z) is a Laurent polynomial on [-n_max, p - m_min].
reduced = series.times_one_minus_z(derived.p + 1)
print(f"(1-z)^{derived.p + 1} * S(z):")
print(" ", reduced)
print()

table = beta_coefficients(inst)
print("certified coefficient table:", table.to_dict())
print()

report = verify(inst)
print("verification report:")
for key, value in report.to_dict().items():
    print(f"  {key}: {value}")
print()
print("all checks passed:", report.passed)
