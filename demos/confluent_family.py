"""The confluent regime (s < r): no (1-z) factor is needed at all.

Here the sum of products is itself a Laurent polynomial, supported on
[-n_max, max(-m_min - 1, p)] with p = floor((M - N - r + 1)/(r - s)).
The second series of each product carries argument sign (-1)^(r-s), and
term i the multiplier (-1)^((r-s) n_i).

Three progressively stranger examples: a plain s = 1 instance, the
mixed-parity-shift case that exercises the per-term sign, and an s = 0
instance where both series have no upper parameters.
"""

from fractions import Fraction as Q

from hypident import IdentityInstance, beta_coefficients, lhs_series, validate

EXAMPLES = [
    ("s = 1, three-term support", IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(3,), n=(0, 0))),
    ("s = 1, mixed-parity shifts", IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(0,), n=(1, 0))),
    ("s = 0, no upper parameters", IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(2, -1))),
]

for label, inst in EXAMPLES:
    derived = validate(inst)
    table = beta_coefficients(inst)
    print(f"--- {label}")
    print("instance:", inst.to_dict())
    print(f"M={derived.M} N={derived.N} p={derived.p} support=[{table.support_low}, {table.support_high}]")
    print("S(z) =", lhs_series(inst, 8))
    print("certified table:", table.beta_map() or "(identically zero)")
    print()
