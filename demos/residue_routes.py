"""Why the support bound holds: the residue machinery, shown explicitly.

Coefficient k of the left-hand side (for k >= -m_min) is simultaneously

  1. the Cauchy-product convolution of the hypergeometric factors,
  2. a double sum of closed-form pole residues,
  3. the sum of finite residues of a rational kernel, and
  4. the coefficient of 1/z in that kernel's expansion at infinity,

and route 4, viewed as a function of k, obeys a polynomial law of degree p
built from Bernoulli polynomials.  Everything below is exact rational
arithmetic; every printed line is an identity, not an approximation.
"""

from fractions import Fraction as Q

from hypident import (
    IdentityInstance,
    check_residue_polynomial,
    finite_residues,
    law_points,
    lhs_series,
    residue_at_infinity,
    residue_kernel,
    residue_sum_closed_form,
    sum_finite_residues,
    validate,
)

inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(2, 1), n=(0, 0))
derived = validate(inst)
print("instance:", inst.to_dict())
print("p =", derived.p)
print()

kernel = residue_kernel(inst, 1)
print("kernel at k=1:", kernel.fraction)
print("poles and residues:")
for pole, res in zip(kernel.poles, finite_residues(kernel)):
    z0 = Q(pole.w, kernel.scale)
    print(f"  z = {z0}  (string i={pole.i}, offset j={pole.j}):  {res}")
print()

series = lhs_series(inst, 10)
print(" k | series coeff | residue sum | closed forms | 1/z at infinity")
for k in range(0, 7):
    kern = residue_kernel(inst, k)
    row = (
        series.coefficient(k),
        sum_finite_residues(kern),
        residue_sum_closed_form(inst, k),
        residue_at_infinity(kern),
    )
    assert len(set(row)) == 1
    print(f"{k:2d} | " + " | ".join(str(v) for v in row))
print()

# the law is proven against route 4's whole expansion at its first point,
# k = -m_min, and checked against route 2 at each of its points
points = law_points(inst)
expansion = residue_kernel(inst, points.start).expansion
report = check_residue_polynomial(inst, expansion, [residue_sum_closed_form(inst, k) for k in points])
print(f"residue at infinity as a polynomial in k (degree {report.p}):")
print("  q(k) =", report.polynomial)
print("  sampled at k =", list(report.points), "->", [str(v) for v in report.residue_values])
