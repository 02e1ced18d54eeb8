"""Bessel products as the r=2, s=0 corner of the confluent identity.

For non-integer nu and integer m (a generalized Wronskian),

    (-1)^m J_{-nu}(x) J_{nu+m}(x) - J_nu(x) J_{-nu-m}(x)
        = (2 sin(nu pi) / (pi x)) (-1)^m (x/2)^(m+1) sum_j beta_j (-x^2/4)^j,

where beta is the coefficient table of the formal identity.  The exact
layer certifies that table in rational arithmetic; the numeric layer
samples the Bessel form in floating point and compares it with the closed
form at each sample.
"""

import math
from fractions import Fraction as Q

from hypident import bessel_demo, bessel_j

for nu, m in [(Q(1, 3), 1), (Q(1, 4), 3), (Q(2, 5), 0)]:
    report = bessel_demo(nu, m)
    print(f"nu = {nu}, m = {m}:")
    print(f"  exact layer support: [{report.exact.beta.support_low}, "
          f"{report.exact.beta.support_high}], table {report.exact.beta.beta_map() or '{}'}")
    print(f"  closed form from the table at {len(report.samples)} samples, x in "
          f"[{min(report.samples)}, {max(report.samples)}]")
    print(f"  worst relative residual against the closed form: {report.max_residual:.3e}")
    print(f"  passed: {report.passed}")
    print()

x = 1.7
nu = 1.0 / 3.0
print(f"sanity: J_nu({x}) for nu = 1/3, summed to float precision: {bessel_j(nu, x):.12f}")
combo = bessel_j(-nu, x) * bessel_j(nu + 1, x) * (-1) - bessel_j(nu, x) * bessel_j(-nu - 1, x)
print(f"x * [(-1) J_-nu J_nu+1 - J_nu J_-nu-1] at x = {x}: {x * combo:.12f}")
print(f"closed form for m = 1, beta_-1 = 1: 2 sin(nu pi) / pi = {2 * math.sin(nu * math.pi) / math.pi:.12f}")
