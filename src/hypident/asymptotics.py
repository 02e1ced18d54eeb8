"""The polynomial law for residues at infinity, through Bernoulli numbers.

For balanced instances (s = r) the residue of the kernel at infinity,
viewed as a function of the index k, is a polynomial of degree p: zero when
p = -1, identically 1 when p = 0, and for p >= 1 equal to the coefficient
q_p obtained by exponentiating the logarithmic expansion of the kernel.
The log expansion has coefficient G_j = (-1)^(j+1) Q_j / (j (j+1)) at
order j, where

    Q_j(k) = sum_i [ B_{j+1}(-a_i - k) - B_{j+1}(1 - b_i - k)
                     + B_{j+1}(1 - b_i + m_i) - B_{j+1}(1 - a_i + n_i) ],

and exponentiating gives q_0 = 1 and s q_s = sum_{u=1}^{s} u G_u q_{s-u}.

The law is evaluated, never expanded: q_p(k) is computed at each sampled k
in integers, from Bernoulli numbers built from integer tangent numbers.
With D the lcm of the denominators of a and b (as in ``residues``), every
Bernoulli argument is X / D with X an integer, and with L the lcm of the
denominators of B_0 .. B_p, h_u = L D^(u+1) Q_u(k) is an integer: at the
first k, sum_{l=1}^{n} C(n, l) L B_{n-l} D^(n-l) S_l at n = u + 1, over the
power sums S_l of the signed X.  The l = 0 term would take B_n, but S_0 is
the sum of the signs, r - s + s - r = 0, so B_{p+1} is never needed.  As
B_n(x) - B_n(x + m) = -n sum_{0<=t<m} (x + t)^(n-1) for integers m >= 0 (swap
x and x + m for m < 0), and Q_u pairs a_i with n_i and b_i with m_i, the
integer D^u Q_u / (u + 1) is a signed sum of u-th powers of D (x + t), so
g_u = u D^u G_u = (-1)^(u+1) h_u / (L D (u + 1)) and the recurrence on
v_t = D^t q_t is t v_t = sum_u g_u v_{t-u}.  Each v_t is an integer: at
k = -m_min it is C_t, route 4's coefficient at infinity of a ratio of monic
integer polynomials in w = D z (below; the Bernoulli expansion of a ratio
of Gamma functions, Tricomi & Erdelyi 1951).  So each order is one exact
division, and a remainder means a wrong Bernoulli number (in g_u) or a
law's series that is not route 4's (in v_t).

The recurrence runs once, at the first k; the series then steps in k.
From B_n(x - 1) = B_n(x) - n (x - 1)^(n-1), each G_j moves by
-(1/j) sum_i [(b_i + k)^j - (a_i + k + 1)^j] from k to k + 1, and
-sum_j (c x)^j / j = log(1 - c x), so the series sum_t q_t x^t gains the
factor prod_i (1 - (b_i + k) x) / (1 - (a_i + k + 1) x), exactly as
truncated power series.  In y = x / D its factors are 1 - C y with C an
integer, so multiplying and dividing by them, one pass per i with t ascending,
keeps D^t q_t in the integers at every k; each point leaves them once, in a
single division.  A check costs one O(p^2) recurrence, then O(r p) integer
products per point, O(r p^2) over its p + 3 points; interpolating q_p as
a polynomial through them takes O(p^2) operations on integers.

With x = 1/z the kernel of ``residues`` steps by the same factor, and for
p >= 0 it is sum_t c_t z^(p - 1 - t) at infinity, residue c_p.  So if q_t
equals c_t = C_t / D^t, from route 4's expansion in w = D z, for t <= p at
k = -m_min, it does at every k >= -m_min: ``check_residue_polynomial``
proves the law by that one comparison of integers, D^t q_t = C_t.
"""

from __future__ import annotations

__all__ = ["Lemma1Report", "check_residue_polynomial", "exp_series_coefficient", "law_points"]

from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import comb, factorial, lcm
from operator import mul
from typing import Sequence

from .algebra import Polynomial, Scalar, record
from .errors import CheckFailed
from .hyper import IdentityInstance, Theorem


def _bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n (B_1 = -1/2) from the integer tangent numbers T_k (Brent & Harvey, 2011):
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), and B_t = 0 for odd t > 1."""
    half = n // 2
    tangent = [0] + [factorial(k - 1) for k in range(1, half + 1)]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    values = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n - 1)
    for k in range(1, half + 1):
        values[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4**k * (4**k - 1))
    return values[: n + 1]


def law_points(inst: IdentityInstance) -> range:
    """The k at which the law is checked, -m_min .. -m_min + max(p, 0) + 2;
    ValueError for a confluent instance."""
    derived = inst.derived
    if derived.theorem is not Theorem.ONE:
        raise ValueError("defined only for balanced instances (s = r)")
    return range(-derived.m_min, -derived.m_min + max(derived.p, 0) + 3)


def _law_values(
    inst: IdentityInstance, order: int, start: int, count: int
) -> tuple[list[int], list[Fraction]]:
    """(series, values): series[t] = D^t q_t(start) for t <= order, integers (module
    docstring), and q_order(k) at k = start .. start + count - 1, 0 for order -1.
    CheckFailed at the first u with g_u, else the first t with D^t q_t(start), not an integer."""
    if order < 0:
        return [], [Fraction(0)] * count
    derived = inst.derived
    d, a, b = derived.scale, derived.a_int, derived.b_int
    numbers = _bernoulli_numbers(order)
    ell = lcm(*[x.denominator for x in numbers])  # L of the module docstring
    row = [x.numerator * (ell // x.denominator) * d**j for j, x in enumerate(numbers)]  # L B_j D^j

    # power_sums[l] = sum sign X^l over D times the Bernoulli arguments of
    # Q_j at k = start, with their signs
    args = [(-a_i - start * d, 1) for a_i in a]
    args += [(d - b_i - start * d, -1) for b_i in b]
    args += [(d - b_i + m_i * d, 1) for b_i, m_i in zip(b, inst.m)]
    args += [(d - a_i + n_i * d, -1) for a_i, n_i in zip(a, inst.n)]
    power_sums = [0] * (order + 2)
    for x, sign in args:
        power = sign
        for l in range(order + 2):
            power_sums[l] += power
            power *= x
    # g[u - 1] = (-1)^(u+1) h_u / (L D (u+1)), with h_u = L D^(u+1) Q_u(start)
    # = sum_{l>=1} C(n, l) row[n-l] power_sums[l] at n = u + 1 (module docstring)
    g = []
    for n in range(2, order + 2):
        h = sum([comb(n, l) * c * power_sums[l] for l, c in enumerate(row[n - 1 :: -1], 1) if c])
        g_u, rest = divmod((-1) ** n * h, ell * d * n)
        if rest:
            raise CheckFailed(f"law's log series at k={start}, order u={n - 1}: not an integer")
        g.append(g_u)

    first = [1]
    for t in range(1, order + 1):
        v, rest = divmod(sum(map(mul, g, reversed(first))), t)
        if rest:
            raise CheckFailed(f"law's series at k={start}, order t={t}: not an integer")
        first.append(v)

    series, values, top = first[:], [], d**order
    for k in range(start, start + count):
        if k > start:
            _step(series, d, a, b, k - 1)
        values.append(Fraction(series[order], top))
    return first, values


def _step(series: list[int], d: int, a: Sequence[int], b: Sequence[int], k: int) -> None:
    """The series from k to k + 1, in place: for each i one pass multiplies it by
    1 - c y and divides it by 1 - e y (c, e integers), new_t = x_t - c x_(t-1) + e new_(t-1)."""
    for a_i, b_i in zip(a, b):
        c, e, below, new = b_i + k * d, a_i + (k + 1) * d, 0, 0
        for t, x in enumerate(series):
            series[t] = new = x - c * below + e * new
            below = x


def exp_series_coefficient(inst: IdentityInstance, s_index: int) -> Polynomial:
    """Coefficient polynomial q_s of the exponentiated kernel expansion,

        q_s = sum_{l=1}^{s} (1/l!) sum_{s_1+...+s_l=s} G_{s_1} ... G_{s_l},

    a polynomial in k of degree s, with q_0 = 1: the interpolation of its
    exact values at k = 0 .. s.
    """
    law_points(inst)  # balanced instances only
    if s_index < 0:
        raise ValueError("order must be non-negative")
    return Polynomial.interpolate(0, _law_values(inst, s_index, 0, s_index + 1)[1])


@record
class Lemma1Report:
    """Outcome of the polynomial-law check: the law's values at ``points``."""

    p: int
    points: tuple[int, ...]
    residue_values: tuple[Scalar, ...]

    @cached_property
    def polynomial(self) -> Polynomial | None:
        """q_p when p >= 1, else None: the law's values interpolated at the first p + 1 points."""
        if self.p < 1:
            return None
        return Polynomial.interpolate(self.points[0], self.residue_values[: self.p + 1])

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "points": list(self.points),
            "residue_values": [str(v) for v in self.residue_values],
            "polynomial": (
                [str(c) for c in self.polynomial.coeffs]
                if self.polynomial is not None
                else None
            ),
            "ok": True,
        }


def check_residue_polynomial(
    inst: IdentityInstance, expansion: Sequence[int], at_points: Sequence[Scalar]
) -> Lemma1Report:
    """Prove the law for residues at infinity at every k >= -m_min, 0 for p = -1, 1 for
    p = 0 and q_p(k) for p >= 1: its series must equal ``expansion``, route 4's C_0 .. C_p
    at k = -m_min (module docstring), and its values ``at_points``, independent values from
    k = -m_min up, at most one per law point, which check the stepping the proof trusts.
    ValueError on a confluent instance or an expansion of the wrong length; CheckFailed
    at the first t or k where the two differ (a t whose series is not an integer, too)."""
    points = law_points(inst)
    p = inst.derived.p
    first, values = _law_values(inst, p, points.start, len(points))
    for t, (law, route_4) in enumerate(zip(first, expansion, strict=True)):
        if law != route_4:
            raise CheckFailed(f"law's series at k={points.start}, order t={t}: not route 4's (p={p})")
    for k, (value, law) in enumerate(zip_longest(at_points, values), points.start):
        if value is not None and value != law:
            raise CheckFailed(f"residue for k={k} is not the law's value (p={p})")
    return Lemma1Report(p=p, points=tuple(points), residue_values=tuple(values))
