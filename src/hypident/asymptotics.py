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
in integers.  With D the lcm of the denominators of a and b (as in
``residues``), every Bernoulli argument is X / D with X an integer, and
with L_n the lcm of the denominators of B_0 .. B_n, L_n D^n B_n(X / D) is
an integer.  It is computed by Horner at the first k and then, from one k
to the next, by B_n(x - 1) = B_n(x) - n (x - 1)^(n-1), at O(p r) per
point.  So L_{j+1} D^(j+1) Q_j(k) is an integer, and a multiple of D
because its X^(j+1) terms cancel modulo D.  Writing u D^u G_u as that
multiple over D, divided by e_u = (u+1) L_{u+1}, the recurrence runs on the
integers v_t = delta_t D^t q_t, where delta_0 = 1 and
delta_t = t lcm_u(e_u delta_{t-u}) clear every denominator the recurrence
can bring in; the delta_t do not depend on k.  Each point leaves the
integers once, in a single division.  A check costs O(p^3) integer
products over its p + 3 points, where expanding q_p as a polynomial cost
O(p^4) in ``Fraction`` arithmetic.  The polynomial itself, where asked
for, is the interpolation of these values.

``check_residue_polynomial`` compares both routes exactly at p + 3
integer points.  That is evidence for the law, not a proof: agreement at
p + 3 points forces equality only for a function already known to be a
polynomial of degree at most p, and nothing proves that of the sampled
residues beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm

from .algebra import Polynomial, Scalar
from .errors import CheckFailed
from .hyper import DerivedQuantities, IdentityInstance, Theorem
from .residues import residue_at_infinity, residue_kernel


def _bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n in the B_1 = -1/2 convention, by one pass of the
    recurrence sum_{i=0}^{t} C(t+1, i) B_i = 0 with B_0 = 1."""
    values = [Fraction(1)]
    for t in range(1, n + 1):
        acc = sum(comb(t + 1, i) * values[i] for i in range(t))
        values.append(Fraction(-acc, t + 1))
    return values


def _require_balanced(inst: IdentityInstance) -> DerivedQuantities:
    derived = inst.derived
    if derived.theorem is not Theorem.ONE:
        raise ValueError("defined only for balanced instances (s = r)")
    return derived


def _law_values(inst: IdentityInstance, order: int, start: int, count: int) -> list[Fraction]:
    """q_order(k) at k = start .. start + count - 1, for order >= 0, in
    integers scaled as the module docstring describes."""
    derived = inst.derived
    d, a, b = derived.scale, derived.a_int, derived.b_int
    numbers = _bernoulli_numbers(order + 1)
    ell = [1]  # ell[n] = L_n, the lcm of the denominators of B_0 .. B_n
    for x in numbers[1:]:
        ell.append(lcm(ell[-1], x.denominator))
    d_pow = [d**e for e in range(order + 2)]

    def scaled_bernoulli(n: int, x: int) -> int:
        """L_n D^n B_n(x / D) = sum_l C(n, l) L_n B_{n-l} D^(n-l) x^l."""
        acc = 0
        for l in range(n, -1, -1):
            c = numbers[n - l]
            acc = acc * x + comb(n, l) * c.numerator * (ell[n] // c.denominator) * d_pow[n - l]
        return acc

    # D times the Bernoulli arguments, with their signs in Q_j: the first
    # pair moves with k (given here at k = start), the second does not
    moving = [(-a_i - start * d, 1) for a_i in a]
    moving += [(d - b_i - start * d, -1) for b_i in b]
    fixed = [(d - b_i + m_i * d, 1) for b_i, m_i in zip(b, inst.m)]
    fixed += [(d - a_i + n_i * d, -1) for a_i, n_i in zip(a, inst.n)]
    # scaled[n] = L_n D^n Q_{n-1}(k) for n = 2 .. order + 1
    scaled = [0, 0] + [
        sum(sign * scaled_bernoulli(n, x) for x, sign in moving + fixed)
        for n in range(2, order + 2)
    ]

    # u D^u G_u = (-1)^(u+1) (scaled[u+1] / D) / e_u with e_u = (u+1) L_{u+1},
    # so v_t = delta_t D^t q_t = sum_u weights[t][u] (scaled[u+1] / D) v_{t-u}
    e = [0] + [(u + 1) * ell[u + 1] for u in range(1, order + 1)]
    delta, weights = [1], [[]]
    for t in range(1, order + 1):
        # a list, not a generator: see the ``hypident.algebra`` docstring
        delta.append(t * lcm(*[e[u] * delta[t - u] for u in range(1, t + 1)]))
        weights.append(
            [0] + [(-1) ** (u + 1) * delta[t] // (t * e[u] * delta[t - u]) for u in range(1, t + 1)]
        )
    denominator = delta[order] * d_pow[order]

    values = []
    for step in range(count):
        if step:
            # B_n(x - 1) = B_n(x) - n (x - 1)^(n-1): in X = D x,
            # L_n D^n B_n((X - D) / D) = L_n D^n B_n(X / D) - L_n n D (X - D)^(n-1)
            power_sums = [0] * (order + 1)
            shifted = []
            for x, sign in moving:
                x -= d
                shifted.append((x, sign))
                power = sign
                for i in range(order + 1):
                    power_sums[i] += power
                    power *= x
            moving = shifted
            for n in range(2, order + 2):
                scaled[n] -= ell[n] * n * d * power_sums[n - 1]
        # scaled[u + 1] is a multiple of D (module docstring)
        h = [0] + [scaled[u + 1] // d for u in range(1, order + 1)]
        v = [1]
        for t in range(1, order + 1):
            row = weights[t]
            v.append(sum(row[u] * h[u] * v[t - u] for u in range(1, t + 1)))
        values.append(Fraction(v[order], denominator))
    return values


def exp_series_coefficient(inst: IdentityInstance, s_index: int) -> Polynomial:
    """Coefficient polynomial q_s of the exponentiated kernel expansion,

        q_s = sum_{l=1}^{s} (1/l!) sum_{s_1+...+s_l=s} G_{s_1} ... G_{s_l},

    a polynomial in k of degree s, with q_0 = 1: the interpolation of its
    exact values at k = 0 .. s.
    """
    _require_balanced(inst)
    if s_index < 0:
        raise ValueError("order must be non-negative")
    return Polynomial.interpolate(0, _law_values(inst, s_index, 0, s_index + 1))


@dataclass(frozen=True)
class Lemma1Report:
    """Outcome of the polynomial-law check on residues at infinity."""

    p: int
    points: tuple[int, ...]
    residue_values: tuple[Scalar, ...]

    @cached_property
    def polynomial(self) -> Polynomial | None:
        """q_p when p >= 1, else None.  A report exists only when the
        residues matched q_p at every point, so q_p is their interpolation
        at the first p + 1 points."""
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


def _law_points(derived: DerivedQuantities) -> range:
    """The k where the law is checked: -m_min .. -m_min + max(p, 0) + 2."""
    return range(-derived.m_min, -derived.m_min + max(derived.p, 0) + 3)


def _check_law(inst: IdentityInstance, values: list[Scalar]) -> Lemma1Report:
    """Compare the residues at infinity ``values``, taken at ``_law_points``,
    with the law of the balanced ``inst``; raises CheckFailed at the first
    discrepant k."""
    p, points = inst.derived.p, _law_points(inst.derived)
    expected = _law_values(inst, p, points[0], len(points)) if p >= 0 else [0] * len(points)
    for k, value, law in zip(points, values, expected):
        if value != law:
            raise CheckFailed(
                f"residue at infinity for k={k} is {value}, expected {law} (p={p})"
            )
    return Lemma1Report(p=p, points=tuple(points), residue_values=tuple(values))


def check_residue_polynomial(inst: IdentityInstance) -> Lemma1Report:
    """Confirm the degree-p polynomial law for residues at infinity.

    p = -1: the residue vanishes at every sampled k.  p = 0: it equals 1.
    p >= 1: it matches q_p at k = -m_min .. -m_min + p + 2.  The p + 3
    points would over-determine a degree-p polynomial, but the residues are
    not known beforehand to be one, so agreement is exact equality at the
    sampled k and evidence, not proof, for the others.
    Raises CheckFailed at the first discrepant k.
    """
    points = _law_points(_require_balanced(inst))
    return _check_law(inst, [residue_at_infinity(residue_kernel(inst, k)) for k in points])
