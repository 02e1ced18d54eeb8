"""Bernoulli machinery and the polynomial law for residues at infinity.

For balanced instances (s = r) the residue of the kernel at infinity,
viewed as a function of the index k, is a polynomial of degree p: zero when
p = -1, identically 1 when p = 0, and for p >= 1 equal to the coefficient
polynomial q_p obtained by exponentiating the logarithmic expansion of the
kernel, whose coefficients are explicit Bernoulli-polynomial combinations
of the instance data.  ``check_residue_polynomial`` compares both routes
exactly at p + 3 integer points.  That is evidence for the law, not a
proof: agreement at p + 3 points forces equality only for a function
already known to be a polynomial of degree at most p, and nothing proves
that of the sampled residues beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import Polynomial
from .errors import CheckFailed
from .hyper import DerivedQuantities, IdentityInstance, Theorem
from .residues import residue_at_infinity, residue_kernel


def _bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n in the B_1 = -1/2 convention, by one pass of the
    recurrence sum_{i=0}^{t} C(t+1, i) B_i = 0 with B_0 = 1."""
    if n < 0:
        raise ValueError("index must be non-negative")
    values = [Fraction(1)]
    for t in range(1, n + 1):
        acc = sum(comb(t + 1, i) * values[i] for i in range(t))
        values.append(Fraction(-acc, t + 1))
    return values


def bernoulli_number(j: int) -> Fraction:
    """Bernoulli number B_j in the B_1 = -1/2 convention."""
    return _bernoulli_numbers(j)[j]


def bernoulli_polynomial(n: int) -> Polynomial:
    """The monic degree-n Bernoulli polynomial
    B_n(x) = sum_l C(n, l) B_{n-l} x^l."""
    numbers = _bernoulli_numbers(n)
    return Polynomial(tuple(comb(n, l) * numbers[n - l] for l in range(n + 1)))


def _require_balanced(inst: IdentityInstance) -> DerivedQuantities:
    derived = inst.derived
    if derived.theorem is not Theorem.ONE:
        raise ValueError("defined only for balanced instances (s = r)")
    return derived


def bernoulli_combination(inst: IdentityInstance, j: int) -> Polynomial:
    """The degree-j polynomial in k collecting the Bernoulli-polynomial
    terms at order j of the kernel's logarithmic expansion:

        sum_i [ B_{j+1}(-a_i - k) - B_{j+1}(1 - b_i - k)
                + B_{j+1}(1 - b_i + m_i) - B_{j+1}(1 - a_i + n_i) ].

    The k^{j+1} terms of the two k-dependent compositions cancel pairwise,
    dropping the degree to exactly j (generically).
    """
    _require_balanced(inst)
    if j < 1:
        raise ValueError("order must be positive")
    be = bernoulli_polynomial(j + 1)
    total = Polynomial.zero()
    for a_i, b_i, m_i, n_i in zip(inst.a, inst.b, inst.m, inst.n):
        total = total + be.compose_affine(-a_i, -1)
        total = total - be.compose_affine(1 - b_i, -1)
        total = total + Polynomial.constant(be(1 - b_i + m_i))
        total = total - Polynomial.constant(be(1 - a_i + n_i))
    return total


def exp_series_coefficient(inst: IdentityInstance, s_index: int) -> Polynomial:
    """Coefficient polynomial q_s of the exponentiated kernel expansion.

    The log expansion has coefficient G_j = (-1)^(j+1) Q_j / (j (j+1)) at
    order j, with Q_j = ``bernoulli_combination``; exponentiating gives

        q_s = sum_{l=1}^{s} (1/l!) sum_{s_1+...+s_l=s} G_{s_1} ... G_{s_l},

    a polynomial in k of degree s, with q_0 = 1.  The composition sum is
    computed through the equivalent derivative recurrence
    s q_s = sum_u u G_u q_{s-u}, in O(s^2) polynomial products.
    """
    _require_balanced(inst)
    if s_index < 0:
        raise ValueError("order must be non-negative")
    gs: dict[int, Polynomial] = {}
    for j in range(1, s_index + 1):
        sign = 1 if (j + 1) % 2 == 0 else -1
        gs[j] = bernoulli_combination(inst, j) * Fraction(sign, j * (j + 1))
    qs = [Polynomial.one()]
    for t in range(1, s_index + 1):
        acc = Polynomial.zero()
        for u in range(1, t + 1):
            acc = acc + gs[u] * qs[t - u] * u
        qs.append(acc * Fraction(1, t))
    return qs[s_index]


@dataclass(frozen=True)
class Lemma1Report:
    """Outcome of the polynomial-law check on residues at infinity."""

    p: int
    points: tuple[int, ...]
    residue_values: tuple[Fraction, ...]
    polynomial: Polynomial | None  # q_p when p >= 1, else None

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


def check_residue_polynomial(inst: IdentityInstance) -> Lemma1Report:
    """Confirm the degree-p polynomial law for residues at infinity.

    p = -1: the residue vanishes at every sampled k.  p = 0: it equals 1.
    p >= 1: it matches q_p at k = -m_min .. -m_min + p + 2.  The p + 3
    points would over-determine a degree-p polynomial, but the residues are
    not known beforehand to be one, so agreement is exact equality at the
    sampled k and evidence, not proof, for the others.
    Raises CheckFailed at the first discrepant k.
    """
    derived = _require_balanced(inst)
    p = derived.p
    count = p + 3 if p >= 1 else 3
    points = tuple(range(-derived.m_min, -derived.m_min + count))
    values = tuple(residue_at_infinity(residue_kernel(inst, k)) for k in points)
    poly = exp_series_coefficient(inst, p) if p >= 1 else None
    for k, value in zip(points, values):
        if p == -1:
            expected = Fraction(0)
        elif p == 0:
            expected = Fraction(1)
        else:
            expected = poly(k)
        if value != expected:
            raise CheckFailed(
                f"residue at infinity for k={k} is {value}, expected {expected} (p={p})"
            )
    return Lemma1Report(p=p, points=points, residue_values=values, polynomial=poly)
