"""The rational kernel family behind the identity coefficients.

For a validated instance and integer k >= -m_min, the kernel

    (z - b_1 - k + 1)_{m_1+k} ... (z - b_s - k + 1)_{m_s+k}
    ---------------------------------------------------------
    (z - a_1 - k)_{n_1+k+1} ... (z - a_r - k)_{n_r+k+1}

is a rational function of z whose finite poles are all simple, located at
z = a_i + k - j for j = 0..k+n_i (components with k + n_i < 0 contribute
denominator factors of negative shift, which flip into the numerator).
The sum of its finite residues equals the coefficient of 1/z in its
expansion at infinity, and each residue has an explicit closed form; the
three routes are compared exactly by the verification layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .algebra import (
    Polynomial,
    RationalFunction,
    Scalar,
    as_fraction,
    expansion_at_infinity,
)
from .errors import KBelowRange, NotSimplePole
from .hyper import IdentityInstance, Theorem, pochhammer_vec


class Pole(NamedTuple):
    location: Fraction
    i: int  # which upper parameter the pole string belongs to
    j: int  # offset within the string: location = a_i + k - j


@dataclass(frozen=True)
class ResidueKernel:
    """One member of the kernel family, expanded, with its pole list."""

    k: int
    fraction: RationalFunction
    poles: tuple[Pole, ...]


def residue_kernel(inst: IdentityInstance, k: int) -> ResidueKernel:
    """Build the kernel for index k as expanded exact polynomials.

    Requires k >= -m_min so every numerator rising factorial stays a
    polynomial; smaller k raises KBelowRange.
    """
    derived = inst.derived
    if k < -derived.m_min:
        raise KBelowRange(f"k={k} below -m_min={-derived.m_min}")
    num = Polynomial.one()
    den = Polynomial.one()
    for b_l, m_l in zip(inst.b, inst.m):
        # (z - b_l - k + 1)_{m_l + k} has roots b_l + k - 1 - t
        num = num * Polynomial.from_roots(b_l + k - 1 - t for t in range(m_l + k))
    for a_l, n_l in zip(inst.a, inst.n):
        q = n_l + k + 1
        if q >= 0:
            den = den * Polynomial.from_roots(a_l + k - t for t in range(q))
        else:
            # negative shift: 1/(w)_q is the polynomial (w-1)...(w+q)
            num = num * Polynomial.from_roots(a_l + k + t for t in range(1, -q + 1))
    offset = derived.M - derived.N - derived.r
    if derived.theorem is Theorem.TWO:
        offset -= (derived.r - derived.s) * k
    assert num.degree - den.degree == offset, "kernel degree bookkeeping broke"
    poles = []
    for i, (a_i, n_i) in enumerate(zip(inst.a, inst.n)):
        for j in range(k + n_i + 1):
            poles.append(Pole(a_i + k - j, i, j))
    return ResidueKernel(k=k, fraction=RationalFunction(num, den), poles=tuple(poles))


def residue_at_simple_pole(f: RationalFunction, z0: Scalar) -> Fraction:
    """Residue of f at a simple denominator root z0.

    Computed by synthetic division: with den = (z - z0) d(z), the residue is
    num(z0)/d(z0).  Raises NotSimplePole if z0 is not a root or is a
    multiple root of the (stored, unreduced) denominator.
    """
    z0 = as_fraction(z0)
    quotient, rem = f.den.deflate(z0)
    if rem != 0:
        raise NotSimplePole(f"{z0} is not a root of the denominator")
    d0 = quotient(z0)
    if d0 == 0:
        raise NotSimplePole(f"{z0} is a multiple root of the denominator")
    return f.num(z0) / d0


def residue_closed_form(inst: IdentityInstance, i: int, k: int, j: int) -> Fraction:
    """Closed form of the kernel residue at z = a_i + k - j.

    Zero by convention outside 0 <= j <= k + n_i, which extends the formula
    to every integer pair (k, j) the assembly code touches.
    """
    n_i = inst.n[i]
    if j < 0 or j > k + n_i:
        return Fraction(0)
    a_i = inst.a[i]
    num = pochhammer_vec(
        [1 - b_l + a_i - j for b_l in inst.b], [m_l + k for m_l in inst.m]
    )
    others = [l for l in range(inst.r) if l != i]
    den = pochhammer_vec(
        [a_i - inst.a[l] - j for l in others], [inst.n[l] + k + 1 for l in others]
    )
    den *= factorial(j) * factorial(k + n_i - j)
    return (Fraction(-1) ** j) * num / den


def residue_sum_closed_form(inst: IdentityInstance, k: int) -> Fraction:
    """Double sum of closed-form residues over all pole strings at index k."""
    total = Fraction(0)
    for i, n_i in enumerate(inst.n):
        for j in range(k + n_i + 1):
            total += residue_closed_form(inst, i, k, j)
    return total


def sum_finite_residues(kernel: ResidueKernel) -> Fraction:
    """Sum of residues over the kernel's enumerated (simple) poles."""
    total = Fraction(0)
    for pole in kernel.poles:
        total += residue_at_simple_pole(kernel.fraction, pole.location)
    return total


def residue_at_infinity(kernel: ResidueKernel) -> Fraction:
    """Coefficient of 1/z in the kernel's expansion at infinity.

    For a rational function this equals the sum of all finite residues,
    which is exactly the consistency the verifier checks.
    """
    top = kernel.fraction.degree_offset
    if top < -1:
        return Fraction(0)
    depth = int(top) + 2
    _, coeffs = expansion_at_infinity(kernel.fraction, depth)
    return coeffs[depth - 1]
