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

All three routes run in the scaled variable w = D z, where D is the lcm of
the denominators of the parameters a and b.  Every kernel root lies in
a_i + Z or b_l + Z, so in (1/D) Z, and becomes the integer D times itself:
numerator and denominator are monic polynomials in w with integer
coefficients, Ntilde(w) = D^{deg num} num(w/D) and likewise for the
denominator.  Synthetic division at an integer pole and series division
by a monic denominator then stay in the integers, and only the final
division of a residue leaves them.  Since dz = dw / D, both the residue at
a pole and the coefficient of 1/z at infinity return to z through the one
factor D^(deg den - deg num - 1).  The closed form scales each Pochhammer
factor the same way: (X/D)_q is an integer product over D^q (``rising``).
D, D a_i and D b_l are computed once per instance, in ``inst.derived``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import NamedTuple

from .algebra import (
    Polynomial,
    RationalFunction,
    Scalar,
    exact_div,
    expansion_at_infinity,
)
from .errors import KBelowRange, NotSimplePole
from .hyper import IdentityInstance, Theorem, rising


class Pole(NamedTuple):
    location: Fraction
    i: int  # which upper parameter the pole string belongs to
    j: int  # offset within the string: location = a_i + k - j


def _unscale_polynomial(poly: Polynomial, scale: int) -> Polynomial:
    """The monic polynomial in z whose roots are those of the monic ``poly``
    in w = scale * z, divided by scale."""
    top = len(poly.coeffs) - 1
    return Polynomial(
        tuple(Fraction(c, scale ** (top - e)) for e, c in enumerate(poly.coeffs))
    )


@dataclass(frozen=True)
class ResidueKernel:
    """One member of the kernel family, expanded in w = scale * z, with its
    pole list in z."""

    k: int
    scale: int
    scaled: RationalFunction  # monic integer polynomials in w
    poles: tuple[Pole, ...]

    @cached_property
    def fraction(self) -> RationalFunction:
        """The kernel as a rational function of z."""
        return RationalFunction(
            _unscale_polynomial(self.scaled.num, self.scale),
            _unscale_polynomial(self.scaled.den, self.scale),
        )

    def _to_z(self, value: Scalar) -> Scalar:
        """A residue of the w-form kernel as the same residue in z."""
        exponent = self.scaled.den.degree - self.scaled.num.degree - 1
        if exponent >= 0:
            return value * self.scale**exponent
        return exact_div(value, self.scale**-exponent)


def residue_kernel(inst: IdentityInstance, k: int) -> ResidueKernel:
    """Build the kernel for index k as expanded integer polynomials in w.

    Requires k >= -m_min so every numerator rising factorial stays a
    polynomial; smaller k raises KBelowRange.
    """
    derived = inst.derived
    if k < -derived.m_min:
        raise KBelowRange(f"k={k} below -m_min={-derived.m_min}")
    scale, a, b = derived.scale, derived.a_int, derived.b_int
    num_roots: list[int] = []
    den_roots: list[int] = []
    for b_l, m_l in zip(b, inst.m):
        # (z - b_l - k + 1)_{m_l + k} has roots b_l + k - 1 - t (times scale)
        root = b_l + (k - 1) * scale
        num_roots.extend(root - t * scale for t in range(m_l + k))
    for a_l, n_l in zip(a, inst.n):
        q = n_l + k + 1
        root = a_l + k * scale
        if q >= 0:
            den_roots.extend(root - t * scale for t in range(q))
        else:
            # negative shift: 1/(x)_q is the polynomial (x-1)...(x+q)
            num_roots.extend(root + t * scale for t in range(1, -q + 1))
    num = Polynomial.from_roots(num_roots)
    den = Polynomial.from_roots(den_roots)
    offset = derived.M - derived.N - derived.r
    if derived.theorem is Theorem.TWO:
        offset -= (derived.r - derived.s) * k
    assert num.degree - den.degree == offset, "kernel degree bookkeeping broke"
    poles = []
    for i, (a_i, n_i) in enumerate(zip(inst.a, inst.n)):
        for j in range(k + n_i + 1):
            poles.append(Pole(a_i + k - j, i, j))
    return ResidueKernel(
        k=k, scale=scale, scaled=RationalFunction(num, den), poles=tuple(poles)
    )


def residue_at_simple_pole(f: RationalFunction, z0: Scalar) -> Scalar:
    """Residue of f at a simple denominator root z0.

    Computed by synthetic division: with den = (z - z0) d(z), the residue is
    num(z0)/d(z0).  Raises NotSimplePole if z0 is not a root or is a
    multiple root of the (stored, unreduced) denominator.
    """
    quotient, rem = f.den.deflate(z0)
    if rem != 0:
        raise NotSimplePole(f"{z0} is not a root of the denominator")
    d0 = quotient(z0)
    if d0 == 0:
        raise NotSimplePole(f"{z0} is a multiple root of the denominator")
    return exact_div(f.num(z0), d0)


def residue_closed_form(inst: IdentityInstance, i: int, k: int, j: int) -> Scalar:
    """Closed form of the kernel residue at z = a_i + k - j:

        (-1)^j prod_l (1 - b_l + a_i - j)_{m_l+k}
        ---------------------------------------------------------
        j! (k + n_i - j)! prod_{l != i} (a_i - a_l - j)_{n_l+k+1}

    Zero by convention outside 0 <= j <= k + n_i, which extends the formula
    to every integer pair (k, j) the assembly code touches.
    A zero factor needs b_l - a_i in [m_l - n_i + 1, 0], which validation
    rejects as a prefactor pole; it would raise, never give a value.
    """
    n_i = inst.n[i]
    if j < 0 or j > k + n_i:
        return 0
    derived = inst.derived
    scale, a, b = derived.scale, derived.a_int, derived.b_int
    # the Pochhammer arguments times scale: D (1 - b_l + a_i - j), D (a_i - a_l - j)
    base = a[i] - j * scale
    top = (-1) ** j
    bottom = factorial(j) * factorial(k + n_i - j)
    exponent = 0  # the power of scale the integer quotient still carries
    for b_l, m_l in zip(b, inst.m):
        up, down = rising(base + scale - b_l, m_l + k, scale)
        top, bottom, exponent = top * up, bottom * down, exponent - (m_l + k)
    for l, (a_l, n_l) in enumerate(zip(a, inst.n)):
        if l != i:
            up, down = rising(base - a_l, n_l + k + 1, scale)
            top, bottom, exponent = top * down, bottom * up, exponent + n_l + k + 1
    if exponent >= 0:
        return Fraction(top * scale**exponent, bottom)
    return Fraction(top, bottom * scale**-exponent)


def residue_sum_closed_form(inst: IdentityInstance, k: int) -> Scalar:
    """Double sum of closed-form residues over all pole strings at index k."""
    total = 0
    for i, n_i in enumerate(inst.n):
        for j in range(k + n_i + 1):
            total += residue_closed_form(inst, i, k, j)
    return total


def sum_finite_residues(kernel: ResidueKernel) -> Scalar:
    """Sum of residues over the kernel's enumerated (simple) poles, each by
    synthetic division of the w-form denominator at its integer pole."""
    total = 0
    for pole in kernel.poles:
        total += residue_at_simple_pole(kernel.scaled, int(pole.location * kernel.scale))
    return kernel._to_z(total)


def residue_at_infinity(kernel: ResidueKernel) -> Scalar:
    """Coefficient of 1/z in the kernel's expansion at infinity.

    For a rational function this equals the sum of all finite residues,
    which is exactly the consistency the verifier checks.
    """
    top = kernel.scaled.degree_offset
    if top < -1:
        return 0
    depth = int(top) + 2
    _, coeffs = expansion_at_infinity(kernel.scaled, depth)
    return kernel._to_z(coeffs[depth - 1])
