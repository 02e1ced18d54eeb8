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
denominator.  Horner evaluation at an integer pole and series division
by a monic denominator then stay in the integers, and only the final
division of a residue leaves them.  Since dz = dw / D, both the residue at
a pole and the coefficient of 1/z at infinity return to z through the one
factor D^(deg den - deg num - 1).  The closed form scales each Pochhammer
factor the same way: (X/D)_q is an integer product over D^q, and the
quotient of such products in each closed-form residue is one
``rising_quotient``, as is the series route's prefactor.
D, D a_i and D b_l are computed once per instance, in ``inst.derived``.

Each ``Pole`` carries its integer w0 = D a_i + (k - j) D, and the
finite-residue route takes the residue there as num(w0) / den'(w0), with
den(w0) and den'(w0) from one Horner pass.  The closed-form route steps
each pole string in j: (y - 1)_q / (y)_q is (y - 1)/(y + q - 1) for q of
either sign, so term j + 1 is term j times -(K - j)/(j + 1), times
(Y_l - D)/(Y_l + (q_l - 1) D) for each l and
(X_l + (Q_l - 1) D)/(X_l - D) for each l != i, where K = k + n_i,
Y_l = D (1 - b_l + a_i - j), X_l = D (a_i - a_l - j), q_l = m_l + k and
Q_l = n_l + k + 1 (a factor of shift 0 is 1 and left out).  A run of
nonzero terms is thus one integer over a running denominator, as in
``hyper_series``.  A zero term cannot be stepped out of.  It has a factor
Y_l / D in -(q_l - 1) .. 0, so b_l - a_i is an integer, and it lies at an
end of its string: zero terms on both sides of a nonzero one need b_l - a_i
in [m_l - n_i + 1, 0], a prefactor pole that ``validate`` rejects.  So each
string is one run, restarted from ``residue_closed_form`` at its first
nonzero term.  This route never reads a ``ResidueKernel``.
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
from .hyper import IdentityInstance, Theorem, rising_quotient


class Pole(NamedTuple):
    w: int  # the pole in w = D z: D (a_i + k - j)
    i: int  # which upper parameter the pole string belongs to
    j: int  # offset within the string


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
    poles as integers in w."""

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
    for i, (a_i, n_i) in enumerate(zip(a, inst.n)):
        for j in range(k + n_i + 1):
            poles.append(Pole(a_i + (k - j) * scale, i, j))
    return ResidueKernel(
        k=k, scale=scale, scaled=RationalFunction(num, den), poles=tuple(poles)
    )


def residue_at_simple_pole(f: RationalFunction, z0: Scalar) -> Scalar:
    """Residue of f at a simple denominator root z0: num(z0) / den'(z0).

    One Horner pass evaluates den and den' at z0 together.  Raises
    NotSimplePole if z0 is not a root or is a multiple root of the
    (stored, unreduced) denominator.
    """
    value = slope = 0
    for c in reversed(f.den.coeffs):
        slope = slope * z0 + value
        value = value * z0 + c
    if value != 0:
        raise NotSimplePole(f"{z0} is not a root of the denominator")
    if slope == 0:
        raise NotSimplePole(f"{z0} is a multiple root of the denominator")
    return exact_div(f.num(z0), slope)


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
    quotient = rising_quotient(
        scale,
        [(base + scale - b_l, m_l + k) for b_l, m_l in zip(b, inst.m)],
        [(base - a_l, n_l + k + 1) for l, (a_l, n_l) in enumerate(zip(a, inst.n)) if l != i],
    )
    return quotient / ((-1) ** j * factorial(j) * factorial(k + n_i - j))


def residue_sum_closed_form(inst: IdentityInstance, k: int) -> Scalar:
    """Double sum of closed-form residues over all pole strings at index k,
    each string summed by term ratio (module docstring)."""
    derived = inst.derived
    scale, a, b = derived.scale, derived.a_int, derived.b_int
    total = 0
    for i, n_i in enumerate(inst.n):
        top = k + n_i
        # Y_l and X_l at j = 0 with their shifts; a factor of shift 0 is 1
        ups = [(scale - b_l + a[i], m_l + k) for b_l, m_l in zip(b, inst.m) if m_l + k]
        downs = [(a[i] - a_l, n_l + k + 1) for l, (a_l, n_l) in enumerate(zip(a, inst.n))
                 if l != i and n_l + k + 1]
        # the nonzero terms are the one run lo .. hi (module docstring)
        lo, hi = 0, top
        for y, q in ups:
            if q > 0 and y % scale == 0:
                c = y // scale  # terms c .. c + q - 1 have a zero factor
                lo, hi = (max(lo, c + q), hi) if c <= 0 else (lo, min(hi, c - 1))
        if lo > hi:
            continue
        start = residue_closed_form(inst, i, k, lo)
        term, den, acc = start.numerator, start.denominator, start.numerator
        for j in range(lo + 1, hi + 1):
            # the ratio of term j to term j - 1
            up, down, shift = j - 1 - top, j, (j - 1) * scale
            for y, q in ups:
                up, down = up * (y - shift - scale), down * (y - shift + (q - 1) * scale)
            for x, q in downs:
                up, down = up * (x - shift + (q - 1) * scale), down * (x - shift - scale)
            term, den, acc = term * up, den * down, acc * down + term * up
        total += Fraction(acc, den)
    return total


def sum_finite_residues(kernel: ResidueKernel) -> Scalar:
    """Sum of residues over the kernel's enumerated (simple) poles, each
    from the w-form kernel at its integer pole."""
    total = 0
    for pole in kernel.poles:
        total += residue_at_simple_pole(kernel.scaled, pole.w)
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
