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
denominator, held as int tuples from the constant term up (``fraction`` is
their z-form).  Horner evaluation at an integer pole and series division
by a monic denominator then stay in the integers.  Since dz = dw / D, both
the residue at a pole and the coefficient of 1/z at infinity return to z
through the one factor D^(deg den - deg num - 1): routes 3 and 4 hand their
integer numerator and denominator to ``ResidueKernel._to_z``, which folds
that factor in and leaves the integers as one Fraction; route 2 ends in one
Fraction too.  The gap deg num - deg den is M - N - r - (r - s) k in both
families; the kernel takes it from the instance as ``offset``.  Route 4
substitutes v = 1/w: v^offset times the kernel is the reversed numerator
over the reversed denominator, a power series in v whose coefficient C_t
belongs to w^(offset - t).  As den is monic its reversal starts with 1, so
C_t is the reversed numerator's t-th entry less one dot product with
C_0 .. C_{t-1}, and no step divides.  The expansion stops at C_{offset+1},
the coefficient of 1/w (none for offset < -1, where it is 0); the
polynomial law of ``asymptotics`` reads it whole at k = -m_min.
The closed form scales each Pochhammer factor the same way: (X/D)_q is an
integer product over D^q, and a quotient of such products is one
``rising_quotient``, as is the series route's prefactor.
D, D a_i and D b_l are computed once per instance, in ``inst.derived``.

The poles are the integers w0 = D a_i + (k - j) D, and the denominator is
the product of (w - w0) over them.  From k - 1 to k each string of roots
moves only at its k end, so a kernel steps from the one below it by one
multiplication or exact division per root: the
denominator gains D a_i + k D where k + n_i >= 0, the numerator gains
D b_l + (k - 1) D (m_l + k >= 1 as k - 1 >= -m_min) and loses D a_l + k D
where n_l + k <= -1.  The finite-residue route takes num(w0) and den'(w0)
from one Horner pass over num and one over den' (coefficients e den[e], taken
once per kernel); ``finite_residues`` lists each num(w0) / den'(w0) in z,
and ``sum_finite_residues`` sums them as one integer over the lcm of the
den'(w0).  The closed-form route sums
the residues (-1)^j prod_l (1 - b_l + a_i - j)_{m_l+k} / (j! (K - j)!
prod_{l != i} (a_i - a_l - j)_{n_l+k+1}) at z = a_i + k - j, K = k + n_i.
Each down (X/D)_Q, X = D (a_i - a_l - j), Q = n_l + k + 1, reflects to the
up (X/D + Q)_{-Q} (``rising_quotient``), so the term is (-1)^j over
j! (K - j)! times one product of (Y/D)_q over its pairs (Y, q), stepped in
j: (y - 1)_q / (y)_q is (y - 1)/(y + q - 1) for q of either sign, so term
j + 1 is term j times -(K - j)/(j + 1) and (Y - D)/(Y + (q - 1) D) for
every pair, Y at j (a factor of shift 0 is 1 and left out).  A run of
nonzero terms is thus one integer over a running denominator, as in
``hyper_series``.  A reflected down lies in D (a_i - a_l) + D Z, never in
D Z as validation keeps the a_i apart mod 1, so only an up,
Y = D (1 - b_l + a_i - j) with q = m_l + k, can zero a term, and the scan
for zero terms reads the ups alone.  A zero term cannot be stepped out of.
It has a factor Y/D in -(q - 1) .. 0, so b_l - a_i is an integer, and it
lies at an end of its string: zero terms on both sides of a nonzero one,
like a pole in any term, need b_l - a_i in [m_l - n_i + 1, 0], a prefactor
pole that ``validate`` rejects.  So each string is one run lo .. hi,
started from its pairs moved to j = lo: one ``rising_quotient`` over
(-1)^lo lo! (K - lo)!.  This route never reads a ``ResidueKernel``.
"""

from __future__ import annotations

__all__ = [
    "ResidueKernel", "finite_residues", "residue_at_infinity", "residue_kernel",
    "residue_sum_closed_form", "sum_finite_residues",
]

from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from operator import mul

from .algebra import Polynomial, RationalFunction, record
from .errors import KBelowRange
from .hyper import IdentityInstance, rising_quotient


@record
class ResidueKernel:
    """One member of the kernel family, expanded in w = scale * z: ``num`` and
    ``den`` are its monic integer polynomials in w, constant term first,
    ``poles`` are the roots of ``den``, D a_i + (k - j) D string by string (i
    ascending, then j = 0 .. k + n_i), and ``offset`` is deg num - deg den."""

    k: int
    scale: int
    num: tuple[int, ...]
    den: tuple[int, ...]
    poles: tuple[int, ...]
    offset: int

    @cached_property
    def fraction(self) -> RationalFunction:
        """The kernel as a rational function of z: coefficient e of ``num`` or
        ``den``, of degree t in w, over scale^(t - e)."""
        num, den = [Polynomial(tuple([Fraction(c, self.scale ** (len(w) - 1 - e)) for e, c in enumerate(w)]))
                    for w in (self.num, self.den)]
        return RationalFunction(num, den)

    @cached_property
    def expansion(self) -> list[int]:
        """Route 4's C_0 .. C_{offset+1} at infinity in w (module docstring), empty if offset < -1."""
        depth = self.offset + 2
        tail = self.den[-2::-1]
        out: list[int] = []
        for c in [*self.num[::-1], *[0] * depth][: max(depth, 0)]:
            out.append(c - sum(map(mul, reversed(out), tail)))
        return out

    def _to_z(self, top: int, bottom: int = 1) -> Fraction:
        """The residue top / bottom of the w-form kernel as the same residue in z, one Fraction."""
        e = -self.offset - 1  # the power of scale that takes it back to z
        return Fraction(top * self.scale ** max(e, 0), bottom * self.scale ** max(-e, 0))


def residue_kernel(inst: IdentityInstance, k: int, below: ResidueKernel | None = None) -> ResidueKernel:
    """Build the kernel for index k as expanded integer polynomials in w,
    stepped from ``below``, this instance's kernel at k - 1, when given.

    Requires k >= -m_min so every numerator rising factorial stays a
    polynomial; smaller k raises KBelowRange, and a ``below`` at another k ValueError.
    """
    derived = inst.derived
    if k < -derived.m_min:
        raise KBelowRange(f"k={k} below -m_min={-derived.m_min}")
    scale, a, b = derived.scale, derived.a_int, derived.b_int
    # (z - a_i - k)_{n_i + k + 1} has the simple roots a_i + k - j
    poles = [a_i + (k - j) * scale for a_i, n_i in zip(a, inst.n) for j in range(k + n_i + 1)]
    if below is None:
        # (z - b_l - k + 1)_{m_l + k} has the roots b_l + k - 1 - t, and for a
        # negative shift q = n_l + k + 1, 1/(z - a_l - k)_q has a_l + k + t for
        # t = 1 .. -q (no t for q >= 0); all times scale
        num = den = (1,)
        num_roots = [b_l + (k - 1 - t) * scale for b_l, m_l in zip(b, inst.m) for t in range(m_l + k)]
        num_roots += [a_l + (k + t) * scale for a_l, n_l in zip(a, inst.n) for t in range(1, -n_l - k)]
        den_roots = poles
    else:
        if below.k != k - 1:
            raise ValueError(f"a kernel steps only from the one at k - 1, not from k={below.k}")
        # each string of roots moves at its k end (module docstring)
        num, den = below.num, below.den
        for a_l, n_l in zip(a, inst.n):
            if n_l + k <= -1:
                num = _divide_root(num, a_l + k * scale)
        num_roots = [b_l + (k - 1) * scale for b_l in b]
        den_roots = [a_i + k * scale for a_i, n_i in zip(a, inst.n) if k + n_i >= 0]
    num, den = _from_roots(num_roots, num), _from_roots(den_roots, den)
    offset = derived.M - derived.N - derived.r - (derived.r - derived.s) * k
    assert len(num) - len(den) == offset, "kernel degree bookkeeping broke"
    return ResidueKernel(k, scale, num, den, tuple(poles), offset)


def _from_roots(roots: list[int], times: tuple[int, ...]) -> tuple[int, ...]:
    """The product of (w - root) over the roots, times ``times``."""
    out = list(times)
    for root in roots:
        # multiply by (w - root) in place, highest coefficient first
        out.append(out[-1])
        for e in range(len(out) - 2, 0, -1):
            out[e] = out[e - 1] - root * out[e]
        out[0] = -root * out[0]
    return tuple(out)


def _divide_root(poly: tuple[int, ...], root: int) -> tuple[int, ...]:
    """poly / (w - root) for a root of poly: its Horner values at root."""
    out = [0]
    for c in reversed(poly):
        out.append(out[-1] * root + c)
    assert out[-1] == 0, "a stepped kernel lost a root its numerator lacks"
    return tuple(out[-2:0:-1])


def _residue_parts(kernel: ResidueKernel) -> list[tuple[int, int]]:
    """(num(w0), den'(w0)) at each pole w0, in ``poles`` order, by Horner over num
    and over den' (e den[e]); every w0 is a simple root of den, since the poles
    are den's roots and ``validate`` keeps the a_i apart mod 1."""
    num = kernel.num[::-1]
    derivative = [e * c for e, c in enumerate(kernel.den)][:0:-1]
    out = []
    for w0 in kernel.poles:
        top = slope = 0
        for c in num:
            top = top * w0 + c
        for c in derivative:
            slope = slope * w0 + c
        out.append((top, slope))
    return out


def finite_residues(kernel: ResidueKernel) -> list[Fraction]:
    """Route 3 pole by pole, in ``kernel.poles`` order: num(w0) / den'(w0) at
    each pole w0, back in z."""
    return [kernel._to_z(top, slope) for top, slope in _residue_parts(kernel)]


def residue_sum_closed_form(inst: IdentityInstance, k: int) -> Fraction:
    """Route 2 at index k: the closed-form residues, the strings' sums over one lcm."""
    derived = inst.derived
    scale, a, b = derived.scale, derived.a_int, derived.b_int
    strings = []  # (numerator, denominator) of each string's sum
    for i, n_i in enumerate(inst.n):
        top = k + n_i
        # Y_l at j = 0 with its shift; a factor of shift 0 is 1
        ups = [(scale - b_l + a[i], m_l + k) for b_l, m_l in zip(b, inst.m) if m_l + k]
        # the nonzero terms are the one run lo .. hi (module docstring)
        lo, hi = 0, top
        for y, q in ups:
            if q > 0 and y % scale == 0:
                c = y // scale  # terms c .. c + q - 1 have a zero factor
                lo, hi = (max(lo, c + q), hi) if c <= 0 else (lo, min(hi, c - 1))
        if lo > hi:
            continue
        # each X_l at j = 0 with its shift Q_l, reflected to the up (X_l + Q_l D, -Q_l)
        pairs = ups + [(a[i] - a_l + (n_l + k + 1) * scale, -n_l - k - 1)
                       for l, (a_l, n_l) in enumerate(zip(a, inst.n)) if l != i and n_l + k + 1]
        # term lo: the pairs moved to j = lo, over (-1)^lo lo! (top - lo)!
        start = rising_quotient(scale, [(y - lo * scale, q) for y, q in pairs], [])
        term = acc = (-1) ** lo * start.numerator
        den = start.denominator * factorial(lo) * factorial(top - lo)
        for j in range(lo + 1, hi + 1):
            # the ratio of term j to term j - 1
            up, down, shift = j - 1 - top, j, j * scale
            for y, q in pairs:
                up, down = up * (y - shift), down * (y - shift + q * scale)
            term, den = term * up, den * down
            acc = acc * down + term
        strings.append((acc, den))
    common = lcm(*[den for _, den in strings])
    return Fraction(sum([acc * (common // den) for acc, den in strings]), common)


def sum_finite_residues(kernel: ResidueKernel) -> Fraction:
    """Sum of residues over the kernel's enumerated (simple) poles, each
    num(w0) / den'(w0) at its integer pole w0, over the lcm of the den'(w0)."""
    parts = _residue_parts(kernel)
    common = lcm(*[slope for _, slope in parts])
    return kernel._to_z(sum([top * (common // slope) for top, slope in parts]), common)


def residue_at_infinity(kernel: ResidueKernel) -> Fraction:
    """Coefficient of 1/z in the kernel's expansion at infinity, the last of
    ``expansion`` back in z: the sum of the finite residues, as ``verify`` checks."""
    return kernel._to_z(kernel.expansion[-1] if kernel.expansion else 0)
