"""Exact algebraic tower: dense polynomials, truncated Laurent series, and
rational functions over arbitrary-precision rationals.

Series coefficients are `fractions.Fraction`; polynomial coefficients stay
`int` while every input is an integer and become `Fraction` otherwise, so
integer polynomials run on plain ints.  Every division is exact
(``exact_div``); no floating point enters this module.  The truncation
order of a Laurent series is a hard certificate boundary: coefficients at
exponents <= trunc are exactly known, anything above is unknown and
reading it raises instead of silently returning 0.
All values are immutable after construction, so they can be shared freely
between threads and concurrently running verification jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence, Union

from .errors import TruncationError

Scalar = Union[int, Fraction]

#: Degree of the zero polynomial (sentinel; compares below every integer).
NEG_INF = float("-inf")


def as_fraction(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def exact_div(x: Scalar, y: Scalar) -> Scalar:
    """x / y in the rationals: an int when both are ints and y divides x,
    a Fraction otherwise, never a float."""
    if isinstance(x, int) and isinstance(y, int):
        q, rem = divmod(x, y)
        return q if not rem else Fraction(x, y)
    return x / y


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; coefficient index = exponent.

    Coefficients are kept as given (int or Fraction).  Trailing zero
    coefficients are stripped on construction, so ``coeffs`` is canonical
    and the zero polynomial is the empty tuple.
    """

    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        cs = tuple(self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, *coeffs: Scalar) -> Polynomial:
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls) -> Polynomial:
        return cls(())

    @classmethod
    def one(cls) -> Polynomial:
        return cls((1,))

    @classmethod
    def constant(cls, c: Scalar) -> Polynomial:
        return cls((c,))

    @classmethod
    def identity(cls) -> Polynomial:
        """The polynomial z."""
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Iterable[Scalar]) -> Polynomial:
        """Monic product of (z - root) over the given roots."""
        out = [1]
        for root in roots:
            # multiply by (z - root) in place, highest coefficient first
            out.append(1)
            for e in range(len(out) - 2, 0, -1):
                out[e] = out[e - 1] - root * out[e]
            out[0] = -root * out[0]
        return cls(tuple(out))

    @classmethod
    def interpolate(cls, start: int, values: Sequence[Scalar]) -> Polynomial:
        """The polynomial of degree < len(values) through the points
        (start + i, values[i]), by Newton's forward differences:
        f(start + t) = sum_j Delta^j f(start) C(t, j), expanded by Horner."""
        diffs = []
        row = list(values)
        while row:
            diffs.append(row[0])
            row = [y - x for x, y in zip(row, row[1:])]
        out = cls.zero()
        for j in range(len(diffs) - 1, -1, -1):
            out = out * cls.of(-start - j, 1) * Fraction(1, j + 1) + cls.constant(diffs[j])
        return out

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, e: int) -> Scalar:
        return self.coeffs[e] if 0 <= e < len(self.coeffs) else 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(tuple(out))

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Polynomial(tuple(out))

    def __rmul__(self, other: Scalar) -> Polynomial:
        return self.scale(other)

    def scale(self, c: Scalar) -> Polynomial:
        return Polynomial(tuple(c * x for x in self.coeffs))

    def __call__(self, x: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deflate(self, z0: Scalar) -> tuple[Polynomial, Scalar]:
        """Synthetic division by (z - z0): returns (quotient, remainder)."""
        if not self.coeffs:
            return Polynomial.zero(), 0
        out = [0] * (len(self.coeffs) - 1)
        carry = 0
        for i in range(len(self.coeffs) - 1, 0, -1):
            carry = self.coeffs[i] + carry * z0
            out[i - 1] = carry
        rem = self.coeffs[0] + carry * z0
        return Polynomial(tuple(out)), rem

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            var = "" if e == 0 else ("z" if e == 1 else f"z^{e}")
            body = f"{mag}" if not var else (var if mag == 1 else f"{mag}*{var}")
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated formal Laurent series with exact coefficients.

    ``coeffs[i]`` is the coefficient of z**(low + i).  Coefficients at
    exponents in (low + len(coeffs) - 1, trunc] are exactly zero; exponents
    above ``trunc`` are unknown and querying them raises TruncationError.
    Construction canonicalises by stripping zero coefficients at both ends.
    """

    low: int
    coeffs: tuple[Fraction, ...]
    trunc: int

    def __post_init__(self) -> None:
        cs = tuple(as_fraction(c) for c in self.coeffs)
        low = self.low
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        while cs and cs[0] == 0:
            cs = cs[1:]
            low += 1
        if not cs:
            low = self.trunc + 1
        if low + len(cs) - 1 > self.trunc:
            raise ValueError("series stores coefficients above its truncation")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "low", low)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> LaurentSeries:
        return cls(trunc + 1, (), trunc)

    # -- access -------------------------------------------------------

    @property
    def high(self) -> int:
        """Largest exponent with a stored coefficient (low - 1 if none)."""
        return self.low + len(self.coeffs) - 1

    def coefficient(self, e: int) -> Fraction:
        if e > self.trunc:
            raise TruncationError(
                f"coefficient at z^{e} requested, certified only up to z^{self.trunc}"
            )
        if self.low <= e <= self.high:
            return self.coeffs[e - self.low]
        return Fraction(0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        for i, c in enumerate(self.coeffs):
            yield self.low + i, c

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        trunc = min(self.trunc, other.trunc)
        low = min(self.low, other.low)
        if low > trunc:
            return LaurentSeries.zero(trunc)
        out = [Fraction(0)] * (trunc - low + 1)
        for part in (self, other):
            for e, c in part.items():
                if e <= trunc:
                    out[e - low] += c
        return LaurentSeries(low, tuple(out), trunc)

    def __neg__(self) -> LaurentSeries:
        return LaurentSeries(self.low, tuple(-c for c in self.coeffs), self.trunc)

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def __mul__(self, other: LaurentSeries) -> LaurentSeries:
        # Every returned coefficient must be a complete convolution, which
        # caps the result truncation by both operands' certified windows.
        trunc = min(self.trunc + other.low, other.trunc + self.low)
        low = self.low + other.low
        if low > trunc or self.is_zero or other.is_zero:
            return LaurentSeries.zero(trunc)
        out = [Fraction(0)] * (trunc - low + 1)
        for ea, ca in self.items():
            if ca == 0:
                continue
            for eb, cb in other.items():
                e = ea + eb
                if e > trunc:
                    break
                out[e - low] += ca * cb
        return LaurentSeries(low, tuple(out), trunc)

    def scale(self, c: Scalar) -> LaurentSeries:
        c = as_fraction(c)
        return LaurentSeries(self.low, tuple(c * x for x in self.coeffs), self.trunc)

    def shift(self, t: int) -> LaurentSeries:
        """Multiply by z**t."""
        return LaurentSeries(self.low + t, self.coeffs, self.trunc + t)

    def substitute_neg_z(self) -> LaurentSeries:
        """The series of f(-z): coefficient at z^e picks up (-1)^e."""
        return LaurentSeries(
            self.low,
            tuple(c if (self.low + i) % 2 == 0 else -c for i, c in enumerate(self.coeffs)),
            self.trunc,
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return f"0 + O(z^{self.trunc + 1})"
        parts = []
        for e, c in self.items():
            if c == 0:
                continue
            var = "" if e == 0 else ("z" if e == 1 else f"z^{e}")
            mag = abs(c)
            body = f"{mag}" if not var else (var if mag == 1 else f"{mag}*{var}")
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        text = text[2:] if text.startswith("+ ") else "-" + text[2:]
        return f"{text} + O(z^{self.trunc + 1})"


def one_minus_z_power(exponent: int, trunc: int) -> LaurentSeries:
    """(1 - z)**exponent as a series with binomial coefficients."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    top = min(exponent, trunc)
    coeffs = tuple(Fraction((-1) ** i * comb(exponent, i)) for i in range(top + 1))
    return LaurentSeries(0, coeffs, trunc)


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of two exact polynomials, stored as given (no gcd reduction)."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self) -> None:
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")

    @property
    def degree_offset(self) -> int | float:
        """deg(num) - deg(den); the leading exponent of the expansion at
        infinity (-inf for the zero function)."""
        if self.num.is_zero:
            return NEG_INF
        return self.num.degree - self.den.degree

    def __call__(self, x: Scalar) -> Scalar:
        return exact_div(self.num(x), self.den(x))

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


def expansion_at_infinity(
    f: RationalFunction, depth: int
) -> tuple[int | float, list[Scalar]]:
    """Leading exponent and first ``depth`` coefficients of f at infinity.

    f(z) = C_top z^top + C_{top-1} z^{top-1} + ... with top = deg num - deg den,
    computed by exact power-series division of the reversed-coefficient
    polynomials (substituting w = 1/z).  The coefficient of z^{-1} sits at
    list index top + 1 whenever depth > top + 1.  Each step divides by the
    leading coefficient of the denominator, so a monic integer denominator
    over an integer numerator keeps every coefficient an int.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if f.num.is_zero:
        return NEG_INF, [0] * depth
    revn = f.num.coeffs[::-1]
    revd = f.den.coeffs[::-1]
    out: list[Scalar] = []
    for t in range(depth):
        acc = revn[t] if t < len(revn) else 0
        for u in range(max(0, t - len(revd) + 1), t):
            acc -= out[u] * revd[t - u]
        out.append(exact_div(acc, revd[0]))
    return f.num.degree - f.den.degree, out
