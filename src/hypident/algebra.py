"""Exact algebraic tower: dense polynomials, truncated Laurent series, and
rational functions over arbitrary-precision rationals.

A Laurent series keeps integer numerators over one common positive
denominator, read back as exact `fractions.Fraction`s; its one operation is
the balanced reduction's factor (1 - z)^power, taken as running differences
of the numerators.  Products of integer series are ``convolve``.  A
polynomial is the exact z-form of an integer computation, interpolated or a
residue kernel unscaled from w = D z, and is then only read and printed.  A degree
is an int, -1 for the zero polynomial, as an empty series has
``high = low - 1``.  A value leaves the integers as one
``Fraction(top, bottom)``, an integral one included, as each of
``Polynomial.interpolate``'s coefficients does; no floating point enters
this module.  The truncation order of a Laurent
series is a hard certificate boundary: coefficients at exponents <= trunc
are exactly known, anything above is unknown and reading it raises
instead of silently returning 0.
All values are immutable after construction, so they can be shared freely
between threads and concurrently running verification jobs.  The package's
records use ``record``, not the standard library's data classes: importing
those (with ``inspect``) and building each class through ``exec`` cost every
CLI process about 16 ms (3.11, Xeon).

Tuples on the verification path are built from lists, never from
generators (also ``f(*args)``): CPython builds a tuple from a generator by
resizing, outside its free list of small tuples, yet returns it to that
list when it dies, so every call would leave a few more free tuples
behind, up to 2000 of each size below 20 (about 4.5 MB of resident
memory over a long run).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Sequence, TypeVar, Union

from .errors import TruncationError

Scalar = Union[int, Fraction]
RecordType = TypeVar("RecordType", bound=type)


def clear_denominators(values: Sequence[Scalar]) -> tuple[int, list[int]]:
    """D, the lcm of the denominators of ``values``, with the integers
    D * x for each x in ``values`` (an int is its own numerator over 1)."""
    scale = lcm(*[x.denominator for x in values])
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def convolve(a: Sequence[int], b: Sequence[int], width: int) -> list[int]:
    """The first ``width`` coefficients of the product of the integer series
    a and b, both from the same power: entry e is sum_i a[i] b[e - i], one
    ``map`` over a and a slice of b padded with zeros to ``width`` and
    reversed once.  A short b costs zero products, so pass the shorter as a."""
    a = a[:width]
    rev = [*b[:width], *[0] * (width - len(b))][::-1]
    return [sum(map(mul, a, rev[width - 1 - e :])) for e in range(width)]


def record(cls: RecordType) -> RecordType:
    """``cls`` as an immutable value whose fields are its annotated names, in
    order, with class attributes as defaults: ``__init__`` by position or
    keyword, then ``__post_init__`` if defined; a field-wise repr; ``==`` and
    hash on the fields within one class; AttributeError on any set or delete."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)
    fields = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        # not through __dict__, which would slow every later read of a field
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args) :]:
            if name not in kwargs and name not in defaults:
                raise TypeError(f"{cls.__name__} needs the field {name}")
            object.__setattr__(self, name, kwargs.pop(name) if name in kwargs else defaults[name])
        if kwargs or len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}, each once")
        post_init(self)

    def __eq__(self, other):
        return fields(self) == fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in names])})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{cls.__name__} is immutable: cannot set or delete {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(fields(self))
    cls.__setattr__ = cls.__delattr__ = __setattr__
    return cls


def _format_terms(terms: Iterable[tuple[int, Scalar]]) -> str:
    """``c*z^e`` for the (exponent, coefficient) pairs, in the order given,
    zero coefficients skipped; "0" when no term is left."""
    parts = []
    for e, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        var = "" if e == 0 else ("z" if e == 1 else f"z^{e}")
        body = f"{mag}" if not var else (var if mag == 1 else f"{mag}*{var}")
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


@record
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
    def interpolate(cls, start: int, values: Sequence[Scalar]) -> Polynomial:
        """The polynomial of degree < len(values) through the points
        (start + i, values[i]), by Newton's forward differences:
        f(start + t) = sum_j Delta^j f(start) C(t, j), expanded by Horner on
        the integers den * values, each coefficient one Fraction over den n!."""
        den, row = clear_denominators(values)
        diffs = []
        while row:
            diffs.append(row[0])
            row = [y - x for x, y in zip(row, row[1:])]
        out: list[int] = []
        weight = 1
        for j in range(len(diffs) - 1, -1, -1):
            # out <- out * (z - start - j) + (n! / j!) Delta^j, ending at n! den f
            weight *= j + 1
            out = [lo - (start + j) * hi for lo, hi in zip([0, *out], [*out, 0])]
            out[0] += weight * diffs[j]
        return cls(tuple([Fraction(c, den * weight) for c in out]))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return _format_terms([*enumerate(self.coeffs)][::-1])


@record
class LaurentSeries:
    """Truncated formal Laurent series with exact rational coefficients,
    kept as integer numerators over one common denominator.

    The coefficient of z**(low + i) is ``nums[i] / den``, read as a
    Fraction through ``coefficient``.  Coefficients at
    exponents in (low + len(nums) - 1, trunc] are exactly zero; exponents
    above ``trunc`` are unknown and querying them raises TruncationError.
    ``nums`` and ``den`` are ints (``clear_denominators`` turns rationals
    into that form); a nonzero Fraction numerator raises TypeError.
    Construction canonicalises: ``den`` is made positive, zero numerators
    are stripped at both ends and the content gcd(den, *nums) is divided
    out, so two equal series compare equal however they were built.  The
    one arithmetic is ``times_one_minus_z``, the balanced reduction; S(z)'s
    products are ``convolve``d on the numerators before a series is built.
    """

    low: int
    nums: tuple[int, ...]
    trunc: int
    den: int = 1

    def __post_init__(self) -> None:
        nums, den = self.nums, self.den
        if den == 0:
            raise ZeroDivisionError("series with zero denominator")
        if den < 0:
            nums, den = [-c for c in nums], -den
        lo, hi = 0, len(nums)
        while hi > lo and nums[hi - 1] == 0:
            hi -= 1
        while lo < hi and nums[lo] == 0:
            lo += 1
        nums = nums[lo:hi]
        low = self.low + lo if nums else self.trunc + 1
        if low + len(nums) - 1 > self.trunc:
            raise ValueError("series stores coefficients above its truncation")
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "low", low)

    # -- access -------------------------------------------------------

    @property
    def high(self) -> int:
        """Largest exponent with a stored coefficient (low - 1 if none)."""
        return self.low + len(self.nums) - 1

    def coefficient(self, e: int) -> Fraction:
        if e > self.trunc:
            raise TruncationError(
                f"coefficient at z^{e} requested, certified only up to z^{self.trunc}"
            )
        if self.low <= e <= self.high:
            return Fraction(self.nums[e - self.low], self.den)
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def times_one_minus_z(self, power: int) -> LaurentSeries:
        """(1 - z)**power times the series, through the same ``trunc``: the
        numerators, padded with zeros up to ``trunc``, take ``power`` passes
        of running differences over the same ``den``."""
        if power < 0:
            raise ValueError("power must be non-negative")
        nums = [*self.nums, *[0] * (self.trunc - self.high)]
        for _ in range(power):
            for j in range(len(nums) - 1, 0, -1):
                nums[j] -= nums[j - 1]
        return LaurentSeries(self.low, nums, self.trunc, self.den)

    def __str__(self) -> str:
        terms = [(e, Fraction(c, self.den)) for e, c in enumerate(self.nums, self.low)]
        return f"{_format_terms(terms)} + O(z^{self.trunc + 1})"


@record
class RationalFunction:
    """Ratio of two exact polynomials, stored as given (no gcd reduction)."""

    num: Polynomial
    den: Polynomial

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

