"""Instance bookkeeping for the reduction identities.

Holds a quotient of rising factorials with integer shifts of either sign
as one signed Pochhammer product over its ups and its reflected downs
(``rising_quotient``), formal hypergeometric series (``hyper_series``), and
the validation step that turns a raw parameter/shift tuple into the derived
quantities (M, N, m_min, n_max, p, D) driving everything downstream.  D is
the lcm of the denominators of a and b, and every series or Pochhammer
argument the routes need is an integer over D: these functions take it as
that integer.

Parameters are exact rationals throughout: an instance takes only ints and
Fractions, and text only in the form "p/q" or "p" (``parse_rational``), so
nothing is coerced silently.  The upper parameters ``a`` must be pairwise
distinct modulo integers; this single hypothesis guarantees all kernel poles
are simple and every lower series parameter stays off the non-positive
integers, which is why ``hyper_series`` checks none of them.
"""

from __future__ import annotations

__all__ = ["DerivedQuantities", "IdentityInstance", "Theorem", "validate"]

import enum
import re
from functools import cached_property
from fractions import Fraction
from math import gcd, prod
from typing import Mapping, Sequence

from .algebra import LaurentSeries, clear_denominators, record
from .errors import DimensionMismatch, NotDistinctModZ, PrefactorPole

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # "p/q" or "p", the sign on p only


def parse_rational(text: str) -> Fraction:
    """The rational written "p/q" or "p" (the sign on p only, nothing
    around it); ValueError for any other text, ZeroDivisionError for q = 0."""
    if not (isinstance(text, str) and _RATIONAL.fullmatch(text)):
        raise ValueError(f"rational must be an int or a string p/q, got {text!r}")
    return Fraction(text)


def rising_quotient(
    scale: int, ups: Sequence[tuple[int, int]], downs: Sequence[tuple[int, int]]
) -> Fraction:
    """prod (x/scale)_q over the (x, q) in ``ups`` divided by the same
    product over ``downs``, as one Fraction.  As (x)_q (x + q)_{-q} = 1, each
    down (y, Q) is the up (y + Q scale, -Q), and (x/scale)_q is the integer
    prod(x .. x + (q - 1) scale) over scale^q, for q < 0 scale^-q over
    prod(x + q scale .. x - scale).  A zero factor (a pole of an up, a zero
    of a down) raises ZeroDivisionError; validation rejects every instance
    on which the callers would meet one."""
    top = bottom = 1
    exponent = 0  # the power of scale in the denominator
    for x, q in [*ups, *[(y + q * scale, -q) for y, q in downs]]:
        if q >= 0:
            top *= prod(range(x, x + q * scale, scale))
        else:
            bottom *= prod(range(x + q * scale, x, scale))
        exponent += q
    return Fraction(top * scale ** max(0, -exponent), bottom * scale ** max(0, exponent))


def hyper_series(
    scale: int, upper: Sequence[int], lower: Sequence[int], trunc: int, sign: int = 1
) -> LaurentSeries:
    """Formal hypergeometric series in σz, with coefficients
    σ^k prod_u (u)_k / (prod_w (w)_k * k!) at z^k through z^trunc, for the
    parameters u = U / D over the integers U in ``upper`` and w = W / D over
    the W in ``lower``, D = ``scale`` and the argument sign σ = ``sign``.

    The term ratio c_{t+1} / c_t = σ prod(u + t) / (prod(w + t) (t + 1)) is
    P(t) / Q(t) for the integers P(t) = σ prod(U + D t) D^max(0, #lower - #upper)
    and Q(t) = prod(W + D t) (t + 1) D^max(0, #upper - #lower).  With p(t) and
    q(t) those over their own gcd (|Q(t)| where P(t) = 0), c_k is the integer
    prod_{t<k} p(t) prod_{k<=t<trunc} q(t) over prod_{t<trunc} q(t): one
    suffix pass over q that keeps each p(t), one running prefix over those,
    and no Fraction per term.  Its one caller, ``identity.lhs_series``,
    reads only ``nums`` and ``den`` of the series.

    ``LaurentSeries`` makes those canonical: a zero p(t) zeroes every later
    entry, which its trailing strip removes, so a terminating series is a
    short operand of ``convolve``; it makes den positive and divides out the
    content.  A lower parameter -j with 0 <= j < trunc leaves nums[0] == 0,
    or a gcd of 0 where a p(t) is 0 as well: ZeroDivisionError either way.
    """
    lift_p = sign * scale ** max(0, len(lower) - len(upper))
    lift_q = scale ** max(0, len(upper) - len(lower))
    nums = [0] * trunc + [1]  # first the suffix products, nums[0] the denominator
    steps = [1] * (trunc + 1)  # p(k - 1) at index k
    for k in range(trunc, 0, -1):
        t = scale * (k - 1)
        p, q = lift_p, k * lift_q
        for u in upper:
            p *= u + t
        for w in lower:
            q *= w + t
        g = gcd(p, q)
        steps[k] = p // g
        nums[k - 1] = nums[k] * (q // g)
    prefix = 1
    for k in range(1, trunc + 1):
        prefix *= steps[k]
        nums[k] *= prefix
    return LaurentSeries(0, nums, trunc, nums[0])


class Theorem(enum.Enum):
    """Which of the two reduction regimes an instance falls under."""

    ONE = "One"   # balanced: s = r
    TWO = "Two"   # confluent: s < r


def _entries(name: str, values: Sequence, kinds: tuple[type, ...]) -> tuple:
    """The vector as a tuple, rejecting any entry that is not one of
    ``kinds`` and every bool (an int to ``isinstance``)."""
    values = tuple(values)
    for x in values:
        if not isinstance(x, kinds) or isinstance(x, bool):
            kind = " or ".join(k.__name__ for k in kinds)
            raise ValueError(f"vector {name} must hold {kind} entries, got {x!r}")
    return values


@record
class IdentityInstance:
    """Parameter vectors a (length r), b (length s) and integer shift
    vectors n (length r), m (length s) of one identity instance."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in "ab":
            values = _entries(name, getattr(self, name), (int, Fraction))
            # only the ints are wrapped: rebuilding every Fraction as well made
            # drawing a random corpus about a tenth slower (3.11)
            object.__setattr__(self, name, tuple([Fraction(x) if isinstance(x, int) else x for x in values]))
        object.__setattr__(self, "m", _entries("m", self.m, (int,)))
        object.__setattr__(self, "n", _entries("n", self.n, (int,)))

    @cached_property
    def derived(self) -> DerivedQuantities:
        """Check all structural invariants and compute the derived quantities.

        Runs once, on first use; a failed check raises on every use and is
        never cached.  Raises DimensionMismatch, NotDistinctModZ, or
        PrefactorPole.  A prefactor Pochhammer that evaluates to zero is fine
        (the term drops out); only an undefined negative-shift value aborts.
        """
        r, s = self.r, self.s
        if r < 2:
            raise DimensionMismatch(f"need at least two upper parameters, got r={r}")
        if len(self.n) != r:
            raise DimensionMismatch(f"len(n)={len(self.n)} != r={r}")
        if len(self.m) != s:
            raise DimensionMismatch(f"len(m)={len(self.m)} != s={s}")
        if s > r:
            raise DimensionMismatch(f"s={s} exceeds r={r}")
        scale, ints = clear_denominators(self.a + self.b)
        a, b = ints[:r], ints[r:]
        for i in range(r):
            for j in range(i + 1, r):
                if (a[i] - a[j]) % scale == 0:
                    raise NotDistinctModZ(
                        f"a[{i}]={self.a[i]} and a[{j}]={self.a[j]} differ by an integer"
                    )
        for i in range(r):
            for l in range(s):
                x, q = scale - b[l] + a[i], self.m[l] - self.n[i]
                # (x/scale)_q for q < 0 is 1 / prod (x/scale - t), t = 1 .. -q
                if q < 0 and x % scale == 0 and 1 <= x // scale <= -q:
                    value = Fraction(x, scale)
                    raise PrefactorPole(
                        f"prefactor (1-b[{l}]+a[{i}])_(m[{l}]-n[{i}]) is undefined: "
                        f"({value})_{q} has zero factor {value} + {-value}"
                    )
        M = sum(self.m)
        N = sum(self.n)
        m_min = min(self.m) if self.m else 0
        n_max = max(self.n)
        if s == r:
            theorem = Theorem.ONE
            p = max(-1, M - N - r + 1)
        else:
            theorem = Theorem.TWO
            p = (M - N - r + 1) // (r - s)
        return DerivedQuantities(
            r=r, s=s, M=M, N=N, m_min=m_min, n_max=n_max, p=p, theorem=theorem,
            scale=scale, a_int=tuple(a), b_int=tuple(b),
        )

    @property
    def r(self) -> int:
        return len(self.a)

    @property
    def s(self) -> int:
        return len(self.b)

    @classmethod
    def from_dict(cls, data: Mapping) -> IdentityInstance:
        """Parse the JSON object, keys a, b, m and n only: rationals as ints or "p/q", "p"."""
        if not isinstance(data, Mapping):
            raise ValueError(f"instance JSON must be an object, got {type(data).__name__}")
        try:
            a, b, m, n = data["a"], data.get("b", []), data.get("m", []), data["n"]
            if unknown := sorted(set(data) - {"a", "b", "m", "n"}):
                raise ValueError(f"unknown keys {unknown}")
            if not all(isinstance(v, list) for v in (a, b, m, n)):
                raise ValueError("a, b, m and n must be arrays")
            a, b = ([x if type(x) is int else parse_rational(x) for x in v] for v in (a, b))
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"malformed instance object: {exc}") from exc
        return cls(a=tuple(a), b=tuple(b), m=tuple(m), n=tuple(n))

    def to_dict(self) -> dict:
        return {
            "a": [str(x) for x in self.a],
            "b": [str(x) for x in self.b],
            "m": list(self.m),
            "n": list(self.n),
        }


@record
class DerivedQuantities:
    """Shift totals and the support parameter p of a validated instance, and
    its parameters as the integers D a_i, D b_l over D (``scale``), the lcm
    of their denominators; ``to_dict`` leaves those three out.

    For the confluent family with s = 0 the empty shift vector m gets the
    conventions M = 0 and m_min = 0, which keep the kernel threshold
    k >= -m_min and the support bound max(-m_min - 1, p) well defined.
    """

    r: int
    s: int
    M: int
    N: int
    m_min: int
    n_max: int
    p: int
    theorem: Theorem
    scale: int
    a_int: tuple[int, ...]
    b_int: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "M": self.M,
            "N": self.N,
            "m_min": self.m_min,
            "n_max": self.n_max,
            "p": self.p,
            "theorem": self.theorem.value,
        }


def validate(inst: IdentityInstance) -> DerivedQuantities:
    """The instance's derived quantities, checked and computed once per
    instance; see ``IdentityInstance.derived`` for the errors raised."""
    return inst.derived
