"""Instance bookkeeping for the reduction identities.

Holds the Pochhammer symbol with integer shifts of either sign, its
vectorised product form, formal hypergeometric series generation, and the
validation step that turns a raw parameter/shift tuple into the derived
quantities (M, N, m_min, n_max, p) driving everything downstream.

Parameters are exact rationals throughout.  The upper parameters ``a`` must
be pairwise distinct modulo integers; this single hypothesis guarantees all
kernel poles are simple and every lower series parameter stays off the
non-positive integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .algebra import LaurentSeries, Scalar, as_fraction
from .errors import (
    BadLowerParameter,
    DimensionMismatch,
    NotDistinctModZ,
    PochhammerPole,
    PrefactorPole,
)


def pochhammer(x: Scalar, k: int) -> Fraction:
    """Rising factorial (x)_k for any integer k.

    k >= 0: x (x+1) ... (x+k-1), empty product = 1.
    k <  0: 1 / ((x+k)(x+k+1) ... (x-1)); raises PochhammerPole when a
    factor vanishes.
    """
    x = as_fraction(x)
    if k >= 0:
        acc = Fraction(1)
        for t in range(k):
            acc *= x + t
        return acc
    acc = Fraction(1)
    for t in range(k, 0):
        factor = x + t
        if factor == 0:
            raise PochhammerPole(f"({x})_{k} has zero factor {x} + {t}")
        acc *= factor
    return 1 / acc


def pochhammer_vec(xs: Sequence[Scalar], ks: Sequence[int]) -> Fraction:
    """Componentwise product of Pochhammer symbols; empty vectors give 1."""
    if len(xs) != len(ks):
        raise ValueError("pochhammer_vec arguments must have equal length")
    acc = Fraction(1)
    for x, k in zip(xs, ks):
        acc *= pochhammer(x, k)
    return acc


def hyper_series(
    upper: Sequence[Scalar], lower: Sequence[Scalar], trunc: int
) -> LaurentSeries:
    """Formal hypergeometric series with coefficients
    prod(upper)_k / (prod(lower)_k * k!) at z^k, truncated at ``trunc``.

    With D the lcm of the parameters' denominators, the term ratio
    c_{t+1} / c_t = prod(u + t) / (prod(w + t) (t + 1)) is P(t) / Q(t) for
    the integers P(t) = prod(D u + D t) D^max(0, #lower - #upper) and
    Q(t) = prod(D w + D t) (t + 1) D^max(0, #upper - #lower).  So c_k is the
    integer prod_{t<k} P(t) prod_{k<=t<trunc} Q(t) over the common
    denominator prod_{t<trunc} Q(t): one suffix pass over Q and one running
    prefix over P, with no Fraction per term.
    """
    ups = [as_fraction(u) for u in upper]
    los = [as_fraction(w) for w in lower]
    for w in los:
        if w.denominator == 1 and w <= 0:
            raise BadLowerParameter(f"lower parameter {w} is a non-positive integer")
    if trunc < 0:
        raise ValueError("truncation must be non-negative")
    scale = lcm(*[x.denominator for x in ups + los])
    ups = [x.numerator * (scale // x.denominator) for x in ups]
    los = [x.numerator * (scale // x.denominator) for x in los]
    lift_p = scale ** max(0, len(los) - len(ups))
    lift_q = scale ** max(0, len(ups) - len(los))
    nums = [0] * (trunc + 1)
    suffix = 1
    for k in range(trunc, 0, -1):
        nums[k] = suffix
        t = scale * (k - 1)
        q = k * lift_q
        for w in los:
            q *= w + t
        suffix *= q
    nums[0] = suffix
    prefix = 1
    for k in range(1, trunc + 1):
        t = scale * (k - 1)
        prefix *= lift_p
        for u in ups:
            prefix *= u + t
        nums[k] *= prefix
    return LaurentSeries(0, tuple(nums), trunc, suffix)


class Theorem(enum.Enum):
    """Which of the two reduction regimes an instance falls under."""

    ONE = "One"   # balanced: s = r
    TWO = "Two"   # confluent: s < r

    def __str__(self) -> str:
        return self.value


def _shifts(name: str, values: Sequence) -> tuple[int, ...]:
    """The shift vector as a tuple, rejecting anything but plain ints."""
    values = tuple(values)
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"shift vector {name} must hold integers, got {x!r}")
    return values


@dataclass(frozen=True)
class IdentityInstance:
    """Parameter vectors a (length r), b (length s) and integer shift
    vectors n (length r), m (length s) of one identity instance."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(as_fraction(x) for x in self.a))
        object.__setattr__(self, "b", tuple(as_fraction(x) for x in self.b))
        object.__setattr__(self, "m", _shifts("m", self.m))
        object.__setattr__(self, "n", _shifts("n", self.n))

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
        for i in range(r):
            for j in range(i + 1, r):
                if (self.a[i] - self.a[j]).denominator == 1:
                    raise NotDistinctModZ(
                        f"a[{i}]={self.a[i]} and a[{j}]={self.a[j]} differ by an integer"
                    )
        for i in range(r):
            for l in range(s):
                try:
                    pochhammer(1 - self.b[l] + self.a[i], self.m[l] - self.n[i])
                except PochhammerPole as exc:
                    raise PrefactorPole(
                        f"prefactor (1-b[{l}]+a[{i}])_(m[{l}]-n[{i}]) is undefined: {exc}"
                    ) from exc
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
            r=r, s=s, M=M, N=N, m_min=m_min, n_max=n_max, p=p, theorem=theorem
        )

    @property
    def r(self) -> int:
        return len(self.a)

    @property
    def s(self) -> int:
        return len(self.b)

    @classmethod
    def from_dict(cls, data: Mapping) -> IdentityInstance:
        """Parse the JSON object form: rationals as strings "p/q" or "p"."""
        try:
            a = tuple(Fraction(str(x)) for x in data["a"])
            b = tuple(Fraction(str(x)) for x in data.get("b", ()))
            m = tuple(data.get("m", ()))
            n = tuple(data["n"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"malformed instance object: {exc}") from exc
        return cls(a=a, b=b, m=m, n=n)

    def to_dict(self) -> dict:
        return {
            "a": [str(x) for x in self.a],
            "b": [str(x) for x in self.b],
            "m": list(self.m),
            "n": list(self.n),
        }


@dataclass(frozen=True)
class DerivedQuantities:
    """Shift totals and the support parameter p of a validated instance.

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
