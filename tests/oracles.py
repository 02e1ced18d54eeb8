"""Independent reference implementations used as test oracles.

Deliberately naive and self-contained: nothing here imports from the
package under test, so a library bug cannot leak into an expected value.
Series coefficients are computed by direct per-index products (not the
library's incremental recurrence) and products by plain dict convolution.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator


def poch(x, k: int) -> Fraction:
    x = Fraction(x)
    if k >= 0:
        out = Fraction(1)
        for t in range(k):
            out *= x + t
        return out
    out = Fraction(1)
    for t in range(k, 0):
        out *= x + t
    return 1 / out


def series_coefficient(upper, lower, k: int) -> Fraction:
    num = Fraction(1)
    for u in upper:
        num *= poch(u, k)
    den = Fraction(factorial(k))
    for w in lower:
        den *= poch(w, k)
    return num / den


def convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
    return out


def lhs_coefficients(a, b, m, n, hi: int) -> dict:
    """z-coefficients of the identity's left-hand side on [-max(n), hi],
    assembled term by term with explicit double loops.

    For s < r the second series carries argument sign (-1)^(r-s) and term i
    the multiplier (-1)^((r-s) n_i); with s = r both are 1.
    """
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    r, s = len(a), len(b)
    diff = r - s
    out: dict = {}
    for i in range(r):
        a_i, n_i = a[i], n[i]
        span = hi + n_i
        if span < 0:
            continue
        others = [l for l in range(r) if l != i]
        c1 = [
            series_coefficient(
                [b_l - a_i for b_l in b], [1 + a[l] - a_i for l in others], k
            )
            for k in range(span + 1)
        ]
        c2 = [
            series_coefficient(
                [1 - b[l] + a_i + m[l] - n_i for l in range(s)],
                [1 - a[l] + a_i + n[l] - n_i for l in others],
                k,
            )
            * Fraction(-1) ** (diff * k)
            for k in range(span + 1)
        ]
        pref = Fraction(-1) ** (diff * n_i)
        for l in range(s):
            pref *= poch(1 - b[l] + a_i, m[l] - n_i)
        for l in others:
            pref /= poch(a_i - a[l], n[l] - n_i + 1)
        for k in range(span + 1):
            total = sum(c1[j] * c2[k - j] for j in range(k + 1))
            e = k - n_i
            out[e] = out.get(e, Fraction(0)) + pref * total
    return out


def partial_fraction_zero_sum(a) -> Fraction:
    """sum_i 1 / prod_{j != i} (a_i - a_j); identically zero for len >= 2."""
    a = [Fraction(x) for x in a]
    total = Fraction(0)
    for i, a_i in enumerate(a):
        prod = Fraction(1)
        for j, a_j in enumerate(a):
            if j != i:
                prod *= a_i - a_j
        total += 1 / prod
    return total


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest
