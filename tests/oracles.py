"""Independent reference implementations used as test oracles.

Deliberately naive and self-contained: nothing here imports from the
package under test, so a library bug cannot leak into an expected value.
Series coefficients are computed by direct per-index products (not the
library's incremental recurrence) and products by plain dict convolution.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
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


def lhs_value(a, b, m, n, z, dps: int = 40):
    """S(z) summed analytically by mpmath at ``dps`` digits, as an mpf:

        sum_i (-1)^((r-s) n_i) z^(-n_i) prod_l (1 - b_l + a_i)_{m_l - n_i}
              / prod_{l != i} (a_i - a_l)_{n_l - n_i + 1}
              * F(b - a_i; 1 + a_l - a_i; z)
              * F(1 - b + a_i + m - n_i; 1 - a_l + a_i + n_l - n_i; (-1)^(r-s) z),

    with each F an ``mpmath.hyper`` and each Pochhammer an ``mpmath.rf``.
    It shares no code with the exact series: mpmath sums each F to its own
    convergence, and nothing here truncates.  mpmath is imported here, so
    the other oracles run without it."""
    import mpmath

    def num(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator

    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    r, s = len(a), len(b)
    with mpmath.workdps(dps):
        z = num(z)
        total = mpmath.mpf(0)
        for i in range(r):
            a_i, n_i = a[i], n[i]
            others = [l for l in range(r) if l != i]
            term = (-1) ** ((r - s) * n_i) * z ** (-n_i)
            for l in range(s):
                term *= mpmath.rf(num(1 - b[l] + a_i), m[l] - n_i)
            for l in others:
                term /= mpmath.rf(num(a_i - a[l]), n[l] - n_i + 1)
            term *= mpmath.hyper(
                [num(b_l - a_i) for b_l in b], [num(1 + a[l] - a_i) for l in others], z
            )
            term *= mpmath.hyper(
                [num(1 - b[l] + a_i + m[l] - n_i) for l in range(s)],
                [num(1 - a[l] + a_i + n[l] - n_i) for l in others],
                (-1) ** (r - s) * z,
            )
            total += term
        return total


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


def kernel_roots(a, b, m, n, k: int) -> tuple[list, list]:
    """(numerator roots, denominator roots) in z of the kernel

        prod_l (z - b_l - k + 1)_{m_l + k} / prod_l (z - a_l - k)_{n_l + k + 1},

    read off factor by factor.  A rising factorial (x)_q of negative shift
    is 1 / ((x + q) ... (x - 1)), so its roots change sides; this also
    covers the k < -m_min of the low-order range, where the numerator
    factors turn into denominators.
    """
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    num: list = []
    den: list = []
    # (z - c)_q has the roots z = c - t for t = 0..q-1, and for q < 0
    # the reciprocal roots z = c - t for t = q..-1
    factors = [(b_l + k - 1, m_l + k, num, den) for b_l, m_l in zip(b, m)]
    factors += [(a_l + k, n_l + k + 1, den, num) for a_l, n_l in zip(a, n)]
    for c, q, upper, lower in factors:
        if q >= 0:
            upper.extend(c - t for t in range(q))
        else:
            lower.extend(c - t for t in range(q, 0))
    return num, den


def root_product(roots) -> tuple:
    """Coefficients of prod (z - root), constant term first, one factor at a
    time: entry e of the product is entry e - 1 less root times entry e.
    Plain arithmetic on the roots as given, so int roots give ints."""
    out = [1]
    for root in roots:
        out = [lo - root * hi for lo, hi in zip([0, *out], [*out, 0])]
    return tuple(out)


def poly_value(coeffs, x):
    """The polynomial with these coefficients, constant term first, at x, by
    Horner's rule on the values as given."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_derivative(coeffs) -> tuple:
    """The derivative's coefficients, constant term first: entry e - 1 is
    e times entry e."""
    return tuple([e * c for e, c in enumerate(coeffs)][1:])


def kernel_pole_residue(a, b, m, n, k: int, z0) -> Fraction:
    """Residue of the kernel at the simple pole z0, by the product formula
    prod (z0 - numerator root) / prod (z0 - other denominator roots)."""
    num, den = kernel_roots(a, b, m, n, k)
    z0 = Fraction(z0)
    if den.count(z0) != 1:
        raise ValueError(f"{z0} is not a simple denominator root")
    out = Fraction(1)
    for root in num:
        out *= z0 - root
    for root in den:
        if root != z0:
            out /= z0 - root
    return out


def expansion_at_infinity(num, den, depth: int) -> list[Fraction]:
    """The first ``depth`` coefficients of num(z) / den(z) at infinity, from
    z^(deg num - deg den) down, by long division continued into negative
    powers of z: each step divides the remainder's top term by den's leading
    coefficient and subtracts that multiple of den.  ``num`` and ``den``
    list coefficients from z^0 up, den's last one nonzero."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    rest = {e: Fraction(c) for e, c in enumerate(num)}
    top = len(num) - len(den)
    out = []
    for e in range(top, top - depth, -1):
        c = rest.pop(e + len(den) - 1, Fraction(0)) / den[-1]
        for i, d in enumerate(den[:-1]):
            rest[e + i] = rest.get(e + i, 0) - c * d
        out.append(c)
    return out


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n with B_1 = -1/2, by the Akiyama-Tanigawa algorithm (which
    yields B_1 = +1/2; its sign is flipped at the end)."""
    out = []
    row: list[Fraction] = []
    for t in range(n + 1):
        row.append(Fraction(1, t + 1))
        for j in range(t, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def bernoulli_value(n: int, x, numbers: list[Fraction]) -> Fraction:
    """B_n(x) = sum_l C(n, l) B_{n-l} x^l, term by term."""
    x = Fraction(x)
    return sum(
        (comb(n, l) * numbers[n - l] * x**l for l in range(n + 1)), Fraction(0)
    )


def law_g(a, b, m, n, j: int, k: int, numbers: list[Fraction]) -> Fraction:
    """G_j(k) = (-1)^(j+1) Q_j(k) / (j (j+1)), the order-j coefficient of
    the kernel's log expansion at infinity, with Q_j(k) the sum over i of

        B_{j+1}(-a_i - k) - B_{j+1}(1 - b_i - k)
        + B_{j+1}(1 - b_i + m_i) - B_{j+1}(1 - a_i + n_i).

    ``numbers`` must hold B_0 .. B_{j+1}."""
    q = Fraction(0)
    for a_i, b_i, m_i, n_i in zip(a, b, m, n):
        a_i, b_i = Fraction(a_i), Fraction(b_i)
        q += bernoulli_value(j + 1, -a_i - k, numbers)
        q -= bernoulli_value(j + 1, 1 - b_i - k, numbers)
        q += bernoulli_value(j + 1, 1 - b_i + m_i, numbers)
        q -= bernoulli_value(j + 1, 1 - a_i + n_i, numbers)
    return Fraction((-1) ** (j + 1), j * (j + 1)) * q


def law_q(a, b, m, n, p: int, k: int) -> Fraction:
    """q_p(k), the degree-p law for the residue at infinity of a balanced
    kernel, by the scalar exp recurrence s q_s = sum_u u G_u q_{s-u}."""
    numbers = bernoulli_numbers(p + 1)
    g = [None] + [law_g(a, b, m, n, j, k, numbers) for j in range(1, p + 1)]
    q = [Fraction(1)]
    for s in range(1, p + 1):
        q.append(sum((u * g[u] * q[s - u] for u in range(1, s + 1)), Fraction(0)) / s)
    return q[p]
