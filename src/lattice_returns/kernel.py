"""Exact arithmetic kernel: big integers, rationals, univariate polynomials
(the one schoolbook ``product`` and Taylor ``shift``), and binomials.

Walk counts are plain Python ints (arbitrary precision, never rounded).
Every exact value goes through ``exact``: an int when it is integral, a
fractions.Fraction in lowest terms otherwise, so integer identities stay
in int arithmetic.  Both are re-exported as ``BigCount`` and ``Rational``
so the rest of the package can talk about counts and coefficients rather
than machine types.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction
from typing import Iterable, Union

BigCount = int
Rational = Fraction

RationalLike = Union[int, Fraction]


def exact(value) -> RationalLike:
    """value as an int if it is integral, else as a Fraction."""
    if isinstance(value, int):
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the interpreter's limit on int/str conversion (Python 3.11+)
    for the block: exact tables read and print integers of any length."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def binomial_row(n: int) -> tuple[int, ...]:
    """Return the full Pascal row (C(n,0), ..., C(n,n))."""
    if n < 0:
        raise ValueError("binomial_row requires n >= 0, got %d" % n)
    row = [1]
    for k in range(n):
        row.append(row[k] * (n - k) // (k + 1))
    return tuple(row)


def binomial(n: int, k: int) -> BigCount:
    """C(n, k) for n >= 0; 0 when k is out of [0, n]."""
    if n < 0:
        raise ValueError("binomial requires n >= 0, got %d" % n)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def round_div(num: int, den: int) -> int:
    """num/den rounded to the nearest int (halves upward), in ints only."""
    return (2 * num + den) // (2 * den)


class UniPoly:
    """Univariate polynomial with exact coefficients (see ``exact``).

    Coefficient index = power of the variable.  The coefficient list is
    normalized so that the trailing (highest-index) entry is nonzero
    unless the polynomial is zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "UniPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "UniPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return UniPoly(product(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power")
        out = UniPoly([1])
        for _ in range(k):
            out = out * self
        return out

    def shift(self, t) -> "UniPoly":
        """p(x + t), by Horner's rule: dividing by x - t once per degree
        leaves the Taylor coefficients at t in place."""
        c = list(self.coeffs)
        for i in range(len(c) - 1):
            for j in reversed(range(i, len(c) - 1)):
                c[j] += t * c[j + 1]
        return UniPoly(c)

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> RationalLike:
        return poly_eval(self, x)

    def __repr__(self) -> str:
        return "UniPoly(%s)" % (list(self.coeffs),)


def _coerce(value) -> UniPoly | None:
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly([value])
    return None


def product(a, b, n: int) -> list:
    """The first n coefficients of a b, for coefficient lists a and b, by
    the schoolbook rule, skipping the zero terms of both.  ``UniPoly`` and
    ``holonomy``'s series multiply through it."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i], i):
                if bj:
                    out[j] += ai * bj
    return out


def poly_eval(p: UniPoly, x) -> RationalLike:
    """Exact Horner evaluation of p at the point x, taken exactly: an int
    point gives an int, a float point its exact binary value."""
    x = exact(x)
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder of a by a nonzero b, over Q."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [0] * max(len(rem) - b.degree, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = exact(Fraction(rem[i + b.degree]) / b.coeffs[-1])
        for j, bj in enumerate(b.coeffs):
            rem[i + j] -= c * bj
    return UniPoly(quo), UniPoly(rem[:b.degree])


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """The monic greatest common divisor of a and b over Q (0 if both
    are 0), by Euclid's algorithm."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return UniPoly([Fraction(c) / a.coeffs[-1] for c in a.coeffs]) if a else a


def primitive(polys: Iterable[UniPoly]) -> list[UniPoly]:
    """The integer polynomials proportional to ``polys`` (one common
    factor) with content 1, the last one's top coefficient positive."""
    polys = list(polys)
    coeffs = [Fraction(c) for p in polys for c in p.coeffs]
    scale = Fraction(math.lcm(*(c.denominator for c in coeffs)),
                     math.gcd(*(c.numerator for c in coeffs)))
    if polys[-1].coeffs[-1] < 0:
        scale = -scale
    return [UniPoly([c * scale for c in p.coeffs]) for p in polys]


def legendre_poly(n: int) -> UniPoly:
    """Legendre polynomial P_n with exact rational coefficients.

    Generated by the three-term recurrence
        (n+1) P_{n+1} = (2n+1) * x * P_n - n * P_{n-1},
    seeded by P_0 = 1 and P_1 = x.
    """
    if n < 0:
        raise ValueError("legendre_poly requires n >= 0, got %d" % n)
    p_prev = UniPoly([1])
    if n == 0:
        return p_prev
    p_cur = UniPoly([0, 1])
    for m in range(1, n):
        p_next = (UniPoly([0, Fraction(2 * m + 1, m + 1)]) * p_cur
                  - Fraction(m, m + 1) * p_prev)
        p_prev, p_cur = p_cur, p_next
    return p_cur
