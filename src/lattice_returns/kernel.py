"""Exact arithmetic kernel: big integers, rationals, univariate polynomials,
and binomial coefficients.

Walk counts are plain Python ints (arbitrary precision, never rounded).
Every exact value goes through ``exact``: an int when it is integral, a
fractions.Fraction in lowest terms otherwise, so integer identities stay
in int arithmetic.  Both are re-exported as ``BigCount`` and ``Rational``
so the rest of the package can talk about counts and coefficients rather
than machine types.
"""

from __future__ import annotations

import math
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

    def __rsub__(self, other) -> "UniPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "UniPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power")
        out = UniPoly([1])
        for _ in range(k):
            out = out * self
        return out

    def shift_x(self, k: int = 1) -> "UniPoly":
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return UniPoly((0,) * k + self.coeffs)

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


def poly_eval(p: UniPoly, x) -> RationalLike:
    """Exact Horner evaluation of p at the point x, taken exactly: an int
    point gives an int, a float point its exact binary value."""
    x = exact(x)
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


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
        p_next = (Fraction(2 * m + 1, m + 1) * p_cur.shift_x()
                  - Fraction(m, m + 1) * p_prev)
        p_prev, p_cur = p_cur, p_next
    return p_cur
