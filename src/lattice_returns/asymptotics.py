"""Asymptotic expansions for x_n, A_{2n} and B_{2n}.

Exact rational coefficients

    x_n^{(d)}    = a_d d^{2n} / (pi n)^{(d-1)/2} * (1 + r_1/n + ... + r_M/n^M + O(n^-M-1))
    A_{2n}^{(d)} = a_d (2d)^{2n} / (pi n)^{d/2}  * (1 + a_1/n + ... + a_M/n^M + O(n^-M-1))

with a_d = d^{d/2} / 2^{d-1}, plus floating evaluators that keep the
exponential factor in log-space.  The a_m(d) are derived for any d from
the Bessel form of the generating function (a_coeffs); the r_m(d) follow
by dividing out the d = 1 series.  Orders run up to MAX_ORDER = 12;
asking for more is an UnsupportedOrderError.

The B-evaluator dispatches on dimension: odd d >= 3 uses b_d = a_d/m_d^2
with an explicit 1/n correction; d = 4 carries a log(n)/n term; d = 2 is
the slow log regime pi / (n (log n + gamma + 4 log 2)^2); d = 1 follows
from the exact closed form B_{2n} = C(2n,n)/(2n-1).  (For d = 1 the 1/n
coefficient is +3/8: that is what the closed form expands to, and what
the table values confirm.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DependencyError, UnsupportedOrderError
from .holonomy import TruncatedSeries, reciprocal_series
from .kernel import Rational

if TYPE_CHECKING:  # pragma: no cover
    from .constants import ConstantsBundle

EULER_GAMMA = 0.5772156649015329

# The expansions are asymptotic, not convergent, so the order is capped.
# At n = 100 twelve orders leave a relative error from 3e-23 (d = 3) to
# 6e-15 (d = 8); deriving them takes about 15 ms per dimension.
MAX_ORDER = 12


@dataclass(frozen=True)
class LeadingConstant:
    """a_d = d^(d/2) / 2^(d-1); its square is exactly rational."""

    d: int

    @property
    def denominator(self) -> int:
        return 2 ** (self.d - 1)

    def __float__(self) -> float:
        return math.sqrt(self.d ** self.d) / self.denominator

    @property
    def squared(self) -> Rational:
        """a_d^2 = d^d / 4^(d-1), exactly rational."""
        return Fraction(self.d ** self.d, 4 ** (self.d - 1))


def leading_constant_a(d: int) -> LeadingConstant:
    if d < 1:
        raise ValueError("d must be >= 1")
    return LeadingConstant(d)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """The Bernoulli number B_m, B_1 = -1/2, made on first request and
    kept: B_m = -sum_{i < m} C(m + 1, i) B_i / (m + 1), whose odd i >= 3
    add nothing."""
    if m == 0:
        return Fraction(1)
    if m > 1 and m % 2:
        return Fraction(0)
    return -sum(math.comb(m + 1, i) * bernoulli(i) for i in (0, 1, *range(2, m, 2))
                if i < m) / (m + 1)


@lru_cache(maxsize=None)
def _a_series(d: int, M: int) -> tuple[Fraction, ...]:
    """1 + a_1(d)/n + ... + a_M(d)/n^M as a series in 1/n.

    From the EGF sum_n A_{2n} x^{2n}/(2n)! = I_0(2x)^d with
    I_0(z) ~ e^z (2 pi z)^{-1/2} sum_k c_k z^{-k}, c_k = ((2k-1)!!)^2/(k! 8^k):
    the saddles at +-x give
    A_{2n} ~ 2 (4 pi)^{-d/2} sum_k D_k (2d)^{2n+s_k} Gamma(2n+1)/Gamma(2n+1+s_k)
    with s_k = d/2 + k and D_k = [y^k] (sum_j c_j (y/2)^j)^d.  The
    Gamma-ratio is N^{-s} exp(sum_j e_j(s) N^{-j}) at N = 2n, with
    e_j(s) = (-1)^{j+1} (B_{j+1}(1) - B_{j+1}(1+s)) / (j (j+1))
           = (-1)^j sum_i C(j+1, i) B_i ((1+s)^{j+1-i} - 1) / (j (j+1)),
    so the series is sum_k D_k d^k n^{-k} exp(sum_j e_j(s_k) (2n)^{-j}).
    """
    order = M + 1
    c = [Fraction(math.prod(range(1, 2 * k, 2)) ** 2,
                  math.factorial(k) * 8**k * 2**k) for k in range(order)]
    power = TruncatedSeries([1] + [0] * M)
    for _ in range(d):
        power = power * TruncatedSeries(c)
    total = TruncatedSeries([0] * order)
    for k in range(order):
        s = Fraction(d, 2) + k
        e = [0] + [Fraction((-1) ** j, j * (j + 1) * 2**j)
                   * sum(math.comb(j + 1, i) * bernoulli(i) * ((1 + s) ** (j + 1 - i) - 1)
                         for i in range(j + 1))
                   for j in range(1, order - k)]
        # exp of the series e, coefficient by coefficient from E' = e' E
        ratio = [1]
        for m in range(1, order - k):
            ratio.append(sum(j * e[j] * ratio[m - j] for j in range(1, m + 1)) / m)
        total = total + TruncatedSeries([0] * k + [power[k] * d**k * r for r in ratio])
    return tuple(map(Fraction, total.coeffs))


@lru_cache(maxsize=None)
def _r_coeffs(d: int, M: int) -> tuple[Fraction, ...]:
    """[1, r_1(d), ..., r_M(d)]: x_n = A_{2n} / C(2n, n), so the r-series
    is the a-series divided by the d = 1 one."""
    a, g = (TruncatedSeries(a_coeffs(dd, M)) for dd in (d, 1))
    return tuple(map(Fraction, (a * reciprocal_series(g)).coeffs))


def _order(M: int, lowest: int = 1) -> int:
    if not lowest <= M <= MAX_ORDER:
        raise UnsupportedOrderError(
            "coefficient order must be within %d..%d, got %d" % (lowest, MAX_ORDER, M))
    return M


def a_coeffs(d: int, M: int) -> list[Fraction]:
    """[1, a_1(d), ..., a_M(d)] exactly, for d >= 1 and 0 <= M <= MAX_ORDER."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return list(_a_series(d, _order(M, 0)))


def g_coeff(k: int) -> Rational:
    """Central-binomial correction g_k, C(2n,n) ~ 4^n/sqrt(pi n) (1 + sum g_k/n^k)."""
    return a_coeffs(1, _order(k))[k]


def r_coeff(m: int, d: int) -> Rational:
    """x-expansion coefficient r_m(d)."""
    return _r_coeffs(d, _order(m))[m]


def a_coeff(m: int, d: int) -> Rational:
    """A-expansion coefficient a_m(d)."""
    return a_coeffs(d, _order(m))[m]


def correction_factor(family: str, d: int, n: int, m: int) -> Rational:
    """Exact rational 1 + sum_{k<=m} c_k(d)/n^k for family 'r' or 'a'."""
    if family not in ("r", "a"):
        raise ValueError("family must be 'r' or 'a'")
    coeffs = _r_coeffs(d, m) if family == "r" else a_coeffs(d, m)
    return sum(Fraction(c, n**k) for k, c in enumerate(coeffs))


@dataclass(frozen=True)
class AsymValue:
    """A floating evaluation with its log-space decomposition.

    value = exp(log_value) when representable (math.inf otherwise);
    ``normalized`` is the value with the stated normalization applied,
    always representable in double precision.
    """

    log_value: float
    normalized: float
    normalization: str

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf


def _power_law(mantissa: float, n: int, base: int, power: float,
               normalization: str) -> AsymValue:
    """mantissa * base^{2n} / (pi n)^power, kept in log-space."""
    log_value = (
        math.log(mantissa)
        + 2 * n * math.log(base)
        - power * (math.log(math.pi) + math.log(n))
    )
    return AsymValue(log_value, mantissa, normalization)


def eval_X_asym(d: int, n: int, m: int = 4) -> AsymValue:
    """x_n^{(d)} to correction order m; normalized by (pi n)^{(d-1)/2} / d^{2n}."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    mantissa = float(leading_constant_a(d)) * float(correction_factor("r", d, n, m))
    return _power_law(mantissa, n, d, (d - 1) / 2, "x * (pi*n)^((d-1)/2) / d^(2n)")


def eval_A_asym(d: int, n: int, m: int = 4) -> AsymValue:
    """A_{2n}^{(d)} to correction order m; normalized by (pi n)^{d/2} / (2d)^{2n}."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    mantissa = float(leading_constant_a(d)) * float(correction_factor("a", d, n, m))
    return _power_law(mantissa, n, 2 * d, d / 2, "A * (pi*n)^(d/2) / (2d)^(2n)")


def eval_B_asym(d: int, n: int, constants: "ConstantsBundle | None" = None) -> AsymValue:
    """B_{2n}^{(d)} to the order the expansion is stated.

    d = 1 and d = 2 need no constants; d >= 3 reads b_d and the 1/n
    (d = 4: log(n)/n) correction coefficient from the constants bundle.
    """
    if d < 1 or n < 2:
        raise ValueError("need d >= 1 and n >= 2 (log terms at n >= 2)")
    if d == 1:
        corr = 1 + 3 / (8 * n) + 25 / (128 * n * n)
        log_value = (
            2 * n * math.log(2)
            - math.log(2 * n)
            - 0.5 * (math.log(math.pi) + math.log(n))
            + math.log(corr)
        )
        return AsymValue(log_value, corr, "B * 2n*sqrt(pi*n) / 4^n")
    if d == 2:
        # Resummed from A_2(z) = (2/pi) K(sqrt z); positive for every n >= 2.
        ln = math.log(n)
        corr = (ln / (ln + EULER_GAMMA + 4 * math.log(2))) ** 2
        mantissa = math.pi * corr
        log_value = (
            2 * n * math.log(4) - math.log(n) - 2 * math.log(ln) + math.log(mantissa)
        )
        return AsymValue(log_value, mantissa, "B * n*log(n)^2 / 16^n")
    if constants is None or constants.dimension != d:
        raise DependencyError("need a constants bundle for d=%d" % d)
    if d == 4:
        corr = 1 + constants.b1_log_coefficient * math.log(n) / n
    else:
        corr = 1 + constants.b1 / n
    return _power_law(constants.b * corr, n, 2 * d, d / 2, "B * (pi*n)^(d/2) / (2d)^(2n)")

