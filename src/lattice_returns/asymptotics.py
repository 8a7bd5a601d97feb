"""Asymptotic expansions for x_n, A_{2n} and B_{2n}.

Exact rational coefficient tables

    x_n^{(d)}    = a_d d^{2n} / (pi n)^{(d-1)/2} * (1 + r_1/n + ... + r_4/n^4 + O(n^-5))
    A_{2n}^{(d)} = a_d (2d)^{2n} / (pi n)^{d/2}  * (1 + a_1/n + ... + a_4/n^4 + O(n^-5))

with a_d = d^{d/2} / 2^{d-1}, plus floating evaluators that keep the
exponential factor in log-space.  Coefficients are known through m = 4;
asking for more is an UnsupportedOrderError, never an extrapolation.

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
from typing import TYPE_CHECKING

from .errors import DependencyError, UnsupportedOrderError
from .kernel import Rational

if TYPE_CHECKING:  # pragma: no cover
    from .constants import ConstantsBundle

EULER_GAMMA = 0.5772156649015329

_G_TABLE = (
    Fraction(-1, 8),
    Fraction(1, 128),
    Fraction(5, 1024),
    Fraction(-21, 32768),
)


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


def g_coeff(k: int) -> Rational:
    """Central-binomial correction g_k, C(2n,n) ~ 4^n/sqrt(pi n) (1 + sum g_k/n^k)."""
    if not 1 <= k <= 4:
        raise UnsupportedOrderError("g_k known only for 1 <= k <= 4, got %d" % k)
    return _G_TABLE[k - 1]


def r_coeff(m: int, d: int) -> Rational:
    """x-expansion coefficient r_m(d), m <= 4."""
    if not 1 <= m <= 4:
        raise UnsupportedOrderError("r_m known only for 1 <= m <= 4, got %d" % m)
    if d < 1:
        raise ValueError("d must be >= 1")
    if m == 1:
        return Fraction(1 - d, 8)
    if m == 2:
        return Fraction((d * d - 1) * (2 * d - 3), 384)
    if m == 3:
        return Fraction((d - 1) * (6 * d**3 - 19 * d**2 + 14 * d + 15), 3072)
    return Fraction(
        (d - 1) * (20 * d**5 + 2504 * d**4 - 10241 * d**3 + 9679 * d**2 + 309 * d + 945),
        1474560,
    )


def _a_coeff_explicit(m: int, d: int) -> Rational:
    if m == 1:
        return Fraction(-d, 8)
    if m == 2:
        return Fraction(2 * d**3 - 3 * d**2 + 4 * d, 384)
    if m == 3:
        return Fraction(d**2 * (2 * d**2 - 9 * d + 12), 1024)
    return Fraction(
        d * (20 * d**5 + 2484 * d**4 - 13105 * d**3 + 21480 * d**2 - 11440 * d - 384),
        1474560,
    )


def a_coeff(m: int, d: int) -> Rational:
    """A-expansion coefficient a_m(d), m <= 4.

    Computed from the r-table through a_m = r_m + g_1 r_{m-1} + ... + g_m
    (r_0 = 1) and cross-checked against the explicit polynomial form;
    a mismatch would be an internal error, not a caller error.
    """
    if not 1 <= m <= 4:
        raise UnsupportedOrderError("a_m known only for 1 <= m <= 4, got %d" % m)
    if d < 1:
        raise ValueError("d must be >= 1")
    acc = g_coeff(m)  # g_m * r_0
    for i in range(1, m):
        acc += g_coeff(i) * r_coeff(m - i, d)
    acc += r_coeff(m, d)
    explicit = _a_coeff_explicit(m, d)
    if acc != explicit:  # pragma: no cover - internal consistency
        raise ArithmeticError(
            "a_%d(%d): convolution %s != explicit %s" % (m, d, acc, explicit)
        )
    return acc


def correction_factor(family: str, d: int, n: int, m: int) -> Rational:
    """Exact rational 1 + sum_{k<=m} c_k(d)/n^k for family 'r' or 'a'."""
    if family not in ("r", "a"):
        raise ValueError("family must be 'r' or 'a'")
    if m < 0 or m > 4:
        raise UnsupportedOrderError("m must be in 0..4, got %d" % m)
    coeff = r_coeff if family == "r" else a_coeff
    acc = Fraction(1)
    for k in range(1, m + 1):
        acc += coeff(k, d) / Fraction(n) ** k
    return acc


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


def eval_X_asym(d: int, n: int, m: int = 4) -> AsymValue:
    """x_n^{(d)} to correction order m; normalized by (pi n)^{(d-1)/2} / d^{2n}."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    corr = float(correction_factor("r", d, n, m))
    a_d = float(leading_constant_a(d))
    mantissa = a_d * corr
    log_value = (
        math.log(mantissa)
        + 2 * n * math.log(d)
        - (d - 1) / 2 * (math.log(math.pi) + math.log(n))
    )
    return AsymValue(log_value, mantissa, "x * (pi*n)^((d-1)/2) / d^(2n)")


def eval_A_asym(d: int, n: int, m: int = 4) -> AsymValue:
    """A_{2n}^{(d)} to correction order m; normalized by (pi n)^{d/2} / (2d)^{2n}."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    corr = float(correction_factor("a", d, n, m))
    a_d = float(leading_constant_a(d))
    mantissa = a_d * corr
    log_value = (
        math.log(mantissa)
        + 2 * n * math.log(2 * d)
        - d / 2 * (math.log(math.pi) + math.log(n))
    )
    return AsymValue(log_value, mantissa, "A * (pi*n)^(d/2) / (2d)^(2n)")


def _require_bundle(constants, d: int) -> "ConstantsBundle":
    if constants is None or getattr(constants, "dimension", None) != d:
        raise DependencyError("need a constants bundle for d=%d" % d)
    return constants


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
    bundle = _require_bundle(constants, d)
    if d == 4:
        corr = 1 + bundle.b1_log_coefficient * math.log(n) / n
    elif bundle.b1 is None:
        raise DependencyError("bundle lacks b_1 (needs m_tilde_%d)" % d)
    else:
        corr = 1 + bundle.b1 / n
    mantissa = bundle.b * corr
    log_value = (
        math.log(mantissa)
        + 2 * n * math.log(2 * d)
        - d / 2 * (math.log(math.pi) + math.log(n))
    )
    return AsymValue(log_value, mantissa, "B * (pi*n)^(d/2) / (2d)^(2n)")

