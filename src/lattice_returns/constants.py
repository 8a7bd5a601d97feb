"""Return constants: m_d, m_tilde_d, the Polya probability p_d, and the
B-asymptotic constants b_d, b_1(d).

    m_d       = sum_{n>=0} A_{2n} / (2d)^{2n}          (finite for d >= 3)
    m_tilde_d = sum_{n>=0} n A_{2n} / (2d)^{2n}        (finite for d >= 5)
    p_d       = 1 - 1/m_d                              (d >= 3; p_1 = p_2 = 1)
    b_d       = a_d / m_d^2

Partial sums are accumulated in mpmath (>= 128-bit equivalent precision).
For d in {3, 4, 5} the summands, in mpf here and in float64 for the
B-side series, come from walks.iterate_p_recurrence run forward on the
A-recurrence with q = (2d)^2; other d fall back to the exact x-ladder.
Tails beyond N are estimated from the four-term asymptotic integrand via
Euler-Maclaurin at the midpoint N + 1/2 (default) or by summing the same
expansion exactly over integers with the Hurwitz zeta function.  Error
bounds are heuristic -- twice the estimated first omitted contribution --
and are labeled as such; the underlying series admit no desk-scale
rigorous bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, zeta

from . import catalog, walks
from .asymptotics import a_coeff, leading_constant_a
from .errors import DependencyError, DivergenceError

TAIL_METHODS = ("euler-maclaurin", "hurwitz-zeta")


@dataclass(frozen=True)
class Estimate:
    """A numerical value with a (heuristic) error bound."""

    value: float
    error_bound: float

    def to_json_obj(self) -> dict:
        return {"value": self.value, "error_bound": self.error_bound,
                "error_bound_kind": "heuristic"}


@dataclass(frozen=True)
class PolyaResult:
    """Both routes to the return probability.

    ``p`` is the headline value: exactly 1 for d <= 2 (recurrent walk),
    1 - 1/m_d for d >= 3.  ``p_direct`` is the independent B-side route:
    partial sum of B_{2n}/(2d)^{2n} plus a tail fitted from the B data
    alone.  ``partial_sum_raw`` is the bare partial sum.
    """

    dimension: int
    p: float
    recurrent: bool
    terms_used: int
    p_direct: float | None = None
    partial_sum_raw: float | None = None
    m_estimate: Estimate | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "dimension": self.dimension,
            "p": self.p,
            "recurrent": self.recurrent,
            "terms_used": self.terms_used,
        }
        if self.p_direct is not None:
            obj["p_direct"] = self.p_direct
        if self.partial_sum_raw is not None:
            obj["partial_sum_raw"] = self.partial_sum_raw
        if self.m_estimate is not None:
            obj["m"] = self.m_estimate.to_json_obj()
        return obj


@dataclass(frozen=True)
class ConstantsBundle:
    """Everything the B-asymptotics of a dimension d >= 3 need."""

    dimension: int
    m: Estimate
    m_tilde: Estimate | None
    p: float
    p_direct: float
    b: float
    b1: float | None
    b1_log_coefficient: float | None
    terms_used: int
    tail_method: str

    def to_json_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "m_d": self.m.to_json_obj(),
            "m_tilde_d": None if self.m_tilde is None else self.m_tilde.to_json_obj(),
            "p_d": self.p,
            "p_d_direct": self.p_direct,
            "b_d": self.b,
            "b_1": self.b1,
            "b_1_log_coefficient": self.b1_log_coefficient,
            "terms_used": self.terms_used,
            "tail_method": self.tail_method,
        }


# ---------------------------------------------------------------------------
# Summand generation: t_n = A_{2n} / (2d)^{2n} in high precision.
# ---------------------------------------------------------------------------

def _recurrence_summands(d: int, N: int, q) -> list:
    """[t_0, ..., t_N] with t_n = A_{2n}^{(d)}/q^n for d in {3, 4, 5}, in
    the number type of q, by forward iteration of the A-recurrence."""
    rec = catalog.a_recurrence(d)
    seeds = walks.closed_walks(d, rec.order - 1).values
    return walks.iterate_p_recurrence(
        rec, [s / q**i for i, s in enumerate(seeds)], N, q)


def _normalized_a_summands_mp(d: int, N: int) -> list:
    """[t_0, ..., t_N] with t_n = A_{2n}^{(d)}/(2d)^{2n} as mpf values.

    d in {3, 4, 5} use the A-recurrence; other dimensions fall back to
    the exact ladder, practical for N up to a few thousand.
    """
    if d in (3, 4, 5):
        return _recurrence_summands(d, N, mpf((2 * d) ** 2))
    xs = walks.x_sequence(d, N).values
    dd = mpf(d * d)
    rho = mpf(1)  # C(2n,n)/4^n
    ts = []
    dpow = mpf(1)
    for n in range(N + 1):
        if n > 0:
            rho = rho * (2 * n - 1) / (2 * n)
            dpow = dpow * dd
        ts.append(rho * mpf(xs[n]) / dpow)
    return ts


def _asym_tail_coeffs(d: int, weight: int) -> list[tuple[float, "mpf"]]:
    """(exponent s_k, coefficient c_k) with the tail summand approximated
    by sum_k c_k n^{-s_k}; weight 0 for m_d, 1 for m_tilde_d."""
    a_d = mp.sqrt(mpf(d) ** d) / 2 ** (d - 1)
    pi_pow = mp.pi ** (mpf(d) / 2)
    out = []
    for k in range(5):
        ck = mpf(1) if k == 0 else (
            mpf(a_coeff(k, d).numerator) / a_coeff(k, d).denominator
        )
        s = mpf(d) / 2 + k - weight
        out.append((s, a_d / pi_pow * ck))
    return out


def _tail_estimate(d: int, N: int, weight: int, method: str):
    """Sum of the asymptotic integrand over n > N."""
    terms = _asym_tail_coeffs(d, weight)
    if method == "hurwitz-zeta":
        return sum(c * zeta(s, N + 1) for s, c in terms)
    if method != "euler-maclaurin":
        raise ValueError("unknown tail method %r" % method)
    x0 = mpf(N) + mpf("0.5")
    tail = mpf(0)
    fprime = mpf(0)
    f3 = mpf(0)
    for s, c in terms:
        tail += c * x0 ** (1 - s) / (s - 1)
        fprime += -s * c * x0 ** (-s - 1)
        f3 += -s * (s + 1) * (s + 2) * c * x0 ** (-s - 3)
    # midpoint Euler-Maclaurin: integral + f'/24 - 7 f'''/5760 + ...
    return tail + fprime / 24 - 7 * f3 / 5760


def _em_remainder(d: int, N: int, weight: int):
    """Magnitude of the next midpoint Euler-Maclaurin term (31 f^(5)/967680)."""
    x0 = mpf(N) + mpf("0.5")
    f5 = mpf(0)
    for s, c in _asym_tail_coeffs(d, weight):
        f5 += s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * abs(c) * x0 ** (-s - 5)
    return 31 * f5 / 967680


def _summand_asym(d: int, n: int, weight: int):
    return sum(c * mpf(n) ** (-s) for s, c in _asym_tail_coeffs(d, weight))


def _estimate(d: int, N: int, weight: int, dps: int, tail_method: str) -> Estimate:
    with mp.workdps(dps):
        ts = _normalized_a_summands_mp(d, N)
        if weight == 0:
            partial = mp.fsum(ts)
        else:
            partial = mp.fsum(n * t for n, t in enumerate(ts))
        tail = _tail_estimate(d, N, weight, tail_method)
        # Heuristic error bound: the first omitted contribution is the gap
        # between the true summand and the 4-term integrand at the edge,
        # extended over the tail by the matching power law (~n^{-(d/2+5-w)}),
        # doubled; plus the precision noise floor of the summation.
        weight_factor = mpf(N) ** weight
        delta = abs(ts[N] * weight_factor - _summand_asym(d, N, weight))
        s_omitted = mpf(d) / 2 + 5 - weight
        omitted = delta * mpf(N) / (s_omitted - 1)
        noise = mpf(N + 1) * mpf(10) ** (-dps + 2)
        value = partial + tail
        bound = 2 * omitted + noise + abs(value) * mpf(2) ** -50
        if tail_method == "euler-maclaurin":
            bound += 2 * _em_remainder(d, N, weight)
        return Estimate(float(value), float(bound))


def estimate_m(d: int, N: int, dps: int = 40,
               tail_method: str = "euler-maclaurin") -> Estimate:
    """m_d from N+1 exact-series terms plus an asymptotic tail."""
    if d <= 2:
        raise DivergenceError("m_d diverges for d <= 2 (recurrent walk)")
    if N < 8:
        raise ValueError("N too small to anchor the tail estimate")
    return _estimate(d, N, 0, dps, tail_method)


def estimate_m_tilde(d: int, N: int, dps: int = 40,
                     tail_method: str = "euler-maclaurin") -> Estimate:
    """m_tilde_d; the weighted series only converges for d >= 5."""
    if d <= 4:
        raise DivergenceError("m_tilde_d diverges for d <= 4")
    if N < 8:
        raise ValueError("N too small to anchor the tail estimate")
    return _estimate(d, N, 1, dps, tail_method)


# ---------------------------------------------------------------------------
# Normalized float series (large-N B machinery).
# ---------------------------------------------------------------------------

def normalized_a_series(d: int, N: int) -> np.ndarray:
    """float64 array [A_0/(2d)^0, ..., A_{2N}/(2d)^{2N}].

    d = 1, 2 use the closed central-binomial forms; d in {3, 4, 5} the
    normalized P-recurrence (float64 forward iteration, stable); other d
    the exact ladder (desk-scale N only).
    """
    if d in (1, 2):
        rho = np.empty(N + 1)
        rho[0] = 1.0
        for n in range(1, N + 1):
            rho[n] = rho[n - 1] * (2 * n - 1) / (2 * n)
        return rho if d == 1 else rho * rho
    if d in (3, 4, 5):
        return np.array(_recurrence_summands(d, N, float((2 * d) ** 2)))
    xs = walks.x_sequence(d, N).values
    ts = np.empty(N + 1)
    rho = 1.0
    for n in range(N + 1):
        if n > 0:
            rho = rho * (2 * n - 1) / (2 * n)
        # x_n itself overflows float64; x_n/d^(2n) ~ n^{-(d-1)/2} does not.
        ts[n] = rho * math.exp(math.log(xs[n]) - 2 * n * math.log(d))
    return ts


def _series_inverse_float(a: np.ndarray) -> np.ndarray:
    """Power-series inverse of a (a[0] != 0) by Newton doubling with FFT
    products; O(N log N), relative coefficient error near machine eps."""
    n = len(a)
    x = np.array([1.0 / a[0]])
    length = 1
    while length < n:
        length = min(2 * length, n)
        ax = _fft_mul(a[:length], x, length)
        two_minus = -ax
        two_minus[0] += 2.0
        x = _fft_mul(x, two_minus, length)
    return x[:n]


def _fft_mul(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray:
    size = 1
    while size < len(a) + len(b) - 1:
        size *= 2
    fa = np.fft.rfft(a, size)
    fb = np.fft.rfft(b, size)
    return np.fft.irfft(fa * fb, size)[:out_len]


def normalized_b_series(d: int, N: int) -> np.ndarray:
    """float64 array [0, B_2/(2d)^2, ..., B_{2N}/(2d)^{2N}] via the series
    identity B = 1 - 1/A applied to the normalized A-series."""
    a = normalized_a_series(d, N)
    inv = _series_inverse_float(a)
    b = -inv
    b[0] = 0.0
    return b


def _fit_b_tail(d: int, b: np.ndarray, N: int):
    """Tail of sum b_n for n > N, fitted from the B data alone.

    Model b_n ~ bh * n^{-d/2} (1 + ch/n); bh, ch from the last two
    anchor points, then summed exactly over integers with Hurwitz zeta.
    Independent of m_d and of the A-side coefficient tables.
    """
    n1, n2 = N // 2, N
    s = d / 2
    y1 = float(b[n1]) * n1**s
    y2 = float(b[n2]) * n2**s
    slope = (y1 - y2) / (1.0 / n1 - 1.0 / n2)  # = bh * ch
    bh = y2 - slope / n2
    return bh * zeta(s, N + 1) + slope * zeta(s + 1, N + 1)


def polya_probability(d: int, N: int, dps: int = 40,
                      tail_method: str = "euler-maclaurin") -> PolyaResult:
    """Return probability p_d with both routes reported for d >= 3.

    d = 1, 2: exactly 1 (recurrent); the reported partial sum shows the
    slow approach.  d >= 3: headline value 1 - 1/m_d; the direct route
    sums B_{2n}/(2d)^{2n} and adds a B-side tail fit.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    b = normalized_b_series(d, N)
    raw = float(np.sum(b))
    if d <= 2:
        return PolyaResult(dimension=d, p=1.0, recurrent=True,
                           terms_used=N, partial_sum_raw=raw)
    m = estimate_m(d, N, dps=dps, tail_method=tail_method)
    p_m = 1.0 - 1.0 / m.value
    with mp.workdps(dps):
        p_direct = float(raw + _fit_b_tail(d, b, N))
    return PolyaResult(dimension=d, p=p_m, recurrent=False, terms_used=N,
                       p_direct=p_direct, partial_sum_raw=raw, m_estimate=m)


@dataclass(frozen=True)
class BConstants:
    """First-return asymptotic constants assembled for eval_B_asym."""

    dimension: int
    b: float
    b1: float | None
    b1_log_coefficient: float | None


def b_constants(d: int, m: Estimate | float,
                m_tilde: Estimate | float | None = None) -> BConstants:
    """b_d = a_d/m_d^2 plus the 1/n (or log n / n) correction constant.

    d = 3 uses the explicit b_1(3) formula; d = 4 has no constant 1/n
    coefficient at this order -- the correction is the log-term
    -8/(pi^2 m_4) * log(n)/n; d >= 5 needs m_tilde_d.
    """
    if d < 3:
        raise DivergenceError("b_d is defined through m_d, which needs d >= 3")
    m_val = getattr(m, "value", m)
    b = float(leading_constant_a(d)) / m_val**2
    if d == 3:
        b1 = -3.0 / 16 + 9.0 / (32 * m_val) - 81.0 / (16 * math.pi**2 * m_val**3)
        return BConstants(d, b, b1, None)
    if d == 4:
        return BConstants(d, b, None, -8.0 / (math.pi**2 * m_val))
    if m_tilde is None:
        raise DependencyError("b_1(%d) needs m_tilde_%d" % (d, d))
    mt = getattr(m_tilde, "value", m_tilde)
    b1 = -d / 8.0 - d * mt / m_val if d % 2 == 1 else -d / 8.0 + d * mt / m_val
    return BConstants(d, b, b1, None)


def empirical_b1(d: int, m: Estimate | float, n: int = 2000) -> float:
    """Empirical fit of the 1/n correction: n * (b_n_normalized/b_d - 1)
    at index n, from the exact-identity B series.  Exposed so the printed
    sign of the m_tilde/m term can be compared against data."""
    b_series = normalized_b_series(d, n)
    b_d = float(leading_constant_a(d)) / getattr(m, "value", m) ** 2
    ratio = float(b_series[n]) * (math.pi * n) ** (d / 2) / b_d
    return (ratio - 1.0) * n


def build_bundle(d: int, N: int, dps: int = 40,
                 tail_method: str = "euler-maclaurin") -> ConstantsBundle:
    """The full constants bundle for dimension d >= 3."""
    if d <= 2:
        raise DivergenceError("constants bundle requires d >= 3")
    res = polya_probability(d, N, dps=dps, tail_method=tail_method)
    m = res.m_estimate
    m_tilde = estimate_m_tilde(d, N, dps=dps, tail_method=tail_method) if d >= 5 else None
    bc = b_constants(d, m, m_tilde)
    return ConstantsBundle(
        dimension=d,
        m=m,
        m_tilde=m_tilde,
        p=res.p,
        p_direct=res.p_direct,
        b=bc.b,
        b1=bc.b1,
        b1_log_coefficient=bc.b1_log_coefficient,
        terms_used=N,
        tail_method=tail_method,
    )
