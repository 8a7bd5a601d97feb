"""Return constants: m_d, m_tilde_d, the Polya probability p_d, and the
B-asymptotic constants b_d, b_1(d), as one ConstantsBundle for every d >= 1.

    m_d       = sum_{n>=0} A_{2n} / (2d)^{2n}          (finite for d >= 3)
    m_tilde_d = sum_{n>=0} n A_{2n} / (2d)^{2n}        (finite for d >= 5;
                zeta-regularised for d = 3)
    p_d       = 1 - 1/m_d                              (d >= 3; p_1 = p_2 = 1)
    b_d       = a_d / m_d^2
    b_1(d)    = -d/8 - d m_tilde_d/m_d                 (d >= 5; d = 3 adds
                -81/(8 pi^2 m_3^2))

The summands t_n = A_{2n}/(2d)^{2n} of m_d, m_tilde_d and p_d (d >= 3)
are one list of fixed-point ints U_n = round(t_n 2^bits), bits being PREC
(136, whatever the ambient mpmath precision) plus guard bits, from
walks.recurrence_values: the A-recurrence run forward in ints with
q = (2d)^2 (d <= 8), or for d outside the catalog the exact ladder
rounded once per term.  m_d and m_tilde_d are exact int sums divided once by 2^bits;
the B-side float series inverts the list's correctly rounded float64
copy by FFT Newton.  Tails beyond N sum the asymptotic expansion of the summand, through
TAIL_TERMS derived orders (asymptotics.a_coeffs), exactly over the
integers with the Hurwitz zeta function.  Error bounds are heuristic --
twice the estimated first omitted contribution -- and are labeled as
such; the underlying series admit no desk-scale rigorous bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, zeta
from mpmath.libmp import dps_to_prec

from . import walks
from .asymptotics import a_coeffs, leading_constant_a
from .errors import DependencyError, DivergenceError

# Orders of the asymptotic summand that the tails sum.  With four, m~_6 at
# N = 600 came out one ulp off; with eight, every m_d and m~_d the
# benchmark checks is the double nearest its reference.
TAIL_TERMS = 8

# The one working precision: tails and sums at DPS digits, summands at
# PREC = 136 bits plus guard bits.
DPS = 40
PREC = dps_to_prec(DPS)


@dataclass(frozen=True)
class Estimate:
    """A numerical value with a (heuristic) error bound."""

    value: float
    error_bound: float

    def to_json_obj(self) -> dict:
        return {"value": self.value, "error_bound": self.error_bound,
                "error_bound_kind": "heuristic"}


@dataclass(frozen=True)
class ConstantsBundle:
    """The return constants of a dimension d >= 1, from build_bundle.

    ``p`` is the headline 1 - 1/m_d, ``p_direct`` the independent route:
    the partial sum of B_{2n}/(2d)^{2n} (``partial_sum_raw``, which the
    d >= 3 JSON leaves out) plus a tail fitted from the B data alone.
    d = 1, 2 are recurrent: ``m`` is None, ``p`` exactly 1, and the partial
    sum shows the slow approach."""

    dimension: int
    m: Estimate | None
    p: float
    partial_sum_raw: float
    terms_used: int
    m_tilde: Estimate | None = None
    p_direct: float | None = None
    b: float | None = None
    b1: float | None = None
    b1_printed: float | None = None
    b1_log_coefficient: float | None = None

    @property
    def recurrent(self) -> bool:
        return self.m is None

    def to_json_obj(self) -> dict:
        if self.recurrent:
            return {"dimension": self.dimension, "p_d": self.p, "recurrent": True,
                    "m_d": "divergent", "divergent": True,
                    "partial_sum_raw": self.partial_sum_raw,
                    "terms_used": self.terms_used}
        return {
            "dimension": self.dimension,
            "m_d": self.m.to_json_obj(),
            "m_tilde_d": None if self.m_tilde is None else self.m_tilde.to_json_obj(),
            "p_d": self.p,
            "p_d_direct": self.p_direct,
            "b_d": self.b,
            "b_1": self.b1,
            "b_1_printed": self.b1_printed,
            "b_1_log_coefficient": self.b1_log_coefficient,
            "terms_used": self.terms_used,
        }


# ---------------------------------------------------------------------------
# Summand generation: t_n = A_{2n} / (2d)^{2n} in fixed point.
# ---------------------------------------------------------------------------

def _normalized_a_summands_mp(d: int, N: int) -> tuple[list[int], int]:
    """(U, bits), U_n = round(t_n 2^bits) for n <= N: the one summand list
    the constants of dimension d come from.  Past PREC, bits holds
    (d//2 + 2) log2 N bits for the (d/2) log2 N that t_N ~ N^{-d/2} loses
    and the rounding errors the recurrence carries (see _estimate), and 32
    spare: at d = 5, N = 4000 the worst relative error is 5e-55, with 8
    guard bits in their place 6e-33."""
    if N < 8:
        raise ValueError("N too small to anchor the tail estimate")
    bits = PREC + (d // 2 + 2) * N.bit_length() + 32
    return walks.recurrence_values("A", d, N, (2 * d) ** 2, bits), bits


def _asym_tail_coeffs(d: int, weight: int) -> list[tuple[float, "mpf"]]:
    """(exponent s_k, coefficient c_k) with the tail summand approximated
    by sum_k c_k n^{-s_k}; weight 0 for m_d, 1 for m_tilde_d."""
    scale = mp.sqrt(mpf(d) ** d) / 2 ** (d - 1) / mp.pi ** (mpf(d) / 2)
    return [(mpf(d) / 2 + k - weight, scale * c.numerator / c.denominator)
            for k, c in enumerate(a_coeffs(d, TAIL_TERMS))]


def _estimate(d: int, us: list[int], bits: int, weight: int) -> Estimate:
    """sum_n n^weight t_n over the fixed-point summands us plus the tail
    beyond N, the asymptotic integrand summed over n > N, at DPS digits."""
    N = len(us) - 1
    with mp.workdps(DPS):
        total = sum(us) if weight == 0 else sum(n * u for n, u in enumerate(us))
        partial = mp.ldexp(total, -bits)
        terms = _asym_tail_coeffs(d, weight)
        tail = sum(c * zeta(s, N + 1) for s, c in terms)
        # Heuristic error bound: the first omitted contribution is the gap
        # between the true summand and the asymptotic integrand at the
        # edge, extended over the tail by a power law and doubled; plus
        # the noise of the fixed-point summands.  The power law is
        # that of the four-term remainder, n^{-(d/2+5-w)}, not the
        # n^{-(d/2+TAIL_TERMS+1-w)} of the first omitted term: at small N
        # the later orders, whose coefficients grow, still weigh in the
        # remainder, and the slower decay covers them (against the Bessel
        # integrals, the worst error over bound is 0.52 at d = 5, N = 8;
        # with the faster decay it is 0.90).
        edge = sum(c * mpf(N) ** (-s) for s, c in terms)
        delta = abs(mp.ldexp(us[N] * N**weight, -bits) - edge)
        omitted = delta * mpf(N) / (mpf(d) / 2 + 4 - weight)
        # Noise: the int sum is exact.  Each recurrence step rounds by half a
        # unit of 2^-bits, carried on without growth as the recurrence is
        # stable: |U_n - t_n 2^bits| <= n units (measured <= 71 at N = 1e4,
        # d = 3..8), (N+1)^(2+w) units in the sum, plus 10^-DPS from rounding.
        value = partial + tail
        noise = mp.ldexp(mpf(N + 1) ** (2 + weight), -bits) + abs(value) * mpf(10) ** -DPS
        bound = 2 * omitted + noise + abs(value) * mpf(2) ** -50
        return Estimate(float(value), float(bound))


def estimate_m(d: int, N: int) -> Estimate:
    """m_d from N+1 exact-series terms plus an asymptotic tail."""
    if d <= 2:
        raise DivergenceError("m_d diverges for d <= 2 (recurrent walk)")
    return _estimate(d, *_normalized_a_summands_mp(d, N), 0)


def estimate_m_tilde(d: int, N: int) -> Estimate:
    """m_tilde_d.  The weighted series converges for d >= 5; for d = 3 this
    is its zeta-regularised value, as the tail's Hurwitz zeta(1/2 + k, N+1)
    are the analytic continuations (the same at every N).  Even d <= 4
    has a pole there."""
    if d <= 2 or d == 4:
        raise DivergenceError("m_tilde_d diverges for d = 1, 2, 4")
    return _estimate(d, *_normalized_a_summands_mp(d, N), 1)


# ---------------------------------------------------------------------------
# Normalized float series (large-N B machinery).
# ---------------------------------------------------------------------------

def normalized_a_series(d: int, N: int) -> np.ndarray:
    """float64 array [A_0/(2d)^0, ..., A_{2N}/(2d)^{2N}] for the asym
    tables and empirical_b1; bundles take theirs from the fixed-point summands.

    d = 2 squares the closed central-binomial form; every other d
    walks.recurrence_values at a float q: the catalog's P-recurrence in
    float64 (stable, d <= 8), or the exact ladder correctly rounded
    (d >= 9, desk-scale N).
    """
    if d == 2:
        # The float recurrence would move asym --kind B --d 2 by 1.2e-12 (checked to 1e-12).
        rho = np.empty(N + 1)
        rho[0] = 1.0
        for n in range(1, N + 1):
            rho[n] = rho[n - 1] * (2 * n - 1) / (2 * n)
        return rho * rho
    return np.array(walks.recurrence_values("A", d, N, float((2 * d) ** 2)))


def _series_inverse_float(a: np.ndarray) -> np.ndarray:
    """Power-series inverse of a (a[0] != 0) by Newton doubling with FFT
    products; O(N log N), relative coefficient error near machine eps."""
    n = len(a)
    x = np.array([1.0 / a[0]])
    length = 1
    while length < n:
        length = min(2 * length, n)
        two_minus = -_fft_mul(a[:length], x, length)
        two_minus[0] += 2.0
        x = _fft_mul(x, two_minus, length)
    return x[:n]


def _fft_mul(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray:
    size = 1 << (len(a) + len(b) - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:out_len]


def _b_series(a: np.ndarray) -> np.ndarray:
    """[0, b_1, ..., b_N] from a normalized A-series by B = 1 - 1/A."""
    b = -_series_inverse_float(a)
    b[0] = 0.0
    return b


def normalized_b_series(d: int, N: int) -> np.ndarray:
    """float64 array [0, B_2/(2d)^2, ..., B_{2N}/(2d)^{2N}] via the series
    identity B = 1 - 1/A applied to the normalized A-series."""
    return _b_series(normalized_a_series(d, N))


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


def polya_probability(d: int, N: int) -> ConstantsBundle:
    """Return probability p_d: the constants bundle, whose ``p``,
    ``p_direct``, ``m`` and ``recurrent`` carry both routes.  The name is
    kept apart from build_bundle as the library's entry point for p_d and
    the span the benchmark's traced launcher records."""
    return build_bundle(d, N)


def b_constants(d: int, m: Estimate | float,
                m_tilde: Estimate | float | None = None
                ) -> tuple[float, float | None, float | None]:
    """(b, b1, b1_log_coefficient) as eval_B_asym reads them from the
    bundle: b_d = a_d/m_d^2 plus the 1/n (or log n / n) correction constant.

    b_1 = -d/8 - d m_tilde_d/m_d for d = 3 and d >= 5, with m_tilde_3
    zeta-regularised (``estimate_m_tilde``) and, at d = 3, the extra
    -81/(8 pi^2 m_3^2) that the square-root singularity of A_3 adds to
    1/A.  d = 4 has no constant 1/n coefficient at this order -- the
    correction is the log-term -8/(pi^2 m_4) * log(n)/n.
    """
    if d < 3:
        raise DivergenceError("b_d is defined through m_d, which needs d >= 3")
    m_val = getattr(m, "value", m)
    b = float(leading_constant_a(d)) / m_val**2
    if d == 4:
        return b, None, -8.0 / (math.pi**2 * m_val)
    if m_tilde is None:
        raise DependencyError("b_1(%d) needs m_tilde_%d" % (d, d))
    b1 = -d / 8.0 - d * getattr(m_tilde, "value", m_tilde) / m_val
    if d == 3:
        b1 -= 81.0 / (8 * math.pi**2 * m_val**2)
    return b, b1, None


def empirical_b1(d: int, m: Estimate | float, n: int = 2000) -> float:
    """Empirical fit of the 1/n correction: n * (b_n_normalized/b_d - 1)
    at index n, from the float B-series (``normalized_b_series``), a second
    route to b_1 beside ``b_constants``.

    The fit multiplies the series' relative error by n, and that error
    grows with d (the FFT inverse loses about 1e-9 at d = 5 and 1e-6 at
    d = 8 by n = 400), so at large d the fit is noise-limited: at d = 8
    it reads -1.799 at n = 1000 and -2.26 at n = 2000, where the fit
    from the exact first returns at n = 1000 is -1.780."""
    b_series = normalized_b_series(d, n)
    b_d = float(leading_constant_a(d)) / getattr(m, "value", m) ** 2
    ratio = float(b_series[n]) * (math.pi * n) ** (d / 2) / b_d
    return (ratio - 1.0) * n


def build_bundle(d: int, N: int) -> ConstantsBundle:
    """The constants bundle of dimension d >= 1 from N + 1 terms.

    d >= 3: from one summand list, m_d and m_tilde_d (d >= 5, and d = 3
    regularised) are its int sums, and its correctly rounded float64 copy
    is inverted into the B-series of p_d's direct route.  d = 1, 2: the
    recurrent bundle, p = 1 beside the partial sum of the float B-series."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    if d <= 2:
        return ConstantsBundle(dimension=d, m=None, p=1.0, terms_used=N,
                               partial_sum_raw=float(np.sum(normalized_b_series(d, N))))
    us, bits = _normalized_a_summands_mp(d, N)
    m = _estimate(d, us, bits, 0)
    m_tilde = _estimate(d, us, bits, 1) if d != 4 else None
    scale = 1 << bits
    a = np.array([u / scale for u in us])
    del us  # the int list would otherwise stay alive through the inversion
    b_series = _b_series(a)
    raw = float(np.sum(b_series))
    with mp.workdps(DPS):
        p_direct = float(raw + _fit_b_tail(d, b_series, N))
    b, b1, b1_log_coefficient = b_constants(d, m, m_tilde)
    # The paper's printed b_1(3), kept for fidelity and off every path: it
    # has no m_tilde_3 term, and the B data converge to b1 instead.
    b1_printed = (-3.0 / 16 + 9.0 / (32 * m.value)
                  - 81.0 / (16 * math.pi**2 * m.value**3)) if d == 3 else None
    return ConstantsBundle(
        dimension=d,
        m=m,
        # The JSON reports convergent sums only: not the regularised m~_3.
        m_tilde=m_tilde if d >= 5 else None,
        p=1.0 - 1.0 / m.value,
        p_direct=p_direct,
        partial_sum_raw=raw,
        b=b,
        b1=b1,
        b1_printed=b1_printed,
        b1_log_coefficient=b1_log_coefficient,
        terms_used=N,
    )
