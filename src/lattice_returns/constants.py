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
are one stream of fixed-point ints U_n = round(t_n 2^bits), bits being
PREC (136) plus guard bits, from walks.recurrence_values: the
A-recurrence run forward in ints with q = (2d)^2.  One pass (_summand_pass) reads the stream in chunks and
keeps only the exact int sums of U_n and n U_n, which are divided once
by 2^bits, U_N, and the first N_B + 1 summands, N_B = min(N, B_TERMS).
Tails beyond N sum the asymptotic expansion of the summand, through
TAIL_TERMS derived orders (asymptotics.a_coeffs), exactly over the
integers with the Hurwitz zeta function (zeta: Euler-Maclaurin in
``decimal``, in TAIL_CONTEXT).  Error bounds are heuristic --
twice the estimated first omitted contribution -- and are labeled as
such; the underlying series admit no desk-scale rigorous bounds.

A bundle runs in phases: the summand pass, then the fixed-point B-series
b_n = B_{2n}/(2d)^{2n} to N_B (_fixed_first_returns: the exact route's
Newton iteration in walks, on the kept summands at D decimals), then the
decimal tails, of m_d and m_tilde_d and the one fitted to the B-series.
The B-series and the direct route to p_d that sums it are made when
first read, after the tails of m_d and m_tilde_d, so ``asym --kind B``,
which reads only b_d and b_1, makes neither.  No phase uses an FFT or
numpy, and none loads mpmath.  numpy loads only for the float B-series
of ``asym --kind B`` at d >= 3 (normalized_b_series, an FFT Newton
inverse), whose noise the benchmark's references pin;
FLOAT_ROUTE_BUDGET bounds it, and SUMMAND_BUDGET every summand stream.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator

from . import walks
from .asymptotics import a_coeffs, bernoulli, leading_constant_a
from .errors import DependencyError, DivergenceError, check_budget

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

# Orders of the asymptotic summand that the tails sum.  With four, m~_6 at
# N = 600 came out one ulp off; with eight, every m_d and m~_d the
# benchmark checks is the double nearest its reference.
TAIL_TERMS = 8

# The one working precision: tails and sums at DPS digits, summands at
# PREC = 136 bits plus guard bits.  PREC is mpmath.libmp.dps_to_prec(DPS),
# written out so that no command loads mpmath.
DPS = 40
PREC = round((DPS + 1) * math.log2(10))

# The decimal context of the tails and of every division by 2^bits: DPS
# digits and ten guard digits, all of which PI's literal fills.
TAIL_CONTEXT = decimal.Context(prec=DPS + 10)
PI = decimal.Decimal("3.141592653589793238462643383279502884197169399375105820974944592")

# Hurwitz zeta(s, a) sums n^-s directly for a <= n < ZETA_DIRECT and by
# Euler-Maclaurin from M = max(a, ZETA_DIRECT) on, where its k-th Bernoulli
# term is about (s + 2k)^2 / (2 pi M)^2 times the one before.
ZETA_DIRECT = 100

# Bytes the float B-series of ``asym --kind B`` at d >= 3 may take: the
# float64 A-series plus its last Newton transform (_float_route_bytes).
# 2^30 admits N up to 2^23 = 8,388,608, where the estimate is 738 MB.
FLOAT_ROUTE_BUDGET = 2**30

# Terms the fixed-point summand stream may run to: at d = 3, 2 * 10^6
# recurrence steps take 1.4 s in constant memory (cold, 2-vCPU AMD EPYC
# VM), so 10^7 take about 7 s.
SUMMAND_BUDGET = 10**7

# The direct route's fixed-point B-series runs to N_B = min(N, B_TERMS) at
# d >= 3, and its tail is fitted at FIT_ANCHORS anchors N_B j / FIT_ANCHORS.
# At N_B = 2000, p_d_direct is within 2e-16 of p_d for d = 3..12.
B_TERMS = 2000
FIT_ANCHORS = 8


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
    the partial sum of b_n = B_{2n}/(2d)^{2n} to N_B (``partial_sum_raw``,
    which the d >= 3 JSON leaves out) plus a tail fitted from the B data
    alone.  Both, and the fixed-point B-series they sum
    (``first_returns``), are made on first read.  d = 1, 2 are recurrent:
    ``m`` is None, ``p`` exactly 1, and the partial sum to N_B = N shows
    the slow approach."""

    dimension: int
    m: Estimate | None
    p: float
    terms_used: int
    m_tilde: Estimate | None = None
    b: float | None = None
    b1: float | None = None
    b1_printed: float | None = None
    b1_log_coefficient: float | None = None
    # U_0 .. U_{N_B} at ``bits``, read once by ``first_returns``: the first
    # N_B + 1 of the pass at d >= 3, the unread stream at d <= 2, whose digit
    # budget is then checked before its first step.
    summands: Iterable[int] = field(default=(), repr=False, compare=False)
    bits: int = field(default=0, repr=False, compare=False)

    @property
    def recurrent(self) -> bool:
        return self.m is None

    @property
    def b_terms(self) -> int:
        """N_B, the last index of the B-series: N at d <= 2, min(N, B_TERMS)
        past."""
        return self.terms_used if self.recurrent else min(self.terms_used, B_TERMS)

    @cached_property
    def first_returns(self) -> tuple[list[int], int]:
        """The fixed-point B-series to N_B (``_fixed_first_returns``)."""
        return _fixed_first_returns(self.dimension, self.b_terms, self.summands, self.bits)

    @cached_property
    def partial_sum_raw(self) -> float:
        b, D = self.first_returns
        return sum(b) / 10**D

    @cached_property
    def p_direct(self) -> float | None:
        if self.recurrent:
            return None
        b, D = self.first_returns
        with decimal.localcontext(TAIL_CONTEXT):
            return float(decimal.Decimal(sum(b)).scaleb(-D) + _fit_b_tail(self.dimension, b, D))

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

def _normalized_a_summands_mp(d: int, N: int) -> tuple[Iterator[int], int]:
    """(U, bits), U yielding U_n = round(t_n 2^bits) for n <= N: the one
    summand stream of dimension d, for its constants and ``asym --kind A``.
    Past PREC, bits holds (d//2 + 2) log2 N bits for the (d/2) log2 N that
    t_N ~ N^{-d/2} loses and the rounding errors the recurrence carries
    (see _estimate), and 32 spare: at d = 5, N = 4000 the worst relative
    error is 5e-55, with 8 guard bits in their place 6e-33.  N past
    SUMMAND_BUDGET raises CapacityError before the stream starts."""
    check_budget("the summand stream to N = %d" % N, N, "terms", SUMMAND_BUDGET)
    bits = PREC + (d // 2 + 2) * N.bit_length() + 32
    return walks.recurrence_values("A", d, N, (2 * d) ** 2, bits), bits


def _summand_pass(d: int, N: int, keep: int = 0
                  ) -> tuple[tuple[int, int], int, int, list[int]]:
    """((sum U_n, sum n U_n), U_N, bits, [U_0 .. U_{keep-1}]) in one pass
    over the summand stream, which is read in chunks and never held past
    its first keep terms."""
    us, bits = _normalized_a_summands_mp(d, N)
    total = weighted = 0
    head = []
    size = 4096  # summands held at a time
    for n0 in range(0, N + 1, size):
        chunk = list(islice(us, size))
        total += sum(chunk)
        weighted += sum(map(mul, range(n0, n0 + len(chunk)), chunk))
        if n0 < keep:
            head += chunk[:keep - n0]
    return (total, weighted), chunk[-1], bits, head


def _power_log(n: int, s: decimal.Decimal, j: int) -> decimal.Decimal:
    """n^-s log^j n in the active decimal context, for s a multiple of 1/2,
    as every exponent of the constants is: an int power and a square root,
    at a fortieth of the cost of a general power (log 1 = 0 and j = 0
    give 1)."""
    if 2 * s % 1:
        raise ValueError("s = %s is not a multiple of 1/2" % s)
    whole, half = divmod(int(2 * s), 2)
    value = decimal.Decimal(n) ** -whole
    if half:
        value /= decimal.Decimal(n).sqrt()
    if j:
        value *= decimal.Decimal(n).ln() ** j
    return value


def zeta(s: decimal.Decimal, a: int, j: int = 0) -> decimal.Decimal:
    """sum_{n >= a} n^-s log^j n = (-1)^j zeta^(j)(s, a), the Hurwitz zeta
    function and its j-th s-derivative at an int a >= 1, in the active
    decimal context; at s < 1 the analytic continuation, as the integral
    term continues.  s = 1, the pole, raises ValueError.

    Terms n < M = max(a, ZETA_DIRECT) are summed directly; from M on,
    Euler-Maclaurin: int_M^oo f + f(M)/2 - sum_k B_2k/(2k)! f^(2k-1)(M),
    f(x) = x^-s log^j x, whose m-th derivative is x^(-s-m) P_m(log x) with
    P_0 = L^j and P_(m+1) = -(s + m) P_m + P_m' (Johansson, Numer.
    Algorithms 69, 2015).  The Bernoulli terms run until one falls below
    the context's last digit of the sum."""
    if s == 1:
        raise ValueError("zeta(s, a) has its pole at s = 1")
    M = max(a, ZETA_DIRECT)
    L = decimal.Decimal(M).ln()
    power = _power_log(M, s, 0)  # M^(-s-m) at the m-th derivative
    # int_M^oo x^-s log^j x dx = M^(1-s) sum_i j!/(j-i)! L^(j-i) / (s-1)^(i+1)
    total = sum(_power_log(n, s, j) for n in range(a, M)) + M * power * sum(
        math.perm(j, i) * L ** (j - i) / (s - 1) ** (i + 1) for i in range(j + 1))
    total += power * L**j / 2
    poly = [0] * j + [1]  # P_m's coefficients of L^0 .. L^j
    for m in count():
        poly = [-(s + m) * c + i * nxt for i, (c, nxt) in
                enumerate(zip(poly, poly[1:] + [0]), 1)]
        power /= M
        if m % 2:
            continue
        B = bernoulli(m + 2)
        term = power * sum(c * L ** i for i, c in enumerate(poly) if c) \
            * B.numerator / (B.denominator * math.factorial(m + 2))
        total -= term
        if abs(term) <= abs(total).scaleb(-decimal.getcontext().prec):
            return total


def _asym_tail_coeffs(d: int, weight: int) -> list[tuple[decimal.Decimal, decimal.Decimal]]:
    """(exponent s_k, coefficient c_k) with the tail summand approximated
    by sum_k c_k n^{-s_k}; weight 0 for m_d, 1 for m_tilde_d.  In the
    active decimal context."""
    half = decimal.Decimal(d) / 2
    scale = decimal.Decimal(d**d).sqrt() / 2 ** (d - 1) / PI ** half
    return [(half + k - weight, scale * c.numerator / c.denominator)
            for k, c in enumerate(a_coeffs(d, TAIL_TERMS))]


def _estimate(d: int, total: int, last: int, N: int, bits: int,
              weight: int) -> Estimate:
    """sum_n n^weight t_n, from total = sum_{n <= N} n^weight U_n and
    last = U_N of the fixed-point summands, plus the tail beyond N, the
    asymptotic integrand summed over n > N, in TAIL_CONTEXT."""
    if N < 8:
        raise ValueError("N too small to anchor the tail estimate")
    with decimal.localcontext(TAIL_CONTEXT):
        unit = decimal.Decimal(1 << bits)
        partial = total / unit
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
        edge = sum(c * _power_log(N, s, 0) for s, c in terms)
        delta = abs(last * N**weight / unit - edge)
        omitted = delta * N / (decimal.Decimal(d) / 2 + 4 - weight)
        # Noise: the int sum is exact.  Each recurrence step rounds by half a
        # unit of 2^-bits, carried on without growth as the recurrence is
        # stable: |U_n - t_n 2^bits| <= n units (measured <= 71 at N = 1e4,
        # d = 3..8), (N+1)^(2+w) units in the sum, plus 10^-DPS from rounding.
        value = partial + tail
        noise = (N + 1) ** (2 + weight) / unit + abs(value).scaleb(-DPS)
        bound = 2 * omitted + noise + abs(value) / 2**50
        return Estimate(float(value), float(bound))


def estimate_m(d: int, N: int) -> Estimate:
    """m_d from N+1 exact-series terms plus an asymptotic tail."""
    if d <= 2:
        raise DivergenceError("m_d diverges for d <= 2 (recurrent walk)")
    sums, last, bits, _ = _summand_pass(d, N)
    return _estimate(d, sums[0], last, N, bits, 0)


def estimate_m_tilde(d: int, N: int) -> Estimate:
    """m_tilde_d.  The weighted series converges for d >= 5; for d = 3 this
    is its zeta-regularised value, as the tail's Hurwitz zeta(1/2 + k, N+1)
    are the analytic continuations (the same at every N).  Even d <= 4
    has a pole there."""
    if d <= 2 or d == 4:
        raise DivergenceError("m_tilde_d diverges for d = 1, 2, 4")
    sums, last, bits, _ = _summand_pass(d, N)
    return _estimate(d, sums[1], last, N, bits, 1)


# ---------------------------------------------------------------------------
# First returns b_n = B_{2n}/(2d)^{2n}: fixed point for the bundles, float64
# for the asym tables at d >= 3.
# ---------------------------------------------------------------------------

def _fixed_first_returns(d: int, N: int, us: Iterable[int], bits: int
                         ) -> tuple[list[int], int]:
    """([0, beta_1, ..., beta_N], D), beta_n = b_n 10^D to within a few
    units (relative error below 1e-19 at N = 1000, d = 1..8): the exact
    route's Newton iteration (walks._first_returns_from_a) at D =
    walks.fixed_point_decimals(d, N) decimals, on V_n = floor(U_n 10^D /
    2^bits) from the summands U_0 .. U_N (``us``, read once, after the
    budget check on the packed operand)."""
    D = walks.fixed_point_decimals(d, N)
    if N == 0:
        return [0], D
    scale = 10**D
    digits = walks._first_returns_from_a(d, N, ((u * scale) >> bits for u in us), D)
    return [0, *map(int, digits)], D


def _solve(rows: list[list[decimal.Decimal]], rhs: list[decimal.Decimal]
           ) -> list[decimal.Decimal]:
    """x with rows x = rhs, by Gaussian elimination with partial pivoting,
    in the active decimal context."""
    m = [row + [r] for row, r in zip(rows, rhs)]
    n = len(m)
    for i in range(n):
        p = max(range(i, n), key=lambda r: abs(m[r][i]))
        m[i], m[p] = m[p], m[i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    x: list[decimal.Decimal] = []
    for i in reversed(range(n)):
        x.insert(0, (m[i][n] - sum(map(mul, m[i][i + 1:n], x))) / m[i][i])
    return x


def _fit_b_tail(d: int, b: list[int], D: int) -> decimal.Decimal:
    """sum_{n > N} b_n, N = len(b) - 1, from the fixed-point B-series
    alone: b_n = b[n] / 10^D is fitted at the FIT_ANCHORS anchors N j /
    FIT_ANCHORS, j = 1 .. FIT_ANCHORS, by as many terms c_kj n^{-d/2-k}
    log^j n, k = 0, 1, ..., with j = 0 at odd d and j = k .. 0, highest
    first, at even d, whose singularity carries logarithms; each term sums
    exactly over n > N as zeta(d/2 + k, N + 1, j).  Independent of m_d and
    of the A-side coefficient tables.  In the active decimal context."""
    N = len(b) - 1
    terms = [(k, j) for k in range(FIT_ANCHORS)
             for j in (range(k, -1, -1) if d % 2 == 0 else (0,))][:FIT_ANCHORS]
    anchors = [N * i // FIT_ANCHORS for i in range(1, FIT_ANCHORS + 1)]
    s = decimal.Decimal(d) / 2
    rows = [[_power_log(n, s + k, j) for k, j in terms] for n in anchors]
    coeffs = _solve(rows, [decimal.Decimal(b[n]).scaleb(-D) for n in anchors])
    return sum(c * zeta(s + k, N + 1, j) for c, (k, j) in zip(coeffs, terms))


def normalized_a_series(d: int, N: int) -> np.ndarray:
    """float64 array [A_0/(2d)^0, ..., A_{2N}/(2d)^{2N}] for the float
    B-series: walks.recurrence_values at a float q, the catalog's
    P-recurrence in float64, stable as A_{2n}/(2d)^{2n} is its dominant
    solution."""
    import numpy as np

    return np.fromiter(walks.recurrence_values("A", d, N, float((2 * d) ** 2)), float, N + 1)


def _series_inverse_float(a: np.ndarray) -> np.ndarray:
    """Power-series inverse of a (a[0] != 0) by Newton doubling with FFT
    products; O(N log N), relative coefficient error near machine eps.

    Both products of a step, a x and x (2 - a x), transform x at the same
    size, so x is transformed once: five FFTs per step, not six.  Each
    product keeps its operand order, rfft(a) rfft(x) and then
    rfft(x) rfft(2 - a x): swapped, the last bits of the printed
    constants move."""
    import numpy as np

    n = len(a)
    x = np.array([1.0 / a[0]])
    length = 1
    while length < n:
        length = min(2 * length, n)
        size = 1 << (length + len(x) - 2).bit_length()
        # Each operand is freed once it is spent, so that the largest step
        # holds no more than two spectra and a padded copy at a time.
        fx = np.fft.rfft(x, size)
        del x
        product = np.fft.rfft(a[:length], size)
        product *= fx
        two_minus = -np.fft.irfft(product, size)[:length]
        del product
        two_minus[0] += 2.0
        fx *= np.fft.rfft(two_minus, size)
        del two_minus
        x = np.fft.irfft(fx, size)[:length]
    return x[:n]


def _float_route_bytes(N: int) -> int:
    """Estimated peak bytes of the float B route at N: the float64
    A-series (8 (N + 1)) plus 40 bytes per point of the last, and largest,
    Newton transform of _series_inverse_float, whose size is
    2^bit_length(length + previous length - 2).  The inverse's own peak,
    traced by tracemalloc at N = 10^5 and 10^6, is 28 bytes per point;
    the rest is left to pocketfft's work buffers."""
    n = N + 1
    if n == 1:
        return 8
    previous = 1 << ((n - 1).bit_length() - 1)
    return 8 * n + 40 * (1 << (n + previous - 2).bit_length())


def normalized_b_series(d: int, N: int) -> np.ndarray:
    """float64 array [0, B_2/(2d)^2, ..., B_{2N}/(2d)^{2N}] via the series
    identity B = 1 - 1/A applied to the normalized A-series; CapacityError
    above FLOAT_ROUTE_BUDGET, before the series is made.  Its relative
    error grows like eps n^{d/2}; the exact column of ``asym --kind B`` at
    d >= 3 reads it, as the benchmark's references pin that noise."""
    check_budget("the float B series to N = %d" % N, _float_route_bytes(N), "bytes",
                 FLOAT_ROUTE_BUDGET)
    b = -_series_inverse_float(normalized_a_series(d, N))
    b[0] = 0.0
    return b


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


def empirical_b1(d: int, m: Estimate | float, n: int = 2000,
                 b: tuple[list[int], int] | None = None) -> float:
    """Empirical fit of the 1/n correction: n * (b_n (pi n)^(d/2) / b_d - 1)
    at index n, a second route to b_1 beside ``b_constants``, from the
    fixed-point B-series ``b`` (a bundle's ``first_returns``, reaching n)
    or, if None, one made here from the summand stream to n.

    The series is right to about 1e-22, so the fit reads the data at
    every d: at n = 2000, -1.7496 against b_1 = -1.7481 at d = 7 and
    -1.7802 against -1.7801 at d = 8 (the FFT float series it replaced
    read -2.26 there)."""
    if b is None:
        us, bits = _normalized_a_summands_mp(d, n)
        b = _fixed_first_returns(d, n, us, bits)
    series, D = b
    b_d = float(leading_constant_a(d)) / getattr(m, "value", m) ** 2
    ratio = series[n] / 10**D * (math.pi * n) ** (d / 2) / b_d
    return (ratio - 1.0) * n


def build_bundle(d: int, N: int) -> ConstantsBundle:
    """The constants bundle of dimension d >= 1 from N + 1 terms.

    d >= 3: one pass over the summand stream gives the int sums of m_d and
    m_tilde_d (d >= 5, and d = 3 regularised) and keeps the first N_B + 1
    summands, from which the B-series of p_d's direct route is made on
    first read.  d = 1, 2: the recurrent bundle, p = 1 beside the partial
    sum of the fixed-point B-series to N, whose summand stream is read
    then.  N past SUMMAND_BUDGET raises CapacityError before any step."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    if d <= 2:
        us, bits = _normalized_a_summands_mp(d, N)
        return ConstantsBundle(dimension=d, m=None, p=1.0, terms_used=N,
                               summands=us, bits=bits)
    sums, last, bits, head = _summand_pass(d, N, min(N, B_TERMS) + 1)
    m = _estimate(d, sums[0], last, N, bits, 0)
    m_tilde = _estimate(d, sums[1], last, N, bits, 1) if d != 4 else None
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
        b=b,
        b1=b1,
        b1_printed=b1_printed,
        b1_log_coefficient=b1_log_coefficient,
        terms_used=N,
        summands=tuple(head),
        bits=bits,
    )
