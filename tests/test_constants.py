"""Numerical constants: m_d, m~_d, Polya probabilities, B-constants.

m_3 and p_3 have well-known decimal expansions, so those are frozen as
literature anchors; everything else is checked by two-route consistency
(N-stability, float-vs-exact series) and by the error bounds against
reference values from independent routes.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from mpmath import mp, mpf

import lattice_returns as lr
from lattice_returns import constants, walks
from lattice_returns.constants import (
    _fit_b_tail,
    _normalized_a_summands_mp,
    normalized_a_series,
    normalized_b_series,
)
from lattice_returns.errors import CapacityError, DependencyError, DivergenceError

M3_LITERATURE = 1.5163860591519780
P3_LITERATURE = 0.3405373295509991


def test_m3_matches_literature():
    est = lr.estimate_m(3, 20000)
    assert abs(est.value - M3_LITERATURE) < 1e-13
    assert est.error_bound < 1e-12


def test_m_estimates_stable_in_N():
    a = lr.estimate_m(3, 4000).value
    b = lr.estimate_m(3, 8000).value
    assert abs(a - b) < 1e-12
    a5 = lr.estimate_m(5, 4000).value
    b5 = lr.estimate_m(5, 8000).value
    assert abs(a5 - b5) < 1e-12


# 27-digit references from perfbench/refs.json: m_3 from Watson's (1939)
# Gamma-function closed form, the rest from the Bessel integrals
# m_d = int_0^inf (e^{-t/d} I_0(t/d))^d dt and
# m~_d = 1/2 int_0^inf t (e^{-t/d} I_0(t/d))^{d-1} e^{-t/d} I_1(t/d) dt.
M_REF = {
    3: "1.51638605915197801815601216",
    4: "1.239467121848481712678697665",
    5: "1.156308124840231178707135122",
    6: "1.116963373226671843685644332",
    7: "1.093906315587847996683271824",
}
M_TILDE_REF = {
    5: "0.3893166577710599873265322814",
    6: "0.1985922418989566050898033291",
    7: "0.1364399269691860877817443325",
}


@pytest.mark.parametrize("d", range(3, 8))
def test_error_bound_covers_reference(d):
    # the worst |estimate - ref| / error_bound over this grid is 0.52
    for N in (8, 20, 50, 400):
        cases = [(lr.estimate_m, M_REF)]
        if d >= 5:
            cases.append((lr.estimate_m_tilde, M_TILDE_REF))
        for estimate, refs in cases:
            est = estimate(d, N)
            with mp.workdps(40):
                err = abs(mpf(est.value) - mpf(refs[d]))
            assert err <= est.error_bound, (N, estimate.__name__)


@pytest.mark.parametrize("d", [9, 12])
def test_error_bound_covers_the_bessel_integral_past_the_printed_odes(d):
    # m_d from the derived recurrences against an independent route, the
    # Bessel integral m_d = int_0^inf (e^{-t/d} I_0(t/d))^d dt
    est = lr.build_bundle(d, 10**4).m

    def integrand(t):
        return (mp.exp(-t / d) * mp.besseli(0, t / d)) ** d

    with mp.workdps(30):
        ref = mp.quad(integrand, [0, 1, 10, 100, 1000, 10**4, 10**5, mp.inf])
        err = abs(mpf(est.value) - ref)
    assert err <= est.error_bound


def test_error_bound_is_honest_at_small_N():
    # the bound at N must cover the distance to a far-more-converged value
    ref = lr.estimate_m(3, 50000).value
    for N in (500, 2000, 8000):
        est = lr.estimate_m(3, N)
        assert abs(est.value - ref) <= est.error_bound


def test_m_divergence_guards():
    with pytest.raises(DivergenceError):
        lr.estimate_m(2, 1000)
    with pytest.raises(DivergenceError):
        lr.estimate_m_tilde(4, 1000)
    with pytest.raises(ValueError):
        lr.estimate_m(3, 4)


def test_m_tilde_5_stable():
    a = lr.estimate_m_tilde(5, 4000).value
    b = lr.estimate_m_tilde(5, 8000).value
    assert abs(a - b) < 1e-12
    assert 0.38 < a < 0.40  # frozen bracket from converged runs


def test_polya_p3():
    res = lr.polya_probability(3, 20000)
    assert not res.recurrent
    assert abs(res.p - P3_LITERATURE) < 1e-12
    assert abs(res.p_direct - res.p) < 1e-9
    # without the tail correction the raw partial sum is much farther away
    assert abs(res.partial_sum_raw - res.p) > 100 * abs(res.p_direct - res.p)


def test_polya_low_dimensions_recurrent():
    for d in (1, 2):
        res = lr.polya_probability(d, 400)
        assert res.recurrent and res.p == 1.0
        assert res.m is None
        assert res.partial_sum_raw < 1.0  # diverges, so any prefix is < 1


def test_polya_p4_p5_brackets():
    # frozen from converged two-route runs (agree to ~1e-11)
    assert abs(lr.polya_probability(4, 20000).p - 0.19320167322) < 1e-8
    assert abs(lr.polya_probability(5, 20000).p - 0.13517860982) < 1e-8


# ---------------------------------------------------------------------------
# normalized series (float64 route)
# ---------------------------------------------------------------------------


def test_normalized_a_series_against_exact():
    # d = 9 runs the float recurrence like the others: measured 7.5e-14
    for d in (1, 2, 3, 4, 5, 6, 7, 9):
        arr = normalized_a_series(d, 120)
        table = lr.closed_walks(d, 120)
        for n in (0, 1, 17, 60, 120):
            with mp.workdps(30):
                exact = mpf(table.value(n)) / mpf(2 * d) ** (2 * n)
            assert abs(float(exact) - arr[n]) <= 1e-12 * float(exact)


def _worst_summand_error(d: int, N: int, ns) -> Fraction:
    """max over ns of |U_n / (A_{2n} 2^bits / (2d)^{2n}) - 1| for the
    fixed-point summands (U, bits), in exact rationals; A comes from the
    exact recurrence."""
    us, bits = _normalized_a_summands_mp(d, N)
    us = list(us)
    assert len(us) == N + 1
    exact = lr.closed_walks_fast(d, N).values
    q = (2 * d) ** 2
    return max(abs(Fraction(us[n] * q**n, exact[n] << bits) - 1) for n in ns)


@pytest.mark.parametrize("d", [3, 4, 5, 6, 9])
def test_mp_summands_against_exact(d):
    # d <= 5: the fixed-point recurrence at n <= 2000, every 7th term and
    # the last; d = 6 and 9, past the printed ODEs: every term
    N = 2000 if d <= 5 else 200
    ns = [*range(0, N, 7 if d <= 5 else 1), N]
    assert _worst_summand_error(d, N, ns) < Fraction(1, 10**35)


def test_summand_stream_budget():
    # the stream is lazy: 10^7 terms are admitted without a step run
    assert constants.SUMMAND_BUDGET == 10**7
    _normalized_a_summands_mp(3, 10**7)
    with pytest.raises(CapacityError, match="^the summand stream to N = 10000001 needs"):
        _normalized_a_summands_mp(3, 10**7 + 1)


def test_summand_guard_bits():
    # every summand keeps the 136-bit precision; with 8 guard bits in
    # place of the N- and d-dependent ones the worst error is 6e-33 (5e-55
    # with them)
    assert _worst_summand_error(5, 4000, range(4001)) < Fraction(1, 10**40)


def test_summands_ignore_ambient_precision():
    # the summands carry the fixed PREC = 136 bits plus guard bits
    # (the stream is consumed under each precision)
    with mp.workdps(15):
        us, bits = _normalized_a_summands_mp(5, 400)
        low = list(us), bits
    with mp.workdps(60):
        us, bits = _normalized_a_summands_mp(5, 400)
        high = list(us), bits
    assert low == high
    assert constants.PREC == 136


def test_prec_is_mpmaths_reading_of_dps():
    # PREC is written out so that the module loads without mpmath
    from mpmath.libmp import dps_to_prec

    assert constants.PREC == dps_to_prec(constants.DPS)


def test_float_route_budget_names_the_last_newton_transform(monkeypatch):
    # the estimate's transform size is the largest one the inverse makes
    import numpy as np

    sizes = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, n: sizes.append(n) or rfft(x, n))
    for N in (0, 1, 2, 7, 8, 300, 1023, 1024, 5000):
        sizes.clear()
        constants._series_inverse_float(np.ones(N + 1))
        assert constants._float_route_bytes(N) == 8 * (N + 1) + 40 * max(sizes, default=0)
    budget = constants.FLOAT_ROUTE_BUDGET
    assert constants._float_route_bytes(10**6) <= budget
    assert constants._float_route_bytes(2**23) <= budget < constants._float_route_bytes(2**23 + 1)
    with pytest.raises(CapacityError, match="N = 8388609 .* budget 1.07e"):
        normalized_b_series(3, 2**23 + 1)
    with pytest.raises(CapacityError):
        lr.build_bundle(3, 2**23 + 1)


@pytest.mark.parametrize("d", [3, 6, 9])
def test_bundle_float_series_correctly_rounded(d, monkeypatch):
    # the B-series of the direct route inverts each summand correctly
    # rounded to float64
    seen = []
    b_series = constants._b_series
    monkeypatch.setattr(constants, "_b_series", lambda a: seen.append(a) or b_series(a))
    lr.build_bundle(d, 300)
    q = (2 * d) ** 2
    exact = [float(Fraction(a, q**n)) for n, a in enumerate(lr.closed_walks(d, 300).values)]
    assert len(seen) == 1 and seen[0].tolist() == exact


def test_normalized_b_series_against_exact():
    # measured worst relative errors at n <= 300: 8e-13 (d=2), 2e-12 (d=3),
    # 3.4e-11 (d=4, absolute scale ~1e-17); bound them all by 1e-10, six
    # orders below anything the series is used to measure
    for d in (2, 3, 4):
        b = normalized_b_series(d, 300)
        table = lr.first_returns(d, 300)
        worst = 0.0
        for n in range(1, 301):
            with mp.workdps(30):
                exact = mpf(table.value(n)) / mpf(2 * d) ** (2 * n)
                worst = max(worst, abs(float((mpf(b[n]) - exact) / exact)))
        assert worst < 1e-10
        assert b[0] == 0.0


@lru_cache(maxsize=None)
def _exact_b_1000(d):
    return lr.first_returns_fast(d, 1000)


# Worst relative error of the float B-series over n <= 400 against exact
# first returns, measured 1.4e-9, 1.2e-8, 5.0e-7 and 1.7e-6 for d = 5..8:
# the FFT Newton inverse loses accuracy as d grows (from correctly rounded
# A input too).  The bounds hold that level, about twice the measurement.
B_SERIES_ERROR = {5: 3e-9, 6: 3e-8, 7: 1e-6, 8: 4e-6}


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_normalized_b_series_error_at_large_d(d):
    b = normalized_b_series(d, 400)
    table = _exact_b_1000(d)
    worst = 0.0
    with mp.workdps(30):
        for n in range(1, 401):
            exact = mpf(table.value(n)) / mpf(2 * d) ** (2 * n)
            worst = max(worst, abs(float((mpf(b[n]) - exact) / exact)))
    assert worst < B_SERIES_ERROR[d]


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_b1_matches_the_exact_fit(d):
    # n (B_2n (pi n)^(d/2) / ((2d)^(2n) b_d) - 1) from exact first returns
    # at n = 1000: -2.2993, -1.8274, -1.7510, -1.7804, within 0.011 of
    # b_1 = -d/8 - d m~_d/m_d for odd and even d alike.
    bundle = lr.build_bundle(d, 4000)
    n = 1000
    with mp.workdps(30):
        ratio = (mpf(_exact_b_1000(d).value(n)) / mpf(2 * d) ** (2 * n)
                 * (mp.pi * n) ** (mpf(d) / 2) / bundle.b)
        fit = float((ratio - 1) * n)
    assert abs(bundle.b1 - fit) < 0.02


def test_b_tail_fit_improves_partial_sum():
    d = 3
    b = normalized_b_series(d, 2000)
    raw = float(b.sum())
    p_ref = lr.polya_probability(d, 50000).p
    with mp.workdps(40):
        corrected = raw + float(_fit_b_tail(d, b, 2000))
    assert abs(corrected - p_ref) < abs(raw - p_ref) / 100


# ---------------------------------------------------------------------------
# b-constants
# ---------------------------------------------------------------------------


def test_b_constants_d3():
    m = lr.estimate_m(3, 20000)
    with pytest.raises(DependencyError):
        lr.b_constants(3, m)
    # the zeta-regularised m~_3, the same at every N
    mt = lr.estimate_m_tilde(3, 20000)
    assert abs(mt.value - (-0.5392381750815815)) < 1e-15
    assert mt.value == lr.estimate_m_tilde(3, 2000).value
    b, b1, b1_log_coefficient = lr.b_constants(3, m, mt)
    assert abs(b - float(lr.leading_constant_a(3)) / m.value**2) < 1e-15
    # -3/8 - 3 m~_3/m_3 - 81/(8 pi^2 m_3^2), where the empirical 1/n
    # coefficient converges (test_empirical_b1_fit_frozen)
    assert abs(b1 - 0.2456777) < 1e-7
    assert b1_log_coefficient is None
    # the printed closed form ships as a labelled field, off every path
    bundle = lr.build_bundle(3, 20000)
    assert (bundle.b1, bundle.m_tilde) == (b1, None)
    assert abs(bundle.b1_printed - (-0.149134005531)) < 1e-9
    assert lr.build_bundle(5, 2000).b1_printed is None


def test_b_constants_d4_log_coefficient():
    m = lr.estimate_m(4, 20000)
    _, b1, b1_log_coefficient = lr.b_constants(4, m)
    assert b1 is None
    assert abs(b1_log_coefficient - (-8.0 / (math.pi**2 * m.value))) < 1e-15


def test_b_constants_d5_needs_m_tilde():
    m = lr.estimate_m(5, 8000)
    with pytest.raises(DependencyError):
        lr.b_constants(5, m)
    mt = lr.estimate_m_tilde(5, 8000)
    _, b1, _ = lr.b_constants(5, m, mt)
    assert abs(b1 - (-5.0 / 8 - 5 * mt.value / m.value)) < 1e-15


def test_b_constants_divergent_guard():
    with pytest.raises(DivergenceError):
        lr.b_constants(2, 1.0)


def test_empirical_b1_fit_frozen():
    # measured 1/n coefficient of the d=3 normalized B ratio; flat in n
    # (0.24568 +- 5e-5 over n in [1000, 64000]), as the derived b_1 is;
    # the printed closed form -0.14913 is not
    m = lr.estimate_m(3, 20000)
    y = lr.empirical_b1(3, m, n=2000)
    assert abs(y - 0.2457) < 0.01


def test_empirical_b1_matches_printed_formula_for_d5():
    # for d = 5 the printed odd-d formula does agree with the data
    m = lr.estimate_m(5, 20000)
    mt = lr.estimate_m_tilde(5, 20000)
    _, b1, _ = lr.b_constants(5, m, mt)
    y = lr.empirical_b1(5, m, n=2000)
    assert abs(y - b1) < 0.05


def test_bundle_makes_one_summand_pass(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name,) + args)
            return fn(*args)
        return wrapper

    def forbidden(*args):
        raise AssertionError("the float series must come from the summands")

    monkeypatch.setattr(constants, "_normalized_a_summands_mp",
                        counted("summands", constants._normalized_a_summands_mp))
    monkeypatch.setattr(walks, "closed_walks", counted("ladder", walks.closed_walks))
    for name in ("normalized_a_series", "normalized_b_series"):
        monkeypatch.setattr(constants, name, forbidden)

    bundle = lr.build_bundle(5, 400)
    assert calls.count(("summands", 5, 400)) == 1
    assert bundle.m == lr.estimate_m(5, 400)
    assert bundle.m_tilde == lr.estimate_m_tilde(5, 400)

    calls.clear()
    lr.polya_probability(3, 400)
    assert [c for c in calls if c[0] == "summands"] == [("summands", 3, 400)]

    calls.clear()
    bundle9 = lr.build_bundle(9, 60)
    # the ladder gives only the seeds of the order-5 A-recurrence
    assert [c for c in calls if c[:2] == ("ladder", 9)] == [("ladder", 9, 4)]
    assert bundle9.m == lr.estimate_m(9, 60)
    assert bundle9.m_tilde == lr.estimate_m_tilde(9, 60)


def test_build_bundle_shapes():
    bundle = lr.build_bundle(3, 4000)
    obj = bundle.to_json_obj()
    assert obj["dimension"] == 3
    assert obj["m_d"]["error_bound_kind"] == "heuristic"
    assert obj["m_tilde_d"] is None
    assert obj["b_1_log_coefficient"] is None
    assert "partial_sum_raw" not in obj
    assert bundle.partial_sum_raw == lr.polya_probability(3, 4000).partial_sum_raw
    b5 = lr.build_bundle(5, 4000)
    assert b5.m_tilde is not None
    b2 = lr.build_bundle(2, 1000)
    assert b2.recurrent and b2.m is None and b2.p == 1.0


def test_bundle_ratio_band_d345():
    # exact-sequence ratio at n = 2000 within 5*(1+|b_1|)/n of b_d
    for d in (3, 4, 5):
        bundle = lr.build_bundle(d, 20000)
        b = normalized_b_series(d, 2000)
        ratio = float(b[2000]) * (math.pi * 2000) ** (d / 2)
        b1 = bundle.b1 if bundle.b1 is not None else bundle.b1_log_coefficient
        band = 5.0 * (1 + abs(b1)) / 2000
        assert abs(ratio - bundle.b) < band
