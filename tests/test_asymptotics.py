"""Asymptotic expansion coefficients and evaluators.

The r/a/g coefficient values are frozen as exact rationals (evaluated by
hand from the degree-4/6 polynomial formulas); the convergence-order
tests then tie the evaluators back to exact enumeration.
"""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import lattice_returns as lr
from lattice_returns.asymptotics import MAX_ORDER, a_coeffs, correction_factor
from lattice_returns.errors import DependencyError, UnsupportedOrderError

# ---------------------------------------------------------------------------
# exact coefficient values
# ---------------------------------------------------------------------------


def test_leading_constants():
    # a_d = d^(d/2) / 2^(d-1)
    assert float(lr.leading_constant_a(1)) == 1.0
    assert float(lr.leading_constant_a(2)) == 1.0
    assert abs(float(lr.leading_constant_a(3)) - 3 * math.sqrt(3) / 4) < 1e-15
    assert float(lr.leading_constant_a(4)) == 2.0
    assert abs(float(lr.leading_constant_a(5)) - 25 * math.sqrt(5) / 16) < 1e-15
    assert lr.leading_constant_a(3).squared == Fraction(27, 16)
    assert lr.leading_constant_a(5).squared == Fraction(3125, 256)


def test_g_coeffs_frozen():
    assert [lr.g_coeff(k) for k in range(1, 5)] == [
        Fraction(-1, 8),
        Fraction(1, 128),
        Fraction(5, 1024),
        Fraction(-21, 32768),
    ]


def test_r_coeffs_d3_frozen():
    # hand-evaluated: r_1 = -1/4, r_2 = 8*3/384, r_3 = 2*48/3072,
    # r_4 = 40320/1474560
    assert [lr.r_coeff(m, 3) for m in range(1, 5)] == [
        Fraction(-1, 4), Fraction(1, 16), Fraction(1, 32), Fraction(7, 256)]


def test_a_coeffs_d3_frozen():
    assert [lr.a_coeff(m, 3) for m in range(1, 5)] == [
        Fraction(-3, 8), Fraction(13, 128), Fraction(27, 1024),
        Fraction(723, 32768)]


def _r_reference(m, d):
    # independent transcription of the degree-4/degree-6 polynomial forms
    d = Fraction(d)
    if m == 1:
        return (1 - d) / 8
    if m == 2:
        return (d**2 - 1) * (2 * d - 3) / 384
    if m == 3:
        return (d - 1) * (6 * d**3 - 19 * d**2 + 14 * d + 15) / 3072
    return (d - 1) * (
        20 * d**5 + 2504 * d**4 - 10241 * d**3 + 9679 * d**2 + 309 * d + 945
    ) / 1474560


def _a_reference(m, d):
    d = Fraction(d)
    if m == 1:
        return -d / 8
    if m == 2:
        return (2 * d**3 - 3 * d**2 + 4 * d) / 384
    if m == 3:
        return d**2 * (2 * d**2 - 9 * d + 12) / 1024
    return d * (
        20 * d**5 + 2484 * d**4 - 13105 * d**3 + 21480 * d**2 - 11440 * d - 384
    ) / 1474560


@pytest.mark.parametrize("d", range(1, 9))
def test_r_and_a_coeffs_match_reference(d):
    for m in range(1, 5):
        assert lr.r_coeff(m, d) == _r_reference(m, d)
        assert lr.a_coeff(m, d) == _a_reference(m, d)


def test_a_is_g_convolution_of_r():
    # a_m = r_m + g_1 r_{m-1} + ... + g_m, with r_0 = 1
    for d in range(1, 9):
        for m in range(1, 5):
            acc = lr.r_coeff(m, d)
            for k in range(1, m):
                acc += lr.g_coeff(k) * lr.r_coeff(m - k, d)
            acc += lr.g_coeff(m)
            assert lr.a_coeff(m, d) == acc


def test_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        lr.r_coeff(13, 3)
    with pytest.raises(UnsupportedOrderError):
        lr.a_coeff(13, 3)
    with pytest.raises(UnsupportedOrderError):
        lr.g_coeff(13)
    with pytest.raises(UnsupportedOrderError):
        a_coeffs(3, MAX_ORDER + 1)


def test_a_coeffs_d1_continue_central_binomial():
    # C(2n,n) sqrt(pi n)/4^n = 1 - 1/(8n) + 1/(128n^2) + 5/(1024n^3)
    # - 21/(32768n^4) - 399/(262144n^5) + ..., the standard expansion
    assert a_coeffs(1, 8) == [
        1, Fraction(-1, 8), Fraction(1, 128), Fraction(5, 1024),
        Fraction(-21, 32768), Fraction(-399, 262144), Fraction(869, 4194304),
        Fraction(39325, 33554432), Fraction(-334477, 2147483648)]
    assert a_coeffs(3, MAX_ORDER)[:9] == a_coeffs(3, 8)


@pytest.mark.parametrize("d", range(3, 9))
def test_a_coeffs_higher_orders_match_exact_counts(d):
    # relative error of the M-term expansion against exact A_{2n} at
    # n = 100; eight orders gain 5e3 (d = 8) to 1e6 (d = 3) over four
    n = 100
    with mp.workdps(50):
        exact = (mpf(lr.closed_walks(d, n).value(n)) * (mp.pi * n) ** (mpf(d) / 2)
                 / mpf(2 * d) ** (2 * n) / (mp.sqrt(mpf(d) ** d) / 2 ** (d - 1)))

        def rel_err(M):
            corr = correction_factor("a", d, n, M)
            return abs(exact * corr.denominator / corr.numerator - 1)

        e4, e8 = rel_err(4), rel_err(8)
        assert e8 <= mpf("1e-11")
        assert e8 * 1000 <= e4


def test_correction_factor_exact():
    # 1 + a_1/n + ... + a_4/n^4 at n = 10, d = 3
    expected = (
        1
        + Fraction(-3, 8) / 10
        + Fraction(13, 128) / 100
        + Fraction(27, 1024) / 1000
        + Fraction(723, 32768) / 10000
    )
    assert correction_factor("a", 3, 10, 4) == expected
    assert correction_factor("a", 3, 10, 0) == 1
    with pytest.raises(ValueError):
        correction_factor("b", 3, 10, 2)


# ---------------------------------------------------------------------------
# evaluation against exact counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 4, 5])
def test_eval_A_asym_error_scales_like_n5(d):
    table = lr.closed_walks_fast(d, 512)

    def rel_err(n):
        asym = lr.eval_A_asym(d, n, 4)
        exact = float(
            Fraction(table.value(n) * 10**40, (2 * d) ** (2 * n))
        ) / 10**40 * (math.pi * n) ** (d / 2)
        return abs(exact / asym.normalized - 1.0)

    e256, e512 = rel_err(256), rel_err(512)
    assert 0.0 < e512 < e256
    assert 0.7 * 2**-5 < e512 / e256 < 1.3 * 2**-5


def test_eval_A_asym_value_overflow_is_graceful():
    v = lr.eval_A_asym(3, 5000, 4)
    assert v.value == math.inf  # 36^5000 overflows float64
    assert v.log_value > 0 and 1.0 < v.normalized < 1.31


def test_eval_X_asym_matches_exact():
    x = lr.x_sequence_fast(3, 100)
    v = lr.eval_X_asym(3, 100, 4)
    exact_norm = float(Fraction(x.value(100), 3 ** 200)) * (math.pi * 100)
    assert abs(exact_norm / v.normalized - 1.0) < 1e-9


def test_eval_B_asym_d1_against_closed_form():
    # relative error must fall like 1/n^3 with the two printed corrections
    for n, tol in ((8, 3e-4), (64, 8e-7), (512, 2e-9)):
        exact = lr.first_return_closed_form_1d(n)
        approx = lr.eval_B_asym(1, n, None)
        assert abs(approx.value / exact - 1.0) < tol


def test_eval_B_asym_d2_plumbing():
    v = lr.eval_B_asym(2, 1000, None)
    # normalized value: pi * (log n / (log n + gamma + 4 log 2))^2
    gamma = 0.5772156649015329
    ln = math.log(1000)
    expected = math.pi * (ln / (ln + gamma + 4 * math.log(2))) ** 2
    assert abs(v.normalized - expected) < 1e-12


def test_eval_B_asym_requires_constants_for_d3():
    with pytest.raises(DependencyError):
        lr.eval_B_asym(3, 100, None)


def test_eval_B_asym_d3_with_bundle():
    bundle = lr.build_bundle(3, 4000)
    v = lr.eval_B_asym(3, 2000, bundle)
    assert abs(v.normalized - bundle.b * (1 + bundle.b1 / 2000)) < 1e-12


def test_eval_B_asym_d4_log_term():
    bundle = lr.build_bundle(4, 4000)
    n = 500
    v = lr.eval_B_asym(4, n, bundle)
    expected = bundle.b * (1 + bundle.b1_log_coefficient * math.log(n) / n)
    assert abs(v.normalized - expected) < 1e-12


def test_asym_value_pair_form():
    v = lr.eval_A_asym(4, 50, 2)
    assert v.normalization
    # log-space value must be consistent with the normalized mantissa
    back = math.exp(v.log_value) * (math.pi * 50) ** 2 / 8.0 ** 100
    assert abs(back / v.normalized - 1.0) < 1e-9
