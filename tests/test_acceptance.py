"""Acceptance gate: the ten end-to-end criteria for this package.

Each test prints a single PASS line (visible even without -s) after all
its assertions hold; stated runtime budgets are asserted where given.
The table/OEIS literals are frozen here independently of the package's
embedded fixtures.
"""

import math
import time

import pytest
from mpmath import mp, mpf

import lattice_returns as lr
from lattice_returns import catalog
from lattice_returns.constants import normalized_b_series

TABLE_A = {
    1: (2, 6, 20, 70, 252, 924, 3432, 12870),
    2: (4, 36, 400, 4900, 63504, 853776, 11778624, 165636900),
    3: (6, 90, 1860, 44730, 1172556, 32496156, 936369720, 27770358330),
    4: (8, 168, 5120, 190120, 7939008, 357713664, 16993726464, 839358285480),
}
TABLE_B = {
    1: (2, 2, 4, 10, 28, 84, 264, 858),
    2: (4, 20, 176, 1876, 22064, 275568, 3584064, 47995476),
    3: (6, 54, 996, 22734, 577692, 15680628, 445162392, 13055851998),
    4: (8, 104, 2944, 108136, 4525888, 204981888, 9792786432, 486323201640),
}


def _announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_01_table_reproduction(capsys):
    t0 = time.perf_counter()
    checked = 0
    for d in (1, 2, 3, 4):
        a = lr.closed_walks(d, 8)
        b = lr.first_returns(d, 8)
        for n in range(1, 9):
            assert a.value(n) == TABLE_A[d][n - 1]
            assert b.value(n) == TABLE_B[d][n - 1]
            checked += 2
    elapsed = time.perf_counter() - t0
    assert checked == 64
    assert elapsed < 1.0
    _announce(capsys, f"PASS criterion 1 (table reproduction): 64/64 exact in {elapsed:.2f}s")


def test_criterion_02_dp_vs_formula(capsys):
    t0 = time.perf_counter()
    points = 0
    for d in (1, 2, 3, 4):
        a = lr.closed_walks(d, 4)
        for steps in range(0, 9):
            dp = lr.full_distribution_dp(d, steps)
            formula = lr.distribution_formula(d, steps)
            assert dp.counts == formula.counts
            points += len(dp.counts)
            # origin values against the closed-walk sequence
            origin = (0,) * d
            if steps % 2 == 0:
                assert dp.at(origin) == a.value(steps // 2)
            else:
                assert dp.at(origin) == 0
            # endpoint closed form in two dimensions
            if d == 2:
                for k in range(-steps - 1, steps + 2):
                    for l in range(-steps - 1, steps + 2):
                        assert lr.endpoint_count_2d(steps, k, l) == dp.at((k, l))
            # layer slices for d >= 2
            if d >= 2 and steps >= 1:
                for h in range(-steps, steps + 1):
                    lay = lr.layer(d, steps, h)
                    for point, count in lay.counts.sorted_items():
                        assert dp.at(point + (h,)) == count
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(capsys, f"PASS criterion 2 (DP vs formula): {points} points, d<=4, n<=8, in {elapsed:.1f}s")


def test_criterion_03_p_recurrences(capsys):
    t0 = time.perf_counter()
    n_max = 300
    for d in (3, 4, 5):
        x = lr.x_sequence(d, n_max + 3)  # ladder, not the recurrence itself
        rep = lr.check_p_recurrence(catalog.x_recurrence(d), x, n_max)
        assert rep.passed, rep.to_json_obj()
        a = lr.closed_walks(d, n_max + 3)
        rep = lr.check_p_recurrence(catalog.a_recurrence(d), a, n_max)
        assert rep.passed, rep.to_json_obj()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(capsys, f"PASS criterion 3 (P-recurrences): 6 recurrences, n<=300, exact, in {elapsed:.1f}s")


def test_criterion_04_ode_annihilation(capsys):
    t0 = time.perf_counter()
    order = 320  # leaves a verified horizon >= 300 for every operator
    count = 0
    for d in (1, 2, 3, 4, 5):
        fs = lr.series_from_sequence(lr.x_sequence_fast(d, order), order)
        rep = lr.check_ode(catalog.f_ode(d), fs, {"kind": "X", "d": d})
        assert rep.passed and rep.horizon >= 300, rep.to_json_obj()
        As = lr.series_from_sequence(lr.closed_walks_fast(d, order), order)
        rep = lr.check_ode(catalog.a_ode(d), As, {"kind": "A", "d": d})
        assert rep.passed and rep.horizon >= 300, rep.to_json_obj()
        count += 2
    elapsed = time.perf_counter() - t0
    _announce(capsys, f"PASS criterion 4 (ODE annihilation): {count} operators to order >= 300 in {elapsed:.1f}s")


def test_criterion_05_singularity_prediction(capsys):
    from fractions import Fraction

    for d in (3, 4, 5):
        ks = range(2 - d % 2, d + 1, 2)
        expected_f = {Fraction(1, k * k) for k in ks} | {Fraction(0)}
        roots, irrational = lr.ode_singularities(catalog.f_ode(d))
        assert roots == expected_f and not irrational
        expected_a = {Fraction(1, 4 * k * k) for k in ks} | {Fraction(0)}
        roots, irrational = lr.ode_singularities(catalog.a_ode(d))
        assert roots == expected_a and not irrational
    _announce(capsys, "PASS criterion 5 (singularities): F_d and A_d root sets exact for d=3,4,5")


def test_criterion_06_hadamard_and_reciprocal(capsys):
    order = 200
    f2 = lr.series_from_sequence(lr.x_sequence(2, order), order)
    one = lr.TruncatedSeries([1] + [0] * (order - 1))
    for d in (1, 2, 3, 4, 5):
        f_d = lr.series_from_sequence(lr.x_sequence_fast(d, order), order)
        a_d = lr.series_from_sequence(lr.closed_walks_fast(d, order), order)
        b_d = lr.series_from_sequence(lr.first_returns_fast(d, order), order)
        assert lr.hadamard(f_d, f2) == a_d
        assert (one - b_d) * a_d == one
    _announce(capsys, "PASS criterion 6 (identities): A_d = F_d*F_2 and (1-B_d)A_d = 1 to order 200, d<=5")


def test_criterion_07_lucas_congruences(capsys):
    t0 = time.perf_counter()
    checks = 0
    for d in (1, 2, 3, 4, 5):
        for p in (3, 5, 7, 11, 13):
            n_max = p * p + p
            assert lr.lucas_check(lr.x_sequence_fast(d, n_max), p, n_max).passed
            a = lr.closed_walks_fast(d, n_max)
            assert lr.lucas_check(a, p, n_max).passed
            # explicit vanishing window: A_{2n} = 0 mod p, (p-1)/2 < n <= p-1
            for n in range((p - 1) // 2 + 1, p):
                assert a.value(n) % p == 0
            checks += 2
    elapsed = time.perf_counter() - t0
    _announce(capsys, f"PASS criterion 7 (Lucas): {checks} sequence/prime pairs incl. vanishing in {elapsed:.1f}s")


def test_criterion_08_asymptotic_order(capsys):
    ratios = {}
    with mp.workdps(60):
        for d in (3, 4, 5):
            table = lr.closed_walks_fast(d, 512)

            def rel_err(n):
                exact = mpf(table.value(n)) * (mp.pi * n) ** (mpf(d) / 2) \
                    / mpf(2 * d) ** (2 * n)
                asym = lr.eval_A_asym(d, n, 4).normalized
                return abs(float(exact) / asym - 1.0)

            ratio = rel_err(512) / rel_err(256)
            ratios[d] = ratio
            assert 0.7 * 2**-5 < ratio < 1.3 * 2**-5
    shown = ", ".join("d=%d: %.4f" % (d, r) for d, r in ratios.items())
    _announce(capsys, f"PASS criterion 8 (asymptotic order): E(512)/E(256) = {shown} (target 2^-5 = 0.03125)")


def test_criterion_09_constants_consistency(capsys):
    t0 = time.perf_counter()
    res = lr.polya_probability(3, 100000)
    gap = abs(res.p_direct - res.p)
    assert gap < 1e-5
    m_n = res.m.value
    m_2n = lr.estimate_m(3, 200000).value
    stability = abs(m_n - m_2n)
    assert stability < 1e-6
    b_d, b1, _ = lr.b_constants(3, res.m, lr.estimate_m_tilde(3, 100000))
    b = normalized_b_series(3, 2000)
    ratio = float(b[2000]) * (math.pi * 2000) ** 1.5
    band = 5.0 * (1 + abs(b1)) / 2000
    deviation = abs(ratio - b_d)
    assert deviation < band
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(
        capsys,
        "PASS criterion 9 (constants): |p_direct - p_m| = %.1e, |m(N)-m(2N)| = %.1e, "
        "B-ratio dev %.1e < band %.1e, in %.0fs" % (gap, stability, deviation, band, elapsed),
    )


def test_criterion_10_d2_log_regime(capsys):
    grid = [1000, 1778, 3162, 5623, 10000]
    b = normalized_b_series(2, grid[-1])
    deviations = []
    for n in grid:
        scaled = float(b[n]) * n * math.log(n) ** 2
        deviations.append(abs(scaled - math.pi))
    for earlier, later in zip(deviations, deviations[1:]):
        assert later < earlier
    # convergence is only logarithmic; just pin the deviation under pi itself
    assert deviations[-1] < math.pi
    shown = ", ".join("%.4f" % d for d in deviations)
    _announce(capsys, f"PASS criterion 10 (d=2 log regime): |scaled - pi| = [{shown}] strictly decreasing")
