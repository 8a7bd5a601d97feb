"""Truncated series algebra, P-recurrence/ODE checking, congruences.

Sensitivity tests perturb one value/coefficient and require the checker
to fail at the right place, so a silently-vacuous verifier cannot pass.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_returns as lr
from lattice_returns import catalog, modular
from lattice_returns.errors import InvertibilityError
from lattice_returns.holonomy import TruncatedSeries, is_prime
from lattice_returns.kernel import UniPoly

# ---------------------------------------------------------------------------
# series algebra
# ---------------------------------------------------------------------------

small_series = st.lists(
    st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6)),
    min_size=1, max_size=8,
).map(TruncatedSeries)


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_series_ring_axioms(f, g, h):
    assert (f + g).coeffs == (g + f).coeffs
    assert (f * g).coeffs == (g * f).coeffs
    lhs = f * (g + h)
    rhs = f * g + f * h
    assert lhs.coeffs[: lhs.order] == rhs.coeffs[: rhs.order]


@settings(max_examples=60)
@given(small_series, small_series)
def test_hadamard_is_termwise(f, g):
    had = lr.hadamard(f, g)
    assert had.coeffs == [a * b for a, b in zip(f.coeffs, g.coeffs)]
    assert lr.hadamard(g, f).coeffs == had.coeffs


def test_truncation_order_semantics():
    f = TruncatedSeries([1, 2, 3, 4])
    g = TruncatedSeries([1, 1])
    assert (f * g).order == 2
    assert (f + g).order == 2
    assert f.truncate(2).coeffs == [1, 2]
    assert f.differentiate().coeffs == [2, 6, 12]


def test_geometric_series_inverse():
    geo = TruncatedSeries([1] * 10)
    inv = lr.reciprocal_series(geo)
    assert inv.coeffs == [1, -1] + [0] * 8


@settings(max_examples=40)
@given(small_series)
def test_reciprocal_is_an_involution(f):
    if f.coeffs[0] == 0:
        with pytest.raises(InvertibilityError):
            lr.reciprocal_series(f)
        return
    twice = lr.reciprocal_series(lr.reciprocal_series(f))
    assert twice.coeffs == f.coeffs
    one = TruncatedSeries([Fraction(1)] + [Fraction(0)] * (f.order - 1))
    assert (lr.reciprocal_series(f) * f).coeffs == one.coeffs


def test_integer_series_stay_integer():
    a = TruncatedSeries([1, 6, 90, 1860])
    b = TruncatedSeries([Fraction(2, 2), -2, 3, 0])
    assert all(type(c) is int for c in b.coeffs)
    assert all(type(c) is int for c in (a * b).coeffs)
    inv = lr.reciprocal_series(a)
    assert all(type(c) is int for c in inv.coeffs)
    assert (inv * a).coeffs == [1, 0, 0, 0]


def _schoolbook_reciprocal(coeffs):
    # The triangular recurrence in Python ints; c0 = +-1 is its own inverse.
    out = [coeffs[0]]
    for n in range(1, len(coeffs)):
        out.append(-coeffs[0] * sum(coeffs[k] * out[n - k]
                                    for k in range(1, n + 1)))
    return out


@pytest.mark.parametrize("d", range(1, 9))
def test_integral_reciprocal_of_a_series(d):
    a = list(lr.closed_walks(d, 300).values)
    assert lr.reciprocal_series(TruncatedSeries(a)).coeffs == _schoolbook_reciprocal(a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, -1]),
       st.lists(st.integers(-2**200, 2**200), max_size=79))
def test_integral_reciprocal_matches_schoolbook(c0, tail):
    coeffs = [c0] + tail
    inv = lr.reciprocal_series(TruncatedSeries(coeffs))
    assert inv.coeffs == _schoolbook_reciprocal(coeffs)


def test_integral_reciprocal_past_the_accumulation_chunk():
    # 1/(1 - z - z^2) = sum F_{n+1} z^n; N = 2500 sums more than 2^11
    # products of residues per coefficient.
    N = 2500
    inv = lr.reciprocal_series(TruncatedSeries([1, -1, -1] + [0] * (N - 3)))
    fib = [1, 1]
    while len(fib) < N:
        fib.append(fib[-1] + fib[-2])
    assert inv.coeffs == fib


@pytest.mark.parametrize("N", range(1, 41))
def test_integral_reciprocal_near_the_majorant(N):
    # f_k = -(2^(30k) - 1) puts the inverse within a factor 2 of the
    # majorant bound 2^(n-1) 2^(30n), so one prime fewer than chosen
    # reconstructs wrong values for some of these N.
    coeffs = [1] + [-((1 << (30 * k)) - 1) for k in range(1, N)]
    inv = lr.reciprocal_series(TruncatedSeries(coeffs))
    assert inv.coeffs == _schoolbook_reciprocal(coeffs)


def test_integral_reciprocal_leaves_huge_bounds_to_the_exact_loop():
    from lattice_returns import holonomy

    # Primes in (2^25, 2^26) cover 25 * 2^20 bits only with up to 2^20 of them.
    assert modular.crt_primes(25 << 20) is None
    f1 = 1 << (25 << 20)
    assert holonomy._integral_reciprocal([1, f1]) is None
    assert lr.reciprocal_series(TruncatedSeries([1, f1])).coeffs == [1, -f1]


def test_series_from_sequence_offsets():
    a = lr.closed_walks(2, 6)
    s = lr.series_from_sequence(a, 5)
    assert s.coeffs == [1, 4, 36, 400, 4900]
    b = lr.first_returns(2, 6)
    sb = lr.series_from_sequence(b, 5)
    assert sb.coeffs == [0, 4, 20, 176, 1876]
    with pytest.raises(ValueError):
        lr.series_from_sequence(a, 9)


# ---------------------------------------------------------------------------
# recurrence checking
# ---------------------------------------------------------------------------


def test_check_p_recurrence_passes_on_true_data():
    x = lr.x_sequence(3, 43)
    rep = lr.check_p_recurrence(catalog.x_recurrence(3), x, 40)
    assert rep.passed and rep.status == "pass"
    assert rep.horizon == 40
    assert rep.first_failure is None


def test_check_p_recurrence_detects_perturbation():
    from lattice_returns.walks import SequenceTable

    x = lr.x_sequence(3, 43)
    vals = list(x.values)
    vals[17] += 1
    bad = SequenceTable(3, "X", tuple(vals))
    rep = lr.check_p_recurrence(catalog.x_recurrence(3), bad, 40)
    assert not rep.passed
    # index 17 enters residuals for n in {15, 16, 17}
    assert rep.first_failure["n"] == 15


def test_report_json():
    x = lr.x_sequence(4, 23)
    rep = lr.check_p_recurrence(catalog.x_recurrence(4), x, 20)
    obj = rep.to_json_obj()
    assert obj["status"] == "pass" and obj["check"]
    assert "first_failure" not in obj  # omitted when the check passes


def test_report_status_follows_first_failure():
    rep = lr.VerificationReport(check="c", parameters={}, horizon=3,
                                first_failure={"n": 2})
    assert rep.status == "fail" and not rep.passed
    assert list(rep.to_json_obj()) == [
        "check", "parameters", "horizon", "status", "first_failure"]
    assert lr.VerificationReport("c", {}, 3).status == "pass"


def test_footnote_recurrences():
    # d=1: x constant; d=2: central binomials
    x1 = lr.x_sequence(1, 33)
    assert lr.check_p_recurrence(catalog.x_recurrence(1), x1, 30).passed
    x2 = lr.x_sequence(2, 33)
    assert lr.check_p_recurrence(catalog.x_recurrence(2), x2, 30).passed
    a1 = lr.closed_walks(1, 33)
    assert lr.check_p_recurrence(catalog.a_recurrence(1), a1, 30).passed
    a2 = lr.closed_walks(2, 33)
    assert lr.check_p_recurrence(catalog.a_recurrence(2), a2, 30).passed


@pytest.mark.parametrize("d", catalog.DIMENSIONS)
@pytest.mark.parametrize("lookup", [catalog.x_recurrence, catalog.a_recurrence])
def test_derived_recurrences_are_well_posed(lookup, d):
    # The minimal shift keeps the lowest coefficient; the fast paths divide
    # by the leading one at every n they reach.
    rec = lookup(d)
    assert rec.coefficients[0]
    lead = rec.coefficients[-1]
    assert all(lead(n) != 0 for n in range(2001))


def test_x_recurrence_d3_is_franel():
    # (n+2)^2 x_{n+2} - (10n^2+30n+23) x_{n+1} + 9(n+1)^2 x_n = 0 (A002893)
    n = UniPoly([0, 1])
    rec = catalog.x_recurrence(3)
    assert rec.name == "x d=3"
    assert rec.coefficients == (9 * (n + 1) ** 2, UniPoly([-23, -30, -10]),
                                (n + 2) ** 2)


def test_derived_recurrences_are_cached():
    assert catalog.x_recurrence(3) is catalog.x_recurrence(3)
    assert catalog.a_recurrence(5) is catalog.a_recurrence(5)


def test_recurrence_catalog_rejects_unknown_dimension():
    with pytest.raises(ValueError):
        catalog.x_recurrence(9)
    with pytest.raises(ValueError):
        catalog.a_recurrence(0)


@pytest.mark.parametrize("d", range(2, 9))
def test_guesser_rederives_the_f_odes(d):
    # From 150 ladder terms the guesser finds the catalog's x-recurrence,
    # and recurrence_to_ode turns it into the printed F_2..F_5 and the
    # committed, guessed F_6..F_8, name included.
    rec = lr.guess_p_recurrence(lr.x_sequence(d, 149).values)
    assert rec.coefficients == catalog.x_recurrence(d).coefficients
    assert lr.recurrence_to_ode(rec, name="F_%d" % d) == catalog.f_ode(d)


@pytest.mark.parametrize("d", range(2, 9))
def test_f_odes_have_order_d_minus_1_and_predicted_singularities(d):
    ode = catalog.f_ode(d)
    assert ode.order == d - 1
    assert lr.ode_singularities(ode) == (catalog.expected_f_singularities(d), False)
    # the A-ODE is derived from the A-recurrence at run time
    assert (lr.ode_singularities(catalog.a_ode(d))
            == (catalog.expected_a_singularities(d), False))


_z = UniPoly([0, 1])


def _p(*coeffs):
    return UniPoly(coeffs)


# The paper's printed ODEs of A_1 .. A_5, lowest derivative first.  The
# package derives them (catalog.a_ode) from the ODEs of F_d; they live
# here only, as the data that derivation must reproduce.
PRINTED_A_ODES = {
    # (4z-1) A' + 2A = 0
    1: lr.LinearODE(1, (_p(2), 4 * _z - 1), name="A_1"),
    # z(16z-1) A'' + (32z-1) A' + 4A = 0
    2: lr.LinearODE(2, (_p(4), 32 * _z - 1, _z * (16 * _z - 1)), name="A_2"),
    # z^2(4z-1)(36z-1) A''' + 3z(288z^2-60z+1) A''
    #   + (972z^2-132z+1) A' + 6(18z-1) A = 0
    3: lr.LinearODE(3, (
        6 * (18 * _z - 1),
        _p(1, -132, 972),
        3 * _z * _p(1, -60, 288),
        _z ** 2 * (4 * _z - 1) * (36 * _z - 1),
    ), name="A_3"),
    # z^3(16z-1)(64z-1) A'''' + 2z^2(5120z^2-320z+3) A'''
    #   + z(25344z^2-1172z+7) A'' + (14592z^2-424z+1) A' + 8(96z-1) A = 0
    4: lr.LinearODE(4, (
        8 * (96 * _z - 1),
        _p(1, -424, 14592),
        _z * _p(7, -1172, 25344),
        2 * _z ** 2 * _p(3, -320, 5120),
        _z ** 3 * (16 * _z - 1) * (64 * _z - 1),
    ), name="A_4"),
    # z^4(4z-1)(36z-1)(100z-1) A^(5) + z^3(252000z^3-62160z^2+1750z-10) A''''
    #   + z^2(1314000z^3-268740z^2+5992z-25) A'''
    #   + z(2295000z^3-369240z^2+5964z-15) A''
    #   + (1080000z^3-124020z^2+1196z-1) A' + (54000z^2-3420z+10) A = 0
    5: lr.LinearODE(5, (
        _p(10, -3420, 54000),
        _p(-1, 1196, -124020, 1080000),
        _z * _p(-15, 5964, -369240, 2295000),
        _z ** 2 * _p(-25, 5992, -268740, 1314000),
        _z ** 3 * _p(-10, 1750, -62160, 252000),
        _z ** 4 * (4 * _z - 1) * (36 * _z - 1) * (100 * _z - 1),
    ), name="A_5"),
}


@pytest.mark.parametrize("d", range(1, 6))
def test_a_recurrence_from_x_is_the_printed_a_ode_recurrence(d):
    # The A-ODE derived from F_d through the x- and A-recurrences is the
    # printed one, name and every coefficient included.
    assert catalog.a_ode(d) == PRINTED_A_ODES[d]


def test_guesser_returns_none_without_enough_equations():
    # 11 terms leave no shape with 10 more equations than unknowns; n! is
    # found at order 1, degree 1.
    assert lr.guess_p_recurrence([1] * 11) is None
    rec = lr.guess_p_recurrence([math.factorial(n) for n in range(40)])
    assert (rec.order, rec.coefficients) == (1, (UniPoly([-1, -1]), UniPoly([1])))


def test_nullspace_and_rational_reconstruction_mod_p():
    p = modular.primes(1)[0]
    basis = modular.nullspace_mod_p(np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]]), p)
    assert len(basis) == 1
    v = basis[0]
    assert v[2] == 1 and (v[0] + 1) % p == 0 and (2 * v[1] + 2) % p == 0
    # 2^26 is too small a modulus for -123457/113; two primes suffice
    M = p * modular.primes(2)[1]
    for q in (p, M):
        found = modular.rational_reconstruction(-123457 * pow(113, -1, q) % q, q)
        assert (found == Fraction(-123457, 113)) == (q == M)


# ---------------------------------------------------------------------------
# ODE application
# ---------------------------------------------------------------------------


def test_apply_ode_on_geometric_series():
    # (z-1) F' + F annihilates 1/(1-z)
    geo = TruncatedSeries([Fraction(1)] * 30)
    res, horizon = lr.apply_ode(catalog.f_ode(1), geo)
    assert horizon == 28
    assert all(c == 0 for c in res.coeffs[:horizon])


def test_apply_ode_horizon_accounting():
    s = lr.series_from_sequence(lr.x_sequence(4, 50), 50)
    ode = catalog.f_ode(4)
    res, horizon = lr.apply_ode(ode, s)
    assert horizon == 50 - ode.order - ode.max_degree
    with pytest.raises(ValueError):
        lr.apply_ode(ode, TruncatedSeries([Fraction(1)] * 5))


def test_check_ode_detects_perturbation():
    vals = list(lr.x_sequence(3, 40).values)
    vals[25] += 1
    s = TruncatedSeries([Fraction(v) for v in vals])
    rep = lr.check_ode(catalog.f_ode(3), s, {"kind": "X", "d": 3})
    assert not rep.passed
    assert rep.first_failure is not None


def test_ode_to_recurrence_matches_footnote():
    # (4z-1)F' + 2F = 0 translates to (n+1) f_{n+1} = (4n+2) f_n
    rec = lr.ode_to_recurrence(catalog.f_ode(2))
    x2 = lr.x_sequence(2, rec.order + 31)
    for n in range(30):
        assert rec.residual(x2.values, n) == 0


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_ode_to_recurrence_consistency(d):
    for ode, table in (
        (catalog.f_ode(d), lr.x_sequence(d, 40)),
        (catalog.a_ode(d), lr.closed_walks(d, 40)),
    ):
        rec = lr.ode_to_recurrence(ode)
        assert rec.order + 30 <= 40
        for n in range(30):
            assert rec.residual(table.values, n) == 0


# ---------------------------------------------------------------------------
# singularities
# ---------------------------------------------------------------------------


def test_ode_singularities_frozen_sets():
    roots, irr = lr.ode_singularities(catalog.f_ode(3))
    assert roots == {Fraction(0), Fraction(1), Fraction(1, 9)}
    assert not irr
    roots, irr = lr.ode_singularities(catalog.a_ode(4))
    assert roots == {Fraction(0), Fraction(1, 16), Fraction(1, 64)}
    assert not irr


def test_ode_singularities_flags_irrational_factor():
    from lattice_returns.holonomy import LinearODE

    ode = LinearODE(
        1,
        (UniPoly([Fraction(1)]), UniPoly([Fraction(-2), Fraction(0), Fraction(1)])),
        name="irrational",
    )
    roots, irr = lr.ode_singularities(ode)
    assert roots == set()
    assert irr


def test_expected_singularity_sets():
    assert catalog.expected_f_singularities(3) == {
        Fraction(0), Fraction(1), Fraction(1, 9)}
    assert catalog.expected_f_singularities(4) == {
        Fraction(0), Fraction(1, 4), Fraction(1, 16)}
    assert catalog.expected_a_singularities(5) == {
        Fraction(0), Fraction(1, 4), Fraction(1, 36), Fraction(1, 100)}
    assert catalog.expected_a_singularities(1) == {Fraction(1, 4)}


# ---------------------------------------------------------------------------
# congruences and the binomial-series identity
# ---------------------------------------------------------------------------


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_lucas_check_requires_prime():
    t = lr.x_sequence(3, 20)
    with pytest.raises(ValueError):
        lr.lucas_check(t, 4, 20)


def test_lucas_check_requires_enough_terms():
    t = lr.x_sequence(3, 10)
    with pytest.raises(ValueError):
        lr.lucas_check(t, 5, 30)


@pytest.mark.parametrize("d,p", [(1, 3), (2, 5), (3, 7), (4, 5), (5, 3)])
def test_lucas_passes_for_x_and_a(d, p):
    n_max = p * p + p
    assert lr.lucas_check(lr.x_sequence_fast(d, n_max), p, n_max).passed
    assert lr.lucas_check(lr.closed_walks_fast(d, n_max), p, n_max).passed


def test_lucas_fails_for_first_returns():
    n_max = 30
    rep = lr.lucas_check(lr.first_returns_fast(3, n_max), 5, n_max)
    assert not rep.passed
    assert rep.first_failure["index"] == 5


def test_lucas_vanishing_clause_catches_a_perturbed_value():
    table = lr.closed_walks_fast(3, 4)
    assert table.values == (1, 6, 90, 1860, 44730)
    assert lr.lucas_check(table, 5, 4).passed
    values = list(table.values)
    values[3] += 1  # A_6: 1860 -> 1861, no longer 0 mod 5
    rep = lr.lucas_check(lr.SequenceTable(3, "A", tuple(values)), 5, 4)
    assert not rep.passed
    assert rep.first_failure == {"vanishing_at": 3, "value_mod_p": 1}


def test_a_vanishing_window_mod_p():
    # A_{2n} = 0 mod p for (p-1)/2 < n <= p-1, any d
    for d in (1, 2, 3, 4, 5):
        a = lr.closed_walks_fast(d, 12)
        for p in (5, 7, 11):
            for n in range((p - 1) // 2 + 1, min(p, 13)):
                assert a.value(n) % p == 0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_legendre_series_identity(n):
    assert lr.legendre_series_identity(n, 50)


def test_legendre_series_identity_rejects_bad_args():
    with pytest.raises(ValueError):
        lr.legendre_series_identity(-1, 10)
    with pytest.raises(ValueError):
        lr.legendre_series_identity(2, 0)
