"""Truncated series algebra, P-recurrence/ODE checking, congruences.

Sensitivity tests perturb one value/coefficient and require the checker
to fail at the right place, so a silently-vacuous verifier cannot pass.
"""

import decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_returns as lr
from lattice_returns import catalog, walks
from lattice_returns.errors import CapacityError, InvertibilityError
from lattice_returns.holonomy import TruncatedSeries, is_prime, theta_to_recurrence
from lattice_returns.kernel import UniPoly, primitive

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


@pytest.mark.parametrize("N", range(1, 41))
def test_integral_reciprocal_near_the_majorant(N):
    # f_k = -(2^(30k) - 1) puts the inverse within a factor 2 of the
    # majorant bound 2^(n-1) 2^(30n), so one prime fewer than chosen
    # reconstructs wrong values for some of these N.
    coeffs = [1] + [-((1 << (30 * k)) - 1) for k in range(1, N)]
    inv = lr.reciprocal_series(TruncatedSeries(coeffs))
    assert inv.coeffs == _schoolbook_reciprocal(coeffs)


@pytest.mark.parametrize("d", range(1, 9))
def test_packed_first_returns_are_the_schoolbook_reciprocal(d):
    # The sizes cross the Newton steps' splits (63 | 64 | 65, 399 = 400 - 1)
    # and the changes of slot width between them.
    a = list(lr.closed_walks(d, 399).values)
    b = [str(-c) for c in _schoolbook_reciprocal(a)[1:]]
    for N in (1, 2, 3, 63, 64, 65, 300, 399):
        assert walks.first_return_digits(d, N) == b[:N]
        assert walks._first_returns_from_a(d, N, a[:N + 1]) == b[:N]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 200])
def test_pack_adds_runs_of_strings_pairwise(n):
    # Runs of 64 strings, added pairwise level by level: the lengths cross
    # one, two and an odd number of runs.
    digits = [str(7 ** i % 10**5) for i in range(n)]
    with decimal.localcontext(walks._EXACT):
        packed = walks._pack(digits, 6)
        assert walks._cut(packed, 1, n, 6) == sum(
            int(v) * 10 ** (6 * (i - 1)) for i, v in enumerate(digits) if i)
    assert int(packed) == sum(int(v) * 10 ** (6 * i) for i, v in enumerate(digits))


def test_packed_route_refuses_a_series_that_is_not_renewal():
    # 1/(1 + z^2) = 1 - z^2 + z^4 - ..., so B = 1 - 1/A has negative
    # coefficients: a slot borrows, and the guard must see it.
    with pytest.raises(ArithmeticError, match="left its slot"):
        walks._first_returns_from_a(1, 12, [1, 0, 1] + [0] * 10)


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


def test_derivation_budget_admits_d_100_and_refuses_d_128(monkeypatch):
    # d = 96 derives in about 9 s, d = 128 in about 63 s: the budget is
    # checked before anything is derived.
    def no_kernel(d):
        raise LookupError("derived d = %d" % d)

    monkeypatch.setattr(catalog, "_theta_kernel", no_kernel)
    for d in (96, 100):
        with pytest.raises(LookupError):
            catalog.x_recurrence(d)
    for d in (101, 128):
        with pytest.raises(CapacityError, match="^the recurrence derivation at d = %d " % d):
            catalog.x_recurrence(d)


@pytest.mark.parametrize("d", range(1, 17))
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
        catalog.x_recurrence(0)
    with pytest.raises(ValueError):
        catalog.a_recurrence(0)


def _singularities_pass(ode, expected):
    rep = lr.check_singularities(ode, expected)
    assert rep.passed, rep.to_json_obj()
    assert rep.parameters["roots"] == sorted(str(r) for r in expected)


@pytest.mark.parametrize("d", range(2, 17))
def test_f_odes_have_order_d_minus_1_and_predicted_singularities(d):
    ode = catalog.f_ode(d)
    assert ode.order == d - 1
    _singularities_pass(ode, catalog.expected_f_singularities(d))
    # the A-ODE is derived from the A-recurrence at run time
    _singularities_pass(catalog.a_ode(d), catalog.expected_a_singularities(d))


@pytest.mark.parametrize("d", [24, 32])
def test_predicted_singularities_past_the_tested_range(d):
    _singularities_pass(catalog.f_ode(d), catalog.expected_f_singularities(d))
    _singularities_pass(catalog.a_ode(d), catalog.expected_a_singularities(d))


_z = UniPoly([0, 1])


def _p(*coeffs):
    return UniPoly(coeffs)


# The paper's printed ODEs of F_1 .. F_5, lowest derivative first.  The
# package derives them (catalog.f_ode) from X_d = I_0(2 sqrt z)^d; they
# live here only, as the data that derivation must reproduce.
PRINTED_F_ODES = {
    # (z-1) F' + F = 0
    1: lr.LinearODE(1, (_p(1), _z - 1), name="F_1"),
    # (4z-1) F' + 2F = 0
    2: lr.LinearODE(1, (_p(2), 4 * _z - 1), name="F_2"),
    # z(z-1)(9z-1) F'' + (27z^2-20z+1) F' + 3(3z-1) F = 0
    3: lr.LinearODE(2, (
        3 * (3 * _z - 1),
        _p(1, -20, 27),
        _z * (_z - 1) * (9 * _z - 1),
    ), name="F_3"),
    # z^2(4z-1)(16z-1) F''' + 3z(128z^2-30z+1) F''
    #   + (448z^2-68z+1) F' + 4(16z-1) F = 0
    4: lr.LinearODE(3, (
        4 * (16 * _z - 1),
        _p(1, -68, 448),
        3 * _z * _p(1, -30, 128),
        _z ** 2 * (4 * _z - 1) * (16 * _z - 1),
    ), name="F_4"),
    # z^3(z-1)(9z-1)(25z-1) F'''' + z^2(2700z^3-2590z^2+280z-6) F'''
    #   + z(8550z^3-6501z^2+518z-7) F'' + (7200z^3-3963z^2+196z-1) F'
    #   + (900z^2-285z+5) F = 0
    # The F' constant term is sometimes quoted as +1; that operator fails
    # already at the constant coefficient (5*x_0 + 1*x_1 = 10 for d = 5),
    # while -1 annihilates the exact series to every order we can test.
    5: lr.LinearODE(4, (
        _p(5, -285, 900),
        _p(-1, 196, -3963, 7200),
        _z * _p(-7, 518, -6501, 8550),
        _z ** 2 * _p(-6, 280, -2590, 2700),
        _z ** 3 * (_z - 1) * (9 * _z - 1) * (25 * _z - 1),
    ), name="F_5"),
}


@pytest.mark.parametrize("d", range(1, 6))
def test_derived_f_ode_is_the_printed_one(d):
    # The F-ODE derived from I_0(2 sqrt z)^d is the printed one, name and
    # every coefficient included; and the printed ODE's recurrence is the
    # derived x-recurrence up to a constant factor.
    assert catalog.f_ode(d) == PRINTED_F_ODES[d]
    printed = lr.ode_to_recurrence(PRINTED_F_ODES[d])
    assert printed.order == catalog.x_recurrence(d).order
    assert tuple(primitive(printed.coefficients)) == catalog.x_recurrence(d).coefficients


# The paper's printed ODEs of A_1 .. A_5, lowest derivative first.  The
# package derives them (catalog.a_ode) from the x-recurrences; they live
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
    # The A-ODE derived through the x- and A-recurrences is the printed
    # one, name and every coefficient included.
    assert catalog.a_ode(d) == PRINTED_A_ODES[d]


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


def test_theta_to_recurrence_reads_the_footnote_operator():
    # z (4 theta + 2) - theta annihilates F_2: (n+1) f_{n+1} = 2(2n+1) f_n.
    assert (theta_to_recurrence([UniPoly([0, -1]), UniPoly([2, 4])])
            == [UniPoly([2, 4]), UniPoly([-1, -1])])


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


def test_check_singularities_frozen_sets():
    rep = lr.check_singularities(
        catalog.f_ode(3), {Fraction(0), Fraction(1), Fraction(1, 9)},
        {"kind": "X", "d": 3})
    assert rep.to_json_obj() == {
        "check": "singularities",
        "parameters": {"kind": "X", "d": 3, "roots": ["0", "1", "1/9"]},
        "horizon": 0, "status": "pass"}
    _singularities_pass(catalog.a_ode(4),
                        {Fraction(0), Fraction(1, 16), Fraction(1, 64)})


def _singularities_fail(ode, expected, unexplained_degree):
    rep = lr.check_singularities(ode, expected)
    assert not rep.passed
    assert rep.first_failure == {"expected": sorted(str(r) for r in expected),
                                 "unexplained_degree": unexplained_degree}
    return rep


def test_check_singularities_fails_on_irrational_factor():
    # z^2 - 2 has no rational root: nothing divides and degree 2 is left.
    ode = lr.LinearODE(1, (UniPoly([1]), UniPoly([-2, 0, 1])), name="irrational")
    assert _singularities_fail(ode, set(), 2).parameters["roots"] == []
    _singularities_fail(ode, {Fraction(1, 4)}, 2)


def test_check_singularities_fails_on_an_unpredicted_root():
    ode = catalog.f_ode(5)
    expected = catalog.expected_f_singularities(5)
    extra = lr.LinearODE(ode.order, ode.coefficients[:-1]
                         + (ode.coefficients[-1] * UniPoly([-2, 1]),))
    rep = _singularities_fail(extra, expected, 1)
    assert rep.parameters["roots"] == sorted(str(r) for r in expected)
    # A predicted set with one root missing leaves that root's factor.
    _singularities_fail(ode, expected - {Fraction(1, 9)}, 1)
    # A predicted root that does not divide: everything else is explained.
    rep = _singularities_fail(ode, expected | {Fraction(1, 4)}, 0)
    assert rep.parameters["roots"] == sorted(str(r) for r in expected)


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
        lr.lucas_check(t.values, "X", 3, 4, 20)


def test_lucas_check_requires_enough_terms():
    # A table or a stream that ends before n_max: the check cannot finish.
    for terms in (lr.x_sequence(3, 10).values, walks.recurrence_values("A", 3, 29)):
        with pytest.raises(ValueError, match="terms end before n_max=30"):
            lr.lucas_check(terms, "A", 3, 5, 30)


@pytest.mark.parametrize("d,p", [(1, 3), (2, 5), (3, 7), (4, 5), (5, 3)])
def test_lucas_passes_for_x_and_a(d, p):
    n_max = p * p + p
    assert lr.lucas_check(lr.x_sequence_fast(d, n_max).values, "X", d, p, n_max).passed
    assert lr.lucas_check(lr.closed_walks_fast(d, n_max).values, "A", d, p, n_max).passed


def test_lucas_fails_for_first_returns():
    n_max = 30
    rep = lr.lucas_check(lr.first_returns_fast(3, n_max).values, "B", 3, 5, n_max)
    assert not rep.passed
    assert rep.first_failure["index"] == 5


def test_lucas_vanishing_clause_catches_a_perturbed_value():
    table = lr.closed_walks_fast(3, 4)
    assert table.values == (1, 6, 90, 1860, 44730)
    assert lr.lucas_check(table.values, "A", 3, 5, 4).passed
    values = list(table.values)
    values[3] += 1  # A_6: 1860 -> 1861, no longer 0 mod 5
    rep = lr.lucas_check(values, "A", 3, 5, 4)
    assert not rep.passed
    assert rep.first_failure == {"vanishing_at": 3, "value_mod_p": 1}


def _lucas_on_the_table(table, p, n_max):
    """The report of the check indexed into a whole table, term by term,
    as the suite ran it before it read streams."""
    def u(i):
        return 1 if i < table.offset else table.value(i)

    failure = None
    for idx in range(n_max + 1):
        n, q = divmod(idx, p)
        if (u(idx) - u(n) * u(q)) % p:
            failure = {"n": n, "q": q, "index": idx,
                       "lhs_mod_p": u(idx) % p, "rhs_mod_p": u(n) * u(q) % p}
            break
    vanishing = table.kind == "A" and failure is None
    if vanishing:
        for n in range((p - 1) // 2 + 1, min(p, n_max + 1)):
            if table.value(n) % p:
                failure = {"vanishing_at": n, "value_mod_p": table.value(n) % p}
                break
    return lr.VerificationReport(
        check="lucas", parameters={"kind": table.kind, "d": table.dimension, "p": p,
                                   "n_max": n_max, "vanishing_clause": vanishing},
        horizon=n_max, first_failure=failure).to_json_obj()


@pytest.mark.parametrize("kind", ["X", "A"])
@pytest.mark.parametrize("d", range(1, 6))
def test_lucas_stream_reports_equal_the_table_route(kind, d):
    # Each prime p <= 53 reads its own stream of p^2 + p terms from the
    # recurrence, which is never held; the table is built once, to 53's.
    primes = [p for p in range(2, 54) if is_prime(p)]
    table = (lr.x_sequence_fast if kind == "X" else lr.closed_walks_fast)(d, 53 * 53 + 53)
    for p in primes:
        n_max = p * p + p
        stream = walks.recurrence_values(kind, d, n_max)
        assert (lr.lucas_check(stream, kind, d, p, n_max).to_json_obj()
                == _lucas_on_the_table(table, p, n_max))
    # A perturbed table, read as a stream, fails where the table route does.
    values = list(table.values)
    values[40] += 1
    broken = walks.SequenceTable(d, kind, values)
    assert (lr.lucas_check(iter(values), kind, d, 7, 56).to_json_obj()
            == _lucas_on_the_table(broken, 7, 56))


@pytest.mark.parametrize("d", range(1, 6))
def test_lucas_b_prefix_reports_equal_the_table_route(d):
    table = lr.first_returns_fast(d, 13 * 13 + 13)
    for p in (2, 3, 5, 7, 11, 13):
        rep = lr.lucas_check(table.values, "B", d, p, p * p + p).to_json_obj()
        assert rep == _lucas_on_the_table(table, p, p * p + p)


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
