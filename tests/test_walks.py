"""Walk enumeration: sequences, endpoint distributions, layers, DP oracles.

The brute-force oracle enumerates every (2d)^L walk explicitly; all
formula- and DP-based counters must agree with it on small cases.  The
table literals are frozen here independently of the package's embedded
fixtures.
"""

import decimal
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_returns as lr
from lattice_returns import catalog, walks
from lattice_returns.constants import PREC
from lattice_returns.errors import CapacityError, check_budget
from lattice_returns.kernel import round_div
from lattice_returns.walks import iterate_p_recurrence

# ---------------------------------------------------------------------------
# oracle: explicit enumeration of all (2d)^L walks
# ---------------------------------------------------------------------------


def brute_endpoints(d, length):
    """Counter mapping endpoint -> number of length-`length` walks."""
    steps = []
    for axis in range(d):
        for sign in (1, -1):
            e = [0] * d
            e[axis] = sign
            steps.append(tuple(e))
    counts = Counter()
    for path in itertools.product(steps, repeat=length):
        pos = tuple(sum(c) for c in zip(*path)) if path else (0,) * d
        counts[pos] += 1
    return counts


def brute_first_returns(d, length):
    """Number of length-`length` walks touching the origin only at both ends."""
    steps = []
    for axis in range(d):
        for sign in (1, -1):
            e = [0] * d
            e[axis] = sign
            steps.append(tuple(e))
    origin = (0,) * d
    total = 0
    for path in itertools.product(steps, repeat=length):
        pos = [0] * d
        ok = True
        for i, s in enumerate(path):
            for a in range(d):
                pos[a] += s[a]
            if tuple(pos) == origin and i < length - 1:
                ok = False
                break
        if ok and tuple(pos) == origin:
            total += 1
    return total


# frozen table: first eight terms of A and B for d = 1..4 (independent
# copy; the same numbers appear in OEIS A000984/A284016, A002894/A054474,
# A002896/A049037, A039699/A359801)
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


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_closed_walks_match_frozen_table(d):
    table = lr.closed_walks(d, 8)
    assert tuple(table.value(n) for n in range(1, 9)) == TABLE_A[d]
    assert table.value(0) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_first_returns_match_frozen_table(d):
    table = lr.first_returns(d, 8)
    assert tuple(table.value(n) for n in range(1, 9)) == TABLE_B[d]


def test_closed_walks_match_brute_force():
    for d, n in [(1, 4), (2, 3), (3, 2)]:
        origin = brute_endpoints(d, 2 * n)[(0,) * d]
        assert lr.closed_walks(d, n).value(n) == origin


def test_first_returns_match_brute_force():
    assert brute_first_returns(1, 6) == TABLE_B[1][2]
    assert brute_first_returns(2, 4) == TABLE_B[2][1]
    assert brute_first_returns(3, 4) == TABLE_B[3][1]


def test_x_sequence_small_dimensions():
    assert lr.x_sequence(1, 6).values == (1,) * 7
    # d = 2: central binomials
    assert lr.x_sequence(2, 6).values == (1, 2, 6, 20, 70, 252, 924)


def test_x_sequence_matches_fundamental_recurrence():
    # reference loop: one dimension level at a time, binomials from math.comb
    xs = [1] * 31
    for d in range(2, 8):
        xs = [sum(math.comb(n, k) ** 2 * xs[k] for k in range(n + 1))
              for n in range(31)]
        assert lr.x_sequence(d, 30).values == tuple(xs)


def test_x_sequence_d5_frozen():
    # ladder values verified by hand: x_3 = 1 + 9*4 + 9*28 + 256 = 545, etc.
    assert lr.x_sequence(5, 5).values == (1, 5, 45, 545, 7885, 127905)


def test_closed_walks_d5_frozen():
    # A_{2n} = C(2n, n) * x_n
    assert lr.closed_walks(5, 4).values == (1, 10, 270, 10900, 551950)


def test_x_vs_closed_walks_relation():
    from lattice_returns.kernel import binomial

    for d in (3, 4):
        xs = lr.x_sequence(d, 20)
        As = lr.closed_walks(d, 20)
        for n in range(21):
            assert As.value(n) == binomial(2 * n, n) * xs.value(n)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 9, 10, 12])
def test_fast_paths_agree_with_ladder(d):
    # N < 3 is shorter than the seeds of the order-3 and higher
    # recurrences.
    for N in (0, 1, 2, 3, 40):
        assert lr.x_sequence_fast(d, N).values == lr.x_sequence(d, N).values
        assert lr.closed_walks_fast(d, N).values == lr.closed_walks(d, N).values
    assert lr.first_returns_fast(d, 25).values == lr.first_returns(d, 25).values


@pytest.mark.parametrize("d", [6, 7, 8])
def test_derived_recurrences_against_the_ladder(d):
    # 600 ladder terms for the first dimensions the paper prints no ODE for
    x = lr.x_sequence(d, 600)
    assert lr.x_sequence_fast(d, 600).values == x.values
    assert lr.closed_walks_fast(d, 600).values == walks.closed_walks_from_x(x).values
    rec = lr.ode_to_recurrence(catalog.f_ode(d))
    assert lr.check_p_recurrence(rec, x, 390).passed


def _perturbed(rec, delta):
    """rec with delta added to the constant term of its first coefficient."""
    first = lr.UniPoly([delta]) + rec.coefficients[0]
    return lr.PRecurrence(rec.order, (first,) + rec.coefficients[1:])


def test_iterate_p_recurrence_rejects_inexact_division():
    rec = catalog.x_recurrence(3)
    seeds = list(lr.x_sequence(3, 1).values)
    assert list(iterate_p_recurrence(rec, seeds, 30)) == list(lr.x_sequence(3, 30).values)
    with pytest.raises(ArithmeticError):
        list(iterate_p_recurrence(_perturbed(rec, 1), seeds, 30))


@pytest.mark.parametrize("kind, name", [("X", "x_recurrence"), ("A", "a_recurrence")])
def test_decimal_values_reject_a_perturbed_recurrence(kind, name, monkeypatch):
    # The decimal route divides exactly, as the int route does: a
    # coefficient off by one raises instead of rounding.
    assert list(walks.decimal_values(kind, 5, 60)) == list(walks.recurrence_values(kind, 5, 60))
    rec = getattr(catalog, name)(5)
    monkeypatch.setattr(catalog, name, lambda d: _perturbed(rec, 1))
    for values in (walks.recurrence_values, walks.decimal_values):
        with pytest.raises(ArithmeticError):
            list(values(kind, 5, 60))


def test_iterate_p_recurrence_rejects_fractional_coefficient():
    rec = _perturbed(catalog.x_recurrence(3), Fraction(1, 2))
    with pytest.raises(ValueError):
        iterate_p_recurrence(rec, [1, 3], 10)


def test_iterate_p_recurrence_checks_its_arguments_at_the_call():
    # Lazy steps, eager checks: nothing is consumed below.
    rec = catalog.x_recurrence(3)
    with pytest.raises(ValueError, match="need 2 seeds, got 1"):
        iterate_p_recurrence(rec, [1], 10)
    with pytest.raises(ValueError, match="not an integer"):
        iterate_p_recurrence(_perturbed(rec, Fraction(1, 2)), [1, 3], 10)
    with pytest.raises(ValueError, match="dimension"):
        walks.decimal_values("A", 0, 10)
    with pytest.raises(ValueError, match="dimension"):
        walks.recurrence_values("A", 0, 5)
    values = iterate_p_recurrence(rec, [1, 3], 10 ** 9)
    assert next(values) == 1 and next(values) == 3 and next(values) == 15


def test_decimal_values_leave_the_callers_context_between_items():
    # The exact context wraps each step, never the yield.
    context = decimal.getcontext()
    values = walks.decimal_values("A", 5, 40)
    for n, v in enumerate(values):
        assert decimal.getcontext() is context, n
        assert context.prec == 28 and not context.traps[decimal.Inexact]
    assert n == 40 and v == lr.closed_walks_fast(5, 40).values[-1]


def test_iterate_p_recurrence_rejects_vanishing_leading_coefficient():
    # (n - 3) u_{n+1} = (n - 3) u_n: the division fails at n = 3.
    rec = lr.PRecurrence(1, (lr.UniPoly([3, -1]), lr.UniPoly([-3, 1])))
    assert list(iterate_p_recurrence(rec, [1], 3)) == [1, 1, 1, 1]
    for seeds in ([1], [1.0]):
        with pytest.raises(ValueError, match="n=3"):
            list(iterate_p_recurrence(rec, seeds, 10))


def _reference_iterate(rec, seeds, N, q=1):
    """iterate_p_recurrence's oracle, the plain per-step loop: every
    coefficient evaluated by Horner's rule and scaled at every step."""
    def horner(coeffs, n):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * n + c
        return acc

    r = rec.order
    polys = [p.coeffs for p in rec.coefficients]
    vals = list(seeds)
    fixed = isinstance(q, int)
    qpow = [q**k for k in range(r + 1)] if fixed else [q ** (k - r) for k in range(r)]
    for n in range(0, N - r + 1):
        acc = 0
        for k in range(r):
            acc += horner(polys[k], n) * qpow[k] * vals[n + k]
        lead = horner(polys[r], n)
        if lead == 0:
            raise ValueError("leading coefficient is 0 at n=%d" % n)
        if not fixed:
            vals.append(-acc / lead)
        elif q > 1:
            vals.append(round_div(-acc, lead * qpow[r]))
        else:
            quo, rem = divmod(-acc, lead)
            if rem:
                raise ArithmeticError("P-recurrence division not exact at n=%d" % n)
            vals.append(quo)
    return vals


def _mode_args(d, mode, N):
    """(seeds, q) for the A-recurrence of dimension d, scaled as
    recurrence_values scales them in each mode."""
    rec = catalog.a_recurrence(d)
    ladder = lr.closed_walks(d, rec.order - 1).values
    if mode == "exact":
        return list(ladder), 1
    q = (2 * d) ** 2
    if mode == "float":
        return [v / q**n for n, v in enumerate(ladder)], float(q)
    bits = PREC + (d // 2 + 2) * N.bit_length() + 32  # as _normalized_a_summands_mp
    return [round_div(v << bits, q**n) for n, v in enumerate(ladder)], q


@pytest.mark.parametrize("mode", ["exact", "fixed", "float"])
@pytest.mark.parametrize("d", range(1, 10))
def test_iterate_p_recurrence_matches_the_per_step_loop(d, mode):
    # N below the order returns the seeds unchanged; N = r takes one step.
    # The per-step loop's values do not depend on N, so one run of it
    # serves every N as a prefix.
    rec = catalog.a_recurrence(d)
    r = rec.order
    Ns = [r - 1, r, r + 1, 5000]
    seeds, q = _mode_args(d, mode, Ns[-1])
    want = _reference_iterate(rec, seeds, Ns[-1], q)
    for N in Ns:
        got = list(iterate_p_recurrence(rec, seeds, N, q))
        assert got == want[:N + 1]
        assert {type(v) for v in got} == {int if isinstance(q, int) else float}


def test_iterate_p_recurrence_raises_at_the_first_failing_n():
    # (n - 10) u_{n+1} = ((n - 10) - n (n - 1) (n - 2)) u_n: exact up to
    # n = 2, inexact at n = 3, and the leading coefficient vanishes at
    # n = 10, later.
    rec = lr.PRecurrence(1, (lr.UniPoly([10, 1, -3, 1]), lr.UniPoly([-10, 1])))
    assert list(iterate_p_recurrence(rec, [1], 3)) == [1, 1, 1, 1]
    for run in (iterate_p_recurrence, _reference_iterate):
        with pytest.raises(ArithmeticError, match="not exact at n=3$"):
            list(run(rec, [1], 20))


@pytest.mark.parametrize("seeds, q", [([1], 1), ([1 << 20], 2), ([1.0], 2.0)],
                         ids=["exact", "fixed", "float"])
def test_iterate_p_recurrence_vanishing_lead_far_along(seeds, q):
    # (n - c) u_{n+1} = (n - c) u_n / q: every mode stops at n = c.
    c = 5000
    rec = lr.PRecurrence(1, (lr.UniPoly([c, -1]), lr.UniPoly([-c, 1])))
    assert len(list(iterate_p_recurrence(rec, seeds, c, q))) == c + 1
    for run in (iterate_p_recurrence, _reference_iterate):
        with pytest.raises(ValueError, match="is 0 at n=%d$" % c):
            list(run(rec, seeds, c + 10, q))


def test_first_return_closed_form_1d():
    b1 = lr.first_returns(1, 30)
    for n in range(1, 31):
        assert lr.first_return_closed_form_1d(n) == b1.value(n)


def test_first_returns_convolution_identity():
    # B_{2n} = A_{2n} - sum_{k=1}^{n-1} B_{2k} A_{2(n-k)}
    d = 3
    A = lr.closed_walks(d, 12)
    B = lr.first_returns(d, 12)
    for n in range(2, 13):
        acc = sum(B.value(k) * A.value(n - k) for k in range(1, n))
        assert B.value(n) == A.value(n) - acc


# ---------------------------------------------------------------------------
# distributions, endpoint formulas, layers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,length", [(1, 7), (2, 5), (3, 4)])
def test_dp_distribution_matches_brute_force(d, length):
    brute = brute_endpoints(d, length)
    dp = lr.full_distribution_dp(d, length)
    assert dp.counts == dict(brute)
    assert dp.total() == (2 * d) ** length


# Every n up to a small DP box in each dimension 2..5: the orbit
# representatives, their expansion and the break on the largest coordinate
# all meet the step DP.
_DP_SIZES = [(d, n) for d, top in ((2, 8), (3, 6), (4, 5), (5, 4)) for n in range(top + 1)]


@pytest.mark.parametrize("d,length", _DP_SIZES)
def test_formula_distribution_matches_dp(d, length):
    dp = lr.full_distribution_dp(d, length)
    f = lr.distribution_formula(d, length)
    assert dp.counts == f.counts


def test_distribution_equality_compares_counts():
    dp = lr.full_distribution_dp(2, 4)
    assert dp == lr.distribution_formula(2, 4)
    changed = dict(dp.counts)
    changed[(0, 0)] += 1
    assert dp != lr.LatticeDistribution(2, 4, changed)
    assert dp != lr.LatticeDistribution(2, 4, {})
    # The counts stay out of the hash, so distributions and layers hash.
    assert hash(dp) == hash(lr.LatticeDistribution(2, 4, {}))
    assert len({lr.layer(3, 4, 0), lr.layer(3, 4, 0)}) == 1


def test_endpoint_count_2d_against_brute_force():
    brute = brute_endpoints(2, 6)
    for k in range(-7, 8):
        for l in range(-7, 8):
            assert lr.endpoint_count_2d(6, k, l) == brute.get((k, l), 0)


def test_plane_distribution_reads_the_closed_form(monkeypatch):
    # l^(2) is endpoint_count_2d on the representatives (k, h), 0 <= k <= h,
    # in order of the largest coordinate h, which the layer sums rely on.
    calls = []
    closed_form = walks.endpoint_count_2d
    monkeypatch.setattr(walks, "endpoint_count_2d",
                        lambda n, k, h: calls.append((k, h)) or closed_form(n, k, h))
    reps = walks._distribution_formula(2, 9, {})
    assert list(reps) == calls == sorted(calls, key=lambda q: (q[1], q[0]))
    assert all(0 <= k <= h for k, h in reps)
    assert walks._expand(reps) == lr.full_distribution_dp(2, 9).counts


def test_endpoint_count_2d_parity_and_range():
    assert lr.endpoint_count_2d(4, 1, 0) == 0  # parity mismatch
    assert lr.endpoint_count_2d(4, 5, 0) == 0  # out of reach
    assert lr.endpoint_count_2d(3, 1, 0) == 9


def test_tau_entry():
    from lattice_returns.kernel import binomial

    for n in range(1, 7):
        for i in range(1, n + 2):
            for j in range(1, i + 1):
                assert lr.tau_entry(n, i, j) == binomial(n, i - 1) * binomial(i - 1, j - 1)
    with pytest.raises(ValueError):
        lr.tau_entry(3, 5, 1)
    with pytest.raises(ValueError):
        lr.tau_entry(3, 2, 3)


@pytest.mark.parametrize("d,n", _DP_SIZES)
def test_layers_tile_the_dp_distribution(d, n):
    dp = lr.full_distribution_dp(d, n)
    seen = 0
    for h in range(-n, n + 1):
        lay = lr.layer(d, n, h)
        assert lay.dimension == d and lay.height == h and lay.steps == n
        for point, count in lay.counts.sorted_items():
            assert dp.at(point + (h,)) == count
            seen += count
    assert seen == dp.total()


def test_layer_refuses_a_cross_polytope_past_the_budget():
    # The largest admitted at h = 0 are d = 4, n = 61 (9,545,769 points)
    # and d = 3, n = 195; only n - |h| counts.
    assert lr.layer(4, 61, 0).counts.total() > 0
    with pytest.raises(CapacityError, match=r"^the layer d=4, n=62, h=0 needs about "
                                            r"1\.02e\+07 lattice points in \|x\|_1 <= 62, "
                                            r"over the budget 1e\+07$"):
        lr.layer(4, 62, 0)
    with pytest.raises(CapacityError, match=r"d=3, n=200, h=-4 .* \|x\|_1 <= 196"):
        lr.layer(3, 200, -4)


@pytest.mark.parametrize("d", range(1, 7))
def test_x_ladder_levels_are_the_x_sequences(d):
    ladder = lr.walks.x_ladder(d, 40)
    assert [t.dimension for t in ladder] == list(range(1, d + 1))
    assert ladder[-1] == lr.x_sequence(d, 40)
    for t in ladder:
        assert t.values == lr.x_sequence_fast(t.dimension, 40).values


def test_layer_range_errors():
    with pytest.raises(ValueError):
        lr.layer(1, 3, 0)
    with pytest.raises(ValueError):
        lr.layer(3, 2, 3)
    with pytest.raises(ValueError):
        lr.layer(3, -1, 0)


def test_first_returns_dp_matches_convolution():
    for d in (1, 2, 3):
        table = lr.first_returns(d, 4)
        for n in range(1, 5):
            assert lr.first_returns_dp(d, n) == table.value(n)


def test_capacity_guards():
    # the DPs hold the points of |x|_1 <= n: 9.7e6 at d = 5, n = 32
    with pytest.raises(CapacityError, match=r"^the DP d=5, n=33 needs about 1\.13e\+07 "
                                            r"lattice points in \|x\|_1 <= 33, over the "
                                            r"budget 1e\+07$"):
        lr.full_distribution_dp(5, 33)
    with pytest.raises(CapacityError, match=r"^the DP d=4, n=62 needs about 1\.02e\+07 "):
        lr.first_returns_dp(4, 62)


def test_dp_point_step_budget_edges():
    # n points-steps for full_distribution_dp, 2n for first_returns_dp: at
    # d = 3 the last admitted are n = 51 (9.3e6) and n = 43 (9.4e6)
    walks._check_dp(3, 51, 51)
    walks._check_dp(3, 43, 86)
    with pytest.raises(CapacityError, match=r"^the DP d=3, n=52 needs about 1e\+07 "
                                            r"point-steps \(52 steps\), over the budget "
                                            r"1e\+07$"):
        lr.full_distribution_dp(3, 52)
    with pytest.raises(CapacityError, match=r"^the DP d=3, n=44 .* \(88 steps\)"):
        lr.first_returns_dp(3, 44)
    with pytest.raises(CapacityError, match=r"^the DP d=3, n=60 needs about 1\.77e\+07 "):
        lr.full_distribution_dp(3, 60)


def test_check_budget_admits_the_budget_and_names_what_is_over_it():
    check_budget("the thing", 10**7, "units", 10**7)
    with pytest.raises(CapacityError) as err:
        check_budget("the thing at n = 3", 10**7 + 1, "units", 10**7)
    assert str(err.value) == "the thing at n = 3 needs about 1e+07 units, over the budget 1e+07"
    # an int past the float range is shown through a Decimal
    with pytest.raises(CapacityError, match=r"needs about 2\.50e\+400 cells, over"):
        check_budget("the box", 25 * 10**399, "cells", 10**8)


def test_b_digit_budget_is_checked_before_any_a_value():
    # seq --kind B --d 8 --N 4000 (3.9e7 digits) is admitted, --d 3
    # --N 6000 (5.6e7) refused, both before the first A-value is read.
    def unread():
        raise LookupError("read an A-value")
        yield

    with pytest.raises(LookupError):
        lr.walks._first_returns_from_a(8, 4000, unread())
    with pytest.raises(CapacityError, match="^the first-return table to N = 6000 needs"):
        lr.walks._first_returns_from_a(3, 6000, unread())
    # In fixed point the estimate is N (2D + floor(log10 N)) digits: at d = 2,
    # N = 724637 (D = 32) is the last admitted.
    assert walks.fixed_point_decimals(2, 724637) == 32
    with pytest.raises(LookupError):
        lr.walks._first_returns_from_a(2, 724637, unread(), 32)
    with pytest.raises(CapacityError, match=r"^the fixed-point first returns to N = 724638 "
                                            r"needs about 5e\+07 packed digits, over"):
        lr.walks._first_returns_from_a(2, 724638, unread(), 32)


# ---------------------------------------------------------------------------
# table container behaviour
# ---------------------------------------------------------------------------


def test_sequence_table_offsets():
    a = lr.closed_walks(2, 5)
    b = lr.first_returns(2, 5)
    assert a.offset == 0 and b.offset == 1
    assert a.n_max == 5 and b.n_max == 5
    assert list(a.iter_indexed())[0] == (0, 1)
    assert list(b.iter_indexed())[0] == (1, 4)


def test_sequence_table_json_uses_strings():
    obj = lr.closed_walks(4, 8).to_json_obj()
    assert obj["kind"] == "A" and obj["d"] == 4
    assert obj["values"][-1] == "839358285480"
    assert all(isinstance(v, str) for v in obj["values"])


@given(st.integers(1, 4), st.integers(0, 12))
@settings(max_examples=25, deadline=None)
def test_distribution_total_is_power(d, n):
    f = lr.distribution_formula(d, n)
    assert f.total() == (2 * d) ** n


@given(st.integers(1, 3), st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_distribution_symmetry(d, n):
    f = lr.distribution_formula(d, n)
    for point, count in f.sorted_items():
        mirrored = tuple(-c for c in point)
        assert f.at(mirrored) == count
        for perm in itertools.permutations(point):
            assert f.at(tuple(perm)) == count
