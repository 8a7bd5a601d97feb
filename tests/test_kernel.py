"""Exact arithmetic kernel: binomials, dense rational polynomials,
Legendre polynomials.

The Legendre oracle below uses the Rodrigues formula with hand-rolled
coefficient lists so it shares no code with kernel.UniPoly or the
three-term recurrence under test.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_returns import kernel
from lattice_returns.kernel import (
    UniPoly,
    binomial,
    binomial_row,
    exact,
    legendre_poly,
    poly_eval,
    product,
)

# ---------------------------------------------------------------------------
# oracle: P_n(x) = 1/(2^n n!) * (d/dx)^n (x^2 - 1)^n
# ---------------------------------------------------------------------------


def _list_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _list_diff(a):
    return [Fraction(k) * a[k] for k in range(1, len(a))]


def rodrigues_legendre(n):
    base = [Fraction(-1), Fraction(0), Fraction(1)]  # x^2 - 1
    poly = [Fraction(1)]
    for _ in range(n):
        poly = _list_mul(poly, base)
    for _ in range(n):
        poly = _list_diff(poly)
    scale = Fraction(1, 2**n * math.factorial(n))
    return [scale * c for c in poly]


@pytest.mark.parametrize("n", range(9))
def test_legendre_matches_rodrigues(n):
    expected = rodrigues_legendre(n)
    got = legendre_poly(n)
    assert list(got.coeffs) == expected


def test_legendre_p5_frozen():
    # 8*P_5 = 63x^5 - 70x^3 + 15x (frozen from the Rodrigues oracle)
    p5 = legendre_poly(5)
    assert list(8 * p5.coeffs[k] for k in range(6)) == [0, 15, 0, -70, 0, 63]


def test_legendre_at_one():
    for n in range(12):
        assert poly_eval(legendre_poly(n), Fraction(1)) == 1
        assert poly_eval(legendre_poly(n), Fraction(-1)) == (-1) ** n


# ---------------------------------------------------------------------------
# binomials
# ---------------------------------------------------------------------------


@given(st.integers(0, 200), st.integers(-5, 205))
def test_binomial_matches_math_comb(n, k):
    if 0 <= k <= n:
        assert binomial(n, k) == math.comb(n, k)
    else:
        assert binomial(n, k) == 0


def test_binomial_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_row():
    assert binomial_row(4) == (1, 4, 6, 4, 1)
    for n in range(61):
        assert binomial_row(n) == tuple(math.comb(n, k) for k in range(n + 1))
    with pytest.raises(ValueError):
        binomial_row(-1)


@given(st.integers(1, 120), st.integers(0, 120))
def test_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


# ---------------------------------------------------------------------------
# UniPoly ring behaviour
# ---------------------------------------------------------------------------

coeff = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
polys = st.lists(coeff, min_size=0, max_size=5).map(UniPoly)


@settings(max_examples=60)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40)
@given(polys, polys)
def test_eval_is_homomorphism(f, g):
    x = Fraction(3, 2)
    assert poly_eval(f * g, x) == poly_eval(f, x) * poly_eval(g, x)
    assert poly_eval(f + g, x) == poly_eval(f, x) + poly_eval(g, x)


def test_exact_keeps_integers_integral():
    assert exact(7) == 7 and type(exact(7)) is int
    two = exact(Fraction(4, 2))
    assert two == 2 and type(two) is int
    assert exact(0.5) == Fraction(1, 2)
    assert exact(Fraction(1, 3)) == Fraction(1, 3)
    assert all(type(c) is int for c in UniPoly([Fraction(2), 3.0, 1]).coeffs)


def test_poly_eval_number_types():
    p = UniPoly([1, 1])
    assert poly_eval(p, 0.5) == Fraction(3, 2)
    value = poly_eval(p, 4)
    assert value == 5 and type(value) is int


def test_degree_and_normalization():
    assert UniPoly([0, 0]).degree == -1
    assert not UniPoly([0])
    assert UniPoly([1, 2, 0]).degree == 1
    assert UniPoly([1, 2, 0]) == UniPoly([1, 2])


def test_shift_and_derivative():
    f = UniPoly([1, 3, 2])  # 1 + 3x + 2x^2
    g = UniPoly([0, 0, 1]) * f  # x^2 * f
    assert list(g.coeffs) == [0, 0, 1, 3, 2]
    assert list(f.derivative().coeffs) == [3, 4]


@settings(max_examples=60)
@given(polys, coeff, coeff)
def test_taylor_shift(f, t, x):
    assert f.shift(t)(x) == f(x + t)
    assert f.shift(t).shift(-t) == f


@pytest.mark.parametrize("a, b", [
    ([1, 0, -2], [3, 5]),
    ([0, 0, 4], [0, 7, 0, Fraction(1, 2)]),
    ([], [1, 2]),
    ([1, 2], []),
    ([], []),
])
def test_product_is_a_prefix_of_the_full_product(a, b):
    full = _list_mul(a, b) if a and b else []
    # n runs below, at and above len(a) + len(b) - 1.
    for n in range(len(a) + len(b) + 2):
        assert product(a, b, n) == (full + [0] * n)[:n]


def _runs(elements):
    """Coefficient lists made of runs of equal values: zero runs, and
    lengths up to 144, on both sides of kernel.KARATSUBA_CUTOFF."""
    return st.lists(st.tuples(elements, st.integers(1, 12)), max_size=12).map(
        lambda runs: [c for c, length in runs for _ in range(length)])


_ints = st.one_of(st.just(0), st.integers(-2**70, 2**70))
_rationals = st.one_of(st.just(0), st.integers(-9, 9),
                       st.fractions(-9, 9, max_denominator=12))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(_runs(_ints), _runs(_ints)),
                 st.tuples(_runs(_rationals), _runs(_rationals))),
       st.integers(0, 160), st.sampled_from([1, 2, kernel.KARATSUBA_CUTOFF]))
def test_product_equals_the_schoolbook_rule(ab, n, cutoff):
    # A cutoff of 1 or 2 sends small operands down the Karatsuba recursion.
    a, b = ab
    saved, kernel.KARATSUBA_CUTOFF = kernel.KARATSUBA_CUTOFF, cutoff
    try:
        assert product(a, b, n) == kernel._schoolbook(a, b, n)
    finally:
        kernel.KARATSUBA_CUTOFF = saved


def test_pow():
    f = UniPoly([1, 1])
    assert list((f**4).coeffs) == [1, 4, 6, 4, 1]
    assert (f**0) == UniPoly([Fraction(1)])


@settings(max_examples=40)
@given(polys, polys)
def test_derivative_product_rule(f, g):
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
