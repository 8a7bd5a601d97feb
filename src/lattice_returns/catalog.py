"""Reference data: the ODEs of F_d and A_d, the P-recurrences they
imply, predicted singularity sets, and the embedded table fixtures used
by cross-checks.

The ODEs of F_d are the catalog: printed in the paper for d <= 5,
guessed from the binomial ladder for d = 6, 7, 8 (and labelled so).  The
x-recurrence of each is derived from its ODE by
``holonomy.ode_to_recurrence`` (the coefficient relation of [z^n] of the
operator applied to the series), and the A-recurrence from the
x-recurrence, as A_{2n} = C(2n, n) x_n, and the ODE of A_d from that
recurrence by ``holonomy.recurrence_to_ode``; so a dimension is one ODE
and nothing here is typed twice.  For d <= 5 the derived A-ODEs are the
paper's printed ones, coefficient for coefficient (a test holds the
printed forms).

Index convention (documented once, used everywhere): the series of A_d
is sum_n A_{2n} z^n, so every recurrence is written in the half-length
index n of our tables -- "A_n" in a recurrence means the table value
A_{2n}, matching the footnote forms (n+1)A_{n+1} = 2(2n+1)A_n etc., which
only balance for the 2n-indexed sequence.  Recurrences apply from n = 0
with table position = index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

from .holonomy import LinearODE, PRecurrence, ode_to_recurrence, recurrence_to_ode
from .kernel import UniPoly, poly_divmod, poly_gcd, primitive

_z = UniPoly([0, 1])


def _p(*coeffs) -> UniPoly:
    """Polynomial from ascending integer coefficients."""
    return UniPoly(coeffs)


# --------------------------------------------------------------------------
# ODEs for the generating functions F_d (of x), d = 1..8.  Coefficients
# listed lowest derivative first.
# --------------------------------------------------------------------------

_F_ODES = {
    # (z-1) F' + F = 0
    1: LinearODE(1, (_p(1), _z - 1), name="F_1"),
    # (4z-1) F' + 2F = 0
    2: LinearODE(1, (_p(2), 4 * _z - 1), name="F_2"),
    # z(z-1)(9z-1) F'' + (27z^2-20z+1) F' + 3(3z-1) F = 0
    3: LinearODE(
        2,
        (3 * (3 * _z - 1), _p(1, -20, 27), _z * (_z - 1) * (9 * _z - 1)),
        name="F_3",
    ),
    # z^2(4z-1)(16z-1) F''' + 3z(128z^2-30z+1) F''
    #   + (448z^2-68z+1) F' + 4(16z-1) F = 0
    4: LinearODE(
        3,
        (
            4 * (16 * _z - 1),
            _p(1, -68, 448),
            3 * _z * _p(1, -30, 128),
            _z ** 2 * (4 * _z - 1) * (16 * _z - 1),
        ),
        name="F_4",
    ),
    # z^3(z-1)(9z-1)(25z-1) F'''' + z^2(2700z^3-2590z^2+280z-6) F'''
    #   + z(8550z^3-6501z^2+518z-7) F'' + (7200z^3-3963z^2+196z-1) F'
    #   + (900z^2-285z+5) F = 0
    # The F' constant term is sometimes quoted as +1; that operator fails
    # already at the constant coefficient (5*x_0 + 1*x_1 = 10 for d = 5),
    # while -1 annihilates the exact series to every order we can test.
    5: LinearODE(
        4,
        (
            _p(5, -285, 900),
            _p(-1, 196, -3963, 7200),
            _z * _p(-7, 518, -6501, 8550),
            _z ** 2 * _p(-6, 280, -2590, 2700),
            _z ** 3 * (_z - 1) * (9 * _z - 1) * (25 * _z - 1),
        ),
        name="F_5",
    ),
    # F_6, F_7 and F_8 are guessed, not printed: the paper gives the ODEs
    # for d <= 5 only.  Each is recurrence_to_ode of the P-recurrence
    # that holonomy.guess_p_recurrence fits to x_0 .. x_149 of the
    # binomial ladder, of shape (order, degree) (3, 5), (4, 6) and (4, 7);
    # tests guess them again, and check them against the ladder far past
    # the fitted terms.  Each has order d - 1 and leading coefficient
    # z^(d-2) prod (k^2 z - 1) over k = d, d - 2, ... >= 1.
    6: LinearODE(
        5,
        (
            _p(6, -1020, 13824),
            _p(-1, 516, -25956, 193536),
            _z * _p(-15, 2436, -71976, 380160),
            _z ** 2 * _p(-25, 2408, -51196, 211968),
            _z ** 3 * _p(-10, 700, -11760, 40320),
            _z ** 4 * (4 * _z - 1) * (16 * _z - 1) * (36 * _z - 1),
        ),
        name="F_6",
    ),
    7: LinearODE(
        6,
        (
            _p(-7, 3213, -124040, 396900),
            _p(1, -1284, 142335, -2852224, 5953500),
            _z * _p(31, -10218, 623925, -8617996, 13693050),
            _z ** 2 * _p(90, -16464, 702780, -7501752, 9724050),
            _z ** 3 * _p(65, -8358, 277548, -2433386, 2679075),
            _z ** 4 * _p(15, -1512, 41454, -309984, 297675),
            _z ** 5 * (_z - 1) * (9 * _z - 1) * (25 * _z - 1)
            * (49 * _z - 1),
        ),
        name="F_7",
    ),
    8: LinearODE(
        7,
        (
            _p(-8, 9312, -850944, 10616832),
            _p(1, -3076, 694464, -30806016, 244187136),
            _z * _p(63, -39870, 4617072, -136757760, 812187648),
            _z ** 2 * _p(301, -98460, 7715232, -173636608, 833421312),
            _z ** 3 * _p(350, -77700, 4652100, -85137920, 345047040),
            _z ** 4 * _p(140, -23856, 1166268, -18089984, 63700992),
            _z ** 5 * _p(21, -2940, 122304, -1653120, 5160960),
            _z ** 6 * (4 * _z - 1) * (16 * _z - 1) * (36 * _z - 1)
            * (64 * _z - 1),
        ),
        name="F_8",
    ),
}

# The dimensions with an ODE for F_d, ascending: the fast paths, the
# constants summands and the verify suites cover these.
DIMENSIONS = tuple(sorted(_F_ODES))

# The dimensions whose ODEs the paper prints: the default scope of every
# verify suite.
PRINTED_DIMENSIONS = (1, 2, 3, 4, 5)


def f_ode(d: int) -> LinearODE:
    """The ODE annihilating F_d: printed for d <= 5, guessed for d = 6..8."""
    try:
        return _F_ODES[d]
    except KeyError:
        raise ValueError("no known F-ODE for d=%d" % d) from None


def a_ode(d: int) -> LinearODE:
    """The ODE annihilating A_d, of order d: the ODE of ``a_recurrence(d)``.
    For d <= 5 it is the paper's printed A-ODE, coefficient for
    coefficient."""
    return recurrence_to_ode(a_recurrence(d), name="A_%d" % d)


@lru_cache(maxsize=None)
def _x_derived(ode: LinearODE, name: str) -> PRecurrence:
    """The recurrence of ``ode``, primitive and with a positive top
    coefficient of its leading polynomial.  Cached on the ODE's value, so
    a replaced ``f_ode`` gets its own derivation."""
    rec = ode_to_recurrence(ode)
    return PRecurrence(rec.order, tuple(primitive(rec.coefficients)), name=name)


@lru_cache(maxsize=None)
def _a_derived(rec: PRecurrence, name: str) -> PRecurrence:
    """The recurrence of A_{2n} = C(2n, n) x_n from the x-recurrence
    sum_k P_k(n) x_{n+k} = 0 of order r.

    As C(2n+2k, n+k) / C(2n, n) = prod_{i<k} 2(2n+2i+1)/(n+i+1), the
    coefficient of A_{n+k} is P_k(n) prod_{i<k} (n+i+1)
    prod_{k<=i<r} 2(2n+2i+1), divided by the common polynomial factor of
    all of them and by their content; otherwise the polynomials carry up
    to r spare degrees through every step of the loops that iterate them.
    """
    r = rec.order
    polys = []
    for k, p in enumerate(rec.coefficients):
        for i in range(k):
            p = p * UniPoly([i + 1, 1])
        for i in range(k, r):
            p = p * UniPoly([2 * (2 * i + 1), 4])
        polys.append(p)
    common = reduce(poly_gcd, polys)
    polys = [poly_divmod(p, common)[0] for p in polys]
    return PRecurrence(r, tuple(primitive(polys)), name=name)


def x_recurrence(d: int) -> PRecurrence:
    """The P-recurrence of x_n in dimension d, derived from ``f_ode(d)``;
    for d = 3 it is the Franel recurrence
    (n+2)^2 x_{n+2} - (10n^2+30n+23) x_{n+1} + 9(n+1)^2 x_n = 0."""
    return _x_derived(f_ode(d), "x d=%d" % d)


def a_recurrence(d: int) -> PRecurrence:
    """The P-recurrence of A_{2n} in dimension d, derived from
    ``x_recurrence(d)``; ``a_ode(d)`` is its ODE."""
    return _a_derived(x_recurrence(d), "A d=%d" % d)


def expected_f_singularities(d: int) -> set[Fraction]:
    """Predicted rational singularities of F_d: 1/k^2 for k <= d of the
    same parity as d, plus the apparent root 0 of the leading coefficient
    for d >= 3."""
    ks = range(2 - d % 2, d + 1, 2)
    roots = {Fraction(1, k * k) for k in ks}
    if d >= 3:
        roots.add(Fraction(0))
    return roots


def expected_a_singularities(d: int) -> set[Fraction]:
    """Predicted rational singularities of A_d: 1/(2k)^2 for k <= d of the
    same parity as d, plus the apparent root 0 for d >= 2."""
    ks = range(2 - d % 2, d + 1, 2)
    roots = {Fraction(1, 4 * k * k) for k in ks}
    if d >= 2:
        roots.add(Fraction(0))
    return roots


# --------------------------------------------------------------------------
# Embedded fixtures: the first eight terms of A_{2n} and B_{2n}, d = 1..4.
# Offline OEIS cross-references: A^(1) = A000984, B^(1) = A284016,
# A^(2) = A002894, B^(2) = A054474, A^(3) = A002896, B^(3) = A049037,
# A^(4) = A039699, B^(4) = A359801; x-sequences: d=3 A002893, d=4 A002895,
# d=5 A169714; A-sequence d=5: A287317.
# --------------------------------------------------------------------------

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

OEIS_IDS = {
    ("A", 1): "A000984", ("B", 1): "A284016",
    ("A", 2): "A002894", ("B", 2): "A054474",
    ("A", 3): "A002896", ("B", 3): "A049037",
    ("A", 4): "A039699", ("B", 4): "A359801",
    ("X", 3): "A002893", ("X", 4): "A002895", ("X", 5): "A169714",
    ("A", 5): "A287317",
}
