"""Reference data: known P-recurrences, ODEs, predicted singularity sets,
and the embedded table fixtures used by cross-checks.

Index convention (documented once, used everywhere): every recurrence
below is written in the half-length index n of our tables -- "A_n" in a
recurrence means the table value A_{2n}, matching the footnote forms
(n+1)A_{n+1} = 2(2n+1)A_n etc., which only balance for the 2n-indexed
sequence.  Recurrences apply from n = 0 with table position = index.
"""

from __future__ import annotations

from fractions import Fraction

from .holonomy import LinearODE, PRecurrence
from .kernel import UniPoly

_n = UniPoly([0, 1])
_z = UniPoly([0, 1])


def _p(*coeffs) -> UniPoly:
    """Polynomial from ascending integer coefficients."""
    return UniPoly(coeffs)


# --------------------------------------------------------------------------
# P-recurrences for the x-sequences (half-length index n).
# --------------------------------------------------------------------------

_X_RECURRENCES = {
    # x_{n+1} - x_n = 0
    1: PRecurrence(1, (_p(-1), _p(1)), name="x d=1"),
    # (n+1) x_{n+1} - 2(2n+1) x_n = 0
    2: PRecurrence(1, (-2 * (2 * _n + 1), _n + 1), name="x d=2"),
    # (n+2)^2 x_{n+2} - (10n^2+30n+23) x_{n+1} + 9(n+1)^2 x_n = 0
    3: PRecurrence(
        2,
        (9 * (_n + 1) ** 2, -_p(23, 30, 10), (_n + 2) ** 2),
        name="x d=3",
    ),
    # (n+2)^3 x_{n+2} - 2(2n+3)(5n^2+15n+12) x_{n+1} + 64(n+1)^3 x_n = 0
    4: PRecurrence(
        2,
        (64 * (_n + 1) ** 3, -2 * (2 * _n + 3) * _p(12, 15, 5), (_n + 2) ** 3),
        name="x d=4",
    ),
    # (n+3)^4 x_{n+3} - (35n^4+350n^3+1323n^2+2240n+1433) x_{n+2}
    #   + (n+2)(259n^3+1554n^2+3134n+2124) x_{n+1}
    #   - 225 (n+1)^2 (n+2)^2 x_n = 0
    5: PRecurrence(
        3,
        (
            -225 * (_n + 1) ** 2 * (_n + 2) ** 2,
            (_n + 2) * _p(2124, 3134, 1554, 259),
            -_p(1433, 2240, 1323, 350, 35),
            (_n + 3) ** 4,
        ),
        name="x d=5",
    ),
}

# --------------------------------------------------------------------------
# P-recurrences for the A-sequences (table value at position n is A_{2n}).
# --------------------------------------------------------------------------

_A_RECURRENCES = {
    # (n+1) A_{n+1} - 2(2n+1) A_n = 0
    1: PRecurrence(1, (-2 * (2 * _n + 1), _n + 1), name="A d=1"),
    # (n+1)^2 A_{n+1} - 4(2n+1)^2 A_n = 0
    2: PRecurrence(1, (-4 * (2 * _n + 1) ** 2, (_n + 1) ** 2), name="A d=2"),
    # (n+2)^3 A_{n+2} - 2(2n+3)(10n^2+30n+23) A_{n+1}
    #   + 36(2n+3)(2n+1)(n+1) A_n = 0
    3: PRecurrence(
        2,
        (
            36 * (2 * _n + 3) * (2 * _n + 1) * (_n + 1),
            -2 * (2 * _n + 3) * _p(23, 30, 10),
            (_n + 2) ** 3,
        ),
        name="A d=3",
    ),
    # (n+2)^4 A_{n+2} - 4(2n+3)^2(5n^2+15n+12) A_{n+1}
    #   + 256(2n+3)(2n+1)(n+1)^2 A_n = 0
    4: PRecurrence(
        2,
        (
            256 * (2 * _n + 3) * (2 * _n + 1) * (_n + 1) ** 2,
            -4 * (2 * _n + 3) ** 2 * _p(12, 15, 5),
            (_n + 2) ** 4,
        ),
        name="A d=4",
    ),
    # (n+3)^5 A_{n+3} - 2(2n+5)(35n^4+350n^3+1323n^2+2240n+1433) A_{n+2}
    #   + 4(2n+5)(2n+3)(259n^3+1554n^2+3134n+2124) A_{n+1}
    #   - 1800(2n+5)(2n+3)(2n+1)(n+1)(n+2) A_n = 0
    5: PRecurrence(
        3,
        (
            -1800 * (2 * _n + 5) * (2 * _n + 3) * (2 * _n + 1) * (_n + 1) * (_n + 2),
            4 * (2 * _n + 5) * (2 * _n + 3) * _p(2124, 3134, 1554, 259),
            -2 * (2 * _n + 5) * _p(1433, 2240, 1323, 350, 35),
            (_n + 3) ** 5,
        ),
        name="A d=5",
    ),
}


def x_recurrence(d: int) -> PRecurrence:
    """The known P-recurrence for the x-sequence in dimension d (d <= 5)."""
    try:
        return _X_RECURRENCES[d]
    except KeyError:
        raise ValueError("no known x-recurrence for d=%d" % d) from None


def a_recurrence(d: int) -> PRecurrence:
    """The known P-recurrence for the A-sequence in dimension d (d <= 5)."""
    try:
        return _A_RECURRENCES[d]
    except KeyError:
        raise ValueError("no known A-recurrence for d=%d" % d) from None


# The dimensions with a known x- and A-recurrence, ascending.  The fast
# paths, the constants summands and the verify suites read this, so a new
# dimension is added here alone: its two recurrences above and, because
# the verify suites check them, its two ODEs below.
DIMENSIONS = tuple(sorted(_X_RECURRENCES.keys() & _A_RECURRENCES.keys()))


# --------------------------------------------------------------------------
# ODEs for the generating functions F_d (of x) and A_d (of A), d = 1..5.
# Coefficients listed lowest derivative first.
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
}

_A_ODES = {
    # (4z-1) A' + 2A = 0
    1: LinearODE(1, (_p(2), 4 * _z - 1), name="A_1"),
    # z(16z-1) A'' + (32z-1) A' + 4A = 0
    2: LinearODE(2, (_p(4), 32 * _z - 1, _z * (16 * _z - 1)), name="A_2"),
    # z^2(4z-1)(36z-1) A''' + 3z(288z^2-60z+1) A''
    #   + (972z^2-132z+1) A' + 6(18z-1) A = 0
    3: LinearODE(
        3,
        (
            6 * (18 * _z - 1),
            _p(1, -132, 972),
            3 * _z * _p(1, -60, 288),
            _z ** 2 * (4 * _z - 1) * (36 * _z - 1),
        ),
        name="A_3",
    ),
    # z^3(16z-1)(64z-1) A'''' + 2z^2(5120z^2-320z+3) A'''
    #   + z(25344z^2-1172z+7) A'' + (14592z^2-424z+1) A' + 8(96z-1) A = 0
    4: LinearODE(
        4,
        (
            8 * (96 * _z - 1),
            _p(1, -424, 14592),
            _z * _p(7, -1172, 25344),
            2 * _z ** 2 * _p(3, -320, 5120),
            _z ** 3 * (16 * _z - 1) * (64 * _z - 1),
        ),
        name="A_4",
    ),
    # z^4(4z-1)(36z-1)(100z-1) A^(5) + z^3(252000z^3-62160z^2+1750z-10) A''''
    #   + z^2(1314000z^3-268740z^2+5992z-25) A'''
    #   + z(2295000z^3-369240z^2+5964z-15) A''
    #   + (1080000z^3-124020z^2+1196z-1) A' + (54000z^2-3420z+10) A = 0
    5: LinearODE(
        5,
        (
            _p(10, -3420, 54000),
            _p(-1, 1196, -124020, 1080000),
            _z * _p(-15, 5964, -369240, 2295000),
            _z ** 2 * _p(-25, 5992, -268740, 1314000),
            _z ** 3 * _p(-10, 1750, -62160, 252000),
            _z ** 4 * (4 * _z - 1) * (36 * _z - 1) * (100 * _z - 1),
        ),
        name="A_5",
    ),
}


def f_ode(d: int) -> LinearODE:
    """The known ODE annihilating F_d (d <= 5)."""
    try:
        return _F_ODES[d]
    except KeyError:
        raise ValueError("no known F-ODE for d=%d" % d) from None


def a_ode(d: int) -> LinearODE:
    """The known ODE annihilating A_d (d <= 5)."""
    try:
        return _A_ODES[d]
    except KeyError:
        raise ValueError("no known A-ODE for d=%d" % d) from None


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
