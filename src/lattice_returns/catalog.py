"""Reference data: the ODEs of F_d and A_d, the P-recurrences they
imply, predicted singularity sets, and the embedded table fixtures used
by cross-checks.

The printed ODEs are the catalog.  Each P-recurrence is derived from its
ODE by ``holonomy.ode_to_recurrence`` (the coefficient relation of
[z^n] of the operator applied to the series), so nothing here is typed
twice.

Index convention (documented once, used everywhere): the series of A_d
is sum_n A_{2n} z^n, so every recurrence is written in the half-length
index n of our tables -- "A_n" in a recurrence means the table value
A_{2n}, matching the footnote forms (n+1)A_{n+1} = 2(2n+1)A_n etc., which
only balance for the 2n-indexed sequence.  Recurrences apply from n = 0
with table position = index.
"""

from __future__ import annotations

from fractions import Fraction

from .holonomy import LinearODE, PRecurrence, ode_to_recurrence
from .kernel import UniPoly

_z = UniPoly([0, 1])


def _p(*coeffs) -> UniPoly:
    """Polynomial from ascending integer coefficients."""
    return UniPoly(coeffs)


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


# The dimensions with known ODEs for F_d and A_d, ascending.  The fast
# paths, the constants summands and the verify suites read this, so a new
# dimension is its two ODEs above and nothing else.
DIMENSIONS = tuple(sorted(_F_ODES.keys() & _A_ODES.keys()))


def _derived(ode: LinearODE, name: str) -> PRecurrence:
    """The recurrence of ``ode``, signed so that its leading polynomial
    has a positive top coefficient."""
    rec = ode_to_recurrence(ode)
    sign = 1 if rec.coefficients[-1].coeffs[-1] > 0 else -1
    return PRecurrence(rec.order, tuple(sign * p for p in rec.coefficients),
                       name=name)


def x_recurrence(d: int) -> PRecurrence:
    """The P-recurrence of x_n in dimension d, derived from ``f_ode(d)``;
    for d = 3 it is the Franel recurrence
    (n+2)^2 x_{n+2} - (10n^2+30n+23) x_{n+1} + 9(n+1)^2 x_n = 0."""
    return _derived(f_ode(d), "x d=%d" % d)


def a_recurrence(d: int) -> PRecurrence:
    """The P-recurrence of A_{2n} in dimension d, derived from
    ``a_ode(d)``."""
    return _derived(a_ode(d), "A d=%d" % d)


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
