"""Reference data: the P-recurrences of x_n and A_{2n} and the ODEs of
F_d and A_d for every dimension d >= 1, predicted singularity sets, and
the embedded table fixtures used by cross-checks.

A dimension is a number.  The ladder x^{(d+1)}_n = sum_k C(n,k)^2 x^{(d)}_k
says that X_d(z) = sum_n x_n z^n / n!^2 = I_0(2 sqrt z)^d, and
``x_recurrence(d)`` derives the recurrence of x_n from that closed form:
with y = I_0(2 sqrt z) and theta = z d/dz, theta^2 y = z y, so the d + 1
products e_j = y^(d-j) (theta y)^j span a module closed under theta,

    theta e_j = (d - j) e_{j+1} + j z e_{j-1},

and the d + 2 vectors theta^k e_0 (k = 0..d+1) are linearly dependent
over Z[z].  Their dependency sum_k q_k(z) theta^k annihilates X_d; read
at [z^n] with x_n = n!^2 c_n it is the recurrence.  This is the
symmetric-power argument of Borwein & Salvy, "A proof of a recursion for
Bessel moments", Experimental Math. 17 (2008), so every recurrence here
is proved, not fitted.  F_d's ODE is the recurrence's ODE
(``holonomy.recurrence_to_ode``); for d <= 5 it is the paper's printed
ODE, coefficient for coefficient (a test holds the printed forms).  The
A-recurrence follows from the x-recurrence, as A_{2n} = C(2n, n) x_n,
and the ODE of A_d from that.

Index convention (documented once, used everywhere): the series of A_d
is sum_n A_{2n} z^n, so every recurrence is written in the half-length
index n of our tables -- "A_n" in a recurrence means the table value
A_{2n}, matching the footnote forms (n+1)A_{n+1} = 2(2n+1)A_n etc., which
only balance for the 2n-indexed sequence.  Recurrences apply from n = 0
with table position = index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import check_budget
from .holonomy import LinearODE, PRecurrence, recurrence_to_ode, theta_to_recurrence
from .kernel import UniPoly, poly_divmod, poly_gcd, primitive

_z = UniPoly([0, 1])

# The dimensions whose ODEs the paper prints: the default scope of every
# verify suite.
PRINTED_DIMENSIONS = (1, 2, 3, 4, 5)

# x_recurrence refuses a dimension whose derivation would take more work
# units than this, with d^7 units at d: its time grows as about d^6.5 to
# d^7 (0.67 s at d = 64, 9.2 s at d = 96 on a 2-vCPU AMD EPYC VM).  The
# budget admits d <= 100 and refuses d = 128 (5.6e14), which took 63 s.
DERIVATION_BUDGET = 10**14


def _theta_kernel(d: int) -> list[UniPoly]:
    """Primitive q_0 .. q_{d+1} in Z[z] with sum_k q_k theta^k X_d = 0.

    Column k holds theta^k e_0 in the basis e_0 .. e_d.  As theta raises
    the index by at most one, the first d + 1 columns are upper
    triangular, with the integers d!/(d-k)! on the diagonal; so with
    q_{d+1} their product, back-substitution divides exactly in Z[z]
    (the q_k are then the maximal minors, by Cramer's rule).
    """
    column = [UniPoly([1])] + [UniPoly()] * d
    columns = [column]
    for _ in range(d + 1):
        # One zero past each end: c[-1] and c[d + 1] read it.
        c = column + [UniPoly()]
        column = [_z * c[j].derivative() + (d - j + 1) * c[j - 1]
                  + (j + 1) * _z * c[j + 1] for j in range(d + 1)]
        columns.append(column)
    pivots = [columns[i][i].coeffs[0] for i in range(d + 1)]
    q = [UniPoly()] * (d + 1) + [UniPoly([math.prod(pivots)])]
    for i in reversed(range(d + 1)):
        acc = sum((columns[j][i] * q[j] for j in range(i + 1, d + 2)), UniPoly())
        q[i] = acc * Fraction(-1, pivots[i])
    return primitive(q)


@lru_cache(maxsize=None)
def x_recurrence(d: int) -> PRecurrence:
    """The P-recurrence of x_n in dimension d, derived from
    X_d = I_0(2 sqrt z)^d (see the module docstring); for d = 3 it is the
    Franel recurrence
    (n+2)^2 x_{n+2} - (10n^2+30n+23) x_{n+1} + 9(n+1)^2 x_n = 0.

    The kernel is the theta-form sum_i z^i Q_i(theta), Q_i(m) =
    sum_k q_{k,i} m^k, of z-degree I.  Its recurrence in c_n = x_n/n!^2
    (``theta_to_recurrence``), times (n+I)!^2/n!^2, gives x_{n+j} the
    coefficient Q_{I-j}(n+j) prod_{l=j+1..I} (n+l)^2.  Their common
    factor, (n+I)^2 for every d measured (1..16), and their content are
    divided out.  If the leading coefficient does not vanish at n = -I,
    every coefficient is multiplied by n + I: ``recurrence_to_ode`` leaves
    that value times x_0 as the operator's constant term, so the factor
    makes the ODE homogeneous.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1, got %d" % d)
    check_budget("the recurrence derivation at d = %d" % d, d**7, "work units (d^7)",
                 DERIVATION_BUDGET)
    q = _theta_kernel(d)
    order = max(p.degree for p in q)
    polys = theta_to_recurrence(
        [UniPoly(p.coeffs[i] if i <= p.degree else 0 for p in q)
         for i in range(order + 1)])
    for j in range(order):
        for l in range(j + 1, order + 1):
            polys[j] *= UniPoly([l, 1]) ** 2
    common = reduce(poly_gcd, polys)
    polys = primitive(poly_divmod(p, common)[0] for p in polys)
    if polys[-1](-order):
        polys = [p * UniPoly([order, 1]) for p in polys]
    return PRecurrence(order, tuple(polys), name="x d=%d" % d)


def f_ode(d: int) -> LinearODE:
    """The ODE annihilating F_d, of order d - 1 for d >= 2: the ODE of
    ``x_recurrence(d)``.  For d <= 5 it is the paper's printed F-ODE."""
    return recurrence_to_ode(x_recurrence(d), name="F_%d" % d)


def a_ode(d: int) -> LinearODE:
    """The ODE annihilating A_d, of order d: the ODE of ``a_recurrence(d)``.
    For d <= 5 it is the paper's printed A-ODE, coefficient for
    coefficient."""
    return recurrence_to_ode(a_recurrence(d), name="A_%d" % d)


@lru_cache(maxsize=None)
def _a_derived(rec: PRecurrence, name: str) -> PRecurrence:
    """The recurrence of A_{2n} = C(2n, n) x_n from the x-recurrence
    sum_k P_k(n) x_{n+k} = 0 of order r.  Cached on the recurrence's
    value, so a replaced ``x_recurrence`` gets its own derivation.

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
