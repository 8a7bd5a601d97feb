"""Truncated power series over Q and mechanical verification tools:
P-recurrence residuals, ODE annihilation, singularities, Hadamard
convolution, series reciprocals, Legendre series identities, and Lucas
congruences; and the translations between ODEs and P-recurrences.

Every operation here is exact; a "pass" means an identity of integers or
rationals held on the nose, not to within a tolerance.  Polynomial
arithmetic (products, shifts, division, content) is ``kernel``'s alone:
series products and ``apply_ode`` call ``kernel.product``, and the
singularity check divides the predicted factors out of the leading
coefficient with ``kernel.poly_divmod`` instead of searching for roots.
``theta_to_recurrence`` is the one reading of an operator in
theta = z d/dz as a recurrence.

``reciprocal_series`` runs the triangular recurrence in exact arithmetic.
Every B = 1 - 1/A table comes from ``walks`` instead, by Newton's
iteration over packed Decimals; ``TruncatedSeries.__mul__`` stays a
product of Python ints (``kernel.product``, by Karatsuba's rule past its
cutoff), so the Hadamard suite's (1 - B) A = 1 checks that route with no
arithmetic in common.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InvertibilityError
from .kernel import (RationalLike, UniPoly, binomial, exact, poly_divmod, primitive,
                     product)

if TYPE_CHECKING:  # pragma: no cover
    from .walks import SequenceTable


class TruncatedSeries:
    """Prefix of a formal power series with exact coefficients (ints
    where integral, see ``kernel.exact``).

    ``order`` is the exclusive truncation bound: coefficients of
    w^0 .. w^(order-1) are held, one per given coefficient.  Arithmetic
    never invents unknown coefficients; operations that lose information
    (differentiation) shrink the order accordingly.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence):
        self.coeffs = [exact(c) for c in coeffs]
        self.order = len(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __getitem__(self, n: int) -> RationalLike:
        return self.coeffs[n]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        N = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[i] + other.coeffs[i] for i in range(N)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        N = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[i] - other.coeffs[i] for i in range(N)])

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(product(self.coeffs, other.coeffs,
                                       min(self.order, other.order)))

    def differentiate(self) -> "TruncatedSeries":
        """Formal derivative; order drops by one."""
        if self.order == 0:
            return self
        return TruncatedSeries(
            [(i + 1) * self.coeffs[i + 1] for i in range(self.order - 1)]
        )

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[:order])

    def first_nonzero(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 6 else ""
        return "TruncatedSeries([%s%s], order=%d)" % (head, tail, self.order)


@dataclass(frozen=True)
class _Operator:
    """``order`` + 1 coefficient polynomials, the leading one not
    identically zero."""

    order: int
    coefficients: tuple[UniPoly, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("need order+1 coefficient polynomials")
        if not self.coefficients[-1]:
            raise ValueError("leading coefficient must not vanish identically")


class PRecurrence(_Operator):
    """sum_{k=0}^{order} coefficients[k](n) * u_{n+k} = 0 for all n >= 0.

    ``coefficients[k]`` multiplies u_{n+k}.  Index conventions (what "u_n"
    means for a given table) are documented where each instance is
    defined.
    """

    def residual(self, values: Sequence[int], n: int) -> RationalLike:
        """Exact residual sum_k P_k(n) u_{n+k}; values[i] is u_i."""
        return sum(self.coefficients[k](n) * values[n + k]
                   for k in range(self.order + 1))


class LinearODE(_Operator):
    """sum_{k=0}^{order} coefficients[k](z) * f^(k)(z) = 0.

    ``coefficients[k]`` multiplies the k-th derivative.
    """

    @property
    def max_degree(self) -> int:
        return max(p.degree for p in self.coefficients)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one mechanical check, JSON-serializable."""

    check: str
    parameters: dict
    horizon: int
    first_failure: dict | None = field(default=None)

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_obj(self) -> dict:
        obj = {
            "check": self.check,
            "parameters": self.parameters,
            "horizon": self.horizon,
            "status": self.status,
        }
        if self.first_failure is not None:
            obj["first_failure"] = self.first_failure
        return obj


def series_from_sequence(table: "SequenceTable", N: int) -> TruncatedSeries:
    """First N coefficients of the generating function of ``table``.

    Kind X/A: coefficient of w^n is the table value at n.  Kind B: the
    constant term is 0 and the coefficient of w^n is B_{2n}.
    """
    if table.n_max < N - 1:
        raise ValueError(
            "table holds indices through %d, need %d" % (table.n_max, N - 1)
        )
    if table.kind == "B":
        coeffs = [0] + [table.value(n) for n in range(1, N)]
    else:
        coeffs = [table.value(n) for n in range(N)]
    return TruncatedSeries(coeffs)


def hadamard(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Hadamard convolution: coefficientwise product, order = min."""
    N = min(f.order, g.order)
    return TruncatedSeries([f.coeffs[i] * g.coeffs[i] for i in range(N)])


def reciprocal_series(f: TruncatedSeries) -> TruncatedSeries:
    """g with f * g = 1 to the full order of f, by the triangular
    recurrence g_n = -(1/f_0) sum_{k=1}^n f_k g_{n-k} in exact arithmetic."""
    if f.order == 0:
        raise ValueError("empty series")
    c0 = f.coeffs[0]
    if c0 == 0:
        raise InvertibilityError("series has zero constant term")
    inv0 = exact(Fraction(1) / c0)
    out = [inv0]
    for n in range(1, f.order):
        acc = 0
        for k in range(1, n + 1):
            fk = f.coeffs[k]
            if fk:
                acc += fk * out[n - k]
        out.append(-acc * inv0)
    return TruncatedSeries(out)


def check_p_recurrence(rec: PRecurrence, seq: "SequenceTable",
                       n_max: int) -> VerificationReport:
    """Evaluate the recurrence residual exactly for 0 <= n <= n_max.

    The sequence is addressed by recurrence index: position i in the
    check is seq.values[i] (for B-kind tables that is B_{2(i+1)}; the
    catalog instances document which indexing they expect).
    """
    values = seq.values
    need = n_max + rec.order
    if len(values) <= need:
        raise ValueError(
            "sequence too short: need index %d, have %d" % (need, len(values) - 1)
        )
    first_failure = None
    for n in range(n_max + 1):
        r = rec.residual(values, n)
        if r != 0:
            first_failure = {"n": n, "residual": str(r)}
            break
    return VerificationReport(
        check="p-recurrence",
        parameters={"name": rec.name, "kind": seq.kind, "d": seq.dimension,
                    "n_max": n_max},
        horizon=n_max,
        first_failure=first_failure,
    )


def apply_ode(ode: LinearODE, f: TruncatedSeries) -> tuple[TruncatedSeries, int]:
    """Residual series sum_k Q_k(z) f^(k)(z) and its validity horizon.

    The horizon is the conservative N - order - max_degree: coefficients
    beyond it may be polluted by the truncation and are cut off rather
    than reported.
    """
    horizon = f.order - ode.order - ode.max_degree
    if horizon <= 0:
        raise ValueError(
            "series order %d too small for ODE of order %d, degree %d"
            % (f.order, ode.order, ode.max_degree)
        )
    residual = [0] * horizon
    deriv = f
    for k, q in enumerate(ode.coefficients):
        if k > 0:
            deriv = deriv.differentiate()
        # O(degree * horizon): the polynomial is the outer factor.
        for i, c in enumerate(product(q.coeffs, deriv.coeffs, horizon)):
            residual[i] += c
    return TruncatedSeries(residual), horizon


def check_ode(ode: LinearODE, f: TruncatedSeries, label: dict | None = None
              ) -> VerificationReport:
    """Annihilation check: the ODE applied to f must vanish to horizon."""
    residual, horizon = apply_ode(ode, f)
    bad = residual.first_nonzero()
    first_failure = None
    if bad is not None:
        first_failure = {"coefficient": bad, "value": str(residual[bad])}
    params = {"name": ode.name, "order": ode.order, "series_order": f.order}
    if label:
        params.update(label)
    return VerificationReport(
        check="ode-annihilation",
        parameters=params,
        horizon=horizon,
        first_failure=first_failure,
    )


def theta_to_recurrence(theta_form: Sequence[UniPoly]) -> list[UniPoly]:
    """The recurrence of the operator sum_m z^m P_m(theta), theta = z d/dz,
    given as [P_0, ..., P_M]: as theta z^n = n z^n, [z^(n+M)] of the
    operator applied to sum_n u_n z^n is sum_t R_t(n) u_{n+t} with
    R_t(n) = P_{M-t}(n + t), t = 0 .. M."""
    M = len(theta_form) - 1
    return [theta_form[M - t].shift(t) for t in range(M + 1)]


def ode_to_recurrence(ode: LinearODE) -> PRecurrence:
    """Translate an ODE into the recurrence its coefficients satisfy.

    z^j D^k = z^(j-k) ff(theta, k) (ff = falling factorial), so with
    s = max(k - j) over the nonzero q_{k,j} (the z^j coefficient of the
    k-th polynomial), z^s times the ODE is the theta-form read by
    ``theta_to_recurrence``, P_m = sum_{j-k+s=m} q_{k,j} ff(theta, k).
    Each P_m sums falling factorials of distinct degrees, so neither end
    of the recurrence vanishes.  The catalog derives its recurrences
    without it; the tests use it to translate the printed ODEs
    independently.
    """
    terms = [(k, j, qj) for k, q in enumerate(ode.coefficients)
             for j, qj in enumerate(q.coeffs) if qj]
    s = max(k - j for k, j, _ in terms)
    falling = [UniPoly([1])]
    for k in range(ode.order):
        falling.append(falling[-1] * UniPoly([-k, 1]))
    theta_form = [UniPoly()] * (max(j - k for k, j, _ in terms) + s + 1)
    for k, j, qj in terms:
        theta_form[j - k + s] += qj * falling[k]
    return PRecurrence(len(theta_form) - 1, tuple(theta_to_recurrence(theta_form)),
                       name=(ode.name + " (translated)") if ode.name else "")


def recurrence_to_ode(rec: PRecurrence, name: str = "") -> LinearODE:
    """The ODE whose ``ode_to_recurrence`` is ``rec``, up to a constant.

    With theta = z d/dz, theta^i = sum_j S(i, j) z^j D^j (S the Stirling
    numbers of the second kind), the operator
    sum_t z^(r - t) R_t(theta - t) gives [z^(n+r)] = sum_t R_t(n) u_{n+t}
    for n >= 0.  Its coefficients are divided by the lowest power of z and
    by their content, and signed so that the leading polynomial has a
    positive top coefficient.  The boundary coefficients [z^m], m < r,
    need not vanish: ``check_ode`` on the series decides.
    """
    r = rec.order
    s = max(p.degree for p in rec.coefficients)
    stirling = [[1]]
    for i in range(1, s + 1):
        prev = stirling[-1] + [0]
        stirling.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, i + 1)])
    columns = [[0] * (r + s + 1) for _ in range(s + 1)]
    for t, poly in enumerate(rec.coefficients):
        # R_t(x - t) in powers of x, then each x^i as theta^i.
        for i, c in enumerate(poly.shift(-t).coeffs):
            for j in range(i + 1):
                columns[j][r - t + j] += c * stirling[i][j]
    low = min(i for col in columns for i, c in enumerate(col) if c)
    polys = [UniPoly(col[low:]) for col in columns]
    while not polys[-1]:
        polys.pop()
    return LinearODE(len(polys) - 1, tuple(primitive(polys)), name=name)


def check_singularities(ode: LinearODE, expected: set[RationalLike],
                        label: dict | None = None) -> VerificationReport:
    """The leading coefficient splits over Q into exactly the predicted
    roots: each factor q z - p of a predicted p/q is divided out of its
    primitive form as often as it divides, and the check passes iff every
    predicted root divided at least once and only a constant is left.
    ``roots`` lists the predicted roots that divided.
    """
    lead = primitive([ode.coefficients[-1]])[0]
    divided = set()
    for root in map(Fraction, expected):
        factor = UniPoly([-root.numerator, root.denominator])
        quotient, remainder = poly_divmod(lead, factor)
        while not remainder:
            lead = quotient
            divided.add(root)
            quotient, remainder = poly_divmod(lead, factor)
    ok = divided == set(expected) and lead.degree == 0
    return VerificationReport(
        check="singularities",
        parameters={**(label or {}), "roots": sorted(str(r) for r in divided)},
        horizon=0, first_failure=None if ok else {
            "expected": sorted(str(r) for r in expected),
            "unexplained_degree": lead.degree})


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % i for i in range(2, isqrt(p) + 1))


def lucas_check(terms: Iterable[int], kind: str, d: int, p: int,
                n_max: int) -> VerificationReport:
    """Check u_{np+q} == u_n * u_q (mod p) for all np+q <= n_max, reading
    the terms of the kind's sequence at d once, up to index n_max: u_0,
    u_1, ... for X and A, u_1, u_2, ... for B, which takes the convention
    u_0 = 1 (exactly why first returns fail here).  Only the residues of
    u_0 .. u_{max(p - 1, n_max // p)} are held.  Kind A then checks the
    vanishing clause A_{2n} == 0 (mod p) for (p-1)/2 < n <= p-1.
    ValueError if p is not prime or the terms run out."""
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    stream = chain([1] if kind == "B" else [], terms)
    keep = max(p - 1, n_max // p) + 1
    residues = []
    first_failure = None
    for idx in range(n_max + 1):
        lhs = next(stream, None)
        if lhs is None:
            raise ValueError("terms end before n_max=%d" % n_max)
        lhs %= p
        if idx < keep:
            residues.append(lhs)
        n, q = divmod(idx, p)
        if lhs != residues[n] * residues[q] % p:
            first_failure = {"n": n, "q": q, "index": idx, "lhs_mod_p": lhs,
                             "rhs_mod_p": residues[n] * residues[q] % p}
            break
    vanishing_checked = kind == "A" and first_failure is None
    if vanishing_checked:
        for n in range((p - 1) // 2 + 1, min(p, n_max + 1)):
            if residues[n]:
                first_failure = {"vanishing_at": n, "value_mod_p": residues[n]}
                break
    return VerificationReport(
        check="lucas", parameters={"kind": kind, "d": d, "p": p, "n_max": n_max,
                                   "vanishing_clause": vanishing_checked},
        horizon=n_max, first_failure=first_failure)


def legendre_series_identity(n: int, N: int) -> bool:
    """Check sum_m C(n+m, m)^2 w^m = (1-w)^(-2n-1) * sum_k C(n,k)^2 w^k
    coefficientwise to order N."""
    if n < 0 or N < 1:
        raise ValueError("need n >= 0 and N >= 1")
    lhs = TruncatedSeries([binomial(n + m, m) ** 2 for m in range(N)])
    # (1-w)^(-2n-1) = sum_m C(2n + m, m) w^m.
    neg_power = TruncatedSeries([binomial(2 * n + m, m) for m in range(N)])
    finite = TruncatedSeries(
        [binomial(n, k) ** 2 if k <= n else 0 for k in range(N)]
    )
    return lhs == neg_power * finite
