"""Truncated power series over Q and mechanical verification tools:
P-recurrence residuals, ODE annihilation, Hadamard convolution, series
reciprocals, Legendre series identities, and Lucas congruences.

Every operation here is exact; a "pass" means an identity of integers or
rationals held on the nose, not to within a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import InvertibilityError
from .kernel import RationalLike, UniPoly, binomial, exact, poly_eval

if TYPE_CHECKING:  # pragma: no cover
    from .walks import SequenceTable


class TruncatedSeries:
    """Prefix of a formal power series with exact coefficients (ints
    where integral, see ``kernel.exact``).

    ``order`` is the exclusive truncation bound: coefficients of
    w^0 .. w^(order-1) are held.  Arithmetic never invents unknown
    coefficients; operations that lose information (differentiation)
    shrink the order accordingly.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        cs = [exact(c) for c in coeffs]
        if order is None:
            order = len(cs)
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(cs) < order:
            raise ValueError("need %d coefficients, got %d" % (order, len(cs)))
        self.coeffs = cs[:order]
        self.order = order

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
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        N = min(self.order, other.order)
        out = [0] * N
        for i, a in enumerate(self.coeffs[:N]):
            if a:
                for j in range(N - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def poly_mul(self, p: UniPoly) -> "TruncatedSeries":
        """Multiply by a polynomial.  The polynomial is exact (not a
        truncation), so the valid order is preserved."""
        out = [0] * self.order
        for j, pj in enumerate(p.coeffs):
            if pj:
                for i in range(self.order - j):
                    c = self.coeffs[i]
                    if c:
                        out[i + j] += pj * c
        return TruncatedSeries(out)

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
class PRecurrence:
    """sum_{k=0}^{order} coefficients[k](n) * u_{n+k} = 0 for all n >= 0.

    ``coefficients[k]`` multiplies u_{n+k}; the leading polynomial is not
    identically zero.  Index conventions (what "u_n" means for a given
    table) are documented where each instance is defined.
    """

    order: int
    coefficients: tuple[UniPoly, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("need order+1 coefficient polynomials")
        if not self.coefficients[-1]:
            raise ValueError("leading coefficient must not vanish identically")

    def residual(self, values: Sequence[int], n: int) -> RationalLike:
        """Exact residual sum_k P_k(n) u_{n+k}; values[i] is u_i."""
        return sum(self.coefficients[k](n) * values[n + k]
                   for k in range(self.order + 1))


@dataclass(frozen=True)
class LinearODE:
    """sum_{k=0}^{order} coefficients[k](z) * f^(k)(z) = 0.

    ``coefficients[k]`` multiplies the k-th derivative; the leading
    polynomial is not identically zero.
    """

    order: int
    coefficients: tuple[UniPoly, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("need order+1 coefficient polynomials")
        if not self.coefficients[-1]:
            raise ValueError("leading coefficient must not vanish identically")

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
    """g with f * g = 1 to the full order of f."""
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
    residual = None
    deriv = f
    for k in range(ode.order + 1):
        if k > 0:
            deriv = deriv.differentiate()
        term = deriv.poly_mul(ode.coefficients[k])
        residual = term if residual is None else residual + term
    return residual.truncate(horizon), horizon


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


def ode_to_recurrence(ode: LinearODE) -> PRecurrence:
    """Translate an ODE into the recurrence its coefficients satisfy.

    From [z^n] of Q(z) f^(k)(z) with Q = sum_j q_j z^j:

        sum_{k,j} q_{k,j} * ff(n - j + k, k) * u_{n-j+k}

    (ff = falling factorial).  Shifting n by g = max(j - k) over the
    nonzero q_{k,j}, the least shift that makes every offset nonnegative,
    gives the recurrence R with sum_t R_t(n) u_{n+t} = 0 for all n >= 0,
    t ranging over 0 .. order + g.  Because the shift is least, R_0 is
    not identically zero unless its terms cancel.
    """
    terms = [(k, j, qj) for k, q in enumerate(ode.coefficients)
             for j, qj in enumerate(q.coeffs) if qj]
    g = max(j - k for k, j, _ in terms)
    shifts: dict[int, UniPoly] = {}
    for k, j, qj in terms:
        t = k - j + g
        # ff(n + t, k) as a polynomial in n: product_{i<k} (n + t - i).
        poly = UniPoly([qj])
        for i in range(k):
            poly = poly * UniPoly([t - i, 1])
        shifts[t] = shifts.get(t, UniPoly()) + poly
    max_t = max(t for t, p in shifts.items() if p)
    coeffs = tuple(shifts.get(t, UniPoly()) for t in range(max_t + 1))
    return PRecurrence(max_t, coeffs, name=(ode.name + " (translated)") if ode.name else "")


def ode_singularities(ode: LinearODE) -> tuple[set[RationalLike], bool]:
    """Rational roots of the leading coefficient, via the rational root
    theorem on the integer-cleared polynomial.

    Returns (roots, has_irrational_factor): if the deflated polynomial
    does not fully factor over Q the flag is True (nothing is dropped
    silently).
    """
    lead = ode.coefficients[-1]
    # Clear denominators to integer coefficients.
    denom_lcm = math.lcm(*(c.denominator for c in lead.coeffs))
    ints = [int(c * denom_lcm) for c in lead.coeffs]
    roots: set[RationalLike] = set()
    # Strip powers of z (root zero).
    v = 0
    while v < len(ints) and ints[v] == 0:
        v += 1
    if v > 0:
        roots.add(0)
    poly = ints[v:]
    # Deflate every rational root p/q with p | poly[0], q | poly[-1].
    # Deflating by a nonzero root keeps the constant term nonzero.
    while len(poly) > 1:
        current = UniPoly(poly)
        found = next((cand for p in _divisors(abs(poly[0]))
                      for q in _divisors(abs(poly[-1]))
                      for cand in (Fraction(p, q), Fraction(-p, q))
                      if poly_eval(current, cand) == 0), None)
        if found is None:
            return roots, True
        roots.add(found)
        poly = _deflate(poly, found)
    return roots, False


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _deflate(ints: Sequence[int], root: Fraction) -> list[int]:
    """Divide the integer polynomial by (x - root), exactly.

    With root = p/q, q * leading stays integral after scaling; we do the
    division over Q and clear the common denominator again.
    """
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        carry = ints[i] + carry * root
        out[i - 1] = carry
    # Synthetic division from the top: out[i-1] holds the quotient coeff.
    denom_lcm = math.lcm(*(c.denominator for c in out))
    return [int(c * denom_lcm) for c in out]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def lucas_check(seq: "SequenceTable", p: int, n_max: int) -> VerificationReport:
    """Check u_{np+q} == u_n * u_q (mod p) for all np+q <= n_max.

    For kind A additionally checks the vanishing clause
    A_{2n} == 0 (mod p) for (p-1)/2 < n <= p-1.  Kind B has no value at
    index 0; pairs needing u_0 treat it as the (absent) convention u_0=1,
    which is exactly why B-tables are expected to fail here.
    """
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if seq.n_max < n_max:
        raise ValueError("table too short for n_max=%d" % n_max)

    def u(i: int) -> int | None:
        if i < seq.offset:
            return 1 if i == 0 else None
        return seq.value(i)

    first_failure = None
    for n in range(0, n_max // p + 1):
        if first_failure:
            break
        for q in range(p):
            idx = n * p + q
            if idx > n_max:
                break
            lhs, un, uq = u(idx), u(n), u(q)
            if lhs is None or un is None or uq is None:
                continue
            if (lhs - un * uq) % p != 0:
                first_failure = {
                    "n": n, "q": q, "index": idx,
                    "lhs_mod_p": lhs % p, "rhs_mod_p": (un * uq) % p,
                }
                break
    vanishing_checked = False
    if seq.kind == "A" and first_failure is None:
        vanishing_checked = True
        for n in range((p - 1) // 2 + 1, p):
            if n > n_max:
                break
            if seq.value(n) % p != 0:
                first_failure = {"vanishing_at": n, "value_mod_p": seq.value(n) % p}
                break
    return VerificationReport(
        check="lucas",
        parameters={"kind": seq.kind, "d": seq.dimension, "p": p,
                    "n_max": n_max, "vanishing_clause": vanishing_checked},
        horizon=n_max,
        first_failure=first_failure,
    )


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
