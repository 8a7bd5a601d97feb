"""Truncated power series over Q and mechanical verification tools:
P-recurrence residuals, ODE annihilation, Hadamard convolution, series
reciprocals, Legendre series identities, and Lucas congruences.

Every operation here is exact; a "pass" means an identity of integers or
rationals held on the nose, not to within a tolerance.

``reciprocal_series`` inverts an int series with constant term +-1 (every
B = 1 - 1/A table) by a multi-modular route: the majorant
1/(1 - sum_{k>=1} R^k z^k), log2 R = max_k bitlen(f_k)/k, bounds the
inverse's coefficients; the triangular recurrence runs in numpy modulo
just enough primes below 2^26 to cover twice that bound, and CRT
rebuilds each coefficient.  ``TruncatedSeries.__mul__`` stays a
schoolbook product of Python ints, so the Hadamard suite's
(1 - B) A = 1 checks the inverse by an independent route: a CRT product
sharing a too-small bound would agree with a wrong B modulo the same M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

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
    """g with f * g = 1 to the full order of f.

    An int series with constant term +-1 has an integral inverse.  It is
    found modulo the fewest primes below 2^26 whose product exceeds twice
    a majorant bound on its coefficients, and rebuilt by CRT
    (``_integral_reciprocal``).  Every other series runs the triangular
    recurrence g_n = -(1/f_0) sum_{k=1}^n f_k g_{n-k} in exact arithmetic.
    Products of series stay schoolbook, so ``inverse * f == 1`` is an
    independent check of this route.
    """
    if f.order == 0:
        raise ValueError("empty series")
    c0 = f.coeffs[0]
    if c0 == 0:
        raise InvertibilityError("series has zero constant term")
    if c0 in (1, -1) and all(type(c) is int for c in f.coeffs):
        out = _integral_reciprocal(f.coeffs)
        if out is not None:
            return TruncatedSeries(out)
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


# Multi-modular arithmetic for ``_integral_reciprocal``.  Every residue
# lies below a prime p < 2^26, so the product of two residues is below
# 2^52 and a 16-bit limb times a residue below 2^42.  Each accumulation
# sums at most _CHUNK = 2^11 such products between reductions: that keeps
# int64 sums below 2^11 * 2^52 = 2^63 and float64 sums below
# 2^11 * 2^42 = 2^53, where every integer is exact.
_LIMB = 16
_CHUNK = 1 << 11
_ROWS = 256  # rows per block of the float64 limb matrices
# Primes are taken from (2^25, 2^26), which holds 1,894,120 of them.  A
# bound that may need more than 2^20 is left to the exact loop; with at
# most 2^20 primes the CRT sums stay below 2^9 chunks of 2^53.
_MAX_PRIMES = 1 << 20
_PRIMES: list[int] = []  # descending from 2^26, extended by _primes


def _integral_reciprocal(coeffs: Sequence[int]) -> list[int] | None:
    """1/f for ints f_0 = +-1, f_1, ...: the triangular recurrence run
    modulo enough primes at once, then CRT to the symmetric range.

    |f_k| < R^k with log2 R = max_k bitlen(f_k)/k, so the majorant
    1/(1 - sum_{k>=1} R^k z^k) = (1 - Rz)/(1 - 2Rz) bounds |g_n| by
    2^(n-1) R^n: every g_n has at most bits = N - 1 + ceil((N-1) log2 R)
    bits, and primes with product M > 2^(bits+1) determine it.  None if
    that may take more than _MAX_PRIMES primes.
    """
    N = len(coeffs)
    bits = N - 1 + max((-(-(N - 1) * c.bit_length() // k)
                        for k, c in enumerate(coeffs[1:], 1)), default=0)
    chosen = _crt_primes(bits + 1)
    if chosen is None:
        return None
    primes, M = chosen
    p = np.array(primes, dtype=np.int64)
    # f_rev[N-1-k] = f_k mod p, so both operands below run forward.
    f_rev = _residues(coeffs[::-1], p)
    g = np.empty_like(f_rev)
    g[0] = coeffs[0] % p
    for n in range(1, N):
        acc = np.zeros_like(p)
        for j in range(0, n, _CHUNK):
            k = min(n, j + _CHUNK)
            # sum_{i=j}^{k-1} f_{n-i} g_i: at most 2^11 products below
            # 2^52, so the int64 sum stays below 2^63.
            acc += np.einsum("ip,ip->p", f_rev[N - 1 - n + j:N - 1 - n + k],
                             g[j:k]) % p
        g[n] = (-coeffs[0] * acc) % p
    return _crt(g, p, M)


def _primes(count: int) -> list[int]:
    """The ``count`` largest primes below 2^26, descending, from a
    segmented numpy sieve run only as far as needed."""
    hi = _PRIMES[-1] if _PRIMES else 1 << 26
    while len(_PRIMES) < count:
        lo = hi - (1 << 16)
        alive = np.ones(hi - lo, dtype=bool)
        for q in _small_primes():
            alive[-lo % q::q] = False
        _PRIMES.extend((lo + np.flatnonzero(alive)[::-1]).tolist())
        hi = lo
    return _PRIMES[:count]


@lru_cache(maxsize=None)
def _small_primes() -> tuple[int, ...]:
    """The primes below 2^13, which sieve every number below 2^26."""
    alive = np.ones(1 << 13, dtype=bool)
    alive[:2] = False
    for q in range(2, 91):
        if alive[q]:
            alive[q * q::q] = False
    return tuple(np.flatnonzero(alive).tolist())


def _crt_primes(bits: int) -> tuple[list[int], int] | None:
    """The fewest largest primes below 2^26 whose product M exceeds
    2^bits, and M; None if that may take more than _MAX_PRIMES."""
    # Each prime exceeds 2^25, so bits // 25 + 1 of them always suffice.
    if bits // 25 + 1 > _MAX_PRIMES:
        return None
    candidates = _primes(bits // 25 + 1)
    M, count = 1, 0
    while M <= 1 << bits:
        M *= candidates[count]
        count += 1
    return candidates[:count], M


def _limbs(values: Sequence[int]) -> np.ndarray:
    """|values| as rows of 16-bit limbs, least significant first."""
    width = max(v.bit_length() for v in values) // _LIMB + 1
    raw = b"".join(abs(v).to_bytes(2 * width, "little") for v in values)
    return np.frombuffer(raw, dtype="<u2").reshape(len(values), width)


def _limb_powers(p: np.ndarray, width: int) -> np.ndarray:
    """2^(16 j) mod p for j < width, as a (width, len(p)) float64 table,
    by doubling the filled rows."""
    table = np.ones((width, len(p)), dtype=np.int64)
    step = (1 << _LIMB) % p  # 2^(16 * filled) mod p
    filled = 1
    while filled < width:
        take = min(filled, width - filled)
        table[filled:filled + take] = table[:take] * step % p
        step = step * step % p
        filled += take
    return table.astype(np.float64)


def _residues(values: Sequence[int], p: np.ndarray) -> np.ndarray:
    """values mod each prime, as a (len(values), len(p)) int64 array."""
    limbs = _limbs(values)
    powers = _limb_powers(p, limbs.shape[1])
    out = np.zeros((len(values), len(p)), dtype=np.int64)
    for r in range(0, len(values), _ROWS):
        block = limbs[r:r + _ROWS].astype(np.float64)
        for c in range(0, block.shape[1], _CHUNK):
            # At most 2^11 products limb * (2^(16j) mod p) below 2^42, so
            # the float64 sum stays below 2^53.
            part = np.einsum("ij,jp->ip", block[:, c:c + _CHUNK],
                             powers[c:c + _CHUNK])
            out[r:r + _ROWS] += part.astype(np.int64) % p
    negative = np.array([v < 0 for v in values])
    np.negative(out, out=out, where=negative[:, None])
    return np.remainder(out, p, out=out)


def _crt(residues: np.ndarray, p: np.ndarray, M: int) -> list[int]:
    """The integers in (-M/2, M/2) with the given residues, one per row:
    sum_i ((r_i / M_i) mod p_i) M_i mod M with M_i = M / p_i."""
    primes = p.tolist()
    cofactors = [M // q for q in primes]
    inverses = np.array([pow(c % q, -1, q) for c, q in zip(cofactors, primes)],
                        dtype=np.int64)
    limbs = _limbs(cofactors).astype(np.float64)
    half = M >> 1
    out = []
    for r in range(0, len(residues), _ROWS):
        block = (residues[r:r + _ROWS] * inverses % p).astype(np.float64)
        sums = np.zeros((len(block), limbs.shape[1]), dtype=np.int64)
        for c in range(0, len(primes), _CHUNK):
            # At most 2^11 products weight * limb below 2^42, so each
            # float64 sum stays below 2^53; with at most 2^20 primes, at
            # most 2^9 such sums keep the int64 total below 2^62.
            sums += np.einsum("ip,pj->ij", block[:, c:c + _CHUNK],
                              limbs[c:c + _CHUNK]).astype(np.int64)
        # Each sum is split into four 16-bit pieces; piece k of limb j
        # carries weight 2^(16 (j + k)).
        pieces = sums.astype("<i8", copy=False).view("<u2").reshape(len(block), -1, 4)
        for row in pieces:
            v = sum(int.from_bytes(row[:, k].tobytes(), "little") << (_LIMB * k)
                    for k in range(4)) % M
            out.append(v - M if v > half else v)
    return out


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
