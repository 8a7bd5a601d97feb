"""Exact enumeration of closed and first-return walks on Z^d.

Counting conventions (used everywhere in the package):

* ``A`` tables hold A_{2n}, the number of walks of length 2n that start and
  end at the origin; index n is the *half-length*, starting at n = 0 with
  A_0 = 1.
* ``B`` tables hold B_{2n}, the walks returning to the origin for the
  first time at step 2n; index starts at n = 1.
* ``X`` tables hold the normalized counts x_n = A_{2n} / C(2n, n), which
  satisfy the fundamental recurrence

      x_n^{(d+1)} = sum_k C(n, k)^2 x_k^{(d)},   x_n^{(1)} = 1.

The x-ladder generates x for every d; A follows by multiplying central
binomials, B by the renewal identity B = 1 - 1/A on the generating
functions, that is

      B_{2n} = A_{2n} - sum_{k=1}^{n-1} B_{2k} A_{2n-2k},

solved by Newton's iteration on 1 - B = 1/A, each series product one
``decimal`` multiplication of Kronecker-packed digit strings
(``_first_returns_from_a``).  ``decimal`` is the package's one exact
big-number engine past Python ints: it prints X and A, and it makes B.

The fast paths (``*_fast``) instead iterate the P-recurrences that
``catalog`` derives from X_d = I_0(2 sqrt z)^d for every d, seeded from
the ladder's first terms.  The verify suites that check those
recurrences and ODEs read the ladder, so they never check an ODE
against itself.  ``iterate_p_recurrence`` is the one recurrence loop:
it yields the terms one at a time and holds only the last r, so a
consumer that prints each term as it comes (``decimal_values`` under
``seq``) never holds the table, whose digits grow like N^2.

Endpoint distributions l_n^{(d)} come from the layer formula (``layer``,
``distribution_formula``), the paper's multiplication principle: a slice
at height h of dimension d + 1 is a binomial-weighted sum of
d-dimensional distributions, down to l^(2) in closed form
(``endpoint_count_2d``).  Every l_n^{(d)} is invariant under the
2^d d! signed permutations of the coordinates, so it is summed only on
its orbit representatives, the tuples of |coordinates| in non-decreasing
order (546 of them for the 19,871 points of ``layers --d 4 --n 30``), and
expanded to every point once, at the end.  ``x_ladder`` makes the
x-tables of every dimension 1 .. d in one pass, so a verify run builds
one ladder.

An independent dynamic-programming oracle (full_distribution_dp,
first_returns_dp) convolves unit steps directly and is used for
cross-checks only.
"""

from __future__ import annotations

import decimal
import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import accumulate, product, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Iterator

from . import catalog
from .errors import check_budget
from .kernel import BigCount, binomial, round_div, unlimited_int_str

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

KINDS = ("X", "A", "B")

# DP boxes larger than this many cells are refused (fail loudly, stay
# desk-scale).
DP_CELL_BUDGET = 10**8

# Layers are refused when the d-dimensional cross-polytope |x|_1 <= n - |h|
# holds more lattice points than this: the (d-1)-dimensional distributions
# that the layer formula sums, of m = 0 .. n - |h| steps, fill it, and the
# layer is its slice x_d = h.  It admits d = 4 at n = 61 and d = 3 at
# n = 195.
LAYER_POINT_BUDGET = 10**7


def term_digits(kind: str, d: int, n: int, count: int = 1) -> int:
    """About 2n log10(base) decimal digits for each of count walk counts
    at index n, base 2d for A_{2n} and B_{2n} and d for x_n: the one size
    model of every exact-table estimate, in ints for an n of any size."""
    num, den = math.log10(max(d if kind == "X" else 2 * d, 1)).as_integer_ratio()
    return 2 * n * count * num // den


@dataclass(frozen=True)
class SequenceTable:
    """A prefix of one of the walk-count sequences.

    ``values[i]`` is the term with index ``offset + i``; offset is 0 for
    kinds X and A (x_0 = A_0 = 1) and 1 for kind B (B_2 is the first term).
    """

    dimension: int
    kind: str
    values: tuple[BigCount, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def offset(self) -> int:
        return 1 if self.kind == "B" else 0

    @property
    def n_max(self) -> int:
        return self.offset + len(self.values) - 1

    def value(self, n: int) -> BigCount:
        """Term with sequence index n (A_{2n}, B_{2n} or x_n)."""
        i = n - self.offset
        if i < 0 or i >= len(self.values):
            raise IndexError("index %d outside table range" % n)
        return self.values[i]

    def iter_indexed(self) -> Iterator[tuple[int, BigCount]]:
        for i, v in enumerate(self.values):
            yield self.offset + i, v

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.dimension,
            "offset": self.offset,
            "values": [str(v) for v in self.values],
        }


@dataclass(frozen=True)
class LatticeDistribution:
    """Sparse endpoint distribution of an n-step walk in Z^dimension."""

    dimension: int
    steps: int
    counts: dict[tuple[int, ...], BigCount] = field(hash=False)

    def total(self) -> BigCount:
        return sum(self.counts.values())

    def at(self, point: tuple[int, ...]) -> BigCount:
        return self.counts.get(tuple(point), 0)

    def sorted_items(self) -> list[tuple[tuple[int, ...], BigCount]]:
        """Items in lexicographic point order (canonical serialization)."""
        return [(p, self.counts[p]) for p in sorted(self.counts)]


@dataclass(frozen=True)
class Layer:
    """Slice of the (d+1)-dimensional n-step distribution at height h.

    ``counts`` is the induced d-dimensional distribution; ``dimension``
    is the ambient dimension d+1.
    """

    dimension: int
    steps: int
    height: int
    counts: LatticeDistribution


def x_ladder(d: int, N: int) -> list[SequenceTable]:
    """x_0 .. x_N in each dimension 1 .. d via the fundamental recurrence
    ladder.

    The outer loop runs over n and the inner one over the dimension
    levels, so each Pascal row is built once, from the previous one, and
    squared once; only row n is kept.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    # levels[j] holds x_0 .. x_n in dimension j + 1.
    levels: list[list[BigCount]] = [[1] * (N + 1)] + [[] for _ in range(d - 1)]
    row = [1]
    for n in range(N + 1 if d > 1 else 0):  # dimension 1 needs no row
        if n:
            row = [1, *map(add, row, row[1:]), 1]
        squares = [c * c for c in row]
        for lower, upper in zip(levels, levels[1:]):
            upper.append(sum(map(mul, squares, lower)))
    return [SequenceTable(j + 1, "X", level) for j, level in enumerate(levels)]


def x_sequence(d: int, N: int) -> SequenceTable:
    """x_0 .. x_N in dimension d, the last level of ``x_ladder``."""
    return x_ladder(d, N)[-1]


def closed_walks_from_x(xs: SequenceTable) -> SequenceTable:
    """The A-table of the same length as the x-table ``xs``:
    A_{2n} = C(2n, n) * x_n."""
    vals = tuple(binomial(2 * n, n) * x for n, x in enumerate(xs.values))
    return SequenceTable(xs.dimension, "A", vals)


def closed_walks(d: int, N: int) -> SequenceTable:
    """A_0 .. A_{2N}: closed walks, from the x-ladder."""
    return closed_walks_from_x(x_sequence(d, N))


def first_returns(d: int, N: int) -> SequenceTable:
    """B_2 .. B_{2N}: first returns to the origin, from the ladder's A-table."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _b_table(d, _first_returns_from_a(d, N, closed_walks(d, N).values))


def first_return_closed_form_1d(n: int) -> BigCount:
    """B_{2n}^{(1)} = C(2n, n) / (2n - 1); the division is always exact."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q, r = divmod(binomial(2 * n, n), 2 * n - 1)
    if r:
        raise ArithmeticError(
            "C(2n,n) not divisible by 2n-1 at n=%d; implementation bug" % n
        )
    return q


def endpoint_count_2d(n: int, k: int, l: int) -> BigCount:
    """Walks of length n in Z^2 from the origin to (k, l).

    Equals C(n, (n+k-l)/2) * C(n, (n+k+l)/2); zero when |k|+|l| > n or
    when n and k+l have different parity.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if abs(k) + abs(l) > n or (n - k - l) % 2 != 0:
        return 0
    return binomial(n, (n + k - l) // 2) * binomial(n, (n + k + l) // 2)


def tau_entry(n: int, i: int, j: int) -> BigCount:
    """Entry j on row i of the triangle tau_n: C(n, i-1) * C(i-1, j-1)."""
    if not (1 <= j <= i <= n + 1):
        raise ValueError("tau_entry needs 1 <= j <= i <= n+1")
    return binomial(n, i - 1) * binomial(i - 1, j - 1)


def _distribution_formula(d: int, n: int, cache: dict) -> dict[tuple[int, ...], BigCount]:
    """Endpoint distribution l_n^{(d)} on its orbit representatives,
    built from closed forms and the layer formula only.

    l_n^{(d)} is invariant under the 2^d d! signed permutations of the
    coordinates, so it is held on the representatives q_1 <= .. <= q_d
    of |coordinates| (``_orbit`` expands one), in order of their largest
    coordinate.  Dimension 1 is the Pascal row, and dimension 2 the closed
    form ``endpoint_count_2d``; in dimension d+1 > 2 a representative is
    q + (h,) with its largest coordinate h as the height, so it is the
    height-h layer over the d-dimensional representatives q with
    max(q) <= h, and already sorted.  Independent of the step DP.
    """
    key = (d, n)
    if key in cache:
        return cache[key]
    if d == 1:
        dist = {(k,): binomial(n, (n + k) // 2) for k in range(n % 2, n + 1, 2)}
    elif d == 2:
        dist = {(k, h): endpoint_count_2d(n, k, h) for h in range(n + 1)
                for k in range((n - h) % 2, min(h, n - h) + 1, 2)}
    else:
        dist = {}
        for h in range(n + 1):
            for q, c in _layer_counts(d, n, h, cache, h).items():
                dist[q + (h,)] = c
    cache[key] = dist
    return dist


def _layer_counts(d_target: int, n: int, h: int, cache: dict,
                  top: int) -> dict[tuple[int, ...], BigCount]:
    """Counts of the height-h slice on the representatives q with
    max(q) <= top, via

        L_{n,h}^{(d+1)} = sum_j C(n, n-h-2j) * C(h+2j, j) * l_{n-h-2j}^{(d)}

    with h replaced by |h| (mirror symmetry).
    """
    h = abs(h)
    out: dict[tuple[int, ...], BigCount] = {}
    get = out.get
    for j in range((n - h) // 2 + 1):
        w = binomial(n, n - h - 2 * j) * binomial(h + 2 * j, j)
        # The representatives are stored in order of their largest
        # coordinate.
        for q, c in _distribution_formula(d_target - 1, n - h - 2 * j, cache).items():
            if q[-1] > top:
                break
            out[q] = get(q, 0) + w * c
    return out


def _arrangements(q: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The distinct permutations of the sorted tuple q."""
    if len(q) <= 1:
        yield q
        return
    for i, v in enumerate(q):
        if i == 0 or q[i - 1] != v:
            for rest in _arrangements(q[:i] + q[i + 1:]):
                yield (v, *rest)


def _orbit(q: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The distinct signed permutations of the representative q."""
    for p in _arrangements(q):
        yield from product(*[(-c, c) if c else (0,) for c in p])


def _expand(reps: dict[tuple[int, ...], BigCount]) -> dict[tuple[int, ...], BigCount]:
    """A distribution on representatives, on every lattice point."""
    return {p: c for q, c in reps.items() for p in _orbit(q)}


def layer(d_target: int, n: int, h: int) -> Layer:
    """The layer L_{n,h} of the d_target-dimensional n-step distribution.

    The slice is invariant under the signed permutations of its d_target
    - 1 coordinates, so it is summed on their representatives and
    expanded once."""
    if d_target < 2:
        raise ValueError("layer needs target dimension >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if abs(h) > n:
        raise ValueError("|h| must be <= n")
    r = n - abs(h)
    points = sum(2**i * math.comb(d_target, i) * math.comb(r, i)
                 for i in range(d_target + 1))
    check_budget("the layer d=%d, n=%d, h=%d" % (d_target, n, h), points,
                 "lattice points in |x|_1 <= %d" % r, LAYER_POINT_BUDGET)
    counts = _expand(_layer_counts(d_target, n, h, {}, n))
    return Layer(d_target, n, h, LatticeDistribution(d_target - 1, n, counts))


def distribution_formula(d: int, n: int) -> LatticeDistribution:
    """Full l_n^{(d)} assembled from layers (formula route, no DP)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return LatticeDistribution(d, n, _expand(_distribution_formula(d, n, {})))


def _dp_shift_sum(arr: np.ndarray) -> np.ndarray:
    """One convolution step with the 2d unit steps (mass leaving the box
    is dropped; callers arrange boxes large enough that this is exact or
    provably irrelevant)."""
    import numpy as np

    new = np.zeros_like(arr)
    for ax in range(arr.ndim):
        lo = [slice(None)] * arr.ndim
        hi = [slice(None)] * arr.ndim
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        lo_t, hi_t = tuple(lo), tuple(hi)
        new[lo_t] += arr[hi_t]
        new[hi_t] += arr[lo_t]
    return new


def full_distribution_dp(d: int, n: int) -> LatticeDistribution:
    """Independent oracle: exact DP over the (2n+1)^d box.

    Starts with unit mass at the origin and convolves with the 2d unit
    steps n times; the result sums to (2d)^n.  Exactness is preserved by
    using a numpy object array of Python ints.
    """
    import numpy as np

    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    check_budget("the DP box (2*%d+1)^%d" % (n, d), (2 * n + 1) ** d, "cells",
                 DP_CELL_BUDGET)
    shape = (2 * n + 1,) * d if n > 0 else (1,) * d
    arr = np.zeros(shape, dtype=object)
    origin = tuple(s // 2 for s in shape)
    arr[origin] = 1
    for _ in range(n):
        arr = _dp_shift_sum(arr)
    counts: dict[tuple[int, ...], BigCount] = {}
    for idx in zip(*np.nonzero(arr)):
        point = tuple(int(i) - n for i in idx)
        counts[point] = int(arr[idx])
    return LatticeDistribution(d, n, counts)


def first_returns_dp(d: int, n: int) -> BigCount:
    """Independent oracle for B_{2n}: DP that zeroes the origin after each
    intermediate step, then reads the origin after step 2n.

    The box keeps coordinates in [-n, n]: a walk that leaves it cannot be
    back at the origin by step 2n, so dropping that mass is exact for the
    returned count.
    """
    import numpy as np

    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    check_budget("the DP box (2*%d+1)^%d" % (n, d), (2 * n + 1) ** d, "cells",
                 DP_CELL_BUDGET)
    shape = (2 * n + 1,) * d
    arr = np.zeros(shape, dtype=object)
    origin = (n,) * d
    arr[origin] = 1
    for t in range(1, 2 * n + 1):
        arr = _dp_shift_sum(arr)
        if t < 2 * n:
            arr[origin] = 0
    v = arr[origin]
    return int(v)


# ---------------------------------------------------------------------------
# Fast generators: P-recurrence forward iteration for every d.  O(N)
# big-integer steps instead of the O(d N^2) ladder.
# ---------------------------------------------------------------------------

def _values(poly, scale) -> Iterator:
    """P(0) scale, P(1) scale, ... without end, P an int ``kernel.UniPoly``.

    deg + 1 Horner values (``kernel.poly_eval``) give the forward
    differences of P at 0, and deg chained running sums rebuild the values
    from them with additions only (Knuth, TAOCP vol. 2, 4.6.4).  An int
    scale multiplies the differences; a float one multiplies each exact
    int value, so that P(n) scale is rounded once."""
    deg = max(poly.degree, 0)
    diffs = [poly(n) for n in range(deg + 1)]
    for j in range(deg):
        for i in range(deg, j, -1):
            diffs[i] -= diffs[i - 1]
    exact = isinstance(scale, int)
    if exact:
        diffs = [c * scale for c in diffs]
    values = repeat(diffs[deg])
    for c in reversed(diffs[:deg]):
        values = accumulate(values, initial=c)
    return values if exact else map(mul, values, repeat(scale))


def iterate_p_recurrence(rec, seeds: list, N: int, q=1) -> Iterator:
    """Yield u_0 .. u_N one at a time, from seeds u_0 .. u_{r-1}, where
    u_n = v_n / q^n and sum_k P_k(n) v_{n+k} = 0 (r = rec.order).

    The arguments are checked at the call: the coefficients must be
    integers, and there must be r seeds unless N < r, when the seeds are
    yielded unchanged (ValueError otherwise).  The steps run as the
    values are consumed, so a step's error raises at the first n it
    fails, when that value is asked for.

    q = 1 with int seeds is exact: the division by the leading coefficient
    must be exact (else ArithmeticError, a bug).  So is q = 1 with
    ``decimal.Decimal`` integer seeds while a context that traps rounding
    is active (``decimal_values``).  An int q > 1 with fixed-point int
    seeds rounds once per step, u_{n+r} = round(-sum_k P_k(n) q^k u_{n+k}
    / (P_r(n) q^r)); a float q gives float64, u_{n+r} = -sum_k (P_k(n)
    q^(k-r)) u_{n+k} / P_r(n) summed left to right.  On an A-recurrence
    with q = (2d)^2 this yields A_{2n}/(2d)^{2n} stably, as every other
    solution grows like (2k)^{2n} with k < d.  The leading coefficient
    must be nonzero at every n reached (ValueError at the first that is
    not).

    The coefficient columns are lazy (``_values``): P_k(n) q^k for an int
    q, with P_r(n) q^r when rounding and P_r(n) when exact, or
    P_k(n) q^(k-r) and P_r(n) for a float q.  The mode picks its division
    step before the one loop over the zipped rows; only the last r values
    are held.
    """
    r = rec.order
    # kernel.exact makes every integral coefficient an int.
    bad = [c for p in rec.coefficients for c in p.coeffs if not isinstance(c, int)]
    if bad:
        raise ValueError("recurrence coefficient %s is not an integer" % bad[0])
    seeds = list(seeds)
    if N < r:
        return iter(seeds)
    if len(seeds) != r:
        raise ValueError("need %d seeds, got %d" % (r, len(seeds)))
    if not isinstance(q, int):
        scales = [q ** (k - r) for k in range(r)] + [1]
        # reduce, not sum: from Python 3.12 sum() compensates float sums.
        total = partial(reduce, add)

        def step(acc, lead, n):
            return -acc / lead
    elif q > 1:
        scales = [q**k for k in range(r + 1)]
        total = sum

        def step(acc, lead, n):
            return (lead - 2 * acc) // (2 * lead)  # kernel.round_div(-acc, lead)
    else:
        scales = [q**k for k in range(r)] + [1]
        total = sum

        def step(acc, lead, n):
            quo, rem = divmod(-acc, lead)
            if rem:
                raise ArithmeticError("P-recurrence division not exact at n=%d" % n)
            return quo
    *columns, leads = [_values(p, s) for p, s in zip(rec.coefficients, scales)]

    def run():
        yield from seeds
        window = deque(seeds, maxlen=r)
        try:
            for n, row, lead in zip(range(N - r + 1), zip(*columns), leads):
                v = step(total(map(mul, row, window), 0), lead, n)
                window.append(v)
                yield v
        except ZeroDivisionError:
            # Every mode divides by the leading coefficient, so a zero one
            # raises here, at the first n it vanishes.
            raise ValueError("leading coefficient is 0 at n=%d" % n) from None
    return run()


def recurrence_values(kind: str, d: int, N: int, q=1, bits: int = 0) -> Iterator:
    """Yield u_0 .. u_N with u_n = v_n / q^n, where v is the x-sequence
    (kind "X") or the A-sequence (kind "A") of dimension d.  q = 1 gives
    the exact integers, an int q > 1 the ints round(v_n 2^bits / q^n), a
    float q float64 values.  The catalog's P-recurrence runs forward from
    seeds u_0 .. u_{r-1}, the ladder's terms scaled as stated
    (r = rec.order).

    The recurrence, its seeds and the arguments are made and checked at
    the call; the steps run as the values are consumed
    (``iterate_p_recurrence``), so a consumer that folds each value in as
    it comes holds only the recurrence's last r terms.
    """
    rec = catalog.x_recurrence(d) if kind == "X" else catalog.a_recurrence(d)
    ladder = (x_sequence if kind == "X" else closed_walks)(
        d, min(N, rec.order - 1)).values
    if isinstance(q, float):
        vals = [v / int(q) ** n for n, v in enumerate(ladder)]
    elif q > 1:
        vals = [round_div(v << bits, q**n) for n, v in enumerate(ladder)]
    else:
        vals = ladder
    return iterate_p_recurrence(rec, vals, N, q)


# Integer Decimal arithmetic of any size that traps every rounding.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero])


def decimal_values(kind: str, d: int, N: int) -> Iterator[decimal.Decimal]:
    """Yield recurrence_values(kind, d, N) one at a time as
    ``decimal.Decimal`` integers, whose str() is linear in the digits
    where an int's is quadratic.  Each step runs under a context that
    traps every rounding, so a wrong recurrence raises as in the int
    route; the caller's own context is active between items.  The
    recurrence and its seeds are fetched at the call, so a bad d raises
    there."""
    rec = catalog.x_recurrence(d) if kind == "X" else catalog.a_recurrence(d)
    seeds = recurrence_values(kind, d, min(N, rec.order - 1))
    values = iterate_p_recurrence(rec, map(decimal.Decimal, seeds), N)

    def run():
        while True:
            # The context wraps the step, never the yield, which would
            # leave it active in the caller.
            with decimal.localcontext(_EXACT):
                v = next(values, None)
            if v is None:
                return
            yield v
    return run()


def x_sequence_fast(d: int, N: int) -> SequenceTable:
    """x-table via the catalog's P-recurrence (see ``recurrence_values``)."""
    return SequenceTable(d, "X", tuple(recurrence_values("X", d, N)))


def closed_walks_fast(d: int, N: int) -> SequenceTable:
    """A-table via the catalog's P-recurrence (see ``recurrence_values``)."""
    return SequenceTable(d, "A", tuple(recurrence_values("A", d, N)))


def first_return_digits(d: int, N: int) -> list[str]:
    """B_2 .. B_{2N} as digit strings, from the A-values of the fast path
    (``decimal_values``); ``seq --kind B`` prints them as they are."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _first_returns_from_a(d, N, decimal_values("A", d, N))


def first_returns_fast(d: int, N: int) -> SequenceTable:
    """B-table with the A-values generated by the fast path."""
    return _b_table(d, first_return_digits(d, N))


def _b_table(d: int, digits: list[str]) -> SequenceTable:
    with unlimited_int_str():
        return SequenceTable(d, "B", tuple(map(int, digits)))


# ---------------------------------------------------------------------------
# First returns by B = 1 - 1/A: Newton's iteration on g = 1 - B = 1/A
# (Kung, Numer. Math. 22, 1974), each product one Decimal multiplication
# of Kronecker-packed vectors (Harvey, J. Symbolic Comput. 44, 2009).
# ---------------------------------------------------------------------------

# First-return tables whose packed A-operand, N slots of term_digits at N
# plus one, would hold more digits than this are refused (N = 4000 at
# d = 8 is 3.9e7 digits: 3.5 s and 207 MB cold on a 2-vCPU AMD EPYC VM).
B_DIGIT_BUDGET = 5 * 10**7


# _pack joins this many padded strings at a time.
_PACK_RUN = 64


def _pack(digits: list[str], s: int) -> decimal.Decimal:
    """sum_i v_i 10^(s i) for the digit strings v_i, each below 10^s.

    Each run of _PACK_RUN strings is zero-padded to s digits a string and
    joined, highest index first, into one Decimal; the runs are then
    added pairwise, level by level.  So no padded copy of the whole
    vector is held, and the largest transient is about twice the packed
    value's own size."""
    parts = [decimal.Decimal("".join(v.zfill(s) for v in reversed(digits[i:i + _PACK_RUN])))
             for i in range(0, len(digits), _PACK_RUN)]
    width = _PACK_RUN * s
    while len(parts) > 1:
        pairs = [parts[i] + parts[i + 1].scaleb(width) for i in range(0, len(parts) - 1, 2)]
        parts = pairs + parts[len(pairs) * 2:]
        width *= 2
    return parts[0]


def _cut(value: decimal.Decimal, lo: int, hi: int, s: int) -> decimal.Decimal:
    """Slots lo .. hi-1 of a non-negative packed value, as a packed value,
    by exact shifts of the decimal exponent: no digit string is made."""
    if lo:
        value = value.scaleb(-lo * s).to_integral_value(decimal.ROUND_DOWN)
    above = value.scaleb(-(hi - lo) * s).to_integral_value(decimal.ROUND_DOWN)
    return value - above.scaleb((hi - lo) * s) if above else value


def _slots(value: decimal.Decimal, w: int, s: int) -> str:
    """The w slots of a packed value, highest first, as one string of w s
    digits.  Every coefficient read is below 10^(s-1), so each slot starts
    with 0; a slot that does not has borrowed from a negative neighbour or
    overflowed, and raises ArithmeticError."""
    text = str(value).zfill(w * s)
    if value < 0 or len(text) > w * s or text[::s].strip("0"):
        raise ArithmeticError("a packed first-return coefficient left its slot: "
                              "the A-series is not a renewal series")
    return text


def _first_returns_from_a(d: int, N: int, a) -> list[str]:
    """B_2 .. B_{2N} as digit strings from A_0 .. A_{2N} (``a``, ints or
    Decimals, A_0 = 1), by B = 1 - 1/A.

    Given B_0 .. B_{m-1} (B_0 = 0), one Newton step fills n in [m, top),
    top <= 2m:  E_n = A_n - (A B)_n, then B_n = E_n - (B E)_n.  These are
    walk counts, E_n = sum_{k>=m} B_k A_{n-k}, so every E_n, B_n and
    coefficient read lies in [0, A_n]: packed at s = len(A_{top-1}) + 1
    digits a slot, the low slots of a product carry nothing and both
    subtractions run on whole packed numbers without a borrow (``_slots``
    checks it).  E is packed from slot m down to 0, so the second product
    is w x w slots, w = top - m.  The tops are ceil((N+1) / 2^k), so the
    last step is (N+1) x (N+1)/2 slots, not a power of two.

    CapacityError before ``a`` is read if the last A-operand, N slots of
    ``term_digits`` at N plus one digits, exceeds B_DIGIT_BUDGET."""
    check_budget("the first-return table to N = %d" % N,
                 term_digits("A", d, N, N) + N, "packed digits", B_DIGIT_BUDGET)
    with unlimited_int_str():
        a = [str(v) for v in a]
    tops = [len(a)]
    while tops[-1] > 2:
        tops.append((tops[-1] + 1) // 2)
    b = ["0"]
    with decimal.localcontext(_EXACT):
        for top in reversed(tops):
            m, s = len(b), len(a[top - 1]) + 1
            w = top - m
            ab = _cut(_pack(a[:top], s) * _pack(b, s), m, top, s)
            _slots(ab, w, s)
            e = _pack(a[m:top], s) - ab
            _slots(e, w, s)
            be = _cut(_pack(b[:w], s) * e, 0, w, s)
            _slots(be, w, s)
            new = _slots(e - be, w, s)
            del ab, e, be  # before the next step's operands are packed
            b += [new[i - s:i].lstrip("0") or "0" for i in range(w * s, 0, -s)]
    return b[1:]
