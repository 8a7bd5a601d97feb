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

      B_{2n} = A_{2n} - sum_{k=1}^{n-1} B_{2k} A_{2n-2k}.

The fast paths (``*_fast``) instead iterate the P-recurrences that
``catalog`` derives from the ODEs of F_d and A_d, seeded from the
ladder; the verify suites that check those ODEs and recurrences read the
ladder, so they never check an ODE against itself.

An independent dynamic-programming oracle (full_distribution_dp,
first_returns_dp) convolves unit steps directly and is used for
cross-checks only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, mul
from typing import Iterator

import numpy as np

from . import catalog, holonomy
from .errors import CapacityError
from .kernel import BigCount, binomial, round_div

KINDS = ("X", "A", "B")

# DP boxes larger than this many cells are refused (fail loudly, stay
# desk-scale).
DP_CELL_BUDGET = 10**8


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
    counts: dict[tuple[int, ...], BigCount] = field(compare=False)

    def total(self) -> BigCount:
        return sum(self.counts.values())

    def at(self, point: tuple[int, ...]) -> BigCount:
        return self.counts.get(tuple(point), 0)

    def sorted_items(self) -> list[tuple[tuple[int, ...], BigCount]]:
        """Items in lexicographic point order (canonical serialization)."""
        return sorted(self.counts.items())


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


def x_sequence(d: int, N: int) -> SequenceTable:
    """x_0 .. x_N in dimension d via the fundamental recurrence ladder.

    The outer loop runs over n and the inner one over the dimension
    levels, so each Pascal row is built once, from the previous one, and
    squared once; only row n is kept.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    if d == 1:
        return SequenceTable(1, "X", (1,) * (N + 1))
    # levels[j] holds x_0 .. x_n in dimension j + 1.
    levels: list[list[BigCount]] = [[] for _ in range(d)]
    row = [1]
    for n in range(N + 1):
        if n:
            row = [1, *map(add, row, row[1:]), 1]
        squares = [c * c for c in row]
        levels[0].append(1)
        for lower, upper in zip(levels, levels[1:]):
            upper.append(sum(map(mul, squares, lower)))
    return SequenceTable(d, "X", tuple(levels[-1]))


def closed_walks_from_x(xs: SequenceTable) -> SequenceTable:
    """The A-table of the same length as the x-table ``xs``:
    A_{2n} = C(2n, n) * x_n."""
    vals = tuple(binomial(2 * n, n) * x for n, x in enumerate(xs.values))
    return SequenceTable(xs.dimension, "A", vals)


def closed_walks(d: int, N: int) -> SequenceTable:
    """A_0 .. A_{2N}: closed walks, from the x-ladder."""
    return closed_walks_from_x(x_sequence(d, N))


def _first_returns_from_a(a: SequenceTable) -> SequenceTable:
    """B_2 .. B_{2N} from A_0 .. A_{2N} by B = 1 - 1/A (A_0 = 1, so the
    reciprocal stays in ints)."""
    inverse = holonomy.reciprocal_series(holonomy.TruncatedSeries(a.values))
    return SequenceTable(a.dimension, "B", tuple(-c for c in inverse.coeffs[1:]))


def first_returns(d: int, N: int) -> SequenceTable:
    """B_2 .. B_{2N}: first returns to the origin."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _first_returns_from_a(closed_walks(d, N))


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
    """Endpoint distribution l_n^{(d)} built from the layer formula only.

    Dimension 1 is the Pascal row; dimension d+1 is assembled from the
    heights h = -n..n, each height being a layer over the d-dimensional
    distributions.  Fully independent of the step-convolution DP.
    """
    key = (d, n)
    if key in cache:
        return cache[key]
    if d == 1:
        dist = {(k,): binomial(n, (n + k) // 2)
                for k in range(-n, n + 1, 2)}
    else:
        dist = {}
        for h in range(-n, n + 1):
            for p, c in _layer_counts(d, n, h, cache).items():
                dist[p + (h,)] = c
    cache[key] = dist
    return dist


def _layer_counts(d_target: int, n: int, h: int,
                  cache: dict) -> dict[tuple[int, ...], BigCount]:
    """Counts of the height-h slice, via

        L_{n,h}^{(d+1)} = sum_j C(n, n-h-2j) * C(h+2j, j) * l_{n-h-2j}^{(d)}

    with h replaced by |h| (mirror symmetry).
    """
    h = abs(h)
    d = d_target - 1
    out: dict[tuple[int, ...], BigCount] = {}
    for j in range((n - h) // 2 + 1):
        w = binomial(n, n - h - 2 * j) * binomial(h + 2 * j, j)
        if w == 0:
            continue
        for p, c in _distribution_formula(d, n - h - 2 * j, cache).items():
            out[p] = out.get(p, 0) + w * c
    return out


def layer(d_target: int, n: int, h: int) -> Layer:
    """The layer L_{n,h} of the d_target-dimensional n-step distribution."""
    if d_target < 2:
        raise ValueError("layer needs target dimension >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if abs(h) > n:
        raise ValueError("|h| must be <= n")
    counts = _layer_counts(d_target, n, h, {})
    dist = LatticeDistribution(d_target - 1, n, counts)
    return Layer(d_target, n, h, dist)


def distribution_formula(d: int, n: int) -> LatticeDistribution:
    """Full l_n^{(d)} assembled from layers (formula route, no DP)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return LatticeDistribution(d, n, _distribution_formula(d, n, {}))


def _check_box(d: int, steps_box: int):
    cells = (2 * steps_box + 1) ** d
    if cells > DP_CELL_BUDGET:
        raise CapacityError(
            "DP box (2*%d+1)^%d = %d cells exceeds budget %d"
            % (steps_box, d, cells, DP_CELL_BUDGET)
        )


def _dp_shift_sum(arr: np.ndarray) -> np.ndarray:
    """One convolution step with the 2d unit steps (mass leaving the box
    is dropped; callers arrange boxes large enough that this is exact or
    provably irrelevant)."""
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
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    _check_box(d, n)
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
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    _check_box(d, n)
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
# Fast generators: P-recurrence forward iteration for every d the catalog
# has a recurrence for.  O(N) big-integer steps instead of the O(d N^2)
# ladder.
# ---------------------------------------------------------------------------

def _integer_coeffs(poly) -> tuple[int, ...]:
    """Ascending coefficients of poly; ValueError unless all are ints
    (``kernel.exact`` makes every integral coefficient an int)."""
    for c in poly.coeffs:
        if not isinstance(c, int):
            raise ValueError("recurrence coefficient %s is not an integer" % c)
    return poly.coeffs


def _horner(coeffs: tuple[int, ...], n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def iterate_p_recurrence(rec, seeds: list, N: int, q=1) -> list:
    """Extend seeds u_0 .. u_{r-1} to u_0 .. u_N, where u_n = v_n / q^n
    and sum_k P_k(n) v_{n+k} = 0 (r = rec.order).

    q = 1 with int seeds is exact: the division by the leading coefficient
    must be exact (else ArithmeticError, a bug).  An int q > 1 with
    fixed-point int seeds rounds once per step, u_{n+r} =
    round(-sum_k P_k(n) q^k u_{n+k} / (P_r(n) q^r)); a float q gives
    float64.  On an A-recurrence with q = (2d)^2 this yields A_{2n}/(2d)^{2n}
    stably, as every other solution grows like (2k)^{2n} with k < d.  The
    coefficients must be integers and the leading one nonzero at every n
    reached (ValueError otherwise).
    """
    r = rec.order
    polys = [_integer_coeffs(p) for p in rec.coefficients]
    vals = list(seeds)
    fixed = isinstance(q, int)
    qpow = [q**k for k in range(r + 1)] if fixed else [q ** (k - r) for k in range(r)]
    for n in range(0, N - r + 1):
        acc = 0
        for k in range(r):
            acc += _horner(polys[k], n) * qpow[k] * vals[n + k]
        lead = _horner(polys[r], n)
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


def recurrence_values(kind: str, d: int, N: int, q=1, bits: int = 0) -> list | None:
    """u_0 .. u_N with u_n = v_n / q^n, where v is the x-sequence (kind
    "X") or the A-sequence (kind "A") of dimension d, by the catalog's
    P-recurrence seeded from the ladder; None when the catalog has no
    recurrence for d.  q = 1 gives the exact integers, an int q > 1 the
    ints round(v_n 2^bits / q^n), a float q float64 values.
    """
    if d not in catalog.DIMENSIONS:
        return None
    if kind == "X":
        rec, ladder = catalog.x_recurrence(d), x_sequence
    else:
        rec, ladder = catalog.a_recurrence(d), closed_walks
    seeds = ladder(d, min(N, rec.order - 1)).values
    seeds = [s / q**i if isinstance(q, float) else round_div(s << bits, q**i)
             for i, s in enumerate(seeds)]
    return iterate_p_recurrence(rec, seeds, N, q)


def x_sequence_fast(d: int, N: int) -> SequenceTable:
    """x-table via the catalog's P-recurrence; the ladder for any other d."""
    vals = recurrence_values("X", d, N)
    return x_sequence(d, N) if vals is None else SequenceTable(d, "X", tuple(vals))


def closed_walks_fast(d: int, N: int) -> SequenceTable:
    """A-table via the catalog's P-recurrence; the ladder for any other d."""
    vals = recurrence_values("A", d, N)
    return closed_walks(d, N) if vals is None else SequenceTable(d, "A", tuple(vals))


def first_returns_fast(d: int, N: int) -> SequenceTable:
    """B-table with the A-values generated by the fast path."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _first_returns_from_a(closed_walks_fast(d, N))
