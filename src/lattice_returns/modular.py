"""Multi-modular integer arithmetic: primes below 2^26, residues of big
ints, and the Chinese remainder theorem.

Every residue lies below a prime p < 2^26, so the product of two residues
is below 2^52 and a 16-bit limb times a residue below 2^42.  Each
accumulation sums at most CHUNK = 2^11 such products between reductions:
that keeps int64 sums below 2^11 * 2^52 = 2^63 and float64 sums below
2^11 * 2^42 = 2^53, where every integer is exact.

``holonomy.reciprocal_series`` inverts integer series through this
layer.  Nothing runs at import: the primes are sieved on first use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

_LIMB = 16
CHUNK = 1 << 11
_ROWS = 64  # rows per block of the float64 limb matrices
# Primes are taken from (2^25, 2^26), which holds 1,894,120 of them.  A
# bound that may need more than 2^20 is left to the caller's exact route;
# with at most 2^20 primes the CRT sums stay below 2^9 chunks of 2^53.
_MAX_PRIMES = 1 << 20
_PRIMES: list[int] = []  # descending from 2^26, extended by primes


def primes(count: int) -> list[int]:
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


def crt_primes(bits: int) -> tuple[list[int], int] | None:
    """The fewest largest primes below 2^26 whose product M exceeds
    2^bits, and M; None if that may take more than _MAX_PRIMES."""
    # Each prime exceeds 2^25, so bits // 25 + 1 of them always suffice.
    if bits // 25 + 1 > _MAX_PRIMES:
        return None
    candidates = primes(bits // 25 + 1)
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


def residues(values: Sequence[int], p: np.ndarray) -> np.ndarray:
    """values mod each prime, as a (len(values), len(p)) int64 array."""
    limbs = _limbs(values)
    powers = _limb_powers(p, limbs.shape[1])
    out = np.zeros((len(values), len(p)), dtype=np.int64)
    for r in range(0, len(values), _ROWS):
        block = limbs[r:r + _ROWS].astype(np.float64)
        for c in range(0, block.shape[1], CHUNK):
            # At most 2^11 products limb * (2^(16j) mod p) below 2^42, so
            # the float64 sum stays below 2^53.
            part = np.einsum("ij,jp->ip", block[:, c:c + CHUNK],
                             powers[c:c + CHUNK])
            out[r:r + _ROWS] += part.astype(np.int64) % p
    negative = np.array([v < 0 for v in values])
    np.negative(out, out=out, where=negative[:, None])
    return np.remainder(out, p, out=out)


def crt(rows: np.ndarray, p: np.ndarray, M: int) -> list[int]:
    """The integers in (-M/2, M/2) with the given residues, one per row:
    sum_i ((r_i / M_i) mod p_i) M_i mod M with M_i = M / p_i."""
    cofactors = [M // q for q in p.tolist()]
    inverses = np.array([pow(c % q, -1, q) for c, q in zip(cofactors, p.tolist())],
                        dtype=np.int64)
    limbs = _limbs(cofactors).astype(np.float64)
    half = M >> 1
    out = []
    for r in range(0, len(rows), _ROWS):
        block = (rows[r:r + _ROWS] * inverses % p).astype(np.float64)
        sums = np.zeros((len(block), limbs.shape[1]), dtype=np.int64)
        for c in range(0, len(p), CHUNK):
            # At most 2^11 products weight * limb below 2^42, so each
            # float64 sum stays below 2^53; with at most 2^20 primes, at
            # most 2^9 such sums keep the int64 total below 2^62.
            sums += np.einsum("ip,pj->ij", block[:, c:c + CHUNK],
                              limbs[c:c + CHUNK]).astype(np.int64)
        # Each sum is split into four 16-bit pieces; piece k of limb j
        # carries weight 2^(16 (j + k)).
        pieces = sums.astype("<i8", copy=False).view("<u2").reshape(len(block), -1, 4)
        for row in pieces:
            v = sum(int.from_bytes(row[:, k].tobytes(), "little") << (_LIMB * k)
                    for k in range(4)) % M
            out.append(v - M if v > half else v)
    return out
