"""Segmented prime generation at desk scale.

Primes are produced by an odd-only segmented sieve (segments of 2**22 odd
flags) so that harness runs up to 10**8 finish in seconds.  Each segment
starts from a pattern pre-sieved by the wheel primes 3, 5, 7, 11 and 13,
and the base primes up to sqrt(x), which the same sieve yields, are struck
one cache-sized sub-block at a time; segments and flags do not depend on
either.  x above PRIME_CAP is refused before the first array.  The von
Mangoldt weights log p of the prime powers are applied by the harness.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import CapacityError

PRIME_CAP = 10**9
SEGMENT_SIZE = 1 << 22  # odd flags per segment
SUB_BLOCK = 1 << 20  # odd flags struck at a time: 1 MiB, so that they stay in L2
WHEEL_PRIMES = (3, 5, 7, 11, 13)
WHEEL = math.prod(WHEEL_PRIMES)  # the flag of odd n depends on n // 2 mod WHEEL alone


@lru_cache(maxsize=1)
def _wheel_pattern() -> np.ndarray:
    """Flags of the odd n = 2i + 1, i < WHEEL, with every multiple of a wheel prime struck."""
    flags = np.ones(WHEEL, dtype=bool)
    for p in WHEEL_PRIMES:
        flags[p // 2 :: p] = False  # n = p * (2k + 1)
    flags.flags.writeable = False
    return flags


def _sieve_segment(lo: int, hi: int, odd_base: np.ndarray) -> np.ndarray:
    """Primality flags of the odd numbers in [lo, hi) (lo odd): the wheel
    pattern, then the ascending base primes odd_base above the wheel."""
    offset = (lo // 2) % WHEEL
    n_flags = (hi - lo + 1) // 2
    flags = np.tile(_wheel_pattern(), -(-(offset + n_flags) // WHEEL))[offset : offset + n_flags]
    for p in WHEEL_PRIMES:
        if lo <= p < hi:
            flags[(p - lo) // 2] = True
    for b0 in range(0, n_flags, SUB_BLOCK):
        b1 = min(b0 + SUB_BLOCK, n_flags)
        v0, v1 = lo + 2 * b0, lo + 2 * b1  # odd values v0, v0 + 2, ..., below v1
        ps = odd_base[: np.searchsorted(odd_base * odd_base, v1)]
        start = np.maximum(ps * ps, -(-v0 // ps) * ps)
        start += np.where(start % 2 == 0, ps, 0)  # the first odd multiple
        block = flags[b0:b1]
        for s, p in zip(((start - v0) // 2).tolist(), ps.tolist()):
            block[s::p] = False
    return flags


def prime_arrays(x: int) -> Iterator[np.ndarray]:
    """Primes <= x as ascending int64 arrays, one per segment; x above
    PRIME_CAP is refused before the first array."""
    if x > PRIME_CAP:
        raise CapacityError(f"x = {x} exceeds the prime cap {PRIME_CAP}")
    if x < 2:
        return
    yield np.array([2], dtype=np.int64)
    base = np.concatenate([np.zeros(0, dtype=np.int64), *prime_arrays(math.isqrt(x))])
    odd_base = base[base > WHEEL_PRIMES[-1]]
    lo = 3
    while lo <= x:
        hi = min(lo + 2 * SEGMENT_SIZE, x + 1)
        arr = lo + 2 * np.flatnonzero(_sieve_segment(lo, hi, odd_base))
        if len(arr):
            yield arr
        lo = hi if hi % 2 == 1 else hi + 1
