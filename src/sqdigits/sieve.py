"""Segmented prime generation at desk scale.

An odd-only sieve strikes one segment of 2**20 odd flags (1 MiB, so that
they stay in L2) at a time, from a pattern pre-sieved by the wheel primes
3, 5, 7, 11 and 13 and the base primes up to sqrt(x), which the same sieve
yields.  Primes come out in arrays of BLOCK consecutive primes, [2, 3, 5,
...] first and only the last shorter; a carry joins blocks across segment
edges, so no array depends on the segment size.  x above PRIME_CAP is
refused before the first array.  The harness applies the von Mangoldt
weights log p.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import CapacityError

PRIME_CAP = 10**9
SEGMENT_SIZE = 1 << 20  # odd flags per segment
BLOCK = 1 << 16  # primes per yielded array
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
    ps = odd_base[: np.searchsorted(odd_base * odd_base, hi)]
    start = np.maximum(ps * ps, -(-lo // ps) * ps)
    start += np.where(start % 2 == 0, ps, 0)  # the first odd multiple
    for s, p in zip(((start - lo) // 2).tolist(), ps.tolist()):
        flags[s::p] = False
    return flags


def prime_arrays(x: int) -> Iterator[np.ndarray]:
    """Primes <= x in ascending int64 arrays of exactly BLOCK primes, the
    last one shorter; x above PRIME_CAP is refused before the first array."""
    if x > PRIME_CAP:
        raise CapacityError(f"x = {x} exceeds the prime cap {PRIME_CAP}")
    if x < 2:
        return
    base = np.concatenate([np.zeros(0, dtype=np.int64), *prime_arrays(math.isqrt(x))])
    odd_base = base[base > WHEEL_PRIMES[-1]]
    block, lo = np.array([2], dtype=np.int64), 3
    while lo <= x:
        hi = min(lo + 2 * SEGMENT_SIZE, x + 1)
        found = np.flatnonzero(_sieve_segment(lo, hi, odd_base))  # the primes lo + 2 * found
        while len(found):  # the carry block takes what it lacks of BLOCK
            take = BLOCK - len(block)
            block, found = np.concatenate([block, lo + 2 * found[:take]]), found[take:]
            if len(block) == BLOCK:
                yield block
                block = block[:0]
        lo = hi if hi % 2 == 1 else hi + 1
    if len(block):
        yield block
