"""Segmented prime generation and von Mangoldt weights at desk scale.

Primes are produced by an odd-only segmented sieve (default segment
2**22 odd flags) so that harness runs up to 10**8 finish in seconds.  Each
segment starts from a pattern pre-sieved by the wheel primes 3, 5, 7, 11
and 13, and the remaining base primes are struck one cache-sized sub-block
at a time; segments and flags do not depend on either.  The von Mangoldt
function comes either as a point query (k-th root extraction) or as an
in-memory table filled prime by prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import CapacityError

PRIME_CAP = 10**9
TABLE_CAP = 10**8
SEGMENT_SIZE = 1 << 22  # odd flags per segment
SUB_BLOCK = 1 << 20  # odd flags struck at a time: 1 MiB, so that they stay in L2
WHEEL_PRIMES = (3, 5, 7, 11, 13)
WHEEL = math.prod(WHEEL_PRIMES)  # the flag of odd n depends on n // 2 mod WHEEL alone


def _small_primes(limit: int) -> np.ndarray:
    """Monolithic sieve up to limit inclusive (used for base primes)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


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


@dataclass(frozen=True)
class SieveSegment:
    """Primality flags for the odd numbers in [lo, hi)."""

    lo: int
    hi: int
    flags: np.ndarray  # flags[i] marks lo + 2*i (lo odd)

    def primes(self) -> np.ndarray:
        return self.lo + 2 * np.flatnonzero(self.flags).astype(np.int64)


def segments(x: int, segment_size: int = SEGMENT_SIZE) -> Iterator[SieveSegment]:
    """Odd-only sieve segments covering [3, x], ascending."""
    if x > PRIME_CAP:
        raise CapacityError(f"x = {x} exceeds the prime cap {PRIME_CAP}")
    if x < 3:
        return
    base = _small_primes(math.isqrt(x))
    odd_base = base[base > WHEEL_PRIMES[-1]]
    lo = 3
    while lo <= x:
        hi = min(lo + 2 * segment_size, x + 1)
        yield SieveSegment(lo=lo, hi=hi, flags=_sieve_segment(lo, hi, odd_base))
        lo = hi if hi % 2 == 1 else hi + 1


def prime_arrays(x: int) -> Iterator[np.ndarray]:
    """Primes <= x as ascending int64 arrays, one per segment."""
    if x >= 2:
        yield np.array([2], dtype=np.int64)
    for seg in segments(x):
        arr = seg.primes()
        if len(arr):
            yield arr


def primes_up_to(x: int) -> Iterator[int]:
    """All primes <= x, ascending."""
    for arr in prime_arrays(x):
        yield from (int(p) for p in arr)


def prime_count(x: int) -> int:
    """pi(x)."""
    return sum(len(arr) for arr in prime_arrays(x))


def _int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) in exact integer arithmetic."""
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 1 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def mangoldt(n: int) -> float:
    """log p if n = p**k for a prime p, else 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0
    for k in range(1, n.bit_length()):
        r = _int_nth_root(n, k)
        if r**k == n and _is_prime(r):
            return math.log(r)
    return 0.0


def mangoldt_table(x: int) -> np.ndarray:
    """Array L with L[n] = Lambda(n) for n <= x.

    Primes get log p in one vectorized write; the O(sqrt x) higher prime
    powers are filled scalar.
    """
    if x > TABLE_CAP:
        raise CapacityError(f"x = {x} exceeds the table cap {TABLE_CAP}")
    table = np.zeros(x + 1, dtype=np.float64)
    for arr in prime_arrays(x):
        table[arr] = np.log(arr.astype(np.float64))
    for p in primes_up_to(math.isqrt(x)):
        logp = math.log(p)
        pk = p * p
        while pk <= x:
            table[pk] = logp
            pk *= p
    return table


def chebyshev_psi(x: int) -> float:
    """psi(x) = sum_{n <= x} Lambda(n)."""
    return float(np.sum(mangoldt_table(x)))
