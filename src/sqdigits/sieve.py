"""Segmented prime generation at desk scale.

An odd-only sieve strikes one segment of 2**20 odd flags (1 MiB, so that
they stay in L2) at a time, from a pattern pre-sieved by the wheel primes
3, 5, 7, 11 and 13 and the base primes up to sqrt(x), which the same sieve
yields.  Primes come out in arrays of BLOCK consecutive primes, [2, 3, 5,
...] first and only the last shorter; a carry fills each array across
segment edges, so no array depends on the segment size.  One producer
thread per stream sieves the next array while the caller works on the
current one, and hands it over through a one-slot handoff; every array is a
fresh buffer the producer never writes again.  x above PRIME_CAP is refused
before the thread starts.  The harness applies the von Mangoldt weights
log p.
"""

from __future__ import annotations

import math
import threading
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


class _Handoff:
    """One slot between a stream's producer thread and its caller: put waits
    while the slot is full, take while it is empty, and stop releases a
    producer that waits on a caller gone."""

    def __init__(self) -> None:
        self._changed = threading.Condition()
        self._slot: list = []
        self._stopped = False

    def put(self, item) -> bool:
        """Fill the slot once it is empty; False, and no item, once stopped."""
        with self._changed:
            self._changed.wait_for(lambda: not self._slot or self._stopped)
            if self._stopped:
                return False
            self._slot.append(item)
            self._changed.notify()
            return True

    def take(self):
        """Empty the slot once it is full, and return its item."""
        with self._changed:
            self._changed.wait_for(lambda: self._slot)
            item = self._slot.pop()
            self._changed.notify()
            return item

    def stop(self) -> None:
        with self._changed:
            self._stopped = True
            self._changed.notify()


def _produce(blocks: Iterator[np.ndarray], handoff: _Handoff) -> None:
    """The producer thread: each array of blocks, then None, or the exception
    that stopped blocks, as (array, exception) pairs."""
    try:
        for block in blocks:
            if not handoff.put((block, None)):
                return
        handoff.put((None, None))
    except BaseException as exc:  # re-raised in the caller by prime_arrays
        handoff.put((None, exc))


def prime_arrays(x: int) -> Iterator[np.ndarray]:
    """Primes <= x in ascending int64 arrays of exactly BLOCK primes, the
    last one shorter; x above PRIME_CAP is refused before the first array.

    One producer thread sieves the next array while the caller works on the
    current one.  An exception in the producer is raised here; when the
    caller stops early, the producer is stopped and joined."""
    if x > PRIME_CAP:
        raise CapacityError(f"x = {x} exceeds the prime cap {PRIME_CAP}")
    handoff = _Handoff()
    producer = threading.Thread(
        target=_produce, args=(_prime_blocks(x), handoff), name="prime-sieve", daemon=True
    )
    producer.start()
    try:
        while True:
            block, error = handoff.take()
            if error is not None:
                raise error
            if block is None:
                return
            yield block
    finally:
        handoff.stop()
        producer.join()


def _prime_blocks(x: int) -> Iterator[np.ndarray]:
    """The arrays of prime_arrays(x), sieved in the calling thread; the base
    primes come from this generator too, so it calls no public name."""
    if x < 2:
        return
    base = np.concatenate([np.zeros(0, dtype=np.int64), *_prime_blocks(math.isqrt(x))])
    odd_base = base[base > WHEEL_PRIMES[-1]]
    block, filled, lo = np.empty(BLOCK, dtype=np.int64), 1, 3
    block[0] = 2
    while lo <= x:
        hi = min(lo + 2 * SEGMENT_SIZE, x + 1)
        found = np.flatnonzero(_sieve_segment(lo, hi, odd_base))
        found *= 2
        found += lo  # the primes in [lo, hi)
        while len(found):  # the carry block takes what it lacks of BLOCK
            take = min(BLOCK - filled, len(found))
            block[filled : filled + take] = found[:take]
            filled, found = filled + take, found[take:]
            if filled == BLOCK:
                yield block
                block, filled = np.empty(BLOCK, dtype=np.int64), 0
        lo = hi if hi % 2 == 1 else hi + 1
        del found  # freed before the next segment is sieved, not held beside its flags
    if filled:
        yield block[:filled]
