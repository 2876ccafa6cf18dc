"""Segmented sieve and prime counts, against trial division and the
von Mangoldt oracle."""

import math
import sys
import threading

import numpy as np
import pytest
from oracles import mangoldt

from sqdigits import sieve
from sqdigits.errors import CapacityError

# classical prime-counting table, re-derived with this package's own
# segmented sieve (and an independent monolithic sieve up to 10**6 below)
PI_TABLE = {
    10: 4,
    10**2: 25,
    10**3: 168,
    10**4: 1229,
    10**5: 9592,
    10**6: 78498,
    10**7: 664579,
    10**8: 5761455,
}


def _trial_division_primes(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]


def _primes(x):
    """All primes <= x from the sieve's arrays, as a list of ints."""
    return [int(p) for arr in sieve.prime_arrays(x) for p in arr]


def _mangoldt_table(x):
    """Lambda(n) for n <= x from the sieve's primes: log p at each power p**k."""
    table = np.zeros(x + 1)
    for p in _primes(x):
        pk = p
        while pk <= x:
            table[pk] = math.log(p)
            pk *= p
    return table


def _psi(x):
    """Chebyshev psi(x) from the sieve's primes: log p once per power p**k <= x."""
    return float(_mangoldt_table(x).sum())


def test_primes_small():
    assert _primes(10) == [2, 3, 5, 7]
    assert _primes(1) == []
    assert _primes(2) == [2]
    assert _primes(3) == [2, 3]


def test_primes_against_trial_division():
    assert _primes(1000) == _trial_division_primes(1000)


def test_small_x_against_trial_division():
    # x at and around the wheel primes 3..13, and across the wheel period
    for x in list(range(65)) + [2 * sieve.WHEEL - 2, 2 * sieve.WHEEL + 2]:
        assert _primes(x) == _trial_division_primes(x), x


def _monolithic_flags(x):
    flags = np.ones(x + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _segment_bounds(x, segment_size):
    """(lo, hi) of each odd segment [lo, hi) the sieve strikes up to x."""
    lo = 3
    while lo <= x:
        hi = min(lo + 2 * segment_size, x + 1)
        yield lo, hi
        lo = hi if hi % 2 else hi + 1


@pytest.mark.parametrize(
    "segment_size",
    [1000, 1 << 16, (1 << 16) + 1, sieve.SEGMENT_SIZE, sieve.SEGMENT_SIZE + 1, 1 << 22],
)
def test_segments_match_monolithic(segment_size, monkeypatch):
    # segment starts at many offsets mod the wheel period, blocks that span
    # many segments and segments that hold many blocks: the arrays are the
    # monolithic sieve's primes cut into BLOCK consecutive primes, whatever
    # the segment size
    x = 3 * 10**6
    primes = np.flatnonzero(_monolithic_flags(x))
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
    arrays = list(sieve.prime_arrays(x))
    assert len(arrays) == -(-len(primes) // sieve.BLOCK) == 4
    for i, arr in enumerate(arrays):
        assert arr.dtype == np.int64
        assert len(arr) == sieve.BLOCK or i == len(arrays) - 1
        assert np.array_equal(arr, primes[i * sieve.BLOCK : (i + 1) * sieve.BLOCK])
    assert np.array_equal(np.concatenate(arrays), primes)


def test_prime_arrays_work_counts(monkeypatch):
    # one _sieve_segment call per segment of the base streams (up to 7, 56
    # and 3162), then one per 2**20 odd flags up to 10**7; 664,579 primes
    # in 11 arrays
    x = 10**7
    calls = []

    def counted(lo, hi, odd_base):
        calls.append((lo, hi))
        return sieve_segment(lo, hi, odd_base)

    sieve_segment = sieve._sieve_segment
    monkeypatch.setattr(sieve, "_sieve_segment", counted)
    lengths = [len(arr) for arr in sieve.prime_arrays(x)]
    outer = list(_segment_bounds(x, sieve.SEGMENT_SIZE))
    assert calls == [(3, 8), (3, 57), (3, 3163)] + outer
    assert len(outer) == -(-5 * 10**6 // sieve.SEGMENT_SIZE) == 5
    assert lengths == [sieve.BLOCK] * 10 + [664579 - 10 * sieve.BLOCK]


def test_segmented_matches_monolithic_to_1e6():
    segmented = np.concatenate(list(sieve.prime_arrays(10**6)))
    assert np.array_equal(segmented, np.flatnonzero(_monolithic_flags(10**6)))


def test_segment_flags_spot_checks(monkeypatch):
    rng = np.random.default_rng(12)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 1 << 16)
    primes = set(np.concatenate(list(sieve.prime_arrays(10**6))).tolist())
    for lo, hi in _segment_bounds(10**6, 1 << 16):
        picks = lo + 2 * rng.integers(0, (hi - lo + 1) // 2, size=50)
        for n in picks.tolist():
            is_prime = all(n % d for d in range(2, math.isqrt(n) + 1))
            assert (n in primes) == is_prime
        if hi > 10**5:
            break


@pytest.mark.parametrize("x,count", sorted(PI_TABLE.items()))
def test_prime_counts(x, count):
    assert sum(len(arr) for arr in sieve.prime_arrays(x)) == count


def test_prime_cap(monkeypatch):
    # refused on the first next(), before the array [2] and before the
    # producer thread starts
    def no_thread(*args, **kwargs):
        raise AssertionError("a producer thread was started for a refused x")

    monkeypatch.setattr(threading, "Thread", no_thread)
    before = threading.active_count()
    with pytest.raises(CapacityError):
        next(sieve.prime_arrays(2 * 10**9))
    assert threading.active_count() == before


def test_arrays_are_fresh_buffers_in_order(monkeypatch):
    # 2000-number segments, so the carry fills every array across many
    # segments; six arrays, more than the handoff holds at once.  Each array
    # kept is its own buffer, still as it was handed over, and together they
    # are the monolithic sieve's primes in order
    x = 5 * 10**6
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 1000)
    kept = [(arr, arr.copy()) for arr in sieve.prime_arrays(x)]
    arrays = [arr for arr, _ in kept]
    assert len(arrays) == 6
    assert all(np.array_equal(arr, copy) for arr, copy in kept)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])
    assert np.array_equal(np.concatenate(arrays), np.flatnonzero(_monolithic_flags(x)))


def test_one_producer_thread_per_stream():
    before = threading.active_count()
    stream = sieve.prime_arrays(10**8)
    assert threading.active_count() == before  # nothing starts before the first next()
    next(stream)
    assert threading.active_count() == before + 1
    assert sum(len(arr) for arr in stream) == PI_TABLE[10**8] - sieve.BLOCK
    assert threading.active_count() == before


def test_producer_is_joined_when_the_caller_stops_early():
    before = threading.active_count()
    for _ in sieve.prime_arrays(10**8):
        break
    assert threading.active_count() == before
    stream = sieve.prime_arrays(10**8)
    next(stream)
    stream.close()
    assert threading.active_count() == before
    with pytest.raises(KeyError, match="consumer"):
        for _ in sieve.prime_arrays(10**8):
            raise KeyError("consumer")
    assert threading.active_count() == before


def test_streams_under_fast_thread_switching(monkeypatch):
    # three callers, each with its own stream, six threads on the cores; with
    # 97-prime arrays and a switch every microsecond, a lost or repeated
    # handoff would show as a missing, doubled or reordered prime
    x = 10**5
    monkeypatch.setattr(sieve, "BLOCK", 97)
    expected = np.flatnonzero(_monolithic_flags(x))
    results = {}

    def consume(i):
        results[i] = [arr.copy() for arr in sieve.prime_arrays(x)]

    callers = [threading.Thread(target=consume, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for arrays in (results[i] for i in range(3)):
        assert [len(arr) for arr in arrays[:-1]] == [97] * (len(arrays) - 1)
        assert np.array_equal(np.concatenate(arrays), expected)


class SieveFault(Exception):
    pass


def test_producer_error_reaches_the_caller(monkeypatch):
    # the fault comes in the third outer segment, after arrays went out
    sieve_segment = sieve._sieve_segment

    def faulty(lo, hi, odd_base):
        if lo > 4 * sieve.SEGMENT_SIZE:
            raise SieveFault(f"no segment at {lo}")
        return sieve_segment(lo, hi, odd_base)

    monkeypatch.setattr(sieve, "_sieve_segment", faulty)
    before, lengths = threading.active_count(), []
    with pytest.raises(SieveFault, match=f"^no segment at {4 * sieve.SEGMENT_SIZE + 3}$"):
        for arr in sieve.prime_arrays(10**8):
            lengths.append(len(arr))
    # every array completed before the fault, in order, and nothing after it
    full = np.count_nonzero(_monolithic_flags(4 * sieve.SEGMENT_SIZE + 2)) // sieve.BLOCK
    assert lengths == [sieve.BLOCK] * full and full == 4
    assert threading.active_count() == before


def test_mangoldt_point_values():
    assert mangoldt(1) == 0.0
    assert mangoldt(2) == math.log(2)
    assert mangoldt(8) == math.log(2)
    assert mangoldt(9) == math.log(3)
    assert mangoldt(12) == 0.0
    assert mangoldt(7**5) == math.log(7)
    assert mangoldt(6) == 0.0


def test_mangoldt_table_matches_points():
    # Lambda(n) > 0 exactly at the powers of the sieve's primes
    x = 10**4
    table = _mangoldt_table(x)
    assert table[1] == 0.0
    for n in range(1, x + 1):
        assert table[n] == mangoldt(n), n


def test_mangoldt_table_nonzero_set_small():
    table = _mangoldt_table(10)
    assert set(np.flatnonzero(table)) == {2, 3, 4, 5, 7, 8, 9}


def test_chebyshev_psi():
    # direct-summation oracle over point queries
    direct = sum(mangoldt(n) for n in range(1, 10**4 + 1))
    assert abs(direct - 10013.39669) < 5e-4
    assert _psi(10**4) == pytest.approx(direct, abs=1e-6)
    psi6 = _psi(10**6)
    assert 0.99 * 10**6 <= psi6 <= 1.01 * 10**6
