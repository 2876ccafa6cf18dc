"""Segmented sieve and prime counts, against trial division and the
von Mangoldt oracle."""

import math

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


def _segment_arrays(x, segment_size):
    """(lo, hi, primes) of each odd segment [lo, hi) after the array [2]; no
    segment below 3 * 10**6 is free of primes, so none is skipped."""
    arrays = sieve.prime_arrays(x)
    assert next(arrays).tolist() == [2]
    lo = 3
    for arr in arrays:
        hi = min(lo + 2 * segment_size, x + 1)
        yield lo, hi, arr
        lo = hi if hi % 2 else hi + 1
    assert lo > x


@pytest.mark.parametrize("segment_size", [1000, 1 << 16, sieve.SUB_BLOCK + 1, sieve.SEGMENT_SIZE])
def test_segments_match_monolithic(segment_size, monkeypatch):
    # segment starts at many offsets mod the wheel period, segments across
    # sub-block edges, and a last sub-block of one flag
    x = 3 * 10**6
    flags = _monolithic_flags(x)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
    for lo, hi, arr in _segment_arrays(x, segment_size):
        assert arr.dtype == np.int64
        assert np.array_equal(arr, lo + np.flatnonzero(flags[lo:hi]))


def test_segmented_matches_monolithic_to_1e6():
    segmented = np.concatenate(list(sieve.prime_arrays(10**6)))
    assert np.array_equal(segmented, np.flatnonzero(_monolithic_flags(10**6)))


def test_segment_flags_spot_checks(monkeypatch):
    rng = np.random.default_rng(12)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 1 << 16)
    for lo, hi, arr in _segment_arrays(10**6, 1 << 16):
        picks = lo + 2 * rng.integers(0, (hi - lo + 1) // 2, size=50)
        for n in picks.tolist():
            is_prime = all(n % d for d in range(2, math.isqrt(n) + 1))
            assert (n in arr) == is_prime
        if hi > 10**5:
            break


@pytest.mark.parametrize("x,count", sorted(PI_TABLE.items()))
def test_prime_counts(x, count):
    assert sum(len(arr) for arr in sieve.prime_arrays(x)) == count


def test_prime_cap():
    # refused on the first next(), before the array [2]
    with pytest.raises(CapacityError):
        next(sieve.prime_arrays(2 * 10**9))


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
