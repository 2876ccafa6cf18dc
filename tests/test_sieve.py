"""Segmented sieve, prime counts, and von Mangoldt weights."""

import math

import numpy as np
import pytest

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


def test_primes_small():
    assert list(sieve.primes_up_to(10)) == [2, 3, 5, 7]
    assert list(sieve.primes_up_to(1)) == []
    assert list(sieve.primes_up_to(2)) == [2]
    assert list(sieve.primes_up_to(3)) == [2, 3]


def test_primes_against_trial_division():
    assert list(sieve.primes_up_to(1000)) == _trial_division_primes(1000)


def test_small_x_against_trial_division():
    # x at and around the wheel primes 3..13, and across the wheel period
    for x in list(range(65)) + [2 * sieve.WHEEL - 2, 2 * sieve.WHEEL + 2]:
        assert list(sieve.primes_up_to(x)) == _trial_division_primes(x), x


@pytest.mark.parametrize("segment_size", [1000, 1 << 16, sieve.SUB_BLOCK + 1, sieve.SEGMENT_SIZE])
def test_segments_match_monolithic(segment_size):
    # segment starts at many offsets mod the wheel period, segments across
    # sub-block edges, and a last sub-block of one flag
    x = 3 * 10**6
    flags = np.ones(x + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    lo = 3
    for seg in sieve.segments(x, segment_size):
        assert (seg.lo, seg.hi) == (lo, min(lo + 2 * segment_size, x + 1))
        assert np.array_equal(seg.flags, flags[seg.lo : seg.hi : 2])
        lo = seg.hi if seg.hi % 2 else seg.hi + 1
    assert lo > x


def test_segmented_matches_monolithic_to_1e6():
    segmented = np.concatenate(list(sieve.prime_arrays(10**6)))
    flags = np.ones(10**6 + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, 1001):
        if flags[p]:
            flags[p * p :: p] = False
    assert np.array_equal(segmented, np.flatnonzero(flags))


def test_segment_flags_spot_checks():
    rng = np.random.default_rng(12)
    for seg in sieve.segments(10**6, segment_size=1 << 16):
        odd_values = seg.lo + 2 * np.arange(len(seg.flags))
        picks = rng.integers(0, len(seg.flags), size=min(50, len(seg.flags)))
        for i in picks:
            n = int(odd_values[i])
            is_prime = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert bool(seg.flags[i]) == is_prime
        if seg.hi > 10**5:
            break


@pytest.mark.parametrize("x,count", sorted(PI_TABLE.items()))
def test_prime_counts(x, count):
    assert sieve.prime_count(x) == count


def test_prime_cap():
    with pytest.raises(CapacityError):
        list(sieve.primes_up_to(2 * 10**9))


def test_mangoldt_point_values():
    assert sieve.mangoldt(1) == 0.0
    assert sieve.mangoldt(2) == math.log(2)
    assert sieve.mangoldt(8) == math.log(2)
    assert sieve.mangoldt(9) == math.log(3)
    assert sieve.mangoldt(12) == 0.0
    assert sieve.mangoldt(7**5) == math.log(7)
    assert sieve.mangoldt(6) == 0.0


def test_mangoldt_table_matches_points():
    table = sieve.mangoldt_table(10**4)
    assert table[1] == 0.0
    rng = np.random.default_rng(4)
    for n in rng.integers(1, 10**4 + 1, size=10**4):
        assert table[int(n)] == pytest.approx(sieve.mangoldt(int(n)), abs=1e-12)


def test_mangoldt_table_nonzero_set_small():
    table = sieve.mangoldt_table(10)
    assert set(np.flatnonzero(table)) == {2, 3, 4, 5, 7, 8, 9}


def test_chebyshev_psi():
    # direct-summation oracle over point queries
    direct = sum(sieve.mangoldt(n) for n in range(1, 10**4 + 1))
    assert abs(direct - 10013.39669) < 5e-4
    assert sieve.chebyshev_psi(10**4) == pytest.approx(direct, abs=1e-6)
    psi6 = sieve.chebyshev_psi(10**6)
    assert 0.99 * 10**6 <= psi6 <= 1.01 * 10**6


def test_table_cap():
    with pytest.raises(CapacityError):
        sieve.mangoldt_table(2 * 10**8)
