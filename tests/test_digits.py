"""Digit decomposition, windows, and digit sums."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import digit_sum

from sqdigits.digits import (
    checked_pow,
    rep_low,
    rep_window,
    to_digits,
)
from sqdigits.errors import CapacityError


def test_to_digits_examples():
    assert to_digits(0, 2) == [0]
    assert to_digits(13, 2) == [1, 0, 1, 1]
    assert to_digits(123, 10) == [3, 2, 1]


def test_to_digits_no_trailing_zero():
    for n in (1, 5, 8, 100, 1024):
        assert to_digits(n, 2)[-1] != 0


def test_rep_low_examples():
    assert rep_low(13, 3, 2) == 5
    assert rep_low(-1, 2, 3) == 8
    assert rep_low(0, 0, 5) == 0


def test_rep_window_examples():
    assert rep_window(13, 1, 3, 2) == 2
    assert rep_window(13, 0, 3, 2) == 5
    # digits of 3**5 - 1 = 242 in base 3 are all 2: window picks 2 + 2*3
    n = 3**5 - 1
    digits = to_digits(n, 3)
    expected = digits[2] + 3 * digits[3]
    assert expected == 8
    assert rep_window(n, 2, 4, 3) == expected


def test_digit_sum_examples():
    assert digit_sum(0, 2) == 0
    assert digit_sum(7, 2) == 3
    assert digit_sum(999999999999, 10) == 108


def test_checked_pow_overflow():
    with pytest.raises(CapacityError):
        checked_pow(2, 128)
    assert checked_pow(2, 127) == 2**127
    assert checked_pow(3, 80) == 3**80
    with pytest.raises(CapacityError, match=r"3\*\*81 exceeds"):
        checked_pow(3, 81)
    # refused from the exponent alone: building 3**(10**9) takes minutes
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=r"3\*\*1000000000 exceeds"):
        checked_pow(3, 10**9)
    assert time.perf_counter() - start < 0.1


def test_round_trip_bulk():
    # 10**5 random n per base: reconstruct n from its digit list
    rng = np.random.default_rng(42)
    for q in (2, 3, 5, 7, 10):
        ns = rng.integers(0, 2**48, size=10**5)
        # vectorized reconstruction oracle running on the same divmod chain
        v = ns.astype(np.uint64).copy()
        rebuilt = np.zeros_like(v)
        power = np.uint64(1)
        qq = np.uint64(q)
        while v.max() > 0:
            rebuilt += (v % qq) * power
            v //= qq
            power *= qq
        assert np.array_equal(rebuilt, ns.astype(np.uint64))
        # and the scalar implementation agrees on a subsample
        for n in ns[:200]:
            n = int(n)
            digits = to_digits(n, q)
            assert sum(d * q**j for j, d in enumerate(digits)) == n
            assert all(0 <= d < q for d in digits)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=2, max_value=16))
def test_round_trip_property(n, q):
    digits = to_digits(n, q)
    assert sum(d * q**j for j, d in enumerate(digits)) == n


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=2, max_value=7),
)
def test_window_consistency(a, kappa, q):
    assert rep_window(a, 0, kappa, q) == rep_low(a, kappa, q)


@pytest.mark.parametrize("q", [2, 3])
def test_digit_detection_equivalence(q):
    # rep_window(a, k1, k2) = u  iff  frac(a / q**k2) in [u, u+1) / q**(k2-k1)
    for kappa2 in range(1, 7):
        for kappa1 in range(kappa2 + 1):
            width = q ** (kappa2 - kappa1)
            for a in range(q ** (kappa2 + 2)):
                u = rep_window(a, kappa1, kappa2, q)
                frac = Fraction(a, q**kappa2) % 1
                assert Fraction(u, width) <= frac < Fraction(u + 1, width)


def test_digit_sum_subadditive_bulk():
    rng = np.random.default_rng(7)
    q = np.uint64(10)
    a = rng.integers(0, 2**50, size=10**5).astype(np.uint64)
    b = rng.integers(0, 2**50, size=10**5).astype(np.uint64)

    def sums(v):
        v = v.copy()
        out = np.zeros_like(v)
        while v.max() > 0:
            out += v % q
            v //= q
        return out

    assert np.all(sums(a + b) <= sums(a) + sums(b))
    # scalar implementation agrees with the vectorized oracle on a subsample
    for x, y in zip(a[:100], b[:100]):
        assert digit_sum(int(x) + int(y), 10) <= digit_sum(int(x), 10) + digit_sum(int(y), 10)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**50),
    st.integers(min_value=0, max_value=2**50),
    st.integers(min_value=2, max_value=12),
)
def test_digit_sum_subadditive_property(m, n, q):
    assert digit_sum(m + n, q) <= digit_sum(m, q) + digit_sum(n, q)
