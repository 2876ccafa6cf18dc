"""Independent brute-force references for the tests.

Nothing in the library calls these: the von Mangoldt function by k-th root
extraction and trial division, and the Fourier transform F_lam by its
defining O(q**lam) sum over a digit-by-digit table of f.
"""

from __future__ import annotations

import math

import numpy as np

from sqdigits.qmult import StronglyQMultiplicative


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


def _digit_value_table(f: StronglyQMultiplicative, lam: int) -> np.ndarray:
    """f(u) for u < q**lam, built digit by digit."""
    vals = np.ones(1, dtype=np.complex128)
    digit_vals = np.array(f.digit_values, dtype=np.complex128)
    for _ in range(lam):
        vals = (vals[None, :] * digit_vals[:, None]).reshape(-1)
        # index u = b * q**level + u_low, so the new digit is the slow axis
    return vals


def eval_F_direct(f: StronglyQMultiplicative, lam: int, t) -> complex:
    """F_lam(t) by the defining O(q**lam) sum."""
    qlam = f.q**lam
    u = np.arange(qlam)
    fu = np.array([complex(v) for v in _digit_value_table(f, lam)])
    return complex(np.sum(fu * np.exp(-2j * math.pi * float(t) * u / qlam)) / qlam)
