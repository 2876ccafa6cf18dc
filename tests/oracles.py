"""Independent brute-force references for the tests.

Nothing in the library calls these: the base-q digit sum by repeated
divmod, the constant function 1, the von Mangoldt function by k-th root
extraction and trial division, properness by trying every candidate
gamma = k/(q-1) in Fraction arithmetic, the Fourier transform F_lam by its
defining O(q**lam) sum over a digit-by-digit table of f, the quadratic
means of a digit exponential one full row at a time over whole-row
sine/cosine tables, the Vaaler kernel coefficients one h at a time in
scalar math/cmath arithmetic, and the self-convolution of the sharp
indicator chi* in closed form.  holds is the ratio rule the tests apply to
explicit-constant bounds.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from sqdigits.qmult import StronglyQMultiplicative
from sqdigits.vaaler import VaalerKernel


def holds(pair: tuple[float, float]) -> bool:
    """exact / bound <= 1 + 1e-9 for an (exact, bound) pair; against a zero
    bound, only exact == 0 holds."""
    exact, bound = pair
    return exact == 0 if bound == 0 else exact / bound <= 1.0 + 1e-9


def digit_sum(n: int, q: int) -> int:
    """Sum of the base-q digits of n >= 0."""
    total = 0
    while n:
        n, b = divmod(n, q)
        total += b
    return total


def make_constant_one(q: int) -> StronglyQMultiplicative:
    """The constant function 1: every phase 0."""
    return StronglyQMultiplicative(q, (Fraction(0),) * q)


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


def is_proper(f: StronglyQMultiplicative) -> bool:
    """False iff phases[b] = k*b/(q-1) mod 1 for every digit b, for some k < q-1:
    exactly for Fraction phases, within 1e-10 on the circle for float ones."""
    q = f.q
    for k in range(q - 1):
        gamma = Fraction(k, q - 1)
        if f.exact:
            if all(f.phases[b] == (gamma * b) % 1 for b in range(q)):
                return False
        else:
            residual = max(
                abs((d := float(f.phases[b]) - float(gamma * b)) - round(d)) for b in range(q)
            )
            if residual <= 1e-10:
                return False
    return True


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


def quadratic_mean_rows(q: int, gamma: float, lam: int, t: float) -> list[float]:
    """[S_1, ..., S_lam] of e(gamma * s_q) at t in [0, 1), one row at a time.

    The closed form of fourier's digit-exponential rows, with every row of
    a level taken whole: at level l (m = q**l, n = q*m) the numerator and
    each row's denominator read cos/sin(pi a / m) and cos/sin(pi a / n) for
    all a < m at once, and S_l adds the q row sums in row order.
    """

    def centered(x: float) -> float:
        return x - 2.0 * round(x / 2.0)

    def tables(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        ang = np.pi * np.arange(count, dtype=np.float64) / n
        return np.cos(ang), np.sin(ang)

    sums: list[float] = []
    partial = np.ones(1, dtype=np.float64)
    for level in range(lam):
        m = q**level
        n = q * m
        x = math.pi * centered(q * gamma - t / m)
        cos_a, sin_a = tables(m, m)
        weight = (cos_a * math.sin(x) - sin_a * math.cos(x)) ** 2
        weight *= 1.0 / (q * q)
        weight *= partial
        cos_a, sin_a = tables(n, m)
        rows = np.empty((q, m), dtype=np.float64)
        total = 0.0
        for b in range(q):
            x_b = math.pi * centered(gamma - t / n - b / q)
            den = (cos_a * math.sin(x_b) - sin_a * math.cos(x_b)) ** 2
            limit = den < 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                rows[b] = weight / den
            # Dirichlet-kernel limit |F_1| -> 1 at integer argument
            np.copyto(rows[b], partial, where=limit)
            total += float(rows[b].sum())
        sums.append(total)
        partial = rows.reshape(-1)
    return sums


def coeff_chi_star(alpha: float, h: int) -> float:
    """Fourier coefficient of the sharp indicator chi*_alpha."""
    if h == 0:
        return alpha
    return math.sin(math.pi * h * alpha) / (math.pi * h)


def chi_star_self_convolution(alpha: float, x: float) -> float:
    """chi*_alpha conv chi*_alpha(x) = alpha * max(1 - ||x||/alpha, 0), in closed form."""
    return alpha * max(1.0 - abs(x - round(x)) / alpha, 0.0)


def coeff_chi(kernel: VaalerKernel, h: int) -> complex:
    """Fourier coefficient of the chi polynomial; 0 beyond degree H."""
    if abs(h) > kernel.H:
        return 0.0 + 0.0j
    if h == 0:
        value = complex(kernel.alpha)
    else:
        j = abs(h) / (kernel.H + 1)
        taper = math.pi * j * (1.0 - j) / math.tan(math.pi * j) + j
        value = complex(coeff_chi_star(kernel.alpha, h) * taper)
    if kernel.shifted:
        value *= cmath.exp(-1j * math.pi * h * kernel.alpha)
    return value


def coeff_B(kernel: VaalerKernel, h: int) -> complex:
    """Fourier coefficient of the majorant polynomial B; 0 beyond degree H."""
    if abs(h) > kernel.H:
        return 0.0 + 0.0j
    Hp1 = kernel.H + 1
    value = complex((1.0 - abs(h) / Hp1) / Hp1 * math.cos(math.pi * h * kernel.alpha))
    if kernel.shifted:
        value *= cmath.exp(-1j * math.pi * h * kernel.alpha)
    return value
