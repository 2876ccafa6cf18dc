"""Exact evaluators and bound checks for the exponential-sum toolbox.

Every check produces a BoundReport holding the exactly evaluated left side,
the right side of the corresponding inequality, and their ratio.  Two
regimes are distinguished:

* explicit_constant=True -- the inequality carries no hidden constant
  (complete/incomplete Gauss sums, geometric series, gcd averages, the
  van der Corput variant).  ratio <= 1 is a hard contract.
* explicit_constant=False -- the inequality is only stated up to an
  unspecified absolute constant (sum of minimums, Weyl, the second
  derivative test, the three bilinear bounds).  The right side is
  evaluated with the implied constant pinned to 1 and the ratio is
  recorded for scaling analysis, never asserted against 1.

Rational phase arguments are reduced mod 1 in exact integer arithmetic
before any complex exponential is formed; this keeps huge quadratic
arguments like m**2 n**2 xi from destroying the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .qmult import _circle_distance, frac

RationalOrFloat = Fraction | int | float


def _ratio(exact: float, bound: float) -> float:
    """exact / bound, the slack of one report row; against a zero bound,
    0.0 when exact is zero too and inf otherwise."""
    if bound != 0:
        return exact / bound
    return 0.0 if exact == 0 else math.inf


@dataclass(frozen=True)
class BoundReport:
    """Evaluated inequality instance: exact left side vs bound right side."""

    exact: float
    bound: float
    explicit_constant: bool

    @property
    def ratio(self) -> float:
        return _ratio(self.exact, self.bound)

    @property
    def holds(self) -> bool:
        return self.ratio <= 1.0 + 1e-9


def geometric_sum(L1: int, L2: int, xi: float) -> BoundReport:
    """|sum_{L1 < l <= L2} e(l xi)| against min(L2-L1, 1/|sin pi xi|)."""
    if L1 > L2:
        raise ValueError(f"need L1 <= L2, got ({L1}, {L2})")
    ls = np.arange(L1 + 1, L2 + 1, dtype=np.float64)
    exact = abs(np.sum(np.exp(2j * np.pi * frac(ls * xi))))
    sin = abs(math.sin(math.pi * xi))
    length = float(L2 - L1)
    bound = length if sin == 0.0 else min(length, 1.0 / sin)
    return BoundReport(float(exact), bound, explicit_constant=True)


def min_sum(N1: int, N2: int, M: float, xi: float, phi: float) -> BoundReport:
    """sum of min(M, 1/|sin pi(n xi + phi)|) against its order-of-magnitude bound.

    bound = (3 + floor((N2-N1)||xi||)) (3M + ||xi||^-1 log ||xi||^-1) with the
    implied constant set to 1.
    """
    dist = _circle_distance(xi)
    if dist == 0.0:
        raise DomainError("xi must not be an integer")
    if M <= 0:
        raise ValueError(f"M must be > 0, got {M}")
    n = np.arange(N1 + 1, N2 + 1, dtype=np.float64)
    sines = np.abs(np.sin(np.pi * (n * xi + phi)))
    with np.errstate(divide="ignore"):
        inv = np.where(sines > 0, 1.0 / sines, np.inf)
    exact = float(np.sum(np.minimum(M, inv)))
    bound = (3.0 + math.floor((N2 - N1) * dist)) * (3.0 * M + math.log(1.0 / dist) / dist)
    return BoundReport(exact, bound, explicit_constant=False)


def gauss_complete(a: int, b: int, m: int) -> BoundReport:
    """|sum_{n<m} e((a n^2 + b n)/m)| against sqrt(2 m gcd(a, m))."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a_red, b_red = a % m, b % m
    n = np.arange(m, dtype=np.int64)
    residues = (a_red * n * n + b_red * n) % m
    exact = abs(np.sum(np.exp(2j * np.pi * (residues / m))))
    bound = math.sqrt(2.0 * m * math.gcd(a, m))
    return BoundReport(float(exact), bound, explicit_constant=True)


def gauss_incomplete(a: int, b: int, m: int, n0: int, N: int) -> BoundReport:
    """Incomplete quadratic Gauss sum over n0 < n <= n0 + N.

    bound = (N/m + 1 + (2/pi) log(2m/pi)) sqrt(2 m gcd(a, m)).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    # python ints keep the modular reduction exact for arbitrarily large n0
    residues = np.array(
        [(a * k * k + b * k) % m for k in range(n0 + 1, n0 + N + 1)], dtype=np.float64
    )
    exact = abs(np.sum(np.exp(2j * np.pi * (residues / m)))) if N else 0.0
    bound = (N / m + 1.0 + (2.0 / math.pi) * math.log(2.0 * m / math.pi)) * math.sqrt(
        2.0 * m * math.gcd(a, m)
    )
    return BoundReport(float(exact), bound, explicit_constant=True)


def weyl_quadratic(
    alpha: RationalOrFloat,
    beta: float,
    gamma: float,
    n0: int,
    N: int,
    a: int,
    m: int,
) -> BoundReport:
    """|sum e(alpha n^2 + beta n + gamma)| against N/sqrt(m) + sqrt(N log m) + sqrt(m log m).

    Requires the rational approximation |alpha - a/m| <= 1/m^2 with
    gcd(a, m) = 1 and m >= 2; implied constant pinned to 1.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2 so that log m > 0, got {m}")
    if math.gcd(a, m) != 1:
        raise DomainError(f"need gcd(a, m) = 1, got gcd({a}, {m})")
    if abs(float(alpha) - a / m) > 1.0 / m**2 + 1e-15:
        raise DomainError("rational approximation |alpha - a/m| <= 1/m^2 fails")
    if isinstance(alpha, Fraction):
        phases = np.array(
            [float((alpha * k * k) % 1) for k in range(n0 + 1, n0 + N + 1)], dtype=np.float64
        )
        n = np.arange(n0 + 1, n0 + N + 1, dtype=np.float64)
        phases += beta * n + gamma
    else:
        n = np.arange(n0 + 1, n0 + N + 1, dtype=np.float64)
        phases = alpha * n * n + beta * n + gamma
    exact = abs(np.sum(np.exp(2j * np.pi * frac(phases))))
    log_m = math.log(m)
    bound = N / math.sqrt(m) + math.sqrt(N * log_m) + math.sqrt(m * log_m)
    return BoundReport(float(exact), bound, explicit_constant=False)


def sigma(exponent: float, n: int) -> float:
    """sigma_x(n) = sum of d**x over the divisors d of n."""
    total = 0.0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d**exponent
    return total


def gcd_average(m: int, A: int, gamma: float) -> BoundReport:
    """(1/A) sum_{a<=A} gcd(a, m)**gamma against sigma_{gamma-1}(m)."""
    if m < 1 or A < 1:
        raise ValueError(f"need m >= 1 and A >= 1, got ({m}, {A})")
    gcds = np.gcd(np.arange(1, A + 1, dtype=np.int64), m).astype(np.float64)
    exact = float(np.sum(gcds**gamma)) / A
    bound = sigma(gamma - 1.0, m)
    return BoundReport(exact, bound, explicit_constant=True)


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@dataclass(frozen=True)
class DivisorBounds:
    tau_value: int
    tau_lower: int
    tau_upper: int
    sigma_value: float
    sigma_bound: float


def divisor_bounds(q: int, lam: int, x: float) -> DivisorBounds:
    """Divisor-function bounds for q**lam, all from the factorization of q.

    (1+lam)**omega(q) <= tau(q**lam) <= tau(q) * lam**omega(q), and for
    x < 0:  sigma_x(q**lam) < prod_{p | q} 1/(1 - p**x).
    """
    if q < 2 or lam < 1:
        raise ValueError(f"need q >= 2 and lam >= 1, got ({q}, {lam})")
    if x >= 0:
        raise ValueError(f"x must be < 0, got {x}")
    factors = _factorize(q)
    omega = len(factors)
    tau_value = 1
    sigma_value = 1.0
    sigma_bound = 1.0
    tau_q = 1
    for p, e in factors.items():
        tau_value *= 1 + e * lam
        tau_q *= 1 + e
        sigma_value *= sum(p ** (j * x) for j in range(e * lam + 1))
        sigma_bound *= 1.0 / (1.0 - p**x)
    return DivisorBounds(
        tau_value=tau_value,
        tau_lower=(1 + lam) ** omega,
        tau_upper=tau_q * lam**omega,
        sigma_value=sigma_value,
        sigma_bound=sigma_bound,
    )


def vdc_variant_check(z: np.ndarray, N_prime: int, R: int) -> tuple[float, float]:
    """Both sides of the van der Corput variant for a finite complex sequence.

    lhs = |sum z_n|^2,
    rhs = (N + N'R - N')/R * Re( sum |z_n|^2
          + 2 sum_{r<R} (1 - r/R) sum_n z_{n+N'r} conj(z_n) ).
    """
    if N_prime < 1 or R < 1:
        raise ValueError(f"need N' >= 1 and R >= 1, got ({N_prime}, {R})")
    z = np.asarray(z, dtype=np.complex128)
    N = len(z)
    if N < 1:
        raise ValueError("need at least one term")
    lhs = abs(np.sum(z)) ** 2
    inner = np.sum(np.abs(z) ** 2)
    corr = 0.0 + 0.0j
    for r in range(1, R):
        shift = N_prime * r
        if shift >= N:
            break
        corr += (1.0 - r / R) * np.sum(z[shift:] * np.conj(z[: N - shift]))
    rhs = (N + N_prime * R - N_prime) / R * float((inner + 2.0 * corr).real)
    return float(lhs), rhs


def bilinear_quadratic_sum(
    a: np.ndarray,
    b: np.ndarray,
    xi1: RationalOrFloat = 0,
    xi2: RationalOrFloat = 0,
    xi3: RationalOrFloat = 0,
    xi4: RationalOrFloat = 0,
) -> complex:
    """sum_{m<=M} sum_{n<=N} a_m b_n e(xi4 m^2n^2 + xi3 mn^2 + xi2 m^2n + xi1 mn).

    Coefficient arrays are indexed from m, n = 1.  Rational frequencies are
    reduced mod 1 in exact integer arithmetic before exponentiation.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if np.max(np.abs(a)) > 1.0 + 1e-12 or np.max(np.abs(b)) > 1.0 + 1e-12:
        raise ValueError("coefficients must have modulus at most 1")
    M, N = len(a), len(b)
    m = np.arange(1, M + 1, dtype=np.int64)
    n = np.arange(1, N + 1, dtype=np.int64)
    phases = np.zeros((M, N), dtype=np.float64)
    monomials = (
        (xi4, np.outer(m * m, n * n)),
        (xi3, np.outer(m, n * n)),
        (xi2, np.outer(m * m, n)),
        (xi1, np.outer(m, n)),
    )
    for xi, mono in monomials:
        if xi == 0:
            continue
        if isinstance(xi, (Fraction, int)):
            xi = Fraction(xi)
            num, den = xi.numerator, xi.denominator
            phases += ((num * mono.astype(object)) % den).astype(np.float64) / den
        else:
            phases += frac(xi * mono.astype(np.float64))
    weights = np.outer(a, b)
    return complex(np.sum(weights * np.exp(2j * np.pi * frac(phases))))


def bound_mn2(M: int, N: int, xi3: RationalOrFloat) -> float:
    """Right side (implied constant 1) bounding |S/(MN)|^2 for phases xi3 mn^2 + xi1 mn."""
    dist = _circle_distance(xi3)
    if dist == 0.0:
        raise DomainError("xi3 must not be an integer")
    log2 = math.log(1.0 / dist) ** 2
    return dist**0.5 + log2 / (M * N * N * dist) + 1.0 / N + log2 / M


def bound_xi2(M: int, N: int, xi2: RationalOrFloat) -> float:
    """Right side (implied constant 1) bounding |S/(MN)|^2 when xi2 is non-integral."""
    dist = _circle_distance(xi2)
    if dist == 0.0:
        raise DomainError("xi2 must not be an integer")
    return dist ** (1.0 / 3.0) + 1.0 / (M * math.sqrt(N) * math.sqrt(dist)) + M**-0.5 + 1.0 / N


def bound_m2n2(M: int, N: int, xi4: RationalOrFloat) -> float:
    """Right side (implied constant 1) bounding |S/(MN)|^4 when xi4 is non-integral."""
    dist = _circle_distance(xi4)
    if dist == 0.0:
        raise DomainError("xi4 must not be an integer")
    log1 = math.log(1.0 / dist)
    return (
        dist**0.4
        + 1.0 / N
        + log1 / M
        + (
            1.0 / (dist * M * M * N * N)
            + dist**-0.6 / (M * N * N)
            + dist**-0.8 / (M * M * N)
            + dist**-0.4 / (M * N)
        )
        * log1**3
    )


def second_derivative_report(theta: float, N: int) -> BoundReport:
    """|sum_{n<=N} e(theta n^2)| against the second-derivative test bound.

    The phase theta x^2 has second derivative exactly 2 theta, so the test
    applies with lambda_2 = 2 theta and c_2 = 1; implied constant pinned
    to 1:  bound = sqrt(2 theta) N + 1/sqrt(2 theta).
    """
    if theta <= 0:
        raise DomainError(f"theta must be > 0, got {theta}")
    n = np.arange(1, N + 1, dtype=np.float64)
    exact = abs(np.sum(np.exp(2j * np.pi * frac(theta * n * n))))
    lam2 = 2.0 * theta
    bound = math.sqrt(lam2) * N + 1.0 / math.sqrt(lam2)
    return BoundReport(float(exact), bound, explicit_constant=False)
