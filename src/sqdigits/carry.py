"""Carry-propagation failure counts for truncated digital functions.

Adding ``m^2 (2nr + r^2)`` to ``m^2 n^2`` can ripple a carry into digit
positions beyond index ``lambda = 2 mu + nu + rho + rho~``; exactly then
does the low-window phase difference of f disagree with the full phase
difference.  The counting operations below enumerate those failures
exactly; the lemma's O(q**(nu - rho~)) ceiling becomes a fitted-constant
scaling test because its constant is never made explicit.

Both counts reduce to signed sums of the phases of the high parts
``c (n+d)^2 // q**lambda``.  The high parts are formed with Python ints and
handed to the digit kernel as one uint64 array per block of n; rational
phases come back as exact numerators mod their common denominator D (float
phases mod 1.0), and a count is the number of signed sums nonzero mod D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digits import checked_pow
from .errors import CapacityError
from .harness import KERNEL_BLOCK, TYPE_SUM_CAP, _phase_numerators
from .qmult import StronglyQMultiplicative

_FLOAT_PHASE_TOL = 1e-9
_UINT64_LIMIT = 1 << 64


@dataclass(frozen=True)
class CarrySpec:
    """Parameter block for the carry counts.

    lambda = 2*mu + nu + rho + rho_tilde must stay below 2*mu + 2*nu and
    m must have exactly mu base-q digits.
    """

    q: int
    mu: int
    nu: int
    rho: int
    rho_tilde: int
    m: int
    r: int

    def __post_init__(self) -> None:
        if min(self.mu, self.nu, self.rho, self.rho_tilde) < 0:
            raise ValueError("mu, nu, rho, rho_tilde must be non-negative")
        if self.mu < 1 or self.nu < 1:
            raise ValueError("mu and nu must be >= 1 (m and n carry that many digits)")
        if self.lam >= 2 * self.mu + 2 * self.nu:
            raise ValueError(
                f"need lambda < 2*mu + 2*nu, got lambda={self.lam}"
            )
        if not checked_pow(self.q, self.mu) > self.m >= self.q ** (self.mu - 1):
            raise ValueError(
                f"m must lie in [q**(mu-1), q**mu), got m={self.m}"
            )
        checked_pow(self.q, self.lam)
        if self.q**self.nu > TYPE_SUM_CAP:
            raise CapacityError(f"q**nu exceeds the enumeration cap {TYPE_SUM_CAP}")

    @property
    def lam(self) -> int:
        return 2 * self.mu + self.nu + self.rho + self.rho_tilde


def _count_mismatches(
    spec: CarrySpec, f: StronglyQMultiplicative, terms: list[tuple[int, int, int]]
) -> int:
    """Number of n in [q**(nu-1), q**nu) at which the signed sum, over
    (sign, c, d) in terms, of the phases of the digits of c*(n+d)**2 with
    index >= lambda is nonzero mod 1: exactly for numerators over an int
    modulus, beyond _FLOAT_PHASE_TOL on the circle for float phases."""
    if f.q != spec.q:
        raise ValueError("f and spec must share the base q")
    lo, hi, lam_pow = spec.q ** (spec.nu - 1), spec.q**spec.nu, spec.q**spec.lam
    # c*(n+d)**2 is convex in n, so each term's largest high part sits at an end
    for _, c, d in terms:
        if max(c * (lo + d) ** 2, c * (hi - 1 + d) ** 2) // lam_pow >= _UINT64_LIMIT:
            raise CapacityError("a carry high part reaches 2**64, beyond the digit kernel")
    count = 0
    for start in range(lo, hi, KERNEL_BLOCK):
        ns = range(start, min(start + KERNEL_BLOCK, hi))
        high = np.fromiter(
            (c * (n + d) * (n + d) // lam_pow for _, c, d in terms for n in ns),
            dtype=np.uint64,
            count=len(terms) * len(ns),
        )
        nums, modulus = _phase_numerators(f, high.reshape(len(terms), len(ns)))
        total = sum(sign * row for (sign, _, _), row in zip(terms, nums)) % modulus
        if isinstance(modulus, float):
            total = np.minimum(total, 1.0 - total) > _FLOAT_PHASE_TOL
        count += int(np.count_nonzero(total))
    return count


def count_mismatch(spec: CarrySpec, f: StronglyQMultiplicative) -> int:
    """Number of n in [q**(nu-1), q**nu) whose low-window phase difference
    of m^2(n+r)^2 vs m^2 n^2 disagrees with the full phase difference.

    The two differences agree exactly when the digits beyond index lambda
    carry the same phase, so the count reduces to comparing the phases of
    the high parts.
    """
    if spec.r == 0:
        return 0
    m2 = spec.m * spec.m
    return _count_mismatches(spec, f, [(1, m2, spec.r), (-1, m2, 0)])


def count_second_diff_mismatch(
    spec: CarrySpec, f: StronglyQMultiplicative, kappa: int, s: int
) -> int:
    """Mismatch count for the four-term second difference with shift s*q**kappa.

    Counts n where the alternating sum of window-(kappa, lambda) phases of
    (m + s q**kappa)^2 (n+r)^2, m^2 (n+r)^2, (m + s q**kappa)^2 n^2, m^2 n^2
    differs (mod 1) from the same alternating sum of full phases.  Since
    dropping digits below kappa changes low and full sides identically, the
    comparison again reduces to the phases of the digits at index >= lambda.
    """
    if not 0 <= kappa <= spec.nu - spec.rho:
        raise ValueError(f"need 0 <= kappa <= nu - rho, got {kappa}")
    if not 1 <= s < spec.q**spec.rho:
        raise ValueError(f"need 1 <= s < q**rho, got {s}")
    m2 = spec.m * spec.m
    ms2 = (spec.m + s * spec.q**kappa) ** 2
    terms = [(1, ms2, spec.r), (-1, m2, spec.r), (-1, ms2, 0), (1, m2, 0)]
    return _count_mismatches(spec, f, terms)
