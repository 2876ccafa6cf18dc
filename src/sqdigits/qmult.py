"""Strongly q-multiplicative functions with unit-circle values.

A strongly q-multiplicative ``f`` satisfies ``f(a*q + b) = f(a) * f(b)``
for every digit ``b``, so it is determined by its values on single digits.
We store ``f(b) = e(phases[b])`` with ``phases[b]`` in ``[0, 1)`` and
``phases[0] = 0``.  When all phases are rational the phase of ``f(n)`` is
accumulated exactly (integer numerators over a common denominator, reduced
mod 1) and converted to a complex number only at the very end; this keeps
every identity test free of float drift.  The vectorized sums of ``harness``
convert a numerator ``k`` once too: to ``e(k/D)`` by one ``exp``, or, with
no twist and a small ``D``, by a lookup in the table of the ``D`` roots of
unity.

The classical family is the digit exponential ``e(gamma * s_q(n))`` whose
phases are ``gamma * b mod 1``.  Such an ``f`` is degenerate ("improper")
exactly when it coincides with ``e(gamma' * n)`` for some ``gamma'`` with
``(q - 1) * gamma'`` an integer; all main estimates require properness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .digits import rep_window, to_digits
from .errors import CapacityError

Phase = Fraction | float

_PROPERNESS_TOL = 1e-10
# make_digit_exponential builds one Fraction phase per digit: 8-10 s at this q
# on a 2-vCPU Xeon
MAX_DIGIT_Q = 1 << 20


def e(x: float) -> complex:
    """exp(2*pi*i*x)."""
    return cmath.exp(2j * math.pi * x)


def frac(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x mod 1 of a float array, bitwise equal to np.mod(x, 1.0) and faster.

    For x >= 0 both are exact; for x < 0 both round the true x - floor(x)
    once (fmod by 1 is exact, adding 1 rounds), and both give +0.0 on
    integers.  The floor is taken into out (a fresh array for None) and the
    difference is written over it, so at most one array is allocated, not two.
    """
    y = np.floor(x, out=out)
    np.subtract(x, y, out=y)
    return y


@dataclass(frozen=True)
class StronglyQMultiplicative:
    """f(n) = product over base-q digits b of e(phases[b])."""

    q: int
    phases: tuple[Phase, ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"base must be >= 2, got {self.q}")
        if len(self.phases) != self.q:
            raise ValueError(f"need {self.q} phases, got {len(self.phases)}")
        if self.phases[0] != 0:
            raise ValueError("phases[0] must be 0 (f(0) = 1)")
        for p in self.phases:
            if not 0 <= p < 1:
                raise ValueError(f"phases must lie in [0, 1), got {p}")

    # exact, the hash, the numerators and the digit values scan all q phases,
    # so each is computed once per instance; phase_of, is_proper, the cached
    # digit tables, the quadratic mean and every eval_F1 call read them
    @cached_property
    def exact(self) -> bool:
        """True when every phase is stored as an exact rational."""
        return all(isinstance(p, Fraction) for p in self.phases)

    @cached_property
    def _hash(self) -> int:
        return hash((self.q, self.phases))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def numerators(self) -> tuple[int, tuple[int, ...]]:
        """(common denominator D, nums) with phases[b] = nums[b]/D; exact phases only."""
        denom = math.lcm(*(p.denominator for p in self.phases))
        return denom, tuple(p.numerator * (denom // p.denominator) for p in self.phases)

    @cached_property
    def digit_values(self) -> tuple[complex, ...]:
        return tuple(e(float(p)) for p in self.phases)


def make_digit_exponential(q: int, gamma: Fraction | float) -> StronglyQMultiplicative:
    """The function e(gamma * s_q(n)), phases gamma*b mod 1; q above
    MAX_DIGIT_Q is refused before any phase is built."""
    if q > MAX_DIGIT_Q:
        raise CapacityError(f"q = {q} exceeds the digit function cap {MAX_DIGIT_Q}")
    if isinstance(gamma, (Fraction, int)):
        gamma = Fraction(gamma)
        phases = tuple(Fraction(gamma * b) % 1 for b in range(q))
    else:
        phases = tuple(math.fmod(gamma * b, 1.0) % 1.0 for b in range(q))
    return StronglyQMultiplicative(q, phases)


def thue_morse() -> StronglyQMultiplicative:
    """(-1)**s_2(n), the Thue-Morse sign sequence."""
    return make_digit_exponential(2, Fraction(1, 2))


def _circle_distance(x: Fraction | float) -> float:
    """Distance of x to the nearest integer, exact for a Fraction until the
    final conversion."""
    return abs(float(x - round(x)))


def _digit_step(f: StronglyQMultiplicative) -> Fraction | None:
    """gamma = phases[1] when f is the digit exponential e(gamma * s_q(n)) with
    exact phases, else None.  One pass of integer comparisons over the
    numerators: phases[b] = gamma*b mod 1 iff nums[b] = nums[1]*b mod D."""
    if f.exact:
        denom, nums = f.numerators
        if all(nums[b] == nums[1] * b % denom for b in range(f.q)):
            return f.phases[1]
    return None


def is_proper(f: StronglyQMultiplicative) -> bool:
    """False iff f(n) = e(gamma*n) for some gamma with (q-1)*gamma integral.

    Since n = s_q(n) mod q-1, such an f is the digit exponential of the same
    gamma, one of the q-1 values k/(q-1) mod 1.  Exact phases are decided by
    the integer test of _digit_step.  Float phases are improper when every
    phases[b] lies within 1e-10 of gamma*b mod 1 on the circle; only the k
    nearest (q-1)*phases[1] can pass at b = 1, so only that k is tried.
    """
    q = f.q
    if f.exact:
        gamma = _digit_step(f)
        return gamma is None or (q - 1) % gamma.denominator != 0
    gamma = Fraction(round((q - 1) * float(f.phases[1])) % (q - 1), q - 1)
    return not all(
        _circle_distance(float(f.phases[b]) - float(gamma * b)) <= _PROPERNESS_TOL
        for b in range(q)
    )


def phase_of(f: StronglyQMultiplicative, n: int) -> Phase:
    """Accumulated phase of f(n) reduced mod 1 (exact for rational phases)."""
    denom, weights = f.numerators if f.exact else (1.0, f.phases)
    total = 0 * denom  # 0.0 for float phases, so a Fraction among them adds as a float
    for b in to_digits(n, f.q):  # added in order: sum() compensates float sums from 3.12 on
        total += weights[b]
    total %= denom
    return Fraction(total, denom) if f.exact else total


def evaluate(f: StronglyQMultiplicative, n: int) -> complex:
    """f(n) as a unit complex number."""
    return e(float(phase_of(f, n)))


def eval_truncated(f: StronglyQMultiplicative, a: int, kappa1: int, kappa2: int) -> complex:
    """f restricted to the digit window [kappa1, kappa2) of a.

    Equals f(rep_window(a, kappa1, kappa2)) because a strongly
    q-multiplicative function ignores powers of q: f(q**k * u) = f(u).
    """
    return evaluate(f, rep_window(a, kappa1, kappa2, f.q))
