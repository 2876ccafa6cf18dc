"""Base-q digit decomposition and digit-window extraction.

The integer ``n = sum_j eps_j * q**j`` (digits ``eps_j`` in ``[0, q)``) is
handled through three primitives: the digit list itself, the value of the
``kappa`` least significant digits, and the value of the digits with index
in ``[kappa1, kappa2)``.

All ``q**kappa`` computations are guarded against leaving the 128-bit
unsigned working range: squares of desk-scale integers fit comfortably,
and anything larger is a configuration mistake that should fail loudly
rather than drift into huge-integer territory.
"""

from __future__ import annotations

from .errors import CapacityError

WORKING_RANGE_BITS = 128
_WORKING_LIMIT = 1 << WORKING_RANGE_BITS


def checked_pow(q: int, kappa: int) -> int:
    """q**kappa, raising CapacityError when the result leaves the working range."""
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")
    if kappa < 0:
        raise ValueError(f"exponent must be >= 0, got {kappa}")
    # q >= 2, so kappa >= WORKING_RANGE_BITS already puts q**kappa out of range,
    # and the power is never built
    if kappa >= WORKING_RANGE_BITS or (value := q**kappa) >= _WORKING_LIMIT:
        raise CapacityError(
            f"{q}**{kappa} exceeds the {WORKING_RANGE_BITS}-bit working range"
        )
    return value


def to_digits(n: int, q: int) -> list[int]:
    """Digits of n in base q, least significant first; [0] for n = 0."""
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return [0]
    digits = []
    while n:
        n, b = divmod(n, q)
        digits.append(b)
    return digits


def rep_low(a: int, kappa: int, q: int) -> int:
    """Value of the kappa least significant digits of a, i.e. a mod q**kappa.

    Negative a is accepted; the result is the mathematical residue in
    [0, q**kappa).
    """
    return a % checked_pow(q, kappa)


def rep_window(a: int, kappa1: int, kappa2: int, q: int) -> int:
    """Value of the digits of a with index in [kappa1, kappa2)."""
    if not 0 <= kappa1 <= kappa2:
        raise ValueError(
            f"need 0 <= kappa1 <= kappa2, got ({kappa1}, {kappa2})"
        )
    return rep_low(a, kappa2, q) // checked_pow(q, kappa1)
