"""Digit-window Fourier analysis and equidistribution experiments for
digital functions along squares of primes."""

from .digits import checked_pow, rep_low, rep_window, to_digits
from .errors import CapacityError, DomainError, PreconditionError
from .qmult import (
    StronglyQMultiplicative,
    eval_truncated,
    evaluate,
    is_proper,
    make_digit_exponential,
    phase_of,
    thue_morse,
)

__all__ = [
    "CapacityError",
    "DomainError",
    "PreconditionError",
    "StronglyQMultiplicative",
    "checked_pow",
    "eval_truncated",
    "evaluate",
    "is_proper",
    "make_digit_exponential",
    "phase_of",
    "rep_low",
    "rep_window",
    "thue_morse",
    "to_digits",
]

__version__ = "0.1.0"
