"""Beurling-Selberg / Vaaler approximation of interval indicators.

``chi*_alpha`` is the indicator of ``[-alpha/2, alpha/2)`` modulo 1 and
``chi_alpha`` of ``[0, alpha)`` (the shift of ``chi*`` by ``alpha/2``).
For each degree ``H`` there is a trigonometric-polynomial pair
``(chi_H, B_H)`` with

    |chi(x) - chi_H(x)| <= B_H(x)      for all real x,

whose Fourier coefficients are in closed form, each written once in numpy
for an int or an int array of frequencies h.  Everything in this module
is computed in coefficient space -- convolutions of trigonometric
polynomials are finite sums of coefficient products -- so the lemma
constants (1/(H+1), 3/(H+1), 1/U**2, ...) are checkable to machine
precision, never through quadrature.

The digit-window detector drops out by aliasing: with alpha = q**(-lam)
and H = K*q**lam - 1, truncating the Fourier expansion of a digit window
of f costs at most a Fejer-kernel term that is uniformly <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .fourier import build_table
from .qmult import StronglyQMultiplicative, _circle_distance, eval_truncated, frac


@dataclass(frozen=True)
class VaalerKernel:
    """Degree-H approximation pair for the width-alpha interval indicator.

    shifted=False approximates the symmetric interval [-alpha/2, alpha/2);
    shifted=True the interval [0, alpha), i.e. every coefficient picks up
    the phase e(-h*alpha/2).
    """

    alpha: float
    H: int
    shifted: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.H < 1:
            raise ValueError(f"H must be >= 1, got {self.H}")


def _coeff_chi_star(alpha: float, hs: int | np.ndarray) -> np.ndarray:
    """Fourier coefficients of the sharp indicator chi*_alpha: alpha at h = 0,
    sin(pi h alpha)/(pi h) elsewhere.  This is also chi* conv (chi* e^h)(0)."""
    h = np.asarray(hs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at h = 0, replaced
        return np.where(h == 0, alpha, np.sin(np.pi * h * alpha) / (np.pi * h))


def _degree_H(kernel: VaalerKernel, h: np.ndarray, coeffs: np.ndarray) -> complex | np.ndarray:
    """coeffs times e(-h alpha/2) when shifted, 0 beyond degree H; a scalar h
    gives a Python complex."""
    if kernel.shifted:
        coeffs = coeffs * np.exp(-1j * np.pi * h * kernel.alpha)
    coeffs = np.where(np.abs(h) <= kernel.H, coeffs, 0j)
    return complex(coeffs) if coeffs.ndim == 0 else coeffs


def coeff_chi(kernel: VaalerKernel, hs: int | np.ndarray) -> complex | np.ndarray:
    """Fourier coefficients of the chi polynomial at an int or int array h:
    chi*-hat(h) times the Vaaler taper, 0 beyond degree H."""
    h = np.asarray(hs, dtype=np.float64)
    j = np.abs(h) / (kernel.H + 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at h = 0, replaced
        taper = np.pi * j * (1.0 - j) / np.tan(np.pi * j) + j
        coeffs = np.where(h == 0, kernel.alpha, _coeff_chi_star(kernel.alpha, h) * taper)
    return _degree_H(kernel, h, coeffs)


def coeff_B(kernel: VaalerKernel, hs: int | np.ndarray) -> complex | np.ndarray:
    """Fourier coefficients of the majorant polynomial B at an int or int
    array h, 0 beyond degree H."""
    h = np.asarray(hs, dtype=np.float64)
    Hp1 = kernel.H + 1
    return _degree_H(kernel, h, (1.0 - np.abs(h) / Hp1) / Hp1 * np.cos(np.pi * h * kernel.alpha))


def kernel_values(kernel: VaalerKernel, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(chi, chi_H, B_H) at each x of a 1-d array.

    The indicator uses the exact floor identities; the polynomials are
    summed from their coefficients (real by symmetry) through one phase
    matrix.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if kernel.shifted:
        chi = np.floor(xs) - np.floor(xs - kernel.alpha)
    else:
        chi = np.floor(xs + kernel.alpha / 2) - np.floor(xs - kernel.alpha / 2)
    hs = np.arange(-kernel.H, kernel.H + 1)
    phases = np.exp(2j * np.pi * np.outer(xs, hs))
    return chi, (phases @ coeff_chi(kernel, hs)).real, (phases @ coeff_B(kernel, hs)).real


def sandwich_defect(kernel: VaalerKernel, grid_n: int) -> float:
    """max over a jump-avoiding grid of |chi - chi_H| - B_H (should be <= 0).

    The two indicator jumps are half-open, so grid points are offset to
    stay strictly one-sided of them.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    xs = (np.arange(grid_n) + 0.18973) / grid_n
    if kernel.shifted:
        jumps = np.array([0.0, kernel.alpha])
    else:
        jumps = np.array([-kernel.alpha / 2 % 1.0, kernel.alpha / 2 % 1.0])
    for j in jumps:
        xs = xs[np.abs(frac((xs - j) + 0.5) - 0.5) > 1e-9]
    chi, chi_h, b_h = kernel_values(kernel, xs)
    return float(np.max(np.abs(chi - chi_h) - b_h))


class TruncatedSeriesSum(NamedTuple):
    value: float
    tail_bound: float


_ALIASED_TERMS = 10**6


def aliased_chi_sq_sum(U: int, a: int) -> TruncatedSeriesSum:
    """sum over k of |chi*_{1/U}-hat(k U + a)|^2, which equals 1/U**2.

    The series is truncated at |k| <= 10**6 / U; the discarded tail is at
    most 2 / (pi^2 k_max) and is reported rather than silently dropped.
    For h = k U + a, sin(pi h / U) = (-1)**k sin(pi (a mod U) / U) exactly,
    and the sign drops out of the square, so one sine serves every term.
    """
    if U < 2:
        raise ValueError(f"U must be >= 2, got {U}")
    alpha = 1.0 / U
    k_max = _ALIASED_TERMS // U
    s = math.sin(math.pi * (a % U) / U)
    terms = np.arange(-k_max, k_max + 1, dtype=np.float64)
    terms *= U
    terms += a
    terms *= np.pi  # pi * h
    with np.errstate(invalid="ignore"):  # 0/0 at h = 0, set below
        np.divide(s, terms, out=terms)
    if a % U == 0 and abs(a) <= k_max * U:
        terms[k_max - a // U] = alpha
    np.square(terms, out=terms)
    value = float(np.sum(terms))
    tail = 2.0 / (math.pi**2 * k_max)
    return TruncatedSeriesSum(value, tail)


class ConvolutionDefects(NamedTuple):
    chiB_sum: float
    BB_sum: float
    chiH_defect: float


def convolution_defects(U: int, H: int, ell: int) -> ConvolutionDefects:
    """The three grid-convolution quantities of the kernel lemma family.

    With alpha = 1/U and the grid u/U, u = 0..U-1:

    * chiB_sum   = sum chi* conv B_H          -- equals 1/(H+1) exactly,
    * BB_sum     = sum B_H conv B_H           -- at most 1/(H+1),
    * chiH_defect = sum |chi_H conv (chi_H e^ell) - chi* conv (chi* e^ell)|
                                              -- at most 3/(H+1);
      ell = 0 recovers the untwisted comparison against alpha.

    All three are evaluated in coefficient space.
    """
    if not 2 <= U <= H + 1:
        raise PreconditionError(f"need 2 <= U <= H+1, got U={U}, H={H}")
    alpha = 1.0 / U
    kernel = VaalerKernel(alpha, H)
    hs = np.arange(-H, H + 1)
    chi_star = _coeff_chi_star(alpha, hs)
    chi_h = coeff_chi(kernel, hs).real
    b_h = coeff_B(kernel, hs).real
    grid = np.exp(2j * np.pi * np.outer(np.arange(U), hs) / U)

    chiB_sum = float(np.sum((grid @ (chi_star * b_h)).real))
    BB_sum = float(np.sum((grid @ (b_h * b_h)).real))

    # (g e^ell)-hat(h) = g-hat(h - ell); pad so the shifted index stays valid
    chi_h_shift = coeff_chi(kernel, hs - ell).real
    conv_h = grid @ (chi_h * chi_h_shift)
    exact = np.zeros(U, dtype=np.complex128)
    exact[0] = _coeff_chi_star(alpha, ell)  # chi* conv (chi* e^ell)(0)
    chiH_defect = float(np.sum(np.abs(conv_h - exact)))
    return ConvolutionDefects(chiB_sum, BB_sum, chiH_defect)


def chi_star_self_convolution(alpha: float, x: float) -> float:
    """chi*_alpha conv chi*_alpha(x) = alpha * max(1 - ||x||/alpha, 0)."""
    return alpha * max(1.0 - _circle_distance(x) / alpha, 0.0)


class WindowApproximation(NamedTuple):
    approx: complex
    error_bound: float


def truncated_f_H(
    f: StronglyQMultiplicative, a: int, kappa1: int, kappa2: int, K: int
) -> WindowApproximation:
    """Degree-H Fourier approximation of the digit window of f at a.

    With lam = kappa2 - kappa1, alpha = q**(-lam) and H = K*q**lam - 1:

        approx = q**lam * sum_{|h|<=H} chi_H-hat(h) F_lam(h) e(h a / q**kappa2)

    and the aliasing error is the Fejer-kernel expression

        error_bound = (1/K) sum_{|k|<K} (1 - |k|/K) e(k a / q**kappa1),

    a real number in [0, 1].  The contract is
    |f_window(a) - approx| <= error_bound.
    """
    if K < 1:
        raise PreconditionError(f"K must be >= 1, got {K}")
    if not 0 <= kappa1 < kappa2:
        raise PreconditionError(f"need 0 <= kappa1 < kappa2, got ({kappa1}, {kappa2})")
    q = f.q
    lam = kappa2 - kappa1
    qlam = q**lam
    H = K * qlam - 1
    kernel = VaalerKernel(1.0 / qlam, H, shifted=True)
    hs = np.arange(-H, H + 1)
    coeffs = coeff_chi(kernel, hs)
    f_vals = build_table(f, lam)[np.mod(hs, qlam)]
    phases = np.exp(2j * np.pi * hs * (a % q**kappa2) / q**kappa2)
    approx = complex(qlam * np.sum(coeffs * f_vals * phases))

    ks = np.arange(1, K, dtype=np.float64)
    err = 1.0 + 2.0 * float(
        np.sum((1.0 - ks / K) * np.cos(2.0 * np.pi * ks * (a % q**kappa1) / q**kappa1))
    )
    return WindowApproximation(approx, err / K)


def window_approximation_defect(
    f: StronglyQMultiplicative, a: int, kappa1: int, kappa2: int, K: int
) -> tuple[float, float]:
    """(|window - approx|, error_bound) for one instance of truncated_f_H."""
    approx, bound = truncated_f_H(f, a, kappa1, kappa2, K)
    exact = eval_truncated(f, a, kappa1, kappa2)
    return abs(exact - approx), bound
