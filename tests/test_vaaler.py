"""Vaaler kernels: coefficients, sandwich, convolutions, window detector."""

import math
from fractions import Fraction

import numpy as np
import oracles
import pytest

from sqdigits import vaaler
from sqdigits.errors import PreconditionError
from sqdigits.fourier import eval_F
from sqdigits.qmult import make_constant_one, make_digit_exponential, thue_morse

TM = thue_morse()


def test_coeff_chi_examples():
    k = vaaler.VaalerKernel(0.4, 9)
    assert vaaler.coeff_chi(k, 0) == 0.4
    assert vaaler.coeff_chi(k, 10) == 0
    assert vaaler.coeff_chi(k, -10) == 0
    half = vaaler.VaalerKernel(0.5, 7)
    for h in (2, 4, 6):
        assert abs(vaaler.coeff_chi(half, h)) < 1e-15  # sin(pi h alpha) = 0


def test_coeff_chi_majoration():
    # |chi_H-hat(h)| <= min(alpha, 1/(pi |h|))
    for alpha, H in ((0.3, 12), (1 / 7, 20)):
        k = vaaler.VaalerKernel(alpha, H)
        for h in range(-H, H + 1):
            bound = alpha if h == 0 else min(alpha, 1.0 / (math.pi * abs(h)))
            assert abs(vaaler.coeff_chi(k, h)) <= bound + 1e-12


def test_coeff_B_examples():
    k = vaaler.VaalerKernel(0.25, 8)
    assert abs(vaaler.coeff_B(k, 0) - 1 / 9) < 1e-15
    expected = (1 / 9) * (1 / 9) * math.cos(math.pi * 8 * 0.25)
    assert abs(vaaler.coeff_B(k, 8) - expected) < 1e-15
    assert vaaler.coeff_B(k, 9) == 0
    for h in range(-8, 9):
        assert abs(vaaler.coeff_B(k, h)) <= 1 / 9 + 1e-15


def test_coeff_arrays_match_scalars():
    # the vectorized formulas against the per-h scalar references, past degree
    # H, and the kernel values against per-x coefficient sums
    H = 11
    xs = np.array([-0.4, 0.0, 0.05, 0.37, 0.5, 0.62, 0.91, 1.3])
    for shifted in (False, True):
        k = vaaler.VaalerKernel(1 / 3, H, shifted=shifted)
        hs = np.arange(-H - 3, H + 4)
        chi_vec = vaaler.coeff_chi(k, hs)
        b_vec = vaaler.coeff_B(k, hs)
        for i, h in enumerate(hs):
            chi, b = vaaler.coeff_chi(k, int(h)), vaaler.coeff_B(k, int(h))
            assert type(chi) is complex and type(b) is complex
            assert chi == chi_vec[i] and b == b_vec[i]
            assert abs(chi - oracles.coeff_chi(k, int(h))) < 1e-14
            assert abs(b - oracles.coeff_B(k, int(h))) < 1e-14
        _, chi_h, b_h = vaaler.kernel_values(k, xs)
        for coeffs, values in ((chi_vec, chi_h), (b_vec, b_h)):
            for x, value in zip(xs, values):
                assert abs(value - np.sum(coeffs * np.exp(2j * np.pi * hs * x))) < 1e-12


def test_eval_kernel_indicator():
    # left-closed, right-open at both jumps, all cases in one array
    k = vaaler.VaalerKernel(0.5, 7)
    chi, _, _ = vaaler.kernel_values(k, np.array([0.0, 0.3, 0.25, -0.25]))
    assert chi.tolist() == [1.0, 0.0, 0.0, 1.0]
    shifted = vaaler.VaalerKernel(0.5, 7, shifted=True)
    chi, _, _ = vaaler.kernel_values(shifted, np.array([0.0, 0.49, 0.5]))
    assert chi.tolist() == [1.0, 1.0, 0.0]


def test_eval_kernel_B_matches_closed_form():
    # coefficient summation equals the two-term sin^2 closed form away from
    # its removable singularities
    alpha, H = 1 / 3, 11
    k = vaaler.VaalerKernel(alpha, H)
    xs = (0.05, 0.37, 0.62, 0.91)
    _, _, b_h = vaaler.kernel_values(k, np.array(xs))
    for x, value in zip(xs, b_h):
        closed = sum(
            math.sin(math.pi * (H + 1) * (x + s * alpha / 2)) ** 2
            / (2 * (H + 1) ** 2 * math.sin(math.pi * (x + s * alpha / 2)) ** 2)
            for s in (-1, +1)
        )
        assert abs(value - closed) < 1e-11


def test_eval_kernel_B_at_half_jump():
    # B(alpha/2) from coefficients equals the closed form's limit value:
    # 1/2 plus the non-singular second term
    alpha, H = 0.5, 7
    k = vaaler.VaalerKernel(alpha, H)
    value = vaaler.kernel_values(k, np.array([alpha / 2]))[2][0]
    second = math.sin(math.pi * (H + 1) * alpha) ** 2 / (
        2 * (H + 1) ** 2 * math.sin(math.pi * alpha) ** 2
    )
    assert abs(value - (0.5 + second)) < 1e-12


def test_kernel_validation():
    with pytest.raises(ValueError):
        vaaler.VaalerKernel(0.0, 5)
    with pytest.raises(ValueError):
        vaaler.VaalerKernel(0.5, 0)
    with pytest.raises(ValueError):
        vaaler.sandwich_defect(vaaler.VaalerKernel(0.5, 5), 0)


@pytest.mark.parametrize("alpha,H", [(0.5, 7), (1 / 3, 26)])
def test_sandwich_defect(alpha, H):
    for shifted in (False, True):
        k = vaaler.VaalerKernel(alpha, H, shifted=shifted)
        assert vaaler.sandwich_defect(k, 10**4) <= 1e-9


def test_aliased_sum():
    exact = vaaler.aliased_chi_sq_sum(2, 0)
    assert abs(exact.value - 0.25) < 1e-15  # all k != 0 terms vanish
    odd = vaaler.aliased_chi_sq_sum(2, 1)
    # classical series: sum 1/(pi^2 (2k+1)^2) over Z equals 1/4
    assert abs(odd.value - 0.25) <= odd.tail_bound
    five = vaaler.aliased_chi_sq_sum(5, 3)
    assert abs(five.value - 1 / 25) <= five.tail_bound
    with pytest.raises(ValueError):
        vaaler.aliased_chi_sq_sum(1, 0)


def _aliased_reference(U: int, a: int) -> float:
    """The per-element formula: a numpy sine of pi h / U at every h = k U + a."""
    alpha = 1.0 / U
    k_max = 10**6 // U
    h = np.arange(-k_max, k_max + 1, dtype=np.float64) * U + a
    vals = np.where(
        h == 0.0, alpha, np.sin(np.pi * h * alpha) / np.where(h == 0.0, 1.0, np.pi * h)
    )
    return float(np.sum(vals**2))


def test_aliased_sum_matches_per_element_sines():
    for U in range(2, 9):
        for a in range(-U, 2 * U):
            value = vaaler.aliased_chi_sq_sum(U, a).value
            assert abs(value - _aliased_reference(U, a)) <= 1e-16, (U, a)
    # beyond the truncation no h is 0, and every sine vanishes when U divides a
    assert vaaler.aliased_chi_sq_sum(2, 2 * 10**6).value == 0.0
    assert vaaler.aliased_chi_sq_sum(3, 6).value == 1 / 9


def _convolution_by_quadrature(coeffs1, coeffs2, hs, x):
    """(g1 conv g2)(x) through values on a uniform grid; exact for trig polys."""
    H = int(np.max(np.abs(hs)))
    n = 4 * H + 5
    grid = np.arange(n) / n
    phases = np.exp(2j * np.pi * np.outer(grid, hs))
    g1 = phases @ coeffs1
    g2 = phases @ coeffs2
    # conv(x) = (1/n) sum_t g1(x - t) g2(t): discrete orthogonality makes this exact
    shifted = np.exp(2j * np.pi * np.outer(x - grid, hs)) @ coeffs1
    return np.sum(shifted * g2) / n


def test_convolution_defects_against_quadrature_oracle():
    U, H, ell = 3, 8, 2
    k = vaaler.VaalerKernel(1 / U, H)
    hs = np.arange(-H - abs(ell), H + abs(ell) + 1)
    chi_c = vaaler.coeff_chi(k, hs)
    chi_shift = vaaler.coeff_chi(k, hs - ell)
    defect_series = 0.0
    for u in range(U):
        conv = _convolution_by_quadrature(chi_c, chi_shift, hs, u / U)
        exact = oracles.coeff_chi_star(1 / U, ell) if u == 0 else 0.0
        defect_series += abs(conv - exact)
    reported = vaaler.convolution_defects(U, H, ell).chiH_defect
    assert abs(defect_series - reported) < 1e-10


def test_convolution_defect_bounds():
    assert abs(vaaler.convolution_defects(2, 7, 0).chiB_sum - 1 / 8) < 1e-10
    assert vaaler.convolution_defects(4, 15, 0).BB_sum <= 1 / 16 + 1e-12
    d = vaaler.convolution_defects(3, 8, 2)
    assert d.chiH_defect <= 3 / 9 + 1e-12
    d0 = vaaler.convolution_defects(3, 8, 0)
    assert d0.chiH_defect <= 3 / 9 + 1e-12
    for U, H in ((2, 7), (3, 8), (4, 15), (5, 31)):
        d = vaaler.convolution_defects(U, H, 0)
        assert abs(d.chiB_sum - 1 / (H + 1)) < 1e-10
        assert d.BB_sum <= 1 / (H + 1) + 1e-12
    with pytest.raises(PreconditionError):
        vaaler.convolution_defects(9, 7, 0)


def test_chi_star_self_convolution_support():
    alpha = 0.25
    # triangular closed form vanishes exactly at ||x|| >= alpha; cross-check the
    # series representation sum |chi-hat|^2 e(hx) by truncation
    for x in (0.25, 0.3, 0.5, 0.74):
        assert vaaler.chi_star_self_convolution(alpha, x) == 0.0
    hs = np.arange(-4000, 4001)
    coeffs = vaaler._coeff_chi_star(alpha, hs)
    for x in (0.0, 0.1, 0.2, 0.3, 0.6):
        series = float(np.sum(coeffs**2 * np.exp(2j * np.pi * hs * x)).real)
        assert abs(series - vaaler.chi_star_self_convolution(alpha, x)) < 1e-4


def test_twisted_zero_value():
    # chi* conv (chi* e^ell)(0) is the chi* coefficient at ell
    alpha = 0.25
    ells = np.array([-3, 0, 1, 2, 5])
    values = vaaler._coeff_chi_star(alpha, ells)
    for ell, value in zip(ells, values):
        assert abs(value - oracles.coeff_chi_star(alpha, int(ell))) < 1e-15
        assert vaaler._coeff_chi_star(alpha, int(ell)) == value
    assert values[1] == alpha


def test_truncated_f_H_constant():
    f = make_constant_one(2)
    approx, bound = vaaler.truncated_f_H(f, 5, 0, 3, 2)
    assert abs(approx - 1.0) <= bound + 1e-9


def test_truncated_f_H_thue_morse_example():
    approx, bound = vaaler.truncated_f_H(TM, 13, 1, 3, 4)
    assert abs(approx - (-1.0)) <= bound + 1e-9
    assert bound <= 1.0 + 1e-12


def test_truncated_f_H_negative_argument():
    # the window detector is defined on all of Z
    for a in (-1, -100, -13):
        defect, bound = vaaler.window_approximation_defect(TM, a, 1, 4, 3)
        assert defect <= bound + 1e-9


def test_truncated_f_H_validation():
    with pytest.raises(PreconditionError):
        vaaler.truncated_f_H(TM, 5, 0, 3, 0)
    with pytest.raises(PreconditionError):
        vaaler.truncated_f_H(TM, 5, 3, 3, 2)


def test_truncated_f_H_function_space_oracle():
    # independent reconstruction: before Fourier inversion the detector is
    #   sum_u f(q**kappa1 u) chi_H(a/q**kappa2 - u/q**lam)
    # and the error term is q**lam sum_{|k|<K} B_H-hat(k q**lam) e(k a/q**kappa1);
    # both must match the coefficient-space implementation exactly
    from sqdigits.qmult import evaluate

    q, kappa1, kappa2, K = 2, 1, 4, 3
    lam = kappa2 - kappa1
    qlam = q**lam
    H = K * qlam - 1
    kernel = vaaler.VaalerKernel(1.0 / qlam, H, shifted=True)
    u = np.arange(qlam)
    f_u = np.array([evaluate(TM, q**kappa1 * int(v)) for v in u])
    for a in (0, 5, 13, 100, -7):
        _, chi_h, _ = vaaler.kernel_values(kernel, a / q**kappa2 - u / qlam)
        direct = np.sum(f_u * chi_h)
        approx, bound = vaaler.truncated_f_H(TM, a, kappa1, kappa2, K)
        assert abs(approx - direct) < 1e-9
        direct_bound = qlam * sum(
            (vaaler.coeff_B(kernel, k * qlam) * np.exp(2j * np.pi * k * a / q**kappa1)).real
            for k in range(-K + 1, K)
        )
        assert abs(bound - direct_bound) < 1e-10


def test_window_approximation_sweep_with_l1_l2_means():
    rng = np.random.default_rng(13)
    f3 = make_digit_exponential(3, Fraction(1, 3))
    for f in (TM, f3):
        q = f.q
        consts = 0
        for _ in range(150):
            lam = int(rng.integers(1, 5))
            kappa1 = int(rng.integers(0, 3))
            kappa2 = kappa1 + lam
            K = int(rng.integers(1, 6))
            a = int(rng.integers(0, q ** (kappa2 + 2)))
            defect, bound = vaaler.window_approximation_defect(f, a, kappa1, kappa2, K)
            assert defect <= bound + 1e-9
            assert bound <= 1.0 + 1e-12

            qlam = q**lam
            H = K * qlam - 1
            kernel = vaaler.VaalerKernel(1.0 / qlam, H)
            hs = np.arange(-H, H + 1)
            chi_sq = np.abs(vaaler.coeff_chi(kernel, hs)) ** 2
            chi_abs = np.abs(vaaler.coeff_chi(kernel, hs))
            t = float(rng.random() * qlam)
            f_abs = np.abs(eval_F(f, lam, t + hs.astype(np.float64)))
            # L2 mean against q**(-2 lam)
            assert float(np.sum(chi_sq * f_abs**2)) <= qlam**-2 + 1e-12
            # L1 mean against the log K factor times the full-window L1 mass
            full = float(np.sum(np.abs(eval_F(f, lam, t + np.arange(qlam, dtype=np.float64)))))
            lhs = float(np.sum(chi_abs * f_abs))
            rhs = (2 + 2 / math.pi + (2 / math.pi) * math.log(K)) / qlam * full
            assert lhs <= rhs + 1e-9
            consts += 1
        assert consts == 150
