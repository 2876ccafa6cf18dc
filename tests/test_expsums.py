"""Exponential-sum evaluators and the (exact, bound) pairs of their inequalities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import holds

from sqdigits import expsums as xs
from sqdigits.errors import DomainError


def test_geometric_examples():
    exact, bound = xs.geometric_sum(0, 4, 0.5)
    assert exact < 1e-12 and bound == 1.0
    exact, bound = xs.geometric_sum(0, 100, 0.0)
    assert abs(exact - 100.0) < 1e-9 and bound == 100.0  # equality at xi = 0
    r = xs.geometric_sum(0, 100, 1 / 7)
    assert r[0] <= 1.0 / math.sin(math.pi / 7) + 1e-12
    assert holds(r)


def test_geometric_random_sweep():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        L1 = int(rng.integers(-200, 200))
        L2 = L1 + int(rng.integers(0, 800))
        assert holds(xs.geometric_sum(L1, L2, float(rng.random())))


def test_min_sum():
    exact, _ = xs.min_sum(0, 1, 5.0, math.sqrt(2) / 2, 0.1)
    assert exact <= 5.0
    exact, bound = xs.min_sum(0, 1000, 50.0, 1 / math.sqrt(2), 0.0)
    assert math.isfinite(exact / bound)
    # ratio stays bounded by twice its first value over a doubling sweep
    pairs = [xs.min_sum(0, N, 50.0, 1 / math.sqrt(2), 0.0) for N in (100, 1000, 10000)]
    ratios = [exact / bound for exact, bound in pairs]
    assert max(ratios) <= 2.0 * ratios[0]
    with pytest.raises(DomainError):
        xs.min_sum(0, 10, 5.0, 3.0, 0.0)


def test_gauss_complete_examples():
    exact, bound = xs.gauss_complete(0, 0, 9)
    assert abs(exact - 9.0) < 1e-12 and abs(bound - 9.0 * math.sqrt(2)) < 1e-12
    exact, bound = xs.gauss_complete(1, 0, 4)
    assert abs(exact - 2.0 * math.sqrt(2)) < 1e-12
    assert abs(exact - bound) < 1e-12  # equality instance
    exact, bound = xs.gauss_complete(3, 1, 17)
    assert abs(exact - math.sqrt(17.0)) < 1e-9
    assert abs(bound - math.sqrt(34.0)) < 1e-12


def test_gauss_complete_exhaustive_small():
    for m in range(1, 25):
        for a in range(m):
            for b in range(m):
                assert holds(xs.gauss_complete(a, b, m))


def test_gauss_complete_large_modulus_against_python_ints():
    # a_red * n * n passes 2**63 near m = 2.1e6; the int64 path must reduce
    # n*n first to match the Python-int sum of the same terms (true sum 0:
    # m = 0 mod 4 and b odd)
    m = 2_100_000
    exact, _ = xs.gauss_complete(m - 1, 1, m)
    reference, _ = xs.gauss_incomplete(m - 1, 1, m, -1, m)
    assert exact < 1e-6 and abs(exact - reference) < 1e-6


def test_gauss_incomplete():
    assert xs.gauss_incomplete(3, 1, 7, 5, 0)[0] == 0.0
    exact, bound = xs.gauss_incomplete(1, 0, 4, 0, 4)
    assert abs(exact - 2 * math.sqrt(2)) < 1e-12
    assert abs(bound - (4 / 4 + 1 + (2 / math.pi) * math.log(8 / math.pi)) * math.sqrt(8)) < 1e-12
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(1, 65))
        r = xs.gauss_incomplete(
            int(rng.integers(0, m)),
            int(rng.integers(0, m)),
            m,
            int(rng.integers(0, 50)),
            int(rng.integers(0, 3 * m + 1)),
        )
        assert holds(r)


def test_weyl_quadratic():
    exact, bound = xs.weyl_quadratic(Fraction(1, 5), 0.0, 0.0, 0, 5, 1, 5)
    assert math.isfinite(exact / bound)
    exact, _ = xs.weyl_quadratic(Fraction(1, 5), 0.3, 0.7, 10, 1, 1, 5)
    assert abs(exact - 1.0) < 1e-12  # single term has modulus 1
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    exact, bound = xs.weyl_quadratic(golden, 0.0, 0.0, 0, 10**4, 13, 21)
    assert math.isfinite(exact / bound)
    with pytest.raises(DomainError):
        xs.weyl_quadratic(0.5, 0.0, 0.0, 0, 10, 1, 1)  # m = 1 < 2
    with pytest.raises(DomainError):
        xs.weyl_quadratic(0.5, 0.0, 0.0, 0, 10, 2, 4)  # gcd != 1
    with pytest.raises(DomainError):
        xs.weyl_quadratic(0.9, 0.0, 0.0, 0, 10, 1, 5)  # bad approximation


def test_gcd_average():
    assert xs.gcd_average(1, 37, 2.0) == (1.0, 1.0)
    exact, bound = xs.gcd_average(6, 6, 1.0)
    assert abs(exact - 2.5) < 1e-12 and bound == 4.0
    assert holds(xs.gcd_average(12, 100, 0.5))


def test_gcd_average_exhaustive():
    # every m <= 200 with the full prefix family A <= 500 in one pass per m
    for m in range(1, 201):
        gcds = np.gcd(np.arange(1, 501, dtype=np.int64), m).astype(np.float64)
        prefix_means = np.cumsum(gcds) / np.arange(1, 501)
        bound = xs.sigma(0.0, m)
        assert float(np.max(prefix_means)) <= bound + 1e-9
        # spot check through the public operation
        assert holds(xs.gcd_average(m, 500, 1.0))


def test_divisor_bounds():
    db = xs.divisor_bounds(7, 4, -1.0)
    assert db.tau_value == 5 and db.tau_lower == 5 and db.tau_upper == 2 * 4
    db = xs.divisor_bounds(6, 2, -1.0)
    assert db.tau_value == 9 and db.tau_lower == 9 and db.tau_upper == 16
    db = xs.divisor_bounds(2, 3, -1.0)
    assert abs(db.sigma_value - 1.875) < 1e-12 and db.sigma_value < db.sigma_bound == 2.0
    with pytest.raises(ValueError):
        xs.divisor_bounds(2, 3, 0.5)


def test_vdc_variant():
    z = np.ones(10, dtype=complex)
    lhs, rhs = xs.vdc_variant_check(z, 1, 1)
    assert abs(lhs - 100.0) < 1e-9 and abs(rhs - 100.0) < 1e-9  # equality at R = 1
    rng = np.random.default_rng(29)
    for _ in range(1000):
        n = int(rng.integers(1, 150))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs, rhs = xs.vdc_variant_check(z, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
    theta = 1 / math.sqrt(2)
    n = np.arange(1, 257)
    z = np.exp(2j * np.pi * theta * n * n)
    lhs, rhs = xs.vdc_variant_check(z, 1, 16)
    assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def test_bilinear_sum_trivial():
    a = np.ones(8)
    b = np.ones(16)
    s = xs.bilinear_quadratic_sum(a, b)
    assert abs(s - 128.0) < 1e-9
    with pytest.raises(ValueError):
        xs.bilinear_quadratic_sum(2.0 * a, b)


def test_bilinear_rational_phase_reduction():
    # exact residue arithmetic must agree with direct float evaluation at small size
    rng = np.random.default_rng(31)
    a = np.exp(2j * np.pi * rng.random(10))
    b = np.exp(2j * np.pi * rng.random(10))
    s_exact = xs.bilinear_quadratic_sum(a, b, xi4=Fraction(3, 101), xi1=Fraction(1, 7))
    m = np.arange(1, 11)
    phases = (3 / 101) * np.outer(m * m, m * m) + (1 / 7) * np.outer(m, m)
    s_float = np.sum(np.outer(a, b) * np.exp(2j * np.pi * phases))
    assert abs(s_exact - s_float) < 1e-6


def test_bilinear_bound_families():
    assert xs.bound_mn2(64, 64, Fraction(1, 2)) >= math.sqrt(0.5)
    with pytest.raises(DomainError):
        xs.bound_mn2(8, 8, 1)
    with pytest.raises(DomainError):
        xs.bound_xi2(8, 8, 2)
    with pytest.raises(DomainError):
        xs.bound_m2n2(8, 8, 0)

    rng = np.random.default_rng(37)
    for which, bound_fn, power in (
        ("xi3", xs.bound_mn2, 2),
        ("xi2", xs.bound_xi2, 2),
        ("xi4", xs.bound_m2n2, 4),
    ):
        ratios = []
        for size in (32, 64, 128, 256):
            a = np.exp(2j * np.pi * rng.random(size))
            b = np.exp(2j * np.pi * rng.random(size))
            xi = Fraction(1, 17) if which != "xi4" else Fraction(1, 101)
            s = xs.bilinear_quadratic_sum(a, b, **{which: xi})
            normalized = (abs(s) / (size * size)) ** power
            ratios.append(normalized / bound_fn(size, size, xi))
        # implicit-constant families: ratios bounded by twice the smallest-size value
        assert max(ratios) <= 2.0 * ratios[0]


def test_second_derivative_scaling():
    # theta large enough that the N-term of the bound dominates from N=64 on
    theta = 1.0 / (10.0 * math.sqrt(2.0))
    exact, bound = xs.second_derivative_report(theta, 64)
    C = exact / bound
    for N in (128, 256, 512, 1024, 2048, 4096):
        exact, bound = xs.second_derivative_report(theta, N)
        assert exact / bound <= 2.0 * C
    with pytest.raises(DomainError):
        xs.second_derivative_report(0.0, 16)
