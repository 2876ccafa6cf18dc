"""Carry-propagation mismatch counts against independent brute force."""

import math
from fractions import Fraction

import pytest

from sqdigits import carry
from sqdigits.carry import CarrySpec, count_mismatch, count_second_diff_mismatch
from sqdigits.errors import CapacityError
from sqdigits.qmult import StronglyQMultiplicative, make_digit_exponential, thue_morse

TM = thue_morse()


def _brute_single(q, lam, m, r, nu, gamma_num, gamma_den):
    """Independent enumerator: compare truncated and full phase differences
    via raw digit strings, never through the carry module."""

    def digits(x):
        out = []
        while x:
            x, b = divmod(x, q)
            out.append(b)
        return out

    def phase(x):
        return sum(gamma_num * b for b in digits(x)) % gamma_den

    def phase_low(x):
        return sum(gamma_num * b for b in digits(x)[:lam]) % gamma_den

    count = 0
    for n in range(q ** (nu - 1), q**nu):
        a, b = m * m * n * n, m * m * (n + r) * (n + r)
        if (phase_low(b) - phase_low(a)) % gamma_den != (phase(b) - phase(a)) % gamma_den:
            count += 1
    return count


def _brute_alternating(q, phases, kappa, lam, nu, terms):
    """Independent enumerator for any alternating sum: count n whose sum over
    (sign, c, d) in terms of window-[kappa, lam) phases of c (n+d)^2 differs
    mod 1 from the same sum of full phases, from raw digit strings.  Fraction
    phases compare exactly (their gaps are far above the tolerance)."""

    def digits(x):
        out = []
        while x:
            x, b = divmod(x, q)
            out.append(b)
        return out

    count = 0
    for n in range(q ** (nu - 1), q**nu):
        window = full = 0
        for sign, c, d in terms:
            ds = digits(c * (n + d) * (n + d))
            window += sign * sum(phases[b] for b in ds[kappa:lam])
            full += sign * sum(phases[b] for b in ds)
        gap = (window - full) % 1
        if min(gap, 1 - gap) > 1e-9:
            count += 1
    return count


def _brute_second_diff(spec, phases, kappa, s):
    m2, ms2, r = spec.m**2, (spec.m + s * spec.q**kappa) ** 2, spec.r
    terms = ((1, ms2, r), (-1, m2, r), (-1, ms2, 0), (1, m2, 0))
    return _brute_alternating(spec.q, phases, kappa, spec.lam, spec.nu, terms)


def test_spec_validation():
    with pytest.raises(ValueError):
        CarrySpec(q=2, mu=3, nu=2, rho=1, rho_tilde=3, m=5, r=1)  # lambda >= 2mu+2nu
    with pytest.raises(ValueError):
        CarrySpec(q=2, mu=3, nu=6, rho=1, rho_tilde=1, m=9, r=1)  # m out of range
    with pytest.raises(ValueError):
        CarrySpec(q=2, mu=3, nu=6, rho=-1, rho_tilde=1, m=5, r=1)
    with pytest.raises(CapacityError):
        CarrySpec(q=2, mu=1, nu=27, rho=0, rho_tilde=0, m=1, r=1)  # q**nu > TYPE_SUM_CAP


def test_high_part_cap():
    # high parts of 2**64 or more are refused before any n is enumerated;
    # this r puts only the top end of the n-range there (m**2 = 25, lambda = 14)
    top_end = CarrySpec(q=2, mu=3, nu=6, rho=1, rho_tilde=1, m=5, r=math.isqrt(2**78 // 25) - 40)
    with pytest.raises(CapacityError):
        count_mismatch(top_end, TM)
    # (1 + 2**25)^2 (n+1)^2 // 2**29 reaches 2**73 at the top of a 2**25-wide n-range
    wide = CarrySpec(q=2, mu=1, nu=26, rho=1, rho_tilde=0, m=1, r=1)
    with pytest.raises(CapacityError):
        count_second_diff_mismatch(wide, TM, kappa=25, s=1)


def test_r_zero_vanishes():
    spec = CarrySpec(q=2, mu=3, nu=6, rho=1, rho_tilde=1, m=5, r=0)
    assert count_mismatch(spec, TM) == 0


def test_small_instance_against_brute_force():
    spec = CarrySpec(q=2, mu=3, nu=6, rho=1, rho_tilde=1, m=5, r=1)
    count = count_mismatch(spec, TM)
    assert count == _brute_single(2, spec.lam, 5, 1, 6, 1, 2)
    assert count == 3  # frozen from the enumerator above


def test_brute_force_agreement_sweep():
    for q, gamma in ((2, Fraction(1, 2)), (3, Fraction(1, 3))):
        f = make_digit_exponential(q, gamma)
        for m in (q**2, q**2 + 1):
            for r in (1, 2):
                spec = CarrySpec(q=q, mu=3, nu=4, rho=1, rho_tilde=1, m=m, r=r)
                expected = _brute_single(
                    q, spec.lam, m, r, 4, gamma.numerator, gamma.denominator
                )
                assert count_mismatch(spec, f) == expected


def test_monotone_in_rho_tilde():
    for m in (4, 5, 6, 7):
        for r in (1, 2, 3):
            counts = [
                count_mismatch(
                    CarrySpec(q=2, mu=3, nu=8, rho=1, rho_tilde=rt, m=m, r=r), TM
                )
                for rt in (1, 2, 3)
            ]
            assert counts[0] >= counts[1] >= counts[2]


def test_float_phases_match_exact():
    exact = make_digit_exponential(2, Fraction(1, 2))
    floating = StronglyQMultiplicative(2, (0.0, 0.5))
    spec = CarrySpec(q=2, mu=3, nu=6, rho=1, rho_tilde=1, m=5, r=1)
    assert count_mismatch(spec, exact) == count_mismatch(spec, floating)
    # with phases 0.3 and 0.6, sums equal mod 1 can differ by a rounding error
    # below zero, which wraps to just under 1
    exact = make_digit_exponential(3, Fraction(3, 10))
    floating = StronglyQMultiplicative(3, (0.0, 0.3, 0.6))
    spec = CarrySpec(q=3, mu=3, nu=5, rho=1, rho_tilde=1, m=10, r=2)
    assert count_mismatch(spec, exact) == count_mismatch(spec, floating)
    for kappa, s in ((0, 1), (2, 2)):
        expected = count_second_diff_mismatch(spec, exact, kappa, s)
        assert count_second_diff_mismatch(spec, floating, kappa, s) == expected
    # irrational float phases at q = 3 against the brute force at tolerance
    phases = (0.0, math.sqrt(2) - 1, math.pi - 3)
    irrational = StronglyQMultiplicative(3, phases)
    m2 = spec.m**2
    single = ((1, m2, spec.r), (-1, m2, 0))
    expected = _brute_alternating(3, phases, 0, spec.lam, spec.nu, single)
    assert count_mismatch(spec, irrational) == expected > 0
    for kappa, s in ((0, 1), (2, 2)):
        expected = _brute_second_diff(spec, phases, kappa, s)
        assert count_second_diff_mismatch(spec, irrational, kappa, s) == expected


def test_second_diff_union_bound():
    # a four-term mismatch forces a mismatch in one of the two single pairs,
    # computed by the independent enumerator (m + s q**kappa may leave the
    # mu-digit range; the count stays well-defined)
    spec = CarrySpec(q=2, mu=3, nu=6, rho=1, rho_tilde=1, m=5, r=1)
    for kappa, s in ((0, 1), (1, 1), (2, 1), (4, 1)):
        count = count_second_diff_mismatch(spec, TM, kappa=kappa, s=s)
        m_shifted = 5 + s * 2**kappa
        single_m = _brute_single(2, spec.lam, 5, 1, 6, 1, 2)
        single_ms = _brute_single(2, spec.lam, m_shifted, 1, 6, 1, 2)
        assert count <= 2 * (single_m + single_ms)


def test_second_diff_against_brute_force(monkeypatch):
    # the four-term count equals an independent digit-string enumeration,
    # also when the n-range spans many blocks of 7
    cases = (
        (TM, CarrySpec(q=2, mu=3, nu=8, rho=2, rho_tilde=1, m=5, r=1)),
        (
            make_digit_exponential(3, Fraction(1, 3)),
            CarrySpec(q=3, mu=3, nu=5, rho=1, rho_tilde=1, m=10, r=2),
        ),
    )
    for f, spec in cases:
        shifts = ((0, 1), (1, spec.q - 1), (2, 1), (spec.nu - spec.rho, spec.q**spec.rho - 1))
        expected = [_brute_second_diff(spec, f.phases, kappa, s) for kappa, s in shifts]
        assert sum(expected) > 0
        for block in (carry.KERNEL_BLOCK, 7):
            monkeypatch.setattr(carry, "KERNEL_BLOCK", block)
            counts = [count_second_diff_mismatch(spec, f, kappa=k, s=s) for k, s in shifts]
            assert counts == expected


def test_second_diff_validation():
    spec = CarrySpec(q=2, mu=3, nu=6, rho=1, rho_tilde=1, m=5, r=1)
    with pytest.raises(ValueError):
        count_second_diff_mismatch(spec, TM, kappa=6, s=1)  # kappa > nu - rho
    with pytest.raises(ValueError):
        count_second_diff_mismatch(spec, TM, kappa=0, s=2)  # s >= q**rho


def test_second_diff_scaling_family():
    # same q**(nu - rho_tilde) ceiling as the single-difference count
    base_ratio = None
    for nu in (6, 8, 10):
        spec = CarrySpec(q=2, mu=3, nu=nu, rho=1, rho_tilde=1, m=5, r=1)
        count = count_second_diff_mismatch(spec, TM, kappa=1, s=1)
        ratio = count / 2 ** (nu - 1)
        if base_ratio is None:
            base_ratio = max(ratio, 1e-9)
        assert ratio <= 2.0 * base_ratio + 1.0
