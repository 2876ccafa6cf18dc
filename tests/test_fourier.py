"""Fourier tables, spectral constants, and the L1/L2 estimate family."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import _digit_value_table, eval_F_direct

from sqdigits import fourier
from sqdigits.errors import CapacityError, DomainError, PreconditionError
from sqdigits.qmult import (
    StronglyQMultiplicative,
    make_constant_one,
    make_digit_exponential,
    thue_morse,
)

TM = thue_morse()


def e(x):
    return cmath.exp(2j * math.pi * x)


def test_table_thue_morse_lambda1():
    table = fourier.build_table(TM, 1)
    # F_1(t) = (1 - e(-t/2)) / 2 at integers: [0, 1]
    assert abs(table[0]) < 1e-15
    assert abs(table[1] - 1) < 1e-15


def test_table_constant_function():
    table = fourier.build_table(make_constant_one(3), 2)
    assert abs(table[0] - 1) < 1e-15
    assert np.max(np.abs(table[1:])) < 1e-12


def test_table_product_formula_entry():
    table = fourier.build_table(TM, 2)
    expected = fourier.eval_F1(TM, 0.5) * fourier.eval_F1(TM, 1.0)
    assert abs(table[1] - expected) < 1e-12


@pytest.mark.parametrize("q,gamma,lam_max", [(2, Fraction(1, 2), 6), (3, Fraction(1, 3), 6), (5, Fraction(1, 3), 4)])
def test_table_matches_direct_definition(q, gamma, lam_max):
    f = make_digit_exponential(q, gamma)
    for lam in range(lam_max + 1):
        table = fourier.build_table(f, lam)
        direct = np.array([eval_F_direct(f, lam, h) for h in range(q**lam)])
        assert np.max(np.abs(table - direct)) < 1e-10


def test_table_capacity_guard():
    with pytest.raises(CapacityError):
        fourier.build_table(TM, 30)


def test_table_invariants():
    for f in (TM, make_digit_exponential(3, Fraction(1, 3))):
        for lam in (3, 6):
            table = fourier.build_table(f, lam)
            assert abs(np.sum(np.abs(table) ** 2) - 1.0) < 1e-10
            assert np.max(np.abs(table)) <= 1.0 + 1e-12
            assert abs(fourier.eval_F(f, lam, 5 + f.q**lam) - table[5]) < 1e-12


def test_eval_F_examples():
    # t=0 is the mean of f over [0, q**lam)
    f = make_digit_exponential(3, Fraction(1, 3))
    vals = _digit_value_table(f, 3)
    assert abs(fourier.eval_F(f, 3, 0.0) - np.mean(vals)) < 1e-12
    # closed form at lam=1
    expected = (1 - e(-0.25)) / 2
    assert abs(fourier.eval_F(TM, 1, 0.5) - expected) < 1e-14
    # periodicity mod q**lam
    t = 0.6180339
    assert abs(fourier.eval_F(TM, 5, t + 2**5) - fourier.eval_F(TM, 5, t)) < 1e-12


def test_eval_F_matches_direct():
    f = StronglyQMultiplicative(3, (Fraction(0), Fraction(1, 7), Fraction(2, 5)))
    for lam in (1, 2, 4):
        for t in (0.0, 0.37, 12.9):
            assert abs(fourier.eval_F(f, lam, t) - eval_F_direct(f, lam, t)) < 1e-10


def test_constants_thue_morse():
    sc = fourier.compute_constants(TM)
    # max of 2 sin^2(u) cos(u) is 4/(3 sqrt 3): closed-form oracle for c
    c_expected = -math.log(4.0 / (3.0 * math.sqrt(3.0))) / (2.0 * math.log(2.0))
    assert abs(sc.c - c_expected) < 1e-8
    # max of |sin pi t| + |cos pi t| is sqrt 2 at t = 1/4: eta = 1/2 exactly
    assert abs(sc.eta - 0.5) < 1e-8
    assert 0 < sc.c <= sc.eta <= 0.5 + 1e-12


def test_constants_require_proper():
    with pytest.raises(DomainError):
        fourier.compute_constants(make_digit_exponential(3, Fraction(1, 2)))


def test_constants_order_and_bounds_sweep():
    # c <= eta plus the digit-sum closed-form bounds, prime q <= 13
    for q in (2, 3, 5, 7, 11, 13):
        for gamma in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)):
            if ((q - 1) * gamma).denominator == 1:
                continue
            f = make_digit_exponential(q, gamma)
            sc = fourier.compute_constants(f)
            assert 0 < sc.c <= sc.eta + 1e-12
            assert sc.eta <= 0.5 + 1e-12
            assert sc.c >= fourier.c_lower_bound_digit_sum(q, gamma) - 1e-9
            assert sc.eta <= fourier.eta_upper_bound_digit_sum(q) + 1e-9


def test_quadratic_mean_small_sweep():
    rng = np.random.default_rng(11)
    for q, gamma in ((2, Fraction(1, 2)), (3, Fraction(1, 3)), (5, Fraction(1, 3))):
        f = make_digit_exponential(q, gamma)
        # t = 0 puts gamma - (t+h)/q**l on an integer for q = 2, 3: there the
        # closed form is 0/0 and |F_1|^2 takes its limit 1
        for t in [0.0, *rng.random(5) * q]:
            sums = fourier.quadratic_mean(f, 6, float(t))
            assert max(abs(s - 1.0) for s in sums) < 1e-9


def test_quadratic_mean_fast_path_matches_generic(monkeypatch):
    # non-digit-exponential phases force the generic path; compare the
    # closed form on a digit exponential with the generic product rebuilt
    # by hand, level by level.  At t = 0 the rows b = q*gamma (mod q) of
    # every level meet the Dirichlet limit at k = 0.
    def generic_path_taken(*args):
        raise AssertionError("digit exponential left the closed-form path")

    for q, gamma, t in ((5, Fraction(1, 3), 0.31831), (2, Fraction(1, 2), 0.0), (3, Fraction(1, 3), 0.0)):
        f = make_digit_exponential(q, gamma)
        with monkeypatch.context() as mp:
            mp.setattr(fourier, "eval_F1", generic_path_taken)
            fast = fourier.quadratic_mean(f, 5, t)
        partial = np.ones(1)
        for level in range(5):
            a = np.arange(f.q ** (level + 1), dtype=np.float64)
            partial = np.tile(partial, f.q) * np.abs(fourier.eval_F1(f, (t + a) / f.q**level)) ** 2
            assert abs(fast[level] - float(partial.sum())) < 1e-11
        # correctly rounded reference for the summation itself
        assert abs(fast[-1] - math.fsum(partial)) < 1e-11


def test_quadratic_mean_sweep_memory():
    # each level's temporaries and cached tables are m = n/q long; with
    # n-long ones the peak of this sweep was 382 MiB
    fourier._trig_tables.cache_clear()
    f = make_digit_exponential(5, Fraction(1, 3))
    tracemalloc.start()
    try:
        sums = fourier.quadratic_mean(f, 10, 0.7071)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(abs(s - 1.0) for s in sums) < 1e-13
    assert peak <= 200 * 2**20


def test_quadratic_mean_near_dirichlet_poles():
    # gamma = 1/2 at q = 3 puts the closed form next to its 0/0 points: the
    # worst |S - 1| of such sweeps reaches about 3e-10
    f = make_digit_exponential(3, Fraction(1, 2))
    rng = np.random.default_rng(1004)
    for t in [0.0, 1.0, *(rng.random(6) * 3)]:
        sums = fourier.quadratic_mean(f, 10, float(t))
        assert max(abs(s - 1.0) for s in sums) < 1e-9


def test_quadratic_mean_generic_phases():
    f = StronglyQMultiplicative(3, (Fraction(0), Fraction(1, 7), Fraction(2, 5)))
    sums = fourier.quadratic_mean(f, 6, 0.123)
    assert max(abs(s - 1.0) for s in sums) < 1e-9


def test_product_formula_windows():
    rng = np.random.default_rng(5)
    for f in (TM, make_digit_exponential(3, Fraction(1, 3))):
        for _ in range(20):
            lam1 = int(rng.integers(1, 5))
            lam2 = int(rng.integers(1, 5))
            t = float(rng.random() * 100)
            lhs = fourier.eval_F(f, lam1 + lam2, t)
            rhs = fourier.eval_F(f, lam1, t / f.q**lam2) * fourier.eval_F(f, lam2, t)
            assert abs(lhs - rhs) < 1e-10


def test_sup_norm_decay():
    # max over the q**lam integer points <= q**c * q**(-c lam)
    for q, gamma, lam_max in ((2, Fraction(1, 2), 12), (3, Fraction(1, 3), 12), (5, Fraction(1, 3), 8)):
        f = make_digit_exponential(q, gamma)
        c = fourier.compute_constants(f).c
        for lam in range(1, lam_max + 1):
            table = fourier.build_table(f, lam)
            sup = float(np.max(np.abs(table)))
            assert sup <= q**c * q ** (-c * lam) + 1e-9


def test_l1_masked_sum():
    value, bound = fourier.l1_masked_sum(TM, 1, 0, 0, 0.0)
    assert abs(value - 1.0) < 1e-12  # |F_1(0)| + |F_1(1)| = 1
    assert abs(bound - math.sqrt(2.0)) < 1e-9
    # delta = lam collapses to a single term, bound = value
    value, bound = fourier.l1_masked_sum(TM, 4, 4, 7, 0.3)
    assert abs(value - bound) < 1e-12
    # full-window L1 never beats the Cauchy-Schwarz ceiling q**(lam/2)
    for lam in (2, 4, 8):
        value, bound = fourier.l1_masked_sum(TM, lam, 0, 0, 0.77)
        assert value <= 2 ** (lam / 2) + 1e-9
        assert value <= bound + 1e-9
    with pytest.raises(PreconditionError):
        fourier.l1_masked_sum(TM, 2, 3, 0, 0.0)


def test_digit_sum_decay_bound():
    value, bound = fourier.digit_sum_decay_bound(2, Fraction(1, 2), 3, 3, 0.0)
    assert value == 1.0 and bound >= math.exp(math.pi**2 / 48) - 1e-9
    value, bound = fourier.digit_sum_decay_bound(2, Fraction(1, 2), 0, 4, 0.0)
    assert value < 1e-12 and value <= bound
    rng = np.random.default_rng(9)
    for t in rng.random(200) * 3**6:
        value, bound = fourier.digit_sum_decay_bound(3, Fraction(1, 3), 0, 6, float(t))
        assert value <= bound + 1e-12


def test_almost_ap_l2():
    # A an exact power: the inner sum is a full quadratic mean
    value, bound = fourier.almost_ap_l2_sum(TM, 0, 6, 2.0, 0.44)
    assert value <= bound + 1e-9
    # alpha = 0 keeps the sum below the full unit mass
    value, bound = fourier.almost_ap_l2_sum(TM, 0, 6, 1.5, 0.0)
    assert value <= 1.0 + 1e-9
    value, bound = fourier.almost_ap_l2_sum(TM, 0, 8, 5.7, 0.3)
    assert value <= bound + 1e-9
    with pytest.raises(DomainError):
        fourier.almost_ap_l2_sum(TM, 0, 4, 0.5, 0.0)
    with pytest.raises(DomainError):
        fourier.almost_ap_l2_sum(TM, 0, 4, 16.0, 0.0)


def test_max_abs_F_at_a_coarse_grid():
    # at q = 8, lam = 5 the grid step is 0.2 and the grid's best point lies in
    # another lobe of |F_5| than its maximum 0.2606724..., at t ~ 5193.6617
    f = make_digit_exponential(8, Fraction(1, 5))
    sup = fourier.max_abs_F(f, 5)
    assert sup >= 0.2606724
    dense = max(  # step 1/64
        float(np.max(np.abs(fourier.eval_F(f, 5, start + np.arange(1 << 16) / 64.0))))
        for start in range(0, 8**5, 1 << 10)
    )
    assert sup >= dense - 1e-12


def test_large_sieve():
    value, bound = fourier.large_sieve_sum(TM, 0, 6, [0.37], 0.5)
    assert value <= 1.0 + 1e-12 < bound
    # nodes k/N with delta = 1/N recover the exact quadratic mean
    lam = 5
    N = 2**lam
    nodes = [k / N for k in range(N)]
    value, bound = fourier.large_sieve_sum(TM, 0, lam, nodes, 1.0 / N)
    assert abs(value - 1.0) < 1e-9
    assert bound == 2.0
    with pytest.raises(PreconditionError):
        fourier.large_sieve_sum(TM, 0, 4, [0.1, 0.1 + 1e-6], 0.01)
    with pytest.raises(PreconditionError):
        fourier.large_sieve_sum(TM, 0, 4, [0.1], 0.7)


def test_period_of_c_objective():
    # the maximized product |F_1(t) F_1(qt)| is q-periodic (asserted, not assumed)
    g = lambda t: abs(fourier.eval_F1(TM, t)) * abs(fourier.eval_F1(TM, 2 * t))
    for t in (0.0, 0.3, 1.7):
        assert abs(g(t) - g(t + 2)) < 1e-12
