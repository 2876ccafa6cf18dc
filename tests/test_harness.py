"""Harness experiments: Lambda sums, equidistribution, type sums, plans."""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import mangoldt

from sqdigits import harness
from sqdigits.errors import CapacityError, PreconditionError
from sqdigits.qmult import (
    StronglyQMultiplicative,
    evaluate,
    frac,
    make_constant_one,
    make_digit_exponential,
    phase_of,
    thue_morse,
)
from sqdigits.sieve import SEGMENT_SIZE, prime_arrays

TM = thue_morse()
ONE = make_constant_one(2)


def _psi(x: int) -> float:
    """Chebyshev psi(x) by summing the von Mangoldt oracle over n <= x."""
    return sum(mangoldt(n) for n in range(1, x + 1))


def _g(f: StronglyQMultiplicative, n: np.ndarray, theta: float) -> np.ndarray:
    """f(n^2) e(theta n) written out as the exp of phase_array plus the reduced
    twist: the reference for the row blocks and Lambda sums, whichever way
    _twisted_square evaluates them."""
    phases = harness.phase_array(f, n * n)
    theta = math.fmod(theta, 1.0)
    if theta != 0.0:
        phases += frac(theta * n.astype(np.float64))
    return np.exp(2j * np.pi * phases)


def _kernel_inputs(q: int, rng: np.random.Generator, size: int = 300) -> np.ndarray:
    """size random values plus the edges of the q**k-entry digit table and of uint64."""
    k = 1
    while q ** (k + 1) <= harness.DIGIT_TABLE_CAP:
        k += 1
    edges = [0, 1, q - 1, q, q**k - 1, q**k, q**k + 1, q ** (2 * k), 2**64 - 1]
    edges = np.array([e for e in edges if e < 2**64], dtype=np.uint64)
    return np.concatenate([edges, rng.integers(0, 2**63, size=size, dtype=np.uint64) * 2 + 1])


def test_digit_sums_array_matches_scalar():
    from sqdigits.digits import digit_sum

    rng = np.random.default_rng(2)
    v = rng.integers(0, 2**60, size=2000).astype(np.uint64)
    for q in (2, 3, 10):
        bulk = harness.digit_sums_array(v, q)
        for x, s in zip(v[:100], bulk[:100]):
            assert int(s) == digit_sum(int(x), q)
    for q in (2, 3, 5, 10, 2**17):
        v = _kernel_inputs(q, rng)
        bulk = harness.digit_sums_array(v, q)
        assert bulk.dtype == np.uint64
        assert [int(s) for s in bulk] == [digit_sum(int(x), q) for x in v]
        assert harness.digit_sums_array(np.array([], dtype=np.uint64), q).shape == (0,)
    # more values than one kernel block, in a 2-d layout
    v = rng.integers(0, 2**40, size=(3, harness.KERNEL_BLOCK)).astype(np.uint64)
    bulk = harness.digit_sums_array(v, 3)
    assert bulk.shape == v.shape
    assert all(int(bulk[i, j]) == digit_sum(int(v[i, j]), 3) for i, j in ((0, 0), (1, 5), (2, -1)))


def test_phase_array_matches_evaluate():
    f = make_digit_exponential(3, Fraction(1, 3))
    rng = np.random.default_rng(8)
    v = rng.integers(0, 2**50, size=500).astype(np.uint64)
    vals = np.exp(2j * np.pi * harness.phase_array(f, v))
    for x, z in zip(v[:100], vals[:100]):
        assert abs(z - evaluate(f, int(x))) < 1e-9
    rational = [
        make_digit_exponential(2, Fraction(1, 2)),
        make_digit_exponential(3, Fraction(1, 3)),
        make_digit_exponential(5, Fraction(2, 7)),
        make_digit_exponential(10, Fraction(3, 11)),
        make_digit_exponential(2**17, Fraction(1, 5)),
    ]
    for f in rational:
        # phase_of costs O(q) per call, so the largest base gets the edges only
        v = _kernel_inputs(f.q, rng, 0 if f.q > harness.DIGIT_TABLE_CAP else 300)
        phases = harness.phase_array(f, v)
        exact = [phase_of(f, int(x)) for x in v]
        denom = math.lcm(*(p.denominator for p in f.phases))
        # exact numerators, and the one rounding of num/D they end in
        assert np.rint(phases * denom).astype(np.int64).tolist() == [int(p * denom) for p in exact]
        assert phases.tolist() == [float(p) for p in exact]
        assert harness.phase_array(f, np.array([], dtype=np.uint64)).shape == (0,)
    # float phases, and a common denominator too large for int64 numerator sums:
    # int64 sums of numerators near D would wrap, and with 2**64 mod D about
    # 2D/3 every wrap would move the phase by about 1/3
    big = 3 * 2**61 + 1
    for f in (
        make_digit_exponential(3, 0.1234567),
        StronglyQMultiplicative(3, (Fraction(0), Fraction(big - 1, big), Fraction(big - 2, big))),
    ):
        v = _kernel_inputs(f.q, rng)
        phases = harness.phase_array(f, v)
        for x, p in zip(v, phases):
            d = abs(p - float(phase_of(f, int(x))))
            assert min(d, 1 - d) < 1e-12


def test_twisted_square_gather_is_the_exp_bitwise():
    # untwisted exact phases over D <= DIGIT_TABLE_CAP come from the table of
    # D roots of unity; every entry must be the exp of the same float num/D
    fs = [
        make_digit_exponential(2, Fraction(1, 2)),
        make_digit_exponential(3, Fraction(1, 3)),
        make_digit_exponential(5, Fraction(2, 7)),
        make_digit_exponential(10, Fraction(3, 11)),
        make_constant_one(3),
        make_digit_exponential(2, Fraction(12345, 65536)),  # the largest gathered D
        make_digit_exponential(3, Fraction(1, 65537)),  # D above the cap: exp
        make_digit_exponential(3, 0.3721),  # float phases: exp
    ]
    assert [harness._phase_table(f)[2] for f in fs] == [2, 3, 7, 11, 1, 65536, 65537, 1.0]
    rng = np.random.default_rng(12)
    for f in fs:
        for length in (0, 1, 7, harness.KERNEL_BLOCK + 3):
            n = rng.integers(0, 2**32, size=length, dtype=np.uint64)
            expected = np.exp(2j * np.pi * harness.phase_array(f, n * n)).tobytes()
            for theta in (0.0, -0.0, 1.0, -3.0):  # all reduce to a zero twist
                assert harness._twisted_square(f, n, theta).tobytes() == expected


def test_equidist_hand_case():
    rep = harness.equidist_counts(10, 2, 2)
    # p = 2,3,5,7; s_2(p^2) = 1,2,3,3 -> one even, three odd
    assert rep.counts == (1, 3)
    assert rep.pi_x == 4
    assert rep.coprime_to_q_minus_1


def test_equidist_partition_and_flags():
    rep = harness.equidist_counts(10**5, 3, 5)
    assert sum(rep.counts) == rep.pi_x == 9592
    assert rep.coprime_to_q_minus_1  # gcd(5, 2) = 1
    rep = harness.equidist_counts(1000, 3, 2)
    assert not rep.coprime_to_q_minus_1  # gcd(2, 2) = 2
    with pytest.raises(ValueError):
        harness.equidist_counts(100, 1, 2)
    assert len(harness.equidist_counts(100, 2, harness.EQUIDIST_BIN_CAP).counts) == harness.EQUIDIST_BIN_CAP
    with pytest.raises(CapacityError):
        harness.equidist_counts(100, 2, harness.EQUIDIST_BIN_CAP + 1)


def test_equidist_reproducible():
    a = harness.equidist_counts(10**5, 2, 3)
    b = harness.equidist_counts(10**5, 2, 3)
    assert a == b


def test_lambda_sum_is_psi_for_constant_f():
    s = harness.lambda_weighted_sum(10**4, ONE, 0.0)
    assert abs(s.real - _psi(10**4)) < 1e-6
    assert abs(s.imag) < 1e-9


def test_lambda_sum_brute_force_x100():
    # q = 3 up to x = 3**6 takes prime powers to 2**9 and to x itself
    for f, x in ((TM, 100), (make_digit_exponential(3, Fraction(1, 3)), 3**6)):
        for theta in (0.0, 0.37):
            brute = sum(
                mangoldt(n) * evaluate(f, n * n) * np.exp(2j * np.pi * theta * n)
                for n in range(1, x + 1)
            )
            fast = harness.lambda_weighted_sum(x, f, theta)
            assert abs(brute - fast) < 1e-9


def test_lambda_sum_reduces_theta_mod_1():
    # theta * n at theta = 2**40 + 3/8 would keep none of the digits of the phase
    at_3_8 = harness.lambda_weighted_sum(10**5, TM, 0.375)
    assert harness.lambda_weighted_sum(10**5, TM, 2**40 + 0.375) == at_3_8
    assert harness.lambda_weighted_sum(10**5, TM, -(2**40) - 0.625) == at_3_8


def test_lambda_sum_cap():
    with pytest.raises(CapacityError):
        harness.lambda_weighted_sum(10**9, TM, 0.0)


def _one_x_sum(x, f, theta):
    """The Lambda sum over a prime stream up to x alone: the loop the shared
    sweep of decay_fit and vaughan_probe must reproduce bit for bit."""
    total = 0.0 + 0.0j
    for arr in prime_arrays(x):
        for start in range(0, len(arr), harness.KERNEL_BLOCK):
            p = arr[start : start + harness.KERNEL_BLOCK]
            g = _g(f, p.astype(np.uint64), theta)
            total += complex(np.sum(np.log(p.astype(np.float64)) * g))
    for arr in prime_arrays(math.isqrt(x)):
        p = arr.astype(np.uint64)
        logp, pk = np.log(arr.astype(np.float64)), p * p
        while p.size:
            total += complex(np.sum(logp * _g(f, pk, theta)))
            keep = pk <= x // p
            p, logp, pk = p[keep], logp[keep], pk[keep] * p[keep]
    return total


def test_decay_fit_is_one_sweep_of_one_x_sums(monkeypatch):
    # a cut inside a KERNEL_BLOCK, a prime, and the first value of the second segment
    xs = [500_000, 1_000_003, 3 + 2 * SEGMENT_SIZE]
    theta = 0.3721
    expected = [_one_x_sum(x, TM, theta) for x in xs]
    assert [harness.lambda_weighted_sum(x, TM, theta) for x in xs] == expected
    streams = []

    def counted(x):
        streams.append(x)
        return prime_arrays(x)

    monkeypatch.setattr(harness, "prime_arrays", counted)
    fit = harness.decay_fit(xs, TM, theta)
    assert fit.values == tuple(abs(s) / x for s, x in zip(expected, xs))
    assert [x for x in streams if x > math.isqrt(xs[-1])] == [xs[-1]]  # one stream, plus the tails


def test_vaughan_lambda_sum_is_two_call_difference():
    x, q, theta = 10**5, 3, 0.3
    vp = harness.vaughan_probe(x, q, TM, theta)
    assert vp.lambda_sum == _one_x_sum(x, TM, theta) - _one_x_sum(x // q, TM, theta)


def test_remainder_equals_numpy_mod():
    rng = np.random.default_rng(10)
    signed = np.concatenate([rng.integers(-(2**62), 2**62, size=1000), [-(2**63), 2**63 - 1, -1, 0]])
    for d in (1, 2, 7, 2**56 + 3):
        assert np.array_equal(harness._remainder(signed, d), signed % d)
    unsigned = np.concatenate(
        [rng.integers(0, 2**64 - 1, size=1000, dtype=np.uint64, endpoint=True),
         np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)]
    )
    for d in (2, 5, 2**16, 2**63 + 1):
        assert np.array_equal(harness._remainder(unsigned, np.uint64(d)), unsigned % np.uint64(d))
    floats = np.concatenate([rng.normal(0, 1e6, size=1000), [-3.0, -0.0, 4.0, -1e-300, 2.0**60]])
    assert harness._remainder(floats, 1.0).tobytes() == (floats % 1.0).tobytes()


def test_decay_trend_small():
    v4 = abs(harness.lambda_weighted_sum(10**4, TM, 0.0)) / 10**4
    v6 = abs(harness.lambda_weighted_sum(10**6, TM, 0.0)) / 10**6
    assert v6 < v4


def test_decay_fit():
    fit = harness.decay_fit([10**3, 10**4, 10**5], TM, 0.0)
    assert fit.fitted_exponent < 0
    fit_const = harness.decay_fit([10**3, 10**4, 10**5], ONE, 0.0)
    assert abs(fit_const.fitted_exponent) < 0.05  # psi(x)/x -> 1, no saving
    with pytest.raises(PreconditionError):
        harness.decay_fit([10**3, 10**4], TM, 0.0)
    with pytest.raises(PreconditionError):
        harness.decay_fit([10**4, 10**3, 10**5], TM, 0.0)


def test_type2_S20_rectangle_count():
    a = np.ones(4, dtype=complex)
    b = np.ones(2**9, dtype=complex)
    s, _, _ = harness.type_sums(3, 10, 2, ONE, 0.0, a, b)
    assert abs(s - 4 * 2**9) < 1e-9


def test_type2_S20_validation():
    a = np.ones(4, dtype=complex)
    b = np.ones(2**9, dtype=complex)
    with pytest.raises(ValueError):
        harness.type_sums(3, 10, 2, ONE, 0.0, 2 * a, b)
    with pytest.raises(ValueError):
        harness.type_sums(3, 10, 2, ONE, 0.0, a[:-1], b)
    with pytest.raises(CapacityError):
        harness.type_sums(14, 14, 2, ONE, 0.0, a, b)


def test_type2_S20_matches_direct_loop():
    rng = np.random.default_rng(21)
    a = np.exp(2j * np.pi * rng.random(2))
    b = np.exp(2j * np.pi * rng.random(4))
    theta = 0.21
    s, _, _ = harness.type_sums(2, 3, 2, TM, theta, a, b)
    direct = 0.0 + 0.0j
    for i, m in enumerate(range(2, 4)):
        for j, n in enumerate(range(4, 8)):
            direct += (
                a[i]
                * b[j]
                * evaluate(TM, (m * n) ** 2)
                * np.exp(2j * np.pi * theta * m * n)
            )
    assert abs(s - direct) < 1e-9


def _unit_coefficients(q, mu, nu):
    rows, cols = harness.rectangle_shape(q, mu, nu)
    return np.ones(rows), np.ones(cols)


def test_type1_SI():
    _, si, _ = harness.type_sums(3, 6, 2, ONE, 0.0, *_unit_coefficients(2, 3, 6))
    assert abs(si - 4 * 32) < 1e-9
    # the maximum over suffix intervals dominates the full-interval value per m
    _, plain, maxed = harness.type_sums(3, 8, 2, TM, 0.3, *_unit_coefficients(2, 3, 8))
    assert maxed >= plain - 1e-12


def test_type1_SI_maximize_brute_force():
    # exact scan over suffix intervals equals a brute-force maximum
    q, mu, nu, theta = 2, 2, 4, 0.17
    total = 0.0
    for m in range(2, 4):
        best = 0.0
        for t in range(8, 17):
            s = sum(
                evaluate(TM, (m * n) ** 2) * np.exp(2j * np.pi * theta * m * n)
                for n in range(t, 16)
            )
            best = max(best, abs(s))
        total += best
    _, _, si_max = harness.type_sums(mu, nu, q, TM, theta, *_unit_coefficients(q, mu, nu))
    assert abs(si_max - total) < 1e-9


def test_type2_plan_synthetic():
    plan = harness.type2_plan(10**5, 4 * 10**5, c=1 / 2000, eta=1 / 2000)
    assert plan.rho3 == 6400
    assert plan.rho == 3200
    assert plan.rho1 == plan.rho2 == 12800
    assert plan.rho5 == 64000
    assert plan.rho_tilde == 50
    assert not plan.rejected and plan.violation is None
    assert not plan.out_of_regime
    assert plan.lam == 10**5 + 4 * 10**5 + 2 * 3200 + 50
    assert plan.kappa1 == 10**5 - 3200
    assert plan.kappa2 == 2 * 10**5 + 4 * 10**5 + 3200 + 50
    assert plan.rho4 == min((6400 - 50) / 4, (10**5 - 3200 - 50 - 12800) / 6, 10**5 / 4)


def test_type2_plan_rejections():
    plan = harness.type2_plan(100, 400, c=1e-6, eta=1e-6)
    assert plan.rejected and plan.violation == "rho must be positive"  # rho3 = 0
    tm_plan = harness.type2_plan(8, 14, c=0.1887, eta=0.5)
    assert tm_plan.out_of_regime
    assert tm_plan.rejected  # rho = 32*... far beyond mu/8


def test_type1_rho():
    assert harness.type1_rho(10**5, c=1 / 2000, eta=1 / 2000) == 40
    assert harness.type1_rho(10**4, c=0.0, eta=1 / 2000) == 0
    # out-of-regime eta skips the nu/20 assertion
    assert harness.type1_rho(100, c=0.4, eta=0.5) == math.floor(80 / 1.5)


def test_vaughan_probe_constant_sanity():
    x = 10**4
    vp = harness.vaughan_probe(x, 2, ONE, 0.0)
    expected = _psi(x) - _psi(x // 2)
    assert abs(vp.lambda_sum - expected) < 1e-6


def test_vaughan_probe_structure():
    vp = harness.vaughan_probe(10**4, 2, TM, 0.0)
    # alignment history is monotone non-decreasing
    hist = vp.type2_alignment_history
    assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
    # the aligned value never exceeds the trivial pair-count bound
    assert vp.type2_max <= vp.type2_pair_count + 1e-9
    assert vp.type1_max > 0
    # independent Lambda-sum cross-check
    brute = sum(
        mangoldt(n) * evaluate(TM, n * n) for n in range(10**4 // 2 + 1, 10**4 + 1)
    )
    assert abs(vp.lambda_sum - brute) < 1e-8


def test_vaughan_probe_type1_brute_force():
    # M = q: recompute the type I term for every t cut point directly
    x, q = 400, 2
    g = lambda n: evaluate(TM, n * n)
    total = 0.0
    for m in range(2, 3):
        n_lo, n_hi = x // (q * m), x // m
        best = 0.0
        for t in range(n_lo, n_hi + 1):
            s = sum(g(m * n) for n in range(t + 1, n_hi + 1))
            best = max(best, abs(s))
        total += best
    vp = harness.vaughan_probe(x, q, TM, 0.0)
    assert vp.type1_argmax_M >= q
    probe_at_q = harness._suffix_max_sum(_vaughan_block(x, q, q, TM, 0.0))
    assert abs(probe_at_q - total) < 1e-9


def _vaughan_block(x, q, M, f, theta):
    """The probe's row block at one q-adic M: x/(qm) < n <= x/m for
    M/q < m <= min(M, x), sliced from its table of g(k) at x/q < k <= x."""
    k0 = x // q + 1
    g = harness._twisted_square(f, np.arange(k0, x + 1, dtype=np.uint64), theta)
    m = np.arange(M // q + 1, min(M, x) + 1, dtype=np.int64)
    return harness._strided_rows(g, k0, m, x // (q * m) + 1, x // m - x // (q * m))


def _vaughan_block_per_row(x, q, M, f, theta):
    """The probe's row block built one m at a time: one kernel call per row."""
    rows = []
    for m in range(M // q + 1, M + 1):
        n_lo, n_hi = x // (q * m), x // m  # x/(qm) < n <= x/m
        if n_hi > n_lo:
            n = np.arange(n_lo + 1, n_hi + 1, dtype=np.uint64)
            rows.append((n_lo + 1, _g(f, np.uint64(m) * n, theta)))
    n_min = min(start for start, _ in rows)
    n_max = max(start + len(g) for start, g in rows)
    dense = np.zeros((len(rows), n_max - n_min), dtype=np.complex128)
    for i, (start, g) in enumerate(rows):
        dense[i, start - n_min : start - n_min + len(g)] = g
    return dense


def _rectangle_in_7_pair_calls(monkeypatch, m, n, f, theta):
    """_rectangle(m, n, f, theta) with KERNEL_BLOCK patched to 7, and the
    length of each _twisted_square call it made."""
    calls = []
    twisted_square = harness._twisted_square

    def counting(f, n, theta):
        calls.append(len(n))
        return twisted_square(f, n, theta)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "KERNEL_BLOCK", 7)
        patch.setattr(harness, "_twisted_square", counting)
        return harness._rectangle(m, n, f, theta), calls


def test_vaughan_block_matches_per_row_reference():
    cases = [
        (200, 2, TM, 0.0),
        (200, 2, make_digit_exponential(2, Fraction(1, 3)), 0.37),
        (50, 3, make_digit_exponential(3, Fraction(1, 3)), 0.1),
        (90, 3, make_digit_exponential(3, 0.3721), 0.25),  # float phases
        # x = q^2, the smallest x the probe takes, and q^2 + 1: tables of
        # 2 and 3 values (q = 2), 6 and 7 values (q = 3)
        (4, 2, make_digit_exponential(2, Fraction(1, 3)), 0.37),
        (5, 2, TM, 0.0),
        (9, 3, make_digit_exponential(3, Fraction(1, 3)), 0.0),
        (10, 3, make_digit_exponential(3, 0.3721), 0.25),
    ]
    capped = []
    for x, q, f, theta in cases:
        # q-adic M up to q*x, while M/q < x leaves a row: the last blocks hold
        # rows m > x with no n, which the probe does not build
        for M in [q**k for k in range(1, 99) if q ** (k - 1) < x]:
            ref_dense = _vaughan_block_per_row(x, q, M, f, theta)
            dense = _vaughan_block(x, q, M, f, theta)
            assert dense.shape == ref_dense.shape and dense.dtype == ref_dense.dtype
            assert dense.tobytes() == ref_dense.tobytes()
            capped.append(dense.shape[0] < M - M // q)
    assert any(capped)


def test_rectangle_matches_per_row_reference(monkeypatch):
    # the q-adic rectangle as one row block, and type_sums' three reductions,
    # against one kernel call per m and the per-row sums
    cases = [
        (2, 3, 4, TM, 0.0),
        (3, 2, 3, make_digit_exponential(3, Fraction(1, 3)), 0.37),
        (5, 1, 2, make_digit_exponential(5, 0.3721), -0.25),  # float phases, mu = 1
        (2, 9, 1, make_digit_exponential(2, Fraction(1, 3)), 0.0),  # 256 rows of width 1
        (7, 2, 2, make_digit_exponential(7, Fraction(2, 7)), 0.61),
    ]
    rng = np.random.default_rng(3)
    for q, mu, nu, f, theta in cases:
        m = np.arange(q ** (mu - 1), q**mu, dtype=np.uint64)
        n = np.arange(q ** (nu - 1), q**nu, dtype=np.uint64)
        reference = np.array([_g(f, row_m * n, theta) for row_m in m])
        dense, calls = _rectangle_in_7_pair_calls(monkeypatch, m, n, f, theta)
        assert calls == [min(7, reference.size - start) for start in range(0, reference.size, 7)]
        assert dense.shape == reference.shape and dense.tobytes() == reference.tobytes()
        a = np.exp(2j * np.pi * rng.random(m.size))
        b = np.exp(2j * np.pi * rng.random(n.size))
        si = si_max = 0.0
        for g in reference:
            si += abs(complex(np.sum(g)))
            si_max += float(np.max(np.abs(np.cumsum(g[::-1]))))
        s20 = complex(np.sum(a[:, None] * b[None, :] * reference))
        # the row reductions run in chunks of whole rows; widths 8, 18, 20, 1
        # and 42 leave a short last chunk at some of these chunk sizes
        for block in (harness.KERNEL_BLOCK, 7, 64):
            with monkeypatch.context() as patch:
                patch.setattr(harness, "KERNEL_BLOCK", block)
                assert harness.type_sums(mu, nu, q, f, theta, a, b) == (s20, si, si_max)


def test_vaughan_probe_checks_cap_before_rows(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was built before the cap check")

    monkeypatch.setattr(harness, "_twisted_square", no_rows)
    with pytest.raises(CapacityError):
        harness.vaughan_probe(harness.LAMBDA_SUM_CAP + 1, 2, TM, 0.0)


def test_vaughan_probe_evaluates_its_window_once(monkeypatch):
    # one kernel call builds the table of g on (x/q, x]; the row blocks only
    # slice it, so every later call is the Lambda sweep's own
    x, q = 10**5, 2
    events = []
    twisted_square, lambda_sums = harness._twisted_square, harness._lambda_sums

    def counting(f, n, theta):
        events.append(len(n))
        return twisted_square(f, n, theta)

    def marked(*args):
        events.append("lambda")
        return lambda_sums(*args)

    monkeypatch.setattr(harness, "_twisted_square", counting)
    monkeypatch.setattr(harness, "_lambda_sums", marked)
    harness.vaughan_probe(x, q, TM, 0.0)
    probe_events = list(events)
    events.clear()
    harness._lambda_sums([x, x // q], TM, 0.0)
    assert probe_events == [x - x // q] + events


def test_vaughan_probe_validation():
    with pytest.raises(PreconditionError):
        harness.vaughan_probe(3, 2, TM, 0.0)


def test_type_sum_reproducibility():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    a1 = np.exp(2j * np.pi * rng1.random(4))
    b1 = np.exp(2j * np.pi * rng1.random(8))
    a2 = np.exp(2j * np.pi * rng2.random(4))
    b2 = np.exp(2j * np.pi * rng2.random(8))
    s1 = harness.type_sums(3, 4, 2, TM, 0.3, a1, b1)
    s2 = harness.type_sums(3, 4, 2, TM, 0.3, a2, b2)
    assert s1 == s2
