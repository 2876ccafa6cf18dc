"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run with -s to
see them on success) and asserts at the stated tolerance.  Fitted constants
for implicit-constant bounds follow the 2x idiom used throughout: fit at
the smallest parameter, then require the larger-parameter ratios to stay
within twice the fit.
"""

import math
import time
from fractions import Fraction

import numpy as np
from oracles import holds

from sqdigits import expsums as xs
from sqdigits import fourier, harness, vaaler
from sqdigits.carry import CarrySpec, count_mismatch
from sqdigits.cli import _well_spaced_nodes
from sqdigits.qmult import make_digit_exponential, thue_morse

TM = thue_morse()


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_1_exact_identities():
    t0 = time.time()
    rng = np.random.default_rng(101)

    worst_qmean = 0.0
    for q, gamma in ((2, Fraction(1, 2)), (3, Fraction(1, 3)), (5, Fraction(1, 3))):
        f = make_digit_exponential(q, gamma)
        for t in rng.random(20) * q:
            sums = fourier.quadratic_mean(f, 10, float(t))
            worst_qmean = max(worst_qmean, max(abs(s - 1.0) for s in sums))
    ok_qmean = worst_qmean <= 1e-9

    worst_aliased = 0.0
    for U in (2, 3, 5, 8):
        for a in (0, 1, 2):
            value, tail = vaaler.aliased_chi_sq_sum(U, a)
            worst_aliased = max(worst_aliased, abs(value - 1.0 / U**2) - tail)
    ok_aliased = worst_aliased <= 0.0

    worst_chib = 0.0
    for U, H in ((2, 7), (3, 8), (4, 15)):
        chib = vaaler.convolution_defects(U, H, 0).chiB_sum
        worst_chib = max(worst_chib, abs(chib - 1.0 / (H + 1)))
    ok_chib = worst_chib <= 1e-10

    dt = time.time() - t0
    ok = ok_qmean and ok_aliased and ok_chib and dt < 10.0
    _report(
        1,
        "exact identities",
        ok,
        f"(qmean dev {worst_qmean:.2e}, aliased dev {worst_aliased:.2e}, "
        f"chi*B dev {worst_chib:.2e}, {dt:.1f}s)",
    )


def test_criterion_2_explicit_constant_inequalities():
    t0 = time.time()
    rng = np.random.default_rng(202)
    failures = []

    # complete Gauss sums, exhaustive over m <= 64: all (a, b) pairs per m,
    # evaluated in one broadcast per m and spot-checked through the operation
    for m in range(1, 65):
        n = np.arange(m)
        a_ax = np.arange(m)[:, None, None]
        b_ax = np.arange(m)[None, :, None]
        residues = (a_ax * (n * n % m)[None, None, :] + b_ax * n[None, None, :]) % m
        sums = np.abs(np.exp(2j * np.pi * residues / m).sum(axis=-1))
        bounds = np.sqrt(2.0 * m * np.gcd(np.arange(m), m))[:, None]
        if not np.all(sums <= bounds + 1e-9):
            failures.append(f"gauss-complete m={m}")
        a_spot, b_spot = int(rng.integers(0, m)), int(rng.integers(0, m))
        r = xs.gauss_complete(a_spot, b_spot, m)
        if abs(r[0] - sums[a_spot, b_spot]) > 1e-9 or not holds(r):
            failures.append(f"gauss-complete spot m={m}")

    for _ in range(500):
        m = int(rng.integers(1, 65))
        r = xs.gauss_incomplete(
            int(rng.integers(0, m)), int(rng.integers(0, m)), m,
            int(rng.integers(0, 100)), int(rng.integers(0, 3 * m + 1)),
        )
        if not holds(r):
            failures.append("gauss-incomplete")

    for U, H in ((2, 7), (3, 8), (4, 15), (6, 63)):
        d = vaaler.convolution_defects(U, H, 0)
        if d.BB_sum > 1.0 / (H + 1) + 1e-12:
            failures.append(f"B*B U={U}")
        for ell in (0, 1, 3):
            d = vaaler.convolution_defects(U, H, ell)
            if d.chiH_defect > 3.0 / (H + 1) + 1e-12:
                failures.append(f"twisted U={U} l={ell}")

    for _ in range(1000):
        n = int(rng.integers(1, 150))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs, rhs = xs.vdc_variant_check(z, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        if lhs > rhs + 1e-9 * max(1.0, abs(rhs)):
            failures.append("vdc")

    for alpha, H in ((0.5, 7), (1.0 / 3.0, 26)):
        if vaaler.sandwich_defect(vaaler.VaalerKernel(alpha, H), 10**4) > 1e-9:
            failures.append(f"sandwich alpha={alpha}")

    for _ in range(50):
        lam = int(rng.integers(2, 11))
        delta = 0.5 / 2 ** min(lam, 7)
        count = int(rng.integers(1, min(50, int(0.5 / delta)) + 1))
        nodes = _well_spaced_nodes(rng, count, delta)
        value, bound = fourier.large_sieve_sum(TM, 0, lam, nodes, delta)
        if not value < bound:
            failures.append("large-sieve")

    for m in range(1, 201):
        gcds = np.gcd(np.arange(1, 501, dtype=np.int64), m).astype(np.float64)
        prefix = np.cumsum(gcds) / np.arange(1, 501)
        if float(np.max(prefix)) > xs.sigma(0.0, m) + 1e-9:
            failures.append(f"gcd m={m}")

    dt = time.time() - t0
    ok = not failures and dt < 60.0
    _report(2, "explicit-constant inequalities", ok, f"({len(failures)} failures, {dt:.1f}s)")


def test_criterion_3_constants():
    t0 = time.time()
    bad = []
    for q in (2, 3, 5, 7, 11, 13):
        for gamma in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)):
            if ((q - 1) * gamma).denominator == 1:
                continue
            sc = fourier.compute_constants(make_digit_exponential(q, gamma))
            if sc.c < fourier.c_lower_bound_digit_sum(q, gamma) - 1e-9:
                bad.append(f"c q={q} gamma={gamma}")
            if sc.eta > fourier.eta_upper_bound_digit_sum(q) + 1e-9:
                bad.append(f"eta q={q} gamma={gamma}")
    sc = fourier.compute_constants(TM)
    c_oracle = -math.log(4.0 / (3.0 * math.sqrt(3.0))) / (2.0 * math.log(2.0))
    if abs(sc.c - c_oracle) > 1e-4:
        bad.append("thue-morse c")
    if abs(sc.eta - 0.5) > 1e-8:
        bad.append("thue-morse eta")
    dt = time.time() - t0
    ok = not bad and dt < 10.0
    _report(3, "spectral constants", ok, f"(c={sc.c:.5f}, eta={sc.eta:.9f}, {dt:.1f}s)")


def test_criterion_4_truncation_approximation():
    t0 = time.time()
    rng = np.random.default_rng(404)
    q = 2
    worst_window = -1.0
    worst_l2 = -1.0
    worst_l1 = -1.0
    for width in range(1, 7):
        qlam = q**width
        for _ in range(1000):
            K = int(rng.integers(1, 9))
            kappa1 = int(rng.integers(0, 3))
            a = int(rng.integers(0, q ** (kappa1 + width + 3)))
            defect, bound = vaaler.window_approximation_defect(TM, a, kappa1, kappa1 + width, K)
            worst_window = max(worst_window, defect - bound)
            if bound > 1.0 + 1e-12:
                worst_window = max(worst_window, bound - 1.0)
        # L1/L2 kernel-transform bounds on the same window family
        for _ in range(25):
            K = int(rng.integers(1, 9))
            H = K * qlam - 1
            kernel = vaaler.VaalerKernel(1.0 / qlam, H)
            hs = np.arange(-H, H + 1)
            chi_abs = np.abs(vaaler.coeff_chi(kernel, hs))
            t = float(rng.random() * qlam)
            f_abs = np.abs(fourier.eval_F(TM, width, t + hs.astype(np.float64)))
            worst_l2 = max(worst_l2, float(np.sum(chi_abs**2 * f_abs**2)) - qlam**-2 - 1e-12)
            full = float(
                np.sum(np.abs(fourier.eval_F(TM, width, t + np.arange(qlam, dtype=np.float64))))
            )
            cap = (2 + 2 / math.pi + (2 / math.pi) * math.log(K)) / qlam * full
            worst_l1 = max(worst_l1, float(np.sum(chi_abs * f_abs)) - cap)
    dt = time.time() - t0
    ok = worst_window <= 1e-9 and worst_l2 <= 0.0 and worst_l1 <= 1e-9 and dt < 30.0
    _report(
        4,
        "window truncation bounds",
        ok,
        f"(window {worst_window:.2e}, L2 {worst_l2:.2e}, L1 {worst_l1:.2e}, {dt:.1f}s)",
    )


def test_criterion_5_carry_scaling():
    t0 = time.time()
    # independent small-instance enumeration: digit strings only
    def brute(q, lam, m, r, nu):
        def s2_low(x, k):
            total = 0
            for _ in range(k):
                x, b = divmod(x, q)
                total += b
            return total

        def s2(x):
            total = 0
            while x:
                x, b = divmod(x, q)
                total += b
            return total

        count = 0
        for n in range(q ** (nu - 1), q**nu):
            a, b = m * m * n * n, m * m * (n + r) * (n + r)
            if (s2_low(b, lam) - s2_low(a, lam)) % 2 != (s2(b) - s2(a)) % 2:
                count += 1
        return count

    spec = CarrySpec(q=2, mu=3, nu=6, rho=1, rho_tilde=1, m=5, r=1)
    small_ok = count_mismatch(spec, TM) == brute(2, spec.lam, 5, 1, 6)

    instances = [(m, r) for m in (4, 5, 6, 7) for r in (1, 2, 3)]
    fitted = {}
    for rho_t in (1, 2, 3):
        ratios = []
        for m, r in instances:
            s = CarrySpec(q=2, mu=3, nu=8, rho=1, rho_tilde=rho_t, m=m, r=r)
            ratios.append(count_mismatch(s, TM) / 2 ** (8 - rho_t))
        fitted[rho_t] = 2.0 * max(ratios)  # fit at nu=8 with the 2x idiom

    scaling_ok = True
    for rho_t in (1, 2, 3):
        for nu in (10, 12, 14):
            for m, r in instances:
                s = CarrySpec(q=2, mu=3, nu=nu, rho=1, rho_tilde=rho_t, m=m, r=r)
                if count_mismatch(s, TM) > fitted[rho_t] * 2 ** (nu - rho_t):
                    scaling_ok = False
    dt = time.time() - t0
    ok = small_ok and scaling_ok and dt < 60.0
    _report(5, "carry scaling", ok, f"(small exact: {small_ok}, scaling: {scaling_ok}, {dt:.1f}s)")


def test_criterion_6_equidistribution():
    t0 = time.time()
    r1 = harness.equidist_counts(10**7, 2, 2)
    r2 = harness.equidist_counts(10**7, 3, 5)
    dt = time.time() - t0
    ok = (
        r1.pi_x == 664579
        and r1.max_rel_discrepancy <= 0.01
        and r2.max_rel_discrepancy <= 0.01
        and sum(r2.counts) == r2.pi_x
        and dt < 120.0
    )
    _report(
        6,
        "equidistribution of s_q(p^2) mod m",
        ok,
        f"(disc q2m2 {r1.max_rel_discrepancy:.4f}, q3m5 {r2.max_rel_discrepancy:.4f}, {dt:.1f}s)",
    )


def test_criterion_7_decay_trend():
    t0 = time.time()
    xs_list = [10**4, 10**5, 10**6, 10**7]
    fit = harness.decay_fit(xs_list, TM, 0.0)
    dt = time.time() - t0
    ok = fit.values[-1] < 0.5 * fit.values[0] and fit.fitted_exponent < 0 and dt < 120.0
    _report(
        7,
        "Lambda-weighted decay trend",
        ok,
        f"(|S|/x {fit.values[0]:.5f} -> {fit.values[-1]:.5f}, slope {fit.fitted_exponent:+.3f}, {dt:.1f}s)",
    )


def test_criterion_8_type_sums():
    t0 = time.time()
    rng = np.random.default_rng(808)

    s20_means = []
    for mu, nu in ((6, 10), (7, 12), (8, 14)):
        vals = []
        for _ in range(8):
            a = np.exp(2j * np.pi * rng.random(2**mu - 2 ** (mu - 1)))
            b = np.exp(2j * np.pi * rng.random(2**nu - 2 ** (nu - 1)))
            s, _, _ = harness.type_sums(mu, nu, TM, 0.0, a, b)
            vals.append(abs(s) / 2 ** (mu + nu))
        s20_means.append(float(np.mean(vals)))
    s20_ok = s20_means[0] > s20_means[1] > s20_means[2]

    si_values = [
        harness.type_sums(3, nu, TM, 0.0, np.ones(4), np.ones(2 ** (nu - 1)))[1] / 2 ** (3 + nu)
        for nu in (12, 14, 16)
    ]
    si_ok = si_values[0] > si_values[1] > si_values[2]

    cs = [harness.vaughan_probe(x, 2, TM, 0.0).fitted_C for x in (10**4, 10**5, 10**6)]
    vaughan_ok = all(c <= 2.0 * cs[0] for c in cs[1:])

    dt = time.time() - t0
    ok = s20_ok and si_ok and vaughan_ok and dt < 300.0
    _report(
        8,
        "type sums scaling",
        ok,
        f"(S20 {['%.5f' % v for v in s20_means]}, SI {['%.5f' % v for v in si_values]}, "
        f"C {['%.5f' % c for c in cs]}, {dt:.1f}s)",
    )
