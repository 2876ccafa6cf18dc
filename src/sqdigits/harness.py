"""Top-level experiments: digital sums along squares of primes.

The centerpiece sums are

    S(x)      = sum_{n <= x} Lambda(n) f(n^2) e(theta n)            (decay)
    S_20      = sum_m sum_n a_m b_n f(m^2 n^2) e(theta m n)         (type II)
    S_I       = sum_m |sum_{n in I(m)} f(m^2 n^2) e(theta m n)|     (type I)

together with the residue counts of s_q(p^2) mod m over primes.  All big
sweeps run on one blocked digit-additive kernel (uint64, k digits per table
lookup or, for integer weights at q = 2, one popcount; rational phases as
exact numerators mod D) with numpy's pairwise reduction; identical inputs
therefore give bitwise identical reports.  A numerator k becomes e(k/D) by
one division and exp, or, with no twist and D <= DIGIT_TABLE_CAP, by a
lookup in a table of the D roots of unity built from the same k/D, so both
give the same bits.  Every bilinear sum reads a
padded (m, n) block of g(mn) = f((mn)^2) e(theta mn): type_sums one chunk of
whole rows (at most KERNEL_BLOCK pairs, or one longer row) per kernel call,
added to running totals of S_20, S_I and its suffix maximum; the Vaughan
probe each q-adic block, copied along its shorter axis from one table of g
on (x/q, x].  Where g is gathered, the table holds the numerators k (2 bytes
below D = 2**16), and each block is gathered into one complex buffer that
all blocks reuse.

Parameter plans reproduce the explicit recipes used to make the type II
and type I machinery non-trivial: every derived quantity is integer
arithmetic on (mu, nu) and the spectral constants (c, eta), and each plan
records which structural constraint fails, if any.  The headline-theorem
regime (eta <= 1/2000, prime q, m coprime to q-1) is recorded as a flag,
never used as a gate: the empirically interesting bases violate it while
still exhibiting clean equidistribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .digits import checked_pow
from .errors import CapacityError, PreconditionError
from .qmult import StronglyQMultiplicative, frac
from .sieve import BLOCK, prime_arrays

LAMBDA_SUM_CAP = 10**8
TYPE_SUM_CAP = 1 << 26
EQUIDIST_BIN_CAP = 1 << 16  # the report lists every residue count
BETA1 = 0.2  # the Vaughan probe's type I / type II split; below 1/3


# The digit kernel reads k base-q digits per pass from a table of the q**k
# digit-block weight sums (the largest k with q**k <= DIGIT_TABLE_CAP, at least
# 1), over blocks of KERNEL_BLOCK values so that its temporaries stay small.
# At most 64 passes each add an entry below D, so the exact int64 numerator
# sums of rational phases stay below 2**63 while D < EXACT_DENOM_LIMIT.
# Integer weights at q = 2 keep their 2-entry table [0, w]: the sum is then
# w * popcount, at most 64 w < 2**63 too, by one bitwise_count and one multiply
# (0.8-0.9 ns per element against 10-11 ns for the table passes; README).
DIGIT_TABLE_CAP = 1 << 16
KERNEL_BLOCK = 1 << 16
EXACT_DENOM_LIMIT = 1 << 57


def _block_table(weights: np.ndarray, modulus: int | float | None) -> tuple[np.ndarray, int]:
    """(table, q**k): table[j] is the weight sum (mod modulus) of the k base-q digits of j;
    integer weights at q = 2 stay the 2 weights, for _digit_block's popcount."""
    table, size, q = weights, len(weights), len(weights)
    while size * q <= DIGIT_TABLE_CAP and (q > 2 or weights.dtype.kind == "f"):
        table = (table[:, None] + weights).ravel()  # j = a*q + b
        table = table if modulus is None else table % modulus
        size *= q
    table.flags.writeable = False
    return table, size


@lru_cache(maxsize=64)
def _sum_table(q: int) -> tuple[np.ndarray | None, int]:
    """None stands for the identity weights where they would outgrow the table cap."""
    return (None, q) if q > DIGIT_TABLE_CAP else _block_table(np.arange(q, dtype=np.uint64), None)


@lru_cache(maxsize=64)
def _phase_table(f: StronglyQMultiplicative) -> tuple[np.ndarray, int, int | float]:
    """(table, q**k, modulus): numerators mod D, or float phases mod 1 where not exact."""
    if f.exact:
        denom, nums = f.numerators
        if denom < EXACT_DENOM_LIMIT:
            return (*_block_table(np.array(nums, dtype=np.int64), denom), denom)
    return (*_block_table(np.array([float(p) for p in f.phases]), 1.0), 1.0)


def _remainder(x: np.ndarray, d: int | float | np.uint64, out: np.ndarray | None = None) -> np.ndarray:
    """x % d by floor division and a multiply-subtract, for an array x and a
    scalar d, into out (never x): numpy's // is several times faster than its
    % or divmod, and floors, so this equals % on signed values too."""
    return np.subtract(x, np.multiply(np.floor_divide(x, d, out=out), d, out=out), out=out)


def _digit_block(values: np.ndarray, table: np.ndarray | None, size: int, acc: np.ndarray, work: np.ndarray) -> np.ndarray:
    """acc = the sum of table[d] (of d for table None) over the base-`size` digits d
    of each uint64 value, one pass per digit of the largest: the quotients go to
    work[1] and work[0] in turn (values may be work[0]), the digits to work[2].  At
    radix 2 the table is [0, w] (f(0) = 1: StronglyQMultiplicative refuses a nonzero
    phases[0]), so the sum is w times the count of 1 bits, and work is not read."""
    if size == 2:
        return np.multiply(np.bitwise_count(values, out=acc), table[1], out=acc)
    radix, top, high, row = np.uint64(size), int(values.max(initial=0)), values, 1
    acc[...] = 0
    while True:
        np.floor_divide(high, radix, out=work[row])
        low = np.subtract(high, np.multiply(work[row], radix, out=work[2]), out=work[2])
        acc += low if table is None else table.take(low.view(np.int64))  # int64 gathers faster
        high, row, top = work[row], 1 - row, top // size
        if not top:
            return acc


def _digit_additive(values: np.ndarray, table: np.ndarray | None, size: int) -> np.ndarray:
    """_digit_block on values of any shape, KERNEL_BLOCK at a time in one workspace."""
    flat = np.asarray(values, dtype=np.uint64).reshape(-1)
    out = np.empty(flat.shape, dtype=np.uint64 if table is None else table.dtype)
    work = np.empty((0 if size == 2 else 3, min(flat.size, KERNEL_BLOCK)), dtype=np.uint64)
    for start in range(0, flat.size, KERNEL_BLOCK):
        block = flat[start : start + KERNEL_BLOCK]
        _digit_block(block, table, size, out[start : start + KERNEL_BLOCK], work[:, : block.size])
    return out.reshape(np.shape(values))


def digit_sums_array(values: np.ndarray, q: int) -> np.ndarray:
    """Base-q digit sums of a uint64 array."""
    return _digit_additive(values, *_sum_table(q))


def _phase_numerators(
    f: StronglyQMultiplicative, values: np.ndarray
) -> tuple[np.ndarray, int | float]:
    """(numerators mod modulus, modulus) of the accumulated phases of f at a
    uint64 array: exact int64 numerators over the common denominator D, or
    float phases mod 1.0 where not exact."""
    table, size, modulus = _phase_table(f)
    return _remainder(_digit_additive(values, table, size), modulus), modulus


def phase_array(f: StronglyQMultiplicative, values: np.ndarray) -> np.ndarray:
    """Accumulated phases (mod 1) of f at a uint64 array; rational phases stay
    exact numerators until one division, so entries equal float(phase_of(f, n))."""
    nums, modulus = _phase_numerators(f, values)
    return nums / modulus


@lru_cache(maxsize=64)
def _root_table(denom: int) -> np.ndarray:
    """e(k/denom) for k < denom, each entry the exp of the same float k/denom
    that phase_array gives numerator k, so a gather equals the exp bitwise."""
    roots = np.exp(2j * np.pi * (np.arange(denom) / denom))
    roots.flags.writeable = False
    return roots


def _gathered_roots(modulus: int | float, theta: float) -> np.ndarray | None:
    """The roots gathered at numerators mod `modulus` and a theta reduced mod 1: only
    untwisted exact phases over D <= DIGIT_TABLE_CAP are gathered (None: an exp)."""
    return _root_table(modulus) if theta == 0.0 and isinstance(modulus, int) and modulus <= DIGIT_TABLE_CAP else None


def _square_codes(f: StronglyQMultiplicative, n: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray | None]:
    """(codes, roots) with f(n^2) e(theta n) = roots[codes] at a uint64 array n, or
    (values, None); theta is reduced mod 1 first (exactly), so theta * n keeps the
    phase's digits."""
    theta = math.fmod(theta, 1.0)
    nums, modulus = _phase_numerators(f, n * n)
    if (roots := _gathered_roots(modulus, theta)) is not None:
        return nums, roots
    phases = nums / modulus
    if theta != 0.0:
        phases += frac(theta * n.astype(np.float64))
    return np.exp(2j * np.pi * phases), None


def _twisted_square(f: StronglyQMultiplicative, n: np.ndarray, theta: float) -> np.ndarray:
    """f(n^2) e(theta n) at a uint64 array n: the values, or the codes gathered."""
    codes, roots = _square_codes(f, n, theta)
    return codes if roots is None else roots.take(codes)


def _lambda_block(f: StronglyQMultiplicative, n: np.ndarray, p: np.ndarray, theta: float, work: np.ndarray) -> np.ndarray:
    """log(p) * _twisted_square(f, n, theta) at uint64 arrays n and p, theta reduced mod 1, by the same ops in
    the same order in work's 4 uint64 rows: digits in 0-3, phases in 2, values in 0-1 as complex128 unless gathered."""
    (table, size, modulus), rows, floats = _phase_table(f), work[:, : n.size], work.view(np.float64)[:, : n.size]
    nums = _digit_block(np.multiply(n, n, out=rows[0]), table, size, rows[3].view(table.dtype), rows)
    nums = _remainder(nums, modulus, rows[0].view(table.dtype))
    if (roots := _gathered_roots(modulus, theta)) is not None:
        g = roots.take(nums)
    else:
        phases = np.divide(nums, modulus, out=floats[2])
        if theta != 0.0:
            phases += frac(np.multiply(theta, n, out=floats[3]), floats[1])
        g = work[:2].reshape(-1).view(np.complex128)[: n.size]
        np.exp(np.multiply(2j * np.pi, phases, out=g), out=g)
    return np.multiply(np.log(p, out=floats[3]), g, out=g)


@dataclass(frozen=True)
class EquidistReport:
    """Residue counts of s_q(p^2) mod m over primes p <= x."""

    x: int
    q: int
    m: int
    counts: tuple[int, ...]
    pi_x: int
    max_rel_discrepancy: float
    coprime_to_q_minus_1: bool


def equidist_counts(x: int, q: int, m: int) -> EquidistReport:
    """Stream primes, bin s_q(p^2) mod m, report the discrepancy; the caps on q,
    m and x (in prime_arrays) are checked first.  Each array of the prime
    stream is binned whole, in the rows of one workspace that all reuse."""
    if q < 2 or m < 2:
        raise ValueError(f"need q >= 2 and m >= 2, got ({q}, {m})")
    if q >= 2**64:
        raise CapacityError(f"q = {q} exceeds 2**64 - 1, the largest base of the uint64 digit kernel")
    if m > EQUIDIST_BIN_CAP:
        raise CapacityError(f"m = {m} residue bins exceed the bin cap {EQUIDIST_BIN_CAP}")
    counts, work = np.zeros(m, dtype=np.int64), np.empty((4, BLOCK), dtype=np.uint64)
    for arr in prime_arrays(x):
        rows, p = work[:, : arr.size], arr.view(np.uint64)
        s = _digit_block(np.multiply(p, p, out=rows[0]), *_sum_table(q), rows[3], rows)
        counts += np.bincount(_remainder(s, np.uint64(m), rows[0]).view(np.int64), minlength=m)
    pi_x = int(counts.sum())
    expected = pi_x / m
    disc = float(np.max(np.abs(counts - expected)) / pi_x) if pi_x else 0.0
    return EquidistReport(
        x=x,
        q=q,
        m=m,
        counts=tuple(int(c) for c in counts),
        pi_x=pi_x,
        max_rel_discrepancy=disc,
        coprime_to_q_minus_1=math.gcd(m, q - 1) == 1,
    )


def lambda_weighted_sum(x: int, f: StronglyQMultiplicative, theta: float) -> complex:
    """sum_{n <= x} Lambda(n) f(n^2) e(theta n)."""
    return _lambda_sums([x], f, theta)[0]


def _lambda_sums(xs: list[int], f: StronglyQMultiplicative, theta: float) -> list[complex]:
    """lambda_weighted_sum at every x in xs, from one prime stream up to max(xs).

    Only prime powers contribute.  Each array of the prime stream, 2**16
    consecutive primes whatever the sieve's segment size, is weighted once;
    each x takes the sum of its first terms, those up to x, so it adds exactly
    what a stream up to x alone would add, in the same order.  The powers
    p**k, k >= 2, follow from one stream up to sqrt(max(xs)), one exponent k
    at a time, cut alike.  An empty cut adds 0j, which changes no total: each
    starts at +0.0, so is never -0.0.
    """
    _check_lambda_x(max(xs))
    totals = [0.0 + 0.0j] * len(xs)
    theta, work = math.fmod(theta, 1.0), np.empty((4, BLOCK), dtype=np.uint64)
    for p in prime_arrays(max(xs)):
        w = _lambda_block(f, p.view(np.uint64), p, theta, work)
        for i, cut in enumerate(np.searchsorted(p, xs, side="right").tolist()):
            totals[i] += complex(np.sum(w[:cut]))
    for arr in prime_arrays(math.isqrt(max(xs))):
        p = arr.astype(np.uint64)
        pk = p * p
        while p.size:
            w = _lambda_block(f, pk, p, theta, work)
            for i, cut in enumerate(np.searchsorted(pk, xs, side="right").tolist()):
                totals[i] += complex(np.sum(w[:cut]))
            keep = pk <= max(xs) // p
            p, pk = p[keep], pk[keep] * p[keep]
    return totals


def _check_lambda_x(x: int) -> None:
    """Refuse x above LAMBDA_SUM_CAP, before any prime is sieved or g is tabulated."""
    if x > LAMBDA_SUM_CAP:
        raise CapacityError(f"x = {x} exceeds the cap {LAMBDA_SUM_CAP}")


def check_decay_xs(xs) -> None:
    """Refuse xs that decay_fit does not take, before any f is needed: fewer
    than 3, not strictly increasing, or one above LAMBDA_SUM_CAP."""
    if len(xs) < 3 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise PreconditionError(f"need at least 3 strictly increasing x values, got {xs}")
    _check_lambda_x(max(xs))


@dataclass(frozen=True)
class DecayFit:
    """|S(x)|/x along increasing x with a fitted log-log slope."""

    xs: tuple[int, ...]
    values: tuple[float, ...]
    fitted_exponent: float


def decay_fit(xs: list[int], f: StronglyQMultiplicative, theta: float) -> DecayFit:
    """Least-squares slope of log(|S(x)|/x) against log x; negative means power saving."""
    check_decay_xs(xs)
    values = [abs(s) / x for s, x in zip(_lambda_sums(xs, f, theta), xs)]
    slope = float(np.polyfit(np.log(np.array(xs, dtype=float)), np.log(values), 1)[0])
    return DecayFit(xs=tuple(xs), values=tuple(values), fitted_exponent=slope)


def _strided_rows(g: np.ndarray, k0: int, m: np.ndarray, lo: np.ndarray, size: np.ndarray, pad) -> np.ndarray:
    """Dense g(mn) from the table g[k - k0] = g(k), in its dtype, for consecutive rows m: row i holds
    lo[i] <= n < lo[i] + size[i], pad elsewhere.  Copied along the shorter axis: row i is the slice of
    stride m[i] from k = m[i] lo[i]; column n, held by the rows a <= i < b (one range, as lo and
    lo + size do not increase), the slice of stride n from k = m[a] n."""
    n_min, hi = int(lo.min()), lo + size
    dense = np.full((m.size, int(hi.max()) - n_min), pad, dtype=g.dtype)
    if m.size <= dense.shape[1]:
        for row, mi, n0, count in zip(dense, m.tolist(), lo.tolist(), size.tolist()):
            row[n0 - n_min : n0 - n_min + count] = g[mi * n0 - k0 : mi * (n0 + count) - k0 : mi]
    else:
        n = np.arange(n_min, n_min + dense.shape[1])
        a, b = np.searchsorted(-lo, -n), np.searchsorted(-hi, -n)
        for col, ni, k, ai, bi in zip(dense.T, n.tolist(), (m[a] * n - k0).tolist(), a.tolist(), b.tolist()):
            col[ai:bi] = g[k : k + (bi - ai) * ni : ni]
    return dense


def _row_chunks(rows: int, cols: int) -> Iterator[slice]:
    """Consecutive rows of a rows x cols block, at most KERNEL_BLOCK entries
    (one row at least) at a time."""
    step = max(1, KERNEL_BLOCK // cols)
    return (slice(i, i + step) for i in range(0, rows, step))


def _add_in_order(total, values: np.ndarray):
    """total + values[0] + values[1] + ..., added one after another (cumsum
    adds in order), so a sum carried across chunks does not depend on them."""
    return np.cumsum(np.concatenate(([total], values)))[-1]


def _suffix_maxima(rows: np.ndarray) -> np.ndarray:
    """max_t |row[t] + ... + row[-1]| of each row."""
    return np.max(np.abs(np.cumsum(rows[:, ::-1], axis=1)), axis=1)


def _suffix_max_sum(dense: np.ndarray) -> float:
    """sum over rows of _suffix_maxima, added in row order, one _row_chunks
    chunk at a time."""
    total = 0.0
    for chunk in _row_chunks(*dense.shape):
        total = _add_in_order(total, _suffix_maxima(dense[chunk]))
    return float(total)


def rectangle_shape(q: int, mu: int, nu: int) -> tuple[int, int]:
    """(rows, cols) of the q-adic rectangle [q**(mu-1), q**mu) x [q**(nu-1), q**nu),
    refused above TYPE_SUM_CAP before any coefficient or row is drawn."""
    if checked_pow(q, mu + nu) > TYPE_SUM_CAP:
        raise CapacityError(f"q**(mu+nu) exceeds the exact-evaluation cap {TYPE_SUM_CAP}")
    return q**mu - q ** (mu - 1), q**nu - q ** (nu - 1)


def type_sums(
    mu: int,
    nu: int,
    f: StronglyQMultiplicative,
    theta: float,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[complex, float, float]:
    """(S20, SI, SI_max) over the q-adic rectangle of rectangle_shape, q = f.q, with
    g(mn) = f(m^2 n^2) e(theta m n):

    * S20    = sum_m a_m sum_n b_n g(mn), the exact bilinear (type II) sum;
    * SI     = sum_m |sum_n g(mn)|, the type I sum over full inner intervals;
    * SI_max = sum_m max_t |sum_{t < n < q**nu} g(mn)|, the inner sum replaced
      by its maximum over all suffix intervals: it only changes at integer
      endpoints, so scanning every cumulative suffix sum is exact.

    The rectangle is built and reduced one _row_chunks chunk at a time, by one
    kernel call on the flat outer product of the chunk's m with n, and each
    sum adds its row values in row order, so no array holds more than one
    chunk of rows and the sums do not depend on the chunk size.
    """
    q = f.q
    rows, cols = rectangle_shape(q, mu, nu)
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if len(a) != rows or len(b) != cols:
        raise ValueError(f"coefficient lengths must match the rectangle: need ({rows}, {cols})")
    if np.max(np.abs(a)) > 1 + 1e-12 or np.max(np.abs(b)) > 1 + 1e-12:
        raise ValueError("coefficients must have modulus at most 1")
    m = np.arange(q ** (mu - 1), q**mu, dtype=np.uint64)
    n = np.arange(q ** (nu - 1), q**nu, dtype=np.uint64)
    s20, si, si_max = 0j, 0.0, 0.0
    for chunk in _row_chunks(rows, cols):
        g = _twisted_square(f, (m[chunk, None] * n).reshape(-1), theta).reshape(-1, cols)
        s20 = _add_in_order(s20, a[chunk] * (g * b).sum(axis=1))
        # hypot rounds as Python's abs(complex) does; numpy's complex abs does not
        si = _add_in_order(si, np.hypot((s := g.sum(axis=1)).real, s.imag))
        si_max = _add_in_order(si_max, _suffix_maxima(g))
    return complex(s20), float(si), float(si_max)


@dataclass(frozen=True)
class TypeIIPlan:
    """Derived parameter block for the bilinear (type II) machinery."""

    mu: int
    nu: int
    c: float
    eta: float
    rho3: int
    rho: int
    rho_tilde: int
    rho1: int
    rho2: int
    rho4: float
    rho5: int
    lam: int
    kappa1: int
    kappa2: int
    out_of_regime: bool
    rejected: bool
    violation: str | None


def type2_plan(mu: int, nu: int, c: float, eta: float) -> TypeIIPlan:
    """The explicit parameter recipe rho3 = floor(128 eta mu), rho = ceil(rho3/2),
    rho~ = ceil(c mu), rho1 = rho2 = 2 rho3, rho5 = 10 rho3.

    The plan is rejected (with the violated constraint named) unless the
    structural inequalities rho > 0, rho < mu/8, rho~ < mu/8,
    rho < rho1 < mu - 3 rho and rho + rho1 + rho2 + 3 <= mu all hold.
    """
    rho3 = math.floor(128.0 * eta * mu)
    rho = math.ceil(rho3 / 2)
    rho_tilde = math.ceil(c * mu)
    rho1 = rho2 = 2 * rho3
    rho5 = 10 * rho3
    rho4 = min((rho3 - rho_tilde) / 4.0, (mu - rho - rho_tilde - rho1) / 6.0, mu / 4.0)
    lam = mu + nu + 2 * rho + rho_tilde
    kappa1 = mu - rho
    kappa2 = 2 * mu + nu + rho + rho_tilde
    violation = None
    if rho <= 0:
        violation = "rho must be positive"
    elif not rho < mu / 8:
        violation = "rho < mu/8 fails"
    elif not rho_tilde < mu / 8:
        violation = "rho_tilde < mu/8 fails"
    elif not rho < rho1 < mu - 3 * rho:
        violation = "rho < rho1 < mu - 3*rho fails"
    elif not rho + rho1 + rho2 + 3 <= mu:
        violation = "rho + rho1 + rho2 + 3 <= mu fails"
    return TypeIIPlan(
        mu=mu,
        nu=nu,
        c=c,
        eta=eta,
        rho3=rho3,
        rho=rho,
        rho_tilde=rho_tilde,
        rho1=rho1,
        rho2=rho2,
        rho4=rho4,
        rho5=rho5,
        lam=lam,
        kappa1=kappa1,
        kappa2=kappa2,
        out_of_regime=eta > 1.0 / 2000.0,
        rejected=violation is not None,
        violation=violation,
    )


def type1_rho(nu: int, c: float, eta: float) -> int:
    """rho = floor(2 c nu / (5/2 - 2 eta)); in the theorem regime rho <= nu/20."""
    rho = math.floor(2.0 * c * nu / (2.5 - 2.0 * eta))
    if eta <= 1.0 / 2000.0 and not rho <= nu / 20:
        raise AssertionError("rho <= nu/20 must hold in the theorem regime")
    return rho


@dataclass(frozen=True)
class VaughanProbe:
    """Type I / type II sizes against the Lambda sum they control."""

    x: int
    q: int
    beta1: float
    type1_max: float
    type1_argmax_M: int
    type2_max: float
    type2_argmax_M: int
    type2_alignment_history: tuple[float, ...]
    type2_pair_count: int
    lambda_sum: complex
    fitted_C: float


def _probe_blocks(
    f: StronglyQMultiplicative, x: int, q: int, theta: float, Ms: list[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(size, dense) of the probe's block at each M in Ms (M/q < m <= M, x/(qm) < n <= x/m), sliced from
    a table of g on (x/q, x] built KERNEL_BLOCK values at a time; codes are gathered into one buffer."""
    k0, table = x // q + 1, None
    for a in range(k0, x + 1, KERNEL_BLOCK):
        codes, roots = _square_codes(f, np.arange(a, min(a + KERNEL_BLOCK, x + 1), dtype=np.uint64), theta)
        if table is None:
            pad, decode = (0, None) if roots is None else (roots.size, np.append(roots, 0j))
            table = np.empty(x + 1 - k0, codes.dtype if roots is None else np.uint16 if pad < 2**16 else np.uint32)
        table[a - k0 : a - k0 + codes.size] = codes
    largest = max((min(M, x) - M // q) * (x // (M // q + 1) - x // (q * min(M, x))) for M in Ms)
    out = np.empty(0 if roots is None else largest, dtype=np.complex128)
    for M in Ms:
        m = np.arange(M // q + 1, min(M, x) + 1, dtype=np.int64)  # larger m have no n
        lo, size = x // (q * m) + 1, x // m - x // (q * m)
        codes = _strided_rows(table, k0, m, lo, size, pad)
        block = codes if roots is None else out[: codes.size].reshape(codes.shape)
        for chunk in () if roots is None else _row_chunks(*codes.shape):
            decode.take(codes[chunk], out=block[chunk])
        del codes  # before the block is used
        yield size, block
        del block  # before the next block is built


def vaughan_probe(x: int, q: int, f: StronglyQMultiplicative, theta: float) -> VaughanProbe:
    """Evaluate the two sum families feeding the combinatorial identity.

    g(k) = f(k^2) e(theta k) is tabulated once on (x/q, x], where every mn
    lies: 2 (x - x//q) bytes of numerators mod D where it is gathered (4 at
    D = 2**16), else 16.  Each q-adic M is one padded row block of strided
    slices of it (_probe_blocks): row m in (M/q, M] holds x/(qm) < n <= x/m.

    * type I (M <= x**BETA1): per m the maximum over all suffix intervals
      (t, x/m] is scanned exactly via cumulative sums along the padded row.
    * type II (x**BETA1 <= M <= x**(1-BETA1)): the supremum over unimodular
      coefficients is lower-bounded by alternating phase alignment, two
      rounds of (align a_m, align b_n) from the deterministic start a = 1.
      The attained value never decreases along the alignment history.
    * fitted_C = |Lambda sum| / (U log^2 x) with U the larger of the two
      maxima; the Lambda sum runs over x/q < n <= x.  x above LAMBDA_SUM_CAP
      is refused before the table is built.
    """
    if x < q * q:
        raise PreconditionError(f"need x >= q^2, got x={x}")
    _check_lambda_x(x)

    type1_max = type2_max = 0.0
    type1_arg = type2_arg = pair_count = 0
    history: tuple[float, ...] = ()
    Ms = [q**j for j in range(1, int(x).bit_length()) if q**j <= x ** (1.0 - BETA1)]  # type I too: BETA1 < 1/3
    for M, (size, dense) in zip(Ms, _probe_blocks(f, x, q, theta, Ms)):
        if M <= x**BETA1:
            value = _suffix_max_sum(dense)
            if value > type1_max:
                type1_max, type1_arg = value, M
        if M >= x**BETA1:
            value, hist = _align_bilinear(dense)
            if value > type2_max:
                type2_max, type2_arg, history, pair_count = value, M, hist, int(size.sum())
        del dense  # before the next block is built

    to_x, to_x_over_q = _lambda_sums([x, x // q], f, theta)
    lam_sum = to_x - to_x_over_q
    U = max(type1_max, type2_max)
    fitted_C = abs(lam_sum) / (U * math.log(x) ** 2) if U > 0 else math.inf
    return VaughanProbe(
        x=x,
        q=q,
        beta1=BETA1,
        type1_max=type1_max,
        type1_argmax_M=type1_arg,
        type2_max=type2_max,
        type2_argmax_M=type2_arg,
        type2_alignment_history=history,
        type2_pair_count=pair_count,
        lambda_sum=lam_sum,
        fitted_C=fitted_C,
    )


def _align_bilinear(dense: np.ndarray) -> tuple[float, tuple[float, ...]]:
    """Two rounds of alternating phase alignment from a = 1.

    dense is a row block of _strided_rows, one row per m on the n-grid that
    b_n shares; the zero padding adds nothing to either matvec.
    Returns (final value, value history).
    """
    b = np.ones(dense.shape[1], dtype=np.complex128)
    history = []
    for _ in range(2):
        row = dense @ b  # inner n-sums given b
        a = np.conj(_unit_phases(row))
        history.append(float(abs(np.sum(a * row))))
        col = dense.T @ a  # inner m-sums given a
        b = np.conj(_unit_phases(col))
        history.append(float(abs(np.sum(b * col))))
    return history[-1], tuple(history)


def _unit_phases(z: np.ndarray) -> np.ndarray:
    mags = np.abs(z)
    safe = np.where(mags > 0, mags, 1.0)
    return np.where(mags > 0, z / safe, 1.0)
