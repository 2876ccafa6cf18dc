"""Top-level experiments: digital sums along squares of primes.

The centerpiece sums are

    S(x)      = sum_{n <= x} Lambda(n) f(n^2) e(theta n)            (decay)
    S_20      = sum_m sum_n a_m b_n f(m^2 n^2) e(theta m n)         (type II)
    S_I       = sum_m |sum_{n in I(m)} f(m^2 n^2) e(theta m n)|     (type I)

together with the residue counts of s_q(p^2) mod m over primes.  All big
sweeps run on one blocked digit-additive kernel (uint64, k digits per table
lookup, rational phases as exact numerators mod D) with numpy's pairwise
reduction; identical inputs therefore give bitwise identical reports.  A
numerator k becomes e(k/D) by one division and exp, or, with no twist and
D <= DIGIT_TABLE_CAP, by a lookup in a table of the D roots of unity built
from the same k/D, so both give the same bits.  Every
bilinear sum reads a zero-padded (m, n) block of g(mn) = f((mn)^2) e(theta mn).
The q-adic rectangle of type_sums takes one kernel call per KERNEL_BLOCK
pairs and is reduced three ways (S_20, S_I and its suffix maximum).  The
Vaughan probe evaluates g once on (x/q, x], where all its products lie, and
copies each row of each q-adic block as a strided slice of that table.

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

import numpy as np

from .digits import checked_pow
from .errors import CapacityError, PreconditionError
from .qmult import StronglyQMultiplicative, _cached_numerators, frac
from .sieve import prime_arrays

LAMBDA_SUM_CAP = 10**8
TYPE_SUM_CAP = 1 << 26
EQUIDIST_BIN_CAP = 1 << 16  # the report lists every residue count
BETA1 = 0.2  # the Vaughan probe's type I / type II split; below 1/3


# The digit kernel reads k base-q digits per pass from a table of the q**k
# digit-block weight sums (the largest k with q**k <= DIGIT_TABLE_CAP, at least
# 1), over blocks of KERNEL_BLOCK values so that its temporaries stay small.
# At most 64 passes each add an entry below D, so the exact int64 numerator
# sums of rational phases stay below 2**63 while D < EXACT_DENOM_LIMIT.
DIGIT_TABLE_CAP = 1 << 16
KERNEL_BLOCK = 1 << 16
EXACT_DENOM_LIMIT = 1 << 57


def _block_table(weights: np.ndarray, modulus: int | float | None) -> tuple[np.ndarray, int]:
    """(table, q**k): table[j] is the weight sum (mod modulus) of the k base-q digits of j."""
    table, size, q = weights, len(weights), len(weights)
    while size * q <= DIGIT_TABLE_CAP:
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
        denom, nums = _cached_numerators(f)
        if denom < EXACT_DENOM_LIMIT:
            return (*_block_table(np.array(nums, dtype=np.int64), denom), denom)
    return (*_block_table(np.array([float(p) for p in f.phases]), 1.0), 1.0)


def _remainder(x: np.ndarray, d: int | float | np.uint64) -> np.ndarray:
    """x % d by floor division and a multiply-subtract, for an array x and a
    scalar d: numpy's // is several times faster than its % or divmod, and
    floors, so this equals % on signed values too."""
    return x - (x // d) * d


def _digit_additive(values: np.ndarray, table: np.ndarray | None, size: int) -> np.ndarray:
    """Sum of table[d] (of d for table None) over the base-`size` digits d of each value."""
    flat = np.asarray(values, dtype=np.uint64).reshape(-1)
    out = np.empty(flat.shape, dtype=np.uint64 if table is None else table.dtype)
    radix = np.uint64(size)
    for start in range(0, flat.size, KERNEL_BLOCK):
        high = flat[start : start + KERNEL_BLOCK]
        acc = out[start : start + KERNEL_BLOCK]
        top = int(high.max())  # one pass per digit of the largest value
        acc[:] = 0
        while True:
            rest = high // radix
            low = high - rest * radix
            acc += low if table is None else table.take(low.view(np.int64))  # int64 gathers faster
            high, top = rest, top // size
            if not top:
                break
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


def _twisted_square(f: StronglyQMultiplicative, n: np.ndarray, theta: float) -> np.ndarray:
    """f(n^2) e(theta n) at a uint64 array n; theta is reduced mod 1 first
    (exactly), so that theta * n keeps the digits of the phase.  Untwisted
    exact phases over a denominator D <= DIGIT_TABLE_CAP are gathered from
    the D roots of unity instead of an exp per element."""
    theta = math.fmod(theta, 1.0)
    if theta == 0.0:
        nums, modulus = _phase_numerators(f, n * n)
        if isinstance(modulus, int) and modulus <= DIGIT_TABLE_CAP:
            return _root_table(modulus).take(nums)
        phases = nums / modulus
    else:  # through phase_array, which the benchmark's per-layer trace times
        phases = phase_array(f, n * n)
        phases += frac(theta * n.astype(np.float64))
    return np.exp(2j * np.pi * phases)


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
    """Stream primes, bin s_q(p^2) mod m, report the discrepancy."""
    if q < 2 or m < 2:
        raise ValueError(f"need q >= 2 and m >= 2, got ({q}, {m})")
    if m > EQUIDIST_BIN_CAP:
        raise CapacityError(f"m = {m} residue bins exceed the bin cap {EQUIDIST_BIN_CAP}")
    counts = np.zeros(m, dtype=np.int64)
    for arr in prime_arrays(x):
        p = arr.astype(np.uint64)
        s = digit_sums_array(p * p, q)
        counts += np.bincount(_remainder(s, np.uint64(m)).astype(np.int64), minlength=m)
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

    Only prime powers contribute.  Primes are handled in vectorized blocks of
    KERNEL_BLOCK, each weighted once; an x whose cut falls inside a block
    takes the sum of the block's first terms, so every x adds exactly what a
    stream up to x alone would add, in the same order.  The higher powers
    p**k (p <= sqrt x) follow per x, one exponent k at a time.
    """
    if max(xs) > LAMBDA_SUM_CAP:
        raise CapacityError(f"x = {max(xs)} exceeds the cap {LAMBDA_SUM_CAP}")
    totals = [0.0 + 0.0j] * len(xs)
    for arr in prime_arrays(max(xs)):
        for start in range(0, len(arr), KERNEL_BLOCK):
            p = arr[start : start + KERNEL_BLOCK]
            w = np.log(p.astype(np.float64)) * _twisted_square(f, p.astype(np.uint64), theta)
            for i, k in enumerate(np.searchsorted(p, xs, side="right").tolist()):
                if k:  # the first k terms are those up to xs[i]
                    totals[i] += complex(np.sum(w[:k]))
    for i, x in enumerate(xs):
        for arr in prime_arrays(math.isqrt(x)):
            p = arr.astype(np.uint64)
            logp, pk = np.log(arr.astype(np.float64)), p * p
            while p.size:
                totals[i] += complex(np.sum(logp * _twisted_square(f, pk, theta)))
                keep = pk <= x // p
                p, logp, pk = p[keep], logp[keep], pk[keep] * p[keep]
    return totals


@dataclass(frozen=True)
class DecayFit:
    """|S(x)|/x along increasing x with a fitted log-log slope."""

    xs: tuple[int, ...]
    values: tuple[float, ...]
    fitted_exponent: float


def decay_fit(xs: list[int], f: StronglyQMultiplicative, theta: float) -> DecayFit:
    """Least-squares slope of log(|S(x)|/x) against log x; negative means power saving."""
    if len(xs) < 3:
        raise PreconditionError(f"need at least 3 x values, got {len(xs)}")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise PreconditionError("xs must be strictly increasing")
    values = [abs(s) / x for s, x in zip(_lambda_sums(xs, f, theta), xs)]
    slope = float(np.polyfit(np.log(np.array(xs, dtype=float)), np.log(values), 1)[0])
    return DecayFit(xs=tuple(xs), values=tuple(values), fitted_exponent=slope)


def _rectangle(
    m: np.ndarray, n: np.ndarray, f: StronglyQMultiplicative, theta: float
) -> np.ndarray:
    """Dense g(mn) = f((mn)^2) e(theta mn) on the grid of uint64 arrays m x n,
    filled in place by one kernel call per KERNEL_BLOCK pairs, across row ends."""
    dense = np.empty((m.size, n.size), dtype=np.complex128)
    for a in range(0, dense.size, KERNEL_BLOCK):
        k = np.arange(a, min(a + KERNEL_BLOCK, dense.size))
        dense.reshape(-1)[a : a + k.size] = _twisted_square(f, m[k // n.size] * n[k % n.size], theta)
    return dense


def _strided_rows(
    g: np.ndarray, k0: int, m: np.ndarray, lo: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """Dense g(mn) for int64 rows m from the table g[k - k0] = g(k): row i
    holds n = lo[i], ..., lo[i] + size[i] - 1, zero-padded on the n-grid the
    rows share, and is the table's slice with stride m[i] from k = m[i] lo[i]."""
    n_min = int(lo.min())
    dense = np.zeros((m.size, int((lo + size).max()) - n_min), dtype=np.complex128)
    for row, mi, n0, count in zip(dense, m.tolist(), lo.tolist(), size.tolist()):
        row[n0 - n_min : n0 - n_min + count] = g[mi * n0 - k0 : mi * (n0 + count) - k0 : mi]
    return dense


def _rows_total(dense: np.ndarray, per_row) -> float:
    """sum over rows of per_row(rows), added in row order; per_row sees
    chunks of consecutive rows of at most KERNEL_BLOCK elements (one row at
    least), so its temporaries stay small."""
    step = max(1, KERNEL_BLOCK // dense.shape[1])
    values = np.concatenate([per_row(dense[i : i + step]) for i in range(0, len(dense), step)])
    return float(np.cumsum(values)[-1])  # cumsum adds in order, one row after another


def _suffix_max_sum(dense: np.ndarray) -> float:
    """sum over rows of max_t |row[t] + ... + row[-1]|, added in row order."""
    return _rows_total(dense, lambda c: np.max(np.abs(np.cumsum(c[:, ::-1], axis=1)), axis=1))


def rectangle_shape(q: int, mu: int, nu: int) -> tuple[int, int]:
    """(rows, cols) of the q-adic rectangle [q**(mu-1), q**mu) x [q**(nu-1), q**nu),
    refused above TYPE_SUM_CAP before any coefficient or row is drawn."""
    if checked_pow(q, mu + nu) > TYPE_SUM_CAP:
        raise CapacityError(f"q**(mu+nu) exceeds the exact-evaluation cap {TYPE_SUM_CAP}")
    return q**mu - q ** (mu - 1), q**nu - q ** (nu - 1)


def type_sums(
    mu: int,
    nu: int,
    q: int,
    f: StronglyQMultiplicative,
    theta: float,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[complex, float, float]:
    """(S20, SI, SI_max) over the q-adic rectangle of rectangle_shape, with
    g(mn) = f(m^2 n^2) e(theta m n) built once as one dense block:

    * S20    = sum_m sum_n a_m b_n g(mn), the exact bilinear (type II) sum;
    * SI     = sum_m |sum_n g(mn)|, the type I sum over full inner intervals;
    * SI_max = sum_m max_t |sum_{t < n < q**nu} g(mn)|, the inner sum replaced
      by its maximum over all suffix intervals: it only changes at integer
      endpoints, so scanning every cumulative suffix sum is exact.
    """
    rows, cols = rectangle_shape(q, mu, nu)
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if len(a) != rows or len(b) != cols:
        raise ValueError(f"coefficient lengths must match the rectangle: need ({rows}, {cols})")
    if np.max(np.abs(a)) > 1 + 1e-12 or np.max(np.abs(b)) > 1 + 1e-12:
        raise ValueError("coefficients must have modulus at most 1")
    m = np.arange(q ** (mu - 1), q**mu, dtype=np.uint64)
    g = _rectangle(m, np.arange(q ** (nu - 1), q**nu, dtype=np.uint64), f, theta)
    s20 = complex(np.sum(a[:, None] * b[None, :] * g))
    # hypot rounds as Python's abs(complex) does; numpy's complex abs does not
    si = _rows_total(g, lambda c: np.hypot((s := c.sum(axis=1)).real, s.imag))
    return s20, si, _suffix_max_sum(g)


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


def vaughan_probe(x: int, q: int, f: StronglyQMultiplicative, theta: float) -> VaughanProbe:
    """Evaluate the two sum families feeding the combinatorial identity.

    g(k) = f(k^2) e(theta k) is evaluated once on (x/q, x], where every mn
    lies, a table of 16 (x - x//q) bytes.  Each q-adic M is one zero-padded
    row block of its strided slices (_strided_rows): row m in (M/q, M] holds
    x/(qm) < n <= x/m.

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
    if x > LAMBDA_SUM_CAP:
        raise CapacityError(f"x = {x} exceeds the cap {LAMBDA_SUM_CAP}")

    type1_max = type2_max = 0.0
    type1_arg = type2_arg = pair_count = 0
    history: tuple[float, ...] = ()
    k0 = x // q + 1
    g = _twisted_square(f, np.arange(k0, x + 1, dtype=np.uint64), theta)
    M = q
    while M <= x ** (1.0 - BETA1):  # covers every type I block, as BETA1 < 1/3
        m = np.arange(M // q + 1, min(M, x) + 1, dtype=np.int64)  # larger m have no n
        lo, size = x // (q * m) + 1, x // m - x // (q * m)  # x/(qm) < n <= x/m
        dense = _strided_rows(g, k0, m, lo, size)
        if M <= x**BETA1:
            value = _suffix_max_sum(dense)
            if value > type1_max:
                type1_max, type1_arg = value, M
        if M >= x**BETA1:
            value, hist = _align_bilinear(dense)
            if value > type2_max:
                type2_max, type2_arg, history, pair_count = value, M, hist, int(size.sum())
        del dense  # before the next block is built
        M *= q
    del g  # before the Lambda sweep

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
