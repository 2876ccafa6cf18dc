"""Fourier transforms of strongly q-multiplicative functions.

For a window length ``lam`` the normalized transform is

    F_lam(t) = q**(-lam) * sum_{0 <= u < q**lam} f(u) e(-t*u / q**lam),

periodic in ``t`` with period ``q**lam``.  Because ``f`` is strongly
q-multiplicative, ``F_lam`` factors into single-digit transforms,

    F_lam(t) = prod_{l=0}^{lam-1} F_1(t / q**l),

which both the table builder and the continuous evaluator exploit.

Two spectral constants drive every estimate downstream:

* ``c``   from  max_t |F_1(t) F_1(q t)| = q**(-2c), the decay exponent of
  the sup norm of ``F_lam``;
* ``eta`` from  max_t Psi_q(t) = q**eta  with
  Psi_q(t) = sum_{r<q} |F_1(q t + r)|, the growth exponent of L1 sums.

Both maxima are located by a deterministic dense grid followed by
golden-section refinement, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .errors import CapacityError, DomainError, PreconditionError
from .qmult import StronglyQMultiplicative, _circle_distance, _digit_step, frac, is_proper, make_digit_exponential

TABLE_CAPACITY = 1 << 24
GRID_DENSITY = 4096
MAX_CONSTANTS_Q = TABLE_CAPACITY // GRID_DENSITY  # largest q whose constants grid fits
REFINE_TOL = 1e-10


def _table_points(q: int, lam: int) -> int:
    """q**lam, refused above TABLE_CAPACITY."""
    qlam = q**lam
    if qlam > TABLE_CAPACITY:
        raise CapacityError(f"q**lam = {qlam} exceeds table capacity {TABLE_CAPACITY}")
    return qlam


def eval_F1(f: StronglyQMultiplicative, t) -> np.ndarray | complex:
    """F_1(t) = (1/q) sum_u f(u) e(-t*u/q), vectorized over t."""
    arr = np.asarray(t, dtype=np.float64)
    w = np.exp(-2j * math.pi * arr / f.q)
    vals = f.digit_values
    acc = np.full(arr.shape, vals[f.q - 1], dtype=np.complex128)
    for u in range(f.q - 2, -1, -1):
        acc *= w
        acc += vals[u]
    acc /= f.q
    if np.isscalar(t) or arr.shape == ():
        return complex(acc)
    return acc


def eval_F(f: StronglyQMultiplicative, lam: int, t) -> np.ndarray | complex:
    """F_lam(t) by the single-digit product formula, vectorized over t."""
    if lam < 0:
        raise ValueError(f"window length must be >= 0, got {lam}")
    arr = np.asarray(t, dtype=np.float64)
    out = np.ones(arr.shape, dtype=np.complex128)
    for level in range(lam):
        out *= eval_F1(f, arr / f.q**level)
    if np.isscalar(t) or arr.shape == ():
        return complex(out)
    return out


def build_table(f: StronglyQMultiplicative, lam: int) -> np.ndarray:
    """F_lam(h) for the integers h in [0, q**lam), by the product recursion.

    Level l multiplies the (periodically extended) level l-1 table by
    F_1(h / q**(l-1)); total work O(lam * q**lam).
    """
    if lam < 0:
        raise ValueError(f"window length must be >= 0, got {lam}")
    _table_points(f.q, lam)
    values = np.ones(1, dtype=np.complex128)
    for level in range(1, lam + 1):
        h = np.arange(f.q**level, dtype=np.float64)
        values = np.tile(values, f.q) * eval_F1(f, h / f.q ** (level - 1))
    return values


SWEEP_BLOCK = 1 << 16  # entries of a quadratic-mean level per numpy call


def _angle_table(lo: int, hi: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(pi a / n), sin(pi a / n) for lo <= a < hi."""
    ang = np.pi * np.arange(lo, hi, dtype=np.float64) / n
    return np.cos(ang), np.sin(ang)


def _centered(x: float) -> float:
    """x reduced mod 2 to [-1, 1], so pi * x stays within [-pi, pi]."""
    return x - 2.0 * round(x / 2.0)


def _shifted_sin(sin_x, cos_x, table: tuple[np.ndarray, np.ndarray], out: np.ndarray) -> np.ndarray:
    """sin(x - pi a/n) over the tabled a, by angle addition, written to out.

    sin_x and cos_x are scalars, or columns with one x per row of out.
    """
    cos_a, sin_a = table
    np.multiply(cos_a, sin_x, out=out)
    out -= sin_a * cos_x
    return out


def _digit_exp_rows(q: int, gamma: float, t: float, level: int, lo: int, hi: int, prev: np.ndarray):
    """Closed form |F_1(s)|^2 = (sin(pi q y) / (q sin(pi y)))^2, y = gamma - s/q.

    The numerator sin^2(pi (q gamma - (t+a)/m)), a = b*m + k, and the
    previous partial products depend on k only, so they are formed once
    for the block's k in [lo, hi) and shared by its rows.  Row b divides
    them by den^2, den = sin(pi x_b - pi k/n) with x_b = gamma - t/n - b/q
    (sin first, then squared, so the relative error stays ~1 ulp right
    where the Dirichlet ratio amplifies it).  Every scalar offset is
    reduced to [-1, 1] before it is multiplied by pi: offsets formed or
    reduced any other way lose the 1e-13 accuracy of the sums.
    """
    m = q**level
    n = q * m
    x = math.pi * _centered(q * gamma - t / m)
    weight = _shifted_sin(math.sin(x), math.cos(x), _angle_table(lo, hi, m), np.empty(hi - lo))
    np.square(weight, out=weight)
    weight *= 1.0 / (q * q)
    weight *= prev
    den_table = _angle_table(lo, hi, n)

    def rows(b0: int, b1: int, out: np.ndarray) -> None:
        xs = [math.pi * _centered(gamma - t / n - b / q) for b in range(b0, b1)]
        sin_x = np.array([math.sin(x_b) for x_b in xs])[:, None]
        cos_x = np.array([math.cos(x_b) for x_b in xs])[:, None]
        den = _shifted_sin(sin_x, cos_x, den_table, out)
        limit = np.square(den, out=den) < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(weight, den, out=den)
        # Dirichlet-kernel limit |F_1| -> 1 at integer argument
        np.copyto(den, prev, where=limit)

    return rows


def _generic_rows(
    f: StronglyQMultiplicative, t: float, level: int, lo: int, hi: int, prev: np.ndarray
):
    """|F_1((t+a)/q**level)|^2 by eval_F1, a = b*m + k, for f with no closed form."""
    m = f.q**level
    k = np.arange(lo, hi, dtype=np.float64)

    def rows(b0: int, b1: int, out: np.ndarray) -> None:
        a = m * np.arange(b0, b1, dtype=np.float64)[:, None] + k
        np.multiply(prev, np.abs(eval_F1(f, (t + a) / m)) ** 2, out=out)

    return rows


def _level_sweep(q: int, lam: int, block_rows) -> list[float]:
    """[S_1, ..., S_lam] by the tiled product recursion, in bounded blocks.

    Level l has n = q*m entries a = b*m + k (row b < q, k < m = q**l); entry
    a of its partial products is the previous level's entry k times
    |F_1((t+a)/m)|^2.  The level is walked in blocks of at most SWEEP_BLOCK
    entries: k in [lo, hi) of width min(m, SWEEP_BLOCK), and as many whole
    rows as fit when m is smaller.  ``block_rows(level, lo, hi, prev)``
    forms what the block's rows share and returns ``rows(b0, b1, out)``,
    which writes the products of rows b0 <= b < b1 to out.  Every
    temporary is one block long; only the previous level's products and
    the ones being built are level-sized, and the last level keeps only its
    sums.  Each row sum adds its block sums in k order and S_l adds the
    row sums in row order, so a level whose m fits in one block is summed
    exactly as one full row at a time.
    """
    sums: list[float] = []
    prev = np.ones(1, dtype=np.float64)
    for level in range(lam):
        m = q**level
        width = min(m, SWEEP_BLOCK)
        height = max(1, SWEEP_BLOCK // m)
        last = level == lam - 1
        products = np.empty((height, width) if last else (q, m), dtype=np.float64)
        row_sums = np.zeros(q, dtype=np.float64)
        for lo in range(0, m, width):
            hi = min(lo + width, m)
            rows = block_rows(level, lo, hi, prev[lo:hi])
            for b0 in range(0, q, height):
                b1 = min(b0 + height, q)
                out = products[: b1 - b0, : hi - lo] if last else products[b0:b1, lo:hi]
                rows(b0, b1, out)
                row_sums[b0:b1] += out.sum(axis=1)
        sums.append(float(np.cumsum(row_sums)[-1]))  # sequential, in row order, unlike sum()
        del rows  # it holds a slice of prev, which would keep all of prev alive
        prev = products.reshape(-1)
    return sums


def quadratic_mean(f: StronglyQMultiplicative, lam: int, t: float) -> list[float]:
    """[S_1, ..., S_lam] with S_l = sum_{0<=h<q**l} |F_l(t+h)|**2.

    Uses the tiled product structure: the factor |F_1((t+h)/q**j)|**2
    depends only on h mod q**(j+1), so all S_l for l <= lam come out of one
    blocked sweep (``_level_sweep``) that holds two levels of partial
    products and block-long temporaries, and keeps nothing between calls.
    Digit exponentials take the factor from the closed Dirichlet form of
    |F_1|^2; everything else from eval_F1.  The two formulas agree to
    machine precision (cross-checked level by level in the tests).
    """
    q = f.q
    _table_points(q, lam)
    t = t % 1.0  # S_l has exact period 1; reduction keeps every phase small
    gamma = _digit_step(f)
    if gamma is not None:
        return _level_sweep(q, lam, partial(_digit_exp_rows, q, float(gamma), t))
    return _level_sweep(q, lam, partial(_generic_rows, f, t))


@dataclass(frozen=True)
class SpectralConstants:
    """The decay exponent c and the L1-growth exponent eta of f."""

    c: float
    eta: float
    argmax_c: float
    argmax_eta: float
    grid_size: int


def _golden_max(fun, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximum of a unimodal-enough fun on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
    xm = 0.5 * (a + b)
    return xm, fun(xm)


def _grid_refine_max(fun_vec, lo: float, hi: float, n: int) -> tuple[float, float]:
    """Dense-grid scan followed by golden-section refinement."""
    grid = np.linspace(lo, hi, n, endpoint=False)
    vals = fun_vec(grid)
    i = int(np.argmax(vals))
    step = (hi - lo) / n
    a = max(lo, grid[i] - step)
    b = min(hi, grid[i] + step)
    x, v = _golden_max(lambda s: float(fun_vec(np.array([s]))[0]), a, b, REFINE_TOL)
    if vals[i] > v:
        return float(grid[i]), float(vals[i])
    return x, v


def psi_q(f: StronglyQMultiplicative, t) -> np.ndarray:
    """Psi_q(t) = sum_{0<=r<q} |F_1(q t + r)|, vectorized over t."""
    arr = np.asarray(t, dtype=np.float64)
    total = np.zeros(arr.shape, dtype=np.float64)
    for r in range(f.q):
        total += np.abs(eval_F1(f, f.q * arr + r))
    return total


def constants_grid_size(q: int) -> int:
    """GRID_DENSITY*q, the grid of compute_constants at base q, refused above
    TABLE_CAPACITY (q > MAX_CONSTANTS_Q) before any f is needed."""
    if q > MAX_CONSTANTS_Q:
        raise CapacityError(
            f"q = {q} exceeds {MAX_CONSTANTS_Q}: the {GRID_DENSITY}*q grid outgrows "
            f"table capacity {TABLE_CAPACITY}"
        )
    return GRID_DENSITY * q


@lru_cache(maxsize=32)
def compute_constants(f: StronglyQMultiplicative) -> SpectralConstants:
    """c from max |F_1(t) F_1(qt)|, eta from max Psi_q; grid + refinement.

    Raises CapacityError before any allocation when the grid of
    constants_grid_size is refused, and then DomainError for improper f
    (there the maximum is 1 and c would degenerate to 0).
    """
    q = f.q
    n = constants_grid_size(q)
    if not is_proper(f):
        raise DomainError("constants are only defined for proper functions")

    def g_vec(ts: np.ndarray) -> np.ndarray:
        return np.abs(eval_F1(f, ts)) * np.abs(eval_F1(f, q * ts))

    # the product is q-periodic in t; assert rather than assume
    probe = np.linspace(0.0, float(q), 17)
    if np.max(np.abs(g_vec(probe) - g_vec(probe + q))) > 1e-9:
        raise AssertionError("|F_1(t) F_1(qt)| failed the period-q check")

    t_c, g_max = _grid_refine_max(g_vec, 0.0, float(q), n)
    c = -math.log(g_max) / (2.0 * math.log(q))

    t_eta, psi_max = _grid_refine_max(lambda ts: psi_q(f, ts), 0.0, 1.0, n)
    eta = math.log(psi_max) / math.log(q)
    return SpectralConstants(c=c, eta=eta, argmax_c=t_c, argmax_eta=t_eta, grid_size=n)


def c_lower_bound_digit_sum(q: int, gamma: Fraction | float) -> float:
    """pi^2 (q-1) / (12 (q+1) log q) * ||(q-1) gamma||^2."""
    dist = _circle_distance((q - 1) * gamma)
    return math.pi**2 * (q - 1) / (12.0 * (q + 1) * math.log(q)) * dist**2


def eta_upper_bound_digit_sum(q: int) -> float:
    """(1/log q) (2 / (q sin(pi/2q)) + (2/pi) log(2q/pi))."""
    return (
        2.0 / (q * math.sin(math.pi / (2 * q))) + (2.0 / math.pi) * math.log(2 * q / math.pi)
    ) / math.log(q)


def l1_masked_sum(
    f: StronglyQMultiplicative, lam: int, delta: int, a: int, t: float
) -> tuple[float, float]:
    """L1 mass of F_lam on a residue class against its single-class bound.

    value = sum over 0 <= h < q**lam with h = a mod q**delta of |F_lam(t+h)|,
    bound = q**(eta*(lam-delta)) * |F_delta(t+a)|.
    """
    if not 0 <= delta <= lam:
        raise PreconditionError(f"need 0 <= delta <= lam, got ({delta}, {lam})")
    q = f.q
    _table_points(q, lam)
    h = a % q**delta + q**delta * np.arange(q ** (lam - delta), dtype=np.float64)
    value = float(np.sum(np.abs(eval_F(f, lam, t + h))))
    eta = compute_constants(f).eta
    bound = q ** (eta * (lam - delta)) * abs(eval_F(f, delta, t + a))
    return value, float(bound)


def digit_sum_decay_bound(
    q: int, gamma: Fraction | float, kappa1: int, kappa2: int, t: float
) -> tuple[float, float]:
    """|F| of the digit exponential against its explicit exponential bound.

    value = |F_{kappa2-kappa1}(t)| for f = e(gamma * s_q),
    bound = exp(pi^2/48 - (kappa2-kappa1) * pi^2 (q-1)/(12(q+1)) * ||(q-1)gamma||^2).
    """
    f = make_digit_exponential(q, gamma)
    lam = kappa2 - kappa1
    value = abs(eval_F(f, lam, t))
    dist = _circle_distance((q - 1) * gamma)
    bound = math.exp(
        math.pi**2 / 48.0 - lam * math.pi**2 * (q - 1) / (12.0 * (q + 1)) * dist**2
    )
    return float(value), float(bound)


@lru_cache(maxsize=32)
def max_abs_F(f: StronglyQMultiplicative, lam: int) -> float:
    """max over real t of |F_lam(t)| by dense grid plus refinement, cached
    per (f, lam) like compute_constants: the almost-AP bound asks for the
    same few windows many times."""
    if lam == 0:
        return 1.0
    period = float(f.q**lam)
    n = min(GRID_DENSITY * f.q * lam, 1 << 22)

    def fun_vec(ts: np.ndarray) -> np.ndarray:
        return np.abs(eval_F(f, lam, ts))

    # the step q**lam / n reaches 4/3 at q = 8, wider than a lobe of |F_1|: scan the 8
    # best points' neighbourhoods 32 times finer, so that the refined lobe is the highest
    grid = np.linspace(0.0, period, n, endpoint=False)
    step = period / n
    best = grid[np.argsort(fun_vec(grid))[-8:]]
    fine = fun_vec((best[:, None] + step * np.linspace(-1.0, 1.0, 64, endpoint=False)).ravel())
    t = best[np.argmax(fine.reshape(8, 64).max(axis=1))]
    return _grid_refine_max(fun_vec, t - step, t + step, 64)[1]


def almost_ap_l2_sum(
    f: StronglyQMultiplicative, kappa1: int, kappa2: int, A: float, B: float
) -> tuple[float, float]:
    """L2 mass of F along the almost arithmetic progression floor(k*A) + B.

    value = sum_{0 <= k < q**lam / A} |F_lam(floor(k A) + B)|^2  (lam the
    window length), bound = (3q-2)/(q-1) * max_t |F_alpha(t)|^2 where alpha
    is the integer with q**alpha <= A < q**(alpha+1).
    """
    q = f.q
    lam = kappa2 - kappa1
    if not 1.0 <= A < float(q**lam):
        raise DomainError(f"need 1 <= A < q**lam, got A={A}")
    alpha = 0
    while q ** (alpha + 1) <= A:
        alpha += 1
    if alpha >= lam:
        raise DomainError(f"need q**alpha <= A with alpha < window, got alpha={alpha}")
    qlam = _table_points(q, lam)
    count = int(math.ceil(qlam / A))
    k = np.arange(count, dtype=np.float64)
    points = np.floor(k * A) + B
    value = float(np.sum(np.abs(eval_F(f, lam, points)) ** 2))
    bound = (3.0 * q - 2.0) / (q - 1.0) * max_abs_F(f, alpha) ** 2
    return value, bound


def large_sieve_sum(
    f: StronglyQMultiplicative,
    kappa1: int,
    kappa2: int,
    nodes: list[float],
    delta: float,
) -> tuple[float, float]:
    """L2 mass of F at delta well-spaced nodes against the large-sieve bound.

    value = sum_n |F_lam(q**lam * t_n)|^2, bound = 1 + 1/(delta * q**lam).
    Raises PreconditionError unless the nodes are pairwise delta-spaced
    modulo 1 and 0 < delta <= 1/2.
    """
    if not 0.0 < delta <= 0.5:
        raise PreconditionError(f"need 0 < delta <= 1/2, got {delta}")
    lam = kappa2 - kappa1
    pts = np.sort(frac(np.asarray(nodes, dtype=np.float64)))
    if len(pts) > 1:
        gaps = np.diff(pts)
        wrap = 1.0 - pts[-1] + pts[0]
        if min(gaps.min(), wrap) < delta - 1e-12:
            raise PreconditionError("nodes are not delta well-spaced modulo 1")
    qlam = float(f.q**lam)
    value = float(np.sum(np.abs(eval_F(f, lam, qlam * np.asarray(nodes, dtype=np.float64))) ** 2))
    bound = 1.0 + 1.0 / (delta * qlam)
    return value, bound
