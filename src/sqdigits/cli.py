"""Command-line frontend with machine-readable reports.

Subcommands::

    verify     run every explicit-constant lemma suite; exit 1 on violation
    constants  spectral constants c, eta with their closed-form bounds
    equidist   residue counts of s_q(p^2) mod m up to x
    expsum     bound reports for one named lemma family
    typesums   type I / type II sums with their parameter plans
    decay      |sum Lambda(n) f(n^2)| / x along a list of x values

Reports are JSON (schema ``report-v2``, validated by the shipped
``report_schema.json``) or CSV; identical config + seed produces byte
identical files.  gamma is accepted only as an exact rational string
("1/2", "3"); floating gamma would silently break the exact phase
arithmetic, so it is rejected at parse time.

Exit codes: 0 ok, 1 hard contract violated, 2 usage, 3 capacity.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import fourier, harness, sieve, vaaler
from . import expsums as xs
from .errors import CapacityError, DomainError, PreconditionError
from .expsums import _ratio
from .qmult import MAX_DIGIT_Q, StronglyQMultiplicative, _circle_distance, is_proper, make_digit_exponential

SCHEMA = "report-v2"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

_GAMMA_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")  # a nonzero denominator

EXPSUM_FAMILIES = (
    "geometric",
    "min-sum",
    "gauss-complete",
    "gauss-incomplete",
    "weyl",
    "gcd-average",
    "vdc",
    "second-derivative",
    "bilinear-mn2",
    "bilinear-xi2",
    "bilinear-m2n2",
)


# bilinear expsum family -> (frequency keyword of bilinear_quadratic_sum, its
# value, the power of |S/(MN)| that the bound controls, the bound)
BILINEAR_FAMILIES = {
    "bilinear-mn2": ("xi3", Fraction(1, 17), 2, xs.bound_mn2),
    "bilinear-xi2": ("xi2", Fraction(1, 17), 2, xs.bound_xi2),
    "bilinear-m2n2": ("xi4", Fraction(1, 101), 4, xs.bound_m2n2),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    q: int = 2
    m: int = 2
    gamma: str = "1/2"
    x: int = 10**6
    theta: float = 0.0
    seed: int = 1
    output_path: str = "-"
    format: str = "json"
    mu: int = 6
    nu: int = 10
    family: str = "geometric"
    xs_list: tuple[int, ...] = (10**4, 10**5, 10**6)

    def gamma_fraction(self) -> Fraction:
        return Fraction(self.gamma)


def _parse_gamma(text: str) -> str:
    if not _GAMMA_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"gamma must be an exact rational like 1/2 with a nonzero denominator, got {text!r}"
        )
    return text


def _checked(convert, valid, what: str):
    """An argparse type: convert, then reject values failing valid, naming what."""

    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}") from exc
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return value

    return parse


_parse_x = _checked(lambda text: int(float(text)), lambda x: x >= 2, "x must be >= 2")
_parse_theta = _checked(float, math.isfinite, "theta must be finite")
_parse_exponent = _checked(int, lambda k: k >= 1, "mu and nu must be >= 1")


def _parse_xs(text: str) -> tuple[int, ...]:
    return tuple(_parse_x(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqdigits",
        description="verification suites and experiments for digital functions along squares",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help_text: str) -> argparse.ArgumentParser:
        """A subparser with the common flags; a flag left out keeps its RunConfig default."""
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--q", type=int, help="base (>= 2)")
        p.add_argument("--gamma", type=_parse_gamma, help="exact rational phase step, e.g. 1/2")
        p.add_argument("--seed", type=int, help="seed for all randomized sweeps")
        p.add_argument("--output", dest="output_path", metavar="OUTPUT", help="report path, - for stdout")
        p.add_argument("--format", choices=("json", "csv"))
        return p

    subcommand("verify", "run every explicit-constant lemma suite")
    subcommand("constants", "spectral constants with closed-form bounds")

    p = subcommand("equidist", "counts of s_q(p^2) mod m")
    p.add_argument("--m", type=int)
    p.add_argument("--x", type=_parse_x)

    p = subcommand("expsum", "bound reports for a lemma family")
    p.add_argument("--family", choices=EXPSUM_FAMILIES)

    p = subcommand("typesums", "type I / type II sums and parameter plans")
    p.add_argument("--mu", type=_parse_exponent)
    p.add_argument("--nu", type=_parse_exponent)
    p.add_argument("--theta", type=_parse_theta)

    p = subcommand("decay", "Lambda-weighted decay trend")
    p.add_argument("--xs", type=_parse_xs, dest="xs_list", metavar="XS", help="comma-separated x values")
    p.add_argument("--theta", type=_parse_theta)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The flags of one subcommand; the fields it has no flag for keep their defaults."""
    return RunConfig(**vars(args))


def _check_row(suite: str, label: str, exact: float, bound: float, kind: str, tol: float) -> dict:
    """The report row of one verified instance: kind "upper" checks exact <= bound,
    kind "identity" checks exact == bound, each within tol."""
    if kind == "identity":
        passed = abs(exact - bound) <= tol
    else:
        passed = exact <= bound + tol
    return {"suite": suite, "label": label, "exact": exact, "bound": bound, "kind": kind,
            "ratio": _ratio(exact, bound), "pass": passed}


def _f_of(config: RunConfig) -> StronglyQMultiplicative:
    return make_digit_exponential(config.q, config.gamma_fraction())


# window-approx draws kappa1 <= WINDOW_KAPPA1_MAX, a window lam <= WINDOW_LAM_MAX
# and an offset a < q**(kappa1 + lam + 2); numpy draws int64, below 2**63
WINDOW_KAPPA1_MAX = 2
WINDOW_LAM_MAX = 4
# l1-masked draws lam <= L1_LAM_MAX and almost-ap lam <= ALMOST_AP_LAM_MAX; both
# need q**lam <= fourier.TABLE_CAPACITY
L1_LAM_MAX = 6
ALMOST_AP_LAM_MAX = 8


def check_config(config: RunConfig) -> None:
    """Refuse config before any work: the one place the CLI decides that.

    Raises PreconditionError or DomainError (exit 2) for input its subcommand
    does not accept, CapacityError (exit 3) for input above a cap.  The
    library keeps its own checks; this runs them, or compares against their
    caps, ahead of the first cost.
    """
    command, q = config.command, config.q
    if config.output_path != "-":
        out_dir = os.path.dirname(os.path.abspath(config.output_path))
        if not os.path.isdir(out_dir):
            raise PreconditionError(f"cannot write {config.output_path!r}: no directory {out_dir!r}")
    if q < 2:
        raise PreconditionError(f"base must be >= 2, got {q}")
    if config.seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {config.seed}")
    if command == "verify":
        draw_exponent = WINDOW_KAPPA1_MAX + WINDOW_LAM_MAX + 2
        if q**draw_exponent > 2**63:
            raise CapacityError(
                f"verify draws window offsets below q**{draw_exponent} = {q**draw_exponent}, "
                f"above the int64 draw cap 2**63"
            )
        table_exponent = max(L1_LAM_MAX, ALMOST_AP_LAM_MAX)
        if q**table_exponent > fourier.TABLE_CAPACITY:
            raise CapacityError(
                f"verify sums over q**lam points for lam up to {table_exponent}: "
                f"q**{table_exponent} = {q**table_exponent} exceeds table capacity "
                f"{fourier.TABLE_CAPACITY}"
            )
    elif command == "typesums":
        harness.rectangle_shape(q, config.mu, config.nu)
    elif command == "equidist":
        if config.m < 2:
            raise PreconditionError(f"need m >= 2, got {config.m}")
        if q >= 2**64:
            raise CapacityError(f"q = {q} exceeds 2**64 - 1, the largest base of the uint64 digit kernel")
        if config.m > harness.EQUIDIST_BIN_CAP:
            raise CapacityError(f"m = {config.m} residue bins exceed the bin cap {harness.EQUIDIST_BIN_CAP}")
        if config.x > sieve.PRIME_CAP:
            raise CapacityError(f"x = {config.x} exceeds the prime cap {sieve.PRIME_CAP}")
    elif command == "decay":
        xs_list = config.xs_list
        if len(xs_list) < 3 or any(b <= a for a, b in zip(xs_list, xs_list[1:])):
            raise PreconditionError(f"need at least 3 strictly increasing x values, got {xs_list}")
        if q > MAX_DIGIT_Q:
            raise CapacityError(f"q = {q} exceeds the digit function cap {MAX_DIGIT_Q}")
        if max(xs_list) > harness.LAMBDA_SUM_CAP:
            raise CapacityError(f"x = {max(xs_list)} exceeds the cap {harness.LAMBDA_SUM_CAP}")
    elif command not in ("constants", "expsum"):
        raise PreconditionError(f"unknown command {command!r}")
    if command in ("constants", "typesums") and q > fourier.MAX_CONSTANTS_Q:
        raise CapacityError(
            f"q = {q} exceeds {fourier.MAX_CONSTANTS_Q}: the {fourier.GRID_DENSITY}*q grid "
            f"of the constants outgrows table capacity {fourier.TABLE_CAPACITY}"
        )
    if command in ("verify", "typesums") and not is_proper(_f_of(config)):
        raise DomainError("constants are only defined for proper functions")


def _verify_rows(config: RunConfig) -> list[dict]:
    f = _f_of(config)
    q = config.q
    rng = np.random.default_rng(config.seed)
    rows: list[dict] = []

    lam_max = 1
    while q ** (lam_max + 1) <= 2**14:
        lam_max += 1
    for t in rng.random(5) * q:
        sums = fourier.quadratic_mean(f, lam_max, float(t))
        for lam, s in enumerate(sums, start=1):
            rows.append(_check_row("quadratic-mean", f"lam={lam} t={t:.4f}", s, 1.0, "identity", 1e-9))

    for U in (2, 3, 5, 8):
        for a in (0, 1, 3):
            total, tail = vaaler.aliased_chi_sq_sum(U, a)
            rows.append(
                _check_row("aliased-vaaler", f"U={U} a={a}", total, 1.0 / U**2, "identity", tail + 1e-12)
            )

    for U, H in ((2, 7), (3, 8), (4, 15)):
        for ell in (0, 2):
            chiB, BB, twisted = vaaler.convolution_defects(U, H, ell)
            if ell == 0:
                rows.append(_check_row("conv-chiB", f"U={U} H={H}", chiB, 1.0 / (H + 1), "identity", 1e-10))
                rows.append(_check_row("conv-BB", f"U={U} H={H}", BB, 1.0 / (H + 1), "upper", 1e-12))
            rows.append(
                _check_row("conv-twisted", f"U={U} H={H} l={ell}", twisted, 3.0 / (H + 1), "upper", 1e-12)
            )

    for alpha, H in ((0.5, 7), (1.0 / 3.0, 26)):
        defect = vaaler.sandwich_defect(vaaler.VaalerKernel(alpha, H), 10**4)
        rows.append(_check_row("vaaler-sandwich", f"alpha={alpha:.4f} H={H}", defect, 0.0, "upper", 1e-9))

    for _ in range(100):
        lam = int(rng.integers(1, WINDOW_LAM_MAX + 1))
        kappa1 = int(rng.integers(0, WINDOW_KAPPA1_MAX + 1))
        K = int(rng.integers(1, 6))
        a = int(rng.integers(0, q ** (kappa1 + lam + 2)))
        defect, bound = vaaler.window_approximation_defect(f, a, kappa1, kappa1 + lam, K)
        rows.append(
            _check_row("window-approx", f"a={a} w={lam} K={K}", defect, min(bound, 1.0), "upper", 1e-9)
        )

    for _ in range(40):
        lam = int(rng.integers(1, L1_LAM_MAX + 1))
        delta = int(rng.integers(0, lam + 1))
        a = int(rng.integers(0, q**delta))
        t = float(rng.random() * q**lam)
        value, bound = fourier.l1_masked_sum(f, lam, delta, a, t)
        rows.append(_check_row("l1-masked", f"lam={lam} d={delta}", value, bound, "upper", 1e-9))

    for _ in range(50):
        lam = int(rng.integers(2, 9))
        delta = 0.5 / q ** min(lam, 6)
        # at most floor(1/delta) points fit; stay at half that for sampling room
        count = int(rng.integers(1, min(50, int(0.5 / delta)) + 1))
        nodes = _well_spaced_nodes(rng, count, delta)
        value, bound = fourier.large_sieve_sum(f, 0, lam, nodes, delta)
        rows.append(_check_row("large-sieve", f"lam={lam} n={count}", value, bound, "upper", -1e-12))

    for _ in range(20):
        lam = int(rng.integers(2, ALMOST_AP_LAM_MAX + 1))
        A = float(1.0 + rng.random() * (q ** (lam - 1) - 1.0))
        B = float(rng.random() * 10)
        value, bound = fourier.almost_ap_l2_sum(f, 0, lam, A, B)
        rows.append(_check_row("almost-ap", f"lam={lam} A={A:.3f}", value, bound, "upper", 1e-9))

    for m in range(1, 33):
        for a in range(m):
            for b in range(0, m, max(1, m // 4)):
                r = xs.gauss_complete(a, b, m)
                rows.append(_check_row("gauss-complete", f"a={a} b={b} m={m}", r.exact, r.bound, "upper", 1e-9))
    for _ in range(200):
        m = int(rng.integers(1, 65))
        a = int(rng.integers(0, m))
        b = int(rng.integers(0, m))
        N = int(rng.integers(0, 3 * m + 1))
        n0 = int(rng.integers(0, 100))
        r = xs.gauss_incomplete(a, b, m, n0, N)
        rows.append(_check_row("gauss-incomplete", f"a={a} b={b} m={m} N={N}", r.exact, r.bound, "upper", 1e-9))

    for _ in range(10**4):
        L1 = int(rng.integers(-100, 100))
        L2 = L1 + int(rng.integers(0, 1000))
        xi = float(rng.random())
        r = xs.geometric_sum(L1, L2, xi)
        rows.append(_check_row("geometric", f"len={L2 - L1}", r.exact, r.bound, "upper", 1e-9))

    for m in range(1, 201):
        for A in (1, 7, 61, 500):
            r = xs.gcd_average(m, A, 1.0)
            rows.append(_check_row("gcd-average", f"m={m} A={A}", r.exact, r.bound, "upper", 1e-9))

    for i in range(1000):
        n = int(rng.integers(1, 200))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs, rhs = xs.vdc_variant_check(z, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        rows.append(_check_row("vdc-variant", f"i={i}", lhs, rhs, "upper", 1e-9 * max(1.0, abs(rhs))))

    for qq in (2, 6, 12, 30):
        for lam in (1, 2, 5):
            db = xs.divisor_bounds(qq, lam, -1.0)
            rows.append(_check_row("divisor-tau-lower", f"q={qq} lam={lam}", db.tau_lower, db.tau_value, "upper", 0.0))
            rows.append(_check_row("divisor-tau-upper", f"q={qq} lam={lam}", db.tau_value, db.tau_upper, "upper", 0.0))
            rows.append(_check_row("divisor-sigma", f"q={qq} lam={lam}", db.sigma_value, db.sigma_bound, "upper", -1e-12))
    return rows


def _well_spaced_nodes(rng: np.random.Generator, count: int, delta: float) -> list[float]:
    """Rejection-sample count nodes pairwise delta-spaced mod 1."""
    if count > 1.0 / delta:
        raise PreconditionError(f"cannot place {count} nodes at spacing {delta}")
    nodes: list[float] = []
    attempts = 0
    while len(nodes) < count:
        attempts += 1
        if attempts > 10**6:
            raise PreconditionError("node sampling did not converge; spacing too tight")
        t = float(rng.random())
        if all(min(abs(t - s), 1 - abs(t - s)) >= delta for s in nodes):
            nodes.append(t)
    return nodes


def _constants_results(config: RunConfig) -> dict:
    gamma = config.gamma_fraction()
    q = config.q
    f = _f_of(config)
    if not is_proper(f):
        return {
            "q": q,
            "gamma": config.gamma,
            "proper": False,
            "diagnostic": "(q-1)*gamma is an integer: f(n) = e(gamma n) is improper, "
            "c(f) is undefined",
        }
    sc = fourier.compute_constants(f)
    return {
        "q": q,
        "gamma": config.gamma,
        "proper": True,
        "c": sc.c,
        "eta": sc.eta,
        "argmax_c": sc.argmax_c,
        "argmax_eta": sc.argmax_eta,
        "grid_size": sc.grid_size,
        "c_lower_bound": fourier.c_lower_bound_digit_sum(q, gamma),
        "eta_upper_bound": fourier.eta_upper_bound_digit_sum(q),
        "norm_q_minus_1_gamma": _circle_distance((q - 1) * gamma),
        "c_bound_holds": sc.c >= fourier.c_lower_bound_digit_sum(q, gamma) - 1e-9,
        "eta_bound_holds": sc.eta <= fourier.eta_upper_bound_digit_sum(q) + 1e-9,
    }


def _expsum_rows(config: RunConfig) -> list[dict]:
    rng = np.random.default_rng(config.seed)
    family = config.family
    out: list[dict] = []

    def emit(label: str, exact: float, bound: float, passed: bool | None) -> None:
        """passed is None where the bound's constant is not explicit."""
        out.append(
            {
                "family": family,
                "label": label,
                "exact": exact,
                "bound": bound,
                "ratio": _ratio(exact, bound),
                "explicit_constant": passed is not None,
                "pass": passed,
            }
        )

    def emit_report(label: str, r: xs.BoundReport) -> None:
        emit(label, r.exact, r.bound, r.holds if r.explicit_constant else None)

    if family == "geometric":
        for i in range(200):
            L1 = int(rng.integers(-50, 50))
            L2 = L1 + int(rng.integers(0, 500))
            emit_report(f"i={i}", xs.geometric_sum(L1, L2, float(rng.random())))
    elif family == "min-sum":
        for N2 in (100, 1000, 10000):
            emit_report(f"N={N2}", xs.min_sum(0, N2, 50.0, math.sqrt(0.5), 0.0))
    elif family == "gauss-complete":
        for m in range(1, 65):
            emit_report(f"m={m}", xs.gauss_complete(int(rng.integers(0, m)), int(rng.integers(0, m)), m))
    elif family == "gauss-incomplete":
        for m in range(1, 65):
            N = int(rng.integers(0, 3 * m + 1))
            emit_report(f"m={m} N={N}", xs.gauss_incomplete(int(rng.integers(0, m)), int(rng.integers(0, m)), m, 0, N))
    elif family == "weyl":
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        for a, m in ((1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21), (21, 34)):
            emit_report(f"convergent {a}/{m}", xs.weyl_quadratic(golden, 0.3, 0.1, 0, 10**4, a, m))
    elif family == "gcd-average":
        for m in (1, 6, 12, 60, 200):
            emit_report(f"m={m}", xs.gcd_average(m, 500, 0.5))
    elif family == "vdc":
        for i in range(50):
            n = int(rng.integers(1, 200))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs, rhs = xs.vdc_variant_check(z, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            emit(f"i={i}", lhs, rhs, lhs <= rhs + 1e-9 * max(1.0, abs(rhs)))
    elif family == "second-derivative":
        for N in (64, 128, 256, 512, 1024, 2048, 4096):
            emit_report(f"N={N}", xs.second_derivative_report(1.0 / (10.0 * math.sqrt(2.0)), N))
    elif family in BILINEAR_FAMILIES:
        keyword, xi, power, bound_of = BILINEAR_FAMILIES[family]
        for size in (32, 64, 128):
            a = np.exp(2j * np.pi * rng.random(size))
            b = np.exp(2j * np.pi * rng.random(size))
            s = xs.bilinear_quadratic_sum(a, b, **{keyword: xi})
            emit(f"M=N={size}", (abs(s) / (size * size)) ** power, bound_of(size, size, xi), None)
    return out


def _typesums_results(config: RunConfig) -> dict:
    q, mu, nu = config.q, config.mu, config.nu
    rows, cols = harness.rectangle_shape(q, mu, nu)
    rng = np.random.default_rng(config.seed)
    f = _f_of(config)
    sc = fourier.compute_constants(f)
    plan = harness.type2_plan(mu, nu, sc.c, sc.eta)
    a = np.exp(2j * np.pi * rng.random(rows))
    b = np.exp(2j * np.pi * rng.random(cols))
    s20, si, si_max = harness.type_sums(mu, nu, q, f, config.theta, a, b)
    return {
        "q": q,
        "mu": mu,
        "nu": nu,
        "theta": config.theta,
        "constants": {"c": sc.c, "eta": sc.eta},
        "plan": asdict(plan),
        "type1_rho": harness.type1_rho(nu, sc.c, sc.eta),
        "S20_abs": abs(s20),
        "S20_normalized": abs(s20) / q ** (mu + nu),
        "SI": si,
        "SI_normalized": si / q ** (mu + nu),
        "SI_max_over_t": si_max,
    }


def run(config: RunConfig) -> int:
    """Execute one command and write its report; returns the exit code."""
    check_config(config)
    if config.command == "verify":
        results: object = _verify_rows(config)
    elif config.command == "constants":
        results = _constants_results(config)
    elif config.command == "equidist":
        results = asdict(harness.equidist_counts(config.x, config.q, config.m))
    elif config.command == "expsum":
        results = _expsum_rows(config)
    elif config.command == "typesums":
        results = _typesums_results(config)
    else:  # decay, the only command left that check_config accepts
        results = asdict(harness.decay_fit(list(config.xs_list), _f_of(config), config.theta))
    violation = isinstance(results, list) and any(row["pass"] is False for row in results)

    config_echo = asdict(config)
    config_echo.pop("output_path")  # reports must not depend on where they land
    report = {
        "schema": SCHEMA,
        "command": config.command,
        "config": config_echo,
        "results": results,
    }
    _write_report(report, config)
    return EXIT_VIOLATION if violation else EXIT_OK


def _write_report(report: dict, config: RunConfig) -> None:
    if config.format == "json":
        text = _json_text(report) + "\n"
    else:
        text = _to_csv(report)
    if config.output_path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write {config.output_path!r}: {exc.strerror}") from exc


def _json_text(obj, indent: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2, default=_json_default), byte
    for byte, without the pure-Python encoder that dumps runs under indent.

    indent is the newline and indentation in front of obj's own line.  Keys
    must be strings, which every report's are.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return _json_text(_json_default(obj), indent)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _to_csv(report: dict) -> str:
    """Rows of (suite/section, label, exact, bound, ratio, pass) where the
    results are check rows, else flattened (key, value) pairs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    results = report["results"]
    if isinstance(results, list):
        writer.writerow(["suite", "label", "exact", "bound", "ratio", "pass"])
        for row in results:
            writer.writerow(
                [
                    row.get("suite", row.get("family", "")),
                    row.get("label", ""),
                    repr(row.get("exact", "")),
                    repr(row.get("bound", "")),
                    repr(row.get("ratio", "")),
                    row.get("pass", ""),
                ]
            )
    else:
        writer.writerow(["key", "value"])
        for key in sorted(results):
            writer.writerow([key, json.dumps(results[key], sort_keys=True, default=_json_default)])
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    config = config_from_args(args)
    try:
        return run(config)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DomainError, PreconditionError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
