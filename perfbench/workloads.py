"""The benchmark's workloads: fixed job lists whose free values come from a seed.

A job is a plain dict so that it can be handed to a pass process as JSON.
The seed drives the CLI ``--seed``, the quadratic-mean ``t`` values, the
``decay`` theta and (through ``--seed``) the type II coefficient draws; it
never changes an input size, so a pass costs the same whatever the seed.

Kinds of job:

* ``cli``     ``sqdigits.cli.main(argv)`` writing its report to a file;
* ``qmean``   ``fourier.quadratic_mean(make_digit_exponential(q, gamma), lam, t)``;
* ``carry``   ``carry.count_mismatch`` on one Thue-Morse ``CarrySpec``;
* ``vaughan`` ``harness.vaughan_probe(x, q, thue_morse(), theta)``.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

WHY = {
    "lemmas": "fourier, vaaler, expsums, carry, qmult and cli with no sieve or digit kernel: "
    "the workload for the quadratic-mean path, the control for the digit kernel and row layout",
    "primes": "sieve and digit kernel on ~18M elements in 44 large calls: a per-element "
    "kernel gain shows here, a per-call or row-layout change should not",
    "bilinear": "the digit kernel on ~33k tiny rows plus dense alignment matvecs: "
    "where a flat row layout shows, with primes as its no-change control",
}

EXPSUM_FAMILIES = (
    "geometric", "min-sum", "gauss-complete", "gauss-incomplete", "weyl", "gcd-average",
    "vdc", "second-derivative", "bilinear-mn2", "bilinear-xi2", "bilinear-m2n2",
)
# (q, gamma) of the three digit exponentials of the lemma suites
LEMMA_FUNCTIONS = ((2, "1/2"), (3, "1/3"), (5, "1/3"))
CONSTANTS_CONFIGS = ((2, "1/2"), (3, "1/2"), (5, "1/3"), (11, "1/3"), (13, "1/5"))
QMEAN_LAM = 10
QMEAN_T_PER_FUNCTION = 2
CARRY_NU = 14
# the small instance that criterion 5 also checks against a digit-string brute force
CARRY_SMALL = {"q": 2, "mu": 3, "nu": 6, "rho": 1, "rho_tilde": 1, "m": 5, "r": 1}
EQUIDIST_X = "1e8"
EQUIDIST_CONFIGS = ((2, 2), (3, 5))
DECAY_XS = "1e6,1e7,1e8"
VAUGHAN_X = 10**6


def _cli(job_id: str, argv: list[str]) -> dict:
    return {"id": job_id, "kind": "cli", "command": argv[0], "argv": argv}


def jobs(workload: str, seed: int) -> list[dict]:
    """The ordered job list of one pass of ``workload`` at ``seed``."""
    rng = random.Random(seed)
    s = str(seed)
    out: list[dict] = []
    if workload == "lemmas":
        for q, gamma in LEMMA_FUNCTIONS:
            out.append(_cli(f"verify-q{q}", ["verify", "--q", str(q), "--gamma", gamma, "--seed", s]))
        for q, gamma in LEMMA_FUNCTIONS:
            for i in range(QMEAN_T_PER_FUNCTION):
                out.append({"id": f"qmean-q{q}-{i}", "kind": "qmean", "q": q, "gamma": gamma,
                            "lam": QMEAN_LAM, "t": rng.random() * q})
        for q, gamma in CONSTANTS_CONFIGS:
            out.append(_cli(f"constants-q{q}-{gamma.replace('/', 'o')}",
                            ["constants", "--q", str(q), "--gamma", gamma]))
        for family in EXPSUM_FAMILIES:
            out.append(_cli(f"expsum-{family}", ["expsum", "--family", family, "--seed", s]))
        out.append({"id": "carry-small", "kind": "carry", **CARRY_SMALL})
        for rho_tilde in (1, 2, 3):
            for m in (4, 5, 6, 7):
                for r in (1, 2, 3):
                    out.append({"id": f"carry-t{rho_tilde}-m{m}-r{r}", "kind": "carry", "q": 2,
                                "mu": 3, "nu": CARRY_NU, "rho": 1, "rho_tilde": rho_tilde,
                                "m": m, "r": r})
    elif workload == "primes":
        for q, m in EQUIDIST_CONFIGS:
            out.append(_cli(f"equidist-q{q}-m{m}",
                            ["equidist", "--q", str(q), "--m", str(m), "--x", EQUIDIST_X]))
        theta = rng.random()
        out.append(_cli("decay", ["decay", "--q", "2", "--gamma", "1/2", "--xs", DECAY_XS,
                                  "--theta", repr(theta)]))
    elif workload == "bilinear":
        out.append(_cli("typesums", ["typesums", "--q", "2", "--gamma", "1/2", "--mu", "8",
                                     "--nu", "14", "--seed", s]))
        out.append({"id": "vaughan", "kind": "vaughan", "x": VAUGHAN_X, "q": 2, "theta": 0.0})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
