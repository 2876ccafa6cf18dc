#!/usr/bin/env python3
"""Scaling of normalized type I / type II sums over growing q-adic rectangles.

Type II uses random unimodular coefficients (averaged over a few draws to
tame the ~50% fluctuation of a single draw); type I runs with full inner
intervals.  Both normalized values should shrink as the rectangles grow.
The Vaughan probe then compares the Lambda sum against the larger of the
two families, reporting the fitted constant of the combinatorial identity,
with each probe's wall time (time.perf_counter) and the process's peak
resident memory after it (ru_maxrss); x ascends, so each peak is that
probe's unless an earlier step of the script peaked higher.
"""

import argparse
import resource
import time

import numpy as np

from sqdigits.harness import type_sums, vaughan_probe
from sqdigits.qmult import thue_morse


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--draws", type=int, default=8)
    args = ap.parse_args()

    f = thue_morse()
    rng = np.random.default_rng(args.seed)

    print("type II, random unimodular coefficients (mean over draws):")
    for mu, nu in ((6, 10), (7, 12), (8, 14)):
        vals = []
        for _ in range(args.draws):
            a = np.exp(2j * np.pi * rng.random(2**mu - 2 ** (mu - 1)))
            b = np.exp(2j * np.pi * rng.random(2**nu - 2 ** (nu - 1)))
            s, _, _ = type_sums(mu, nu, f, 0.0, a, b)
            vals.append(abs(s) / 2 ** (mu + nu))
        print(f"  (mu,nu)=({mu},{nu}):  mean |S20|/q^(mu+nu) = {np.mean(vals):.6f}")

    print("type I, full intervals:")
    for mu, nu in ((3, 12), (3, 14), (3, 16)):
        _, si, _ = type_sums(mu, nu, f, 0.0, np.ones(2 ** (mu - 1)), np.ones(2 ** (nu - 1)))
        print(f"  (mu,nu)=({mu},{nu}):  S_I/q^(mu+nu) = {si / 2 ** (mu + nu):.6f}")

    print("vaughan probe (fitted C of the combinatorial identity):")
    for x in (10**4, 10**5, 10**6, 10**7):
        t0 = time.perf_counter()
        vp = vaughan_probe(x, 2, f, 0.0)
        seconds = time.perf_counter() - t0
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(
            f"  x={x:>8d}: typeI={vp.type1_max:10.1f}  typeII>={vp.type2_max:10.1f}  "
            f"|Lambda sum|={abs(vp.lambda_sum):8.1f}  C={vp.fitted_C:.6f}  "
            f"[{seconds:.2f} s, peak RSS {peak_mib:.0f} MiB]"
        )


if __name__ == "__main__":
    main()
