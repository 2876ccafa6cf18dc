"""One pass: a fresh interpreter runs a workload's job list once.

Usage: ``python3 perfbench/passrun.py SPEC.json`` with ``sqdigits`` on
``PYTHONPATH``.  SPEC holds ``jobs`` (from workloads.py), ``out_dir`` and
``trace``.  CLI reports land in ``out_dir/<job id>.json``; everything else
the pass produced goes to ``out_dir/pass.json``:

* ``wall_s``      time of the job loop, imports excluded (they are ``setup_s``);
* ``job_s``       time of each job;
* ``maxrss_kb``   peak resident memory of this process;
* ``results``     exit code of each CLI job, return value of every other job;
* ``trace``       span summary when traced (spans themselves in ``spans.npz``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
from fractions import Fraction

from sqdigits import carry, cli, fourier, harness
from sqdigits.qmult import make_digit_exponential, thue_morse

from tracer import Tracer, summarize, write_spans


def run_job(job: dict, out_dir: str):
    kind = job["kind"]
    if kind == "cli":
        path = os.path.join(out_dir, f"{job['id']}.json")
        return {"exit_code": cli.main(job["argv"] + ["--output", path])}
    if kind == "qmean":
        f = make_digit_exponential(job["q"], Fraction(job["gamma"]))
        return {"sums": fourier.quadratic_mean(f, job["lam"], job["t"])}
    if kind == "carry":
        spec = carry.CarrySpec(**{k: job[k] for k in ("q", "mu", "nu", "rho", "rho_tilde", "m", "r")})
        return {"count": carry.count_mismatch(spec, thue_morse())}
    if kind == "vaughan":
        probe = harness.vaughan_probe(job["x"], job["q"], thue_morse(), job["theta"])
        out = dataclasses.asdict(probe)
        out["lambda_sum"] = [probe.lambda_sum.real, probe.lambda_sum.imag]
        out["type2_alignment_history"] = list(probe.type2_alignment_history)
        return out
    raise ValueError(f"unknown job kind {kind!r}")


def run_pass(jobs: list[dict], out_dir: str, tracer: Tracer | None) -> dict:
    results: dict[str, dict] = {}
    job_s: dict[str, float] = {}
    t0 = time.perf_counter()
    for job in jobs:
        j0 = time.perf_counter()
        try:
            if tracer is None:
                results[job["id"]] = run_job(job, out_dir)
            else:
                with tracer.span(f"job:{job['id']}"):
                    results[job["id"]] = run_job(job, out_dir)
        except Exception as exc:  # a failed job is a failed check, not a crashed pass
            results[job["id"]] = {"error": f"{type(exc).__name__}: {exc}"}
        job_s[job["id"]] = time.perf_counter() - j0
    return {"wall_s": time.perf_counter() - t0, "job_s": job_s, "results": results}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out_dir = spec["out_dir"]
    tracer = Tracer() if spec["trace"] else None
    if tracer is None:
        record = run_pass(spec["jobs"], out_dir, None)
    else:
        with tracer:
            record = run_pass(spec["jobs"], out_dir, tracer)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["sqdigits_file"] = cli.__file__
    if tracer is not None:
        record["trace"] = summarize(tracer)
        write_spans(tracer, os.path.join(out_dir, "spans.npz"))
    with open(os.path.join(out_dir, "pass.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
