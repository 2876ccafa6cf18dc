"""sqdigits benchmark: three workloads, checked outputs, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lemmas|primes|bilinear \\
        [--seed N] [--seconds S] [--trace 0|1]

The program is imported from ``src/`` of the checkout the script sits in;
nothing is installed.  Each pass is a fresh interpreter (``passrun.py``)
running the workload's fixed job list once, one process at a time, because
the caches a real CLI run starts cold with (``compute_constants``,
``_trig_tables``) must be cold in every pass.  Passes are started until the
next one would end after ``--seconds``; at least one runs, and with
``--trace 1`` at least one untraced and one traced pass alternate.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``     fresh interpreter to ``sqdigits.cli`` (with numpy) imported,
                  median of SETUP_PER_PASS launches after each pass (one
                  untimed launch first compiles the bytecode);
* ``wall_s``      median job-loop time of the passes (imports excluded);
* ``peak_rss_mb`` median peak resident memory of the pass processes.

``fail_ratio`` (failed checks over attempted checks, see checks.py) is
printed by name and carried by ``failed``/``attempted`` of the result line.

``--trace 1`` reports the per-layer metrics from spans recorded around the
calls into each sqdigits module (tracer.py), plus the untraced job times of
the CLI subcommands and ``trace.overhead_s``.

Outputs go to ``.bench_out/<workload>/`` in the checkout; the spans of the
last traced pass stay there as ``spans.npz``.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SCHEMA = SRC / "sqdigits" / "report_schema.json"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PER_PASS = 3  # launches timed after each untraced pass
PASS_TIMEOUT_S = 120  # keeps a run under 180 s even when the last pass hangs
JOB_SPAN_COVERAGE = 0.99  # share of a traced pass its top-level job spans must cover

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

LIBRARY_MODULES = ("sieve", "harness", "fourier", "vaaler", "expsums", "qmult", "carry", "cli")
CLI_COMMANDS = ("verify", "constants", "equidist", "expsum", "typesums", "decay")
HARNESS_STAGES = ("equidist_counts", "lambda_weighted_sum", "type2_S20", "type1_SI", "vaughan_probe")
KERNELS = ("phase_array", "digit_sums_array")


def per_layer_units() -> dict[str, str]:
    units = {"sieve.self_s": "s", "sieve.primes": "count", "sieve.primes_per_s": "1/s"}
    for k in KERNELS:
        units.update({f"harness.{k}.calls": "count", f"harness.{k}.elements": "count",
                      f"harness.{k}.self_s": "s", f"harness.{k}.ns_per_element": "ns"})
    units.update({f"harness.{k}.self_s": "s" for k in HARNESS_STAGES})
    units.update({
        "fourier.quadratic_mean.elements": "count", "fourier.quadratic_mean.s": "s",
        "fourier.quadratic_mean.ns_per_element": "ns",
        "fourier.eval_F1.calls": "count", "fourier.eval_F1.self_s": "s",
        "fourier.eval_F.calls": "count", "fourier.eval_F.self_s": "s",
        "fourier.compute_constants.calls": "count", "fourier.compute_constants.s": "s",
        "vaaler.calls": "count", "vaaler.self_s": "s",
        "expsums.calls": "count", "expsums.self_s": "s", "expsums.us_per_call": "us",
        "carry.count_mismatch.self_s": "s", "carry.n_enumerated": "count", "carry.ns_per_n": "ns",
        "qmult.phase_of.calls": "count", "qmult.phase_of.self_s": "s",
        "cli.run.self_s": "s", "cli.report_bytes": "bytes", "cli.nonfinite_fields": "count",
    })
    units.update({f"cli.{c}_s": "s" for c in CLI_COMMANDS})
    units.update({f"{m}.errors": "count" for m in LIBRARY_MODULES})
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def measure_setup(env: dict, samples: int) -> list[float]:
    """Seconds from launching a fresh interpreter to sqdigits.cli imported, per launch."""
    code = "import time, sqdigits.cli; print(time.monotonic_ns(), sqdigits.cli.__file__)"
    times = []
    for _ in range(samples):
        t0 = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing sqdigits failed:\n{proc.stderr}")
        stamp, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"sqdigits was imported from {path.strip()}, not from {SRC}")
        times.append((int(stamp) - t0) / 1e9)
    return times


def run_pass(jobs: list[dict], traced: bool, out_dir: Path, env: dict) -> tuple[dict | None, str]:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    spec = out_dir / "spec.json"
    spec.write_text(json.dumps({"jobs": jobs, "out_dir": str(out_dir), "trace": traced}))
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "passrun.py"), str(spec)], env=env,
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"pass exceeded {PASS_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"pass exited {proc.returncode}: {proc.stderr[-2000:]}"
    record = json.loads((out_dir / "pass.json").read_text())
    if not Path(record["sqdigits_file"]).resolve().is_relative_to(SRC):
        return None, f"pass imported sqdigits from {record['sqdigits_file']}"
    return record, ""


def jsonschema_validator():
    """Validator for the report schema shipped with the program."""
    import jsonschema

    return jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) of the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def job_coverage(record: dict) -> float:
    """Share of a traced pass's wall time covered by its top-level job spans."""
    spans = record["trace"]["spans"]
    covered = sum(s["total_s"] for name, s in spans.items() if name.startswith("job:"))
    return covered / record["wall_s"]


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (before the cross-pass ones are added)."""
    spans, elements, errors = (record["trace"][k] for k in ("spans", "elements", "errors"))

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def module(mod: str, key: str) -> float:
        return sum(s[key] for name, s in spans.items() if name.startswith(f"{mod}."))

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    m: dict[str, float] = {}
    primes = elements.get("sieve.prime_arrays", 0)
    m["sieve.self_s"] = module("sieve", "self_s")
    m["sieve.primes"] = primes
    m["sieve.primes_per_s"] = ratio(primes, m["sieve.self_s"])
    for k in KERNELS:
        name = f"harness.{k}"
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.elements"] = elements.get(name, 0)
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.ns_per_element"] = ratio(get(name, "self_s"), elements.get(name, 0), 1e9)
    for k in HARNESS_STAGES:
        m[f"harness.{k}.self_s"] = get(f"harness.{k}", "self_s")
    qm = "fourier.quadratic_mean"
    m[f"{qm}.elements"] = elements.get(qm, 0)
    m[f"{qm}.s"] = get(qm, "total_s")
    m[f"{qm}.ns_per_element"] = ratio(get(qm, "total_s"), elements.get(qm, 0), 1e9)
    for k in ("eval_F1", "eval_F"):
        m[f"fourier.{k}.calls"] = get(f"fourier.{k}", "calls")
        m[f"fourier.{k}.self_s"] = get(f"fourier.{k}", "self_s")
    m["fourier.compute_constants.calls"] = get("fourier.compute_constants", "calls")
    m["fourier.compute_constants.s"] = get("fourier.compute_constants", "total_s")
    for mod in ("vaaler", "expsums"):
        m[f"{mod}.calls"] = module(mod, "calls")
        m[f"{mod}.self_s"] = module(mod, "self_s")
    m["expsums.us_per_call"] = ratio(m["expsums.self_s"], m["expsums.calls"], 1e6)
    cm = "carry.count_mismatch"
    m[f"{cm}.self_s"] = get(cm, "self_s")
    m["carry.n_enumerated"] = elements.get(cm, 0)
    m["carry.ns_per_n"] = ratio(get(cm, "total_s"), elements.get(cm, 0), 1e9)
    m["qmult.phase_of.calls"] = get("qmult.phase_of", "calls")
    m["qmult.phase_of.self_s"] = get("qmult.phase_of", "self_s")
    m["cli.run.self_s"] = get("cli.run", "self_s")
    for mod in LIBRARY_MODULES:
        m[f"{mod}.errors"] = errors.get(mod, 0)
    return m


def run_passes(args, jobs: list[dict], env: dict, out_root: Path, c: checks.Checks):
    """Passes until the next one would end after ``args.seconds``.

    Returns the untraced and traced pass records, the first pass's outputs
    and the setup samples.  Every later pass must repeat the first one's
    outputs exactly, traced or not.
    """
    untraced: list[dict] = []
    traced: list[dict] = []
    setup: list[float] = []
    lifetimes: list[float] = []
    first = None
    t_start = time.perf_counter()
    while True:
        is_traced = args.trace == 1 and len(lifetimes) % 2 == 1
        t0 = time.perf_counter()
        record, err = run_pass(jobs, is_traced, out_root / "pass", env)
        lifetimes.append(time.perf_counter() - t0)
        c.check(record is not None, f"pass failed: {err}")
        if record is None:
            break
        outputs = checks.load_outputs(jobs, str(out_root / "pass"), record)
        if first is None:
            first = outputs
        else:
            checks.check_repeat(c, first, outputs, "traced" if is_traced else "untraced")
        if is_traced:
            c.check(job_coverage(record) >= JOB_SPAN_COVERAGE,
                    f"job spans cover {job_coverage(record):.4f} of the traced pass")
            shutil.copyfile(out_root / "pass" / "spans.npz", out_root / "spans.npz")
            traced.append(record)
        else:
            untraced.append(record)
            if args.trace == 0:
                # spread over the run, so that they see the same machine as the passes
                setup += measure_setup(env, SETUP_PER_PASS)
        if args.trace == 1 and not (untraced and traced):
            continue
        if time.perf_counter() - t_start + statistics.median(lifetimes) > args.seconds:
            break
    return untraced, traced, first, setup


def cross_pass_metrics(jobs: list[dict], untraced: list[dict], traced: list[dict],
                       first: dict, c: checks.Checks) -> dict[str, float]:
    """Per-layer metrics: medians over the traced passes, whose counts must agree,
    plus report size, untraced subcommand times and the tracing overhead."""
    per_pass = [layer_metrics(r) for r in traced]
    for name in per_pass[0]:
        if PER_LAYER[name] in ("count", "bytes"):
            c.check(len({p[name] for p in per_pass}) == 1, f"{name} differs between traced passes")
    m = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    m["cli.report_bytes"] = sum(len(o["report_text"].encode()) for o in first.values() if "report_text" in o)
    m["cli.nonfinite_fields"] = sum(checks.count_nonfinite(o.get("report")) for o in first.values())
    for cmd in CLI_COMMANDS:
        ids = [j["id"] for j in jobs if j.get("command") == cmd]
        m[f"cli.{cmd}_s"] = statistics.median(sum(r["job_s"][i] for i in ids) for r in untraced)
    m["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                             - statistics.median(r["wall_s"] for r in untraced))
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)  # run_seconds of BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqdigits" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: no sqdigits package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    out_root = OUT / args.workload
    tmp = out_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(tmp)
    try:
        measure_setup(env, 1)  # compiles bytecode, warms the file cache, checks the import path
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = workloads.jobs(args.workload, args.seed)
    c = checks.Checks()
    untraced, traced, first, setup = run_passes(args, jobs, env, out_root, c)
    if first is not None:
        # outside the loop so that the passes get the run's time; later passes repeat these bytes
        checks.check_pass(c, jobs, first, jsonschema_validator())
        if args.seed == workloads.DEFAULT_SEED and REFERENCE.is_file():
            reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
            checks.check_reference(c, reference, first)
    for failure in c.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not untraced or (args.trace == 1 and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    walls = [r["wall_s"] for r in untraced]
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"seed {args.seed}, {len(untraced) + len(traced)} passes ({len(traced)} traced), "
          f"{len(jobs)} jobs per pass")
    if args.trace == 0:
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in untraced),
        }
        tail = tail_percentile(walls)
        print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup)} launches)")
        print(f"wall_s {metrics['wall_s']:.4f} s (median of {len(walls)} passes; "
              + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no percentile has ten samples beyond it")
              + f"; passes {', '.join(f'{w:.3f}' for w in walls)})")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (median of {len(untraced)} passes)")
        nonfinite = sum(checks.count_nonfinite(o.get("report")) for o in first.values())
        print(f"cli.nonfinite_fields {nonfinite} (non-finite report fields, counted, not failed)")
    else:
        units = PER_LAYER
        metrics = cross_pass_metrics(jobs, untraced, traced, first, c)
        for name, unit in units.items():
            print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"fail_ratio {len(c.failures) / c.attempted:.6g} ({len(c.failures)} of {c.attempted} checks failed)")
    print(json.dumps({
        "correct": not c.failures,
        "attempted": c.attempted,
        "failed": len(c.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
