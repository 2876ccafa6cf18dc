"""Self-tests of the benchmark itself (not of sqdigits).

Usage (from the repository root): ``python3 perfbench/selftest.py``.  It
runs one traced pass of every workload at two seeds (about two minutes) and
exits 0 when every test holds:

* the tracer's wrappers replace every alias and restore the originals, and
  traced results equal untraced ones;
* changing the seed changes the inputs but not their sizes, and the
  element counts of the traced layers stay the same;
* each workload's top-level job spans cover its traced pass;
* a perturbed result is caught by the checks (negative test);
* BENCHMARK.json lists exactly the metrics and workloads run.py reports.
"""

from __future__ import annotations

import copy
import json
import sys

import checks
import run
import workloads
from tracer import Tracer

SEEDS = (workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 1)
# counts that depend on input sizes only; eval_F1 and vaaler call counts follow
# the seeded lemma parameters and may differ between seeds
SIZE_COUNTS = (
    "sieve.primes", "harness.phase_array.calls", "harness.phase_array.elements",
    "harness.digit_sums_array.calls", "harness.digit_sums_array.elements",
    "fourier.quadratic_mean.elements", "carry.n_enumerated", "qmult.phase_of.calls",
)


def test_wrappers_restore() -> None:
    sys.path.insert(0, str(run.SRC))
    import sqdigits
    from sqdigits import carry, cli, harness, qmult, sieve  # noqa: F401  (loads every traced module)

    modules = [m for k, m in sys.modules.items() if k == "sqdigits" or k.startswith("sqdigits.")]
    before = {(m.__name__, a): v for m in modules for a, v in vars(m).items() if callable(v)}
    spec = carry.CarrySpec(q=2, mu=3, nu=6, rho=1, rho_tilde=1, m=5, r=1)
    f = qmult.thue_morse()
    plain = (harness.equidist_counts(10**4, 3, 5), harness.lambda_weighted_sum(10**4, f, 0.25),
             carry.count_mismatch(spec, f))
    with Tracer() as tracer:
        wrapped = harness.phase_of
        assert wrapped is not before[("sqdigits.qmult", "phase_of")]
        assert wrapped is carry.phase_of is qmult.phase_of is sqdigits.phase_of
        assert harness.prime_arrays is sieve.prime_arrays is not before[("sqdigits.sieve", "prime_arrays")]
        assert cli.run is not before[("sqdigits.cli", "run")]
        traced = (harness.equidist_counts(10**4, 3, 5), harness.lambda_weighted_sum(10**4, f, 0.25),
                  carry.count_mismatch(spec, f))
        try:
            harness.equidist_counts(10, 1, 2)
        except ValueError:
            pass
    assert traced == plain, "traced results differ from untraced ones"
    assert tracer.errors == {"harness": 1}, tracer.errors
    assert tracer._stack == [-1], "a span was left open"
    for name in ("sieve.prime_arrays", "harness.digit_sums_array", "qmult.phase_of", "carry.count_mismatch"):
        assert name in tracer.names, name
    after = {(m.__name__, a): v for m in modules for a, v in vars(m).items() if callable(v)}
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed and after.keys() == before.keys(), f"not restored: {changed}"


def _shape(job: dict) -> dict:
    """A job with its seeded values blanked out."""
    out = {k: v for k, v in job.items() if k != "t"}
    if "argv" in out:
        argv = list(out["argv"])
        for flag in ("--seed", "--theta"):
            if flag in argv:
                argv[argv.index(flag) + 1] = "*"
        out["argv"] = argv
    return out


def test_seeds_and_spans() -> dict:
    """Traced passes at two seeds; returns the default-seed outputs per workload."""
    validator = run.jsonschema_validator()
    default_outputs = {}
    for w in sorted(workloads.WHY):
        a, b = (workloads.jobs(w, s) for s in SEEDS)
        assert a != b, f"{w}: the seed does not change the inputs"
        assert [_shape(j) for j in a] == [_shape(j) for j in b], f"{w}: the seed changes input sizes"
        counts = []
        for seed, jobs in zip(SEEDS, (a, b)):
            tmp = run.OUT / w / "tmp"
            tmp.mkdir(parents=True, exist_ok=True)
            out_dir = run.OUT / w / "selftest"
            record, err = run.run_pass(jobs, True, out_dir, run.child_env(tmp))
            assert record is not None, err
            coverage = run.job_coverage(record)
            assert coverage >= run.JOB_SPAN_COVERAGE, f"{w}: job spans cover {coverage:.4f}"
            metrics = run.layer_metrics(record)
            counts.append({k: metrics[k] for k in SIZE_COUNTS})
            outputs = checks.load_outputs(jobs, str(out_dir), record)
            c = checks.Checks()
            checks.check_pass(c, jobs, outputs, validator)
            assert not c.failures, f"{w} seed {seed}: {c.failures}"
            if seed == workloads.DEFAULT_SEED:
                default_outputs[w] = (jobs, outputs)
        assert counts[0] == counts[1], f"{w}: element counts differ between seeds: {counts}"
        print(f"ok  {w}: seeds {SEEDS} give the same sizes and counts; job spans cover the pass")
    return default_outputs


def _caught(jobs, outputs, reference, validator) -> bool:
    c = checks.Checks()
    checks.check_pass(c, jobs, outputs, validator)
    checks.check_reference(c, reference, outputs)
    return bool(c.failures)


def test_perturbed_results_are_caught(default_outputs: dict) -> None:
    validator = run.jsonschema_validator()
    reference = json.loads(run.REFERENCE.read_text())["workloads"]

    def geometric_row(o):
        row = next(r for r in o["verify-q2"]["report"]["results"] if r["suite"] == "geometric")
        row["exact"] *= 1 + 1e-4

    def qmean_sum(o):
        o["qmean-q3-0"]["sums"][4] += 1e-8

    def carry_count(o):
        o["carry-small"]["count"] += 1

    def schema(o):
        o["constants-q5-1o3"]["report"]["schema"] = "report-v0"

    def pi_x(o):
        o["equidist-q2-m2"]["report"]["results"]["pi_x"] += 1

    def decay_value(o):
        o["decay"]["report"]["results"]["values"][1] = -1.0

    def s20(o):
        o["typesums"]["report"]["results"]["S20_abs"] *= 1 + 1e-6

    def history(o):
        o["vaughan"]["type2_alignment_history"].reverse()

    def exit_code(o):
        o["expsum-vdc"]["exit_code"] = 1

    perturbations = {"lemmas": (geometric_row, qmean_sum, carry_count, schema, exit_code),
                     "primes": (pi_x, decay_value), "bilinear": (s20, history)}
    for w, fns in perturbations.items():
        jobs, outputs = default_outputs[w]
        assert not _caught(jobs, outputs, reference[w], validator), f"{w}: clean outputs fail"
        for fn in fns:
            bad = copy.deepcopy(outputs)
            fn(bad)
            assert _caught(jobs, bad, reference[w], validator), f"{w}: {fn.__name__} not caught"
        print(f"ok  {w}: clean outputs pass; perturbed {', '.join(fn.__name__ for fn in fns)} caught")


def test_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    print("ok  BENCHMARK.json matches the metrics and workloads run.py reports")


def main() -> int:
    test_benchmark_json()
    test_wrappers_restore()
    print("ok  wrappers patch every alias and restore the originals; traced == untraced")
    test_perturbed_results_are_caught(test_seeds_and_spans())
    return 0


if __name__ == "__main__":
    sys.exit(main())
