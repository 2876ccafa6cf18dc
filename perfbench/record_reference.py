"""Record reference.json: every job's results at the default seed.

Usage (from the repository root): ``python3 perfbench/record_reference.py``.
Run it only on a commit whose results are trusted; run.py then fails any
default-seed pass whose results drift from these (integers exactly, floats
to checks.REL_TOL relative; verify and expsum rows as per-suite digests).
"""

from __future__ import annotations

import json
import subprocess
import sys

import checks
import run
import workloads


def main() -> int:
    validator = run.jsonschema_validator()
    recorded = {}
    for workload in sorted(workloads.WHY):
        jobs = workloads.jobs(workload, workloads.DEFAULT_SEED)
        out_dir = run.OUT / workload / "pass"
        tmp = run.OUT / workload / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        record, err = run.run_pass(jobs, False, out_dir, run.child_env(tmp))
        if record is None:
            print(f"{workload}: {err}", file=sys.stderr)
            return 1
        outputs = checks.load_outputs(jobs, str(out_dir), record)
        c = checks.Checks()
        checks.check_pass(c, jobs, outputs, validator)
        if c.failures:
            print(f"{workload}: checks failed, not recording: {c.failures}", file=sys.stderr)
            return 1
        recorded[workload] = {jid: checks.digest(out) for jid, out in outputs.items()}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
    doc = {"seed": workloads.DEFAULT_SEED, "recorded_at": sha.stdout.strip() or "unknown",
           "workloads": recorded}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
