"""Output checks behind ``fail_ratio``: every check is one attempt.

A check fails on a non-zero CLI exit code, a report that does not validate
against the shipped ``report_schema.json``, a violated invariant, a pass
whose outputs differ from the run's first pass (traced or not), or, at the
default seed, a mismatch with ``reference.json``.

Non-finite report fields (``Infinity`` ratios of ``verify`` rows whose bound
is 0) are counted, not failed: the shipped schema accepts them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

REL_TOL = 1e-9
# floor for values at rounding level, such as the imaginary part of a real sum
# or an identity defect of 1e-16, whose digits are noise
ABS_TOL = 1e-12
QMEAN_TOL = 1e-9
PI_1E8 = 5761455
MAX_DISCREPANCY = 0.01
HISTORY_SLACK = 1e-12  # relative float slack on the non-decreasing alignment history
ROW_FIELDS = ("exact", "bound")
# a row value below NOISE_FLOOR is rounding noise (identity defects of 1e-16);
# the row hash keeps ROW_DIGITS significant digits of the others
NOISE_FLOOR = 1e-10
ROW_DIGITS = 6


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def count_nonfinite(obj) -> int:
    if isinstance(obj, float):
        return 0 if math.isfinite(obj) else 1
    if isinstance(obj, dict):
        return sum(count_nonfinite(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(count_nonfinite(v) for v in obj)
    return 0


def carry_brute_force(q: int, lam: int, m: int, r: int, nu: int) -> int:
    """Thue-Morse carry mismatches from raw digit strings, never through sqdigits."""

    def parity(x: int, ndigits: int | None) -> int:
        digits = []
        while x:
            x, b = divmod(x, q)
            digits.append(b)
        return sum(digits[:ndigits]) % 2

    count = 0
    for n in range(q ** (nu - 1), q**nu):
        a, b = m * m * n * n, m * m * (n + r) * (n + r)
        if (parity(b, lam) - parity(a, lam)) % 2 != (parity(b, None) - parity(a, None)) % 2:
            count += 1
    return count


def _check_report(c: Checks, job: dict, report: dict) -> None:
    cmd, res, jid = job["command"], report["results"], job["id"]
    if cmd == "verify":
        failed = [row["label"] for row in res if row["pass"] is not True]
        c.check(not failed and len(res) > 0, f"{jid}: rows failed {failed[:3]}")
    elif cmd == "constants":
        gamma = Fraction(report["config"]["gamma"])
        proper = ((report["config"]["q"] - 1) * gamma).denominator != 1
        c.check(res["proper"] is proper, f"{jid}: proper flag {res['proper']}")
        if proper:
            c.check(res["c_bound_holds"] and res["eta_bound_holds"], f"{jid}: constant bounds fail")
    elif cmd == "equidist":
        c.check(res["pi_x"] == PI_1E8, f"{jid}: pi_x = {res['pi_x']}")
        c.check(sum(res["counts"]) == res["pi_x"], f"{jid}: counts do not sum to pi_x")
        c.check(res["max_rel_discrepancy"] <= MAX_DISCREPANCY,
                f"{jid}: discrepancy {res['max_rel_discrepancy']}")
    elif cmd == "expsum":
        c.check(len(res) > 0 and all(row["pass"] is not False for row in res), f"{jid}: row failed")
    elif cmd == "typesums":
        values = [res["S20_abs"], res["SI"], res["SI_max_over_t"]]
        c.check(all(_finite(v) and v >= 0 for v in values), f"{jid}: sums {values}")
        c.check(res["SI_max_over_t"] >= res["SI"] * (1 - REL_TOL), f"{jid}: max over t below SI")
    elif cmd == "decay":
        c.check(len(res["values"]) == len(res["xs"]) and all(_finite(v) and v > 0 for v in res["values"])
                and _finite(res["fitted_exponent"]), f"{jid}: decay values {res['values']}")


def _check_result(c: Checks, job: dict, result: dict) -> None:
    kind, jid = job["kind"], job["id"]
    if kind == "qmean":
        sums = result["sums"]
        c.check(len(sums) == job["lam"] and all(abs(s - 1.0) <= QMEAN_TOL for s in sums),
                f"{jid}: quadratic mean off 1: {max(abs(s - 1.0) for s in sums):.3e}")
    elif kind == "carry":
        count, spec = result["count"], job
        c.check(isinstance(count, int) and 0 <= count <= spec["q"] ** spec["nu"], f"{jid}: count {count}")
        if jid == "carry-small":
            lam = 2 * spec["mu"] + spec["nu"] + spec["rho"] + spec["rho_tilde"]
            expected = carry_brute_force(spec["q"], lam, spec["m"], spec["r"], spec["nu"])
            c.check(count == expected, f"{jid}: {count} != brute force {expected}")
    elif kind == "vaughan":
        hist = result["type2_alignment_history"]
        c.check(len(hist) > 0 and all(b >= a * (1 - HISTORY_SLACK) for a, b in zip(hist, hist[1:])),
                f"{jid}: alignment history decreases {hist}")
        c.check(_finite(result["fitted_C"]) and result["fitted_C"] > 0, f"{jid}: fitted_C {result['fitted_C']}")


def load_outputs(jobs: list[dict], out_dir: str, record: dict) -> dict:
    """job id -> what the job produced: the parsed report for CLI jobs."""
    outputs = {}
    for job in jobs:
        result = record["results"].get(job["id"], {"error": "missing"})
        if job["kind"] == "cli" and "error" not in result:
            path = os.path.join(out_dir, f"{job['id']}.json")
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                result = dict(result, report=json.loads(text), report_text=text)
        outputs[job["id"]] = result
    return outputs


def check_pass(c: Checks, jobs: list[dict], outputs: dict, validator) -> None:
    """Exit codes, schema and invariants of one pass."""
    for job in jobs:
        out, jid = outputs[job["id"]], job["id"]
        if "error" in out:
            c.check(False, f"{jid}: {out['error']}")
            continue
        if job["kind"] != "cli":
            try:
                _check_result(c, job, out)
            except (KeyError, TypeError) as exc:
                c.check(False, f"{jid}: malformed result: {exc!r}")
            continue
        c.check(out["exit_code"] == 0, f"{jid}: exit code {out['exit_code']}")
        if "report" not in out:
            c.check(False, f"{jid}: no report written")
            continue
        errors = [e.message for e in validator.iter_errors(out["report"])]
        c.check(not errors, f"{jid}: schema: {errors[:2]}")
        if not errors:
            try:
                _check_report(c, job, out["report"])
            except (KeyError, TypeError) as exc:
                c.check(False, f"{jid}: malformed results: {exc!r}")


def comparable(out: dict):
    """The part of a job's output that must repeat exactly between passes."""
    if "report_text" in out:
        return out["exit_code"], out["report_text"]
    return json.dumps(out, sort_keys=True)


def check_repeat(c: Checks, first: dict, outputs: dict, label: str) -> None:
    for jid, out in outputs.items():
        c.check(comparable(out) == comparable(first[jid]), f"{jid}: {label} output differs from the first pass")


# -- reference values --------------------------------------------------------


def _quantized(x: float) -> str:
    if not math.isfinite(x):
        return repr(x)
    return "0" if abs(x) < NOISE_FLOOR else f"{x:.{ROW_DIGITS}g}"


def _row_digest(rows: list[dict]) -> dict:
    """Per suite: row, pass and non-finite-ratio counts; a hash of every row's
    label, pass flag and exact/bound values to ROW_DIGITS significant digits;
    and per value field the sum of |x| and the mean of (i+1)|x| over finite
    values, which REL_TOL holds to the suite's scale.  ``ratio`` is derived
    (exact/bound) and can be noise over noise, so only its non-finite count
    is kept."""
    suites: dict[str, list[dict]] = {}
    for row in rows:
        suites.setdefault(row.get("suite", row.get("family", "")), []).append(row)
    out = {}
    for suite, group in suites.items():
        h = hashlib.sha256()
        for row in group:
            line = "|".join([row["label"], str(row.get("pass"))] + [_quantized(row[f]) for f in ROW_FIELDS])
            h.update(line.encode() + b"\n")
        d = {
            "n": len(group),
            "passed": sum(row.get("pass") is True for row in group),
            "ratio_nonfinite": sum(not math.isfinite(row.get("ratio", 0.0)) for row in group),
            "rows_sha256": h.hexdigest(),
        }
        for field in ROW_FIELDS:
            vals = [row[field] for row in group]
            fin = [(i, v) for i, v in enumerate(vals) if math.isfinite(v)]
            d[field] = {
                "sum_abs": math.fsum(abs(v) for _, v in fin),
                "wmean_abs": math.fsum((i + 1) * abs(v) for i, v in fin) / len(vals),
                "nonfinite": len(vals) - len(fin),
            }
        out[suite] = d
    return out


def digest(out: dict):
    """What the reference stores for one job: scalar results in full, row
    lists (verify, expsum) as per-suite digests."""
    if "report" in out:
        res = out["report"]["results"]
        return _row_digest(res) if isinstance(res, list) else res
    return {k: v for k, v in out.items() if k != "exit_code"}


def mismatches(ref, got, path: str = "", scale: float = 0.0) -> list[str]:
    """Integers, strings and flags exactly; floats to REL_TOL relative to the
    larger of the two values and of the largest entry of the list they sit in
    (the components of one vector share a scale), or within ABS_TOL."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(set(ref) ^ set(got))}"]
        return [m for k in ref for m in mismatches(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        finite = [abs(x) for x in ref if isinstance(x, float) and math.isfinite(x)]
        vec_scale = max(finite, default=0.0)
        return [m for i, (a, b) in enumerate(zip(ref, got))
                for m in mismatches(a, b, f"{path}[{i}]", vec_scale)]
    if isinstance(ref, float) and isinstance(got, float):
        if math.isfinite(ref) and math.isfinite(got):
            ok = abs(ref - got) <= max(REL_TOL * max(abs(ref), abs(got), scale), ABS_TOL)
        else:
            ok = repr(ref) == repr(got)
        return [] if ok else [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def check_reference(c: Checks, reference: dict, outputs: dict) -> None:
    for jid, ref in reference.items():
        if jid not in outputs or "error" in outputs[jid]:
            c.check(False, f"{jid}: no output to compare with the reference")
            continue
        diff = mismatches(ref, json.loads(json.dumps(digest(outputs[jid]))), jid)
        c.check(not diff, f"reference mismatch: {diff[:3]}")
