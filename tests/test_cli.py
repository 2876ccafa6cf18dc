"""CLI surface: flags, exit codes, report formats, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdigits import cli, fourier, harness
from sqdigits import expsums as xs

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src" / "sqdigits" / "report_schema.json").read_text())


def _readme_examples(program: str = "sqdigits") -> list[list[str]]:
    """The argv after ``program`` of every ``program ...`` line in README's sh
    blocks, comments cut."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    lines = (line.split("#")[0] for block in blocks for line in block.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith(program + " ")]


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = cli.main(args + ["--output", str(out)])
    return code, out


def test_readme_examples_exit_zero(tmp_path):
    examples = _readme_examples()
    assert {argv[0] for argv in examples} == {"verify", "constants", "equidist", "expsum", "typesums", "decay"}
    for i, argv in enumerate(examples):
        code, _ = run_cli(argv, tmp_path, f"{i}.out")
        assert code == 0, argv


def test_readme_script_runs():
    # the README's one script line, under this interpreter with the source tree
    # on the path; its Vaughan probe prints one line per x = 10^4 ... 10^7
    (argv,) = _readme_examples("python3")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert len(re.findall(r"^  x=", done.stdout, re.M)) == 4, done.stdout


def test_equidist_report(tmp_path):
    code, out = run_cli(["equidist", "--q", "2", "--m", "2", "--x", "1e5"], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["schema"] == "report-v2"
    assert report["results"]["pi_x"] == 9592
    assert sum(report["results"]["counts"]) == 9592


def test_equidist_1e7(tmp_path):
    code, out = run_cli(["equidist", "--q", "2", "--m", "2", "--x", "1e7"], tmp_path)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["pi_x"] == 664579
    assert results["max_rel_discrepancy"] <= 0.01


def test_verify_exit_zero_and_schema(tmp_path):
    code, out = run_cli(["verify", "--q", "2", "--gamma", "1/2", "--seed", "7"], tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert all(row["pass"] for row in report["results"])


def test_verify_violation_exits_one(tmp_path, monkeypatch):
    # quadratic means off by 1e-6 relative break their identity rows, and only those
    quadratic_mean = fourier.quadratic_mean
    monkeypatch.setattr(fourier, "quadratic_mean", lambda *args: [s * (1 + 1e-6) for s in quadratic_mean(*args)])
    code, out = run_cli(["verify", "--q", "2", "--gamma", "1/2", "--seed", "7"], tmp_path)
    assert code == cli.EXIT_VIOLATION
    rows = json.loads(out.read_text())["results"]
    assert {(row["suite"] == "quadratic-mean", row["pass"]) for row in rows} == {(True, False), (False, True)}


# the families whose bounds the paper states with explicit constants
EXPLICIT_FAMILIES = {"geometric", "gauss-complete", "gauss-incomplete", "gcd-average", "vdc"}


@pytest.mark.parametrize("family, name", [("gauss-complete", "gauss_complete"), ("weyl", "weyl_quadratic")])
def test_expsum_violation_exits_one_only_for_explicit_families(family, name, tmp_path, monkeypatch):
    # an evaluator 1e-6 relative above its bound fails an explicit family's rows;
    # an implicit family records no pass flag, so it never fails
    evaluator = getattr(xs, name)

    def above_bound(*args):
        _, bound = evaluator(*args)
        return bound * (1 + 1e-6), bound

    monkeypatch.setattr(xs, name, above_bound)
    code, out = run_cli(["expsum", "--family", family, "--seed", "1"], tmp_path)
    rows = json.loads(out.read_text())["results"]
    if family in EXPLICIT_FAMILIES:
        assert code == cli.EXIT_VIOLATION and {row["pass"] for row in rows} == {False}
    else:
        assert code == cli.EXIT_OK and {row["pass"] for row in rows} == {None}


def test_expsum_pass_flag_only_for_explicit_families(tmp_path):
    for family in cli.EXPSUM_FAMILIES:
        code, out = run_cli(["expsum", "--family", family, "--seed", "1"], tmp_path)
        assert code == cli.EXIT_OK
        flags = {(row["explicit_constant"], row["pass"]) for row in json.loads(out.read_text())["results"]}
        assert flags == ({(True, True)} if family in EXPLICIT_FAMILIES else {(False, None)}), family


def test_ratio_and_pass_rule():
    # (exact, bound, ratio): a zero bound gives 0.0 or inf, any other bound divides
    cases = ((3.0, 4.0, 0.75), (0.0, 0.0, 0.0), (-1e-9, 0.0, math.inf), (2.0, -4.0, -0.5))
    for exact, bound, ratio in cases:
        assert cli._ratio(exact, bound) == ratio
        assert cli._check_row("s", "l", exact, bound, "upper", 0.0)["ratio"] == ratio
    # pass compares exact with bound + tol, not the ratio with 1: at a zero bound
    # an infinite ratio can pass
    assert cli._passes(-1e-9, 0.0, "upper", 0.0)
    assert not cli._passes(1e-9, 0.0, "upper", 0.0)
    assert cli._passes(1.0, 1.0 + 1e-10, "identity", 1e-9)
    assert not cli._passes(1.0, 1.0 + 1e-8, "identity", 1e-9)


def test_reports_byte_identical(tmp_path):
    _, out1 = run_cli(["expsum", "--family", "gauss-complete", "--seed", "3"], tmp_path, "a.json")
    _, out2 = run_cli(["expsum", "--family", "gauss-complete", "--seed", "3"], tmp_path, "b.json")
    assert out1.read_bytes() == out2.read_bytes()
    _, out3 = run_cli(["expsum", "--family", "gauss-complete", "--seed", "4"], tmp_path, "c.json")
    assert out1.read_bytes() != out3.read_bytes()


# jobs re-run with numpy's dispatched SIMD kernels disabled, and the error their
# floats may move by (README, "CLI"): relative above 1, absolute below, where a
# quantity that is zero in exact arithmetic is rounding noise of any sign
DISPATCH_JOBS = [
    ["verify", "--q", "2", "--seed", "1"],
    ["typesums", "--q", "2", "--mu", "8", "--nu", "10", "--theta", "0.3", "--seed", "1"],
    ["equidist", "--q", "2", "--x", "1e6"],
    ["decay", "--q", "2", "--xs", "1e4,1e5,1e6", "--theta", "0.3721"],
    ["expsum", "--family", "vdc", "--seed", "1"],
]
DISPATCH_TOL = 1e-12


def _disagreements(a, b, path=()):
    """The paths where two parsed reports differ: in shape, in any value that
    is not a float, or in a float by more than DISPATCH_TOL."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [d for k in a for d in _disagreements(a[k], b[k], path + (k,))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _disagreements(x, y, path + (i,))]
    if type(a) is float and type(b) is float:
        close = math.isclose(a, b, rel_tol=DISPATCH_TOL, abs_tol=DISPATCH_TOL) or math.isnan(a) and math.isnan(b)
        return [] if close else [(path, a, b)]
    return [] if type(a) is type(b) and a == b else [(path, a, b)]


def test_reports_agree_across_cpu_dispatch(tmp_path):
    # byte identity holds at one dispatch level; with every SIMD feature numpy
    # dispatches to on this CPU disabled, the exit codes, pass flags and
    # strings must stay and each float within DISPATCH_TOL
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    disabled = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    script = (
        "import json, sys\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "from sqdigits import cli\n"
        "jobs, out, disabled = json.loads(sys.argv[1])\n"
        "assert not any(__cpu_features__[name] for name in disabled)\n"
        "print(json.dumps([cli.main(argv + ['--output', f'{out}/{i}.json']) for i, argv in enumerate(jobs)]))\n"
    )
    (tmp_path / "native").mkdir()
    (tmp_path / "reduced").mkdir()
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
    }
    args = json.dumps([DISPATCH_JOBS, str(tmp_path / "reduced"), disabled])
    done = subprocess.run(
        [sys.executable, "-c", script, args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    codes = [run_cli(argv, tmp_path / "native", f"{i}.json")[0] for i, argv in enumerate(DISPATCH_JOBS)]
    assert json.loads(done.stdout) == codes
    for i, argv in enumerate(DISPATCH_JOBS):
        native, reduced = (json.loads((tmp_path / side / f"{i}.json").read_text()) for side in ("native", "reduced"))
        assert _disagreements(native, reduced) == [], argv


def test_csv_format(tmp_path):
    code, out = run_cli(
        ["expsum", "--family", "geometric", "--seed", "2", "--format", "csv"],
        tmp_path,
        "report.csv",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,label,exact,bound,ratio,pass"
    assert len(lines) == 201  # header + one row per instance


def test_csv_scalar_report(tmp_path):
    code, out = run_cli(["constants", "--q", "2", "--gamma", "1/2", "--format", "csv"],
                        tmp_path, "c.csv")
    assert code == 0
    text = out.read_text()
    assert text.startswith("key,value")
    assert "eta" in text


def test_constants_improper_diagnostic(tmp_path):
    code, out = run_cli(["constants", "--q", "13", "--gamma", "1/3"], tmp_path)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["proper"] is False
    assert "improper" in results["diagnostic"]


def test_constants_values(tmp_path):
    code, out = run_cli(["constants", "--q", "2", "--gamma", "1/2"], tmp_path)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["proper"] and results["c_bound_holds"] and results["eta_bound_holds"]
    assert abs(results["eta"] - 0.5) < 1e-8


@pytest.mark.parametrize(
    "name, bound, failed",
    [("c_lower_bound_digit_sum", 1.0, "c_bound_holds"), ("eta_upper_bound_digit_sum", 0.0, "eta_bound_holds")],
)
def test_constants_failed_bound_flag_exits_one(name, bound, failed, tmp_path, monkeypatch):
    # a lower bound 1 for c = 0.19, or an upper bound 0 for eta = 1/2, fails
    # that flag and only that one; the report is still written
    monkeypatch.setattr(fourier, name, lambda *args: bound)
    code, out = run_cli(["constants", "--q", "2", "--gamma", "1/2"], tmp_path)
    assert code == cli.EXIT_VIOLATION
    results = json.loads(out.read_text())["results"]
    assert {flag for flag in ("c_bound_holds", "eta_bound_holds") if results[flag] is not True} == {failed}


def test_typesums_report(tmp_path):
    code, out = run_cli(
        ["typesums", "--q", "2", "--gamma", "1/2", "--mu", "4", "--nu", "6", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    results = report["results"]
    assert results["plan"]["out_of_regime"]  # thue-morse eta = 1/2
    assert results["S20_normalized"] <= 1.0
    assert results["SI_max_over_t"] >= results["SI"] - 1e-12


def test_decay_report(tmp_path):
    code, out = run_cli(
        ["decay", "--q", "2", "--gamma", "1/2", "--xs", "1e3,1e4,1e5"], tmp_path
    )
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["fitted_exponent"] < 0
    assert len(results["values"]) == 3


@pytest.mark.parametrize("command", ["verify", "constants", "equidist", "expsum", "typesums", "decay"])
def test_bare_subcommand_takes_runconfig_defaults(command):
    args = cli.build_parser().parse_args([command])
    assert cli.RunConfig(**vars(args)) == cli.RunConfig(command)


def test_usage_errors():
    assert cli.main(["equidist", "--gamma", "0.5"]) == cli.EXIT_USAGE
    assert cli.main(["nonsense"]) == cli.EXIT_USAGE
    assert cli.main(["equidist", "--q", "1", "--m", "2"]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["typesums", "--mu", "0"],
        ["typesums", "--nu", "-1"],
        ["constants", "--gamma", "1/0"],
        ["decay", "--theta", "nan"],
        ["typesums", "--theta", "inf"],
        ["equidist", "--x", "-5"],
        ["equidist", "--x", "inf"],
        ["decay", "--xs", "1,1e3,1e4"],
    ],
)
def test_bad_input_is_usage_error(argv, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


def test_capacity_exit():
    assert cli.main(["equidist", "--x", "1e12"]) == cli.EXIT_CAPACITY
    # a GRID_DENSITY * 4097 grid exceeds TABLE_CAPACITY; refused before allocation
    assert cli.main(["constants", "--q", "4097"]) == cli.EXIT_CAPACITY


def test_verify_draw_cap(capsys):
    # window offsets are drawn below q**8, which at q = 70000 leaves int64
    assert cli.main(["verify", "--q", "70000"]) == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "cap 2**63" in err and "Traceback" not in err


def test_verify_table_cap_before_any_suite(monkeypatch, capsys):
    # the l1-masked and almost-ap suites sum over q**lam points for lam up to 6
    # and 8; above q = 8 that exceeds TABLE_CAPACITY, and it must show before
    # the first suite, not seconds into the run
    class SuiteStarted(Exception):
        pass

    def started(*args):
        raise SuiteStarted

    monkeypatch.setattr(fourier, "quadratic_mean", started)
    for q in (9, 17, 234):
        start = time.perf_counter()
        assert cli.main(["verify", "--q", str(q), "--gamma", "1/3"]) == cli.EXIT_CAPACITY
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "table capacity" in err and "Traceback" not in err
    with pytest.raises(SuiteStarted):
        cli.main(["verify", "--q", "8", "--gamma", "1/3"])


REPORT_ARGV = (
    ["verify", "--q", "2", "--gamma", "1/2", "--seed", "3"],
    ["constants", "--q", "3", "--gamma", "1/3"],
    ["equidist", "--q", "3", "--m", "5", "--x", "1e4"],
    ["expsum", "--family", "vdc", "--seed", "2"],
    ["typesums", "--q", "2", "--gamma", "1/2", "--mu", "3", "--nu", "4", "--theta", "0.3"],
    ["decay", "--q", "2", "--gamma", "1/2", "--xs", "1e3,1e4,1e5", "--theta", "0.37"],
)


def test_report_text_is_sorted_indented_json(tmp_path):
    # a report is the text of json.dumps(sort_keys=True, indent=2) plus a newline;
    # _json_default carries the values JSON has no type for
    for argv in REPORT_ARGV:
        code, out = run_cli(argv, tmp_path)
        assert code == cli.EXIT_OK
        text = out.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    re_im = cli._json_default(complex(math.inf, -0.0))
    assert re_im == {"re": math.inf, "im": -0.0} and math.copysign(1.0, re_im["im"]) == -1.0
    for scalar, value in ((np.float32(0.5), 0.5), (np.int64(-3), -3), (np.uint8(7), 7)):
        converted = cli._json_default(scalar)
        assert converted == value and type(converted) is type(value)
    with pytest.raises(TypeError):
        cli._json_default(object())


# argv that check_config refuses at once: (argv, exit code, a part of the
# message, the work that must not start; reached, it runs for seconds, for
# ever, or into a traceback)
REFUSED = [
    (["verify", "--q", "100000"], cli.EXIT_CAPACITY, "cap 2**63",
     ("sqdigits.cli.make_digit_exponential", "numpy.random.default_rng")),
    (["verify", "--q", "3", "--gamma", "1/2"], cli.EXIT_USAGE, "proper",
     ("sqdigits.fourier.quadratic_mean", "numpy.random.default_rng")),
    (["constants", "--q", "1000000"], cli.EXIT_CAPACITY, "grid",
     ("sqdigits.cli.make_digit_exponential",)),
    # make_digit_exponential refuses q itself; the function it returns is built last
    (["decay", "--q", str(10**29), "--xs", "10,20,30"], cli.EXIT_CAPACITY, "digit function cap",
     ("sqdigits.qmult.StronglyQMultiplicative", "sqdigits.harness._lambda_sums")),
    (["decay", "--xs", "1e7,1e8,2e8"], cli.EXIT_CAPACITY, "exceeds the cap",
     ("sqdigits.harness._lambda_sums",)),
    # a digit function at q = 2**20 takes seconds to build: the x values go first
    (["decay", "--q", "1048576", "--xs", "1e7,1e8,2e8"], cli.EXIT_CAPACITY, "exceeds the cap",
     ("sqdigits.cli.make_digit_exponential", "sqdigits.harness._lambda_sums")),
    (["equidist", "--q", str(2**64)], cli.EXIT_CAPACITY, "uint64 digit kernel",
     ("sqdigits.harness.prime_arrays",)),
    (["equidist", "--m", str(2**16 + 1)], cli.EXIT_CAPACITY, "bin cap",
     ("sqdigits.harness.prime_arrays",)),
    (["equidist", "--m", "10000000000"], cli.EXIT_CAPACITY, "bin cap",
     ("sqdigits.harness.prime_arrays",)),
    (["equidist", "--m", str(2**62)], cli.EXIT_CAPACITY, "bin cap",
     ("sqdigits.harness.prime_arrays",)),
    (["typesums", "--q", "3", "--gamma", "1/3", "--mu", "30000000", "--nu", "1"],
     cli.EXIT_CAPACITY, "working range", ("numpy.random.default_rng",)),
    (["typesums", "--q", "3", "--gamma", "1/2"], cli.EXIT_USAGE, "proper",
     ("numpy.random.default_rng",)),
    # neither path names a file that open() could write
    (["equidist", "--q", "2", "--m", "3", "--x", "1e8", "--output", ""], cli.EXIT_USAGE, "path is empty",
     ("sqdigits.harness.prime_arrays",)),
    (["equidist", "--q", "2", "--m", "3", "--x", "1e8", "--output", "nonexist_dir_x" + os.sep], cli.EXIT_USAGE,
     "no directory", ("sqdigits.harness.prime_arrays",)),
]


@pytest.mark.parametrize("argv, code, message, work", REFUSED, ids=[" ".join(r[0]) for r in REFUSED])
def test_refused_before_any_work(argv, code, message, work, monkeypatch, capsys):
    def started(*args, **kwargs):
        raise AssertionError(f"work started before {argv} was refused")

    for target in work:
        monkeypatch.setattr(target, started)
    start = time.perf_counter()
    assert cli.main(argv) == code
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_typesums_cap_before_coefficient_draws(monkeypatch, capsys):
    # 2**29 coefficient draws (4 GiB) would run before the cap check
    def no_draws(*args):
        raise AssertionError("coefficients were drawn before the cap check")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    argv = ["typesums", "--q", "2", "--gamma", "1/2", "--mu", "30", "--nu", "2"]
    assert cli.main(argv) == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "cap" in err and "Traceback" not in err


def test_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys):
    def no_work(config):
        raise AssertionError("the work ran before the output path was checked")

    monkeypatch.setitem(cli.COMMANDS, "typesums", no_work)
    missing = tmp_path / "missing" / "x.json"
    assert cli.main(["typesums", "--output", str(missing)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    monkeypatch.setitem(cli.COMMANDS, "constants", no_work)
    assert cli.main(["constants", "--q", "2", "--output", str(tmp_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "Traceback" not in err


def test_typesums_builds_its_rectangle_once(tmp_path, monkeypatch):
    calls = []
    square_codes = harness._square_codes

    def counting(f, n, theta, work):
        calls.append(len(n))
        return square_codes(f, n, theta, work)

    monkeypatch.setattr(harness, "_square_codes", counting)
    argv = ["typesums", "--q", "2", "--gamma", "1/2", "--mu", "8", "--nu", "14"]
    assert run_cli(argv, tmp_path)[0] == cli.EXIT_OK
    rectangle = (2**8 - 2**7) * (2**14 - 2**13)
    assert sum(calls) == rectangle
    assert len(calls) == -(-rectangle // harness.KERNEL_BLOCK) == 16


def test_untwisted_typesums_gathers_its_rectangle(tmp_path, monkeypatch):
    # at theta 0 each of the 16 kernel blocks of the rectangle is gathered from
    # the D = 2 roots of unity; a twisted run never reads the root table, so
    # it keeps the exp per element
    tables = []
    root_table = harness._root_table

    def counting(denom):
        tables.append(denom)
        return root_table(denom)

    monkeypatch.setattr(harness, "_root_table", counting)
    argv = ["typesums", "--q", "2", "--gamma", "1/2", "--mu", "8", "--nu", "14"]
    assert run_cli(argv, tmp_path)[0] == cli.EXIT_OK
    assert tables == [2] * 16
    tables.clear()
    assert run_cli(argv + ["--theta", "0.37"], tmp_path)[0] == cli.EXIT_OK
    assert tables == []


def test_improper_gamma_verify_is_usage_error():
    assert cli.main(["verify", "--q", "3", "--gamma", "1/2"]) == cli.EXIT_USAGE


def test_gamma_parsing():
    with pytest.raises(Exception):
        cli._parse_gamma("0.5")
    assert cli._parse_gamma("3/7") == "3/7"
    assert cli._parse_gamma("-1/2") == "-1/2"
    assert cli._parse_gamma("2") == "2"


# Fuzzed argv: each flag has small valid values and boundary values: 0, 1, -1,
# 2**63, 2**64, 10**29, nan, inf, 1e300 and junk, and half the time an edge of
# the flag's own caps or preconditions.  An example gives one flag, the probe,
# a boundary value and the others valid values or their defaults.  An accepted
# value at a cap (verify q = 8, constants q = 4096, x = 10**8, a 2**26
# rectangle, 2**24 residue bins) runs for seconds to hours, so the cap edges
# drawn are those a subcommand refuses; test_refused_before_any_work patches
# out the work instead.
EDGES = ["0", "1", "-1", str(2**63), str(2**64), str(10**29), "nan", "inf", "1e300",
         "", "abc", "1/", "--", "0x10", "-inf"]
# stand-ins for paths under the test's own temporary directory; with "" they
# are the output paths that can never be written
MISSING_DIR, MISSING_DIR_SEP = "<missing>", "<missing>/"


def edges(*own):
    return st.one_of(st.sampled_from(own), st.sampled_from(EDGES)) if own else st.sampled_from(EDGES)


THETA = (["0", "0.3", "-0.77", "1e10"], edges("-1e300"))
COMMON_FLAGS = {
    "--gamma": (["1/2", "1/3", "2/7", "-1/5"], edges("3/2", "1/0", "0.5", f"{2**64}/3")),
    "--seed": (["1", "7"], edges()),
    "--format": (["json", "csv"], edges("xml")),
    "--output": (["-"], st.sampled_from([MISSING_DIR, MISSING_DIR_SEP, ""])),
}
COMMAND_FLAGS = {
    "verify": {"--q": (["2"], edges("9", "233", "234", "235", "70000"))},
    "constants": {"--q": (["2", "3", "5", "13"], edges("4097"))},
    "equidist": {
        "--q": (["2", "3", "10"], edges(str(2**64 - 1), str(2**64 + 1))),
        "--m": (["2", "3", "5", "4096"], edges(str(2**16), str(2**16 + 1), "10000000000", str(2**62))),
        "--x": (["2", "10", "1e3", "1e5"], edges(str(10**9 + 1), "1e12")),
    },
    "expsum": {"--q": (["2"], edges()), "--family": (list(cli.EXPSUM_FAMILIES), edges("nope"))},
    "typesums": {
        "--q": (["2", "3"], edges("4097", "8193")),
        "--mu": (["1", "2", "3", "6"], edges("27", "30000000")),
        "--nu": (["1", "2", "4", "6"], edges("27")),
        "--theta": THETA,
    },
    "decay": {
        "--q": (["2", "3"], edges(str(2**20 + 1))),
        "--xs": (["10,20,30", "2,3,4", "1e3,1e4,1e5"],
                 edges("1e7,1e8,2e8", f"10,20,{10**8 + 1}", "1e3,1e4", "1e4,1e3,1e5",
                       "1e3,1e4,1e300", "1e3,1e4,inf", "1e3,nan,1e5", ",", "1e3,1e4,1e5,")),
        "--theta": THETA,
    },
}
# the default mu = 6, nu = 10 is a 3**16-point rectangle at q = 3
ALWAYS = {"typesums": ("--mu", "--nu")}
# an accepted verify is a 1 s run, so verify is drawn half as often as the rest
COMMANDS = 2 * ["constants", "decay", "equidist", "expsum", "typesums"] + ["verify"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    flags = {**COMMON_FLAGS, **COMMAND_FLAGS[command]}
    probe = draw(st.sampled_from(sorted(flags)))
    argv = [command]
    for flag, (valid, boundary) in flags.items():
        if flag == probe:
            argv += [flag, draw(boundary)]
        elif flag in ALWAYS.get(command, ()) or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(valid))]
    return argv


def _failed_flags(text: str, csv_format: bool) -> bool:
    """Whether a JSON or CSV report holds a row pass or a constants bound flag
    that is false."""
    flags = ("c_bound_holds", "eta_bound_holds")
    if csv_format:
        header, *rows = csv.reader(io.StringIO(text))
        if header[0] == "suite":
            return any(row[5] == "False" for row in rows)
        return any(key in flags and value == "false" for key, value in rows)
    results = json.loads(text)["results"]
    values = [row["pass"] for row in results] if isinstance(results, list) else [results.get(k) for k in flags]
    return any(value is False for value in values)


def _nonfinite(obj):
    """(value, the container holding it, its key) of every non-finite float in obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        if isinstance(value, float) and not math.isfinite(value):
            yield value, obj, key
        else:
            yield from _nonfinite(value)


@settings(derandomize=True, database=None, max_examples=400, deadline=timedelta(seconds=5))
@given(argv=argvs())
def test_fuzz_argv(argv, tmp_path_factory):
    missing_dir = str(tmp_path_factory.getbasetemp() / "no-such-dir")
    paths = {MISSING_DIR: os.path.join(missing_dir, "report.json"), MISSING_DIR_SEP: missing_dir + os.sep}
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if "--output" in argv and argv[argv.index("--output") + 1] != "-":
        assert code == cli.EXIT_USAGE, argv  # refused, however valid the rest
    if code in (0, 1):
        assert (code == cli.EXIT_VIOLATION) == _failed_flags(out.getvalue(), "csv" in argv), argv
    if code in (0, 1) and "csv" not in argv:
        report = json.loads(out.getvalue())
        jsonschema.validate(report, SCHEMA)
        for value, row, key in _nonfinite(report):
            assert (key, value, row.get("bound")) == ("ratio", math.inf, 0), argv
        if report["command"] == "expsum":
            assert all(row["explicit_constant"] == (row["pass"] is not None) for row in report["results"])
