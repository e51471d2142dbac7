import argparse
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nbsloc import cli
from nbsloc.locop import disk_eigenvalue, landau_density, landau_eigenvalue, leakage_bound
from nbsloc.states import ModelParams

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(args, cwd=None):
    """``python -m nbsloc ARGS`` in a new interpreter; stdout as bytes."""
    return subprocess.run([sys.executable, "-m", "nbsloc", *args], capture_output=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


def parse_csv(text):
    params = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[2:].partition(" = ")
            params[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return params, header, rows


class TestEigvals:
    def test_unit_strength_table(self, capsys):
        code, out, _ = run_cli(["eigvals", "--B", "1", "--R", "0.5", "--j-max", "3"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["j", "lambda"]
        values = [float(r[1]) for r in rows]
        for j, got in enumerate(values):
            assert got == pytest.approx(0.25 ** (j + 1), abs=1e-12)

    def test_rows_do_not_depend_on_j_max(self):
        # lambda_0 at B = 1.5, R = 0.9 printed as 0.9638999999999998 at --j-max 10 and as 0.9639 at 300
        runs = [run_fresh(["eigvals", "--B", "1.5", "--R", "0.9", "--j-max", j_max]) for j_max in ("10", "300")]
        assert [run.returncode for run in runs] == [0, 0]
        short, long = ([line for line in run.stdout.decode().splitlines() if not line.startswith("#")]
                       for run in runs)
        assert len(short) == 12 and long[:12] == short and short[1] == "0,0.9639"

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            ["eigvals", "--B", "1.5", "--j-max", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["B"] == 1.5
        assert [row["j"] for row in doc["data"]] == [0, 1, 2]

    def test_higher_level_table(self, capsys):
        code, out, _ = run_cli(
            ["eigvals", "--B", "2.5", "--m", "1", "--j-max", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(0.0 <= row["lambda"] <= 1.0 for row in doc["data"])

    def test_subnormal_level_entries_exit_zero(self, capsys):
        # lambda_j for j = 3,513 to 3,628 is subnormal here; its refinement test refused them and this exited 2
        code, out, err = run_cli(["eigvals", "--B", "3", "--R", "0.9", "--m", "1", "--j-max", "5000",
                                  "--format", "json"], capsys)
        assert code == 0 and err == ""
        got = [row["lambda"] for row in json.loads(out)["data"]]
        assert got == landau_eigenvalue(range(5001), ModelParams(3.0, 1), 0.9).tolist()
        assert 0.0 < got[3513] < sys.float_info.min and got[3628] > 0.0 and got[5000] == 0.0

    def test_inadmissible_level_exit_code(self, capsys):
        code, _, err = run_cli(["eigvals", "--B", "1.5", "--m", "2"], capsys)
        assert code == 2
        assert "m < B - 1/2" in err

    def test_bad_radius_exit_code(self, capsys):
        code, _, err = run_cli(["eigvals", "--R", "1.5"], capsys)
        assert code == 2
        assert "0 < R < 1" in err

    def test_nan_strength_exit_code(self, capsys):
        code, _, err = run_cli(["eigvals", "--B", "nan"], capsys)
        assert code == 2
        assert "2B > 1" in err


class TestKernel:
    def test_s_is_r_squared(self, capsys):
        code, out, _ = run_cli(
            ["kernel", "--B", "1", "--R", "0.5", "--z", "0", "--w", "0.3", "--format", "json"],
            capsys)
        assert code == 0
        doc = json.loads(out)
        rec = doc["data"][0]
        assert doc["params"]["s"] == 0.25
        assert "note" not in rec
        assert rec["closed_re"] == pytest.approx(0.25, rel=1e-10, abs=0.0)
        assert rec["rel_discrepancy"] <= 1e-8

    def test_outside_disk_rejected(self, capsys):
        code, _, err = run_cli(["kernel", "--z", "1.2", "--w", "0.1"], capsys)
        assert code == 2
        assert "|z| < 1" in err

    def test_malformed_complex_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kernel", "--z", "nope", "--w", "0.1"])
        assert exc.value.code == 2


class TestLeakage:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["leakage", "--B", "1.5", "--R", "0.5", "--z", "0.7", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["data"][0]["bound"] == pytest.approx(
            leakage_bound(0.7, 1.5, 0.5), rel=1e-12, abs=0.0)
        assert doc["data"][0]["p"] == pytest.approx(0.49)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_params_record_the_tail_tolerance_used(self, fmt, capsys):
        # the tail bound is the fixed locop.LEAKAGE_TAIL_TOL, so no tolerance is a param
        code, out, _ = run_cli(["leakage", "--z", "0.99", "--B", "1.5", "--R", "0.9", "--format", fmt], capsys)
        assert code == 0
        if fmt == "json":
            doc = json.loads(out)
            params, bound = doc["params"], doc["data"][0]["bound"]
        else:
            params, header, rows = parse_csv(out)
            assert header == ["bound", "p"]
            bound = float(rows[0][0])
        assert not {"tol", "tail_tol"} & set(params)
        assert bound == leakage_bound(0.99, 1.5, 0.9)


class TestDensity:
    def test_rows_parse_and_normalize_roughly(self, capsys):
        code, out, _ = run_cli(
            ["density", "--B", "1.5", "--j-max", "1", "--samples", "400"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["j", "rho", "density"]
        per_j = {}
        for j, rho, dens in rows:
            per_j.setdefault(int(j), []).append(float(dens))
        # left Riemann sum on the uniform grid is a crude mass check
        for j, vals in per_j.items():
            assert sum(vals) / 400 == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("B, m", [(1.5, 0), (2.5, 1)])
    def test_rows_are_the_single_index_densities_bit_for_bit(self, B, m, capsys):
        code, out, _ = run_cli(["density", "--B", str(B), "--m", str(m), "--j-max", "300",
                                "--samples", "5", "--format", "json"], capsys)
        assert code == 0
        got = np.array([row["density"] for row in json.loads(out)["data"]]).reshape(301, 5)
        rho = np.linspace(0.0, 1.0, 6)[:-1]
        want = np.array([landau_density(j, ModelParams(B, m), rho) for j in range(301)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_large_strength_rows_are_finite(self, capsys):
        # the density norm alone overflows at j = 673; this exited 1 with an OverflowError
        code, out, err = run_cli(["density", "--B", "200", "--j-max", "673", "--samples", "2"], capsys)
        assert code == 0 and err == ""
        _, _, rows = parse_csv(out)
        assert len(rows) == 674 * 2
        assert all(math.isfinite(float(dens)) for _, _, dens in rows)
        assert rows[-1][:2] == ["673", "0.5"] and 0.0 < float(rows[-1][2]) < 1e-14


class TestMc:
    def test_estimates_close(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--B", "1.25", "--R", "0.6", "--j-max", "2",
             "--samples", "100000", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        for row in doc["data"]:
            exact = disk_eigenvalue(row["j"], 1.25, 0.6)
            sigma = math.sqrt(exact * (1.0 - exact) / 100000)
            assert abs(row["estimate"] - exact) <= 5.0 * sigma

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _, _ = run_cli(
                ["mc", "--B", "1.25", "--R", "0.6", "--j-max", "1",
                 "--samples", "20000", "--seed", "7", "--out", str(path)], capsys)
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()


    @pytest.mark.parametrize("B, R, j_max", [("1.5", "0.6", "20"), ("0.51", "0.9", "40")])
    def test_exact_column_is_the_eigvals_table(self, B, R, j_max, capsys):
        # each row ran its own continued fraction, 18 of 21 rows off the table at B = 1.5
        args = ["--B", B, "--R", R, "--j-max", j_max, "--format", "json"]
        _, mc, _ = run_cli(["mc", *args, "--samples", "1000"], capsys)
        _, eigvals, _ = run_cli(["eigvals", *args], capsys)
        exact = [row["exact"] for row in json.loads(mc)["data"]]
        assert exact == [row["lambda"] for row in json.loads(eigvals)["data"]]
        assert len(exact) == int(j_max) + 1


class TestVerifyCommand:
    def test_report_written_and_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, err = run_cli(["verify", "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        assert "verification passed" in err
        doc = json.loads(out.read_text())
        assert all(row["passed"] for row in doc["data"])

    def test_report_validates_against_schema(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["verify", "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        schema_path = ROOT / "docs" / "verify_report.schema.json"
        jsonschema.validate(json.loads(out.read_text()), json.loads(schema_path.read_text()))

    def test_injected_fault_fails_with_exit_one(self, capsys, monkeypatch):
        from nbsloc import states

        exact = states.laguerre_function  # the name verify reads
        monkeypatch.setattr(states, "laguerre_function", lambda j, B, xi: exact(j, B, xi) * (1.0 + 1e-3))
        try:
            code, _, err = run_cli(["verify"], capsys)
        finally:
            monkeypatch.undo()
        assert code == 1
        assert "laguerre_orthonormality" in err
        assert "FAILED" in err


ROUND_TRIP_ARGS = {
    "eigvals": ["--B", "1.7", "--R", "0.8", "--j-max", "12"],
    "kernel": ["--B", "1.5", "--R", "0.6", "--z", "0.1+0.2j", "--w", "0.3"],
    "leakage": ["--B", "1.25", "--R", "0.6", "--z", "0.5+0.3j"],
    "density": ["--B", "2.5", "--m", "1", "--j-max", "2", "--samples", "7"],
    "mc": ["--B", "1.25", "--R", "0.6", "--j-max", "2", "--samples", "500"],
    "verify": [],
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP_ARGS))
def test_csv_round_trips_to_the_json_document(command, capsys):
    args = [command, *ROUND_TRIP_ARGS[command]]
    code, text, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0
    code, doc_text, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(doc_text)
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("# ")]
    params = dict(line[2:].split(" = ", 1) for line in header)
    assert params == {key: repr(value) for key, value in doc["params"].items()}
    columns, *rows = csv.reader(io.StringIO("\n".join(lines[len(header):])))
    assert len(rows) == len(doc["data"])
    for row, want in zip(rows, doc["data"]):
        assert columns == sorted(want, key=columns.index)
        for name, cell in zip(columns, row):
            value = want[name]
            if isinstance(value, bool):
                assert cell == str(value)
            elif isinstance(value, float):
                assert float(cell) == value and cell == repr(value)
            else:
                assert cell == str(value)


@pytest.mark.parametrize("args", [
    ["eigvals", "--B", "inf"],
    ["eigvals", "--B", "-inf"],
    ["eigvals", "--R", "inf"],
    ["eigvals", "--R", "nan"],
    ["eigvals", "--j-max", "-5"],
])
def test_bad_numbers_exit_two_without_traceback(args):
    proc = run_fresh(args)
    assert proc.returncode == 2
    assert b"error:" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("args", [
    ["kernel", "--z", "0.3", "--w", "0.2", "--B", "2.5", "--m", "1"],
    ["leakage", "--z", "0.5", "--B", "2.5", "--m", "1"],
    ["density", "--R", "5"],
    ["density", "--samples", "1"],
    ["density", "--samples", "10001"],
    ["verify", "--B", "7"],
    ["eigvals", "--tol", "1e-3"],
    ["kernel", "--z", "0.3", "--w", "0.2", "--s", "0.5"],
    ["leakage", "--z", "0.5", "--tol", "1e-20"],
    ["eigvals", "--j", "3"],
    ["leakage", "--z", "0.5", "--t", "1e-3"],
])
def test_flags_a_command_does_not_read_exit_two(args):
    # each of these exited 0; the first ones with params claiming the value, the last four
    # through the removed `kernel --s` and `leakage --tol`, two of them abbreviated
    proc = run_fresh(args)
    assert proc.returncode == 2
    assert b"error:" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("args", [
    ["eigvals", "--B=--"],
    ["eigvals", "--out=--"],
    ["kernel", "--z=--", "--w", "0.1"],
    ["eigvals", "--format=--"],
])
def test_a_dashdash_value_exits_two_without_traceback(args, tmp_path):
    # Python 3.11's argparse reads --B=-- as B = []: the first three ended in a TypeError traceback
    # with exit 1, the last wrote CSV with exit 0.  A later argparse reads '--', which --out took as a path
    proc = run_fresh(args, cwd=tmp_path)
    flag = next(word for word in args if word.endswith("=--")).removesuffix("=--")
    assert proc.returncode == 2
    assert f"error: argument {flag}: ".encode() in proc.stderr  # a later argparse may refuse the '--' itself
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b"" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, flag, message", [
    (["mc", "--seed", "-1"], "--seed", "expected a nonnegative integer, got '-1'"),
    (["mc", "--seed=-1"], "--seed", "expected a nonnegative integer, got '-1'"),
    (["mc", "--samples", "50"], "--samples", "expected an integer >= 100, got '50'"),
])
def test_mc_seed_and_samples_are_refused_while_parsing(args, flag, message, capsys, monkeypatch):
    # a negative seed exited 2 with numpy's bare "expected non-negative integer", and 50 samples with the
    # n_samples domain error, both after the exact table was built
    def refuse(*args):
        raise AssertionError("the exact table was built")

    monkeypatch.setattr(cli.locop, "landau_eigenvalue", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: nbsloc mc ")
    assert err.endswith(f"\nnbsloc mc: error: argument {flag}: {message}\n")


@pytest.mark.parametrize("command", sorted(ROUND_TRIP_ARGS))
def test_unknown_flag_is_reported_under_the_subcommand_usage(command, capsys):
    # the top-level parser reported it, under "usage: nbsloc [-h] [--version] {eigvals,...}"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *ROUND_TRIP_ARGS[command], "--no-such-flag", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: nbsloc {command} ")
    assert err.endswith(f"nbsloc {command}: error: unrecognized arguments: --no-such-flag 1\n")


@pytest.mark.parametrize("command", sorted(ROUND_TRIP_ARGS))
def test_invalid_format_is_reported_under_the_subcommand_usage(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *ROUND_TRIP_ARGS[command], "--format", "xml"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: nbsloc {command} ")
    assert f"\nnbsloc {command}: error: argument --format: invalid choice: 'xml'" in err


def test_missing_required_flag_is_reported_under_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "--B", "1.5", "--z", "0.1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: nbsloc kernel ")
    assert err.endswith("\nnbsloc kernel: error: the following arguments are required: --w\n")


def test_no_flag_is_accepted_abbreviated(capsys):
    # argparse took any unambiguous prefix: "eigvals --j 3" set --j-max
    def accepted(argv, prefix):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code == 0 or f"unrecognized arguments: {prefix}" not in capsys.readouterr().err
        return True

    spellings = [(["--version"[:cut], "verify"], "--version"[:cut]) for cut in range(3, len("--version"))]
    for command, (_, _, flags) in cli.COMMANDS.items():
        for flag in ["--" + dest.replace("_", "-") for dest in flags] + ["--format", "--out", "--help"]:
            spellings += [([command, *ROUND_TRIP_ARGS[command], flag[:cut], "0"], flag[:cut])
                          for cut in range(3, len(flag))]
    assert len(spellings) > 60
    assert [argv for argv, prefix in spellings if accepted(argv, prefix)] == []


def test_readme_flag_table_is_the_parser():
    # each row's first code span lists the flags with their defaults, a required flag as its name in capitals
    table = re.search(r"^\| command \| flags \(defaults\) \|\n\|[-|]+\|\n((?:\|.*\n)+)",
                      (ROOT / "README.md").read_text(), re.M).group(1)
    rows = {}
    for line in table.splitlines():
        command, cell = (part.strip() for part in line.strip("|").split("|"))
        span = re.match(r"`([^`]*)`", cell)
        tokens = span.group(1).split() if span else []
        rows[command] = dict(zip(tokens[::2], tokens[1::2]))
    want = {}
    for command, (_, _, flags) in cli.COMMANDS.items():
        want[command] = {"--" + dest.replace("_", "-"): dest.upper() if spec.get("required") else str(spec["default"])
                         for dest, spec in flags.items()}
    assert rows == want


def output_formats_table(heading):
    """Each row's first code span in the table under ``heading`` in docs/output_formats.md, split at its commas."""
    section = (ROOT / "docs" / "output_formats.md").read_text().split(f"\n## {heading}\n", 1)[1]
    table = re.search(r"^\| command \| \w+ \|\n\|[-|]+\|\n((?:\|.*\n)+)", section, re.M).group(1)
    rows = {}
    for line in table.splitlines():
        command, cell = (part.strip() for part in line.strip("|").split("|"))
        rows[command] = sorted(re.match(r"`([^`]*)`", cell).group(1).split(", "))
    return rows


def test_output_formats_tables_are_the_json_documents(capsys):
    # a param or column that a command gains must be listed in docs/output_formats.md
    params = output_formats_table("Parameters per subcommand")
    columns = output_formats_table("Columns per subcommand")
    assert list(params) == list(columns) == list(cli.COMMANDS)
    for command in cli.COMMANDS:
        code, text, _ = run_cli([command, *ROUND_TRIP_ARGS[command], "--format", "json"], capsys)
        doc = json.loads(text)
        assert code == 0 and sorted(doc["params"]) == params[command], command
        assert doc["data"] and all(sorted(row) == columns[command] for row in doc["data"]), command


@pytest.mark.parametrize("target", ["missing/report.csv", "."])
def test_unwritable_out_exits_two_without_traceback(target, tmp_path):
    # open() raised through main: a traceback and exit 1, the code of a failed verify check
    proc = run_fresh(["eigvals", "--j-max", "2", "--out", str(tmp_path / target)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:")
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("command", sorted(ROUND_TRIP_ARGS))
def test_params_are_exactly_the_flags_the_command_reads(command, capsys):
    # every command echoed B, R, m, j_max, tol and seed, whether it read them or not
    argv = [command, *ROUND_TRIP_ARGS[command], "--format", "json"]
    parsed = vars(cli.build_parser().parse_args(argv))
    flags = set(parsed) - {"command", "format", "out"}
    assert flags == set(cli.COMMANDS[command][2])
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    params = json.loads(out)["params"]
    computed = {"kernel": {"s", "z", "w"}, "leakage": {"z"}}.get(command, set())
    assert set(params) == flags | computed | {"command"}
    assert {key: params[key] for key in flags - computed} == {key: parsed[key] for key in flags - computed}


@pytest.mark.parametrize("command, fmt", [(command, "json") for command in sorted(ROUND_TRIP_ARGS)]
                         + [("density", "csv"), ("kernel", "csv")])
def test_in_process_stdout_is_the_fresh_process_stdout(command, fmt, capsys):
    args = [command, *ROUND_TRIP_ARGS[command], "--format", fmt]
    cli.main(["eigvals", "--B", "2.5", "--m", "1", "--format", "json"])  # a parser already in use
    capsys.readouterr()
    code, out, _ = run_cli(args, capsys)
    proc = run_fresh(args)
    assert (code, out.encode()) == (proc.returncode, proc.stdout)


DISPATCH_ARGV = {
    **{f"{command} run": [command, *args, "--format", "json"] for command, args in ROUND_TRIP_ARGS.items()},
    **{f"{command} --help": [command, "--help"] for command in ROUND_TRIP_ARGS},
    "--version": ["--version"],
    "no argv": [],
    "unknown command": ["nope", "--B", "2"],
    "top-level flag after a command": ["eigvals", "--version"],
    "unknown flag": ["leakage", "--z", "0.5", "--no-such-flag"],
    "bad value": ["density", "--samples", "1"],
    # accepted by argparse, which main's plain read hands them to
    "repeated flag run": ["eigvals", "--B", "2", "--B", "1.5"],
    "separate negative value run": ["kernel", "--z", "-0.3", "--w", "0.2"],
}


@pytest.mark.parametrize("case", sorted(DISPATCH_ARGV))
def test_dispatch_is_the_top_level_parse(case, capsys, monkeypatch):
    # main hands an argv that starts with a command straight to that command's parser
    argv = DISPATCH_ARGV[case]
    monkeypatch.setenv("COLUMNS", "80")  # help text is wrapped to the terminal width, in both processes
    seen = []
    for command, (handler, help_text, flags) in cli.COMMANDS.items():
        def record(args, handler=handler):
            seen.append(args)
            return handler(args)
        monkeypatch.setitem(cli.COMMANDS, command, (record, help_text, flags))
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    proc = run_fresh(argv)
    assert (code, out.encode(), err.encode()) == (proc.returncode, proc.stdout, proc.stderr)
    if case.endswith(" run"):
        assert code == 0 and seen == [cli.build_parser().parse_args(argv)]
    else:
        assert code == (0 if case.endswith("--help") or case == "--version" else 2) and seen == []


def _outcome(call):
    """(result, exit code, stdout, stderr) of call(); the exit code is None unless it raised SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result, code = call(), None
        except SystemExit as exc:
            result, code = None, exc.code
    return result, code, out.getvalue(), err.getvalue()


FUZZ_VALUES = ["1.5", "0.6", "2", "0", "20", "1e-3", "nan", "-inf", "-0.3", "-1", "-.5", "", " ", "nope",
               "0.1+0.2j", "-0.3+0.4j", "(0.1-0.2j)", "0.3 j", "json", "csv", "xml", "out.csv", "-", "--",
               "=", "1=2", "--B", "-h", "1_000", "\u0661.5"]


@st.composite
def subcommand_argv(draw):
    """A command, then flag/value words: full, abbreviated, unknown and repeated flags, in both forms."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = ["--" + dest.replace("_", "-") for dest in cli.COMMANDS[command][2]] + ["--format", "--out"]
    flag = st.sampled_from(flags * 6 + [f[:-1] for f in flags] + ["--no-such-flag", "--j_max", "-B", "--help",
                                                                   "-h", "--version", "--"])
    value = st.sampled_from(FUZZ_VALUES) | st.text(max_size=4)
    words = draw(st.sampled_from([[], ROUND_TRIP_ARGS[command]]))
    for name, joined, text in draw(st.lists(st.tuples(flag, st.booleans(), value), max_size=4)):
        words = words + ([f"{name}={text}"] if joined else [name, text])
    if words and draw(st.booleans()):
        words = draw(st.permutations(words))[:draw(st.integers(len(words) - 1, len(words)))]
    return [command, *words]


@given(argv=subcommand_argv())
@example(argv=["eigvals", "--B=--"])
@example(argv=["mc", "--j-max", "3", "--out=--"])
@settings(max_examples=400, deadline=None)
def test_main_reads_every_argv_as_argparse_does(argv):
    # main reads a well-formed argv itself; it must dispatch exactly the namespace argparse builds,
    # or leave the argv to argparse, which exits with its code, stdout and stderr
    seen = []
    recorders = {command: (lambda args: seen.append(args) or 0, help_text, flags)
                 for command, (_, help_text, flags) in cli.COMMANDS.items()}
    parser = cli.build_parser()
    with mock.patch.dict(cli.COMMANDS, recorders):
        got = _outcome(lambda: cli.main(argv))
    sub = parser.commands[argv[0]]
    want = _outcome(lambda: sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
    # argparse takes an explicit '--' value (--B=--) as [] on Python 3.11 and as '--' later; main refuses it
    dashdash = [dest for dest, value in vars(want[0]).items() if value in ([], "--")] if want[1] is None else []
    if dashdash:
        want = _outcome(lambda: sub.error(f"argument --{dashdash[0].replace('_', '-')}: expected one argument"))
    if want[1] is None:
        # repr tells 1 from 1.0 and matches nan, and compares the attribute order
        assert got == (0, None, "", "") and len(seen) == 1
        assert repr(vars(seen[0])) == repr(vars(want[0])) == repr(vars(parser.parse_args(argv)))
    else:
        assert got == want and seen == []


@pytest.mark.parametrize("command", sorted(ROUND_TRIP_ARGS))
def test_well_formed_argv_takes_the_plain_read(command, monkeypatch, capsys):
    # spectra's argv are all of this form; argparse is not reached
    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a well-formed argv")

    for sub in cli.build_parser().commands.values():
        monkeypatch.setattr(sub, "parse_args", refuse)
    code, out, _ = run_cli([command, *ROUND_TRIP_ARGS[command], "--format=json"], capsys)
    assert code == 0 and json.loads(out)["params"]["command"] == command


class TestParserReuse:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_omitted_option_takes_its_default_again(self, capsys):
        base = ["eigvals", "--B", "1", "--R", "0.5", "--format", "json"]
        code, out, _ = run_cli(base + ["--j-max", "3"], capsys)
        assert code == 0 and len(json.loads(out)["data"]) == 4
        code, out, _ = run_cli(base, capsys)
        doc = json.loads(out)
        assert code == 0 and len(doc["data"]) == 21
        assert doc["params"]["j_max"] == 20

    def test_usage_error_leaves_no_trace(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eigvals", "--B", "1.7", "--j-max", "-5", "--format", "json"])
        assert exc.value.code == 2
        capsys.readouterr()
        args = ["eigvals", "--B", "1.7", "--format", "json"]
        code, out, _ = run_cli(args, capsys)
        assert (code, out.encode()) == (0, run_fresh(args).stdout)


def _reference_json(params, columns, rows):
    doc = {"params": params, "data": [dict(zip(columns, row)) for row in rows]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


DETAIL = 'max |I - 1| = 2.2e-16 over "x, y" pairs\\tail,\nline two: \u00e9\u03bb \U0001d49c %s %d'
RENDER_CASES = {
    "empty rows": (["j", "lambda"], []),
    "one row": (["j", "lambda"], [[0, 0.5]]),
    "non-finite floats": (["v", "w"], [[math.nan, math.inf], [-math.inf, -0.0], [5e-324, 1.7976931348623157e308]]),
    "numpy floats": (["x", "y"], [[np.float64(0.1), np.float64(np.nan)], [np.float64(-np.inf), np.float64(2.0)]]),
    "bools and None": (["ok", "missing", "n"], [[True, None, 0], [False, None, -(10 ** 30)]]),
    "strings": (["name", "detail"], [["a,b", DETAIL], ['"quoted"', ""], ["back\\slash", "tab\there"]]),
    "unsorted columns": (["zeta", "Alpha", "_x", "10", "9", "a b", 'q"uote', "per%cent"],
                         [[1, 2.5, "s", None, True, -1.0, 3, 4.0], [0, 0.0, "", 1e-300, False, 7, 8, 9]]),
    "repeated column": (["a", "b", "a"], [[1, 2, 3]]),
    "no columns": ([], [[], []]),
}


@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_json_document_is_json_dumps_indent_2(case):
    columns, rows = RENDER_CASES[case]
    params = {"command": "eigvals", "B": 1.5, "R": np.float64(0.6), "m": 0, "note": DETAIL, "j_max": 20}
    odd_params = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "np": np.float64(-0.0), "none": None,
                  "yes": True, "no": False, "text": "\u00e9\u03bb \U0001d49c", 'per%cent "q"': 1e-300, "%s": "%d"}
    for doc_params in (params, odd_params, {}):
        assert cli._render(doc_params, columns, rows, "json") == _reference_json(doc_params, columns, rows)
