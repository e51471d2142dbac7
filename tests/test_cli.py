import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from nbsloc import cli
from nbsloc.locop import disk_eigenvalue, leakage_bound


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_inadmissible_level_exit_code(self, capsys):
        code, _, err = run_cli(["eigvals", "--B", "1.5", "--m", "2"], capsys)
        assert code == 2
        assert "floor(B - 1/2)" in err

    def test_bad_radius_exit_code(self, capsys):
        code, _, err = run_cli(["eigvals", "--R", "1.5"], capsys)
        assert code == 2
        assert "0 < R < 1" in err

    def test_nan_strength_exit_code(self, capsys):
        code, _, err = run_cli(["eigvals", "--B", "nan"], capsys)
        assert code == 2
        assert "2B > 1" in err


class TestKernel:
    def test_default_s_note_and_value(self, capsys):
        code, out, _ = run_cli(
            ["kernel", "--B", "1", "--R", "0.5", "--z", "0", "--w", "0.3", "--format", "json"],
            capsys)
        assert code == 0
        doc = json.loads(out)
        rec = doc["data"][0]
        assert doc["params"]["s"] == 0.25
        assert rec["note"] == "s defaulted to R^2"
        assert rec["closed_re"] == pytest.approx(0.25, rel=1e-10)
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
            leakage_bound(0.7, 1.5, 0.5), rel=1e-12)
        assert doc["data"][0]["p"] == pytest.approx(0.49)


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
        schema_path = pathlib.Path(__file__).resolve().parent.parent / "docs" / "verify_report.schema.json"
        jsonschema.validate(json.loads(out.read_text()), json.loads(schema_path.read_text()))

    def test_injected_fault_fails_with_exit_one(self, capsys, monkeypatch):
        from nbsloc import states

        exact = states.gamma_ratio  # the name laguerre_function reads
        monkeypatch.setattr(states, "gamma_ratio", lambda p, q: exact(p, q) * (1.0 + 1e-3))
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
    ["eigvals", "--tol", "nan"],
    ["kernel", "--z", "0.1", "--w", "0.2", "--s", "inf"],
    ["leakage", "--z", "0.5", "--tol", "inf"],
    ["eigvals", "--j-max", "-5"],
])
def test_bad_numbers_exit_two_without_traceback(args):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "nbsloc", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
