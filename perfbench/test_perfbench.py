"""Tests of the benchmark itself: oracle, job runner, seeded inputs and tracing.

    python -m pytest perfbench
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betainc

import oracle
import pace
import run
import worker
import workloads
from nbsloc import bergman, locop, quadrature, specfun, states, verify
from nbsloc.errors import DomainError
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def cli_job(kind, B, R, args, **params):
    argv = [kind, *args, "--B", repr(B), "--R", repr(R), "--format", "json"]
    return {"kind": kind, "B": B, "R": R, **params, "argv": argv}


def run_checked(jobs, tmp_path):
    result = worker.run(iter(jobs), str(tmp_path))
    return result, worker.check(result, jobs, str(tmp_path))


def traced(jobs, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        result = worker.run(iter(jobs), str(tmp_path), tracer=tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def test_scipy_underflow_does_not_fail_the_library(tmp_path):
    B, R, j = 10.4229, 0.3547, 361
    assert betainc(j + 1, 2 * B - 1, R * R) == 0.0
    result, failures = run_checked(
        [cli_job("eigvals", B, R, ["--m", "0", "--j-max", str(j)], j_max=j)], tmp_path)
    assert result["errors"] == {} and failures == []
    ref = oracle.eigenvalues(j, B, R * R)[j]
    assert ref == pytest.approx(locop.disk_eigenvalue(j, B, R), rel=1e-12)
    assert 1e-297 < ref < 1e-295


def test_large_B_kernel_job_fails(tmp_path):
    B, R = 10.4, 0.83 ** 0.5
    z, w = complex(0.6, 0.1), complex(0.7, -0.05)
    series = bergman.kernel_series(z, w, B, R * R)
    closed = bergman.kernel_closed(z, w, B, R * R)
    assert abs(series - closed) / abs(series) > 1e-4
    job = cli_job("kernel", B, R, [f"--z={z!r}", f"--w={w!r}"], z=z, w=w)
    result, (failure,) = run_checked([job], tmp_path)
    assert result["errors"] == {}
    assert failure["reason"].startswith("closed = ")
    assert failure["known"] == "kernel_closed cancellation at large B"


def test_cancelling_kernel_series_is_a_known_defect(tmp_path):
    # Terms of alternating phase: sum |term| / |sum| is 5.9e6 here.
    B, R = 4.974390230786986, 0.7475156101893674
    z, w = complex(-0.529057499190699, 0.6332815216278278), complex(0.6789408600132211, -0.5621522410191993)
    job = cli_job("kernel", B, R, [f"--z={z!r}", f"--w={w!r}"], z=z, w=w)
    _, (failure,) = run_checked([job], tmp_path)
    assert failure["reason"].startswith("series = ")
    assert failure["known"] == "kernel_series cancellation"


def test_aliased_projection_is_a_known_defect(tmp_path):
    job = {"kind": "project", "B": 4.5, "R": 0.5, "w0": complex(0.0, 0.88), "j_max": 10}
    _, (failure,) = run_checked([job], tmp_path)
    assert failure["reason"].endswith(oracle.GRID_ALIASING)
    assert failure["known"] == "project fixed-grid aliasing"


def test_unexplained_failure_is_not_known():
    job = cli_job("eigvals", 1.5, 0.6, ["--m", "0", "--j-max", "5"], j_max=5)
    assert oracle.known_defect(job, None, "lambda[3] = 0.1, reference 0.2") is None


def kernel_doc(B, R, z, w, tmp_path):
    job = cli_job("kernel", B, R, [f"--z={z!r}", f"--w={w!r}"], z=z, w=w)
    worker.run(iter([job]), str(tmp_path))
    return job, json.loads((tmp_path / "0.json").read_text())


@pytest.mark.parametrize("B, R, name, factor", [
    (5.5, 0.9, "closed", 1 + 1e-6),            # below the B where kernel_closed misses
    (10.4, 0.83 ** 0.5, "closed", 1 + 1e-1),   # far beyond what its F1 cancellation explains
    (10.4, 0.83 ** 0.5, "closed", float("nan")),
    (10.4, 0.83 ** 0.5, "series", 1 + 1e-6),   # series terms that do not cancel
])
def test_kernel_misses_outside_a_known_defect_are_unexplained(tmp_path, B, R, name, factor):
    job, doc = kernel_doc(B, R, complex(0.6, 0.1), complex(0.7, -0.05), tmp_path)
    (row,) = doc["data"]
    value = complex(row["series_re"], row["series_im"]) * factor
    row[f"{name}_re"], row[f"{name}_im"] = value.real, value.imag
    reason = oracle.check(job, doc)
    assert reason is not None and name in reason
    assert oracle.known_defect(job, doc, reason) is None


def test_malformed_job_is_counted_failed_and_the_run_goes_on(tmp_path):
    good = cli_job("eigvals", 1.5, 0.6, ["--m", "0", "--j-max", "5"], j_max=5)
    bad = cli_job("leakage", 1.5, 0.6, ["--z", "-0.3+0.2j"], z=complex(-0.3, 0.2))
    result, failures = run_checked([good, bad, good], tmp_path)
    assert len(result["latencies"]) == 3
    assert [f["index"] for f in failures] == [1]
    error, stderr = result["errors"][1]
    assert error == "SystemExit(2)"
    assert "expected one argument" in stderr


def test_generated_points_are_passed_with_equals():
    for job in workloads.take(workloads.spectra_stream(1), 30):
        points = [a for a in job["argv"] if a.startswith(("--z", "--w"))]
        assert all(a.startswith(("--z=", "--w=")) for a in points)
        assert len(points) == {"eigvals": 0, "leakage": 1, "kernel": 2}[job["kind"]]


@pytest.mark.parametrize("workload", ["spectra", "transfer"])
def test_one_seed_gives_one_job_list(workload):
    first = workloads.job_list(workload, 7, 10)
    assert workloads.digest(first) == workloads.digest(workloads.job_list(workload, 7, 10))
    other = workloads.job_list(workload, 8, 10)
    assert workloads.digest(first) != workloads.digest(other)
    # Another seed runs the same jobs in another order.
    assert (sorted(workloads.digest([job]) for job in first)
            == sorted(workloads.digest([job]) for job in other))


def test_transfer_runs_whole_rounds_of_sessions_back_to_back():
    jobs = workloads.job_list("transfer", 5, 3 * workloads.TRANSFER_ROUND_S)
    assert len(jobs) == 3 * 174
    sessions = [(j["B"], j["R"]) for j in jobs]
    starts = [0] + [i for i in range(1, len(jobs)) if sessions[i] != sessions[i - 1]]
    assert len(starts) == 3 * len(workloads.TRANSFER_B)
    assert sorted(sessions[i][0] for i in starts) == sorted(3 * workloads.TRANSFER_B)


def test_run_stops_early_after_max_seconds(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "execute", lambda job, out_dir, index: time.sleep(0.01))
    result = worker.run([{"kind": "check"}] * 100, str(tmp_path), max_seconds=0.05)
    assert 5 <= len(result["latencies"]) < 100


def test_level_indices_stay_below_B_minus_half():
    tables = [j for j in workloads.job_list("transfer", 3, 30) if j["kind"] == "table"]
    assert {(j["B"], j["m"]) for j in tables} == {
        (2.5, 1), (3.0, 1), (3.0, 2), (4.5, 1), (4.5, 2), (4.5, 3)}
    # ModelParams admits m = B - 1/2, where the level density is not normalizable.
    params = states.ModelParams(2.5, 2)
    with pytest.raises(DomainError):
        locop.landau_density(0, params, 0.5)


def test_wrappers_reach_every_namespace():
    originals = specfun.reg_inc_beta, states.bergman_basis, quadrature.mapped_legendre
    tracer = Tracer()
    tracer.install()
    try:
        assert locop.reg_inc_beta is specfun.reg_inc_beta is not originals[0]
        assert bergman.bergman_basis is states.bergman_basis is not originals[1]
        assert locop.mapped_legendre is quadrature.mapped_legendre is not originals[2]
    finally:
        tracer.uninstall()
    assert (locop.reg_inc_beta, bergman.bergman_basis, locop.mapped_legendre) == originals


def test_spectra_builds_no_quadrature_rule(tmp_path):
    result, tracer = traced(workloads.take(workloads.spectra_stream(1), 30), tmp_path)
    summary = tracer.summary(result["busy_s"])
    assert summary["trace.problems"] == []
    assert summary["quadrature.rules_built"] == 0
    assert summary["cli.build_parser.calls"] == 30
    assert summary["locop.leakage_bound.incbeta_calls"] > 0


@pytest.mark.parametrize("jobs", [
    next(workloads.transfer_sessions(1))[:6],
    [{"kind": "check", "name": "radial_rule_beta_integrals"}],
])
def test_transfer_and_verify_build_rules(tmp_path, jobs):
    result, tracer = traced(jobs, tmp_path)
    summary = tracer.summary(result["busy_s"])
    assert summary["trace.problems"] == []
    assert summary["quadrature.rules_built"] > 0
    assert summary["quadrature.nodes_built"] > summary["quadrature.rules_built"]


def test_consistency_check_flags_time_outside_every_layer(tmp_path, monkeypatch):
    def execute(job, out_dir, index):
        time.sleep(0.02)  # time the wrapped entry points do not see
        return specfun.reg_inc_beta(0.5, 2.0, 3.0)

    monkeypatch.setattr(worker, "execute", execute)
    result, tracer = traced([{"kind": "check"}] * 3, tmp_path)
    problems = tracer.summary(result["busy_s"])["trace.problems"]
    assert any("layer spans cover" in p for p in problems)


def test_consistency_check_flags_a_child_outside_its_parent():
    tracer = Tracer()
    tracer.names.append("specfun.reg_inc_beta")
    for parent, start, end in ((-1, 0.0, 1.0), (0, 0.5, 2.0)):
        tracer.name.append(0)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.failed.append(0)
    problems = tracer.summary(1.0)["trace.problems"]
    assert any("outside their parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def test_benchmark_json_names_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["spectra", "transfer", "verify"]
    jobs = (workloads.take(workloads.spectra_stream(2), 3)
            + [j for j in next(workloads.transfer_sessions(2)) if j["kind"] != "apply"][:1]
            + next(workloads.transfer_sessions(2))[:1]
            + [{"kind": "table", "B": 2.5, "R": 0.6, "m": 1, "j_max": 2},
               {"kind": "check", "name": "mc_spectrum"}])
    result, tracer = traced(jobs, tmp_path)
    report = worker.report(result, jobs, str(tmp_path), tracer)
    assert report["passed"] == len(jobs)
    layer = run.per_layer(report, report)
    names = {m["name"] for m in spec["per_layer"]}
    checks = {f"verify.{n}.{stat}" for n in verify.check_names() for stat in ("s", "margin")}
    assert checks <= names
    assert names - checks <= set(layer)
    report.update(peak_rss_kb=1)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(report, [0.1]))


def test_pace_factor_of_a_job_comes_from_the_samples_around_it():
    # The machine runs at the reference pace for 10 s, then at half of it.
    taken = [0.01 * i for i in range(2000)]
    samples = [pace.REFERENCE_S * (1 if t < 10 else 2) for t in taken]
    assert pace.job_factors(samples, taken, [5.0, 15.0]) == [1.0, 0.5]
    # Too few samples within the window: the nearest ones count.
    assert pace.job_factors(samples[::100], taken[::100], [3.0]) == [1.0]


def test_oracle_kernel_sum_matches_closed_form_at_moderate_B():
    z, w, B, s = complex(0.3, -0.2), complex(-0.5, 0.4), 1.5, 0.36
    ref = oracle.kernel_reference(z, w, B, s)
    exact = oracle.kernel_reference(z, w, B, s, exact=True)
    assert abs(ref - exact) <= 1e-13 * abs(exact)
    assert abs(bergman.kernel_closed(z, w, B, s) - exact) <= 1e-10 * abs(exact)
    assert np.isclose(oracle.leakage_reference(0.5 + 0.3j, 1.25, 0.36),
                      locop.leakage_bound(0.5 + 0.3j, 1.25, 0.6), rtol=1e-10)
