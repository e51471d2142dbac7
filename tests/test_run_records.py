"""Every committed benchmark run record (``BENCH_*.json`` at the repository root) against ``BENCHMARK.json``.

A record pairs runs of a parent commit and of a change commit.  Each run names its side, the commit it
ran, a workload the benchmark declares, and, for an end-to-end (``--trace 0``) run, exactly the declared
end-to-end metrics in their declared units.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(params=RECORDS, ids=[path.name for path in RECORDS])
def record(request):
    return json.loads(request.param.read_text())


def test_records_exist():
    assert RECORDS


def test_record_names_both_commits(record):
    for key in ("parent_commit", "change_commit"):
        assert isinstance(record.get(key), str) and record[key]


def test_each_run_ran_its_sides_commit(record):
    commits = {"parent": record["parent_commit"], "change": record["change_commit"]}
    assert record["runs"]
    for run in record["runs"]:
        assert run["side"] in commits
        assert run["environment"]["commit"] == commits[run["side"]]


def test_each_run_is_a_declared_workload(record):
    workloads = {workload["name"] for workload in BENCHMARK["workloads"]}
    for run in record["runs"]:
        assert run["workload"] in workloads


def test_end_to_end_runs_carry_exactly_the_declared_metrics(record):
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    runs = [run for run in record["runs"] if run["trace"] == 0]
    assert runs
    for run in runs:
        assert {name: metric["unit"] for name, metric in run["metrics"].items()} == declared
