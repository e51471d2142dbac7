"""nbsloc benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload {spectra,transfer,verify} --seed N \
        --seconds S --trace {0,1} [--record FILE]

Run from the root of a source checkout; nbsloc is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--record`` also writes the environment, the metrics and
every failed job to FILE.  perfbench/README.md describes the workloads.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import MAX_SLOWDOWN, verify_passes  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 8
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with warm bytecode caches
    return env


def measure_setup(env: dict, runs: int, warm: bool = True) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import nbsloc, nbsloc.cli`` returns."""
    # The child reads the monotonic clock, which processes share, as soon as
    # the import returns: waiting on it with a timeout polls in steps of up
    # to 50 ms, and its shutdown is not part of set-up.
    cmd = [sys.executable, "-c", "import nbsloc, nbsloc.cli, time; print(repr(time.monotonic()))"]
    if warm:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    samples = []
    for _ in range(runs):
        start = time.monotonic()
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True,
                              timeout=60).stdout
        samples.append(float(done) - start)
    return samples


def run_worker(workload: str, seed: int, env: dict, tmp: str, seconds: float, *, count=None,
               trace=False) -> dict:
    result = os.path.join(tmp, "result.json")
    jobs_dir = tempfile.mkdtemp(dir=tmp)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--tmp", jobs_dir, "--result", result]
    if count is not None:
        cmd += ["--count", str(count)]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    with open(result, encoding="utf-8") as handle:
        report = json.load(handle)
    shutil.rmtree(jobs_dir)
    # A verify pass is one interpreter, start-up included; the monotonic
    # clock is shared between processes.
    report["process_s"] = report["timed_end"] - spawned - sum(report["pace"])
    return report


def merge(reports: list[dict]) -> dict:
    """One report for several verify passes; trace totals add up."""
    checks: dict[str, list] = {}
    for r in reports:
        for name, check in r["checks"].items():
            checks.setdefault(name, []).append(check)
    out = {
        "busy_s": sum(r["busy_s"] for r in reports),
        "wall_s": sum(r["process_s"] for r in reports),
        "latencies": [x for r in reports for x in r["latencies"]],
        "pace": [x for r in reports for x in r["pace"]],
        "scale": [x for r in reports for x in r["scale"]],
        "passed": sum(r["passed"] for r in reports),
        "failures": [dict(f, pass_index=i) for i, r in enumerate(reports) for f in r["failures"]],
        "peak_rss_kb": max(r["peak_rss_kb"] for r in reports),
        "checks": {name: {"s": statistics.median(c["s"] for c in cs), "margin": cs[0]["margin"]}
                   for name, cs in checks.items()},
    }
    if "trace" in reports[0]:
        trace: dict = {}
        for r in reports:
            for key, value in r["trace"].items():
                trace[key] = trace.get(key, 0 if not isinstance(value, list) else []) + value
        out["trace"] = trace
    return out


def run_workload(workload: str, seed: int, env: dict, tmp: str, seconds: float, *, count=None,
                 trace=False) -> dict:
    """Run the job list sized by ``seconds``, or its first ``count`` jobs (verify: passes).

    A verify pass is timed from the start of its interpreter.  Like a
    worker, a verify run stops early after MAX_SLOWDOWN times ``seconds``.
    """
    if workload != "verify":
        return run_worker(workload, seed, env, tmp, seconds, count=count, trace=trace)
    passes = verify_passes(seconds) if count is None else count
    reports = [run_worker(workload, seed, env, tmp, seconds, trace=trace)]
    while (len(reports) < passes
           and sum(r["process_s"] for r in reports) < MAX_SLOWDOWN * seconds):
        reports.append(run_worker(workload, seed, env, tmp, seconds, trace=trace))
    out = merge(reports)
    out["passes"] = len(reports)
    return out


def end_to_end(report: dict, setup: list[float]) -> dict:
    """The end-to-end metrics, with times scaled to the reference pace (see pace.py).

    Each job's latency is scaled by its own factor, and the wall time by
    their mean weighted by latency.  Set-up, timed in its own processes
    just before and after the run, is scaled by the run's median pace.
    """
    lat = [x * f for x, f in zip(report["latencies"], report["scale"])]
    wall = report["wall_s"] * sum(lat) / sum(report["latencies"])
    return {
        "setup_s": statistics.median(setup) * pace.factor(report["pace"]),
        "jobs_per_s": report["passed"] / wall,
        "job_p50_ms": 1e3 * statistics.median(lat),
        "job_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[-1],
        "pass_ratio": report["passed"] / len(lat),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }


def per_layer(traced: dict, plain: dict) -> dict:
    t = traced["trace"]
    out = {key: value for key, value in t.items() if not isinstance(value, list)}
    out.update({
        "cli.parse_s": t["cli.build_parser.s"],
        "cli.render_s": t["cli._render.s"],
        "quadrature.distinct_rule_ratio": (t["quadrature.rules_distinct"] / t["quadrature.rules_built"]
                                           if t["quadrature.rules_built"] else 1.0),
        "trace.overhead_ratio": traced["busy_s"] / plain["busy_s"],
        "trace.jobs": len(traced["latencies"]),
        "trace.layer_share": sum(t[f"{layer}.self_s"] for layer in LAYERS) / traced["busy_s"],
    })
    # Check times come from the untraced passes, margins from either.
    for name, check in plain.get("checks", {}).items():
        out[f"verify.{name}.s"] = check["s"]
        out[f"verify.{name}.margin"] = check["margin"]
    return out


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def machine() -> dict:
    """CPU model and commit, for records made by hand; benchmark runs read neither."""
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True, timeout=10).stdout.strip()
    return {"cpu": cpu, "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("spectra", "transfer", "verify"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="write the run record to this file")
    args = parser.parse_args(argv)

    if not (SRC / "nbsloc" / "__init__.py").is_file():
        print(f"error: no nbsloc sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    env = child_env()
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            report = run_workload(args.workload, args.seed, env, tmp, args.seconds, trace=True)
            count = report.get("passes", len(report["latencies"]))
            plain = run_workload(args.workload, args.seed, env, tmp, args.seconds, count=count)
            values = per_layer(report, plain)
            wanted = spec["per_layer"]
        else:
            # Half the set-up samples before the timed phase and half after:
            # this machine's speed drifts over seconds, and one burst of
            # samples would see only one state of it.
            setup = measure_setup(env, SETUP_RUNS // 2)
            report = run_workload(args.workload, args.seed, env, tmp, args.seconds)
            setup += measure_setup(env, SETUP_RUNS - SETUP_RUNS // 2, warm=False)
            values = end_to_end(report, setup)
            print(f"pace: job times x {statistics.mean(report['scale']):.4f} on average, "
                  f"set-up x {pace.factor(report['pace']):.4f}")
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = report.get("trace", {}).get("trace.problems", [])
    unexplained = [f for f in report["failures"] if not f["known"]]
    attempted = len(report["latencies"])
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    env_block = environment(args.seed)

    print(json.dumps({"environment": env_block}))
    print(f"workload {args.workload}: {attempted} jobs, {attempted - report['passed']} failed "
          f"({len(unexplained)} not explained by a known defect)")
    for failure in report["failures"]:
        print(f"  failed: {failure['job']['kind']} {failure['reason']}"
              f" [{failure['known'] or 'UNEXPECTED'}]", file=sys.stderr)
    for problem in problems:
        print(f"  trace inconsistent: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump({"environment": dict(env_block, **machine()), "workload": args.workload,
                       "seconds": args.seconds, "trace": args.trace, "attempted": attempted,
                       "failed": attempted - report["passed"], "metrics": metrics,
                       "failures": report["failures"]}, handle, indent=1)
            handle.write("\n")
    print(json.dumps({"correct": not unexplained and not problems, "attempted": attempted,
                      "failed": attempted - report["passed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
