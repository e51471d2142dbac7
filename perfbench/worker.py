"""Workload process: runs a job list against nbsloc, then checks every output.

    python perfbench/worker.py --workload spectra --seed 1 --seconds 20 \
        --tmp DIR --result FILE [--count N] [--trace]

The timed phase imports only nbsloc and numpy; the oracle (scipy, mpmath)
is imported after peak memory has been read.  ``--seconds`` sizes the job
list (see ``workloads.job_list``); ``--count`` runs only its first N jobs.
A run that takes more than ``workloads.MAX_SLOWDOWN`` times ``--seconds`` stops early,
so that a very slow machine still ends in time.  The ``verify`` workload
runs one pass of the battery per process.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: with two threads a 64-node
# Golub-Welsch rule took 48 ms instead of 0.66 ms on a 2-CPU machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from nbsloc import bergman, cli, locop, states, verify  # noqa: E402

import pace  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def execute(job: dict, out_dir: str, index: int):
    """Run one job; CLI jobs print their document to stdout."""
    kind = job["kind"]
    if kind in workloads.SPECTRA_KINDS:
        return cli.main(job["argv"])
    B = job.get("B")
    if kind == "apply":
        F = bergman.BergmanFunction(B, coefficients=np.asarray(job["coeffs"]))
        return bergman.transferred_apply(F, job["w"], B, job["R"])
    if kind == "project":
        w0 = job["w0"]
        F = bergman.BergmanFunction(B, evaluator=lambda z: bergman.kernel_limit(w0, z, B))
        return F.project(job["j_max"]).coefficients
    if kind == "table":
        params = states.ModelParams(B, job["m"])
        radius = states.LocalizationRadius(job["R"])
        return [locop.landau_eigenvalue(j, params, radius) for j in range(job["j_max"] + 1)]
    if kind == "check":
        result = verify.run_check(job["name"])
        return {"passed": result.passed, "max_error": result.max_error,
                "tolerance": result.tolerance}
    raise ValueError(f"unknown job kind {kind!r}")


def run(jobs, out_dir: str, max_seconds: float | None = None,
        tracer: Tracer | None = None) -> dict:
    """Run ``jobs`` in order, stopping early only after ``max_seconds`` of wall time.

    A job fails on any exception, ``SystemExit`` included, or on a nonzero
    exit code; the run goes on.  Each job's stderr is captured.  Only
    latencies, outputs and the errors are kept, so that the harness adds
    little to the peak memory of the process.  Between jobs, every
    ``pace.EVERY_S``, the run samples the machine's pace; ``pace_at`` and
    ``job_at`` hold the midpoints of the samples and the jobs.  A CLI job's
    stdout is captured and written to ``out_dir`` after the job.  ``wall_s``
    leaves out the sampling and those writes: creating a small file on the
    shared virtual disk took 0.6-0.9 ms of a 4.5 ms job, and that cost
    drifted by a third within 40 s, apart from the processor's pace.
    """
    call = tracer.wrap("harness.job", execute) if tracer else execute
    latencies, outputs, errors, busy, aside = [], [], {}, 0.0, 0.0
    paces, pace_at, job_at = [], [], []

    def sample_pace():
        start = time.perf_counter()
        paces.append(pace.sample())
        pace_at.append(start + paces[-1] / 2)
        return time.perf_counter()

    began = paced = sample_pace()
    for index, job in enumerate(jobs):
        stderr, stdout = io.StringIO(), io.StringIO()
        error = output = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stdout):
                output = call(job, out_dir, index)
        except SystemExit as exc:
            error = f"SystemExit({exc.code!r})"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if error is None and job["kind"] in workloads.SPECTRA_KINDS and output != 0:
            error = f"exit code {output}"
        if error is not None:
            errors[index] = (error, stderr.getvalue())
        busy += end - start
        latencies.append(end - start)
        job_at.append((start + end) / 2)
        outputs.append(output)
        if job["kind"] in workloads.SPECTRA_KINDS:
            with open(os.path.join(out_dir, f"{index}.json"), "w", encoding="utf-8") as handle:
                handle.write(stdout.getvalue())
            aside += time.perf_counter() - end
        if end - paced >= pace.EVERY_S:
            paced = sample_pace()
        if max_seconds is not None and end - began >= max_seconds:
            break
    return {"latencies": latencies, "outputs": outputs, "errors": errors, "busy_s": busy,
            "wall_s": time.perf_counter() - began - sum(paces[1:]) - aside, "pace": paces,
            "pace_at": pace_at, "job_at": job_at}


def _oracle():
    import oracle  # scipy and mpmath load here, after the timed phase

    return oracle


def check(result: dict, jobs: list[dict], out_dir: str) -> list[dict]:
    """Failures of a run of ``jobs``, each with its reason and known defect (or None).

    A verify check judges itself, so verify passes never load the oracle.
    """
    failures = []
    for index, (job, output) in enumerate(zip(jobs, result["outputs"])):
        if index in result["errors"]:
            error, stderr = result["errors"][index]
            last = stderr.strip().splitlines()[-1:] or [""]
            reason = f"{error}: {last[0]}".rstrip(": ")
        elif job["kind"] == "check":
            reason = None if output["passed"] else (
                f"check failed: max_error {output['max_error']:.3e}, "
                f"tolerance {output['tolerance']:.1e}")
        else:
            if job["kind"] in workloads.SPECTRA_KINDS:
                with open(os.path.join(out_dir, f"{index}.json"), encoding="utf-8") as handle:
                    output = json.load(handle)
            reason = _oracle().check(job, output)
        if reason is not None:
            params = {k: repr(v) if isinstance(v, complex) else v
                      for k, v in job.items() if k != "coeffs"}
            failures.append({"index": index, "job": params, "reason": reason,
                             "known": _oracle().known_defect(job, output, reason)})
    return failures


def report(result: dict, jobs: list[dict], out_dir: str, tracer: Tracer | None = None) -> dict:
    """JSON-ready account of a run: latencies, failures, verify margins, trace totals."""
    failures = check(result, jobs, out_dir)
    out = {
        "busy_s": result["busy_s"],
        "wall_s": result["wall_s"],
        "pace": result["pace"],
        "scale": pace.job_factors(result["pace"], result["pace_at"], result["job_at"]),
        "latencies": result["latencies"],
        "passed": len(result["latencies"]) - len(failures),
        "failures": failures,
        "checks": {job["name"]: {"s": latency, "margin": output["max_error"] / output["tolerance"]}
                   for job, latency, output in zip(jobs, result["latencies"], result["outputs"])
                   if job["kind"] == "check" and output is not None},
    }
    if tracer is not None:
        out["trace"] = tracer.summary(result["busy_s"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("spectra", "transfer", "verify"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    jobs = workloads.job_list(args.workload, args.seed, args.seconds, verify.check_names())
    jobs = jobs[:args.count]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run(jobs, args.tmp, workloads.MAX_SLOWDOWN * args.seconds, tracer)
    timed_end = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = report(result, jobs[:len(result["latencies"])], args.tmp, tracer)
    out.update(peak_rss_kb=peak_rss_kb, timed_end=timed_end)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
