"""Seeded job lists for the three benchmark workloads.

A job is a plain dict of generated inputs; the library sees nothing else.
``job_list(workload, seed, seconds)`` is the list one run executes: the same
seed always yields the same list, and ``digest`` hashes a list so that the
claim can be tested.

Every run of a workload executes the same set of jobs, sized by
``seconds``; the seed draws the order in which they run.  The job set
keeps the inputs on which nbsloc is known to fail -- the large-B kernel
cancellation, the leakage tail near |z0| = 1, projections near
|w0| = 0.9 -- so a later fix shows as a higher pass ratio.  Because the
set is fixed, those failures are the same jobs in every run, and the
spread between runs is the program's and the machine's, not the draw's:
with a drawn set, the five to seven one-second leakage failures of a
spectra run moved its jobs per second by several percent from seed to
seed.

Continuous parameters come from a shifted Kronecker (R_d) sequence, so
that every prefix, and so the job set of any run length, covers the
parameter box evenly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

SPECTRA_KINDS = ("eigvals", "leakage", "kernel")
TRANSFER_KINDS = ("apply", "project", "table")
# Half-integer and non-half-integer strengths; levels 1 <= m < B - 1/2 exist
# only for the last three.
TRANSFER_B = (0.75, 1.25, 1.5, 2.5, 3.0, 4.5)
APPLIES_PER_SESSION = 24
PROJECTS_PER_SESSION = 4
TABLE_J_MAX = 10
PROJECT_J_MAX = 10
# The fixed job set is drawn with this seed.  The sizes below make a run
# take about ``seconds`` on the 2-CPU machine the benchmark was sized on.
POOL_SEED = 0
SPECTRA_JOBS_PER_S = 150
TRANSFER_ROUND_S = 8.0  # six sessions, 174 jobs
VERIFY_PASS_S = 1.7     # 25 checks and one interpreter start
# A run stops early once it has taken this many times ``seconds``, so that
# a very slow machine still ends in time.
MAX_SLOWDOWN = 3.0


def _kronecker(seed: int, stream: int, dim: int):
    """Point k of a shifted R_d sequence in [0, 1)^dim (Roberts 2018)."""
    phi = 2.0
    for _ in range(60):  # root of x^(d+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1, dim + 1)
    shift = np.random.default_rng([seed, stream]).random(dim)
    return lambda k: ((shift + (k + 1) * alpha) % 1.0).tolist()


def _disk_point(u_area: float, u_angle: float, radius: float) -> complex:
    """Map two uniforms to a point uniform by area in |z| <= radius."""
    r = radius * math.sqrt(u_area)
    return complex(r * math.cos(2.0 * math.pi * u_angle), r * math.sin(2.0 * math.pi * u_angle))


def _strength(u: float) -> float:
    """B with B - 1/2 log-uniform on [1e-2, 10]."""
    return 0.5 + 1e-2 * 1e3 ** u


def spectra_stream(seed: int):
    """Endless in-process CLI calls, cycling eigvals, leakage, kernel in equal thirds."""
    points = [_kronecker(seed, s, d) for s, d in enumerate((3, 4, 6))]
    for i in itertools.count():
        kind = SPECTRA_KINDS[i % 3]
        u = points[i % 3](i // 3)
        B = _strength(u[0])
        R = 0.1 + 0.85 * u[1]
        job = {"kind": kind, "B": B, "R": R}
        if kind == "eigvals":
            job["j_max"] = 20 + min(int(381 * u[2]), 380)
            argv = ["eigvals", "--m", "0", "--j-max", str(job["j_max"])]
        elif kind == "leakage":
            job["z"] = _disk_point(u[2], u[3], 1.0)
            argv = ["leakage", f"--z={job['z']!r}"]
        else:
            job["z"] = _disk_point(u[2], u[3], 0.9)
            job["w"] = _disk_point(u[4], u[5], 0.9)
            argv = ["kernel", f"--z={job['z']!r}", f"--w={job['w']!r}"]
        job["argv"] = argv + ["--B", repr(B), "--R", repr(R), "--format", "json"]
        yield job


def transfer_sessions(seed: int):
    """Endless library sessions, in rounds of six, one per B in TRANSFER_B.

    A session is a list of calls at one (B, R), run back to back, so that
    the calls reuse the same quadrature rules and basis values.  Within a
    session the cheap applies, the slow projections and the level tables
    are spread evenly by position.  Four projections per session put the
    90th latency percentile inside the projections rather than on their
    border with the tables.
    """
    rng = np.random.default_rng([seed, 1])
    radius, point, target = (_kronecker(seed, s, d) for s, d in ((3, 1), (4, 3), (5, 2)))
    sessions = applies = projects = 0
    while True:
        for B in TRANSFER_B:
            R = 0.3 + 0.6 * radius(sessions)[0]
            sessions += 1
            keyed = []
            for t in range(APPLIES_PER_SESSION):
                u = point(applies)
                applies += 1
                n = 4 + min(int(9 * u[0]), 8)
                c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                keyed.append(((t + 0.5) / APPLIES_PER_SESSION, 0, {
                    "kind": "apply", "B": B, "R": R, "w": _disk_point(u[1], u[2], 0.9),
                    "coeffs": [complex(x) for x in c]}))
            for t in range(PROJECTS_PER_SESSION):
                u = target(projects)
                projects += 1
                keyed.append(((t + 0.5) / PROJECTS_PER_SESSION, 1, {
                    "kind": "project", "B": B, "R": R, "w0": _disk_point(u[0], u[1], 0.9),
                    "j_max": PROJECT_J_MAX}))
            levels = range(1, math.ceil(B - 0.5))  # 1 <= m < B - 1/2
            for t, m in enumerate(levels):
                keyed.append(((t + 0.5) / len(levels), 2, {
                    "kind": "table", "B": B, "R": R, "m": m, "j_max": TABLE_J_MAX}))
            keyed.sort(key=lambda item: item[:2])
            yield [job for _, _, job in keyed]


def job_list(workload: str, seed: int, seconds: float, check_names: list[str] = ()) -> list[dict]:
    """The jobs of one run: a fixed set sized by ``seconds``, in an order drawn from ``seed``.

    ``spectra`` shuffles its jobs; ``transfer`` shuffles whole sessions, so
    each session still runs back to back.  ``verify`` is one pass of
    ``check_names`` in registry order whatever the seed (the checks carry
    their own fixed seeds); ``verify_passes`` says how many passes a run has.
    """
    rng = np.random.default_rng([seed, 2])
    if workload == "spectra":
        pool = take(spectra_stream(POOL_SEED), 3 * max(1, round(seconds * SPECTRA_JOBS_PER_S / 3)))
        return [pool[i] for i in rng.permutation(len(pool))]
    if workload == "transfer":
        rounds = max(1, round(seconds / TRANSFER_ROUND_S))
        sessions = take(transfer_sessions(POOL_SEED), rounds * len(TRANSFER_B))
        return [job for i in rng.permutation(len(sessions)) for job in sessions[i]]
    return [{"kind": "check", "name": name} for name in check_names]


def verify_passes(seconds: float) -> int:
    return max(1, round(seconds / VERIFY_PASS_S))


def take(jobs, count: int) -> list[dict]:
    return list(itertools.islice(jobs, count))


def digest(jobs: list[dict]) -> str:
    """SHA-256 of a job list; floats and complex parts are written exactly."""
    def encode(value):
        if isinstance(value, complex):
            return [value.real.hex(), value.imag.hex()]
        raise TypeError(type(value))

    text = json.dumps(jobs, default=encode, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
