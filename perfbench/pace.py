"""The machine's pace, for scaling measured times to a reference speed.

The shared machine the benchmark runs on changes speed by up to 1.5x over
minutes, and within seconds, as other tenants load the host; runs of the
same code then read up to 1.5x apart.  ``sample`` times a fixed piece of
work that belongs to the benchmark, not to nbsloc -- scalar math and
string handling in the interpreter, small numpy array operations and one
small LAPACK eigensolve, the kinds of work nbsloc's jobs and its CLI do --
and the harness runs it between jobs.  ``factor`` turns samples into the
ratio by which to multiply a measured time to get the time at the
reference pace; ``job_factors`` gives each job the factor of the samples
taken around it.  A change to nbsloc cannot move the samples, so it moves
the scaled times as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import statistics
import time

import numpy as np

# Median of ``sample`` between jobs on the 2-CPU machine the benchmark was
# sized on.
REFERENCE_S = 1.3e-3
# The harness takes a sample after the first job that ends this long after
# the previous sample.
EVERY_S = 0.025
# A job's factor is that of the samples taken within WINDOW_S of its
# midpoint, or of the MIN_SAMPLES nearest ones if fewer.  One sample is
# noisy: its interquartile range is a third of its median on that machine.
WINDOW_S = 0.25
MIN_SAMPLES = 5

_matrix = np.random.default_rng(0).standard_normal((64, 64))
_matrix = _matrix + _matrix.T
_grid = np.linspace(0.0, 1.0, 256)
_option = re.compile(r"^--([a-z]+-[0-9]+)=(.*)$")


def _work() -> None:
    acc = 0.0
    for k in range(1, 800):
        acc += math.lgamma(0.5 * k) * math.exp(-1e-3 * k) / (1.0 + k)
    options = {}
    for i in range(40):
        match = _option.match(f"--opt-{i % 7}={i * 0.37!r}")
        options[match.group(1) + str(i)] = [float(match.group(2)), complex(i, acc)]
    json.dumps({key: [repr(x) for x in value] for key, value in options.items()})
    x = _grid
    for _ in range(60):
        x = np.sqrt(x * x + 0.5) * 0.9
    np.linalg.eigvalsh(_matrix)


def sample() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def factor(samples: list[float]) -> float:
    """Measured time × factor = time at the reference pace."""
    return REFERENCE_S / statistics.median(samples)


def job_factors(samples: list[float], taken: list[float], jobs: list[float]) -> list[float]:
    """Factor for each job midpoint in ``jobs``; sample i was taken at ``taken[i]``.

    Both lists of times are increasing.
    """
    k = min(MIN_SAMPLES, len(samples))
    out = []
    for mid in jobs:
        lo = bisect.bisect_left(taken, mid - WINDOW_S)
        hi = bisect.bisect_right(taken, mid + WINDOW_S)
        if hi - lo < k:
            lo = max(0, min(bisect.bisect_left(taken, mid) - k // 2, len(samples) - k))
            hi = lo + k
        out.append(factor(samples[lo:hi]))
    return out
