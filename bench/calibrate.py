"""A fixed reference workload that measures how fast the machine is right now.

On a shared machine the speed of a core drifts by tens of percent over
minutes, so raw wall times of runs made minutes apart are not comparable.
Each measuring process times this mix just before and just after the
workload, and the launcher reports the workload's wall time as a multiple
of it (``wall_rel``) besides the raw seconds.  The mix imitates the three
kinds of work the package does: interpreter-bound scalar code, short numpy
calls in a Python loop, and whole-array numpy arithmetic.  It must never
change, or ``wall_rel`` stops being comparable across commits.
"""

from __future__ import annotations

import math
import time

import numpy as np


def _scalar(n: int) -> float:
    total = 0.0
    for i in range(1, n):
        d_near, d_far = abs(i % 7 - 3.5), 1.0 + i % 5
        total += (abs(d_far - d_near) / (d_near + d_far)) ** 0.7 + math.sqrt(i)
    return total


def _small_arrays(n: int) -> float:
    pmf = np.array([1.0])
    for i in range(n):
        p = (i % 97) / 97.0
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return float(pmf.sum())


def _grid(rounds: int) -> float:
    q, x = np.meshgrid(np.linspace(1e-3, 1.0, 128), np.linspace(0.0, 0.49, 128),
                       indexing="ij")
    total = 0.0
    for k in range(rounds):
        beta = 0.05 + k / rounds
        base = (1.0 - q) / ((1.0 - 2.0 * x) ** beta * q)
        xd = np.maximum(1.0, 0.5 * (1.0 + base ** (1.0 / beta)))
        total += float(np.max((q * x + (1.0 - q) * xd) / (q * (1.0 - x) + (1.0 - q) * (xd - 1.0))))
    return total


def calibrate() -> float:
    """Seconds this process takes for the fixed reference mix."""
    start = time.perf_counter()
    _scalar(150_000)
    _small_arrays(4_500)
    _grid(150)
    return time.perf_counter() - start
