"""A fixed reference task that measures how fast the host runs right now.

On a shared host the speed available to one process drifts by tens of
percent over seconds, so raw wall times of identical work spread too widely
to compare two commits. The benchmark brackets every timed interval with
this reference task and reports the interval scaled to a host that runs the
reference in ``REFERENCE_S``::

    scaled = seconds * REFERENCE_S / mean(reference before, reference after)

The task mixes what the package spends its time on: Python calls around
small numpy arrays with float formatting, and vectorized passes over a
1024-point temperature grid. Interpreter-bound and numpy-bound code slow
down by different factors on a busy host; scaling by the sum of the two
kept the spread of 10-second medians of both kinds of workload within a few
percent. Raw seconds stay in the provenance record of every run.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0125
_LEVELS = np.arange(8.0)
_GRID = np.linspace(0.1, 2.0, 1024)
_GAPS = np.array([0.0, 1.0, 2.0, 3.0, 5.0])


def reference_seconds() -> float:
    """Wall time of one run of the reference task."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        w = np.exp(-_LEVELS / (1.0 + i * 1e-4))
        acc += float(w.sum() / w.size)
    text = ",".join(repr(x * 1.1) for x in range(2500))
    for i in range(40):
        logw = -np.outer(1.0 / (_GRID + i * 1e-3), _GAPS)
        top = logw.max(axis=1, keepdims=True)
        logz = top[:, 0] + np.log(np.exp(logw - top).sum(axis=1))
        dens = np.exp(logz - logz.max())
        acc += float(np.trapezoid(dens * _GRID, _GRID))
    elapsed = time.perf_counter() - t0
    if not (acc > 0.0 and text):
        raise RuntimeError("reference task produced no result")
    return elapsed


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the reference times around the interval."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
