"""A fixed reference job that measures how fast the CPU runs at this moment.

On a shared virtual machine the speed of a CPU drifts by a quarter or more,
within seconds and over minutes, because other guests compete for the same
physical cores. run.py pauses each timed child process every SLICE_S seconds,
runs this job once on the same CPU, and resumes the child (see run.py). The
job never touches the program under test, so a change to the program cannot
move it. It mixes the three kinds of work the workloads do: interpreted Python
that allocates and formats (sorting, CSV and JSON), numpy calls on tiny
arrays, and numpy passes over large arrays. A tight arithmetic loop is left
out on purpose: it runs from the first-level caches and slowed less than the
program when the host was busy.
"""

from __future__ import annotations

import csv
import io
import json
import time

import numpy as np

# The time one window of the job takes at the nominal speed. Timed children
# are reported in seconds at this speed, close to the fast end of the 2-vCPU
# Xeon host the benchmark was written on.
NOMINAL_S = 0.010

_RNG = np.random.default_rng(12345)
_X = _RNG.random((21, 2))
_W1, _W2 = _RNG.standard_normal((2, 64)), _RNG.standard_normal((64, 4))
_BIG = _RNG.standard_normal(68_000)


def _python() -> int:
    rows = [(i % 97, f"r{i}", i * 0.37) for i in range(2250)]
    rows.sort(key=lambda r: (r[0], r[1]))
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    doc = json.loads(json.dumps({"rows": rows[:300], "text": buf.getvalue()[:2000]}))
    return len(buf.getvalue()) + len(doc["rows"])


def _numpy_small() -> float:
    x = _X
    for _ in range(150):
        h = np.maximum(x @ _W1, 0.0)
        o = h @ _W2
        p = np.exp(o - o.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        x = np.clip(x + 1e-3 * np.sign(p[:, :2] - 0.25), 0.0, 1.0)
    return float(x.sum())


def _numpy_large() -> float:
    total = 0.0
    for _ in range(3):
        s = np.sort(_BIG)
        total += float(np.cumsum(s)[-1] + np.exp(-np.abs(_BIG)).sum())
    return total


PARTS = (("python", _python), ("numpy_small", _numpy_small), ("numpy_large", _numpy_large))


def window() -> dict[str, float]:
    """Seconds taken by each part of one run of the job."""
    times = {}
    for name, fn in PARTS:
        t0 = time.perf_counter()
        fn()
        times[name] = time.perf_counter() - t0
    return times
