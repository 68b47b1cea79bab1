"""Stable elementwise numerics shared by the autodiff engine and the scorers.

All functions take and return float64 arrays. The log-sum-exp family uses
max-subtraction so inputs with magnitude up to ~1e3 stay finite.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def derive_seed(*entropy: int) -> int:
    """One 32-bit seed drawn from ``SeedSequence(entropy)``: the config's component
    streams and the trainer's substreams are all derived through this."""
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1)[0])


def as_tensor(x) -> np.ndarray:
    """Coerce to a float64 ndarray without copying when already one."""
    return np.asarray(x, dtype=np.float64)


def logsumexp(x, axis: int | None = None, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(x))) along ``axis`` with max-subtraction for stability."""
    x = as_tensor(x)
    if axis is not None and (x.ndim == 0 or axis >= x.ndim or axis < -x.ndim):
        raise ShapeError(f"logsumexp: axis {axis} invalid for shape {x.shape}")
    if axis is not None and x.shape[axis] == 0:
        raise ShapeError("logsumexp: empty axis")
    if axis is None and x.size == 0:
        raise ShapeError("logsumexp: empty input")
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    if not keepdims:
        out = np.squeeze(out, axis=axis) if axis is not None else out.reshape(())
    return out


def softmax(x, axis: int = -1) -> np.ndarray:
    """Row-stable softmax along ``axis``."""
    x = as_tensor(x)
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x, axis: int = -1) -> np.ndarray:
    """Stable log(softmax(x)) along ``axis``."""
    x = as_tensor(x)
    return x - logsumexp(x, axis=axis, keepdims=True)
