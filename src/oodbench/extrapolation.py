"""Informative-extrapolation engine.

Outliers are synthesized by multi-step sign-gradient ascent on the
outlier-exposure loss itself: each row's cross-entropy to the uniform
distribution. Every iterate is clipped to data.DOMAIN and projected back
into the l-inf ball around its origin. The returned sample is the best
iterate seen, origin included, so no row's loss falls below its initial
value.

The whole batch ascends together. The target is the mean over the rows of
``losses.oe_rows``, the uniform loss ``losses.objective`` averages over the
outlier batch the rows rejoin. Rows do not interact under the model, so one
pass gives every row's value and its input gradient over m, whose sign a
step takes. Each row keeps its own radius (its slice of the pool), step
size and best iterate. The knobs, ``ExtrapolationConfig``, live with the
other config sections in ``config`` and are imported here from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses
from . import model as model_mod
from .config import ExtrapolationConfig
from .data import DOMAIN
from .errors import NumericError


@dataclass
class ExtrapolatedBatch:
    """Per-sample synthesis record: origins, best iterates, and their uniform losses."""

    origins: np.ndarray          # (n, d)
    synthesized: np.ndarray      # (n, d)
    epsilons: np.ndarray         # (n,)
    initial_values: np.ndarray   # (n,) uniform loss at origin
    final_values: np.ndarray     # (n,) uniform loss at best iterate
    aborted: np.ndarray          # (n,) bool, non-finite value or gradient encountered


def _target_graph(dims: tuple[int, ...]) -> ad.Objective:
    """The mean of the per-row uniform loss over a batch bound to "x"."""
    return ad.Objective(ad.Term(losses.oe_rows, model_mod.logits_graph(dims)))


def _ascend(target, bindings: dict[str, np.ndarray], x0: np.ndarray, eps: np.ndarray,
            steps: int):
    """Best-iterate constrained ascent on a block of rows.

    Returns (synthesized, v0, v_best, aborted). A block whose radii are all
    0 is only evaluated. Rows are independent, so a block whose value or
    gradient turns non-finite is split in halves and retried until each
    failing row stands alone; such a row comes back at its origin, flagged,
    with its initial value (NaN if that was not finite).
    """
    n = x0.shape[0]
    steps = steps if eps.any() else 0
    radius = eps[:, None]
    alpha = 2.0 * radius / steps if steps else 0.0
    lo = x0 - radius
    hi = x0 + radius
    b = dict(bindings)

    x = x0
    v0 = None
    try:
        # Visit x_0 ... x_steps; the origin is a candidate, so no row's best
        # value falls below its initial one. The last visit needs no gradient.
        for t in range(steps + 1):
            b["x"] = x
            _, grads, (v,) = ad.value_and_grad(target, b, ["x"] if t < steps else [])
            if t == 0:
                v0 = v
                best_x, best_v = x0.copy(), v.copy()
            else:
                improved = v > best_v
                best_x[improved] = x[improved]
                best_v[improved] = v[improved]
            if t < steps:
                x = np.clip(np.clip(x + alpha * np.sign(grads["x"]), *DOMAIN), lo, hi)
    except NumericError:
        if n > 1:
            h = n // 2
            halves = (_ascend(target, bindings, x0[:h], eps[:h], steps),
                      _ascend(target, bindings, x0[h:], eps[h:], steps))
            return tuple(np.concatenate(parts) for parts in zip(*halves))
        v = np.full(n, np.nan) if v0 is None else v0
        return x0.copy(), v, v.copy(), np.ones(n, dtype=bool)
    return best_x, v0, best_v, np.zeros(n, dtype=bool)


def pgd_extrapolate(mlp: model_mod.MlpClassifier, x0, cfg: ExtrapolationConfig,
                    epsilon=None) -> ExtrapolatedBatch:
    """Synthesize one sample per input row under the l-inf/domain constraints.

    The origins ``x0`` lie inside data.DOMAIN, as the CLI checks. ``epsilon``
    gives the rows their radii (a scalar, or one per row); by default the rows
    are split, in order, across cfg.pool's slices. A row with radius 0 stays at
    its origin. Rows whose value or gradient turns non-finite are returned as
    their origin and flagged, without affecting the other rows.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if epsilon is None:
        epsilon = np.repeat([e for e, _ in cfg.pool],
                            largest_remainder_counts([f for _, f in cfg.pool], x0.shape[0]))
    eps = np.broadcast_to(np.asarray(epsilon, dtype=np.float64), x0.shape[:1]).copy()
    synthesized, v0, v_best, aborted = _ascend(
        _target_graph(mlp.dims), model_mod.param_bindings(mlp), x0, eps, cfg.steps)
    return ExtrapolatedBatch(x0.copy(), synthesized, eps, v0, v_best, aborted)


def largest_remainder_counts(fractions, total: int) -> list[int]:
    """Integer slice sizes summing to ``total``; ties go to lower indices."""
    raw = [f * total for f in fractions]
    counts = [math.floor(r) for r in raw]
    deficit = total - sum(counts)
    remainders = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in remainders[:deficit]:
        counts[i] += 1
    return counts


def build_extrapolation_pool(mlp: model_mod.MlpClassifier, subbatch,
                             cfg: ExtrapolationConfig) -> ExtrapolatedBatch:
    """Synthesize a training step's sub-batch, the head of its outlier batch,
    across the pool's epsilon slices."""
    return pgd_extrapolate(mlp, subbatch, cfg)
