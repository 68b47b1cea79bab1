"""Informative-extrapolation engine.

Outliers are synthesized by multi-step sign-gradient ascent on the
outlier-exposure loss itself: each row's cross-entropy to the uniform
distribution. Every iterate is clipped to data.DOMAIN and projected back
into the l-inf ball around its origin. The returned sample is the best
iterate seen, origin included, so no row's loss falls below its initial
value.

The batch ascends per ``model.row_slices`` slice of ``model.CHUNK_ROWS`` rows,
each slice together, so a row's result equals that of its slice ascended alone
(the contract ``row_slices`` states); a training step's sub-batch, under
2 * CHUNK_ROWS rows, is one slice. The target is the
``autodiff.input_objective`` of ``losses.oe_rows``, the uniform loss
``losses.objective`` averages over the outlier batch the rows rejoin. Rows do
not interact under the model, so one ``autodiff.input_gradient`` pass gives
every row of a slice its value and its input gradient over m, whose sign a step
takes. Each row keeps its own radius (its slice of the pool), step size and
best iterate. The knobs, ``ExtrapolationConfig``, live with the other config
sections in ``config`` and are imported here from there.
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


def _ascend(target: ad.Objective, mlp: model_mod.MlpClassifier, x0: np.ndarray,
            eps: np.ndarray, steps: int):
    """Best-iterate constrained ascent of ``target`` on a block of rows.

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

    x = x0
    v0 = None
    try:
        # Visit x_0 ... x_steps; the origin is a candidate, so no row's best
        # value falls below its initial one. The last visit needs no gradient.
        for t in range(steps + 1):
            v, dx = ad.input_gradient(mlp, x, target, grad=t < steps)
            if t == 0:
                v0 = v
                best_x, best_v = x0.copy(), v.copy()
            else:
                improved = v > best_v
                best_x[improved] = x[improved]
                best_v[improved] = v[improved]
            if t < steps:
                x = np.clip(np.clip(x + alpha * np.sign(dx), *DOMAIN), lo, hi)
    except NumericError:
        if n > 1:
            h = n // 2
            halves = (_ascend(target, mlp, x0[:h], eps[:h], steps),
                      _ascend(target, mlp, x0[h:], eps[h:], steps))
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
    their origin and flagged, without affecting the other rows. ``_ascend``
    runs once per ``model.row_slices`` slice, so a row's result equals that of
    its slice ascended alone, and a slice whose radii are all 0 is only
    evaluated.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if epsilon is None:
        epsilon = np.repeat([e for e, _ in cfg.pool],
                            largest_remainder_counts([f for _, f in cfg.pool], x0.shape[0]))
    eps = np.broadcast_to(np.asarray(epsilon, dtype=np.float64), x0.shape[:1]).copy()
    target = ad.input_objective(mlp.dims, losses.oe_rows)
    parts = [_ascend(target, mlp, x0[rows], eps[rows], cfg.steps)
             for rows in model_mod.row_slices(x0.shape[0], model_mod.CHUNK_ROWS)]
    synthesized, v0, v_best, aborted = (np.concatenate(p) for p in zip(*parts))
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
