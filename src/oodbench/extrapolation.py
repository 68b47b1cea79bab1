"""Informative-extrapolation engine.

Outliers are synthesized by multi-step sign-gradient ascent on the
outlier-exposure loss itself: each row's cross-entropy to the uniform
distribution. Every iterate is clipped to data.DOMAIN and projected back
into the l-inf ball around its origin. The returned sample is the best
iterate seen, origin included, so no row's loss falls below its initial
value.

The batch ascends per ``model.row_slices`` slice of ``model.CHUNK_ROWS`` rows,
each slice together and writing its own rows into the one record
``pgd_extrapolate`` allocates, so a row's result equals that of its slice
ascended alone (the contract ``row_slices`` states); a training step's
sub-batch, under 2 * CHUNK_ROWS rows, is one slice. The target is the
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


def pgd_extrapolate(mlp: model_mod.MlpClassifier, x0, cfg: ExtrapolationConfig,
                    epsilon=None) -> ExtrapolatedBatch:
    """Synthesize one sample per input row under the l-inf/domain constraints.

    The origins ``x0`` lie inside data.DOMAIN, as the CLI checks. ``epsilon``
    gives the rows their radii (a scalar, or one per row); by default the rows
    are split, in order, across cfg.pool's slices. A row with radius 0 stays at
    its origin, and a block whose radii are all 0 is only evaluated. Each
    ``model.row_slices`` slice is a block. Rows are independent, so a block
    whose value or gradient turns non-finite is split in halves, first half
    first, until each failing row stands alone; such a row stays at its origin,
    flagged, with its lone visit's initial value (NaN if that was not finite).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.shape[0]
    if epsilon is None:
        epsilon = np.repeat([e for e, _ in cfg.pool],
                            largest_remainder_counts([f for _, f in cfg.pool], n))
    eps = np.broadcast_to(np.asarray(epsilon, dtype=np.float64), x0.shape[:1]).copy()
    target = ad.input_objective(mlp.dims, losses.oe_rows)
    out = ExtrapolatedBatch(x0.copy(), x0.copy(), eps, np.full(n, np.nan), np.full(n, np.nan),
                            np.zeros(n, dtype=bool))
    # A stack of (start, stop) blocks, popped in row order.
    todo = [rows.indices(n)[:2] for rows in reversed(model_mod.row_slices(n, model_mod.CHUNK_ROWS))]
    while todo:
        start, stop = todo.pop()
        origin = out.origins[start:stop]
        radius = eps[start:stop, None]
        steps = cfg.steps if radius.any() else 0
        alpha = 2.0 * radius / steps if steps else 0.0
        lo = origin - radius
        hi = origin + radius
        x = origin
        v0 = None
        try:
            # Visit x_0 ... x_steps; the origin is a candidate, so no row's best
            # value falls below its initial one. The last visit needs no gradient.
            for t in range(steps + 1):
                v, dx = ad.input_gradient(mlp, x, target, grad=t < steps)
                if t == 0:
                    v0 = v
                    best_x, best_v = origin.copy(), v.copy()
                else:
                    improved = v > best_v
                    best_x[improved] = x[improved]
                    best_v[improved] = v[improved]
                if t < steps:
                    x = np.clip(np.clip(x + alpha * np.sign(dx), *DOMAIN), lo, hi)
        except NumericError:
            if stop - start > 1:
                middle = (start + stop) // 2
                todo += [(middle, stop), (start, middle)]
            else:
                out.aborted[start:stop] = True
                if v0 is not None:
                    out.initial_values[start:stop] = out.final_values[start:stop] = v0
            continue
        out.synthesized[start:stop] = best_x
        out.initial_values[start:stop] = v0
        out.final_values[start:stop] = best_v
    return out


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
