"""Informative-extrapolation engine.

Outliers are synthesized by multi-step sign-gradient ascent on a target
(uniform-distribution loss, predicted-class confidence, or energy), with
every iterate projected back into the l-inf ball around its origin and
clamped to the data domain. The returned sample is the best iterate seen,
origin included, so the target never degrades in the chosen direction.

The whole batch ascends together. The target is built per row and one
graph pass over its sum gives every row's gradient, since rows do not
interact under the model; each row keeps its own radius, step size and
best iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses
from . import model as model_mod
from .errors import ConfigError, NumericError, ShapeError

DIRECTIONS = ("maximize", "minimize")
TARGETS = ("uniform_loss", "msp", "energy")


@dataclass(frozen=True)
class ExtrapolationConfig:
    """Knobs for the constrained multi-step update.

    ratio: fraction of each outlier batch to synthesize (ceil rounding).
    epsilon: l-inf radius around each origin, in normalized input units.
    steps: number of sign-gradient updates; step_size defaults to
    2*epsilon/steps so the ball stays reachable. pool lists
    (epsilon, fraction) slices; fractions must sum to 1.
    """

    ratio: float = 0.5
    epsilon: float = 0.05
    steps: int = 5
    step_size: float | None = None
    direction: str = "maximize"
    target: str = "uniform_loss"
    target_temperature: float = 1.0
    clamp: tuple[float, float] = (0.0, 1.0)
    pool: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError("ratio must lie in [0, 1]")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.step_size is not None and self.step_size <= 0:
            raise ConfigError("step_size must be positive when given")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}")
        if self.target not in TARGETS:
            raise ConfigError(f"target must be one of {TARGETS}")
        if self.target_temperature <= 0:
            raise ConfigError("target_temperature must be positive")
        if self.clamp[0] >= self.clamp[1]:
            raise ConfigError("clamp interval must be non-empty")
        if self.pool is not None:
            if not self.pool:
                raise ConfigError("pool spec must not be empty")
            total = math.fsum(f for _, f in self.pool)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"pool fractions sum to {total}, expected 1")
            if any(e < 0 for e, _ in self.pool) or any(f < 0 for _, f in self.pool):
                raise ConfigError("pool entries must be non-negative")

    def effective_step_size(self, epsilon=None):
        """Step size for radius ``epsilon`` (a scalar or an array of radii)."""
        eps = self.epsilon if epsilon is None else epsilon
        if self.step_size is not None:
            return self.step_size
        if self.steps == 0:
            return 0.0
        return 2.0 * eps / self.steps


@dataclass
class ExtrapolatedBatch:
    """Per-sample synthesis record: origins, best iterates, and target values."""

    origins: np.ndarray          # (n, d)
    synthesized: np.ndarray      # (n, d)
    epsilons: np.ndarray         # (n,)
    initial_values: np.ndarray   # (n,) target at origin
    final_values: np.ndarray     # (n,) target at best iterate
    aborted: np.ndarray = field(default=None)  # (n,) bool, non-finite value or gradient encountered

    def __post_init__(self):
        if self.aborted is None:
            self.aborted = np.zeros(self.origins.shape[0], dtype=bool)


def _target_graph(dims: tuple[int, ...], target: str, temperature: float):
    """(per-row target, its sum, logits) for a batch bound to "x"."""
    logits = model_mod.logits_graph(dims)
    if target == "uniform_loss":
        rows = losses.oe_rowwise_expr(logits)
    elif target == "msp":
        # Log-confidence of the currently predicted class; sign-equivalent gradient to msp.
        rows = ad.reduce_sum(ad.mul(ad.log_softmax(logits), ad.inp("class_onehot")), axis=1)
    elif target == "energy":
        t = float(temperature)
        rows = ad.affine(ad.logsumexp(ad.affine(logits, 1.0 / t), axis=1), t)
    else:
        raise ConfigError(f"unknown target {target!r}")
    return rows, ad.reduce_sum(rows), logits


def _ascend(graph, bindings: dict[str, np.ndarray], x0: np.ndarray, eps: np.ndarray,
            cfg: ExtrapolationConfig):
    """Best-iterate constrained ascent on a block of rows.

    Returns (synthesized, v0, v_best, aborted). A block whose radii are all
    0 is only evaluated. Rows are independent, so a block whose value or
    gradient turns non-finite is split in halves and retried until each
    failing row stands alone; such a row comes back at its origin, flagged,
    with its initial value (NaN if that was not finite).
    """
    rows_node, total, logits_node = graph
    n = x0.shape[0]
    steps = cfg.steps if eps.any() else 0
    msp = cfg.target == "msp"
    sign_dir = 1.0 if cfg.direction == "maximize" else -1.0
    radius = eps[:, None]
    alpha = cfg.effective_step_size(radius)
    lo = x0 - radius
    hi = x0 + radius
    dlo, dhi = cfg.clamp
    b = dict(bindings)

    x = x0
    v0 = None
    try:
        # Visit x_0 ... x_steps; the origin is a candidate, so no row's best
        # value falls below its initial one in the chosen direction.
        for t in range(steps + 1):
            b["x"] = x
            if msp:
                logits = ad.evaluate(logits_node, b)
                b["class_onehot"] = np.eye(logits.shape[1])[np.argmax(logits, axis=1)]
            if t < steps:
                _, grads, (raw,) = ad.value_and_grad(total, b, ["x"], aux=(rows_node,))
            else:
                raw = ad.evaluate(rows_node, b)
            v = np.exp(raw) if msp else raw
            if t == 0:
                v0 = v
                best_x, best_v = x0.copy(), v.copy()
            else:
                improved = v > best_v if sign_dir > 0 else v < best_v
                best_x[improved] = x[improved]
                best_v[improved] = v[improved]
            if t < steps:
                x = np.clip(np.clip(x + alpha * sign_dir * np.sign(grads["x"]), dlo, dhi), lo, hi)
    except NumericError:
        if n > 1:
            h = n // 2
            halves = (_ascend(graph, bindings, x0[:h], eps[:h], cfg),
                      _ascend(graph, bindings, x0[h:], eps[h:], cfg))
            return tuple(np.concatenate(parts) for parts in zip(*halves))
        v = np.full(1, np.nan) if v0 is None else v0
        return x0.copy(), v, v.copy(), np.ones(1, dtype=bool)
    return best_x, v0, best_v, np.zeros(n, dtype=bool)


def pgd_extrapolate(mlp: model_mod.MlpClassifier, x0, cfg: ExtrapolationConfig,
                    epsilon=None) -> ExtrapolatedBatch:
    """Synthesize one sample per input row under the l-inf/domain constraints.

    ``epsilon`` overrides cfg.epsilon with a scalar or one radius per row
    (used by pool slices); a row with radius 0 stays at its origin. Rows
    whose value or gradient turns non-finite are returned as their origin
    and flagged, without affecting the other rows.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[1] != mlp.n_features:
        raise ShapeError(f"batch shape {x0.shape} does not match model input width")
    radius = np.asarray(cfg.epsilon if epsilon is None else epsilon, dtype=np.float64)
    try:
        eps = np.broadcast_to(radius, x0.shape[:1]).copy()
    except ValueError:
        raise ShapeError(f"epsilon shape {radius.shape} does not match {x0.shape[0]} rows") from None
    if not np.all(eps >= 0):
        raise ConfigError("epsilon must be >= 0")
    dlo, dhi = cfg.clamp
    if x0.size and (x0.min() < dlo - 1e-12 or x0.max() > dhi + 1e-12):
        raise ConfigError("origins must lie inside the domain clamp")
    graph = _target_graph(mlp.dims, cfg.target, cfg.target_temperature)
    synthesized, v0, v_best, aborted = _ascend(graph, model_mod.param_bindings(mlp), x0, eps, cfg)
    return ExtrapolatedBatch(x0.copy(), synthesized, eps, v0, v_best, aborted)


def select_subbatch(outlier_batch, ratio: float, rng: np.random.Generator):
    """Uniform without-replacement split into (to_extrapolate, untouched).

    Both parts keep ascending original-index order, so a zero ratio leaves
    the batch bit-identical in its original order.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError("ratio must lie in [0, 1]")
    batch = np.asarray(outlier_batch, dtype=np.float64)
    n = batch.shape[0]
    k = math.ceil(ratio * n)
    chosen = np.sort(rng.choice(n, size=k, replace=False))
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    return batch[mask], batch[~mask]


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
    """Split the sub-batch, in order, across the pool's epsilon slices and
    synthesize every row in one batched run.

    A single (epsilon, 1.0) entry is exactly one plain constrained run.
    """
    pool = cfg.pool if cfg.pool is not None else ((cfg.epsilon, 1.0),)
    if not pool:
        raise ConfigError("pool spec must not be empty")
    subbatch = np.asarray(subbatch, dtype=np.float64)
    counts = largest_remainder_counts([f for _, f in pool], subbatch.shape[0])
    eps = np.repeat([e for e, _ in pool], counts)
    return pgd_extrapolate(mlp, subbatch, cfg, epsilon=eps)

