"""Fine-tuning loop: SGD with Nesterov momentum, weight decay and a
per-step cosine-annealed learning rate.

Per batch: sample an ID mini-batch and an outlier mini-batch, synthesize the
head of the outlier batch in place against the current model snapshot (only the
ascent keeps each row's best iterate), then take one gradient step on the
kind's objective, ``losses.objective``, which ``_build_loss_graph`` binds once
per run. The parameters, their gradient and the velocity are each one vector
laid out as the model's θ, so a step's update is three whole-vector
expressions. Both batch streams cut one seeded order, ``data.batches``: the ID
stream one pass per epoch, the outlier stream the full slices of pass after
pass, so every ID batch is paired.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import losses
from . import model as model_mod
from .config import LOSS_KINDS, ExtrapolationConfig, LossConfig, TrainConfig
from .errors import NumericError
from .extrapolation import build_extrapolation_pool
from .numerics import derive_seed

MOMENTUM = 0.9  # Nesterov momentum of every SGD step
WEIGHT_DECAY = 1e-4


@dataclass
class StepRecord:
    epoch: int
    step: int
    lr: float
    ce_loss: float
    id_hinge_loss: float | None
    outlier_loss: float | None
    extrapolated_loss: float | None
    total_loss: float


@dataclass
class TrainHistory:
    records: list[StepRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        # Not dataclasses.astuple: its deep copies make 1280 rows 12 ms, not 3.5 ms.
        names = [f.name for f in fields(StepRecord)]
        data_mod.write_table(path, names, map(attrgetter(*names), self.records))


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """0.5 * lr0 * (1 + cos(pi * step / total_steps)), for 0 <= step < total_steps."""
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_step(theta: np.ndarray, grad: np.ndarray, velocity: np.ndarray, lr: float):
    """One Nesterov update of θ, elementwise: g = grad + wd*θ; v' = m*v + g;
    θ' = θ - lr*(g + m*v'), with m = MOMENTUM and wd = WEIGHT_DECAY. Returns (θ', v')."""
    g = grad + WEIGHT_DECAY * theta
    v = MOMENTUM * velocity + g
    return theta - lr * (g + MOMENTUM * v), v


def _outlier_batches(outliers: np.ndarray, batch_size: int, seed: int):
    """Endless stream of fixed-size outlier batches: the full slices of
    ``data.batches`` passes p = 0, 1, ... with entropy (seed, p).

    ``batch_size`` must not exceed the pool (``fine_tune`` caps it there);
    rows left over from a pass are dropped.
    """
    for p in itertools.count():
        for idx in data_mod.batches(len(outliers), batch_size, seed, p):
            if idx.size == batch_size:
                yield outliers[idx]


def _build_loss_graph(dims, lc: LossConfig):
    """``losses.objective`` over batches x / y and, for a kind that binds it, x_out;
    ``y`` is the one-hot labels, so one objective serves every step and row count."""
    x_out = model_mod.logits_graph(dims, "x_out") if LOSS_KINDS[lc.kind].binds_aux else None
    return losses.objective(lc, model_mod.logits_graph(dims, "x"), "y", x_out)


def fine_tune(mlp: model_mod.MlpClassifier, id_train: data_mod.LabeledDataset,
              aux_outliers: np.ndarray | None, cfg: TrainConfig,
              extrapolation: ExtrapolationConfig, seed: int):
    """Run the full fine-tuning loop; returns (model', TrainHistory).

    ``aux_outliers`` is a non-empty pool (the CLI checks), None for a kind that
    binds no aux batch. A kind whose ``config.LOSS_KINDS`` row binds it trains each
    step on an ``n_out``-row batch of the aux stream, bound as ``x_out``; one
    that synthesizes extrapolates the batch's first ``n_ext = ceil(ratio * n_out)``
    rows across extrapolation.pool and writes them back over those rows (in the
    step's copy: the pool is never written). The batch is a slice of a uniform
    permutation of the pool, so its head is as random a choice as any.
    ``id_hinge_loss`` is a hinge kind's ID hinge term, ``outlier_loss`` the
    outlier term, so ``total_loss`` = ce + balance * (ID hinge + outlier) reads
    off one record, and ``extrapolated_loss`` is the mean uniform loss of the
    synthesized rows, none below its origin's: the ascent alone keeps
    best-iterate. Deterministic per ``seed``: epoch e's ID batches are
    ``data.batches`` with entropy derive_seed(derive_seed(seed, 0), e), and the
    outlier stream's pass p with (derive_seed(seed, 2), p). A non-finite loss
    aborts with NumericError rather than being skipped.
    """
    kind = LOSS_KINDS[cfg.loss.kind]
    aux = None if aux_outliers is None else np.asarray(aux_outliers, dtype=np.float64)
    theta = mlp.theta
    velocity = np.zeros_like(theta)
    history = TrainHistory()

    n_batches = max(1, math.ceil(len(id_train) / cfg.id_batch))
    total_steps = cfg.epochs * n_batches
    shuffle_seed = derive_seed(seed, 0)  # 1 (row selection) is retired; 2 keeps its number
    n_out = min(cfg.outlier_batch, aux.shape[0]) if kind.binds_aux else 0
    out_stream = _outlier_batches(aux, n_out, derive_seed(seed, 2))  # read only if n_out
    n_ext = math.ceil(extrapolation.ratio * n_out) if kind.synthesizes else 0
    objective = _build_loss_graph(mlp.dims, cfg.loss)
    terms = (objective.head, *objective.group)

    step = 0
    for epoch in range(cfg.epochs):
        for idx in data_mod.batches(len(id_train), cfg.id_batch, derive_seed(shuffle_seed, epoch)):
            bindings = {model_mod.THETA: theta, "x": id_train.x[idx],
                        "y": losses.onehot(id_train.y[idx], mlp.n_classes)}
            if n_out:
                bindings["x_out"] = x_out = next(out_stream)  # a copy: the pool stays unwritten
            if n_ext:
                x_out[:n_ext] = build_extrapolation_pool(model_mod.MlpClassifier(mlp.dims, theta),
                                                         x_out[:n_ext], extrapolation).synthesized
            try:
                total_value, grads, outputs = ad.value_and_grad(objective, bindings,
                                                                [model_mod.THETA])
            except NumericError as exc:
                raise NumericError(
                    f"non-finite loss at epoch {epoch} step {step}: {exc}") from exc
            ce_value, *values = (float(t.reduced(out)) for t, out in zip(terms, outputs))

            lr = cosine_lr(step, total_steps, cfg.lr)
            theta, velocity = sgd_step(theta, grads[model_mod.THETA], velocity, lr)
            history.records.append(StepRecord(
                epoch=epoch, step=step, lr=lr, ce_loss=ce_value,
                id_hinge_loss=values[0] if kind.hinge else None,
                outlier_loss=values[-1] if n_out else None,
                extrapolated_loss=float(np.mean(outputs[-1][:n_ext])) if n_ext else None,
                total_loss=float(total_value)))
            step += 1
    return model_mod.MlpClassifier(mlp.dims, theta), history

