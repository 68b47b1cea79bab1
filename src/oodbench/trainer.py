"""Fine-tuning loop: SGD with Nesterov momentum, weight decay and a
per-step cosine-annealed learning rate.

Per batch: sample an ID mini-batch and an outlier mini-batch, synthesize a
share of its rows in place against the current model snapshot, then take
one gradient step on the kind's objective, ``losses.objective``, which
``_build_loss_graph`` binds once per run. The outlier stream reshuffles and
cycles so every ID batch is paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import losses
from . import model as model_mod
from .errors import ConfigError, NumericError
from .extrapolation import ExtrapolationConfig, build_extrapolation_pool, select_subbatch
from .numerics import derive_seed

MOMENTUM = 0.9  # Nesterov momentum of every SGD step
WEIGHT_DECAY = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    """Fine-tuning hyperparameters; defaults follow the standard protocol."""

    epochs: int = 10
    lr: float = 0.001
    id_batch: int = 128
    outlier_batch: int = 128
    loss: losses.LossConfig = field(default_factory=losses.LossConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.lr < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.id_batch < 1 or self.outlier_batch < 1:
            raise ConfigError("batch sizes must be >= 1")


@dataclass
class StepRecord:
    epoch: int
    step: int
    lr: float
    ce_loss: float
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


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             velocity: dict[str, np.ndarray], lr: float):
    """One Nesterov update: g += wd*p; v' = m*v + g; p' = p - lr*(g + m*v'),
    with m = MOMENTUM and wd = WEIGHT_DECAY."""
    new_params = {}
    new_velocity = {}
    for name, p in params.items():
        g = grads[name] + WEIGHT_DECAY * p
        v = MOMENTUM * velocity[name] + g
        new_params[name] = p - lr * (g + MOMENTUM * v)
        new_velocity[name] = v
    return new_params, new_velocity


def _outlier_batches(outliers: np.ndarray, batch_size: int, seed: int):
    """Endless stream of fixed-size outlier batches; reshuffles when exhausted.

    ``batch_size`` must not exceed the pool (``fine_tune`` caps it there);
    rows left over from a pass are dropped.
    """
    n = outliers.shape[0]
    pass_idx = 0
    while True:
        order = np.random.Generator(np.random.PCG64([seed, pass_idx])).permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield outliers[order[start:start + batch_size]]
        pass_idx += 1


def _build_loss_graph(dims, lc: losses.LossConfig):
    """``losses.objective`` over batches x / y and, for a kind that binds it, x_out;
    ``y`` is the one-hot labels, so one objective serves every step and row count."""
    x_out = model_mod.logits_graph(dims, "x_out") if losses.KINDS[lc.kind].binds_aux else None
    return losses.objective(lc, model_mod.logits_graph(dims, "x"), "y", x_out)


def fine_tune(mlp: model_mod.MlpClassifier, id_train: data_mod.LabeledDataset,
              aux_outliers: np.ndarray | None, cfg: TrainConfig,
              extrapolation: ExtrapolationConfig, seed: int):
    """Run the full fine-tuning loop; returns (model', TrainHistory).

    ``aux_outliers`` is a non-empty pool (the CLI checks), None for a kind that
    binds no aux batch. A kind whose ``losses.KINDS`` row binds it trains each
    step on an ``n_out``-row batch of the aux stream, bound as ``x_out``; one
    that synthesizes extrapolates ``n_ext = ceil(ratio * n_out)`` of its rows
    across extrapolation.pool and writes them back in their origins' places
    (in the step's copy: the pool is never written). ``outlier_loss`` is the
    outlier term, ``extrapolated_loss`` the mean uniform loss of the
    synthesized rows. Deterministic per ``seed``: batch shuffling, row
    selection and any extrapolation randomness come from per-component seed
    streams. A non-finite loss aborts with NumericError rather than being skipped.
    """
    kind = losses.KINDS[cfg.loss.kind]
    aux = None if aux_outliers is None else np.asarray(aux_outliers, dtype=np.float64)
    params = dict(model_mod.param_bindings(mlp))
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    history = TrainHistory()
    if cfg.epochs == 0:
        return mlp, history

    n_batches = max(1, math.ceil(len(id_train) / cfg.id_batch))
    total_steps = cfg.epochs * n_batches
    shuffle_seed = derive_seed(seed, 0)
    select_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 1)))
    n_out = min(cfg.outlier_batch, aux.shape[0]) if kind.binds_aux else 0
    out_stream = _outlier_batches(aux, n_out, derive_seed(seed, 2))  # read only if n_out
    n_ext = math.ceil(extrapolation.ratio * n_out) if kind.synthesizes else 0
    objective = _build_loss_graph(mlp.dims, cfg.loss)
    terms = (objective.head, *objective.group)

    param_names = model_mod.param_names(mlp)
    step = 0
    for epoch in range(cfg.epochs):
        epoch_iter = data_mod.batches(id_train, cfg.id_batch,
                                      seed=derive_seed(shuffle_seed, epoch))
        for x_id, y_id in epoch_iter:
            bindings = dict(params, x=x_id, y=losses.onehot(y_id, mlp.n_classes))
            if n_out:
                bindings["x_out"] = x_out = next(out_stream)  # a copy: the pool stays unwritten
            if n_ext:
                chosen = select_subbatch(n_out, n_ext, select_rng)
                extrap = build_extrapolation_pool(_model(mlp.dims, params), x_out[chosen],
                                                  extrapolation)
                ok = ~extrap.aborted
                if ok.any() and (np.mean(extrap.final_values[ok])
                                 < np.mean(extrap.initial_values[ok]) - 1e-12):
                    raise NumericError(
                        f"best-iterate extrapolation lost ground on the uniform loss "
                        f"at epoch {epoch} step {step}")
                x_out[chosen] = extrap.synthesized
            try:
                total_value, grads, outputs = ad.value_and_grad(objective, bindings, param_names)
            except NumericError as exc:
                raise NumericError(
                    f"non-finite loss at epoch {epoch} step {step}: {exc}") from exc
            ce_value, *values = (float(t.reduced(out)) for t, out in zip(terms, outputs))

            lr = cosine_lr(step, total_steps, cfg.lr)
            params, velocity = sgd_step(params, grads, velocity, lr)
            history.records.append(StepRecord(
                epoch=epoch, step=step, lr=lr, ce_loss=ce_value,
                outlier_loss=values[-1] if n_out else None,
                extrapolated_loss=float(np.mean(outputs[-1][chosen])) if n_ext else None,
                total_loss=float(total_value)))
            step += 1
    return _model(mlp.dims, params), history


def _model(dims, params: dict[str, np.ndarray]) -> model_mod.MlpClassifier:
    """The classifier holding the current parameters (checked to be finite)."""
    n_layers = len(dims) - 1
    return model_mod.MlpClassifier(dims, tuple(params[f"W{i}"] for i in range(n_layers)),
                                   tuple(params[f"b{i}"] for i in range(n_layers)))

