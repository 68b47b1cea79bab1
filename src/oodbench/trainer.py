"""Fine-tuning loop: SGD with Nesterov momentum, weight decay and a
per-step cosine-annealed learning rate.

Per batch: sample an ID mini-batch and an outlier mini-batch, split off a
sub-batch by the extrapolation ratio, synthesize it against the current
model snapshot, then take one gradient step on the combined objective.
The outlier stream reshuffles and cycles so every ID batch is paired.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import losses
from . import model as model_mod
from .errors import ConfigError, NumericError
from .extrapolation import ExtrapolationConfig, build_extrapolation_pool, select_subbatch
from .numerics import derive_seed

LOSS_KINDS = ("ce", "oe", "energy_bounded", "divoe")


@dataclass(frozen=True)
class LossConfig:
    """Objective family and its parameters; margins only matter for the hinge loss."""

    kind: str = "oe"
    balance: float = losses.DEFAULT_OE_LAMBDA
    m_in: float = losses.DEFAULT_M_IN_10CLASS
    m_out: float = losses.DEFAULT_M_OUT
    temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"loss kind must be one of {LOSS_KINDS}")
        if self.balance < 0:
            raise ConfigError("balance must be >= 0")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")


@dataclass(frozen=True)
class TrainConfig:
    """Fine-tuning hyperparameters; defaults follow the standard protocol."""

    epochs: int = 10
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 1e-4
    id_batch: int = 128
    outlier_batch: int = 128
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.lr < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.id_batch < 1 or self.outlier_batch < 1:
            raise ConfigError("batch sizes must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be >= 0")


@dataclass
class StepRecord:
    epoch: int
    step: int
    lr: float
    ce_loss: float
    oe_loss_orig: float | None
    oe_loss_extrap: float | None
    total_loss: float


@dataclass
class TrainHistory:
    records: list[StepRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", "step", "lr", "ce_loss", "oe_loss_orig",
                             "oe_loss_extrap", "total_loss"])
            for r in self.records:
                writer.writerow([
                    r.epoch, r.step, repr(r.lr), repr(r.ce_loss),
                    "" if r.oe_loss_orig is None else repr(r.oe_loss_orig),
                    "" if r.oe_loss_extrap is None else repr(r.oe_loss_extrap),
                    repr(r.total_loss),
                ])


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """0.5 * lr0 * (1 + cos(pi * step / total_steps))."""
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ConfigError("step must lie in [0, total_steps]")
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             velocity: dict[str, np.ndarray], lr: float, momentum: float,
             weight_decay: float):
    """One Nesterov update: g += wd*p; v' = m*v + g; p' = p - lr*(g + m*v')."""
    new_params = {}
    new_velocity = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ConfigError(f"gradient shape {g.shape} does not match parameter {name}")
        g = g + weight_decay * p
        v = momentum * velocity[name] + g
        new_params[name] = p - lr * (g + momentum * v)
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


def _build_loss_graph(dims, kind: str, lc: LossConfig, has_orig: bool, has_ext: bool):
    """Scalar training objective with inputs x / y / x_out / x_ext and shared parameters.

    ``y`` is the one-hot label batch, so one graph serves every step and row count.
    Returns (total, ce, outlier term, extrapolated term), None for an absent term,
    so every term's value comes out of the single training pass.
    """
    param_nodes = model_mod.make_param_nodes(dims)
    id_logits = model_mod.logits_graph(dims, "x", param_nodes)
    target = ad.inp("y")
    out_logits = model_mod.logits_graph(dims, "x_out", param_nodes) if has_orig else None
    ext_logits = model_mod.logits_graph(dims, "x_ext", param_nodes) if has_ext else None
    if kind in ("oe", "divoe"):
        return losses.divoe_loss_terms(id_logits, target, out_logits, ext_logits, lc.balance)
    ce = losses.ce_loss_expr(id_logits, target)
    if kind == "ce":
        return ce, ce, None, None
    hinge = losses.energy_bounded_loss_expr(id_logits, out_logits, lc.m_in, lc.m_out,
                                            lc.temperature)
    return ce + lc.balance * hinge, ce, hinge, None


def fine_tune(mlp: model_mod.MlpClassifier, id_train: data_mod.LabeledDataset,
              aux_outliers: np.ndarray | None, cfg: TrainConfig,
              extrapolation: ExtrapolationConfig, seed: int):
    """Run the full fine-tuning loop; returns (model', TrainHistory).

    ``extrapolation`` applies to the divoe loss only. Deterministic per
    ``seed``: batch shuffling, sub-batch selection and any extrapolation
    randomness come from per-component seed streams.
    A non-finite loss aborts with NumericError rather than being skipped.
    """
    kind = cfg.loss.kind
    aux = None if aux_outliers is None else np.asarray(aux_outliers, dtype=np.float64)
    if kind != "ce" and (aux is None or aux.shape[0] == 0):
        raise ConfigError(f"loss kind {kind!r} requires a non-empty auxiliary outlier pool")
    if mlp.n_features != id_train.x.shape[1]:
        raise ConfigError("model input width does not match the training data")

    params = dict(model_mod.param_bindings(mlp))
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    history = TrainHistory()
    if cfg.epochs == 0:
        return mlp, history

    n_batches = max(1, math.ceil(len(id_train) / cfg.id_batch))
    total_steps = cfg.epochs * n_batches
    shuffle_seed = derive_seed(seed, 0)
    select_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 1)))
    out_stream = None
    if kind != "ce":
        out_stream = _outlier_batches(aux, min(cfg.outlier_batch, aux.shape[0]),
                                      derive_seed(seed, 2))

    param_names = model_mod.param_names(mlp)
    graphs = {}  # (original outliers present, synthesized present) -> loss graph
    step = 0
    current = mlp
    for epoch in range(cfg.epochs):
        epoch_iter = data_mod.batches(id_train, cfg.id_batch,
                                      seed=derive_seed(shuffle_seed, epoch))
        for x_id, y_id in epoch_iter:
            out_batch = next(out_stream) if out_stream is not None else None
            extrap = None
            orig_part = out_batch
            if kind == "divoe":
                to_ext, orig_part = select_subbatch(out_batch, extrapolation.ratio, select_rng)
                if to_ext.shape[0]:
                    extrap = build_extrapolation_pool(current, to_ext, extrapolation)

            n_orig = 0 if orig_part is None else orig_part.shape[0]
            n_ext = 0 if extrap is None else extrap.synthesized.shape[0]
            key = (n_orig > 0, n_ext > 0)
            if key not in graphs:
                graphs[key] = _build_loss_graph(mlp.dims, kind, cfg.loss, *key)
            total_node, ce_node, out_node, ext_node = graphs[key]

            bindings = dict(params)
            bindings["x"] = x_id
            bindings["y"] = losses.onehot(y_id, mlp.n_classes)
            if n_orig:
                bindings["x_out"] = orig_part
            if n_ext:
                bindings["x_ext"] = extrap.synthesized
            try:
                aux_nodes = tuple(node for node in (ce_node, out_node, ext_node)
                                  if node is not None)
                total_value, grads, aux_vals = ad.value_and_grad(
                    total_node, bindings, param_names, aux=aux_nodes)
            except NumericError as exc:
                raise NumericError(
                    f"non-finite loss at epoch {epoch} step {step}: {exc}") from exc

            aux_list = list(aux_vals)
            ce_value = float(aux_list.pop(0))
            out_value = float(aux_list.pop(0)) if out_node is not None else None
            ext_value = float(aux_list.pop(0)) if ext_node is not None else None

            if n_ext:
                ok = ~extrap.aborted
                if ok.any() and (np.mean(extrap.final_values[ok])
                                 < np.mean(extrap.initial_values[ok]) - 1e-12):
                    raise NumericError(
                        f"best-iterate extrapolation lost ground on the uniform loss "
                        f"at epoch {epoch} step {step}")

            lr = cosine_lr(step, total_steps, cfg.lr)
            params, velocity = sgd_step(params, grads, velocity, lr, cfg.momentum,
                                        cfg.weight_decay)
            current = model_mod.MlpClassifier(
                current.dims,
                tuple(params[f"W{i}"] for i in range(len(current.weights))),
                tuple(params[f"b{i}"] for i in range(len(current.biases))),
            )
            history.records.append(StepRecord(
                epoch=epoch, step=step, lr=lr, ce_loss=ce_value,
                oe_loss_orig=out_value, oe_loss_extrap=ext_value,
                total_loss=float(total_value)))
            step += 1
    return current, history

