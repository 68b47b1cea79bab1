"""Post-hoc OOD score functions and the per-sample score export.

Every score follows one orientation: higher means more in-distribution,
so a single threshold rule ``ID iff score >= lambda`` serves all of them.
The energy score is therefore T*logsumexp(logits/T); the hinge-loss sign
convention lives in the losses module only.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from . import numerics
from .data import DOMAIN
from .errors import ConfigError, ShapeError

ODIN_DEFAULT_TEMPERATURE = 1.0e4
ODIN_DEFAULT_EPSILON = 1.4e-3
ODIN_BLOCK_ROWS = 4096  # rows per ODIN input-gradient pass


@dataclass(frozen=True)
class ScoreSpec:
    """Which score to compute and its parameters.

    kind: one of msp, energy, odin, ash_energy.
    temperature applies to energy and odin; left unset it resolves to
    ODIN_DEFAULT_TEMPERATURE for odin and 1 otherwise. odin_epsilon is the
    input perturbation size; percentile drives the activation-shaping cut.
    """

    kind: str
    temperature: float | None = None
    odin_epsilon: float = ODIN_DEFAULT_EPSILON
    percentile: float = 95.0

    KINDS = ("msp", "energy", "odin", "ash_energy")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown score kind {self.kind!r}; expected one of {self.KINDS}")
        if self.temperature is None:
            object.__setattr__(self, "temperature",
                               ODIN_DEFAULT_TEMPERATURE if self.kind == "odin" else 1.0)
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.odin_epsilon < 0:
            raise ConfigError("odin_epsilon must be >= 0")
        if not 0.0 <= self.percentile < 100.0:
            raise ConfigError("percentile must lie in [0, 100)")

    @staticmethod
    def odin_default() -> "ScoreSpec":
        return ScoreSpec(kind="odin")


def msp_score(logits) -> np.ndarray:
    """Maximum softmax probability per row, in (1/C, 1]."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ShapeError("msp needs 2-D logits with at least 2 classes")
    return np.max(numerics.softmax(logits, axis=-1), axis=1)


def energy_score(logits, temperature: float = 1.0) -> np.ndarray:
    """T*logsumexp(logits/T) per row; monotone in every logit."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError("energy needs 2-D logits")
    return temperature * numerics.logsumexp(logits / temperature, axis=1)


def odin_graph(dims, top, temperature: float) -> ad.Expression:
    """Sum over the rows bound to "x" of log S_top(x; T), at each row's class in ``top``."""
    return ad.reduce_sum(ad.mul(ad.log_softmax(model_mod.logits_graph(dims) / temperature),
                                ad.const(np.eye(dims[-1])[top])))


def odin_score(mlp: model_mod.MlpClassifier, batch, temperature: float = ODIN_DEFAULT_TEMPERATURE,
               eps: float = ODIN_DEFAULT_EPSILON, top=None) -> np.ndarray:
    """Confidence after a one-step sign-gradient push toward the predicted class.

    The push follows the gradient of log S_top(x; T), the temperature-scaled
    softmax at the predicted class ``top`` (the argmax of the logits when not
    given). The perturbed input is clipped to data.DOMAIN; with eps=0 and T=1
    this is exactly ``msp_score`` of the raw logits.

    The input gradient is taken in blocks of ODIN_BLOCK_ROWS rows, keeping
    only each block's sign, so its memory does not grow with the batch. The
    perturbed batch is forwarded whole: OpenBLAS rounding depends on the row
    count, so a blocked forward would change the low bits of the logits,
    while the signs of a blocked gradient match a whole-batch pass.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if top is None:
        top = np.argmax(model_mod.forward(mlp, batch), axis=1)
    bindings = model_mod.param_bindings(mlp)
    step = np.empty_like(batch)
    for start in range(0, batch.shape[0], ODIN_BLOCK_ROWS):
        rows = slice(start, start + ODIN_BLOCK_ROWS)
        bindings["x"] = batch[rows]
        grads = ad.gradient(odin_graph(mlp.dims, top[rows], temperature), bindings, ["x"])
        step[rows] = np.sign(grads["x"])
    perturbed = np.clip(batch + eps * step, *DOMAIN)
    return np.max(numerics.softmax(model_mod.forward(mlp, perturbed) / temperature, axis=-1), axis=1)


def ash_s(activations, percentile: float) -> np.ndarray:
    """Zero activations below the per-row percentile, rescale survivors to keep the row sum.

    Rows whose survivor sum is not positive are returned unchanged with a
    warning (nothing sensible to rescale).
    """
    acts = np.asarray(activations, dtype=np.float64)
    if acts.ndim != 2:
        raise ShapeError("activations must be 2-D")
    if percentile == 0.0:
        return acts.copy()
    out = acts.copy()
    cut = np.percentile(acts, percentile, axis=1, keepdims=True)
    kept = acts >= cut
    shaped = np.where(kept, acts, 0.0)
    before = acts.sum(axis=1)
    after = shaped.sum(axis=1)
    ok = (before > 0) & (after > 0)
    if not np.all(ok):
        warnings.warn(f"{int(np.sum(~ok))} rows left unshaped (non-positive sum)", stacklevel=2)
    scale = np.where(ok, before / np.where(after == 0, 1.0, after), 1.0)
    out[ok] = shaped[ok] * scale[ok, None]
    return out


def compute_scores(mlp: model_mod.MlpClassifier, batch, spec: ScoreSpec,
                   features=None) -> np.ndarray:
    """Evaluate the configured score for a batch of raw inputs.

    ``features`` are the batch's ``model.penultimate_features``; a caller
    that scores one batch several ways computes them once and passes them
    in. Left unset, they are computed here. Every kind reads the logits
    ``model.head`` makes from them, which equal ``model.forward`` bit for bit.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if features is None:
        features = model_mod.penultimate_features(mlp, batch)
    if spec.kind == "ash_energy":
        if len(mlp.dims) < 3:
            raise ShapeError("ash_energy needs a model with a hidden layer")
        return energy_score(model_mod.head(mlp, ash_s(features, spec.percentile)),
                            spec.temperature)
    logits = model_mod.head(mlp, features)
    if spec.kind == "msp":
        return msp_score(logits)
    if spec.kind == "energy":
        return energy_score(logits, spec.temperature)
    # odin, the last of ScoreSpec.KINDS
    return odin_score(mlp, batch, spec.temperature, spec.odin_epsilon, np.argmax(logits, axis=1))


def write_score_csv(path, blocks) -> None:
    """Score export: one row (sample_id, set_name, score_kind, score) per score.

    ``blocks`` yields (set_name, score_kind, scores); sample ids count from 0
    within each block, which is formatted as one string.
    """
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id,set_name,score_kind,score\n")
        for set_name, kind, scores in blocks:
            prefix = io.StringIO()
            csv.writer(prefix, lineterminator="").writerow([set_name, kind])
            tag = prefix.getvalue()
            fh.write("".join(f"{i},{tag},{s}\n" for i, s in
                             enumerate(map(repr, np.asarray(scores, dtype=np.float64).tolist()))))
