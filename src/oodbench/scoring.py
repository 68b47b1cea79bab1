"""Post-hoc OOD score functions and the per-sample score export.

Every score follows one orientation: higher means more in-distribution,
so a single threshold rule ``ID iff score >= lambda`` serves all of them.
The energy score is therefore logsumexp(logits); the hinge-loss sign
convention lives in the losses module only. ODIN's push follows the sign of
the ``autodiff.input_gradient`` of the ``autodiff.input_objective`` of
``odin_rows``: the mean over the batch of each row's log-softmax at its
predicted class.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import losses
from . import model as model_mod
from . import numerics
from .config import ScoreSpec
from .data import DOMAIN

ODIN_TEMPERATURE = 1.0e4
ODIN_EPSILON = 1.4e-3  # ODIN's input perturbation size, in normalized input units
ASH_PERCENTILE = 95.0  # ash_energy zeroes each row's activations below this percentile
BLOCK_ROWS = 4096  # rows per ODIN input-gradient pass and per ASH shaping block


def msp_score(logits) -> np.ndarray:
    """Maximum softmax probability per row of (m, C) logits, in [1/C, 1]."""
    return np.max(numerics.softmax(logits, axis=-1), axis=1)


def energy_score(logits) -> np.ndarray:
    """logsumexp(logits) per row, the energy score at temperature 1; monotone in every logit."""
    return numerics.logsumexp(logits, axis=1)


def odin_rows(payload, z):
    """log softmax(z / T) at the one-hot target per row, for the payload
    (onehot, 1 / T); gradient (onehot - softmax(z / T)) / T."""
    onehot, inv_t = payload
    log_p = numerics.log_softmax(inv_t * z, axis=-1)
    return np.add.reduce(log_p * onehot, axis=-1), (onehot - np.exp(log_p)) * inv_t


def odin_score(mlp: model_mod.MlpClassifier, batch, top=None) -> np.ndarray:
    """Confidence after a one-step sign-gradient push toward the predicted class.

    The push of size ODIN_EPSILON follows the gradient of log S_top(x; T), the
    softmax at T = ODIN_TEMPERATURE at the predicted class ``top`` (the argmax
    of the logits when not given). The perturbed input is clipped to
    data.DOMAIN; at an epsilon of 0 and T=1 this is exactly ``msp_score``.

    The input gradient is taken in blocks of BLOCK_ROWS rows, keeping
    only each block's sign, so its memory does not grow with the batch; the
    signs of a blocked gradient match a whole-batch pass. The perturbed batch
    is forwarded whole, because the output layer's rounding depends on the
    row count. Hidden features computed in row blocks equal the whole-batch
    ones bit for bit, but the output layer's product (OpenBLAS, a 2-64-64-4
    model) in blocks below about 3,900 rows changes the low bits of the logits.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if top is None:
        top = np.argmax(model_mod.forward(mlp, batch), axis=1)
    step = np.empty_like(batch)
    for start in range(0, batch.shape[0], BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        objective = ad.input_objective(mlp.dims, odin_rows, (
            losses.onehot(top[rows], mlp.n_classes), 1.0 / ODIN_TEMPERATURE))
        step[rows] = np.sign(ad.input_gradient(mlp, batch[rows], objective)[1])
    logits = model_mod.forward(mlp, np.clip(batch + ODIN_EPSILON * step, *DOMAIN))
    return msp_score(logits / ODIN_TEMPERATURE)


def ash_s(acts: np.ndarray) -> np.ndarray:
    """Shape the float64 rows of ``acts`` in place and return it: zero activations
    below the per-row ASH_PERCENTILE, rescale survivors to keep the row sum.

    Rows whose survivor sum is not positive are left unchanged, and one
    warning gives their count (nothing sensible to rescale). Every step is
    per row, so rows are shaped in blocks of BLOCK_ROWS: beside its argument,
    ash holds one block's temporaries and no copy of the whole matrix. The
    result is bitwise that of a whole-matrix pass.
    """
    unshaped = 0
    for start in range(0, acts.shape[0], BLOCK_ROWS):
        block = acts[start:start + BLOCK_ROWS]
        cut = np.percentile(block, ASH_PERCENTILE, axis=1, keepdims=True)
        shaped = np.where(block >= cut, block, 0.0)
        before = block.sum(axis=1)
        after = shaped.sum(axis=1)
        ok = (before > 0) & (after > 0)
        unshaped += int(np.sum(~ok))
        scale = np.where(ok, before / np.where(after == 0, 1.0, after), 1.0)
        shaped *= scale[:, None]
        np.copyto(block, shaped, where=ok[:, None])
    if unshaped:
        warnings.warn(f"{unshaped} rows left unshaped (non-positive sum)", stacklevel=2)
    return acts


def compute_scores(mlp: model_mod.MlpClassifier, batch, spec: ScoreSpec,
                   features=None, top=None) -> np.ndarray:
    """Evaluate the configured score for a batch of raw inputs.

    ``features`` are the batch's ``model.penultimate_features``; a caller
    that scores one batch several ways computes them once and passes them
    in. Left unset, they are computed here. msp and energy read the logits
    ``model.head`` makes from them, which equal ``model.forward`` bit for
    bit. ash_energy shapes the features in place (``ash_s``) and reads the
    logits of the shaped rows, so features handed to it are consumed: a
    caller scores ash_energy after every other kind that reads them. ODIN
    reads no features, only ``top``, the argmax of those logits: a caller
    that holds the logits passes it, and ``odin_score`` forwards the batch
    for it otherwise. ash_energy needs a hidden layer to shape, which the
    config and the CLI check before any scoring; without one the features
    are the batch itself, and a copy of it is shaped.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if spec.kind == "odin":
        return odin_score(mlp, batch, top)
    if features is None:
        features = model_mod.penultimate_features(mlp, batch)
    if spec.kind == "ash_energy":
        # The caller's batch itself (a model with no hidden layer) is never shaped.
        shaped = ash_s(features.copy() if features is batch else features)
        return energy_score(model_mod.head(mlp, shaped))
    logits = model_mod.head(mlp, features)
    if spec.kind == "msp":
        return msp_score(logits)
    # energy, the one kind left
    return energy_score(logits)


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
            values = np.asarray(scores, dtype=np.float64).tolist()
            if values:
                fh.write("\n".join(map(",".join, zip(map(str, range(len(values))),
                                                      itertools.repeat(tag),
                                                      map(repr, values)))) + "\n")
