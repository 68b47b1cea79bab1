"""Post-hoc OOD score functions and the per-sample score export.

Every score follows one orientation: higher means more in-distribution,
so a single threshold rule ``ID iff score >= lambda`` serves all of them.
The energy score is therefore logsumexp(logits); the hinge-loss sign
convention lives in the losses module only. ODIN's push follows the sign of
the ``autodiff.input_gradient`` of the ``autodiff.input_objective`` of
``odin_rows``: the mean over the batch of each row's log-softmax at its
predicted class. ash_energy is the energy of the head on ``ash_s``'s shaped
copy of the penultimate features (ASH-S, Djurisic et al., ICLR 2023); no
score writes its inputs.
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
from .errors import NumericError

ODIN_TEMPERATURE = 1.0e4
ODIN_EPSILON = 1.4e-3  # ODIN's input perturbation size, in normalized input units
ASH_PERCENTILE = 95.0  # ash_energy zeroes each row's activations below this percentile


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
    One input-gradient pass and one forward run over the rows given;
    ``score_set`` gives one ``model.CHUNK_ROWS`` slice at a time.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if top is None:
        top = np.argmax(model_mod.forward(mlp, batch), axis=1)
    objective = ad.input_objective(mlp.dims, odin_rows, (
        losses.onehot(top, mlp.n_classes), 1.0 / ODIN_TEMPERATURE))
    step = np.sign(ad.input_gradient(mlp, batch, objective)[1])
    logits = model_mod.forward(mlp, np.clip(batch + ODIN_EPSILON * step, *DOMAIN))
    return msp_score(logits / ODIN_TEMPERATURE)


def ash_s(acts: np.ndarray) -> tuple[np.ndarray, int]:
    """ASH-S on the float64 rows of ``acts``: a copy with activations below the
    per-row ASH_PERCENTILE zeroed and survivors rescaled to keep the row sum,
    and the count of rows left unshaped. ``acts`` is not written.

    Rows whose survivor sum is not positive come back unchanged (nothing
    sensible to rescale); ``score_set`` sums their count over a set for its
    one warning. Every step is per row; its temporaries are a few copies of
    ``acts``, which ``score_set`` bounds to one ``model.CHUNK_ROWS`` slice.
    """
    cut = np.percentile(acts, ASH_PERCENTILE, axis=1, keepdims=True)
    shaped = np.where(acts >= cut, acts, 0.0)
    before = acts.sum(axis=1)
    after = shaped.sum(axis=1)
    ok = (before > 0) & (after > 0)
    scale = np.where(ok, before / np.where(after == 0, 1.0, after), 1.0)
    shaped *= scale[:, None]
    np.copyto(shaped, acts, where=~ok[:, None])
    return shaped, int(np.sum(~ok))


def compute_scores(mlp: model_mod.MlpClassifier, batch, spec: ScoreSpec,
                   features=None, top=None, unshaped=None) -> np.ndarray:
    """Evaluate the configured score for a batch of raw inputs, in one pass
    over its rows.

    ``features`` are the batch's ``model.penultimate_features`` and ``top``
    the argmax of their logits, computed here when not given (``score_set``
    gives both); ODIN reads only ``top``. Without a hidden layer the features
    are the batch itself. No input is written. ash_energy appends the count of
    rows ``ash_s`` left unshaped to the list ``unshaped`` when one is given
    (``score_set`` does).
    """
    batch = np.asarray(batch, dtype=np.float64)
    if spec.kind == "odin":
        return odin_score(mlp, batch, top)
    if features is None:
        features = model_mod.penultimate_features(mlp, batch)
    if spec.kind == "ash_energy":
        shaped, count = ash_s(features)
        if unshaped is not None:
            unshaped.append(count)
        return energy_score(model_mod.head(mlp, shaped))
    logits = model_mod.head(mlp, features)
    if spec.kind == "msp":
        return msp_score(logits)
    # energy, the one kind left
    return energy_score(logits)


def score_set(mlp: model_mod.MlpClassifier, x, specs) -> tuple[list[np.ndarray], np.ndarray]:
    """Score every row of ``x`` by each of ``specs``: one score array per spec,
    in spec order, and the set's logits.

    This is the one scoring code that cuts rows: it runs every pass per
    ``model.row_slices`` slice of CHUNK_ROWS. Each slice's features and logits
    are computed once, then ``compute_scores`` runs the kinds in spec order,
    so scoring holds one slice's working set; each slice's scores and logits
    are written into arrays allocated once per set. A row's scores and logits
    equal those of its slice scored alone, the contract ``model.row_slices``
    states. Logits that overflow raise no numpy warning; the first non-finite
    score is a NumericError naming its kind. The rows ash_energy leaves
    unshaped are summed over the set's slices, and a set with any gets one
    warning giving their total.
    """
    n = x.shape[0]
    scores = [np.empty(n) for _ in specs]
    logits = np.empty((n, mlp.n_classes))
    unshaped = []
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in model_mod.row_slices(n, model_mod.CHUNK_ROWS):
            batch = x[rows]
            features = model_mod.penultimate_features(mlp, batch)
            logits[rows] = model_mod.head(mlp, features)
            top = np.argmax(logits[rows], axis=1)
            for spec, out in zip(specs, scores):
                batch_scores = compute_scores(mlp, batch, spec, features=features, top=top,
                                              unshaped=unshaped)
                if not np.isfinite(batch_scores).all():
                    raise NumericError(f"the model's {spec.kind} scores are not finite")
                out[rows] = batch_scores
    if total := sum(unshaped):
        warnings.warn(f"{total} rows left unshaped (non-positive sum)", stacklevel=2)
    return scores, logits


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
