"""The loss family: cross-entropy, the uniform-distribution outlier loss and
the energy-bounded hinge loss, and the one objective every kind trains on.

Each loss is a per-row function ``f(payload, z) -> (values, gradient)`` on
the (..., m, C) logits z of one batch: one value per row and, in closed form,
each value's gradient with respect to its own row. Each reduces the class
axis, the last one, so a stack of batches (``autodiff``'s stack axis) gets
the values each batch would get alone. ``objective`` makes them
``autodiff.Term``s: ce on the ID logits plus ``LossConfig.balance`` times at
most one outlier term, the mean over the one outlier batch (energy_bounded
adds its ID hinge first). The trainer differentiates that sum and the
extrapolation engine ascends the per-row uniform loss, so every loss has one
definition. The kinds table ``LOSS_KINDS`` alone says what each kind trains
on; it and ``LossConfig`` live in ``config``, which every command loads, and
are imported here from there. DivOE's synthesized rows are the head of the
outlier batch (``trainer.fine_tune``), so its objective is oe's.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import numerics
from .config import LOSS_KINDS, LossConfig
from .model import Logits


def onehot(labels, n_classes: int) -> np.ndarray:
    """One-hot rows for labels in [0, n_classes), a range the CLI checks."""
    return np.eye(n_classes, dtype=np.float64)[np.asarray(labels).astype(np.intp)]


def ce_rows(y, z):
    """-log softmax(z) at the one-hot target y per row; gradient softmax(z) - y."""
    log_p = numerics.log_softmax(z, axis=-1)
    return np.add.reduce(-log_p * y, axis=-1), np.exp(log_p) - y


def oe_rows(payload, z):
    """logsumexp(z) - mean(z) per row, the cross-entropy to the uniform
    distribution; gradient softmax(z) - 1/C."""
    lse = numerics.logsumexp(z, axis=-1)
    c = z.shape[-1]
    return lse - np.add.reduce(z, axis=-1) / c, np.exp(z - lse[..., None]) - 1.0 / c


def energy_hinge_rows(payload, z):
    """relu(sign * e + shift) ** 2 per row, with the energy e = -logsumexp(z)
    (temperature 1), for the payload (sign, shift); with r = relu(...), the
    gradient is -2 * sign * r * softmax(z)."""
    sign, shift = payload
    lse = numerics.logsumexp(z, axis=-1)
    r = np.maximum(sign * -lse + shift, 0.0)
    return r * r, (-2.0 * sign * r)[..., None] * np.exp(z - lse[..., None])


def objective(lc: LossConfig, id_logits: Logits, target,
              outlier_logits: Logits | None) -> ad.Objective:
    """Mean ce of ``id_logits`` at ``target`` (one-hot labels or their binding's
    name) plus ``lc.balance`` times the group: for a hinge kind the ID hinge
    (energy below m_in) and the outlier hinge (energy above m_out), for the
    others the uniform loss, the outlier term a mean over ``outlier_logits``'
    batch, so every outlier row, synthesized or not, weighs the same. There
    is no outlier term without ``outlier_logits``."""
    hinge = LOSS_KINDS[lc.kind].hinge
    group = (ad.Term(energy_hinge_rows, id_logits, (1.0, -float(lc.m_in))),) if hinge else ()
    if outlier_logits is not None:
        group += (ad.Term(energy_hinge_rows, outlier_logits, (-1.0, float(lc.m_out))) if hinge
                  else ad.Term(oe_rows, outlier_logits),)
    return ad.Objective(ad.Term(ce_rows, id_logits, target), lc.balance, group)


def oe_total_loss_expr(id_logits: Logits, labels, n_classes: int,
                       out_logits: Logits, lam: float) -> ad.Objective:
    return objective(LossConfig("oe", lam), id_logits, onehot(labels, n_classes), out_logits)
