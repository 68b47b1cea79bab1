"""Training objectives: cross-entropy, the uniform-distribution outlier loss
and the energy-bounded hinge loss.

Each loss is an expression builder (``*_expr``): the trainer differentiates
it and the extrapolation engine ascends its per-row form, so every
objective has one graph. The trainer adds one outlier term per outlier batch
a step binds (``trainer._build_loss_graph``; energy_bounded adds its ID hinge
once), so DivOE's hybrid objective is plain OE with a second, synthesized batch.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def onehot(labels, n_classes: int) -> np.ndarray:
    """One-hot rows for labels in [0, n_classes), a range the CLI checks."""
    return np.eye(n_classes, dtype=np.float64)[np.asarray(labels).astype(np.intp)]


def ce_loss_expr(logits: ad.Expression, target: ad.Expression) -> ad.Expression:
    """Mean over the batch of -log softmax at the true class; ``target`` is one-hot."""
    picked = ad.reduce_sum(ad.mul(ad.log_softmax(logits), target), axis=1)
    return ad.affine(ad.reduce_mean(picked), -1.0)


def oe_rowwise_expr(logits: ad.Expression) -> ad.Expression:
    """Per-row uniform-distribution loss: logsumexp(row) - mean(row), shape (m,)."""
    return ad.logsumexp(logits, axis=1) - ad.reduce_mean(logits, axis=1)


def oe_uniform_loss_expr(logits: ad.Expression) -> ad.Expression:
    return ad.reduce_mean(oe_rowwise_expr(logits))


def oe_total_loss_expr(id_logits: ad.Expression, labels, n_classes: int,
                       out_logits: ad.Expression, lam: float) -> ad.Expression:
    return (ce_loss_expr(id_logits, ad.const(onehot(labels, n_classes)))
            + float(lam) * oe_uniform_loss_expr(out_logits))


def energy_id_hinge_expr(id_logits: ad.Expression, m_in: float) -> ad.Expression:
    """Squared hinge pushing ID energy below m_in, with the energy
    -logsumexp(logits) per row (temperature 1), the margins' sign."""
    e_id = -ad.logsumexp(id_logits, axis=1)
    return ad.reduce_mean(ad.square(ad.relu(e_id - float(m_in))))


def energy_out_hinge_expr(out_logits: ad.Expression, m_out: float) -> ad.Expression:
    """Squared hinge pushing outlier energy above m_out, one per outlier batch."""
    e_out = -ad.logsumexp(out_logits, axis=1)
    return ad.reduce_mean(ad.square(ad.relu(float(m_out) - e_out)))


DEFAULT_OE_LAMBDA = 0.5
DEFAULT_M_IN_10CLASS = -23.0
DEFAULT_M_OUT = -5.0
