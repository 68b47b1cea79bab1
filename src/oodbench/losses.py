"""Training objectives: cross-entropy, the uniform-distribution outlier loss,
the energy-bounded hinge loss, and the hybrid loss mixing original and
extrapolated outliers.

Each loss is an expression builder (``*_expr``): the trainer differentiates
it and the extrapolation engine ascends its per-row form, so every
objective has one graph. The outlier-exposure rule is written once, in
``divoe_loss_terms``: plain OE is its one-sided case, which makes the
ratio-zero reduction bit-exact by construction.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError


def onehot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ConfigError(f"label out of range [0, {n_classes})")
    return np.eye(n_classes, dtype=np.float64)[labels.astype(np.intp)]


def ce_loss_expr(logits: ad.Expression, target: ad.Expression) -> ad.Expression:
    """Mean over the batch of -log softmax at the true class; ``target`` is one-hot."""
    picked = ad.reduce_sum(ad.mul(ad.log_softmax(logits), target), axis=1)
    return ad.affine(ad.reduce_mean(picked), -1.0)


def oe_rowwise_expr(logits: ad.Expression) -> ad.Expression:
    """Per-row uniform-distribution loss: logsumexp(row) - mean(row), shape (m,)."""
    return ad.logsumexp(logits, axis=1) - ad.reduce_mean(logits, axis=1)


def oe_uniform_loss_expr(logits: ad.Expression) -> ad.Expression:
    return ad.reduce_mean(oe_rowwise_expr(logits))


def divoe_loss_terms(id_logits: ad.Expression, target: ad.Expression,
                     orig_out_logits: ad.Expression | None,
                     extrap_out_logits: ad.Expression | None, lam: float):
    """Hybrid objective ce + lam * (mean OE over originals + mean OE over synthesized).

    An empty side (None) is dropped; with no synthesized rows this is exactly
    the plain outlier-exposure graph. Returns (total, ce, oe_orig, oe_extrap),
    with None for a dropped side's term.
    """
    if orig_out_logits is None and extrap_out_logits is None:
        raise ConfigError("both outlier sides empty")
    ce = ce_loss_expr(id_logits, target)
    oe_orig = None if orig_out_logits is None else oe_uniform_loss_expr(orig_out_logits)
    oe_extrap = None if extrap_out_logits is None else oe_uniform_loss_expr(extrap_out_logits)
    if oe_extrap is None:
        outlier = oe_orig
    elif oe_orig is None:
        outlier = oe_extrap
    else:
        outlier = oe_orig + oe_extrap
    return ce + float(lam) * outlier, ce, oe_orig, oe_extrap


def oe_total_loss_expr(id_logits: ad.Expression, labels, n_classes: int,
                       out_logits: ad.Expression, lam: float) -> ad.Expression:
    return divoe_loss_terms(id_logits, ad.const(onehot(labels, n_classes)), out_logits, None,
                            lam)[0]


def energy_margin_expr(logits: ad.Expression, temperature: float) -> ad.Expression:
    """Per-row -T*logsumexp(logits/T): the sign convention the hinge margins expect."""
    t = float(temperature)
    if t <= 0:
        raise ConfigError("temperature must be positive")
    return ad.affine(ad.logsumexp(ad.affine(logits, 1.0 / t), axis=1), -t)


def energy_bounded_loss_expr(id_logits: ad.Expression, out_logits: ad.Expression,
                             m_in: float, m_out: float, temperature: float) -> ad.Expression:
    """Squared hinges pushing ID energy below m_in and outlier energy above m_out."""
    e_id = energy_margin_expr(id_logits, temperature)
    e_out = energy_margin_expr(out_logits, temperature)
    id_term = ad.reduce_mean(ad.square(ad.relu(e_id - float(m_in))))
    out_term = ad.reduce_mean(ad.square(ad.relu(float(m_out) - e_out)))
    return id_term + out_term


DEFAULT_OE_LAMBDA = 0.5
DEFAULT_M_IN_10CLASS = -23.0
DEFAULT_M_OUT = -5.0
