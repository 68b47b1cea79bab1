"""Training objectives: cross-entropy, the uniform-distribution outlier loss,
the energy-bounded hinge loss, and the hybrid loss mixing original and
extrapolated outliers.

Each loss exists as an expression builder (``*_expr``) used for gradients
and as a numeric wrapper evaluating the same graph on constants, so there
is exactly one numeric code path per objective. The outlier-exposure rule
is written once, in ``divoe_loss_terms``: plain OE is its one-sided case,
which makes the ratio-zero reduction bit-exact by construction.
"""

from __future__ import annotations

import math
import warnings

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


def ce_loss_expr(logits: ad.Expression, labels, n_classes: int) -> ad.Expression:
    """Mean over the batch of -log softmax at the true class."""
    picked = ad.reduce_sum(ad.mul(ad.log_softmax(logits), ad.const(onehot(labels, n_classes))), axis=1)
    return ad.affine(ad.reduce_mean(picked), -1.0)


def oe_rowwise_expr(logits: ad.Expression) -> ad.Expression:
    """Per-row uniform-distribution loss: logsumexp(row) - mean(row), shape (m,)."""
    return ad.logsumexp(logits, axis=1) - ad.reduce_mean(logits, axis=1)


def oe_uniform_loss_expr(logits: ad.Expression) -> ad.Expression:
    return ad.reduce_mean(oe_rowwise_expr(logits))


def divoe_loss_terms(id_logits: ad.Expression, labels, n_classes: int,
                     orig_out_logits: ad.Expression | None,
                     extrap_out_logits: ad.Expression | None, lam: float):
    """Hybrid objective ce + lam * (mean OE over originals + mean OE over synthesized).

    An empty side (None) is dropped; with no synthesized rows this is exactly
    the plain outlier-exposure graph. Returns (total, ce, oe_orig, oe_extrap),
    with None for a dropped side's term.
    """
    if orig_out_logits is None and extrap_out_logits is None:
        raise ConfigError("both outlier sides empty")
    ce = ce_loss_expr(id_logits, labels, n_classes)
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
    return divoe_loss_terms(id_logits, labels, n_classes, out_logits, None, lam)[0]


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


# -- numeric wrappers -----------------------------------------------------------


def _scalar(expr: ad.Expression) -> float:
    return float(ad.evaluate(expr, {}))


def _logits_const(logits) -> ad.Expression:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    return ad.const(logits)


def ce_loss(logits, labels) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape[0] != np.asarray(labels).shape[0]:
        raise ShapeError("logits and labels disagree on batch size")
    return _scalar(ce_loss_expr(_logits_const(logits), labels, logits.shape[1]))


def oe_uniform_loss(logits) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ShapeError("uniform-distribution loss needs at least 2 classes")
    return _scalar(oe_uniform_loss_expr(_logits_const(logits)))


def oe_total_loss(id_logits, labels, out_logits, lam: float) -> float:
    if lam < 0:
        raise ConfigError("balancing weight must be >= 0")
    id_logits = np.asarray(id_logits, dtype=np.float64)
    out_logits = np.asarray(out_logits, dtype=np.float64)
    if out_logits.shape[0] == 0:
        warnings.warn("empty outlier batch: total loss reduces to cross-entropy", stacklevel=2)
        return ce_loss(id_logits, labels)
    return _scalar(oe_total_loss_expr(_logits_const(id_logits), labels, id_logits.shape[1],
                                      _logits_const(out_logits), lam))


def energy_bounded_loss(id_logits, out_logits, m_in: float, m_out: float,
                        temperature: float = 1.0) -> float:
    return _scalar(energy_bounded_loss_expr(_logits_const(id_logits), _logits_const(out_logits),
                                            m_in, m_out, temperature))


def divoe_loss(id_logits, labels, orig_out_logits, extrap_out_logits,
               lam: float, ratio: float) -> float:
    """Numeric hybrid loss; row counts must be consistent with ``ratio``."""
    if lam < 0:
        raise ConfigError("balancing weight must be >= 0")
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError("ratio must lie in [0, 1]")
    orig = np.asarray(orig_out_logits, dtype=np.float64)
    extrap = np.asarray(extrap_out_logits, dtype=np.float64)
    n = orig.shape[0] + extrap.shape[0]
    if n == 0:
        raise ConfigError("both outlier sides empty")
    expected = math.ceil(ratio * n)
    if extrap.shape[0] != expected:
        raise ShapeError(
            f"extrapolated row count {extrap.shape[0]} inconsistent with ratio {ratio} "
            f"(expected ceil({ratio}*{n}) = {expected})")
    id_logits = np.asarray(id_logits, dtype=np.float64)
    terms = divoe_loss_terms(_logits_const(id_logits), labels, id_logits.shape[1],
                             _logits_const(orig) if orig.shape[0] else None,
                             _logits_const(extrap) if extrap.shape[0] else None,
                             lam)
    return _scalar(terms[0])


DEFAULT_OE_LAMBDA = 0.5
DEFAULT_M_IN_10CLASS = -23.0
DEFAULT_M_IN_100CLASS = -25.0
DEFAULT_M_OUT = -5.0
