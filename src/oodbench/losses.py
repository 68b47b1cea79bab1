"""Training objectives: cross-entropy, the uniform-distribution outlier loss
and the energy-bounded hinge loss.

Each loss is a kernel, one closed-form forward and backward on the logits of
one batch, and a builder (``*_expr``) that makes it an ``autodiff.Term``. The
trainer differentiates their sum and the extrapolation engine ascends the
per-row uniform loss, so every objective has one definition. The trainer
adds one outlier term per outlier batch a step binds
(``trainer._build_loss_graph``; energy_bounded adds its ID hinge once), so
DivOE's hybrid objective is plain OE with a second, synthesized batch.

Each kernel keeps the op order of the general autodiff engine it replaced
(``-1.0 * x + 0.0`` included), so training outputs stay bitwise equal.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import numerics
from .model import Logits


def onehot(labels, n_classes: int) -> np.ndarray:
    """One-hot rows for labels in [0, n_classes), a range the CLI checks."""
    return np.eye(n_classes, dtype=np.float64)[np.asarray(labels).astype(np.intp)]


class CeKernel:
    """-mean(sum(log_softmax(z) * y, axis=1)) for the one-hot target y, the payload."""

    @staticmethod
    def forward(y, z):
        log_p = numerics.log_softmax(z, axis=-1)
        mean = np.add.reduce(np.add.reduce(log_p * y, axis=1), axis=None) / z.shape[0]
        return -1.0 * mean + 0.0, log_p

    @staticmethod
    def backward(y, grad, z, log_p):
        dz = ((grad * -1.0) / log_p.shape[0]) * y
        return dz - np.exp(log_p) * np.sum(dz, axis=-1, keepdims=True)


def ce_loss_expr(logits: Logits, target) -> ad.Term:
    """Mean over the batch of -log softmax at the true class; ``target`` is the
    one-hot label matrix, or the name of the binding that holds it."""
    return ad.Term(CeKernel, logits, target)


class OeRowsKernel:
    """logsumexp(z, axis=1) - mean(z, axis=1), one value per row of z."""

    @staticmethod
    def forward(payload, z):
        lse = numerics.logsumexp(z, axis=1)
        return lse + (-1.0 * (np.add.reduce(z, axis=1) / z.shape[1]) + 0.0), lse

    @staticmethod
    def backward(payload, grad, z, lse):
        return ((grad * -1.0) / z.shape[1])[:, None] + grad[:, None] * np.exp(z - lse[:, None])


def oe_uniform_loss_expr(logits: Logits, reduce: str | None = "mean") -> ad.Term:
    """Uniform-distribution loss logsumexp(row) - mean(row): its mean over the
    rows, their sum, or (``reduce=None``) one value per row."""
    return ad.Term(OeRowsKernel, logits, reduce=reduce)


def oe_total_loss_expr(id_logits: Logits, labels, n_classes: int,
                       out_logits: Logits, lam: float) -> ad.Objective:
    return ad.Objective(ce_loss_expr(id_logits, onehot(labels, n_classes)), float(lam),
                        (oe_uniform_loss_expr(out_logits),))


class EnergyHingeKernel:
    """mean(relu(sign * e + shift) ** 2) with the energy e = -logsumexp(z, axis=1)
    per row (temperature 1), for the payload (sign, shift)."""

    @staticmethod
    def forward(payload, z):
        sign, shift = payload
        lse = numerics.logsumexp(z, axis=1)
        r = np.maximum(sign * (-1.0 * lse + 0.0) + shift, 0.0)
        return np.add.reduce(r * r, axis=None) / r.size, (lse, r)

    @staticmethod
    def backward(payload, grad, z, saved):
        lse, r = saved
        g = (grad / r.size) * 2.0 * r * (r > 0.0) * payload[0] * -1.0
        return g[:, None] * np.exp(z - lse[:, None])


def energy_id_hinge_expr(id_logits: Logits, m_in: float) -> ad.Term:
    """Squared hinge pushing ID energy below m_in, with the energy
    -logsumexp(logits) per row (temperature 1), the margins' sign."""
    return ad.Term(EnergyHingeKernel, id_logits, (1.0, -float(m_in)))


def energy_out_hinge_expr(out_logits: Logits, m_out: float) -> ad.Term:
    """Squared hinge pushing outlier energy above m_out, one per outlier batch."""
    return ad.Term(EnergyHingeKernel, out_logits, (-1.0, float(m_out)))


DEFAULT_OE_LAMBDA = 0.5
DEFAULT_M_IN_10CLASS = -23.0
DEFAULT_M_OUT = -5.0
