"""Training objectives: cross-entropy, the uniform-distribution outlier loss
and the energy-bounded hinge loss.

Each loss is an expression builder (``*_expr``): the trainer differentiates
it and the extrapolation engine ascends its per-row form, so every
objective has one graph. The trainer adds one outlier term per outlier batch
a step binds (``trainer._build_loss_graph``; energy_bounded adds its ID hinge
once), so DivOE's hybrid objective is plain OE with a second, synthesized batch.

Cross-entropy, the per-row uniform loss and the energy hinge are each one
autodiff kernel node. Each keeps the op order of the primitive graph it
replaced (``-1.0 * x + 0.0`` included), so training outputs stay bitwise equal.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import numerics


def onehot(labels, n_classes: int) -> np.ndarray:
    """One-hot rows for labels in [0, n_classes), a range the CLI checks."""
    return np.eye(n_classes, dtype=np.float64)[np.asarray(labels).astype(np.intp)]


class CeKernel:
    """-mean(sum(log_softmax(z) * y, axis=1)) over operands (z, y)."""

    @staticmethod
    def forward(payload, z, y):
        log_p = numerics.log_softmax(z, axis=-1)
        mean = np.add.reduce(np.add.reduce(log_p * y, axis=1), axis=None) / z.shape[0]
        return -1.0 * mean + 0.0, log_p

    @staticmethod
    def backward(payload, grad, operands, log_p, needs):
        g = (grad * -1.0) / log_p.shape[0]
        dz = g * operands[1]
        return (dz - np.exp(log_p) * np.sum(dz, axis=-1, keepdims=True) if needs[0] else None,
                g * log_p if needs[1] else None)


def ce_loss_expr(logits: ad.Expression, target: ad.Expression) -> ad.Expression:
    """Mean over the batch of -log softmax at the true class; ``target`` is one-hot."""
    return ad.kernel(CeKernel, (logits, target))


class OeRowsKernel:
    """logsumexp(z, axis=1) - mean(z, axis=1), one value per row of z."""

    @staticmethod
    def forward(payload, z):
        lse = numerics.logsumexp(z, axis=1)
        return lse + (-1.0 * (np.add.reduce(z, axis=1) / z.shape[1]) + 0.0), lse

    @staticmethod
    def backward(payload, grad, operands, lse, needs):
        z = operands[0]
        return (((grad * -1.0) / z.shape[1])[:, None] + grad[:, None] * np.exp(z - lse[:, None]),)


def oe_rowwise_expr(logits: ad.Expression) -> ad.Expression:
    """Per-row uniform-distribution loss: logsumexp(row) - mean(row), shape (m,)."""
    return ad.kernel(OeRowsKernel, (logits,))


def oe_uniform_loss_expr(logits: ad.Expression) -> ad.Expression:
    return ad.reduce_mean(oe_rowwise_expr(logits))


def oe_total_loss_expr(id_logits: ad.Expression, labels, n_classes: int,
                       out_logits: ad.Expression, lam: float) -> ad.Expression:
    return (ce_loss_expr(id_logits, ad.const(onehot(labels, n_classes)))
            + float(lam) * oe_uniform_loss_expr(out_logits))


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
    def backward(payload, grad, operands, saved, needs):
        (z,), (lse, r) = operands, saved
        g = (grad / r.size) * 2.0 * r * (r > 0.0) * payload[0] * -1.0
        return (g[:, None] * np.exp(z - lse[:, None]),)


def energy_id_hinge_expr(id_logits: ad.Expression, m_in: float) -> ad.Expression:
    """Squared hinge pushing ID energy below m_in, with the energy
    -logsumexp(logits) per row (temperature 1), the margins' sign."""
    return ad.kernel(EnergyHingeKernel, (id_logits,), (1.0, -float(m_in)))


def energy_out_hinge_expr(out_logits: ad.Expression, m_out: float) -> ad.Expression:
    """Squared hinge pushing outlier energy above m_out, one per outlier batch."""
    return ad.kernel(EnergyHingeKernel, (out_logits,), (-1.0, float(m_out)))


DEFAULT_OE_LAMBDA = 0.5
DEFAULT_M_IN_10CLASS = -23.0
DEFAULT_M_OUT = -5.0
