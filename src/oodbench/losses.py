"""Training objectives: cross-entropy, the uniform-distribution outlier loss
and the energy-bounded hinge loss.

Each loss is a per-row function ``f(payload, z) -> (values, gradient)`` on
the (m, C) logits z of one batch: one value per row and, in closed form,
each value's gradient with respect to its own row. A builder (``*_expr``)
makes it an ``autodiff.Term``, which reduces the rows by their mean or sum.
The trainer differentiates the sum of the terms and the extrapolation engine
ascends the per-row uniform loss, so every objective has one definition. The
trainer adds one outlier term per outlier batch a step binds
(``trainer._build_loss_graph``; energy_bounded adds its ID hinge once), so
DivOE's hybrid objective is plain OE with a second, synthesized batch.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import numerics
from .model import Logits


def onehot(labels, n_classes: int) -> np.ndarray:
    """One-hot rows for labels in [0, n_classes), a range the CLI checks."""
    return np.eye(n_classes, dtype=np.float64)[np.asarray(labels).astype(np.intp)]


def ce_rows(y, z):
    """-log softmax(z) at the one-hot target y per row; gradient softmax(z) - y."""
    log_p = numerics.log_softmax(z, axis=-1)
    return np.add.reduce(-log_p * y, axis=1), np.exp(log_p) - y


def ce_loss_expr(logits: Logits, target) -> ad.Term:
    """Mean over the batch of -log softmax at the true class; ``target`` is the
    one-hot label matrix, or the name of the binding that holds it."""
    return ad.Term(ce_rows, logits, target)


def oe_rows(payload, z):
    """logsumexp(z) - mean(z) per row, the cross-entropy to the uniform
    distribution; gradient softmax(z) - 1/C."""
    lse = numerics.logsumexp(z, axis=1)
    c = z.shape[1]
    return lse - np.add.reduce(z, axis=1) / c, np.exp(z - lse[:, None]) - 1.0 / c


def oe_uniform_loss_expr(logits: Logits, reduce: str = "mean") -> ad.Term:
    """Uniform-distribution loss logsumexp(row) - mean(row): the mean or the sum
    over the rows."""
    return ad.Term(oe_rows, logits, reduce=reduce)


def oe_total_loss_expr(id_logits: Logits, labels, n_classes: int,
                       out_logits: Logits, lam: float) -> ad.Objective:
    return ad.Objective(ce_loss_expr(id_logits, onehot(labels, n_classes)), float(lam),
                        (oe_uniform_loss_expr(out_logits),))


def energy_hinge_rows(payload, z):
    """relu(sign * e + shift) ** 2 per row, with the energy e = -logsumexp(z)
    (temperature 1), for the payload (sign, shift); with r = relu(...), the
    gradient is -2 * sign * r * softmax(z)."""
    sign, shift = payload
    lse = numerics.logsumexp(z, axis=1)
    r = np.maximum(sign * -lse + shift, 0.0)
    return r * r, (-2.0 * sign * r)[:, None] * np.exp(z - lse[:, None])


def energy_id_hinge_expr(id_logits: Logits, m_in: float) -> ad.Term:
    """Mean squared hinge pushing ID energy below m_in, with the energy
    -logsumexp(logits) per row (temperature 1), the margins' sign."""
    return ad.Term(energy_hinge_rows, id_logits, (1.0, -float(m_in)))


def energy_out_hinge_expr(out_logits: Logits, m_out: float) -> ad.Term:
    """Mean squared hinge pushing outlier energy above m_out, one per outlier batch."""
    return ad.Term(energy_hinge_rows, out_logits, (-1.0, float(m_out)))


DEFAULT_OE_LAMBDA = 0.5
DEFAULT_M_IN_10CLASS = -23.0
DEFAULT_M_OUT = -5.0
