"""Reverse-mode differentiation of a flat sum of loss terms over MLP logits.

Every objective the workbench differentiates is a head term plus ``scale``
times the sum of a group of terms. A ``Term`` applies a per-row loss
``f(payload, z) -> (values, gradient)`` to the (m, C) MLP logits z of one
named batch (``model.Logits``): one value per row and, in closed form, each
value's gradient with respect to its own row of z. A payload that is a
string names a binding, such as the one-hot labels ``y``. ``Term.reduced``,
the mean or the sum of the rows, is the one place a batch is reduced. Rows
do not interact, so a term's dL/dz is its row gradient times the weight
each row enters with: 1 or 1/m, times ``scale`` in the group.

``value_and_grad`` forwards each distinct batch once through
``model.mlp_forward``, adds the reduced values as
``head + scale * ((t1 + t2) + ...)``, sums each batch's dL/dz over its terms
in reverse order and runs ``model.mlp_backward`` per batch in reverse
first-use order, so the parameter gradients add up in one fixed order and
repeated runs are bit-identical. An objective is an immutable tuple and a
pass keeps its state local, so threads can share one. Every pass checks that
the bindings it reads, its value and the gradients it returns are finite,
and raises NumericError naming the one that is not.

The bindings ``evaluate`` reads may carry a leading stack axis of S slices:
batches (S, m, d), weights (S, fan_in, fan_out) and biases (S, 1, fan_out),
while unstacked ones broadcast. Every layer multiplies slice by slice and
every reduction runs along the last axis, so ``evaluate`` then returns the S
values that S separate passes would, bit for bit (``gradcheck`` relies on it).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from . import model, numerics
from .errors import NumericError


class Term(NamedTuple):
    """The per-row loss ``rows`` on the logits of one batch; its rows enter the
    objective through ``reduce``, their "mean" or their "sum"."""

    rows: Callable
    logits: model.Logits
    payload: object = None
    reduce: str = "mean"

    def reduced(self, values):
        """The term's value as the objective adds it, from its per-row values."""
        total = np.add.reduce(values, axis=-1)
        if self.reduce == "sum":
            return total
        if self.reduce == "mean":
            return total / values.shape[-1]
        raise KeyError(f"unknown reduction {self.reduce!r}")


class Objective(NamedTuple):
    """head + scale * ((group[0] + group[1]) + ...); the head alone if no group."""

    head: Term
    scale: float = 1.0
    group: tuple[Term, ...] = ()


def _forward(objective: Objective, bindings: Mapping[str, np.ndarray]):
    """One pass: (value, each batch's (handle, logits, layer inputs) in first-use
    order, the bindings read, each term's per-row values, each term's row gradients)."""
    bound: dict[str, np.ndarray] = {}

    def read(name):
        if name not in bound:
            v = numerics.as_tensor(bindings[name])
            if not np.isfinite(v).all():
                raise NumericError(f"binding for {name!r} contains non-finite values")
            bound[name] = v
        return bound[name]

    terms = (objective.head, *objective.group)
    logits: dict[str, tuple] = {}
    outputs, rowgrads = [], []
    # Non-finite intermediates are caught by the explicit checks, so numpy's
    # own overflow warnings are redundant noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for term in terms:
            handle = term.logits
            if handle.batch not in logits:
                if handle.batch in handle.params:
                    raise ValueError(f"duplicate input name {handle.batch!r}")
                x = read(handle.batch)
                z, acts = model.mlp_forward(x, [read(p) for p in handle.params])
                logits[handle.batch] = (handle, z, acts)
            elif logits[handle.batch][0] != handle:
                raise ValueError(f"duplicate input name {handle.batch!r}: "
                                 "its terms read different parameters")
            payload = read(term.payload) if isinstance(term.payload, str) else term.payload
            out, rowgrad = term.rows(payload, logits[handle.batch][1])
            outputs.append(out)
            rowgrads.append(rowgrad)
        values = [t.reduced(out) for t, out in zip(terms, outputs)]
        value = values[0]
        if objective.group:
            rest = values[1]
            for v in values[2:]:  # plain adds, left to right; sum() may compensate floats
                rest = rest + v
            value = value + objective.scale * rest
    if not np.isfinite(value).all():
        stages = [*((f"mlp_forward on {b!r}", z) for b, (_, z, _) in logits.items()),
                  *((f"{t.rows.__name__} on {t.logits.batch!r}", out)
                    for t, out in zip(terms, outputs))]
        culprit = next((name for name, v in stages if not np.isfinite(v).all()), "the sum")
        raise NumericError(f"non-finite result (first produced by {culprit})")
    return value, logits, bound, outputs, rowgrads


def evaluate(objective: Objective, bindings: Mapping[str, np.ndarray]):
    """Deterministic value of ``objective`` under ``bindings``: a scalar, or one
    per slice when the bindings are stacked (see the module docstring).

    Raises NumericError if a binding it reads or the value is not finite.
    """
    return _forward(objective, bindings)[0]


def _accumulate(grads: dict, name: str, grad: np.ndarray) -> None:
    prev = grads.get(name)
    grads[name] = grad if prev is None else prev + grad


def _backward(objective: Objective, fwd, wrt: tuple[str, ...]) -> dict:
    """Gradients of the value of the pass ``fwd`` for the inputs in ``wrt``: no
    batch whose logits reach none of them is run back, and the MLP backward
    computes no gradient for a parameter or batch outside them."""
    _, logits, bound, outputs, rowgrads = fwd
    needs = {batch: [name in wrt for name in (batch, *handle.params)]
             for batch, (handle, _, _) in logits.items()}
    terms = (objective.head, *objective.group)
    dz: dict[str, np.ndarray] = {}
    grads: dict[str, np.ndarray] = {}
    # As in _forward: value_and_grad checks every gradient it returns.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(len(terms) - 1, -1, -1):
            term = terms[i]
            batch = term.logits.batch
            if not any(needs[batch]):
                continue
            g = 1.0 if i == 0 else objective.scale
            if term.reduce == "mean":
                g = g / outputs[i].size
            d = g * rowgrads[i]
            dz[batch] = d if batch not in dz else dz[batch] + d
        for batch in reversed(logits):  # reverse first-use order, so x goes last
            if batch not in dz:
                continue
            handle, _, acts = logits[batch]
            params = [bound[p] for p in handle.params]
            for name, g in zip((batch, *handle.params),
                               model.mlp_backward(dz[batch], params, acts, needs[batch])):
                if g is not None:
                    _accumulate(grads, name, g)
    return grads


def value_and_grad(objective: Objective, bindings: Mapping[str, np.ndarray],
                   wrt: Iterable[str]):
    """Value, the gradient for each batch or parameter name in ``wrt``, and each
    term's per-row values (head first), all from one pass. A name the objective
    does not read raises KeyError."""
    wrt = tuple(wrt)
    fwd = _forward(objective, bindings)
    grads = _backward(objective, fwd, wrt)
    for name in wrt:
        if not np.isfinite(grads[name]).all():
            raise NumericError(f"non-finite gradient for input {name!r}")
    return fwd[0], {name: grads[name] for name in wrt}, tuple(fwd[3])

