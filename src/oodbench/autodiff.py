"""Reverse-mode differentiation of a flat sum of loss terms over MLP logits.

Every objective the workbench differentiates is a head term plus ``scale``
times the sum of a group of terms. A ``Term`` applies a per-row loss
``f(payload, z) -> (values, gradient)`` to the (m, C) MLP logits z of one
logits handle (``model.Logits``: the name of a batch, the binding of the
model's parameter vector θ it runs under, and the layer dims): one value per
row and, in closed form, each value's gradient with respect to its own row
of z. A payload that is a string names a binding, such as the one-hot labels
``y``. One reduction rule holds: every term is the mean of its m rows, and
``Term.reduced`` is the one place a batch is reduced. Rows do not interact,
so a term's dL/dz is its row gradient times the weight each row enters
with: 1/m, times ``scale`` in the group.

``value_and_grad`` reads and checks each binding once, builds the layer views
of each (θ binding, dims) once (``model.layers``), forwards each distinct
logits handle once through ``model.mlp_forward``, adds the reduced values as
``head + scale * ((t1 + t2) + ...)``, sums each handle's dL/dz over its terms
in reverse order and runs ``model.mlp_backward`` per handle in reverse
first-use order, so the gradients of a batch or a θ that several handles
read add up in one fixed order and repeated runs are bit-identical. A batch
read under two θ bindings is forwarded once per binding and gets the
gradient through each. An objective is an immutable tuple and a pass keeps
its state local, so threads can share one. Every pass checks that the
bindings it reads, its value and the gradients it returns are finite, and
raises NumericError naming the one that is not.

The bindings ``evaluate`` reads may carry a leading stack axis of S slices:
batches (S, m, d) and θ (S, P), while unstacked ones broadcast. Every layer
multiplies slice by slice and every reduction runs along the last axis, so
``evaluate`` then returns the S values that S separate passes would, bit for
bit (``gradcheck`` relies on it).

The ascent and ODIN take every input-gradient pass through ``input_gradient``,
which binds the model's θ and the batch of an ``input_objective`` itself.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from . import model
from .errors import NumericError


class Term(NamedTuple):
    """The per-row loss ``rows`` on one logits handle; the objective adds their mean."""

    rows: Callable
    logits: model.Logits
    payload: object = None

    def reduced(self, values):
        """The term's value as the objective adds it: the mean of its per-row values."""
        return np.add.reduce(values, axis=-1) / values.shape[-1]


class Objective(NamedTuple):
    """head + scale * ((group[0] + group[1]) + ...); the head alone if no group."""

    head: Term
    scale: float = 1.0
    group: tuple[Term, ...] = ()


def _forward(objective: Objective, bindings: Mapping[str, np.ndarray]):
    """One pass: (value, each handle's (logits, layer inputs, θ's layers) in
    first-use order, each term's per-row values, each term's row gradients)."""
    bound: dict[str, np.ndarray] = {}

    def read(name):
        if name not in bound:
            v = np.asarray(bindings[name], dtype=np.float64)
            if not np.isfinite(v).all():
                raise NumericError(f"binding for {name!r} contains non-finite values")
            bound[name] = v
        return bound[name]

    terms = (objective.head, *objective.group)
    logits: dict[model.Logits, tuple] = {}
    views: dict[tuple, tuple] = {}  # θ's layers, by (θ's binding, dims)
    outputs, rowgrads = [], []
    # Non-finite intermediates are caught by the explicit checks, so numpy's
    # own overflow warnings are redundant noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for term in terms:
            handle = term.logits
            if handle not in logits:
                if handle.batch == handle.theta:
                    raise ValueError(f"duplicate input name {handle.batch!r}")
                x = read(handle.batch)
                layout = (handle.theta, handle.dims)
                if layout not in views:
                    views[layout] = model.layers(handle.dims, read(handle.theta))
                logits[handle] = (*model.mlp_forward(x, views[layout]), views[layout])
            payload = read(term.payload) if isinstance(term.payload, str) else term.payload
            out, rowgrad = term.rows(payload, logits[handle][0])
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
        stages = [*((f"mlp_forward on {h.batch!r}", z) for h, (z, *_) in logits.items()),
                  *((f"{t.rows.__name__} on {t.logits.batch!r}", out)
                    for t, out in zip(terms, outputs))]
        culprit = next((name for name, v in stages if not np.isfinite(v).all()), "the sum")
        raise NumericError(f"non-finite result (first produced by {culprit})")
    return value, logits, outputs, rowgrads


def evaluate(objective: Objective, bindings: Mapping[str, np.ndarray]):
    """Deterministic value of ``objective`` under ``bindings``: a scalar, or one
    per slice when the bindings are stacked (see the module docstring).

    Raises NumericError if a binding it reads or the value is not finite.
    """
    return _forward(objective, bindings)[0]


def _accumulate(grads: dict, name: str, grad: np.ndarray) -> None:
    """Add ``grad`` into the pass's gradient for ``name``: the first
    contribution, a fresh array of the pass, takes each later one in place."""
    prev = grads.get(name)
    if prev is None:
        grads[name] = grad
    else:
        prev += grad


def _backward(objective: Objective, fwd, wrt: tuple[str, ...]) -> dict:
    """Gradients of the value of the pass ``fwd`` for the inputs in ``wrt``: no
    handle whose batch and θ are both outside them is run back, and the MLP
    backward computes no gradient for a θ or batch outside them."""
    _, logits, outputs, rowgrads = fwd
    needs = {handle: (handle.batch in wrt, handle.theta in wrt) for handle in logits}
    terms = (objective.head, *objective.group)
    dz: dict[model.Logits, np.ndarray] = {}
    grads: dict[str, np.ndarray] = {}
    # As in _forward: value_and_grad checks every gradient it returns.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(len(terms) - 1, -1, -1):
            handle = terms[i].logits
            if not any(needs[handle]):
                continue
            # The mean, as ``Term.reduced`` takes it.
            d = (1.0 if i == 0 else objective.scale) / outputs[i].size * rowgrads[i]
            dz[handle] = d if handle not in dz else dz[handle] + d
        for handle in reversed(logits):  # reverse first-use order, so x goes last
            if handle not in dz:
                continue
            _, acts, params = logits[handle]
            for name, g in zip((handle.batch, handle.theta),
                               model.mlp_backward(dz[handle], params, acts, needs[handle])):
                if g is not None:
                    _accumulate(grads, name, g)
    return grads


def value_and_grad(objective: Objective, bindings: Mapping[str, np.ndarray],
                   wrt: Iterable[str]):
    """Value, the gradient for each batch or θ name in ``wrt``, and each
    term's per-row values (head first), all from one pass. A name the objective
    does not read raises KeyError."""
    wrt = tuple(wrt)
    fwd = _forward(objective, bindings)
    grads = _backward(objective, fwd, wrt)
    for name in wrt:
        if not np.isfinite(grads[name]).all():
            raise NumericError(f"non-finite gradient for input {name!r}")
    return fwd[0], {name: grads[name] for name in wrt}, tuple(fwd[2])


def input_objective(dims, rows: Callable, payload=None) -> Objective:
    """The mean, over the batch bound to "x", of the per-row loss ``rows`` of
    its logits under a ``dims`` model: what the ascent and ODIN push along."""
    return Objective(Term(rows, model.logits_graph(dims), payload))


def input_gradient(mlp: model.MlpClassifier, x: np.ndarray, objective: Objective, grad=True):
    """One ``value_and_grad`` pass of an ``input_objective`` with ``mlp``'s θ
    and the batch ``x`` bound: (each row's value, the gradient for x), the
    gradient None unless ``grad``."""
    bindings = {**model.param_bindings(mlp), "x": x}
    _, grads, (values,) = value_and_grad(objective, bindings, ["x"] if grad else [])
    return values, grads.get("x")
