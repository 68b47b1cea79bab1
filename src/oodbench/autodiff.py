"""Minimal reverse-mode differentiation over dense float64 tensors.

Expressions are immutable DAGs built from named inputs, constants, a small
primitive set (broadcast add, elementwise multiply, log-softmax, sum, mean
and scalar affine) and kernel nodes. A kernel runs a closed-form op as one
node (``model.MlpKernel``, the loss terms in ``losses``): its forward returns
the value plus what its backward reads. ``evaluate`` runs a deterministic
forward pass; ``gradient`` backpropagates through the same graph in reversed
topological order, so repeated runs are bit-identical.

The first pass over a root compiles its graph into a plan cached on that
root: the ops in topological order with parents as slot indices, each op's
forward function looked up once, and the slot of each input name. Later
passes run over lists indexed by slot, so a graph built once (a training
objective, say) can be re-run on bindings of any row count. What kernels
save lives in a list beside the slot values, local to the pass, so threads
can share one compiled graph. Every pass checks that its bindings, result
and gradients are finite; an unbound input or unknown primitive fails with
KeyError and incompatible operands with ValueError.

A backward pass computes only what its caller reads. ``value_and_grad``
marks the slots from which one of its ``wrt`` inputs is reachable, a mask
cached on the plan per ``wrt`` tuple; an op skips its contribution to an
unmarked parent, and a kernel computes none for an unmarked operand. So an
input gradient (extrapolation, ODIN) computes no parameter gradient and a
training step computes none for the batches, with the same ops, accumulated
in the same order, as without the mask.

Conventions: log-softmax acts on the last axis; reductions accept
``axis=None`` (full) or a single int.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import numerics
from .errors import NumericError

class Expression:
    """One node of an expression DAG.

    ``op`` is the primitive kind or "kernel", ``parents`` the operand nodes,
    ``payload`` op-specific data (constant value, input name, axis, affine
    coefficients, a kernel's (op, payload)).
    Nodes are immutable after construction (a root only caches its compiled
    plan) and safe to share between threads.
    """

    __slots__ = ("op", "parents", "payload", "_plan")

    def __init__(self, op: str, parents: tuple["Expression", ...] = (), payload=None):
        self.op = op
        self.parents = parents
        self.payload = payload
        self._plan: _Plan | None = None

    # -- construction sugar (lowers onto the primitive set) ------------------

    def __add__(self, other: "Expression") -> "Expression":
        return add(self, other)

    def __rmul__(self, scale: float) -> "Expression":
        return affine(self, float(scale))

    # -- traversal ------------------------------------------------------------

    def topo_order(self) -> list["Expression"]:
        """Parents-before-children ordering, ending at this node."""
        order: list[Expression] = []
        seen: set[int] = set()
        stack: list[tuple[Expression, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in reversed(node.parents):
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order


def inp(name: str) -> Expression:
    """A named free input; bound to a tensor at evaluation time."""
    return Expression("input", payload=name)


def const(value) -> Expression:
    value = numerics.as_tensor(value)
    if not np.isfinite(value).all():
        raise NumericError("constant contains non-finite values")
    return Expression("const", payload=value)


def add(a: Expression, b: Expression) -> Expression:
    return Expression("add", (a, b))


def mul(a: Expression, b: Expression) -> Expression:
    return Expression("mul", (a, b))


def log_softmax(x: Expression) -> Expression:
    return Expression("log_softmax", (x,))


def reduce_sum(x: Expression, axis: int | None = None) -> Expression:
    return Expression("sum", (x,), payload=axis)


def reduce_mean(x: Expression, axis: int | None = None) -> Expression:
    return Expression("mean", (x,), payload=axis)


def affine(x: Expression, scale: float, shift: float = 0.0) -> Expression:
    """scale * x + shift with python-float coefficients."""
    return Expression("affine", (x,), payload=(float(scale), float(shift)))


def kernel(op, operands: tuple[Expression, ...], payload=None) -> Expression:
    """One node running ``op``: ``op.forward(payload, *operands)`` returns (value,
    saved) and ``op.backward(payload, grad, operands, saved, needs)`` one gradient
    per operand, None where ``needs`` is false. Both are looked up on ``op`` per pass."""
    return Expression("kernel", tuple(operands), payload=(op, payload))


# -- compilation ---------------------------------------------------------------


class _Plan(NamedTuple):
    """A graph flattened for repeated passes, one slot per node.

    ``steps[i]`` is (op, parent slots, payload, forward function) in
    topological order, so the root is the last slot; the forward function is
    None for inputs, constants and kernels. ``inputs`` maps input names and
    ``slots`` maps ``id(node)`` to slots. ``needed`` caches, per ``wrt`` tuple,
    which slots reach one of those inputs.
    """

    steps: list[tuple[str, tuple[int, ...], object, object]]
    inputs: dict[str, int]
    slots: dict[int, int]
    needed: dict[tuple[str, ...], list[bool]]


def _mean(payload, a):
    return np.add.reduce(a, axis=payload) / (a.size if payload is None else a.shape[payload])


#: Forward function of each primitive, called as ``forward(payload, *operands)``.
_FORWARD = {
    "add": lambda payload, a, b: a + b,
    "mul": lambda payload, a, b: a * b,
    "log_softmax": lambda payload, a: numerics.log_softmax(a, axis=-1),
    "sum": lambda payload, a: np.add.reduce(a, axis=payload),
    "mean": _mean,
    "affine": lambda payload, a: payload[0] * a + payload[1],
}


def _compile(expr: Expression) -> _Plan:
    """The plan of ``expr``, built on first use and cached on the root.

    A rejected graph is not cached, so it fails again on every call.
    """
    if expr._plan is None:
        order = expr.topo_order()
        slots = {id(node): i for i, node in enumerate(order)}
        inputs: dict[str, int] = {}
        steps = []
        for i, node in enumerate(order):
            if node.op == "input" and inputs.setdefault(node.payload, i) != i:
                # Two distinct nodes for one name would split the variable and
                # silently drop gradient contributions; share the node instead.
                raise ValueError(f"duplicate input node for name {node.payload!r}")
            forward = None if node.op in ("input", "const", "kernel") else _FORWARD[node.op]
            steps.append((node.op, tuple(slots[id(p)] for p in node.parents), node.payload,
                          forward))
        expr._plan = _Plan(steps, inputs, slots, {})
    return expr._plan


def _needed(plan: _Plan, wrt: tuple[str, ...]) -> list[bool]:
    """For each slot, whether one of the inputs in ``wrt`` is reachable from it;
    computed once per ``wrt`` and cached on the plan."""
    mask = plan.needed.get(wrt)
    if mask is None:
        names = set(wrt)
        mask = []
        for op, parents, payload, _ in plan.steps:
            mask.append(payload in names if op == "input" else any(mask[p] for p in parents))
        plan.needed[wrt] = mask
    return mask


# -- forward -------------------------------------------------------------------


def _forward_all(plan: _Plan, bindings: Mapping[str, np.ndarray]) -> tuple[list, list]:
    """Every slot's value, and what each kernel saved for its backward (None at
    other slots); raises NumericError naming the first non-finite node when the
    root is not finite."""
    vals: list[np.ndarray] = []
    saved: list = [None] * len(plan.steps)
    # Non-finite intermediates are caught by the explicit checks, so numpy's
    # own overflow warnings are redundant noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, (op, parents, payload, forward) in enumerate(plan.steps):
            if forward is not None:
                v = forward(payload, *[vals[p] for p in parents])
            elif op == "kernel":
                v, saved[i] = payload[0].forward(payload[1], *[vals[p] for p in parents])
            elif op == "input":
                v = numerics.as_tensor(bindings[payload])
                if not np.isfinite(v).all():
                    raise NumericError(f"binding for {payload!r} contains non-finite values")
            else:  # const
                v = payload
            vals.append(v)
    if not np.isfinite(vals[-1]).all():
        culprit = next((f"{p[0].__name__ if op == 'kernel' else op} node"
                        for (op, _, p, _), v in zip(plan.steps, vals)
                        if not np.isfinite(v).all()), "root")
        raise NumericError(f"non-finite result (first produced by {culprit})")
    return vals, saved


def evaluate(expr: Expression, bindings: Mapping[str, np.ndarray]) -> np.ndarray:
    """Deterministic forward value of ``expr`` under ``bindings``.

    Raises NumericError if a binding or the result is not finite.
    """
    return _forward_all(_compile(expr), bindings)[0][-1]


# -- backward ------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _expand_reduced(grad: np.ndarray, parent_shape: tuple[int, ...], axis: int | None) -> np.ndarray:
    """Broadcast a reduction gradient back up to the parent shape."""
    if axis is None:
        return np.broadcast_to(grad, parent_shape)
    return np.broadcast_to(np.expand_dims(grad, axis), parent_shape)


def _accumulate(grads: list, slot: int, grad: np.ndarray) -> None:
    prev = grads[slot]
    grads[slot] = grad if prev is None else prev + grad


def _backward_all(plan: _Plan, vals: list[np.ndarray], saved: list, needed: list[bool]) -> list:
    """Gradient of the root for every slot marked in ``needed``, None where
    nothing flows; a two-operand op skips its contribution to an unmarked parent
    and a kernel computes none for an unmarked operand."""
    root = vals[-1]
    if root.size != 1:
        raise ValueError(f"gradient requires a scalar expression, got shape {root.shape}")
    grads: list = [None] * len(vals)
    grads[-1] = np.ones_like(root)
    # As in _forward_all: value_and_grad checks every gradient it returns.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(len(vals) - 1, -1, -1):
            grad = grads[i]
            op, parents, payload, _ = plan.steps[i]
            if grad is None or op in ("input", "const"):
                continue
            if op == "kernel":
                grads_in = payload[0].backward(payload[1], grad, [vals[p] for p in parents],
                                               saved[i], [needed[p] for p in parents])
                for p, g in zip(parents, grads_in):
                    if g is not None:
                        _accumulate(grads, p, g)
                continue
            p0 = parents[0]
            a = vals[p0]
            if op == "add":
                p1 = parents[1]
                if needed[p0]:
                    _accumulate(grads, p0, _unbroadcast(grad, a.shape))
                if needed[p1]:
                    _accumulate(grads, p1, _unbroadcast(grad, vals[p1].shape))
            elif op == "mul":
                p1 = parents[1]
                b = vals[p1]
                if needed[p0]:
                    _accumulate(grads, p0, _unbroadcast(grad * b, a.shape))
                if needed[p1]:
                    _accumulate(grads, p1, _unbroadcast(grad * a, b.shape))
            elif op == "log_softmax":
                softmax = np.exp(vals[i])
                _accumulate(grads, p0, grad - softmax * np.sum(grad, axis=-1, keepdims=True))
            elif op == "sum":
                _accumulate(grads, p0, _expand_reduced(grad, a.shape, payload))
            elif op == "mean":
                count = a.size if payload is None else a.shape[payload]
                _accumulate(grads, p0, _expand_reduced(grad, a.shape, payload) / count)
            else:  # affine; compilation has rejected any other op
                _accumulate(grads, p0, grad * payload[0])
    return grads


def gradient(expr: Expression, bindings: Mapping[str, np.ndarray],
             wrt: Iterable[str]) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of a scalar ``expr`` for each name in ``wrt``."""
    return value_and_grad(expr, bindings, wrt)[1]


def value_and_grad(expr: Expression, bindings: Mapping[str, np.ndarray],
                   wrt: Iterable[str], aux: tuple[Expression, ...] = ()):
    """Forward value, gradient map and values of ``aux`` nodes in one pass.

    ``aux`` nodes must belong to the same graph; sharing the pass avoids a
    second forward evaluation in optimization loops.
    """
    plan = _compile(expr)
    wrt = tuple(wrt)
    aux_slots = [plan.slots[id(node)] for node in aux]
    vals, saved = _forward_all(plan, bindings)
    grad_slots = _backward_all(plan, vals, saved, _needed(plan, wrt))
    grads: dict[str, np.ndarray] = {}
    for name in wrt:
        slot = plan.inputs[name]
        g, shape = grad_slots[slot], vals[slot].shape
        if g is None:
            g = np.zeros_like(vals[slot])
        elif g.shape != shape:
            g = np.broadcast_to(g, shape).copy()
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for input {name!r}")
        grads[name] = g
    return vals[-1], grads, tuple(vals[slot] for slot in aux_slots)


def finite_diff_check(expr: Expression, bindings: Mapping[str, np.ndarray],
                      wrt: Iterable[str], h: float = 1e-5) -> float:
    """Max over coordinates of |analytic - central difference| / (|analytic| + 1e-12).

    The central difference is the independent oracle for ``gradient``; a
    clean graph keeps this below ~1e-6 for h=1e-5 at unit scales.
    """
    wrt = list(wrt)
    grads = gradient(expr, bindings, wrt)
    work = {k: numerics.as_tensor(v).copy() for k, v in bindings.items()}
    worst = 0.0
    for name in wrt:
        arr = work[name]
        flat = arr.reshape(-1)
        analytic = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(evaluate(expr, work))
            flat[i] = orig - h
            down = float(evaluate(expr, work))
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(analytic[i] - fd) / (abs(analytic[i]) + 1e-12)
            if err > worst:
                worst = err
    return worst
