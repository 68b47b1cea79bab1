"""Minimal reverse-mode differentiation over dense float64 tensors.

Expressions are immutable DAGs built from named inputs, constants and a
closed primitive set: matmul, broadcast add, elementwise multiply, relu,
log-softmax, logsumexp, sum, mean, square and scalar affine. ``evaluate``
runs a deterministic forward pass; ``gradient`` backpropagates through the
same graph in reversed topological order, so repeated runs are
bit-identical.

The first pass over a root compiles its graph into a plan cached on that
root: the ops in topological order with parents as slot indices, and the
slot of each input name. Later passes run over lists indexed by slot, so a
graph built once (a training objective, say) can be re-run on bindings of
any row count without re-deriving its structure. Every pass still checks
bindings, shapes and the finiteness of its result and gradients.

Conventions: relu uses subgradient 0 at 0; log-softmax acts on the last
axis; reductions accept ``axis=None`` (full) or a single int.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import numerics
from .errors import GraphError, NumericError, ShapeError

#: Gradient maps are plain dicts: input name -> array shaped like that input.
GradientMap = dict[str, np.ndarray]


class Expression:
    """One node of an expression DAG.

    ``op`` is the primitive kind, ``parents`` the operand nodes, ``payload``
    op-specific data (constant value, input name, axis, affine coefficients).
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

    def __add__(self, other):
        if isinstance(other, Expression):
            return add(self, other)
        return affine(self, 1.0, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Expression):
            return mul(self, other)
        return affine(self, float(other), 0.0)

    __rmul__ = __mul__

    def __neg__(self):
        return affine(self, -1.0, 0.0)

    def __sub__(self, other):
        if isinstance(other, Expression):
            return add(self, -other)
        return affine(self, 1.0, -float(other))

    def __rsub__(self, other):
        return affine(self, -1.0, float(other))

    def __truediv__(self, other):
        return affine(self, 1.0 / float(other), 0.0)

    def __repr__(self):
        tag = self.payload if self.op in ("input", "const") else ""
        return f"Expression({self.op}{', ' + repr(tag) if self.op == 'input' else ''})"

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
    if not np.all(np.isfinite(value)):
        raise NumericError("constant contains non-finite values")
    return Expression("const", payload=value)


def matmul(a: Expression, b: Expression) -> Expression:
    return Expression("matmul", (a, b))


def add(a: Expression, b: Expression) -> Expression:
    return Expression("add", (a, b))


def mul(a: Expression, b: Expression) -> Expression:
    return Expression("mul", (a, b))


def relu(x: Expression) -> Expression:
    return Expression("relu", (x,))


def log_softmax(x: Expression) -> Expression:
    return Expression("log_softmax", (x,))


def logsumexp(x: Expression, axis: int | None = None) -> Expression:
    return Expression("logsumexp", (x,), payload=axis)


def reduce_sum(x: Expression, axis: int | None = None) -> Expression:
    return Expression("sum", (x,), payload=axis)


def reduce_mean(x: Expression, axis: int | None = None) -> Expression:
    return Expression("mean", (x,), payload=axis)


def square(x: Expression) -> Expression:
    return Expression("square", (x,))


def affine(x: Expression, scale: float, shift: float = 0.0) -> Expression:
    """scale * x + shift with python-float coefficients."""
    return Expression("affine", (x,), payload=(float(scale), float(shift)))


# -- compilation ---------------------------------------------------------------


class _Plan(NamedTuple):
    """A graph flattened for repeated passes, one slot per node.

    ``steps[i]`` is (op, parent slots, payload) in topological order, so the
    root is the last slot; ``inputs`` maps input names and ``slots`` maps
    ``id(node)`` to slots.
    """

    steps: list[tuple[str, tuple[int, ...], object]]
    inputs: dict[str, int]
    slots: dict[int, int]


def _compile(expr: Expression) -> _Plan:
    """The plan of ``expr``, built on first use and cached on the root.

    A rejected graph is not cached, so it fails again on every call.
    """
    if expr._plan is None:
        order = expr.topo_order()
        slots = {id(node): i for i, node in enumerate(order)}
        inputs: dict[str, int] = {}
        for i, node in enumerate(order):
            if node.op == "input" and inputs.setdefault(node.payload, i) != i:
                # Two distinct nodes for one name would split the variable and
                # silently drop gradient contributions; share the node instead.
                raise GraphError(f"duplicate input node for name {node.payload!r}")
        steps = [(n.op, tuple(slots[id(p)] for p in n.parents), n.payload) for n in order]
        expr._plan = _Plan(steps, inputs, slots)
    return expr._plan


# -- forward -------------------------------------------------------------------


def _forward_all(plan: _Plan, bindings: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    """Every slot's value; raises NumericError naming the first non-finite node
    when the root is not finite."""
    vals: list[np.ndarray] = []
    # Non-finite intermediates are caught by the explicit checks, so numpy's
    # own overflow warnings are redundant noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for op, parents, payload in plan.steps:
            if op == "input":
                if payload not in bindings:
                    raise GraphError(f"unbound input {payload!r}")
                v = numerics.as_tensor(bindings[payload])
                if not np.all(np.isfinite(v)):
                    raise NumericError(f"binding for {payload!r} contains non-finite values")
            elif op == "const":
                v = payload
            else:
                a = vals[parents[0]]
                if op == "matmul":
                    b = vals[parents[1]]
                    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
                        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
                    v = a @ b
                elif op in ("add", "mul"):
                    b = vals[parents[1]]
                    try:
                        v = a + b if op == "add" else a * b
                    except ValueError:
                        raise ShapeError(
                            f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None
                elif op == "relu":
                    v = np.maximum(a, 0.0)
                elif op == "log_softmax":
                    v = numerics.log_softmax(a, axis=-1)
                elif op == "logsumexp":
                    v = numerics.logsumexp(a, axis=payload)
                elif op == "sum":
                    v = np.sum(a, axis=payload)
                elif op == "mean":
                    v = np.mean(a, axis=payload)
                elif op == "square":
                    v = a * a
                elif op == "affine":
                    v = payload[0] * a + payload[1]
                else:
                    raise GraphError(f"unknown primitive {op!r}")
            vals.append(v)
    if not np.all(np.isfinite(vals[-1])):
        culprit = next((f"{op} node" for (op, _, _), v in zip(plan.steps, vals)
                        if not np.all(np.isfinite(v))), "root")
        raise NumericError(f"non-finite result (first produced by {culprit})")
    return vals


def evaluate(expr: Expression, bindings: Mapping[str, np.ndarray]) -> np.ndarray:
    """Deterministic forward value of ``expr`` under ``bindings``.

    Raises GraphError for unbound inputs, ShapeError for incompatible
    operands, NumericError if the result is not finite.
    """
    return _forward_all(_compile(expr), bindings)[-1]


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


def _backward_all(plan: _Plan, vals: list[np.ndarray]) -> list:
    """Gradient of the root for every slot, None where nothing flows."""
    root = vals[-1]
    if root.size != 1:
        raise GraphError(f"gradient requires a scalar expression, got shape {root.shape}")
    grads: list = [None] * len(vals)
    grads[-1] = np.ones_like(root)
    # As in _forward_all: value_and_grad checks every gradient it returns.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(len(vals) - 1, -1, -1):
            grad = grads[i]
            op, parents, payload = plan.steps[i]
            if grad is None or op in ("input", "const"):
                continue
            p0 = parents[0]
            a = vals[p0]
            if op == "matmul":
                p1 = parents[1]
                _accumulate(grads, p0, grad @ vals[p1].T)
                _accumulate(grads, p1, a.T @ grad)
            elif op == "add":
                p1 = parents[1]
                _accumulate(grads, p0, _unbroadcast(grad, a.shape))
                _accumulate(grads, p1, _unbroadcast(grad, vals[p1].shape))
            elif op == "mul":
                p1 = parents[1]
                b = vals[p1]
                _accumulate(grads, p0, _unbroadcast(grad * b, a.shape))
                _accumulate(grads, p1, _unbroadcast(grad * a, b.shape))
            elif op == "relu":
                _accumulate(grads, p0, grad * (a > 0.0))
            elif op == "log_softmax":
                softmax = np.exp(vals[i])
                _accumulate(grads, p0, grad - softmax * np.sum(grad, axis=-1, keepdims=True))
            elif op == "logsumexp":
                out = vals[i]
                w = np.exp(a - (out if payload is None else np.expand_dims(out, payload)))
                _accumulate(grads, p0, _expand_reduced(grad, a.shape, payload) * w)
            elif op == "sum":
                _accumulate(grads, p0, _expand_reduced(grad, a.shape, payload))
            elif op == "mean":
                count = a.size if payload is None else a.shape[payload]
                _accumulate(grads, p0, _expand_reduced(grad, a.shape, payload) / count)
            elif op == "square":
                _accumulate(grads, p0, grad * 2.0 * a)
            else:  # affine; the forward pass has rejected any other op
                _accumulate(grads, p0, grad * payload[0])
    return grads


def gradient(expr: Expression, bindings: Mapping[str, np.ndarray],
             wrt: Iterable[str]) -> GradientMap:
    """Exact reverse-mode gradients of a scalar ``expr`` for each name in ``wrt``."""
    value, grads, _ = value_and_grad(expr, bindings, wrt)
    return grads


def value_and_grad(expr: Expression, bindings: Mapping[str, np.ndarray],
                   wrt: Iterable[str], aux: tuple[Expression, ...] = ()):
    """Forward value, gradient map and values of ``aux`` nodes in one pass.

    ``aux`` nodes must belong to the same graph; sharing the pass avoids a
    second forward evaluation in optimization loops.
    """
    plan = _compile(expr)
    wrt = list(wrt)
    for name in wrt:
        if name not in plan.inputs:
            raise GraphError(f"name {name!r} not present in expression")
    aux_slots = [plan.slots.get(id(node)) for node in aux]
    if None in aux_slots:
        raise GraphError("aux node does not belong to the expression's graph")
    vals = _forward_all(plan, bindings)
    grad_slots = _backward_all(plan, vals)
    grads: GradientMap = {}
    for name in wrt:
        slot = plan.inputs[name]
        g, shape = grad_slots[slot], vals[slot].shape
        if g is None:
            g = np.zeros_like(vals[slot])
        elif g.shape != shape:
            g = np.broadcast_to(g, shape).copy()
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for input {name!r}")
        grads[name] = g
    return vals[-1], grads, tuple(vals[slot] for slot in aux_slots)


def finite_diff_check(expr: Expression, bindings: Mapping[str, np.ndarray],
                      wrt: Iterable[str], h: float = 1e-5) -> float:
    """Max over coordinates of |analytic - central difference| / (|analytic| + 1e-12).

    The central difference is the independent oracle for ``gradient``; a
    clean graph keeps this below ~1e-6 for h=1e-5 at unit scales.
    """
    if h <= 0:
        raise ValueError("h must be positive")
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
