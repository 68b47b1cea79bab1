"""Minimal reverse-mode differentiation over dense float64 tensors.

Expressions are immutable DAGs built from named inputs, constants and a
closed primitive set: matmul, broadcast add, elementwise multiply, relu,
softmax, log-softmax, logsumexp, sum, mean, square, absolute value and
scalar affine. ``evaluate`` runs a deterministic forward pass;
``gradient`` backpropagates through the same graph in reversed
topological order, so repeated runs are bit-identical.

Conventions: relu and abs use subgradient 0 at 0; softmax/log-softmax act
on the last axis; reductions accept ``axis=None`` (full) or a single int.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from . import numerics
from .errors import GraphError, NumericError, ShapeError

#: Gradient maps are plain dicts: input name -> array shaped like that input.
GradientMap = dict[str, np.ndarray]

_REDUCTIONS = ("sum", "mean", "logsumexp")


class Expression:
    """One node of an expression DAG.

    ``op`` is the primitive kind, ``parents`` the operand nodes, ``payload``
    op-specific data (constant value, input name, axis, affine coefficients).
    Nodes are immutable after construction and safe to share between threads.
    """

    __slots__ = ("op", "parents", "payload", "_topo")

    def __init__(self, op: str, parents: tuple["Expression", ...] = (), payload=None):
        self.op = op
        self.parents = parents
        self.payload = payload
        self._topo: tuple[Expression, ...] | None = None

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

    def topo_order(self) -> tuple["Expression", ...]:
        """Parents-before-children ordering, cached on first use."""
        if self._topo is None:
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
            self._topo = tuple(order)
        return self._topo

    def input_names(self) -> set[str]:
        return {n.payload for n in self.topo_order() if n.op == "input"}


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


def softmax(x: Expression) -> Expression:
    return Expression("softmax", (x,))


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


def absolute(x: Expression) -> Expression:
    return Expression("abs", (x,))


def affine(x: Expression, scale: float, shift: float = 0.0) -> Expression:
    """scale * x + shift with python-float coefficients."""
    return Expression("affine", (x,), payload=(float(scale), float(shift)))


# -- forward -------------------------------------------------------------------


def _forward_node(node: Expression, vals: dict[int, np.ndarray],
                  bindings: Mapping[str, np.ndarray]) -> np.ndarray:
    op = node.op
    if op == "input":
        name = node.payload
        if name not in bindings:
            raise GraphError(f"unbound input {name!r}")
        v = numerics.as_tensor(bindings[name])
        if not np.all(np.isfinite(v)):
            raise NumericError(f"binding for {name!r} contains non-finite values")
        return v
    if op == "const":
        return node.payload
    a = vals[id(node.parents[0])]
    if op == "matmul":
        b = vals[id(node.parents[1])]
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
        return a @ b
    if op == "add":
        b = vals[id(node.parents[1])]
        _require_broadcastable(a, b, "add")
        return a + b
    if op == "mul":
        b = vals[id(node.parents[1])]
        _require_broadcastable(a, b, "mul")
        return a * b
    if op == "relu":
        return np.maximum(a, 0.0)
    if op == "softmax":
        return numerics.softmax(a, axis=-1)
    if op == "log_softmax":
        return numerics.log_softmax(a, axis=-1)
    if op == "logsumexp":
        return numerics.logsumexp(a, axis=node.payload)
    if op == "sum":
        return np.sum(a, axis=node.payload)
    if op == "mean":
        return np.mean(a, axis=node.payload)
    if op == "square":
        return a * a
    if op == "abs":
        return np.abs(a)
    if op == "affine":
        scale, shift = node.payload
        return scale * a + shift
    raise GraphError(f"unknown primitive {op!r}")


def _require_broadcastable(a: np.ndarray, b: np.ndarray, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _forward_all(expr: Expression, bindings: Mapping[str, np.ndarray]) -> dict[int, np.ndarray]:
    vals: dict[int, np.ndarray] = {}
    names: dict[str, int] = {}
    # Non-finite intermediates are caught by the explicit checks, so numpy's
    # own overflow warnings are redundant noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in expr.topo_order():
            if node.op == "input":
                prev = names.setdefault(node.payload, id(node))
                if prev != id(node):
                    # Two distinct nodes for one name would split the variable and
                    # silently drop gradient contributions; share the node instead.
                    raise GraphError(f"duplicate input node for name {node.payload!r}")
            vals[id(node)] = _forward_node(node, vals, bindings)
    return vals


def evaluate(expr: Expression, bindings: Mapping[str, np.ndarray]) -> np.ndarray:
    """Deterministic forward value of ``expr`` under ``bindings``.

    Raises GraphError for unbound inputs, ShapeError for incompatible
    operands, NumericError if the result is not finite.
    """
    vals = _forward_all(expr, bindings)
    out = vals[id(expr)]
    if not np.all(np.isfinite(out)):
        culprit = _first_nonfinite(expr, vals)
        raise NumericError(f"non-finite result (first produced by {culprit})")
    return out


def _first_nonfinite(expr: Expression, vals: dict[int, np.ndarray]) -> str:
    for node in expr.topo_order():
        if not np.all(np.isfinite(vals[id(node)])):
            return f"{node.op} node"
    return "root"


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


def _backward_node(node: Expression, grad: np.ndarray, vals: dict[int, np.ndarray],
                   accum: dict[int, np.ndarray]) -> None:
    op = node.op
    if op in ("input", "const"):
        return
    p0 = node.parents[0]
    a = vals[id(p0)]
    if op == "matmul":
        p1 = node.parents[1]
        b = vals[id(p1)]
        _accumulate(accum, p0, grad @ b.T)
        _accumulate(accum, p1, a.T @ grad)
    elif op == "add":
        p1 = node.parents[1]
        _accumulate(accum, p0, _unbroadcast(grad, a.shape))
        _accumulate(accum, p1, _unbroadcast(grad, vals[id(p1)].shape))
    elif op == "mul":
        p1 = node.parents[1]
        b = vals[id(p1)]
        _accumulate(accum, p0, _unbroadcast(grad * b, a.shape))
        _accumulate(accum, p1, _unbroadcast(grad * a, b.shape))
    elif op == "relu":
        _accumulate(accum, p0, grad * (a > 0.0))
    elif op == "softmax":
        y = vals[id(node)]
        _accumulate(accum, p0, y * (grad - np.sum(grad * y, axis=-1, keepdims=True)))
    elif op == "log_softmax":
        y = vals[id(node)]
        _accumulate(accum, p0, grad - np.exp(y) * np.sum(grad, axis=-1, keepdims=True))
    elif op == "logsumexp":
        axis = node.payload
        out = vals[id(node)]
        w = np.exp(a - (out if axis is None else np.expand_dims(out, axis)))
        _accumulate(accum, p0, _expand_reduced(grad, a.shape, axis) * w)
    elif op == "sum":
        _accumulate(accum, p0, _expand_reduced(grad, a.shape, node.payload))
    elif op == "mean":
        axis = node.payload
        count = a.size if axis is None else a.shape[axis]
        _accumulate(accum, p0, _expand_reduced(grad, a.shape, axis) / count)
    elif op == "square":
        _accumulate(accum, p0, grad * 2.0 * a)
    elif op == "abs":
        _accumulate(accum, p0, grad * np.sign(a))
    elif op == "affine":
        scale, _ = node.payload
        _accumulate(accum, p0, grad * scale)
    else:
        raise GraphError(f"unknown primitive {op!r}")


def _accumulate(accum: dict[int, np.ndarray], node: Expression, grad: np.ndarray) -> None:
    key = id(node)
    if key in accum:
        accum[key] = accum[key] + grad
    else:
        accum[key] = grad


def _backward_all(expr: Expression, vals: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    root = vals[id(expr)]
    if root.size != 1:
        raise GraphError(f"gradient requires a scalar expression, got shape {root.shape}")
    accum: dict[int, np.ndarray] = {id(expr): np.ones_like(root)}
    # As in _forward_all: value_and_grad checks every gradient it returns.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in reversed(expr.topo_order()):
            grad = accum.get(id(node))
            if grad is None:
                continue
            _backward_node(node, grad, vals, accum)
    return accum


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
    wrt = list(wrt)
    names = expr.input_names()
    for name in wrt:
        if name not in names:
            raise GraphError(f"name {name!r} not present in expression")
    vals = _forward_all(expr, bindings)
    value = vals[id(expr)]
    if not np.all(np.isfinite(value)):
        raise NumericError(f"non-finite result (first produced by {_first_nonfinite(expr, vals)})")
    accum = _backward_all(expr, vals)
    by_name: dict[str, Expression] = {}
    for node in expr.topo_order():
        if node.op == "input":
            by_name[node.payload] = node
    grads: GradientMap = {}
    for name in wrt:
        node = by_name[name]
        g = accum.get(id(node))
        if g is None:
            g = np.zeros_like(vals[id(node)])
        elif g.shape != vals[id(node)].shape:
            g = np.broadcast_to(g, vals[id(node)].shape).copy()
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for input {name!r}")
        grads[name] = g
    aux_values = tuple(vals[id(node)] for node in aux)
    return value, grads, aux_values


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
