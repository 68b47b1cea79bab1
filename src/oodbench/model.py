"""Multilayer perceptron classifier with a penultimate feature tap.

The network is relu -> ... -> relu -> affine with C-way logits. The layer
arithmetic is written once: ``_hidden`` runs the hidden layers (the batch
itself for a model with no hidden layer) and ``head`` the output layer, so
``forward`` is exactly ``head(model, penultimate_features(model, batch))``.
A caller that needs both features and logits of a set forwards it once.
``mlp_forward`` runs them on bound parameters and ``mlp_backward`` is their
closed-form backward, giving input and weight gradients, for the ``Logits``
of a batch that an objective term reads (``logits_graph``).

Memory order: each hidden layer adds its bias and applies the ReLU in place
on its own fresh ``h @ w`` product, so a forward holds at most two
activation arrays at once (the layer's input and its output) and never
writes into the caller's batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import read_json
from .errors import DataError, NumericError

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class MlpClassifier:
    """Immutable MLP: ``dims = [d, h1, ..., hL, C]`` with per-layer weights/biases."""

    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @property
    def n_classes(self) -> int:
        return self.dims[-1]

    @property
    def n_features(self) -> int:
        return self.dims[0]

    def __post_init__(self):
        if len(self.dims) < 2 or any(d <= 0 for d in self.dims):
            raise ValueError(f"invalid layer dims {self.dims}")
        if len(self.weights) != len(self.dims) - 1 or len(self.biases) != len(self.dims) - 1:
            raise ValueError("layer count does not match dims")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.dims[i], self.dims[i + 1]) or b.shape != (self.dims[i + 1],):
                raise ValueError(f"layer {i} shapes {w.shape}/{b.shape} do not chain with dims")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError(f"layer {i} contains non-finite parameters")


def init_model(dims, seed: int) -> MlpClassifier:
    """He-style initialization: weights ~ N(0, 2/fan_in) from a PCG64 stream, zero biases."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpClassifier(dims, tuple(weights), tuple(biases))


class _Layers(NamedTuple):  # an MlpClassifier's parameters, without its checks
    weights: tuple
    biases: tuple


def _hidden(model: MlpClassifier | _Layers, batch: np.ndarray, acts: list | None = None):
    """The batch through every hidden layer (the batch itself if there is none);
    ``acts``, when given, collects each hidden layer's activations."""
    h = np.asarray(batch, dtype=np.float64)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w
        z += b
        h = np.maximum(z, 0.0, out=z)
        if acts is not None:
            acts.append(h)
    return h


def head(model: MlpClassifier | _Layers, features: np.ndarray) -> np.ndarray:
    """Logits from the last hidden layer's activations: the output layer alone."""
    return features @ model.weights[-1] + model.biases[-1]


def forward(model: MlpClassifier, batch: np.ndarray) -> np.ndarray:
    """Logits for a (m, d) batch; pure function of (model, batch)."""
    return head(model, _hidden(model, batch))


def penultimate_features(model: MlpClassifier, batch: np.ndarray) -> np.ndarray:
    """Post-activation values of the last hidden layer, shape (m, h_L); the
    batch itself for a model with no hidden layer."""
    return _hidden(model, batch)


def make_param_nodes(dims) -> dict[str, str]:
    """The binding of each parameter W0/b0, W1/b1, ...: its own name, as in ``param_bindings``."""
    return {f"{kind}{i}": f"{kind}{i}" for i in range(len(tuple(dims)) - 1) for kind in "Wb"}


class Logits(NamedTuple):
    """The MLP logits of the batch bound to ``batch``, under the parameters bound to
    ``params`` (W0, b0, W1, b1, ... in layer order)."""

    batch: str
    params: tuple[str, ...]


def mlp_forward(x, params):
    """Logits of the batch ``x`` on bound parameters (W0, b0, W1, b1, ...), and
    each layer's input: the batch, then each hidden activation."""
    layers = _Layers(params[0::2], params[1::2])
    acts = [x]
    return head(layers, _hidden(layers, x, acts)), acts


def mlp_backward(grad, params, acts, needs):
    """Gradients for (x, W0, b0, ...) where ``needs`` says, from the logits'
    gradient and the top layer down: db = g.sum(0), dW = h.T @ g, then g @ W.T
    and the ReLU mask (subgradient 0 at 0) while a lower one is needed."""
    out = [None] * len(needs)
    g = grad
    for i in range(len(acts) - 1, -1, -1):
        if needs[2 + 2 * i]:
            out[2 + 2 * i] = g.sum(axis=0)
        if needs[1 + 2 * i]:
            out[1 + 2 * i] = acts[i].T @ g
        if not any(needs[:1 + 2 * i]):
            break
        g = g @ params[2 * i].T
        if i:
            g = g * (acts[i] > 0.0)
    if needs[0]:
        out[0] = g
    return out


def logits_graph(dims, input_name: str = "x", params: dict[str, str] | None = None) -> Logits:
    """The logits of the batch bound to ``input_name`` under a ``dims`` model.

    ``params`` maps each parameter name (W0, b0, ...) to its binding, by default
    ``make_param_nodes(dims)``, so the same handle serves weight gradients
    (training) and input gradients (perturbation).
    """
    dims = tuple(dims)
    if params is None:
        params = make_param_nodes(dims)
    return Logits(input_name, tuple(params[f"{kind}{i}"]
                                    for i in range(len(dims) - 1) for kind in "Wb"))


def param_names(model: MlpClassifier) -> list[str]:
    return list(param_bindings(model))


def param_bindings(model: MlpClassifier) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        out[f"W{i}"] = w
        out[f"b{i}"] = b
    return out


def save_checkpoint(model: MlpClassifier, path, seed: int | None = None) -> None:
    """Write the model as JSON: dims, flat row-major weights, biases, seed."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dims": list(model.dims),
        "weights": [w.reshape(-1).tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": seed,
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path) -> MlpClassifier:
    doc = read_json(path, DataError, "checkpoint")
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise DataError(f"checkpoint {path} has unsupported format_version "
                        f"{doc.get('format_version')!r}")
    try:
        dims = tuple(_layer_dim(d) for d in doc["dims"])
        weights = tuple(_parameters(flat).reshape(dims[i], dims[i + 1])
                        for i, flat in enumerate(doc["weights"]))
        biases = tuple(_parameters(b) for b in doc["biases"])
        return MlpClassifier(dims, weights, biases)
    except KeyError as exc:
        raise DataError(f"checkpoint {path} has no {exc} entry") from None
    except (IndexError, TypeError, ValueError, OverflowError, NumericError) as exc:
        raise DataError(f"checkpoint {path} is inconsistent: {exc}") from exc


def _layer_dim(value) -> int:
    """A checkpoint's layer width: an integer, or a float with an integral value,
    as the config parser accepts; a bool or a fractional number is refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"layer dims must be integers, got {value!r}")


def _parameters(values) -> np.ndarray:
    """A checkpoint's flat list of one layer's weights or biases as float64.
    numpy would read a string such as "1.5" or a bool as a number; both are
    refused. Non-finite values are refused by ``MlpClassifier``; an integer too
    large for a float raises OverflowError here."""
    if not all(type(v) in (int, float) for v in values):
        raise TypeError("layer parameters must be a flat list of numbers")
    return np.asarray(values, dtype=np.float64)
