"""Multilayer perceptron classifier with a penultimate feature tap.

The network is relu -> ... -> relu -> affine with C-way logits. The same
layer arithmetic is available in two forms: plain numpy (``forward``,
``penultimate_features``) and an expression graph (``logits_graph``) whose
evaluation is bit-identical to the numpy path, so input and weight
gradients share one numeric story with inference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, NumericError, ShapeError

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
            raise ConfigError(f"invalid layer dims {self.dims}")
        if len(self.weights) != len(self.dims) - 1 or len(self.biases) != len(self.dims) - 1:
            raise ShapeError("layer count does not match dims")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.dims[i], self.dims[i + 1]) or b.shape != (self.dims[i + 1],):
                raise ShapeError(f"layer {i} shapes {w.shape}/{b.shape} do not chain with dims")
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


def _check_batch(model: MlpClassifier, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.n_features:
        raise ShapeError(f"batch shape {batch.shape} does not match input width {model.n_features}")
    return batch


def _hidden(model: MlpClassifier, batch: np.ndarray) -> np.ndarray:
    """The batch through every hidden layer (the batch itself if there is none)."""
    h = _check_batch(model, batch)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    return h


def forward(model: MlpClassifier, batch: np.ndarray) -> np.ndarray:
    """Logits for a (m, d) batch; pure function of (model, batch)."""
    return _hidden(model, batch) @ model.weights[-1] + model.biases[-1]


def penultimate_features(model: MlpClassifier, batch: np.ndarray) -> np.ndarray:
    """Post-activation values of the last hidden layer, shape (m, h_L)."""
    if len(model.dims) < 3:
        raise ShapeError("model has no hidden layer")
    return _hidden(model, batch)


def make_param_nodes(dims) -> dict[str, ad.Expression]:
    """One shared input node per parameter name; reuse across logits graphs."""
    nodes = {}
    for i in range(len(tuple(dims)) - 1):
        nodes[f"W{i}"] = ad.inp(f"W{i}")
        nodes[f"b{i}"] = ad.inp(f"b{i}")
    return nodes


def logits_graph(dims, input_name: str = "x",
                 params: dict[str, ad.Expression] | None = None) -> ad.Expression:
    """Expression for the logits of a batch bound to ``input_name``.

    Parameters are free inputs named W0/b0, W1/b1, ... so the same graph
    serves weight gradients (training) and input gradients (perturbation).
    Graphs that must coexist under one objective share ``params`` nodes,
    keeping every input name unique within the combined DAG.
    """
    dims = tuple(dims)
    if params is None:
        params = make_param_nodes(dims)
    h = ad.inp(input_name)
    last = len(dims) - 2
    for i in range(len(dims) - 1):
        h = ad.add(ad.matmul(h, params[f"W{i}"]), params[f"b{i}"])
        if i < last:
            h = ad.relu(h)
    return h


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
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format_version {doc.get('format_version')}")
    try:
        dims = tuple(int(d) for d in doc["dims"])
        weights = tuple(
            np.asarray(flat, dtype=np.float64).reshape(dims[i], dims[i + 1])
            for i, flat in enumerate(doc["weights"])
        )
        biases = tuple(np.asarray(b, dtype=np.float64) for b in doc["biases"])
        return MlpClassifier(dims, weights, biases)
    except KeyError as exc:
        raise DataError(f"checkpoint {path} has no {exc} entry") from None
    except (ConfigError, IndexError, TypeError, ValueError, ShapeError) as exc:
        raise DataError(f"checkpoint {path} is inconsistent: {exc}") from exc
