"""Multilayer perceptron classifier with a penultimate feature tap.

The network is relu -> ... -> relu -> affine with C-way logits. Its
parameters are one float64 vector θ, laid out W0, b0, W1, b1, ... with each
weight matrix row-major, the order of checkpoint.json; ``layers`` gives each
layer's weights and bias as views of θ, and of each slice of a stacked
(S, P) θ. The layer arithmetic is written once: ``_hidden`` runs the hidden
layers (the batch itself for a model with no hidden layer) and ``head`` the
output layer, so ``forward`` is exactly ``head(model, penultimate_features(model,
batch))``. A caller that needs both features and logits of a set forwards it
once. ``mlp_forward`` runs them on a bound θ's layers and ``mlp_backward`` is
their closed-form backward, giving the input gradient and one flat θ
gradient, for the ``Logits`` of a batch that an objective term reads
(``logits_graph``).

Memory order: each hidden layer adds its bias and applies the ReLU in place
on its own fresh ``h @ w`` product, so a pass holds at most two activation
arrays at once (the layer's input and its output) and never writes into the
caller's batch. Nothing here cuts rows: a pass is over the rows it is given.
``scoring.score_set`` and ``extrapolation.pgd_extrapolate`` pass a large set
in ``row_slices`` of CHUNK_ROWS, so its temporaries are a slice's, a few
hundred KB that stay in cache.

checkpoint.json is the ``Checkpoint`` record, written by ``config.dump`` and
read by ``config.parse``, the walker that types the config; ``_parameters``
then types its weights and biases with numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import numerics
from .config import dump, parse, read_json
from .errors import ConfigError, DataError, NumericError

CHECKPOINT_FORMAT_VERSION = 2
# Rows per slice of a large set, the one row size of ``scoring.score_set`` and
# of the ascent in ``extrapolation``, under the contract ``row_slices`` states.
# A slice of the benchmark's (2, 64, 64, 4) model holds 256 KB per activation
# array.
CHUNK_ROWS = 512


THETA = "theta"  # the binding of a model's parameter vector


class _Layers(NamedTuple):  # each layer's weights and bias, without an MlpClassifier's checks
    weights: tuple
    biases: tuple


def layers(dims, theta: np.ndarray) -> _Layers:
    """Each layer's weights (fan_in, fan_out) and bias (fan_out,) as views of θ,
    laid out W0, b0, W1, b1, ...; a stacked (S, P) θ gives weights
    (S, fan_in, fan_out) and biases (S, 1, fan_out), each slice its own θ's layers."""
    lead = theta.shape[:-1]
    sizes = [(fan_in, fan_out) for fan_in, fan_out in zip(dims[:-1], dims[1:])]
    size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in sizes)
    if theta.shape[-1:] != (size,):
        raise ValueError(f"θ of shape {theta.shape} does not hold the {size} parameters "
                         f"of dims {tuple(dims)}")
    bias_lead = (*lead, 1) if lead else ()
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in sizes:
        end = at + fan_in * fan_out
        weights.append(theta[..., at:end].reshape(*lead, fan_in, fan_out))
        biases.append(theta[..., end:end + fan_out].reshape(*bias_lead, fan_out))
        at = end + fan_out
    return _Layers(tuple(weights), tuple(biases))


@dataclass(frozen=True, eq=False)
class MlpClassifier:
    """Immutable MLP: ``dims = [d, h1, ..., hL, C]`` and its parameter vector
    ``theta``; ``weights`` and ``biases`` are each layer's views of it."""

    dims: tuple[int, ...]
    theta: np.ndarray
    weights: tuple = field(init=False, repr=False)
    biases: tuple = field(init=False, repr=False)

    @property
    def n_classes(self) -> int:
        return self.dims[-1]

    @property
    def n_features(self) -> int:
        return self.dims[0]

    def __post_init__(self):
        if len(self.dims) < 2 or any(d <= 0 for d in self.dims):
            raise ValueError(f"invalid layer dims {self.dims}")
        views = layers(self.dims, self.theta)
        if not np.isfinite(self.theta).all():
            raise NumericError("the model contains non-finite parameters")
        object.__setattr__(self, "weights", views.weights)
        object.__setattr__(self, "biases", views.biases)


def from_layers(dims, weights, biases) -> MlpClassifier:
    """The classifier whose layer i has weights ``weights[i]`` (dims[i], dims[i + 1])
    and bias ``biases[i]`` (dims[i + 1],), laid out in one θ."""
    dims = tuple(dims)
    if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
        raise ValueError("layer count does not match dims")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if np.shape(w) != dims[i:i + 2] or np.shape(b) != dims[i + 1:i + 2]:
            raise ValueError(f"layer {i} shapes {np.shape(w)}/{np.shape(b)} do not chain with dims")
    flat = [np.ravel(a) for pair in zip(weights, biases) for a in pair]
    return MlpClassifier(dims, np.concatenate(flat, dtype=np.float64) if flat else np.empty(0))


def init_model(dims, seed: int) -> MlpClassifier:
    """He-style initialization: weights ~ N(0, 2/fan_in) from ``numerics.rng``, zero biases."""
    dims = tuple(int(d) for d in dims)
    rng = numerics.rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return from_layers(dims, weights, biases)


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


def row_slices(m: int, size: int) -> list[slice]:
    """Slices that cut m rows at each multiple of ``size``, the trailing rows
    joining the last full slice: one slice when m < 2 * size, and none shorter
    than ``size`` otherwise, so no one-row product cut from a larger batch
    reaches BLAS's matrix-vector kernel.

    The row rule of ``scoring.score_set`` and of the ascent in
    ``extrapolation.pgd_extrapolate``: each runs every pass per slice, so a
    row's result equals that of its slice run alone, on any BLAS kernel and
    thread count. It need not equal a whole-batch pass's, which BLAS may block,
    or split among its threads, elsewhere."""
    n = max(m // size, 1)
    return [slice(i * size, None if i == n - 1 else (i + 1) * size) for i in range(n)]


def forward(model: MlpClassifier, batch: np.ndarray) -> np.ndarray:
    """Logits for a (m, d) batch; pure function of (model, batch)."""
    return head(model, _hidden(model, batch))


def penultimate_features(model: MlpClassifier, batch: np.ndarray) -> np.ndarray:
    """Post-activation values of the last hidden layer, shape (m, h_L); the
    batch itself for a model with no hidden layer."""
    return _hidden(model, batch)


def make_param_nodes(dims) -> str:
    """The binding of a ``dims`` model's parameters, as in ``param_bindings``: θ's one name."""
    return THETA


class Logits(NamedTuple):
    """The logits of the batch bound to ``batch`` under the ``dims`` MLP whose
    parameter vector is bound to ``theta``."""

    batch: str
    theta: str
    dims: tuple[int, ...]


def mlp_forward(x, params: _Layers):
    """Logits of the batch ``x`` under a θ's ``layers``, and each layer's
    input: the batch, then each hidden activation."""
    acts = [x]
    return head(params, _hidden(params, x, acts)), acts


def mlp_backward(grad, params: _Layers, acts, needs):
    """(input gradient, θ gradient) from the logits' gradient ``grad``, each None
    unless ``needs``, a pair for (x, θ), asks for it. From the top layer down:
    db = g.sum(0), dW = h.T @ g, each written into its ``layers`` view of the
    θ gradient, then g @ W.T and the ReLU mask (subgradient 0 at 0) while a
    lower layer is needed."""
    need_x, need_theta = needs
    gtheta = None
    if need_theta:
        dims = (params.weights[0].shape[0], *(b.size for b in params.biases))
        gtheta = np.empty(sum(w.size + b.size for w, b in zip(*params)))
        gparams = layers(dims, gtheta)
    g = grad
    for i in range(len(acts) - 1, -1, -1):
        if need_theta:
            np.add.reduce(g, axis=0, out=gparams.biases[i])
            np.matmul(acts[i].T, g, out=gparams.weights[i])
        if i == 0 and not need_x:
            break
        g = g @ params.weights[i].T
        if i:
            g = g * (acts[i] > 0.0)
    return g if need_x else None, gtheta


def logits_graph(dims, input_name: str = "x", theta: str = THETA) -> Logits:
    """The logits of the batch bound to ``input_name`` under a ``dims`` model
    whose θ is bound to ``theta``; the same handle serves θ gradients
    (training) and input gradients (perturbation)."""
    return Logits(input_name, theta, tuple(dims))


def param_names(model: MlpClassifier) -> list[str]:
    return list(param_bindings(model))


def param_bindings(model: MlpClassifier) -> dict[str, np.ndarray]:
    return {THETA: model.theta}


@dataclass(frozen=True)
class Checkpoint:
    """checkpoint.json's keys, in order: flat row-major weights, then the training run."""

    format_version: int
    dims: tuple[int, ...]
    weights: list  # numbers typed by ``_parameters``, not by the walker
    biases: list
    method: str
    seed: int | None
    config_digest: str


def save_checkpoint(model: MlpClassifier, path, run: tuple) -> None:
    """Write the model and ``run``, its training run's (method, seed, config_digest), as JSON."""
    ckpt = Checkpoint(CHECKPOINT_FORMAT_VERSION, model.dims,
                      [w.reshape(-1).tolist() for w in model.weights],
                      [b.tolist() for b in model.biases], *run)
    Path(path).write_text(json.dumps(dump(ckpt)), encoding="utf-8")


def load_checkpoint(path) -> tuple[MlpClassifier, tuple]:
    """The model and its training run; a file of another format version is refused first."""
    doc = read_json(path, DataError, "checkpoint")
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version not in (None, CHECKPOINT_FORMAT_VERSION):
        raise DataError(f"checkpoint {path} has unsupported format_version {version!r}")
    try:
        ckpt = parse(Checkpoint, doc, "checkpoint")
    except ConfigError as exc:
        raise DataError(f"checkpoint {path} is malformed: {exc}") from None
    try:
        weights = tuple(_parameters(flat).reshape(ckpt.dims[i], ckpt.dims[i + 1])
                        for i, flat in enumerate(ckpt.weights))
        biases = tuple(_parameters(b) for b in ckpt.biases)
        return from_layers(ckpt.dims, weights, biases), (ckpt.method, ckpt.seed, ckpt.config_digest)
    except (IndexError, TypeError, ValueError, OverflowError, NumericError) as exc:
        raise DataError(f"checkpoint {path} is inconsistent: {exc}") from exc


def _parameters(values) -> np.ndarray:
    """A checkpoint's flat list of one layer's weights or biases as float64.
    numpy would read a string such as "1.5" or a bool as a number; both are
    refused. Non-finite values are refused by ``MlpClassifier``; an integer too
    large for a float raises OverflowError here."""
    if not all(type(v) in (int, float) for v in values):
        raise TypeError("layer parameters must be a flat list of numbers")
    return np.asarray(values, dtype=np.float64)
