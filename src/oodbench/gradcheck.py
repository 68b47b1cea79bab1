"""Self-check suite: reverse-mode gradients against central finite differences.

Each case is an objective the program differentiates, from the builder it
uses: each kind's ``losses.objective`` from ``trainer._build_loss_graph``
with respect to the parameters, as ``fine_tune`` steps it, and
``autodiff.input_objective`` of ``losses.oe_rows`` and of
``scoring.odin_rows`` with respect to the input, as the ascent and ODIN
push it. So every closed-form gradient is checked: the MLP backward
(``model.mlp_backward``), each per-row loss in ``losses`` and
``scoring.odin_rows``, and the weight 1/m ``autodiff`` gives each of a
term's m rows. Weights are kept at unit scale for accurate quotients.

A case is (objective, bindings, grads), where ``grads`` holds the analytic
gradient of the checked input, the parameter vector θ or the batch x,
computed once when the case is sampled. ``finite_diff_check`` takes one
``autodiff.evaluate`` per case, on the stack of that input's 2n perturbed
copies, whose values are those of the 2n separate passes bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses
from . import model as model_mod
from . import numerics
from . import scoring
from . import trainer
from .config import LOSS_KINDS, LossConfig

DEFAULT_TOLERANCE = 1e-6
DEFAULT_STEP = 1e-5
CASES = (*LOSS_KINDS, "extrapolation", "odin")


@dataclass
class GradcheckResult:
    cases: int
    max_relative_error: float

    @property
    def passed(self) -> bool:
        return self.max_relative_error < DEFAULT_TOLERANCE


KINK_CLEARANCE = 1e-3  # min |relu preactivation|; finite differences are
                       # not a valid oracle within h of the kink
MIN_GRAD_MAGNITUDE = 0.01  # below this the DEFAULT_STEP difference quotient's own
                           # truncation error dominates the relative test


def _hidden_preactivations(mlp: model_mod.MlpClassifier, batches) -> float:
    """Least |preactivation| of a hidden unit, over the layer inputs of ``model.mlp_forward``."""
    least = np.inf
    for x in batches:
        acts = model_mod.mlp_forward(x, mlp)[1]
        for h, w, b in zip(acts, mlp.weights[:-1], mlp.biases[:-1]):
            least = min(least, np.min(np.abs(h @ w + b)))
    return least


def _case(kind: str, rng: np.random.Generator):
    """One randomized (objective, bindings, grads) triple for ``kind``, one of CASES, resampled
    until every relu preactivation clears the kink by a wide margin relative to the step."""
    d = int(rng.integers(2, 5))
    hidden = [int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3)))]
    c = int(rng.integers(2, 5))
    dims = (d, *hidden, c)
    m = int(rng.integers(2, 5))
    labels = {}
    if kind in LOSS_KINDS:
        # Margins a few units outside the reachable energy range keep both
        # hinges active and smooth without inflating the loss magnitude.
        lc = LossConfig(kind=kind, m_in=-8.0, m_out=5.0)
        objective = trainer._build_loss_graph(dims, lc)
        batch_names = ("x", "x_out") if LOSS_KINDS[kind].binds_aux else ("x",)
        labels["y"] = losses.onehot(rng.integers(0, c, size=m), c)
    elif kind == "extrapolation":
        objective, batch_names = ad.input_objective(dims, losses.oe_rows), ("x",)
    else:
        # T = 1: at ODIN_TEMPERATURE the input gradient shrinks
        # with 1/T below MIN_GRAD_MAGNITUDE, so no case would be accepted.
        target = losses.onehot(rng.integers(0, c, size=m), c)
        objective, batch_names = ad.input_objective(dims, scoring.odin_rows, (target, 1.0)), ("x",)

    for _ in range(1000):
        layers = [(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)),
                   rng.normal(0.0, 0.5, size=fan_out))
                  for fan_in, fan_out in zip(dims[:-1], dims[1:])]
        mlp = model_mod.from_layers(dims, *zip(*layers))
        batches = {name: rng.uniform(0.05, 0.95, size=(m, d)) for name in batch_names}
        if _hidden_preactivations(mlp, batches.values()) <= KINK_CLEARANCE:
            continue
        bindings = {**model_mod.param_bindings(mlp), **labels, **batches}
        wrt = model_mod.param_names(mlp) if kind in LOSS_KINDS else ["x"]
        # Exact-zero coordinates (dead relu paths) are locally constant, so the
        # difference quotient is exactly zero too; only small nonzero gradients
        # fall below the oracle's resolution.
        grads = ad.value_and_grad(objective, bindings, wrt)[1]
        flat = np.concatenate([g.reshape(-1) for g in grads.values()])
        nonzero = np.abs(flat[flat != 0.0])
        if nonzero.size and nonzero.min() >= MIN_GRAD_MAGNITUDE:
            return objective, bindings, grads
    raise RuntimeError("could not sample a well-conditioned gradcheck case")


def finite_diff_check(objective: ad.Objective, bindings, grads) -> float:
    """Max over coordinates of |analytic - central difference| / (|analytic| + 1e-12).

    The central difference, at step h = DEFAULT_STEP, is the independent
    oracle for ``grads``, the analytic gradient of each checked input; a clean
    objective keeps this below DEFAULT_TOLERANCE at unit scales. For each input
    in ``grads`` with n coordinates, one pass evaluates a stack of 2n copies of
    it: slice 2i has coordinate i at +h and slice 2i+1 at -h. A stacked θ (2n, P)
    stacks every layer, and a stacked batch every layer's output, so the other
    bindings broadcast.
    """
    h = DEFAULT_STEP
    bindings = {k: np.asarray(v, dtype=np.float64) for k, v in bindings.items()}
    worst = 0.0
    for name, grad in grads.items():
        arr = bindings[name]
        n = arr.size
        stack = np.repeat(arr.reshape(1, n), 2 * n, axis=0)
        i = np.arange(n)
        stack[2 * i, i] += h
        stack[2 * i + 1, i] -= h
        values = ad.evaluate(objective, {**bindings, name: stack.reshape(2 * n, *arr.shape)})
        fd = (values[0::2] - values[1::2]) / (2.0 * h)
        analytic = grad.reshape(-1)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / (np.abs(analytic) + 1e-12))))
    return worst


def run_suite(cases: int, seed: int) -> GradcheckResult:
    rng = numerics.rng(seed)
    worst = 0.0
    for _ in range(cases):
        case = _case(CASES[int(rng.integers(len(CASES)))], rng)
        worst = max(worst, finite_diff_check(*case))
    return GradcheckResult(cases=cases, max_relative_error=worst)
