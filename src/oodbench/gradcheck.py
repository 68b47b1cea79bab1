"""Self-check suite: reverse-mode gradients against central finite differences.

Builds randomized small networks under every objective in the package,
including input gradients used by the perturbation paths, and reports the
worst relative error. Weights are kept at unit scale so the difference
quotient stays in its accurate regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses
from . import model as model_mod

DEFAULT_TOLERANCE = 1e-6
DEFAULT_STEP = 1e-5


@dataclass
class GradcheckResult:
    cases: int
    max_relative_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance


KINK_CLEARANCE = 1e-3  # min |relu preactivation|; finite differences are
                       # not a valid oracle within h of the kink
MIN_GRAD_MAGNITUDE = 0.01  # below this the h=1e-5 difference quotient's own
                           # truncation error dominates the relative test


def _hidden_preactivations(dims, bindings, x_names):
    mins = []
    for name in x_names:
        h = bindings[name]
        for i in range(len(dims) - 2):
            z = h @ bindings[f"W{i}"] + bindings[f"b{i}"]
            mins.append(np.min(np.abs(z)))
            h = np.maximum(z, 0.0)
    return min(mins) if mins else np.inf


def _random_case(rng: np.random.Generator):
    """One randomized (graph, bindings, wrt) triple covering the objective family.

    Cases are resampled until every relu preactivation clears the kink by
    a wide margin relative to the probe step.
    """
    d = int(rng.integers(2, 5))
    hidden = [int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3)))]
    c = int(rng.integers(2, 5))
    dims = (d, *hidden, c)
    m = int(rng.integers(2, 5))
    kind = int(rng.integers(0, 4))
    target = ad.const(losses.onehot(rng.integers(0, c, size=m), c))

    param_nodes = model_mod.make_param_nodes(dims)
    logits = model_mod.logits_graph(dims, "x", param_nodes)
    if kind == 0:
        scalar = losses.ce_loss_expr(logits, target)
    elif kind == 1:
        scalar = losses.oe_uniform_loss_expr(logits)
    elif kind == 2:
        # Margins a few units outside the reachable energy range keep both
        # hinges active and smooth without inflating the loss magnitude.
        other = model_mod.logits_graph(dims, "x_out", param_nodes)
        scalar = losses.energy_bounded_loss_expr(logits, other, m_in=-8.0, m_out=5.0,
                                                 temperature=1.0)
    else:
        scalar = losses.ce_loss_expr(logits, target) + 0.5 * losses.oe_uniform_loss_expr(logits)
    wrt = [name for i in range(len(dims) - 1) for name in (f"W{i}", f"b{i}")]
    wrt += ["x"] + (["x_out"] if kind == 2 else [])

    for _ in range(1000):
        bindings = {}
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            bindings[f"W{i}"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            bindings[f"b{i}"] = rng.normal(0.0, 0.5, size=fan_out)
        bindings["x"] = rng.uniform(0.05, 0.95, size=(m, d))
        bindings["x_out"] = rng.uniform(0.05, 0.95, size=(m, d))
        if _hidden_preactivations(dims, bindings, ["x", "x_out"]) <= KINK_CLEARANCE:
            continue
        # Exact-zero coordinates (dead relu paths) are locally constant, so the
        # difference quotient is exactly zero too; only small nonzero gradients
        # fall below the oracle's resolution.
        flat = np.concatenate([g.reshape(-1)
                               for g in ad.gradient(scalar, bindings, wrt).values()])
        nonzero = np.abs(flat[flat != 0.0])
        if nonzero.size and nonzero.min() >= MIN_GRAD_MAGNITUDE:
            return scalar, bindings, wrt
    raise RuntimeError("could not sample a well-conditioned gradcheck case")


def run_suite(cases: int = 100, seed: int = 7, h: float = DEFAULT_STEP,
              tolerance: float = DEFAULT_TOLERANCE) -> GradcheckResult:
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(cases):
        scalar, bindings, wrt = _random_case(rng)
        err = ad.finite_diff_check(scalar, bindings, wrt, h=h)
        worst = max(worst, err)
    return GradcheckResult(cases=cases, max_relative_error=worst, tolerance=tolerance)
