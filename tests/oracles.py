"""Brute-force oracle twins for the detection metrics, informative
extrapolation, the finite-difference gradient check and the Gaussian-mixture
outlier sampler.

Every function here recomputes its result from the definition with plain
loops, independent of the library implementations.
"""

import math

import numpy as np

from oodbench import autodiff as ad
from oodbench import gmm_theory
from oodbench import losses
from oodbench import model as model_mod
from oodbench.data import DOMAIN
from oodbench.errors import NumericError
from oodbench.extrapolation import ExtrapolatedBatch


def auroc_pairwise(id_scores, ood_scores) -> float:
    """Mean over all (id, ood) pairs of 1 / 0.5 / 0."""
    total = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(id_scores) * len(ood_scores))


def fpr_at_tpr_sweep(id_scores, ood_scores, tpr=0.95) -> float:
    """Largest threshold with TPR >= tpr by explicit sweep; ties count at >=."""
    id_scores = list(id_scores)
    best = None
    for lam in sorted(set(id_scores), reverse=True):
        reached = sum(1 for s in id_scores if s >= lam) / len(id_scores)
        if reached >= tpr:
            best = lam
            break
    assert best is not None
    return sum(1 for s in ood_scores if s >= best) / len(ood_scores)


def aupr_sweep(id_scores, ood_scores) -> float:
    """Step-interpolated area under precision-recall by per-threshold recount."""
    thresholds = sorted(set(list(id_scores) + list(ood_scores)), reverse=True)
    area = 0.0
    prev_recall = 0.0
    n = len(id_scores)
    for lam in thresholds:
        tp = sum(1 for s in id_scores if s >= lam)
        fp = sum(1 for s in ood_scores if s >= lam)
        if tp == 0:
            continue
        recall = tp / n
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def pgd_extrapolate_rowwise(mlp, x0, cfg, epsilons) -> ExtrapolatedBatch:
    """Best-iterate sign-gradient ascent of the uniform loss, one row and one
    1-row pass at a time.

    Row i uses radius ``epsilons[i]`` and step 2*epsilons[i]/cfg.steps; a
    row with radius 0, or every row when cfg.steps is 0, is evaluated once
    at its origin. A non-finite value or gradient returns the row's origin,
    flagged, with its initial value (NaN if the first pass failed).
    """
    scalar = ad.Objective(ad.Term(losses.oe_rows, model_mod.logits_graph(mlp.dims)))
    bindings = model_mod.param_bindings(mlp)

    def one_row(row, epsilon):
        x0 = row[None, :]
        steps = 0 if epsilon == 0.0 else cfg.steps
        alpha = 2.0 * epsilon / steps if steps else 0.0
        lo, hi = x0 - epsilon, x0 + epsilon
        x = best_x = x0
        best_v = v0 = None
        try:
            for t in range(steps + 1):
                b = dict(bindings)
                b["x"] = x
                if t < steps:
                    raw_v, grads, _ = ad.value_and_grad(scalar, b, ["x"])
                else:
                    raw_v, grads = ad.evaluate(scalar, b), None
                v = float(raw_v)
                if t == 0:
                    v0 = best_v = v
                elif v > best_v:
                    best_x, best_v = x, v
                if grads is not None:
                    x = np.clip(np.clip(x + alpha * np.sign(grads["x"]), *DOMAIN), lo, hi)
        except NumericError:
            v = math.nan if v0 is None else v0
            return row.copy(), v, v, True
        return best_x[0].copy(), v0, best_v, False

    epsilons = [float(e) for e in epsilons]
    results = [one_row(row, eps) for row, eps in zip(np.asarray(x0, dtype=np.float64), epsilons)]
    n = len(results)
    return ExtrapolatedBatch(
        origins=np.asarray(x0, dtype=np.float64).copy(),
        synthesized=np.array([r[0] for r in results]).reshape(n, mlp.n_features),
        epsilons=np.array(epsilons, dtype=np.float64),
        initial_values=np.array([r[1] for r in results], dtype=np.float64),
        final_values=np.array([r[2] for r in results], dtype=np.float64),
        aborted=np.array([r[3] for r in results], dtype=bool),
    )


def finite_diff_check_loop(objective, bindings, grads, h=1e-5) -> float:
    """Max over coordinates of |analytic - central difference| / (|analytic| + 1e-12),
    for the analytic gradients ``grads``, perturbing one coordinate at a time
    with two unstacked passes each."""
    work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in bindings.items()}
    worst = 0.0
    for name, grad in grads.items():
        flat = work[name].reshape(-1)
        analytic = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(ad.evaluate(objective, work))
            flat[i] = orig - h
            down = float(ad.evaluate(objective, work))
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(analytic[i] - fd) / (abs(analytic[i]) + 1e-12)
            if err > worst:
                worst = err
    return worst


def constrained_outliers_full(spec, n, level, rng) -> np.ndarray:
    """Rejection-sample n points from N(-mu, sigma^2 I) with |2 x^T mu| <= sigma^2 * level,
    drawing every candidate as a full d-dimensional point."""
    threshold = spec.sigma ** 2 * level / 2.0
    accepted = []
    drawn = 0
    chunk = max(2048, 4 * n)
    while sum(a.shape[0] for a in accepted) < n:
        if drawn >= gmm_theory.MAX_REJECTION_DRAWS:
            raise NumericError(
                f"rejection sampler exhausted {gmm_theory.MAX_REJECTION_DRAWS} draws "
                f"(acceptance too rare for level={level})")
        batch = -spec.mu + spec.sigma * rng.standard_normal((chunk, spec.dim))
        drawn += chunk
        keep = np.abs(batch @ spec.mu) <= threshold
        if np.any(keep):
            accepted.append(batch[keep])
    return np.concatenate(accepted)[:n]
