"""Brute-force oracle twins for the detection metrics and informative
extrapolation.

Every function here recomputes its result from the definition with plain
loops, independent of the library implementations.
"""

import math

import numpy as np

from oodbench import autodiff as ad
from oodbench import losses
from oodbench import model as model_mod
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
    """Best-iterate sign-gradient ascent, one row and one 1-row graph pass at a time.

    Row i uses radius ``epsilons[i]``; a row with radius 0, or every row
    when cfg.steps is 0, is evaluated once at its origin. A non-finite value
    or gradient returns the row's origin, flagged, with its initial value
    (NaN if the first pass failed).
    """
    logits_node = model_mod.logits_graph(mlp.dims)
    if cfg.target == "uniform_loss":
        scalar = ad.reduce_mean(losses.oe_rowwise_expr(logits_node))
    elif cfg.target == "msp":
        scalar = ad.reduce_sum(ad.mul(ad.log_softmax(logits_node), ad.inp("class_onehot")))
    else:
        t = float(cfg.target_temperature)
        scalar = ad.reduce_mean(ad.affine(ad.logsumexp(ad.affine(logits_node, 1.0 / t), axis=1), t))
    needs_onehot = cfg.target == "msp"
    bindings = model_mod.param_bindings(mlp)
    sign_dir = 1.0 if cfg.direction == "maximize" else -1.0
    dlo, dhi = cfg.clamp

    def better(a, b):
        return a > b if cfg.direction == "maximize" else a < b

    def one_row(row, epsilon):
        x0 = row[None, :]
        steps = 0 if epsilon == 0.0 else cfg.steps
        alpha = cfg.effective_step_size(epsilon)
        lo, hi = x0 - epsilon, x0 + epsilon
        x = best_x = x0
        best_v = v0 = None
        try:
            for t in range(steps + 1):
                b = dict(bindings)
                b["x"] = x
                if needs_onehot:
                    raw = ad.evaluate(logits_node, b)
                    onehot = np.zeros((1, mlp.n_classes))
                    onehot[0, int(np.argmax(raw[0]))] = 1.0
                    b["class_onehot"] = onehot
                if t < steps:
                    raw_v, grads, _ = ad.value_and_grad(scalar, b, ["x"])
                else:
                    raw_v, grads = ad.evaluate(scalar, b), None
                v = math.exp(float(raw_v)) if needs_onehot else float(raw_v)
                if t == 0:
                    v0 = best_v = v
                elif better(v, best_v):
                    best_x, best_v = x, v
                if grads is not None:
                    x = np.clip(np.clip(x + alpha * sign_dir * np.sign(grads["x"]), dlo, dhi),
                                lo, hi)
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
