"""Detection-quality metrics and the per-score detection report.

ID is the positive class throughout. FPR@TPR uses the largest threshold
whose TPR still reaches TPR (0.95), counting ties as positive; AUROC is
the Mann-Whitney statistic with ties worth one half; AUPR integrates the
precision-recall step curve from a descending-score sweep. A non-finite
score has no rank, so every metric rejects it with NumericError.

``DetectionReport`` and ``OodSetResult`` are report.json's schema: eval
writes a list of reports with ``data.dump`` and ``report`` reads it back
with ``data.parse``, the walker that also types the config. Their
``__post_init__`` checks each rate and rebuilds the average row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError

TPR = 0.95


def _validate_scores(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    id_scores = np.asarray(id_scores, dtype=np.float64).reshape(-1)
    ood_scores = np.asarray(ood_scores, dtype=np.float64).reshape(-1)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise DataError("score sets must be non-empty")
    if not (np.isfinite(id_scores).all() and np.isfinite(ood_scores).all()):
        raise NumericError("scores must be finite")
    return id_scores, ood_scores


def tpr_threshold(id_scores) -> float:
    """Largest threshold keeping at least TPR of the ID scores at or above it."""
    id_scores = np.asarray(id_scores, dtype=np.float64).reshape(-1)
    n = id_scores.size
    # #(id >= v) jumps only at observed values; candidates ascend, counts descend.
    candidates = np.unique(id_scores)
    counts = n - np.searchsorted(np.sort(id_scores), candidates, side="left")
    reaching = np.nonzero(counts / n >= TPR)[0]
    return float(candidates[reaching[-1]])


def fpr_at_tpr(id_scores, ood_scores) -> float:
    """Fraction of OOD scores at or above the TPR-calibrated threshold."""
    id_scores, ood_scores = _validate_scores(id_scores, ood_scores)
    lam = tpr_threshold(id_scores)
    return float(np.count_nonzero(ood_scores >= lam) / ood_scores.size)


def auroc(id_scores, ood_scores) -> float:
    """P(id > ood) + 0.5 P(id == ood) over all pairs.

    U = sum over ID scores of #(ood < id) + #(ood <= id), halved: integer
    counts from the sorted OOD scores, so U is exact.
    """
    id_scores, ood_scores = _validate_scores(id_scores, ood_scores)
    ood_sorted = np.sort(ood_scores)
    below = np.searchsorted(ood_sorted, id_scores, side="left").sum()
    at_or_below = np.searchsorted(ood_sorted, id_scores, side="right").sum()
    u = (below + at_or_below) / 2.0
    return float(u / (id_scores.size * ood_scores.size))


def aupr(id_scores, ood_scores) -> float:
    """Area under the precision-recall step curve, ID positive, descending sweep."""
    id_scores, ood_scores = _validate_scores(id_scores, ood_scores)
    n = id_scores.size
    # Counts at or above every distinct threshold, highest first; a threshold
    # above every ID score has no precision and adds no recall.
    thresholds = np.unique(np.concatenate([id_scores, ood_scores]))[::-1]
    tp = n - np.searchsorted(np.sort(id_scores), thresholds, side="left")
    fp = ood_scores.size - np.searchsorted(np.sort(ood_scores), thresholds, side="left")
    keep = tp > 0
    tp, fp = tp[keep], fp[keep]
    recall = tp / n
    precision = tp / (tp + fp)
    # cumsum, unlike np.sum, adds strictly left to right, as the step curve does.
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def id_accuracy(logits, labels) -> float:
    """Fraction of argmax hits over (m, C) logits and m labels in [0, C), which
    the CLI checks where it reads them; argmax ties resolve to the lowest class index."""
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def _check_rate(name: str, value: float) -> None:
    if not 0 <= value <= 1:
        raise DataError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class OodSetResult:
    set_name: str
    fpr95: float
    auroc: float
    aupr: float

    def __post_init__(self):
        for name in ("fpr95", "auroc", "aupr"):
            _check_rate(name, getattr(self, name))


@dataclass
class DetectionReport:
    """Primary output record: one row per OOD set, then their mean row "average",
    recomputed over the others, so a report read back equals the one written."""

    method: str
    score_kind: str
    id_accuracy: float
    seed: int | None = None
    config_digest: str | None = None
    ood_sets: tuple[OodSetResult, ...] = field(kw_only=True)

    def __post_init__(self):
        _check_rate("id_accuracy", self.id_accuracy)
        rows = tuple(r for r in self.ood_sets if r.set_name != "average")
        if not rows:
            raise DataError("report needs at least one OOD set")
        self.ood_sets = rows + (OodSetResult(
            "average", *(float(np.mean([getattr(r, k) for r in rows]))
                         for k in ("fpr95", "auroc", "aupr"))),)

    @property
    def average(self) -> OodSetResult:
        return self.ood_sets[-1]


def assemble_report(id_scores, ood_score_sets: dict[str, np.ndarray], *,
                    method: str, score_kind: str, id_acc: float,
                    seed: int | None = None, config_digest: str | None = None) -> DetectionReport:
    """Assemble all metrics for one score kind from precomputed scores."""
    return DetectionReport(
        method=method, score_kind=score_kind, id_accuracy=id_acc, seed=seed,
        config_digest=config_digest,
        ood_sets=tuple(OodSetResult(name, fpr_at_tpr(id_scores, scores), auroc(id_scores, scores),
                                    aupr(id_scores, scores))
                       for name, scores in ood_score_sets.items()))
