"""Detection-quality metrics and the per-score detection report.

ID is the positive class throughout. FPR@TPR uses the largest threshold
whose TPR still reaches the target, counting ties as positive; AUROC is
the Mann-Whitney statistic with ties worth one half; AUPR integrates the
precision-recall step curve from a descending-score sweep. A non-finite
score has no rank, so every metric rejects it with NumericError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError


def _validate_scores(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    id_scores = np.asarray(id_scores, dtype=np.float64).reshape(-1)
    ood_scores = np.asarray(ood_scores, dtype=np.float64).reshape(-1)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise DataError("score sets must be non-empty")
    if not (np.isfinite(id_scores).all() and np.isfinite(ood_scores).all()):
        raise NumericError("scores must be finite")
    return id_scores, ood_scores


def tpr_threshold(id_scores, tpr: float = 0.95) -> float:
    """Largest threshold keeping at least ``tpr`` of the ID scores at or above it."""
    id_scores = np.asarray(id_scores, dtype=np.float64).reshape(-1)
    if id_scores.size == 0:
        raise DataError("score sets must be non-empty")
    if tpr <= 0:
        return np.inf
    if tpr > 1:
        raise ConfigError("tpr must lie in (0, 1]")
    n = id_scores.size
    # #(id >= v) jumps only at observed values; candidates ascend, counts descend.
    candidates = np.unique(id_scores)
    counts = n - np.searchsorted(np.sort(id_scores), candidates, side="left")
    reaching = np.nonzero(counts / n >= tpr)[0]
    return float(candidates[reaching[-1]])


def fpr_at_tpr(id_scores, ood_scores, tpr: float = 0.95) -> float:
    """Fraction of OOD scores at or above the TPR-calibrated threshold."""
    id_scores, ood_scores = _validate_scores(id_scores, ood_scores)
    lam = tpr_threshold(id_scores, tpr)
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
    id_sorted = np.sort(id_scores)
    ood_sorted = np.sort(ood_scores)
    thresholds = np.unique(np.concatenate([id_scores, ood_scores]))[::-1]
    area = 0.0
    prev_recall = 0.0
    for lam in thresholds:
        tp = n - np.searchsorted(id_sorted, lam, side="left")
        fp = ood_sorted.size - np.searchsorted(ood_sorted, lam, side="left")
        if tp == 0:
            continue
        recall = tp / n
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return float(area)


def id_accuracy(logits, labels) -> float:
    """Fraction of argmax hits; argmax ties resolve to the lowest class index."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeError("logits and labels disagree")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ConfigError("label out of range")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


@dataclass
class OodSetResult:
    set_name: str
    fpr95: float
    auroc: float
    aupr: float


@dataclass
class DetectionReport:
    """Primary output record: one row per OOD set plus a macro-average row."""

    method: str
    score_kind: str
    id_accuracy: float
    results: list[OodSetResult]
    seed: int | None = None
    config_digest: str | None = None
    average: OodSetResult = field(init=False)

    def __post_init__(self):
        if not self.results:
            raise DataError("report needs at least one OOD set")
        self.average = OodSetResult(
            set_name="average",
            fpr95=float(np.mean([r.fpr95 for r in self.results])),
            auroc=float(np.mean([r.auroc for r in self.results])),
            aupr=float(np.mean([r.aupr for r in self.results])),
        )

    def to_dict(self) -> dict:
        rows = self.results + [self.average]
        return {
            "method": self.method,
            "score_kind": self.score_kind,
            "id_accuracy": self.id_accuracy,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "ood_sets": [
                {"set_name": r.set_name, "fpr95": r.fpr95, "auroc": r.auroc, "aupr": r.aupr}
                for r in rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_dict(doc: dict) -> "DetectionReport":
        rows = [OodSetResult(r["set_name"], r["fpr95"], r["auroc"], r["aupr"])
                for r in doc["ood_sets"] if r["set_name"] != "average"]
        return DetectionReport(method=doc["method"], score_kind=doc["score_kind"],
                               id_accuracy=doc["id_accuracy"], results=rows,
                               seed=doc.get("seed"), config_digest=doc.get("config_digest"))

    @staticmethod
    def from_json(text: str) -> "DetectionReport":
        return DetectionReport.from_dict(json.loads(text))


def assemble_report(id_scores, ood_score_sets: dict[str, np.ndarray], *,
                    method: str, score_kind: str, id_acc: float,
                    seed: int | None = None, config_digest: str | None = None) -> DetectionReport:
    """Assemble all metrics for one score kind from precomputed scores."""
    if not ood_score_sets:
        raise DataError("at least one OOD set required")
    results = [
        OodSetResult(
            set_name=name,
            fpr95=fpr_at_tpr(id_scores, scores, 0.95),
            auroc=auroc(id_scores, scores),
            aupr=aupr(id_scores, scores),
        )
        for name, scores in ood_score_sets.items()
    ]
    return DetectionReport(method=method, score_kind=score_kind, id_accuracy=id_acc,
                           results=results, seed=seed, config_digest=config_digest)

