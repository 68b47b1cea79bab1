"""Synthetic benchmark generators, CSV I/O and batching.

The benchmark geometry: C Gaussian blobs on a circle form the ID task;
auxiliary outliers live on an annulus arc (limited angular coverage) and
the unseen OOD test set covers the full ring. Raw coordinates are mapped
to [0,1]^d by a per-feature min-max transform fitted on the ID training
set, so perturbation radii are in normalized input units everywhere.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class LabeledDataset:
    x: np.ndarray   # (m, d)
    y: np.ndarray   # (m,), labels in [0, C)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.intp)
        if self.x.ndim != 2 or self.x.shape[0] != self.y.shape[0]:
            raise DataError("sample matrix and labels disagree on row count")

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class UnlabeledDataset:
    x: np.ndarray   # (m, d)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise DataError("sample matrix must be 2-D")

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class MinMaxTransform:
    """Per-feature min-max to [0,1] with clipping; zero-range features map to 0.5."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        span = self.maxs - self.mins
        degenerate = span == 0
        safe_span = np.where(degenerate, 1.0, span)
        out = np.clip((x - self.mins) / safe_span, 0.0, 1.0)
        if np.any(degenerate):
            out[:, degenerate] = 0.5
        return out

    def to_json(self) -> str:
        return json.dumps({"mins": self.mins.tolist(), "maxs": self.maxs.tolist()})

    @staticmethod
    def from_json(text: str) -> "MinMaxTransform":
        doc = json.loads(text)
        return MinMaxTransform(np.asarray(doc["mins"]), np.asarray(doc["maxs"]))


def fit_minmax(reference: np.ndarray) -> MinMaxTransform:
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape[0] == 0:
        raise DataError("reference dataset is empty")
    t = MinMaxTransform(reference.min(axis=0), reference.max(axis=0))
    if np.any(t.maxs - t.mins == 0):
        warnings.warn("zero-range feature: normalized value pinned to 0.5", stacklevel=2)
    return t


# -- generators ------------------------------------------------------------------


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gen_id_mixture_raw(n_classes: int, per_class: int, radius: float, sigma: float,
                       seed: int) -> LabeledDataset:
    """C Gaussian blobs with means equally spaced on a circle, raw coordinates."""
    if n_classes < 2:
        raise ConfigError("need at least 2 classes")
    if per_class < 0 or radius <= 0 or sigma < 0:
        raise ConfigError("invalid mixture parameters")
    rng = _rng(seed)
    xs = []
    ys = []
    for c in range(n_classes):
        angle = 2.0 * np.pi * c / n_classes
        center = radius * np.array([np.cos(angle), np.sin(angle)])
        xs.append(center + sigma * rng.standard_normal((per_class, 2)))
        ys.append(np.full(per_class, c, dtype=np.intp))
    if per_class == 0:
        return LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.intp))
    return LabeledDataset(np.concatenate(xs), np.concatenate(ys))


def _annulus_raw(inner_r: float, outer_r: float, n: int, rng: np.random.Generator,
                 angle_lo: float, angle_hi: float) -> np.ndarray:
    if not 0 < inner_r < outer_r:
        raise ConfigError("need 0 < inner radius < outer radius")
    theta = rng.uniform(angle_lo, angle_hi, size=n)
    # Area-uniform radius within the band.
    u = rng.uniform(0.0, 1.0, size=n)
    r = np.sqrt(inner_r ** 2 + u * (outer_r ** 2 - inner_r ** 2))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def gen_ring_ood_raw(inner_r: float, outer_r: float, n: int, seed: int) -> UnlabeledDataset:
    """Uniform annulus samples over the full circle, raw coordinates."""
    return UnlabeledDataset(_annulus_raw(inner_r, outer_r, n, _rng(seed), 0.0, 2.0 * np.pi))


def gen_ring_ood(inner_r: float, outer_r: float, n: int, seed: int,
                 transform: MinMaxTransform) -> UnlabeledDataset:
    """Full-ring OOD set, normalized with the ID dataset's transform."""
    raw = gen_ring_ood_raw(inner_r, outer_r, n, seed)
    return UnlabeledDataset(transform.apply(raw.x))


def gen_arc_outliers_raw(inner_r: float, outer_r: float, arc_fraction: float, n: int,
                         seed: int) -> UnlabeledDataset:
    """Annulus samples restricted to a contiguous arc starting at angle 0."""
    if not 0.0 < arc_fraction <= 1.0:
        raise ConfigError("arc_fraction must lie in (0, 1]")
    rng = _rng(seed)
    return UnlabeledDataset(_annulus_raw(inner_r, outer_r, n, rng,
                                         0.0, 2.0 * np.pi * arc_fraction))


def gen_arc_outliers(inner_r: float, outer_r: float, arc_fraction: float, n: int,
                     seed: int, transform: MinMaxTransform) -> UnlabeledDataset:
    """Limited-coverage auxiliary outliers, normalized with the ID transform."""
    raw = gen_arc_outliers_raw(inner_r, outer_r, arc_fraction, n, seed)
    return UnlabeledDataset(transform.apply(raw.x))


# -- CSV I/O ---------------------------------------------------------------------


def save_csv(dataset, path) -> None:
    """Header + rows with 17-significant-digit floats; byte output is deterministic."""
    x = dataset.x
    labeled = isinstance(dataset, LabeledDataset)
    header = [f"x{i}" for i in range(x.shape[1])] + (["label"] if labeled else [])
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(x.shape[0]):
            row = [format(v, ".17g") for v in x[i]]
            if labeled:
                row.append(str(int(dataset.y[i])))
            writer.writerow(row)


def load_csv(path):
    """Parse a dataset CSV; a "label" column makes it labeled.

    Malformed rows and non-finite values report their line number.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        has_label = header and header[-1] == "label"
        feature_cols = header[:-1] if has_label else header
        if not all(name == f"x{i}" for i, name in enumerate(feature_cols)):
            raise DataError(f"{path}: unexpected header {header}")
        xs = []
        ys = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [float(v) for v in row[: len(feature_cols)]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not all(np.isfinite(values)):
                raise DataError(f"{path}:{lineno}: non-finite value")
            xs.append(values)
            if has_label:
                try:
                    ys.append(int(row[-1]))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad label {row[-1]!r}") from None
    x = np.asarray(xs, dtype=np.float64).reshape(len(xs), len(feature_cols))
    if has_label:
        return LabeledDataset(x, np.asarray(ys, dtype=np.intp))
    return UnlabeledDataset(x)


# -- batching --------------------------------------------------------------------


def batches(dataset, batch_size: int, seed: int):
    """One seeded-shuffle pass over the dataset in deterministic batch order."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    x = dataset.x
    y = dataset.y if isinstance(dataset, LabeledDataset) else None
    order = _rng(seed).permutation(x.shape[0])
    for start in range(0, x.shape[0], batch_size):
        idx = order[start:start + batch_size]
        if y is None:
            yield x[idx]
        else:
            yield x[idx], y[idx]
