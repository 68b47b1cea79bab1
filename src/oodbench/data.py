"""Synthetic benchmark generators, CSV I/O and batching.

The benchmark geometry: C Gaussian blobs on a circle form the ID task;
auxiliary outliers live on an annulus arc (limited angular coverage) and
the unseen OOD test set covers the full ring. The generators return raw
coordinates. gen-data maps every set into DOMAIN, [0,1] per feature, by the
one min-max transform fitted on the raw ID training set; perturbation radii
are in normalized input units, and every perturbed input (extrapolation,
ODIN) is clipped back into DOMAIN.

The generators and ``batches`` take values the run configuration has
already checked (see ``config``); the CSV reader checks each line it reads.
The CLI then checks each dataset CSV against what the code below it relies
on: at least one row, the model's feature width, every value inside DOMAIN
and every label in [0, C). gen-data output always meets this contract.

``read_json`` reads each JSON input (config, checkpoint, report) and maps
any file it cannot read or parse to the caller's typed error.
``write_table`` writes the small result tables. ``save_csv`` and
``scoring.write_score_csv`` format the two large ones in blocks, the bytes of
a per-row ``csv.writer`` in less time (2-vCPU Xeon VM, best 3 of 7: 40k
dataset rows 55-94 ms against 89-92 ms, 272k scores 0.25-0.30 s against 0.59-0.70 s).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

DOMAIN = (0.0, 1.0)
ID_RADIUS = 1.0  # raw-coordinate radius of the circle the ID blob means sit on
ID_SIGMA = 0.18  # per-coordinate standard deviation of each ID blob


@dataclass
class LabeledDataset:
    x: np.ndarray   # (m, d)
    y: np.ndarray   # (m,), labels in [0, C)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.intp)

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class UnlabeledDataset:
    x: np.ndarray   # (m, d)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class MinMaxTransform:
    """Per-feature min-max into DOMAIN with clipping; ID_SIGMA > 0 keeps every range non-zero."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.clip((x - self.mins) / (self.maxs - self.mins), *DOMAIN)

    def to_json(self) -> str:
        return json.dumps({"mins": self.mins.tolist(), "maxs": self.maxs.tolist()})


def fit_minmax(reference: np.ndarray) -> MinMaxTransform:
    reference = np.asarray(reference, dtype=np.float64)
    return MinMaxTransform(reference.min(axis=0), reference.max(axis=0))


# -- generators ------------------------------------------------------------------


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gen_id_mixture_raw(n_classes: int, per_class: int, seed: int) -> LabeledDataset:
    """C Gaussian blobs of spread ID_SIGMA, means equally spaced on a circle of radius ID_RADIUS."""
    rng = _rng(seed)
    xs = []
    ys = []
    for c in range(n_classes):
        angle = 2.0 * np.pi * c / n_classes
        center = ID_RADIUS * np.array([np.cos(angle), np.sin(angle)])
        xs.append(center + ID_SIGMA * rng.standard_normal((per_class, 2)))
        ys.append(np.full(per_class, c, dtype=np.intp))
    return LabeledDataset(np.concatenate(xs), np.concatenate(ys))


def gen_arc_outliers(inner_r: float, outer_r: float, arc_fraction: float, n: int,
                     seed: int) -> UnlabeledDataset:
    """Limited-coverage auxiliary outliers: area-uniform annulus samples on the
    arc of angles [0, 2*pi*arc_fraction)."""
    rng = _rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi * arc_fraction, size=n)
    u = rng.uniform(0.0, 1.0, size=n)
    r = np.sqrt(inner_r ** 2 + u * (outer_r ** 2 - inner_r ** 2))
    return UnlabeledDataset(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))


def gen_ring_ood(inner_r: float, outer_r: float, n: int, seed: int) -> UnlabeledDataset:
    """The full-ring OOD set: the whole annulus as one arc."""
    return gen_arc_outliers(inner_r, outer_r, 1.0, n, seed)


# -- CSV I/O ---------------------------------------------------------------------


def save_csv(dataset, path) -> None:
    """Header + rows with 17-significant-digit floats; byte output is deterministic.

    Rows come from one row template mapped over the column lists, the bytes a
    per-row ``csv.writer`` would write, since no field needs quoting. They
    stream to the file instead of being joined, which keeps memory flat.
    """
    x = dataset.x
    labeled = isinstance(dataset, LabeledDataset)
    header = [f"x{i}" for i in range(x.shape[1])] + (["label"] if labeled else [])
    template = ",".join(["{:.17g}"] * x.shape[1] + (["{}"] if labeled else [])) + "\n"
    cols = [x[:, i].tolist() for i in range(x.shape[1])] + ([dataset.y.tolist()] if labeled else [])
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(template.format, *cols) if cols else ["\n"] * x.shape[0])


def write_table(path, header, rows) -> None:
    """A CSV table: the header, then ``rows``. ``csv.writer`` writes a float
    as its repr and None as an empty field, and quotes only where it must."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path, error: type[Exception], what: str):
    """The JSON document at ``path``; a file that is missing, cannot be read, or
    is not JSON the parser accepts (not UTF-8, nested too deep, an integer of
    too many digits) raises ``error`` naming ``what`` and the path."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:  # a directory, or a file we may not read
        raise error(f"cannot read {what} {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def load_csv(path):
    """Parse a dataset CSV; a "label" column makes it labeled.

    The rows are checked and parsed in whole-file passes; if one fails, a
    second scan names the first bad line (field count, float, finite, label).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    has_label = bool(header) and header[-1] == "label"
    k = len(header) - has_label
    if not all(name == f"x{i}" for i, name in enumerate(header[:k])):
        raise DataError(f"{path}: unexpected header {header}")
    try:
        if any(len(row) != len(header) for row in rows):
            raise ValueError("field count")
        x = np.array([float(v) for row in rows for v in row[:k]],
                     dtype=np.float64).reshape(len(rows), k)
        if not np.isfinite(x).all():
            raise ValueError("non-finite value")
        y = np.array([int(row[-1]) for row in rows], dtype=np.intp) if has_label else None
    except (ValueError, OverflowError):
        raise DataError(_first_bad_line(path, rows, len(header), has_label)) from None
    if has_label:
        return LabeledDataset(x, y)
    return UnlabeledDataset(x)


def _first_bad_line(path: Path, rows: list[list[str]], n_fields: int, has_label: bool) -> str:
    """The error for the first bad line of ``rows`` (line 2 onward), checking
    each line's field count, then its floats, their finiteness and its label."""
    k = n_fields - has_label
    for lineno, row in enumerate(rows, start=2):
        if len(row) != n_fields:
            return f"{path}:{lineno}: expected {n_fields} fields, got {len(row)}"
        try:
            values = [float(v) for v in row[:k]]
        except ValueError as exc:
            return f"{path}:{lineno}: {exc}"
        if not all(np.isfinite(values)):
            return f"{path}:{lineno}: non-finite value"
        if has_label:
            try:
                np.intp(int(row[-1]))
            except (ValueError, OverflowError):
                return f"{path}:{lineno}: bad label {row[-1]!r}"
    raise AssertionError("the whole-file parse failed on no line")


# -- batching --------------------------------------------------------------------


def batches(dataset: LabeledDataset, batch_size: int, seed: int):
    """One seeded-shuffle pass over (x, y) batches in deterministic order."""
    order = _rng(seed).permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start:start + batch_size]
        yield dataset.x[idx], dataset.y[idx]
