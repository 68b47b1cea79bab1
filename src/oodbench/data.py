"""Synthetic benchmark generators, CSV I/O and the one training batch order.

The benchmark geometry: C Gaussian blobs on a circle form the ID task;
auxiliary outliers live on an annulus arc (limited angular coverage) and
the unseen OOD test set covers the full ring. The generators return raw
coordinates. gen-data maps every set into DOMAIN, [0,1] per feature, through
one fixed box [-BOX_RADIUS, BOX_RADIUS] per feature (``fit_minmax``), so no
set's bytes depend on the other sets, and one normalized unit is 8.0 raw
units. The config keeps every aux and OOD row inside the box; an ID row
outside it (a draw about 16 sigma out) lands outside DOMAIN, which
``cli._read_csv`` refuses. Perturbation radii are in normalized input units,
and every perturbed input (extrapolation, ODIN) is clipped back into DOMAIN.

The generators and ``batches`` take values the run configuration has
already checked (see ``config``); the CSV reader checks each line it reads.
The CLI then checks each dataset CSV against what the code below it relies
on: at least one row, the model's feature width, every value inside DOMAIN
and every label in [0, C). gen-data output always meets this contract.

The JSON files are read and typed by ``config``'s schema layer, which also
holds the box half-width BOX_RADIUS that the config checks the radii
against. ``write_table`` writes the small result tables. ``save_csv`` and
``scoring.write_score_csv`` format the two large ones in blocks, the bytes of
a per-row ``csv.writer`` in less time (2-vCPU Xeon VM, best 3 of 7: 40k
dataset rows 55-94 ms against 89-92 ms, 272k scores 0.25-0.30 s against 0.59-0.70 s).
"""

from __future__ import annotations

import collections
import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics
from .config import BOX_RADIUS
from .errors import DataError

DOMAIN = (0.0, 1.0)
CSV_BLOCK_ROWS = 4096  # rows ``load_csv`` holds as field strings at a time
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


def fit_minmax(x: np.ndarray) -> np.ndarray:
    """Raw coordinates ``x`` mapped from the box [-BOX_RADIUS, BOX_RADIUS] onto DOMAIN.

    It fits nothing; perfbench traces gen-data's mapping under this name."""
    return (x + BOX_RADIUS) / (2 * BOX_RADIUS)


# -- generators ------------------------------------------------------------------


def gen_id_mixture_raw(n_classes: int, per_class: int, seed: int) -> LabeledDataset:
    """C Gaussian blobs of spread ID_SIGMA, means equally spaced on a circle of radius ID_RADIUS."""
    rng = numerics.rng(seed)
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
    rng = numerics.rng(seed)
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


def load_csv(path):
    """Parse a dataset CSV; a "label" column makes it labeled.

    The rows are read, checked and parsed in blocks of CSV_BLOCK_ROWS, so
    only one block's field strings are held at a time. If a block fails, a
    second scan of that block names its first bad line (field count, float,
    finite, label), which is the file's first: every earlier block passed.
    The rest of the file is still read, so a line that cannot be decoded,
    as UTF-8 or as CSV, is reported wherever it lies, as a whole-file read
    would report it.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                return _parse_rows(path, reader)
            except DataError:
                collections.deque(reader, maxlen=0)  # an undecodable later line takes precedence
                raise
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_rows(path: Path, reader):
    """The dataset whose header and rows ``reader`` yields, parsed block by block."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    has_label = bool(header) and header[-1] == "label"
    k = len(header) - has_label
    if not all(name == f"x{i}" for i, name in enumerate(header[:k])):
        raise DataError(f"{path}: unexpected header {header}")
    xs, ys = [np.empty((0, k))], [np.empty(0, dtype=np.intp)]
    lineno = 2
    while rows := list(itertools.islice(reader, CSV_BLOCK_ROWS)):
        try:
            # numpy converts each field with float() and refuses a ragged block;
            # the label column is converted too, but only its int() parse is kept.
            table = np.array(rows, dtype=np.float64)
            if table.shape[1] != len(header):
                raise ValueError("field count")
            x = table[:, :k]
            if not np.isfinite(x).all():
                raise ValueError("non-finite value")
            if has_label:
                ys.append(np.array([int(row[-1]) for row in rows], dtype=np.intp))
        except (ValueError, OverflowError):
            raise DataError(_first_bad_line(path, rows, lineno, len(header), has_label)) from None
        xs.append(x)
        lineno += len(rows)
    x = np.concatenate(xs)
    if has_label:
        return LabeledDataset(x, np.concatenate(ys))
    return UnlabeledDataset(x)


def _first_bad_line(path: Path, rows: list[list[str]], start: int, n_fields: int,
                    has_label: bool) -> str:
    """The error for the first bad line of ``rows``, the block that begins on
    line ``start``, checking each line's field count, then its floats, their
    finiteness and its label."""
    k = n_fields - has_label
    for lineno, row in enumerate(rows, start=start):
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
    raise AssertionError("the block parse failed on no line")


# -- batching --------------------------------------------------------------------


def batches(n: int, batch_size: int, *entropy: int):
    """The seeded batch order of both training streams: index slices of
    ``numerics.rng(*entropy).permutation(n)``, ``batch_size`` at a time; the last holds the rest."""
    order = numerics.rng(*entropy).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]
