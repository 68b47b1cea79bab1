"""Synthetic benchmark generators, CSV I/O and batching.

The benchmark geometry: C Gaussian blobs on a circle form the ID task;
auxiliary outliers live on an annulus arc (limited angular coverage) and
the unseen OOD test set covers the full ring. The generators return raw
coordinates. gen-data maps every set into DOMAIN, [0,1] per feature, through
one symmetric box [-R, R] per feature (``fit_minmax``) that holds every set,
so no value is clipped and one normalized unit is 2R raw units. Perturbation
radii are in normalized input units, and every perturbed input
(extrapolation, ODIN) is clipped back into DOMAIN.

The generators and ``batches`` take values the run configuration has
already checked (see ``config``); the CSV reader checks each line it reads.
The CLI then checks each dataset CSV against what the code below it relies
on: at least one row, the model's feature width, every value inside DOMAIN
and every label in [0, C). gen-data output always meets this contract.

``read_json`` reads each JSON input (config, checkpoint, report) and maps
any file it cannot read or parse to the caller's typed error. ``parse`` and
``dump`` then type every JSON file in one walk over a dataclass schema:
``config.RunConfig``, ``metrics.DetectionReport`` (report.json is a list of
them) and ``model.Checkpoint``, whose fields are each file's keys in order.
``parse`` holds the one magnitude rule for float inputs: a float, or an int
read as one, needs ``abs(value) <= MAX_MAGNITUDE`` (1e100), which also
refuses NaN and infinities. No formula multiplies more than three inputs
(sigma**2 * (alpha - tau), balance * hinge**2, lr * gradient), so every such
product stays below about 1e300 and finite in float64.
A checkpoint's weights and biases stay bare lists that
``model._parameters`` types with numpy: walking the 4612 numbers of a
2-64-64-4 model one at a time took 7.0 ms against numpy's 0.5 ms (2-vCPU
Xeon VM, in process), while the walk over the rest costs about 30 us.
``write_table`` writes the small result tables. ``save_csv`` and
``scoring.write_score_csv`` format the two large ones in blocks, the bytes of
a per-row ``csv.writer`` in less time (2-vCPU Xeon VM, best 3 of 7: 40k
dataset rows 55-94 ms against 89-92 ms, 272k scores 0.25-0.30 s against 0.59-0.70 s).
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import functools
import itertools
import json
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, OodbenchError

DOMAIN = (0.0, 1.0)
MAX_MAGNITUDE = 1e100  # the largest |value| ``parse`` accepts for a float
# The most values of one array a config may size (see ``config``): 2**27 float64 is
# 1 GiB, which a desk machine holds, and 1024 times the default config's largest
# array (a 2048-row set through a 64-wide layer). A size no machine could allocate
# is then a ConfigError before any work, not numpy's MemoryError midway.
MAX_ELEMENTS = 2 ** 27
FEATURES = 2  # columns of each generated set
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


def fit_minmax(outer_radii, *xs: np.ndarray) -> float:
    """R, the half-width of the box [-R, R] per feature that gen-data maps onto
    DOMAIN: the largest of ``outer_radii``, or the largest |coordinate| of the
    raw sets ``xs`` if one lies further out (an ID blob's tail can). Every
    coordinate then has |x| <= R, so ``(x + R) / (2 * R)`` lies in DOMAIN."""
    return max([*outer_radii, *(float(np.abs(x).max()) for x in xs)])


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
        raise error(f"{what} {path} not found") from None
    except OSError as exc:  # a directory, or a file we may not read
        raise error(f"{what} {path} cannot be read: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


@functools.cache
def _schema(cls) -> tuple[tuple[dataclasses.Field, typing.Any], ...]:
    """(field, resolved type) for each key of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


def parse(tp, value, where: str):
    """Build a value of type ``tp`` from its JSON form; ``where`` names it in errors.

    A dataclass is an object with no unknown key and every key without a
    default; a ``tuple[T, ...]`` is a list; a bool is not a number, an
    integral float is an int, and an int widens to a float. A float must have
    ``abs(value) <= MAX_MAGNITUDE``, which refuses NaN and the infinities too:
    a product of up to three such values stays finite. A wrong value raises
    ConfigError; an error a dataclass raises from its own checks keeps its
    class and gains the dataclass's place.
    """
    if dataclasses.is_dataclass(tp):
        label = where or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{label} must be an object, got {value!r}")
        schema = _schema(tp)
        unknown = sorted(set(value) - {f.name for f, _ in schema})
        if unknown:
            raise ConfigError(f"unknown key(s) in {label}: {unknown}")
        kwargs = {}
        for f, ftp in schema:
            if f.name in value:
                kwargs[f.name] = parse(ftp, value[f.name], f"{where}.{f.name}" if where else f.name)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{label} needs a {f.name!r} key")
        try:
            return tp(**kwargs)
        except OodbenchError as exc:
            raise type(exc)(f"{label}: {exc}") from None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return parse(inner, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where} must have {len(args)} items, got {len(value)}")
        return tuple(parse(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        return {parse(args[0], k, where): parse(args[1], v, f"{where}.{k}")
                for k, v in value.items()}
    if isinstance(value, bool) and tp is not bool:
        raise ConfigError(f"{where} must be {tp.__name__}, got {value!r}")
    if tp is float and isinstance(value, (int, float)):
        if not abs(value) <= MAX_MAGNITUDE:  # also false for NaN
            raise ConfigError(f"{where} must be finite, of magnitude <= {MAX_MAGNITUDE:g}, "
                              f"got {value!r}")
        return float(value)
    if tp is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, tp):
        raise ConfigError(f"{where} must be {tp.__name__}, got {value!r}")
    return value


def dump(value):
    """JSON form of a value ``parse`` builds; its inverse."""
    if dataclasses.is_dataclass(value):
        return {f.name: dump(getattr(value, f.name)) for f, _ in _schema(type(value))}
    if isinstance(value, tuple):
        return [dump(v) for v in value]
    if isinstance(value, dict):
        return {k: dump(v) for k, v in value.items()}
    return value


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


def batches(dataset: LabeledDataset, batch_size: int, seed: int):
    """One seeded-shuffle pass over (x, y) batches in deterministic order."""
    order = _rng(seed).permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start:start + batch_size]
        yield dataset.x[idx], dataset.y[idx]
