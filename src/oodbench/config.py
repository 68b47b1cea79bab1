"""Run configuration: a strict JSON document with sections
{data, model, train, extrapolation, scores, outputs, theory, seed}, and the
one JSON schema layer of the program.

The dataclasses are the schema. ``parse_config`` builds a RunConfig from JSON
with ``parse``, the walker over their fields and type hints that types every
JSON file, and ``RunConfig.to_dict`` walks the same fields back with ``dump``,
so every default is stated once, on its field. An unknown key, a missing
required key, a wrong JSON type, a wrong tuple length or a float of magnitude
above MAX_MAGNITUDE (1e100; JSON's NaN/Infinity too) raises ConfigError, so
stale or malformed manifests fail loudly. Each value is checked once, in its
dataclass's ``__post_init__``, so a bad value fails before a command does any
work, and the code below the CLI trusts the values it receives. A
checkpoint's layers, not ``model.hidden``, say if ASH can score it. Integer
sizes obey one rule, ``check_size``: no array a config sizes may hold more
than MAX_ELEMENTS values. Counts that cost only time (epochs, extrapolation
steps, theory trials) stay unbounded.

``read_json`` reads each JSON input (config, checkpoint, report) and maps any
file it cannot read or parse to the caller's typed error. ``parse`` and
``dump`` then type every JSON file in one walk over a dataclass schema:
``RunConfig``, ``metrics.DetectionReport`` (report.json is a list of them)
and ``model.Checkpoint``, whose fields are each file's keys in order.
``parse`` holds the one magnitude rule for float inputs: a float, or an int
read as one, needs ``abs(value) <= MAX_MAGNITUDE``, which also refuses NaN
and infinities. No formula multiplies more than three inputs (sigma**2 *
(alpha - tau), balance * hinge**2, lr * gradient), so every such product
stays below about 1e300 and finite in float64. A checkpoint's weights and
biases stay bare lists that ``model._parameters`` types with numpy: walking
the 4612 numbers of a 2-64-64-4 model one at a time took 7.0 ms against
numpy's 0.5 ms (2-vCPU Xeon VM, in process), while the walk over the rest
costs about 30 us.

All randomness flows from the one top-level seed, split per component
(data / model / train / theory) through named substreams.

This module holds every section's dataclass, the loss kinds table
``LOSS_KINDS``, which says what each loss kind trains on (the score kinds
are ``ScoreSpec.KINDS``), and the bounds the config checks; ``losses``,
``extrapolation`` and ``data`` import the names they read from here. ``cli``
loads it for every command, before it knows the command, so it imports only
errors and the standard library: parsing a config, ``--help`` and a
refused config load no numpy. ``component_seed`` imports ``numerics`` when
it is called.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, OodbenchError

MAX_MAGNITUDE = 1e100  # the largest |value| ``parse`` accepts for a float
# The most values of one array a config may size: 2**27 float64 is 1 GiB, which
# a desk machine holds, and 1024 times the default config's largest array (a
# 2048-row set through a 64-wide layer). A size no machine could allocate is
# then a ConfigError before any work, not numpy's MemoryError midway.
MAX_ELEMENTS = 2 ** 27
FEATURES = 2  # columns of each generated set
# Half-width of gen-data's raw box (``data.fit_minmax``): fixed, so no test set
# rescales the training data, and the smallest that holds a far OOD set out to
# radius 4.0.
BOX_RADIUS = 4.0

SCHEMA_VERSION = 1

MIN_DIVISOR = 1.0 / MAX_MAGNITUDE  # the least |value| of a config value the program divides by

COMPONENT_STREAMS = {"data": 0, "model": 1, "train": 2, "theory": 4}  # 3 is retired


def component_seed(seed: int, component: str) -> int:
    """The seed of ``component``'s stream. numerics is imported here, not with the
    module: it loads numpy, which parsing a config does not need."""
    from .numerics import derive_seed

    return derive_seed(seed, COMPONENT_STREAMS[component])


def check_size(what: str, *factors: int) -> None:
    """Refuse ``what``, an array of prod(factors) values, above MAX_ELEMENTS."""
    if math.prod(factors) > MAX_ELEMENTS:
        raise ConfigError(f"{what} of {' x '.join(map(str, factors))} values exceeds "
                          f"config.MAX_ELEMENTS ({MAX_ELEMENTS})")


@dataclass(frozen=True)
class OodSetConfig:
    """An annulus of raw radii inner < outer <= BOX_RADIUS, sampled ``count`` times."""

    inner_radius: float = 1.5
    outer_radius: float = 2.2
    count: int = 2048

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if not 0 < self.inner_radius < self.outer_radius <= BOX_RADIUS:
            raise ConfigError("need 0 < inner_radius < outer_radius <= config.BOX_RADIUS "
                              f"({BOX_RADIUS})")


@dataclass(frozen=True)
class AuxConfig(OodSetConfig):
    """The auxiliary outliers: the annulus restricted to an arc from angle 0."""

    count: int = 1024
    arc_fraction: float = 0.25

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.arc_fraction <= 1.0:
            raise ConfigError("arc_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class DataConfig:
    classes: int = 4
    per_class: int = 256
    test_per_class: int = 200
    aux: AuxConfig = field(default_factory=AuxConfig)
    ood_sets: dict[str, OodSetConfig] = field(default_factory=lambda: {"ring": OodSetConfig()})

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("classes must be >= 2")
        if self.per_class < 1 or self.test_per_class < 1:
            raise ConfigError("per_class and test_per_class must be >= 1")
        if not self.ood_sets:
            raise ConfigError("ood_sets must name at least one set")
        for name in self.ood_sets:  # each set is written to ood_<name>.csv
            if not re.fullmatch(r"[A-Za-z0-9_-]+", name) or name == "average":
                raise ConfigError(f"ood set name {name!r} must be a non-empty run of [A-Za-z0-9_-] "
                                  "other than 'average', the report's mean row")


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {list(self.hidden)}")


class Kind(NamedTuple):
    """What a loss kind trains on besides the ce of the ID batch."""

    binds_aux: bool    # an aux outlier batch, bound as x_out
    synthesizes: bool  # its first ceil(ratio * n_out) rows extrapolated in place
    hinge: bool        # the energy hinges at m_in and m_out, not the uniform loss


LOSS_KINDS = {"ce": Kind(False, False, False), "oe": Kind(True, False, False),
         "energy_bounded": Kind(True, False, True), "divoe": Kind(True, True, False)}


@dataclass(frozen=True)
class LossConfig:
    """Objective family and its parameters; margins only matter for the hinge loss."""

    kind: str = "oe"
    balance: float = 0.5
    m_in: float = -23.0
    m_out: float = -5.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"loss kind must be one of {tuple(LOSS_KINDS)}")
        if self.balance < 0:
            raise ConfigError("balance must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    """Fine-tuning hyperparameters; defaults follow the standard protocol."""

    epochs: int = 10
    lr: float = 0.001
    id_batch: int = 128
    outlier_batch: int = 128
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.lr < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.id_batch < 1 or self.outlier_batch < 1:
            raise ConfigError("batch sizes must be >= 1")


@dataclass(frozen=True)
class ExtrapolationConfig:
    """Knobs for the constrained multi-step update.

    ratio: fraction of each outlier batch synthesized in place, its first
    ceil(ratio * n_out) rows (fine_tune rounds up).
    steps: number of sign-gradient updates, each of size 2*epsilon/steps
    for the row's own radius, so the ball stays reachable.
    pool: (epsilon, fraction) slices, epsilon an l-inf radius in normalized
    input units and the fractions summing to 1; ((epsilon, 1.0),) is one radius.
    One normalized unit is 2 * BOX_RADIUS = 8.0 raw units.
    Like every float input, a radius read from JSON is at most
    MAX_MAGNITUDE, so 2*epsilon/steps is finite.
    """

    ratio: float = 0.5
    steps: int = 5
    pool: tuple[tuple[float, float], ...] = ((0.05, 1.0),)

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError("ratio must lie in [0, 1]")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if not self.pool:
            raise ConfigError("pool spec must not be empty")
        total = math.fsum(f for _, f in self.pool)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"pool fractions sum to {total}, expected 1")
        if any(e < 0 for e, _ in self.pool) or any(f < 0 for _, f in self.pool):
            raise ConfigError("pool entries must be non-negative")


@dataclass(frozen=True)
class ScoreSpec:
    """Which score to compute, one of ``ScoreSpec.KINDS``. Each kind's settings are fixed in
    ``scoring``: energy and ash_energy at temperature 1, odin at ODIN_TEMPERATURE
    and ODIN_EPSILON, ash_energy at ASH_PERCENTILE."""

    kind: str

    KINDS = ("msp", "energy", "odin", "ash_energy")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown score kind {self.kind!r}; expected one of {self.KINDS}")

    @staticmethod
    def odin_default() -> "ScoreSpec":
        return ScoreSpec(kind="odin")


def chunk_rows(n: int) -> int:
    """Candidates ``gmm_theory``'s sampler draws at a time for ``n`` points, each of
    ``dim`` values."""
    return max(2048, 4 * n)


@dataclass(frozen=True)
class TheoryConfig:
    mu_norm: float = 4.0
    sigma: float = 1.0
    dim: int = 8
    n1: int = 50
    n2: int = 50
    alpha: float = 10.0
    tau: float = 0.0
    trials: int = 100

    def __post_init__(self):
        # The two values the bound and the sampler divide by; at 1 / MAX_MAGNITUDE
        # their squares and quotients stay normal floats, where 1e-300 squared is 0.
        if abs(self.mu_norm) < MIN_DIVISOR:
            raise ConfigError(f"mu_norm must have magnitude >= {MIN_DIVISOR:g}, "
                              f"got {self.mu_norm!r}")
        if self.sigma < MIN_DIVISOR:
            raise ConfigError(f"sigma must be >= {MIN_DIVISOR:g}, got {self.sigma!r}")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.n1 < 1 or self.n2 < 1:
            raise ConfigError("n1 and n2 must be >= 1")
        if self.tau < 0:
            raise ConfigError("tau must be >= 0")
        if self.alpha < self.tau:
            raise ConfigError("alpha must be >= tau for a feasible constraint")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        check_size("the sampler's chunk", chunk_rows(self.n2), self.dim)
        check_size("the ID sample", self.n1, self.dim)


@dataclass(frozen=True)
class OutputsConfig:
    dir: str = "runs/default"
    method_label: str | None = None  # None labels a run by its loss kind

    def __post_init__(self):
        if not self.dir:
            raise ConfigError('dir must not be empty; name "." for the current directory')
        if self.method_label == "":
            raise ConfigError("method_label must not be empty; leave it unset "
                              "to label the run by its loss kind")


@dataclass(frozen=True)
class RunConfig:
    """The whole run. ``model.hidden`` shapes train's initial model only: the scored
    checkpoint says whether ash_energy has a hidden layer (``cli._load_model``)."""

    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    extrapolation: ExtrapolationConfig = field(default_factory=ExtrapolationConfig)
    scores: tuple[ScoreSpec, ...] = (ScoreSpec(kind="msp"), ScoreSpec(kind="energy"))
    outputs: OutputsConfig = field(default_factory=OutputsConfig)
    theory: TheoryConfig = field(default_factory=TheoryConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.scores:
            raise ConfigError("scores must name at least one score")
        if len({spec.kind for spec in self.scores}) != len(self.scores):
            raise ConfigError("scores name a score kind more than once")
        d = self.data
        widths = (FEATURES, *self.model.hidden, d.classes)
        for i, fans in enumerate(zip(widths, widths[1:])):
            check_size(f"weight matrix W{i}", *fans)
        # Every set is FEATURES wide, so this bounds gen-data's sets and a training
        # batch, which can be a whole set (eval and extrapolate score in row blocks).
        rows = max(d.classes * max(d.per_class, d.test_per_class), d.aux.count,
                   *(spec.count for spec in d.ood_sets.values()))
        check_size("the largest set through the widest layer", rows, max(widths))

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **dump(self)}

    def digest(self) -> str:
        """sha256 of the canonical document, without ``outputs.dir``: where a
        run is written does not change what it computes.

        hashlib is imported here, not with the module: it maps OpenSSL's
        libcrypto into the process (3.5 MB of RSS). Only train takes a
        digest, and numpy.random has loaded it there already."""
        import hashlib

        doc = self.to_dict()
        del doc["outputs"]["dir"]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def method_label(self) -> str:
        if self.outputs.method_label is not None:
            return self.outputs.method_label
        return self.train.loss.kind


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = dict(doc)
    version = parse(int, doc.pop("schema_version", SCHEMA_VERSION), "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    return parse(RunConfig, doc, "")


def load_config(path=None, overrides=(), *, seed: int | None = None,
                out: str | None = None) -> RunConfig:
    """Read ``path`` (the empty document when None), apply the ``--set``
    overrides, then ``seed`` and ``out`` when given, and parse the result."""
    doc = {} if path is None else read_json(path, ConfigError, "config file")
    overrides = list(overrides)
    if seed is not None:
        overrides.append(f"seed={int(seed)}")
    if out is not None:
        overrides.append(f"outputs.dir={json.dumps(str(out))}")
    return parse_config(apply_overrides(doc, overrides))


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply --set key.path=value pairs onto the raw JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw_value = item.split("=", 1)
        try:
            value = json.loads(raw_value)
        except (ValueError, RecursionError):  # not JSON the parser accepts: the raw string
            value = raw_value
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return doc


# -- the JSON schema layer ------------------------------------------------------


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
