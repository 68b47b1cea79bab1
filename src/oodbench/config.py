"""Run configuration: a strict JSON document with sections
{data, model, train, extrapolation, scores, outputs, theory, seed}.

The dataclasses are the schema. ``parse_config`` builds a RunConfig from
JSON with ``data.parse``, the walker over their fields and type hints that
types every JSON file, and ``RunConfig.to_dict`` walks the same fields back
with ``data.dump``, so every default is stated once, on its field. An
unknown key, a missing required key, a wrong JSON type, a wrong tuple
length or a float of magnitude above data.MAX_MAGNITUDE (1e100; JSON's
NaN/Infinity too) raises ConfigError, so stale or malformed manifests fail
loudly. Each value is checked once, in its dataclass's ``__post_init__``,
so a bad value fails before a command does any work, and the code below the
CLI trusts the values it receives. Integer sizes obey one rule, ``check_size``:
no array a config sizes may hold more than data.MAX_ELEMENTS values. Counts
that cost only time (epochs, extrapolation steps, theory trials) stay unbounded.

All randomness flows from the one top-level seed, split per component
(data / model / train / theory) through named substreams.

This module holds every section's dataclass and the loss kinds table
``LOSS_KINDS``, which says what each loss kind trains on (the score kinds
are ``ScoreSpec.KINDS``); ``losses`` and ``extrapolation`` import the names
they read from here. ``cli`` loads it for every command, so it imports only data,
errors and numerics, the modules every command loads anyway. A module only
some commands run (the model stack, trainer, scoring, metrics, gmm_theory,
gradcheck) is imported by those commands.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .data import BOX_RADIUS, FEATURES, MAX_ELEMENTS, MAX_MAGNITUDE, dump, parse, read_json
from .errors import ConfigError
from .numerics import derive_seed

SCHEMA_VERSION = 1

MIN_DIVISOR = 1.0 / MAX_MAGNITUDE  # the least |value| of a config value the program divides by

COMPONENT_STREAMS = {"data": 0, "model": 1, "train": 2, "theory": 4}  # 3 is retired


def component_seed(seed: int, component: str) -> int:
    return derive_seed(seed, COMPONENT_STREAMS[component])


def check_size(what: str, *factors: int) -> None:
    """Refuse ``what``, an array of prod(factors) values, above data.MAX_ELEMENTS."""
    if math.prod(factors) > MAX_ELEMENTS:
        raise ConfigError(f"{what} of {' x '.join(map(str, factors))} values exceeds "
                          f"data.MAX_ELEMENTS ({MAX_ELEMENTS})")


@dataclass(frozen=True)
class OodSetConfig:
    """An annulus of raw radii inner < outer <= data.BOX_RADIUS, sampled ``count`` times."""

    inner_radius: float = 1.5
    outer_radius: float = 2.2
    count: int = 2048

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if not 0 < self.inner_radius < self.outer_radius <= BOX_RADIUS:
            raise ConfigError("need 0 < inner_radius < outer_radius <= data.BOX_RADIUS "
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
    One normalized unit is 2 * data.BOX_RADIUS = 8.0 raw units.
    Like every float input, a radius read from JSON is at most
    data.MAX_MAGNITUDE, so 2*epsilon/steps is finite.
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
    method_label: str | None = None


@dataclass(frozen=True)
class RunConfig:
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
        if not self.model.hidden and any(spec.kind == "ash_energy" for spec in self.scores):
            raise ConfigError("ash_energy shapes the last hidden layer, but model.hidden is empty")
        d = self.data
        widths = (FEATURES, *self.model.hidden, d.classes)
        for i, fans in enumerate(zip(widths, widths[1:])):
            check_size(f"weight matrix W{i}", *fans)
        # Every set is FEATURES wide and eval forwards it whole, so this bounds each set too.
        rows = max(d.classes * max(d.per_class, d.test_per_class), d.aux.count,
                   *(spec.count for spec in d.ood_sets.values()))
        check_size("the largest set through the widest layer", rows, max(widths))

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **dump(self)}

    def digest(self) -> str:
        """sha256 of the canonical document, without ``outputs.dir``: where a
        run is written does not change what it computes.

        hashlib is imported here, not with the module: it maps OpenSSL's
        libcrypto into the process (3.5 MB of RSS). eval draws no random
        numbers (numpy.random loads it too), so it loads it only for this
        digest, which it takes after scoring."""
        import hashlib

        doc = self.to_dict()
        del doc["outputs"]["dir"]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def method_label(self) -> str:
        if self.outputs.method_label:
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
