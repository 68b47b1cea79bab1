import copy
import dataclasses
import importlib.util
import json
import math
import types
import typing
from pathlib import Path

import pytest

from oodbench import config, data, losses, model, numerics, trainer
from oodbench.errors import ConfigError
from oodbench.extrapolation import ExtrapolationConfig

# Malformed --set overrides; each must surface as ConfigError, never a traceback.
PROBES = [
    'data.classes="abc"',
    "model.hidden=5",
    "data.ood_sets=[]",
    "train.loss=3",
    'train.loss.kind="bogus"',
    "extrapolation.pool=[[0.1]]",
    # Removed keys (a single radius is a one-slice extrapolation.pool).
    "extrapolation.clamp=[0]",
    "extrapolation.epsilon=0.1",
    "extrapolation.epsilon=Infinity",
    "extrapolation.epsilon=-0.1",
    "train.weight_decay=NaN",
    "data.sigma=NaN",
    "data.radius=0",
    'scores=[{"kind": "energy", "temperature": 0}]',
    'seed="x"',
    "train.epochs=2.7",
    'train.sampler="bogus"',
    "extrapolation.pool=[[Infinity, 1.0]]",
    "data.aux.count=-1",
    "data.ood_sets.ring.count=-5",
    # A zero count would write a header-only CSV that train and eval refuse.
    "data.per_class=0",
    "data.test_per_class=0",
    "data.aux.count=0",
    "data.ood_sets.ring.count=0",
    # Value checks made once, at parse time, for the code below the CLI.
    "theory.dim=-1",
    "theory.dim=0",
    "theory.sigma=0",
    "theory.mu_norm=0",
    "theory.n1=0",
    "theory.tau=-1",
    "theory.tau=20",  # above the default alpha of 10
    "data.classes=1",
    "data.aux.arc_fraction=0",
    "data.ood_sets.ring.inner_radius=3",
    "data.aux.outer_radius=1",
    # Every aux and OOD row must lie in gen-data's fixed box.
    "data.aux.outer_radius=4.5",
    "data.ood_sets.ring.outer_radius=4.000000000000001",
    "model.hidden=[0]",
    "train.id_batch=0",
    "extrapolation.pool=[[-0.1, 1.0]]",
    # Each OOD set is written to ood_<name>.csv, and each score kind is computed once.
    'data.ood_sets={"a/b": {"count": 16}}',
    'data.ood_sets={"": {"count": 16}}',
    'scores=[{"kind": "msp"}, {"kind": "msp"}]',
    # The report names its mean row "average", so no OOD set may.
    'data.ood_sets={"average": {"count": 16}}',
    # An empty label would silently become the loss kind; unset is how to ask for that.
    'outputs.method_label=""',
    # Magnitudes whose square (a radius, sigma, mu_norm) or double (a pool
    # radius) overflows, which gen-data, theory-verify and the ascent compute.
    "data.aux.outer_radius=1e200",
    "data.ood_sets.ring.outer_radius=1e300",
    "theory.sigma=1e200",
    "theory.mu_norm=1e200",
    "extrapolation.pool=[[1e308, 1.0]]",
    # Values above config.MAX_MAGNITUDE whose products overflow: s * mu_norm in the
    # theory sampler, and lr times a gradient in the SGD step.
    'theory={"mu_norm": 1.34e154, "sigma": 1.34e154, "trials": 3}',
    "train.lr=1e308",
    # Divisors below 1 / config.MAX_MAGNITUDE: mu_norm squared underflows to 0 in the
    # theory sampler, and 1 / sigma overflows in the bound.
    'theory={"mu_norm": 1e-300, "trials": 3}',
    'theory={"mu_norm": 1e-300, "sigma": 1e-300, "trials": 3}',
    "theory.sigma=1e-300",
    # Values json.loads refuses (too deep, too many digits) stay raw strings, and
    # an integer too large for a float is not a finite float.
    pytest.param("seed=" + "[" * 5000, id="seed=[*5000"),
    pytest.param("train.lr=" + "9" * 5000, id="train.lr=9*5000"),
    pytest.param("train.lr=" + "9" * 400, id="train.lr=9*400"),
    # Sizes whose arrays would hold more than config.MAX_ELEMENTS values.
    "data.per_class=1000000000000",
    "data.per_class=1000000000000000000",
    "theory.dim=1000000000000000000",
    "model.hidden=[1000000000000]",
]

UNKNOWN_KEYS = [
    {"bogus": 1},
    {"data": {"bogus": 1}},
    {"data": {"aux": {"bogus": 1}}},
    {"data": {"ood_sets": {"ring": {"bogus": 1}}}},
    {"model": {"bogus": 1}},
    {"train": {"bogus": 1}},
    {"train": {"loss": {"bogus": 1}}},
    {"extrapolation": {"bogus": 1}},
    {"scores": [{"kind": "msp", "bogus": 1}]},
    {"outputs": {"bogus": 1}},
    {"theory": {"bogus": 1}},
    {"train": {"sampler": "random"}},
    {"outputs": {"checkpoint_every_epoch": False}},
    {"train": {"seed": 0}},
    {"train": {"extrapolation": {}}},
    {"scores": [{"kind": "mahalanobis", "stats": None}]},
    {"extrapolation": {"target": "msp"}},
    {"extrapolation": {"target_temperature": 2.0}},
    {"extrapolation": {"direction": "minimize"}},
    {"extrapolation": {"step_size": 0.01}},
    {"extrapolation": {"clamp": [0.0, 1.0]}},
    {"extrapolation": {"epsilon": 0.1}},
    # Fixed settings, now constants of the modules that read them.
    {"train": {"momentum": 0.9}},
    {"train": {"weight_decay": 1e-4}},
    {"train": {"loss": {"temperature": 1.0}}},
    {"scores": [{"kind": "energy", "temperature": 1.0}]},
    {"scores": [{"kind": "odin", "odin_epsilon": 1.4e-3}]},
    {"scores": [{"kind": "ash_energy", "percentile": 95.0}]},
    {"data": {"radius": 1.0}},
    {"data": {"sigma": 0.18}},
]


def _non_default() -> config.RunConfig:
    return config.RunConfig(
        seed=7,
        data=config.DataConfig(classes=3, aux=config.AuxConfig(count=64),
                               ood_sets={"near": config.OodSetConfig(1.2, 1.5, 32),
                                         "far": config.OodSetConfig(2.2, 4.0, 16)}),
        model=config.ModelConfig(hidden=(16,)),
        train=config.TrainConfig(epochs=2, lr=0.05,
                                 loss=losses.LossConfig(kind="divoe", balance=0.25)),
        extrapolation=ExtrapolationConfig(steps=3, pool=((0.02, 0.5), (0.1, 0.5))),
        scores=(config.ScoreSpec("odin"), config.ScoreSpec("ash_energy")),
        outputs=config.OutputsConfig(dir="runs/x", method_label="mine"),
        theory=config.TheoryConfig(trials=5, tau=0.1))


@pytest.mark.parametrize("cfg", [config.RunConfig(), _non_default()], ids=["default", "custom"])
def test_to_dict_round_trips(cfg):
    doc = cfg.to_dict()
    assert config.parse_config(json.loads(json.dumps(doc))) == cfg
    assert doc["schema_version"] == config.SCHEMA_VERSION
    assert isinstance(doc["model"]["hidden"], list)


def test_empty_document_gives_the_dataclass_defaults():
    cfg = config.parse_config({})
    assert cfg == config.RunConfig()
    assert (cfg.data.aux.count, cfg.data.ood_sets["ring"].count) == (1024, 2048)


@pytest.mark.parametrize("doc", UNKNOWN_KEYS, ids=lambda d: json.dumps(d))
def test_unknown_key_rejected_at_every_level(doc):
    with pytest.raises(ConfigError, match="unknown key"):
        config.parse_config(doc)


@pytest.mark.parametrize("probe", PROBES)
def test_malformed_value_raises_config_error(probe):
    with pytest.raises(ConfigError):
        config.parse_config(config.apply_overrides({}, [probe]))


@pytest.mark.parametrize("doc, match", [
    ({"scores": [{}]}, "needs a 'kind' key"),
    ({"scores": []}, "at least one score"),
    ({"data": {"ood_sets": {}}}, "at least one set"),
    ({"train": {"lr": True}}, "train.lr must be float"),
    ({"train": {"epochs": False}}, "train.epochs must be int"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"schema_version": 2}, "schema_version"),
    ([], "JSON object"),
    ({"scores": [{"kind": "mahalanobis"}]}, "unknown score kind"),
    ({"extrapolation": {"pool": [[0.1, float("inf")]]}},
     r"extrapolation.pool\[0\]\[1\] must be finite"),
    ({"scores": [{"kind": "msp"}, {"kind": "msp"}]}, "score kind more than once"),
    ({"outputs": {"dir": ""}}, "dir must not be empty"),
])
def test_invalid_document_rejected(doc, match):
    with pytest.raises(ConfigError, match=match):
        config.parse_config(doc)


def test_theory_config_rejects_alpha_below_tau():
    with pytest.raises(ConfigError, match="alpha must be >= tau"):
        config.TheoryConfig(alpha=0.5, tau=1.0)
    config.TheoryConfig(alpha=1.0, tau=1.0)


def test_theory_config_bounds_its_divisors_at_one_over_the_magnitude_cap():
    bound = 1 / config.MAX_MAGNITUDE
    below = math.nextafter(bound, 0.0)
    for mu_norm in (bound, -bound):
        config.TheoryConfig(mu_norm=mu_norm, sigma=bound)
    for mu_norm in (below, -below):
        with pytest.raises(ConfigError, match="mu_norm must have magnitude >= 1e-100"):
            config.TheoryConfig(mu_norm=mu_norm)
    with pytest.raises(ConfigError, match="sigma must be >= 1e-100"):
        config.TheoryConfig(sigma=below)


# (overrides whose largest array holds exactly config.MAX_ELEMENTS values, one more
# override that adds to it); the arrays' sizes are in the comments.
AT_THE_SIZE_CAP = [
    (["data.classes=2", "model.hidden=[]", f"data.per_class={2 ** 25}"],
     f"data.per_class={2 ** 25 + 1}"),  # id_train 2**26 rows x 2 columns, and x 2 logits
    (["data.classes=2", "model.hidden=[]", f"data.test_per_class={2 ** 25}"],
     f"data.test_per_class={2 ** 25 + 1}"),
    (["data.classes=2", "model.hidden=[]", f"data.aux.count={2 ** 26}"],
     f"data.aux.count={2 ** 26 + 1}"),
    (["model.hidden=[8192, 16384]"], "model.hidden=[8192, 16385]"),  # W1
    (["model.hidden=[65536]"], "data.ood_sets.ring.count=2049"),  # 2048 ring rows x 65536
    (["theory.dim=65536"], "theory.dim=65537"),  # the sampler's 2048-row chunk
    (["theory.dim=65536", "theory.n2=512"], "theory.n2=513"),  # its chunk is 4 * n2 rows
    (["theory.dim=65536", "theory.n1=2048"], "theory.n1=2049"),
]


@pytest.mark.parametrize("overrides, one_more", AT_THE_SIZE_CAP)
def test_a_size_at_the_cap_parses_and_one_more_does_not(overrides, one_more):
    config.parse_config(config.apply_overrides({}, overrides))
    with pytest.raises(ConfigError, match=r"exceeds config\.MAX_ELEMENTS \(134217728\)"):
        config.parse_config(config.apply_overrides({}, [*overrides, one_more]))


def test_counts_that_cost_only_time_are_unbounded():
    huge = 10 ** 18
    cfg = config.parse_config({"train": {"epochs": huge}, "extrapolation": {"steps": huge},
                               "theory": {"trials": huge}})
    assert (cfg.train.epochs, cfg.extrapolation.steps, cfg.theory.trials) == (huge,) * 3


def test_default_digest_is_pinned():
    # Every report carries its config's digest: a change to the canonical
    # document, or to how it is hashed, would change them all.
    assert config.RunConfig().digest() == \
        "2b90e4f02f068869f4b7d98bec31300163ef015f71c1af685835cef7df48780e"


def test_ints_widen_to_float_and_integral_floats_narrow_to_int():
    cfg = config.parse_config({"train": {"lr": 1, "epochs": 3.0}, "model": {"hidden": [8.0]}})
    assert cfg.train.lr == 1.0 and type(cfg.train.lr) is float
    assert cfg.train.epochs == 3 and type(cfg.train.epochs) is int
    assert cfg.model.hidden == (8,) and type(cfg.model.hidden[0]) is int


def _float_keys(tp, doc, where="", path=()):
    """(key as ``config.parse`` names it, path into ``doc``) for each float in the
    schema ``tp``, following the items and set names present in ``doc``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is float:
        yield where, path
    elif dataclasses.is_dataclass(tp):
        for f, ftp in config._schema(tp):
            yield from _float_keys(ftp, doc[f.name], f"{where}.{f.name}" if where else f.name,
                                   path + (f.name,))
    elif origin is dict:
        for name, item in doc.items():
            yield from _float_keys(args[1], item, f"{where}.{name}", path + (name,))
    elif origin is tuple:
        item_types = args[:1] * len(doc) if args[-1] is Ellipsis else args
        for i, (item_tp, item) in enumerate(zip(item_types, doc)):
            yield from _float_keys(item_tp, item, f"{where}[{i}]", path + (i,))
    elif origin in (typing.Union, types.UnionType):
        for arg in args:
            if arg is not type(None):
                yield from _float_keys(arg, doc, where, path)


def test_every_float_key_refuses_a_magnitude_above_the_cap():
    # The walk finds a float key added later too, so it inherits the check.
    default = config.RunConfig().to_dict()
    keys = dict(_float_keys(config.RunConfig, default))
    assert {"train.lr", "theory.sigma", "data.aux.inner_radius", "data.ood_sets.ring.outer_radius",
            "extrapolation.pool[0][0]", "extrapolation.pool[0][1]"} <= set(keys)
    for key, path in keys.items():
        for value in (math.nextafter(config.MAX_MAGNITUDE, math.inf), 10 ** 101):
            doc = copy.deepcopy(default)
            node = doc
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = value
            with pytest.raises(ConfigError, match="magnitude") as info:
                config.parse_config(doc)
            assert str(info.value).startswith(f"{key} "), (key, value)


def test_digest_ignores_output_dir_but_not_training_knobs():
    a = config.parse_config({"outputs": {"dir": "runs/a"}})
    b = config.parse_config({"outputs": {"dir": "runs/b"}})
    c = config.parse_config({"outputs": {"dir": "runs/a"}, "train": {"lr": 0.002}})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_load_config_applies_overrides_then_seed_and_out(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "train": {"epochs": 4}}), encoding="utf-8")
    cfg = config.load_config(path, ["train.epochs=2", "seed=5"], seed=9, out=tmp_path / "run")
    assert (cfg.seed, cfg.train.epochs, cfg.outputs.dir) == (9, 2, str(tmp_path / "run"))
    assert config.load_config(None) == config.RunConfig()


@pytest.mark.parametrize("content, match", [
    (None, "not found"), (b"{", "not valid JSON"), (b"\xff\xfe", "not valid JSON"),
    (b"[1]", "JSON object"), ("dir", "config file .* cannot be read"),
    pytest.param(b"[" * 100000, "not valid JSON", id="nested-too-deep"),
    pytest.param(b'{"train": {"lr": ' + b"9" * 5000 + b"}}", "not valid JSON",
                 id="integer-of-5000-digits"),
])
def test_load_config_file_errors(tmp_path, content, match):
    path = tmp_path / "cfg.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=match):
        config.load_config(path, ["seed=1"])


def test_seed_streams_are_pinned(monkeypatch):
    train_seed = config.component_seed(0, "train")
    assert train_seed == 3141116543
    assert numerics.derive_seed(train_seed, 0) == 4043787560
    seen = []
    real = data.batches

    def recording(n, batch_size, seed):
        seen.append(seed)
        return real(n, batch_size, seed)

    monkeypatch.setattr(trainer.data_mod, "batches", recording)
    x = data.LabeledDataset([[0.1, 0.2], [0.8, 0.9]], [0, 1])
    trainer.fine_tune(model.init_model([2, 4, 2], seed=1), x, None,
                      config.TrainConfig(epochs=2, loss=losses.LossConfig(kind="ce")),
                      ExtrapolationConfig(), train_seed)
    assert seen == [2810413366, 2350297174]


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
def test_benchmark_workload_configs_parse(smoke):
    workloads = _benchmark_workloads()
    for name in workloads.NAMES:
        cfg, _, _ = workloads.build(name, smoke)
        config.parse_config(cfg)
