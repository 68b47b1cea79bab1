import hashlib
import json

import numpy as np
import pytest

from oodbench import cli, data, losses, model, trainer
from oodbench.extrapolation import ExtrapolatedBatch, ExtrapolationConfig


def _toy():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (16, 2))
    y = (x[:, 0] > 0.5).astype(int) + (x[:, 1] > 0.5).astype(int)
    aux = rng.uniform(0.0, 1.0, (32, 2))
    return data.LabeledDataset(x, y), aux


def _divoe_args():
    return (trainer.TrainConfig(epochs=1, lr=0.01, id_batch=8, outlier_batch=8,
                                loss=losses.LossConfig(kind="divoe")),
            ExtrapolationConfig(ratio=0.5, steps=2), 0)


def test_sgd_step_hand_value():
    # g = 0.5 + 1e-4 * 1; v' = 0.9 * 0.2 + g; p' = 1 - 0.1 * (g + 0.9 * v')
    theta, velocity = trainer.sgd_step(np.array([1.0, 2.0]), np.array([0.5, 0.0]),
                                       np.array([0.2, 0.0]), 0.1)
    assert velocity[0] == pytest.approx(0.6801, rel=1e-12)
    assert theta[0] == pytest.approx(0.888781, rel=1e-12)
    # g = 2e-4; v' = g; p' = 2 - 0.1 * 1.9 * g
    assert velocity[1] == pytest.approx(2e-4, rel=1e-12)
    assert theta[1] == pytest.approx(2.0 - 3.8e-5, rel=1e-12)


def _sgd_step_per_array(params, grads, velocity, lr):
    """The update one array at a time, as a dict of W0, b0, ... of their own."""
    new_params, new_velocity = {}, {}
    for name, p in params.items():
        g = grads[name] + trainer.WEIGHT_DECAY * p
        v = trainer.MOMENTUM * velocity[name] + g
        new_params[name] = p - lr * (g + trainer.MOMENTUM * v)
        new_velocity[name] = v
    return new_params, new_velocity


@pytest.mark.parametrize("dims", [(2, 64, 64, 4), (3, 5), (4, 7, 2)])
def test_sgd_step_on_theta_is_the_per_array_update_bitwise(dims):
    rng = np.random.default_rng(len(dims))
    theta, grad, velocity = (rng.normal(size=model.init_model(dims, 0).theta.size) for _ in "tgv")
    as_arrays = [{f"{kind}{i}": a for i, pair in enumerate(zip(*model.layers(dims, flat)))
                  for kind, a in zip("Wb", pair)} for flat in (theta, grad, velocity)]
    new_theta, new_velocity = trainer.sgd_step(theta, grad, velocity, 0.0375)
    params, vel = _sgd_step_per_array(*as_arrays, 0.0375)
    for got, want in ((new_theta, params), (new_velocity, vel)):
        assert got.tobytes() == b"".join(a.tobytes() for a in want.values())


def test_cosine_lr_starts_at_lr0_and_halves_midway():
    assert trainer.cosine_lr(0, 100, 0.02) == 0.02
    assert trainer.cosine_lr(50, 100, 0.02) == pytest.approx(0.01, rel=1e-12)


def test_fine_tune_divoe_extrapolates_once_per_step(monkeypatch):
    id_train, aux = _toy()
    calls = []
    real = trainer.build_extrapolation_pool

    def counting(*args, **kwargs):
        calls.append(args[1].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "build_extrapolation_pool", counting)
    mlp = model.init_model([2, 8, 3], seed=1)
    _, history = trainer.fine_tune(mlp, id_train, aux, *_divoe_args())
    assert len(calls) == len(history.records) == 2
    assert calls == [4, 4]
    assert all(r.extrapolated_loss is not None for r in history.records)


def _run(kind, ratio):
    id_train, aux = _toy()
    cfg = trainer.TrainConfig(epochs=2, lr=0.05, id_batch=8, outlier_batch=8,
                              loss=losses.LossConfig(kind=kind))
    out, history = trainer.fine_tune(model.init_model([2, 8, 3], seed=1), id_train, aux, cfg,
                                     ExtrapolationConfig(ratio=ratio, steps=2), 0)
    return [*out.weights, *out.biases], history.records


def test_fine_tune_divoe_at_ratio_zero_trains_as_oe():
    divoe_params, divoe_records = _run("divoe", 0.0)
    oe_params, oe_records = _run("oe", 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(divoe_params, oe_params))
    assert divoe_records == oe_records
    assert all(r.extrapolated_loss is None for r in divoe_records)


def test_fine_tune_binds_only_the_batches_of_the_kinds_row(monkeypatch):
    # losses.LOSS_KINDS alone decides what a kind binds, synthesizes and
    # hinges: ce given another kind's row trains as that kind, bit for bit.
    for kind in ("oe", "energy_bounded", "divoe"):
        monkeypatch.setitem(losses.LOSS_KINDS, "ce", losses.LOSS_KINDS[kind])
        params, records = _run("ce", 0.5)
        expected_params, expected_records = _run(kind, 0.5)
        assert all(np.array_equal(a, b) for a, b in zip(params, expected_params))
        assert records == expected_records


def test_fine_tune_rounds_the_synthesized_rows_up(monkeypatch):
    synthesized, bound = [], []
    real_pool, real_pass = trainer.build_extrapolation_pool, trainer.ad.value_and_grad

    def pool(mlp, subbatch, cfg):
        synthesized.append(subbatch.shape[0])
        return real_pool(mlp, subbatch, cfg)

    def value_and_grad(objective, bindings, wrt):
        if "x_out" in bindings:
            bound.append(bindings["x_out"].shape[0])
        return real_pass(objective, bindings, wrt)

    monkeypatch.setattr(trainer, "build_extrapolation_pool", pool)
    monkeypatch.setattr(trainer.ad, "value_and_grad", value_and_grad)
    id_train, aux = _toy()
    cfg = trainer.TrainConfig(epochs=1, lr=0.01, id_batch=8, outlier_batch=5,
                              loss=losses.LossConfig(kind="divoe"))
    trainer.fine_tune(model.init_model([2, 8, 3], seed=1), id_train, aux, cfg,
                      ExtrapolationConfig(ratio=0.3, steps=2), 0)
    assert synthesized == [2, 2]  # ceil(0.3 * 5), written back into the batch
    assert bound == [5, 5]


def test_fine_tune_synthesizes_the_head_of_each_outlier_batch(monkeypatch):
    # The rows synthesized are the batch's first n_ext, and the batch bound is
    # those rows, synthesized, then the batch's untouched tail.
    drawn, subbatches, synthesized, bound = [], [], [], []
    real_batches, real_pool = trainer._outlier_batches, trainer.build_extrapolation_pool
    real_pass = trainer.ad.value_and_grad

    def batches(*args):
        for batch in real_batches(*args):
            drawn.append(batch.copy())
            yield batch

    def pool(mlp, subbatch, cfg):
        subbatches.append(subbatch.copy())
        extrap = real_pool(mlp, subbatch, cfg)
        synthesized.append(extrap.synthesized.copy())
        return extrap

    def value_and_grad(objective, bindings, wrt):
        if "x_out" in bindings:
            bound.append(bindings["x_out"].copy())
        return real_pass(objective, bindings, wrt)

    monkeypatch.setattr(trainer, "_outlier_batches", batches)
    monkeypatch.setattr(trainer, "build_extrapolation_pool", pool)
    monkeypatch.setattr(trainer.ad, "value_and_grad", value_and_grad)
    id_train, aux = _toy()
    cfg = trainer.TrainConfig(epochs=2, lr=0.05, id_batch=8, outlier_batch=8,
                              loss=losses.LossConfig(kind="divoe"))
    trainer.fine_tune(model.init_model([2, 8, 3], seed=1), id_train, aux, cfg,
                      ExtrapolationConfig(ratio=0.3, steps=2), 0)
    assert len(drawn) == len(subbatches) == len(bound) == 4
    for batch, subbatch, synth, x_out in zip(drawn, subbatches, synthesized, bound):
        np.testing.assert_array_equal(subbatch, batch[:3])  # ceil(0.3 * 8)
        assert not np.array_equal(synth, subbatch)
        np.testing.assert_array_equal(x_out, np.concatenate([synth, batch[3:]]))


def test_fine_tune_trains_on_past_aborted_rows(monkeypatch):
    # A row the ascent aborts comes back at its origin with a NaN value; the
    # step trains on it as drawn.
    def aborted(mlp, subbatch, cfg):
        n = subbatch.shape[0]
        return ExtrapolatedBatch(subbatch.copy(), subbatch.copy(), np.zeros(n), np.full(n, np.nan),
                                 np.full(n, np.nan), np.ones(n, dtype=bool))

    id_train, aux = _toy()
    monkeypatch.setattr(trainer, "build_extrapolation_pool", aborted)
    mlp = model.init_model([2, 8, 3], seed=1)
    _, history = trainer.fine_tune(mlp, id_train, aux, *_divoe_args())
    assert len(history.records) == 2


@pytest.mark.parametrize("kind", ["oe", "divoe"])
def test_cli_train_of_a_diverging_run_exits_4(tmp_path, capsys, kind):
    # At lr 1e100 the first steps send θ so far that a later forward pass overflows.
    cfg = {"data": {"classes": 3, "per_class": 8, "test_per_class": 4, "aux": {"count": 16},
                    "ood_sets": {"ring": {"count": 8}}},
           "train": {"loss": {"kind": kind}, "lr": 1e100, "epochs": 1, "id_batch": 8,
                     "outlier_batch": 8}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    base = ["--config", str(path), "--out", str(tmp_path / "run")]
    assert cli.main(base + ["gen-data"]) == 0
    capsys.readouterr()
    assert cli.main(base + ["train"]) == 4
    assert capsys.readouterr().err.startswith("error: non-finite loss at epoch")
    assert not any((tmp_path / "run" / name).exists()
                   for name in ("checkpoint.json", "history.csv"))


# sha256 of the trained parameters (W0, W1, b0, b1 bytes) and of history.csv for
# the short-batch toy run below (x86-64, numpy 2.4.6, OpenBLAS 0.3.31), taken
# under the BLAS core and thread count tests/conftest.py names. The ce, oe and
# energy_bounded parameter digests were pinned from the trainer that built a new
# loss graph on every step, their history digests from the one whose outlier
# columns hold one term per bound batch; divoe's from the one that synthesizes
# the head of each outlier batch and writes it back over those rows.
SHORT_BATCH_DIGESTS = {
    "ce": ("9dd7a9770954fd260f71bc348c6f1866eb91c1a86ab8a3d2483735df9caff459",
           "4ebdf0a742c2fc16b04d71915e43e40b937a8ae0f2bc76151412bb1d02a31a1d"),
    "oe": ("98e27242acb9dd5abb3673f068f5e3291295ecb358e4eb6a430ac0fe20d074c0",
           "09ddc28ed715479d8f5e70772ff198c5d879e01afbe50d989ad4b3b70ca5afb9"),
    "energy_bounded": ("eb87c2382a98a1aec8b2c6e1fd96df88f9d0b2e1ae92f6a3947ab5143f8b9621",
                       "da4f1bb294636ce99096e2a22537a74e79722f0a295c5c12343e54af729e042b"),
    "divoe": ("037c7db95e5df06bfb718b045d2d4b99c6d879a9fada3e6fd552d2e84035a918",
              "594d061693c1a4f3836cd60681e17fb42e38586bb143fadb7eddcf5212b30f4c"),
}


def _short_batch_run(kind, extrapolation, tmp_path):
    """sha256 of the trained parameters and of history.csv, and the history's
    records, for 20 ID rows in batches of 8: every epoch ends on a 4-row batch,
    so one objective must serve two row counts. The run must leave the aux
    pool it is given as it was: synthesized rows go into a copy."""
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (20, 2))
    y = (x[:, 0] > 0.5).astype(int) + (x[:, 1] > 0.5).astype(int)
    aux = rng.uniform(0.0, 1.0, (32, 2))
    passed = aux.copy()
    cfg = trainer.TrainConfig(epochs=2, lr=0.05, id_batch=8, outlier_batch=8,
                              loss=losses.LossConfig(kind=kind))
    out, history = trainer.fine_tune(model.init_model([2, 8, 3], seed=1),
                                     data.LabeledDataset(x, y), aux, cfg, extrapolation, 0)
    assert aux.tobytes() == passed.tobytes()
    history.to_csv(tmp_path / "history.csv")
    digests = (hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                       for a in (*out.weights, *out.biases))).hexdigest(),
               hashlib.sha256((tmp_path / "history.csv").read_bytes()).hexdigest())
    return digests, history.records


@pytest.mark.parametrize("kind", sorted(SHORT_BATCH_DIGESTS))
def test_loss_graph_built_once_and_outputs_unchanged(kind, monkeypatch, tmp_path):
    builds = []
    real = trainer._build_loss_graph

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "_build_loss_graph", counting)
    digests, records = _short_batch_run(kind, ExtrapolationConfig(ratio=0.5, steps=2), tmp_path)
    assert len(records) == 6 and len(builds) == 1
    assert digests == SHORT_BATCH_DIGESTS[kind]


def test_energy_bounded_history_row_sums_to_its_total(tmp_path):
    # The objective adds its group left to right, so one history row gives the
    # step's total bit for bit; a kind without a hinge leaves the column empty.
    _, records = _short_batch_run("energy_bounded", ExtrapolationConfig(), tmp_path)
    balance = losses.LossConfig(kind="energy_bounded").balance
    assert all(r.total_loss == r.ce_loss + balance * (r.id_hinge_loss + r.outlier_loss)
               for r in records)
    _, records = _short_batch_run("oe", ExtrapolationConfig(), tmp_path)
    assert all(r.id_hinge_loss is None for r in records)


def test_divoe_with_zero_radii_trains_as_oe(tmp_path):
    # Synthesized rows take their origins' places in the one outlier batch,
    # so rows that do not move leave oe's step, and its outlier term, as they are.
    (params, _), records = _short_batch_run(
        "divoe", ExtrapolationConfig(ratio=0.5, steps=2, pool=((0.0, 1.0),)), tmp_path)
    _, oe_records = _short_batch_run("oe", ExtrapolationConfig(ratio=0.5, steps=2), tmp_path)
    assert params == SHORT_BATCH_DIGESTS["oe"][0]
    assert [r.outlier_loss for r in records] == [r.outlier_loss for r in oe_records]
    assert all(r.extrapolated_loss is not None for r in records)


def test_fine_tune_divoe_at_ratio_one_extrapolates_the_whole_batch(monkeypatch, tmp_path):
    # Every row is synthesized, so the outlier term is the synthesized rows' mean,
    # as when they were bound as a batch of their own: the parameters keep the
    # digest of that trainer.
    calls = []
    real = trainer.build_extrapolation_pool

    def counting(*args, **kwargs):
        calls.append(args[1].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "build_extrapolation_pool", counting)
    (params, _), records = _short_batch_run(
        "divoe", ExtrapolationConfig(ratio=1.0, steps=2), tmp_path)
    assert params == "2fb314ba913b53074ed53b1098b561deac2b98a42d7c92ee39518ab3161cc80e"
    assert calls == [8] * len(records) == [8] * 6
    assert all(r.outlier_loss is not None and r.outlier_loss == r.extrapolated_loss
               for r in records)


@pytest.mark.parametrize("kind, classifiers", [("oe", 1), ("divoe", 2 + 1)])
def test_classifier_built_only_where_it_is_read(kind, classifiers, monkeypatch):
    # 16 rows in batches of 8 make 2 steps; only divoe's extrapolation reads a
    # classifier mid-run, and the returned model is built once after the loop.
    built = []

    class Counting(model.MlpClassifier):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(model, "MlpClassifier", Counting)
    id_train, aux = _toy()
    cfg = trainer.TrainConfig(epochs=1, lr=0.01, id_batch=8, outlier_batch=8,
                              loss=losses.LossConfig(kind=kind))
    mlp = model.init_model([2, 4, 3], seed=1)
    built.clear()
    out, history = trainer.fine_tune(mlp, id_train, aux, cfg,
                                     ExtrapolationConfig(ratio=0.5, steps=2), 0)
    assert len(history.records) == 2 and len(built) == classifiers and out is built[-1]
