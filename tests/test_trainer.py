import hashlib
import json

import numpy as np
import pytest

from oodbench import cli, data, model, trainer
from oodbench.errors import NumericError
from oodbench.extrapolation import ExtrapolatedBatch, ExtrapolationConfig


def _toy():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (16, 2))
    y = (x[:, 0] > 0.5).astype(int) + (x[:, 1] > 0.5).astype(int)
    aux = rng.uniform(0.0, 1.0, (32, 2))
    return data.LabeledDataset(x, y), aux


def _divoe_args():
    return (trainer.TrainConfig(epochs=1, lr=0.01, id_batch=8, outlier_batch=8,
                                loss=trainer.LossConfig(kind="divoe")),
            ExtrapolationConfig(ratio=0.5, steps=2), 0)


def _fake_pool(initial, final, aborted):
    def pool(mlp, subbatch, cfg):
        n = subbatch.shape[0]
        return ExtrapolatedBatch(subbatch.copy(), subbatch.copy(), np.full(n, cfg.epsilon),
                                 np.full(n, initial), np.full(n, final), np.full(n, aborted))
    return pool


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
    assert all(r.oe_loss_extrap is not None for r in history.records)


def test_fine_tune_rejects_lost_ground_with_numeric_error(monkeypatch):
    id_train, aux = _toy()
    monkeypatch.setattr(trainer, "build_extrapolation_pool", _fake_pool(1.0, 0.5, False))
    mlp = model.init_model([2, 8, 3], seed=1)
    with pytest.raises(NumericError, match="lost ground"):
        trainer.fine_tune(mlp, id_train, aux, *_divoe_args())


def test_fine_tune_ignores_aborted_rows_in_best_iterate_check(monkeypatch):
    id_train, aux = _toy()
    monkeypatch.setattr(trainer, "build_extrapolation_pool", _fake_pool(np.nan, np.nan, True))
    mlp = model.init_model([2, 8, 3], seed=1)
    _, history = trainer.fine_tune(mlp, id_train, aux, *_divoe_args())
    assert len(history.records) == 2


def test_cli_train_maps_lost_ground_to_exit_4(monkeypatch, tmp_path, capsys):
    cfg = {"data": {"classes": 3, "per_class": 8, "test_per_class": 4, "aux": {"count": 16},
                    "ood_sets": {"ring": {"inner_radius": 1.5, "outer_radius": 2.2, "count": 8}}},
           "train": {"loss": {"kind": "divoe"}, "epochs": 1, "id_batch": 8, "outlier_batch": 8}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    base = ["--config", str(path), "--out", str(tmp_path / "run")]
    assert cli.main(base + ["gen-data"]) == 0
    monkeypatch.setattr(trainer, "build_extrapolation_pool", _fake_pool(1.0, 0.5, False))
    assert cli.main(base + ["train"]) == 4
    assert "lost ground" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


# sha256 of the trained parameters (W0, W1, b0, b1 bytes) and of history.csv for
# the short-batch toy run below, pinned from the trainer that built a new loss
# graph on every step (x86-64, numpy 2.4.6, OpenBLAS 0.3.31). Another BLAS
# kernel or numpy build may round differently; re-pin from that trainer there.
SHORT_BATCH_DIGESTS = {
    "ce": ("9dd7a9770954fd260f71bc348c6f1866eb91c1a86ab8a3d2483735df9caff459",
           "763184b1ea248f15c20afc13509cd6d082a35132ef7512f17889370c93858826"),
    "oe": ("98e27242acb9dd5abb3673f068f5e3291295ecb358e4eb6a430ac0fe20d074c0",
           "0f444b6d598f658cd56b77ae6e3b2311ef32bc1e5d790041bebbe2b261fb56c2"),
    "energy_bounded": ("eb87c2382a98a1aec8b2c6e1fd96df88f9d0b2e1ae92f6a3947ab5143f8b9621",
                       "943e3bac430046af7fb435aa4a467cde17d61f7e055c1395bb79a67c0a5569f6"),
    "divoe": ("458fbf0f81224e4a480cbf5552ebe087900bfa50422a42cb6a14e2e4f6cddb9d",
              "305b27cf878449bcd2a9698b6f5b4bd4b7bf1159b1a23e95f57fe805046e8bc4"),
}


@pytest.mark.parametrize("kind", sorted(SHORT_BATCH_DIGESTS))
def test_loss_graph_built_once_and_outputs_unchanged(kind, monkeypatch, tmp_path):
    # 20 ID rows in batches of 8: every epoch ends on a 4-row batch, so one
    # graph must serve two row counts.
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (20, 2))
    y = (x[:, 0] > 0.5).astype(int) + (x[:, 1] > 0.5).astype(int)
    aux = rng.uniform(0.0, 1.0, (32, 2))
    builds = []
    real = trainer._build_loss_graph

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "_build_loss_graph", counting)
    cfg = trainer.TrainConfig(epochs=2, lr=0.05, id_batch=8, outlier_batch=8,
                              loss=trainer.LossConfig(kind=kind))
    out, history = trainer.fine_tune(model.init_model([2, 8, 3], seed=1),
                                     data.LabeledDataset(x, y), aux, cfg,
                                     ExtrapolationConfig(ratio=0.5, steps=2), 0)
    assert len(history.records) == 6 and len(builds) == 1
    history.to_csv(tmp_path / "history.csv")
    digests = (hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                       for a in (*out.weights, *out.biases))).hexdigest(),
               hashlib.sha256((tmp_path / "history.csv").read_bytes()).hexdigest())
    assert digests == SHORT_BATCH_DIGESTS[kind]
