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
