import json

import pytest
from test_config import PROBES

from oodbench import cli


def _tiny_config(tmp_path):
    doc = {"data": {"classes": 3, "per_class": 8, "test_per_class": 4, "aux": {"count": 16},
                    "ood_sets": {"ring": {"count": 8}}},
           "model": {"hidden": [4]},
           "train": {"epochs": 1, "id_batch": 8, "outlier_batch": 8}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("probe", PROBES)
def test_malformed_config_exits_2(tmp_path, capsys, probe):
    assert cli.main(["--out", str(tmp_path / "run"), "--set", probe, "gen-data"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("epsilons", ["abc", "0.1,x", "nan", "inf", "0.1,-0.05"])
def test_malformed_epsilon_grid_exits_2(tmp_path, capsys, epsilons):
    argv = ["--out", str(tmp_path / "run"), "extrapolate", "--input", str(tmp_path / "in.csv"),
            "--dump", str(tmp_path / "dump" / "extrap.csv"), "--epsilons", epsilons]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.json"), "gen-data"]) == 2
    assert "not found" in capsys.readouterr().err


def test_train_before_gen_data_exits_3(tmp_path, capsys):
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run")]
    assert cli.main(base + ["train"]) == 3
    assert "run gen-data first" in capsys.readouterr().err


def test_report_digest_does_not_depend_on_out(tmp_path):
    path = _tiny_config(tmp_path)
    digests = []
    for name in ("a", "b"):
        base = ["--config", str(path), "--out", str(tmp_path / name), "--seed", "3"]
        for command in ("gen-data", "train", "eval"):
            assert cli.main(base + [command]) == 0
        reports = json.loads((tmp_path / name / "report.json").read_text(encoding="utf-8"))
        digests.append({r["config_digest"] for r in reports})
    assert digests[0] == digests[1] and len(digests[0]) == 1
    assert (tmp_path / "a" / "checkpoint.json").read_bytes() == \
        (tmp_path / "b" / "checkpoint.json").read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_with_non_finite_scores_exits_4(tmp_path, capsys):
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run")]
    for command in ("gen-data", "train"):
        assert cli.main(base + [command]) == 0
    doc = json.loads((tmp_path / "run" / "checkpoint.json").read_text(encoding="utf-8"))
    doc["weights"] = [[w * 1e200 for w in layer] for layer in doc["weights"]]
    blown = tmp_path / "blown.json"
    blown.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(base + ["eval", "--checkpoint", str(blown)]) == 4
    assert "finite" in capsys.readouterr().err
    assert not any((tmp_path / "run" / name).exists()
                   for name in ("report.json", "report.csv", "scores.csv"))
