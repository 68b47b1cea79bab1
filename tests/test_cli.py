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
