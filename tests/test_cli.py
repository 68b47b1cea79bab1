import json

import pytest
from test_config import PROBES

from oodbench import cli, data, model, scoring
from oodbench.extrapolation import ExtrapolationConfig, pgd_extrapolate


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


@pytest.mark.parametrize("epsilons", ["abc", "0.1,x", "nan", "inf", "0.1,-0.05", ",", ""])
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


def _evaluated_run(tmp_path):
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run")]
    for command in ("gen-data", "train", "eval"):
        assert cli.main(base + [command]) == 0
    return base


def test_report_rewrites_the_eval_csv_byte_for_byte(tmp_path):
    _evaluated_run(tmp_path)
    run = tmp_path / "run"
    merged = tmp_path / "merged" / "report.csv"
    assert cli.main(["report", str(run / "report.json"), "--out-csv", str(merged)]) == 0
    assert merged.read_bytes() == (run / "report.csv").read_bytes()


# Each fails a different way: no dims, not an object, not UTF-8, a short
# weight list, more layers than dims, dims not a list, no layers at all.
BAD_CHECKPOINTS = [
    b'{"format_version": 1}',
    b"[1]",
    b"\xff",
    b'{"format_version": 1, "dims": [2, 3], "weights": [[0.5]], "biases": [[0, 0, 0]]}',
    b'{"format_version": 1, "dims": [2], "weights": [[0.5]], "biases": [[0]]}',
    b'{"format_version": 1, "dims": 5, "weights": [], "biases": []}',
    b'{"format_version": 1, "dims": [], "weights": [], "biases": []}',
]


@pytest.mark.parametrize("content", BAD_CHECKPOINTS)
def test_malformed_checkpoint_exits_3(tmp_path, capsys, content):
    base = _evaluated_run(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    capsys.readouterr()
    assert cli.main(base + ["eval", "--checkpoint", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: checkpoint ")


@pytest.mark.parametrize("content", [b'[{"method": "x"}]', b"not json", b"\xff",
                                     b'{"method": "x"}', b"[1]"])
def test_malformed_report_exits_3(tmp_path, capsys, content):
    bad = tmp_path / "report.json"
    bad.write_bytes(content)
    out_csv = tmp_path / "out" / "merged.csv"
    assert cli.main(["report", str(bad), "--out-csv", str(out_csv)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad} is not a report list")
    assert not out_csv.exists()


_REPORT = {"method": "oe", "score_kind": "msp", "id_accuracy": 0.75, "seed": 1,
           "config_digest": "ab12",
           "ood_sets": [{"set_name": "ring", "fpr95": 0.5, "auroc": 0.625, "aupr": 0.25}]}


# (key, value, in the OOD-set row?): a wrong JSON type, or a rate outside [0, 1].
BAD_REPORT_FIELDS = [
    ("method", 7, False), ("score_kind", None, False), ("id_accuracy", None, False),
    ("id_accuracy", 1.5, False), ("seed", "1", False), ("seed", True, False),
    ("config_digest", 5, False), ("set_name", 3, True), ("auroc", True, True),
    ("fpr95", -0.1, True), ("aupr", float("nan"), True), ("auroc", float("inf"), True),
]


@pytest.mark.parametrize("key, value, in_row", BAD_REPORT_FIELDS)
def test_report_field_of_wrong_type_exits_3(tmp_path, capsys, key, value, in_row):
    out_csv = tmp_path / "out" / "merged.csv"
    good = tmp_path / "good.json"
    good.write_text(json.dumps([_REPORT]), encoding="utf-8")
    assert cli.main(["report", str(good), "--out-csv", str(out_csv)]) == 0
    out_csv.unlink()
    doc = json.loads(json.dumps(_REPORT))
    (doc["ood_sets"][0] if in_row else doc)[key] = value
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps([doc]), encoding="utf-8")
    assert cli.main(["report", str(bad), "--out-csv", str(out_csv)]) == 3
    assert f"report field {key!r}" in capsys.readouterr().err
    assert not out_csv.exists()


def test_ce_train_reads_no_auxiliary_outliers(tmp_path, capsys):
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run")]
    assert cli.main(base + ["gen-data"]) == 0
    (tmp_path / "run" / "aux_out.csv").unlink()
    assert cli.main(base + ["--set", "train.loss.kind=ce", "train"]) == 0
    assert cli.main(base + ["--set", "train.loss.kind=oe", "train"]) == 3
    assert "aux_out.csv" in capsys.readouterr().err


def test_extrapolate_grid_matches_one_run_per_epsilon(tmp_path):
    base = _evaluated_run(tmp_path)
    run = tmp_path / "run"
    grid = [0.0, 0.05, 0.2]
    argv = base + ["extrapolate", "--input", str(run / "aux_out.csv"), "--dump",
                   str(run / "extrap.csv"), "--epsilons", ",".join(map(str, grid))]
    assert cli.main(argv) == 0
    mlp = model.load_checkpoint(run / "checkpoint.json")
    x = data.load_csv(run / "aux_out.csv").x
    spec = scoring.ScoreSpec(kind="msp")
    before = scoring.compute_scores(mlp, x, spec)
    dump, samples = ["index,epsilon,loss_before,loss_after,score_before,score_after"], []
    for eps in grid:
        b = pgd_extrapolate(mlp, x, ExtrapolationConfig(), epsilon=eps)
        after = scoring.compute_scores(mlp, b.synthesized, spec)
        for i in range(len(x)):
            dump.append(",".join(repr(float(v)) if k else str(v) for k, v in enumerate(
                [i, eps, b.initial_values[i], b.final_values[i], before[i], after[i]])))
            samples.append(",".join([str(i), repr(eps)] +
                                    [format(v, ".17g") for v in b.synthesized[i]]))
    assert (run / "extrap.csv").read_text(encoding="utf-8").splitlines() == dump
    assert (run / "synthesized.csv").read_text(encoding="utf-8").splitlines()[1:] == samples


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_gradcheck_without_cases_exits_2(capsys, cases):
    assert cli.main(["gradcheck", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--cases" in captured.err
    assert "PASS" not in captured.out


def test_theory_verify_creates_the_out_csv_directory(tmp_path):
    out_csv = tmp_path / "missing" / "dir" / "t.csv"
    argv = ["--out", str(tmp_path / "run"), "--set", "theory.trials=3", "theory-verify",
            "--out-csv", str(out_csv)]
    assert cli.main(argv) == 0
    assert len(out_csv.read_text(encoding="utf-8").splitlines()) == 3 + 2


def test_extrapolate_creates_the_samples_directory(tmp_path):
    base = _evaluated_run(tmp_path)
    run = tmp_path / "run"
    samples = tmp_path / "missing" / "dir" / "s.csv"
    argv = base + ["extrapolate", "--input", str(run / "aux_out.csv"), "--dump",
                   str(run / "extrap.csv"), "--samples", str(samples)]
    assert cli.main(argv) == 0
    n = len(data.load_csv(run / "aux_out.csv"))
    assert len(samples.read_text(encoding="utf-8").splitlines()) == n + 1
    assert len((run / "extrap.csv").read_text(encoding="utf-8").splitlines()) == n + 1


def test_ash_energy_without_a_hidden_layer_exits_2_before_writing(tmp_path, capsys):
    argv = ["--out", str(tmp_path / "run"), "--set", "model.hidden=[]",
            "--set", 'scores=[{"kind": "msp"}, {"kind": "ash_energy"}]', "gen-data"]
    assert cli.main(argv) == 2
    assert "model.hidden is empty" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:.*rows left unshaped:UserWarning")
def test_eval_forwards_each_set_once_plus_odin(tmp_path, monkeypatch):
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run"),
            "--set", 'data.ood_sets={"ring": {"count": 8}, "far": {"inner_radius": 2.2, '
                     '"outer_radius": 4.0, "count": 5}}',
            "--set", 'scores=[{"kind": "msp"}, {"kind": "energy"}, {"kind": "odin"}, '
                     '{"kind": "ash_energy"}]']
    for command in ("gen-data", "train"):
        assert cli.main(base + [command]) == 0
    rows = {"penultimate_features": [], "forward": []}
    for name, calls in rows.items():
        def counted(mlp, batch, fn=getattr(model, name), calls=calls):
            calls.append(batch.shape[0])
            return fn(mlp, batch)
        monkeypatch.setattr(model, name, counted)
    assert cli.main(base + ["eval"]) == 0
    sizes = [3 * 4, 5, 8]  # id_test, then the OOD sets in name order
    assert rows == {"penultimate_features": sizes, "forward": sizes}
