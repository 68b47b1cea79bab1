import csv
import hashlib
import io
import json

import numpy as np
import pytest
from test_config import PROBES

from oodbench import cli, config, data, gmm_theory, losses, model, numerics, scoring
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


@pytest.mark.parametrize("epsilons", ["abc", "0.1,x", "nan", "inf", "0.1,-0.05", ",", "",
                                      "1e308", "1e101", "0.1,0.1", "0.05,0.1,1e-1"])
def test_malformed_epsilon_grid_exits_2(tmp_path, capsys, epsilons):
    argv = ["--out", str(tmp_path / "run"), "extrapolate", "--input", str(tmp_path / "in.csv"),
            "--dump", str(tmp_path / "dump" / "extrap.csv"), "--epsilons", epsilons]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.json"), "gen-data"]) == 2
    assert "not found" in capsys.readouterr().err


def test_config_directory_exits_2(tmp_path, capsys):
    # A --config that cannot be read is a config error, like a missing one.
    assert cli.main(["--config", str(tmp_path), "--out", str(tmp_path / "run"), "gen-data"]) == 2
    assert f"config file {tmp_path} cannot be read" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_nested_too_deep_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 100000)
    assert cli.main(["--config", str(deep), "--out", str(tmp_path / "run"), "gen-data"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {deep} is not valid JSON: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_train_before_gen_data_exits_3(tmp_path, capsys):
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run")]
    assert cli.main(base + ["train"]) == 3
    assert "run gen-data first" in capsys.readouterr().err


def test_gen_data_writes_every_set_through_one_symmetric_box(tmp_path):
    doc = {"seed": 4, "outputs": {"dir": str(tmp_path / "run")},
           "data": {"classes": 3, "per_class": 8, "test_per_class": 4,
                    "aux": {"count": 16, "arc_fraction": 0.5},
                    "ood_sets": {"ring": {"count": 8}}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["--config", str(path), "gen-data"]) == 0
    data_seed = config.component_seed(4, "data")
    seed = {stem: numerics.derive_seed(data_seed, *stem.encode())
            for stem in ("id_train", "id_test", "aux_out", "ood_ring")}
    raw = {"id_train": data.gen_id_mixture_raw(3, 8, seed["id_train"]),
           "id_test": data.gen_id_mixture_raw(3, 4, seed["id_test"]),
           "aux_out": data.gen_arc_outliers(1.5, 2.2, 0.5, 16, seed["aux_out"]),
           "ood_ring": data.gen_ring_ood(1.5, 2.2, 8, seed["ood_ring"])}
    run = tmp_path / "run"
    assert sorted(p.name for p in run.iterdir()) == sorted(f"{name}.csv" for name in raw)
    r = data.BOX_RADIUS
    for name, ds in raw.items():
        written = data.load_csv(run / f"{name}.csv")
        assert written.x.tobytes() == ((ds.x + r) / (2 * r)).tobytes(), name
        assert isinstance(written, data.LabeledDataset) == name.startswith("id_")
        if name.startswith("id_"):
            assert np.array_equal(written.y, ds.y), name


def test_gen_data_seeds_each_set_by_its_name(tmp_path):
    # Adding an OOD set changes no other set's bytes: each set's stream is its own,
    # and a set reaching further out does not widen the box the others are mapped by.
    digests = []
    far = {"inner_radius": 2.2, "outer_radius": 4.0}
    for i, ood_sets in enumerate([{"ring": {}}, {"far": far, "ring": {}}]):
        run = tmp_path / str(i)
        assert cli.main(["--out", str(run), "--set", f"data.ood_sets={json.dumps(ood_sets)}",
                         "gen-data"]) == 0
        digests.append({name: hashlib.sha256((run / f"{name}.csv").read_bytes()).hexdigest()
                        for name in ("id_train", "id_test", "aux_out", "ood_ring")})
    assert digests[0] == digests[1]


@pytest.mark.filterwarnings("ignore:.*rows left unshaped:UserWarning")
def test_report_digest_does_not_depend_on_out(tmp_path):
    # The whole chain, divoe scored every way, writes the same bytes into
    # either output directory: 4 data sets, 2 train, 3 eval, 2 extrapolate
    # and 1 theory-verify files.
    path = _tiny_config(tmp_path)
    kinds = json.dumps([{"kind": kind} for kind in scoring.ScoreSpec.KINDS])
    digests, written = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        base = ["--config", str(path), "--out", str(out), "--seed", "3",
                "--set", "train.loss.kind=divoe", "--set", f"scores={kinds}"]
        for command in ("gen-data", "train", "eval"):
            assert cli.main(base + [command]) == 0
        assert cli.main(base + ["extrapolate", "--input", str(out / "aux_out.csv"),
                                "--dump", str(out / "extrap.csv")]) == 0
        assert cli.main(base + ["theory-verify"]) == 0
        reports = json.loads((out / "report.json").read_text(encoding="utf-8"))
        digests.append({r["config_digest"] for r in reports})
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert digests[0] == digests[1] and len(digests[0]) == 1
    assert len(written[0]) == 12 and written[0] == written[1]


def test_eval_labels_reports_with_the_run_that_trained_the_checkpoint(tmp_path):
    # A divoe checkpoint trained at seed 96 and evaluated under the default
    # config reports the training run's method, seed and config digest.
    path = _tiny_config(tmp_path)
    base = ["--config", str(path), "--out", str(tmp_path / "run")]
    trained = ["--seed", "96", "--set", "train.loss.kind=divoe"]
    for command in ("gen-data", "train"):
        assert cli.main(base + trained + [command]) == 0
    assert cli.main(base + ["eval"]) == 0
    digest = config.load_config(path, ["train.loss.kind=divoe"], seed=96).digest()
    reports = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
    assert {(r["method"], r["seed"], r["config_digest"]) for r in reports} == \
        {("divoe", 96, digest)}


def test_eval_with_non_finite_scores_exits_4(tmp_path, capsys):
    # Logits that overflow give non-finite scores: eval and extrapolate both
    # refuse them before writing, and no numpy warning escapes either.
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
    dump = tmp_path / "dump" / "extrap.csv"
    assert cli.main(base + ["extrapolate", "--checkpoint", str(blown), "--input",
                            str(tmp_path / "run" / "aux_out.csv"), "--dump", str(dump)]) == 4
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "dump").exists()


def _evaluated_run(tmp_path):
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run")]
    for command in ("gen-data", "train", "eval"):
        assert cli.main(base + [command]) == 0
    return base


def _csv_writer_bytes(rows) -> bytes:
    """The file a per-row ``csv.writer`` writes: the reference for the result tables."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def test_report_and_theory_tables_match_per_row_csv_writer(tmp_path):
    label = 'a,"b'
    cfg_path = _tiny_config(tmp_path)
    run = tmp_path / "run"
    base = ["--config", str(cfg_path), "--out", str(run), "--set", f"outputs.method_label={label}"]
    for command in ("gen-data", "train", "eval"):
        assert cli.main(base + [command]) == 0
    docs = json.loads((run / "report.json").read_text(encoding="utf-8"))
    assert {doc["method"] for doc in docs} == {label}
    header = ["method", "score", "ood_set", "fpr95", "auroc", "aupr", "id_acc"]
    rows = [[doc["method"], doc["score_kind"], r["set_name"], repr(r["fpr95"]), repr(r["auroc"]),
             repr(r["aupr"]), repr(doc["id_accuracy"])] for doc in docs for r in doc["ood_sets"]]
    assert (run / "report.csv").read_bytes() == _csv_writer_bytes([header, *rows])
    merged = tmp_path / "merged.csv"
    assert cli.main(["report", str(run / "report.json"), str(run / "report.json"),
                     "--out-csv", str(merged)]) == 0
    assert merged.read_bytes() == _csv_writer_bytes([header, *rows, *rows])

    assert cli.main(base + ["--set", "theory.trials=3", "theory-verify"]) == 0
    cfg = config.load_config(cfg_path, ["theory.trials=3"])
    t = cfg.theory
    check = gmm_theory.verify_bound(
        gmm_theory.GmmSpec(mu=np.full(t.dim, t.mu_norm / np.sqrt(t.dim)), sigma=t.sigma),
        gmm_theory.TheoryParams(n1=t.n1, n2=t.n2, alpha=t.alpha, tau=t.tau, trials=t.trials),
        np.random.Generator(np.random.PCG64(config.component_seed(cfg.seed, "theory"))))
    assert len(check.trials) == 3
    assert (run / "theory.csv").read_bytes() == _csv_writer_bytes([
        ["trial", "ratio", "rhs", "satisfied"],
        *([str(r.trial), repr(r.ratio), repr(r.rhs), str(int(r.satisfied))]
          for r in check.trials),
        ["violation_fraction", repr(check.violation_fraction), "", ""]])


def test_report_rewrites_the_eval_csv_byte_for_byte(tmp_path):
    _evaluated_run(tmp_path)
    run = tmp_path / "run"
    merged = tmp_path / "merged" / "report.csv"
    assert cli.main(["report", str(run / "report.json"), "--out-csv", str(merged)]) == 0
    assert merged.read_bytes() == (run / "report.csv").read_bytes()


# Each fails a different way: no dims, not an object, not UTF-8, a short
# weight list, more layers than dims, dims not a list, no layers at all, format
# version 1 (as it was written, with no method or config digest), no method;
# then values Python's json accepts but a checkpoint must not hold: NaN,
# infinities (also by overflow), a bool or fractional dim, a string or bool
# parameter, an unknown key. Every version-2 document has just that one fault;
# _RUN closes it with the training run it names. The 2-2 documents would print
# under one truncated name, so each carries an id of its fault.
_RUN = b'"method": "oe", "seed": 0, "config_digest": "ab12"}'
BAD_CHECKPOINTS = [
    b'{"format_version": 2}',
    b"[1]",
    b"\xff",
    b'{"format_version": 2, "dims": [2, 3], "weights": [[0.5]], "biases": [[0, 0, 0]], ' + _RUN,
    b'{"format_version": 2, "dims": [2], "weights": [[0.5]], "biases": [[0]], ' + _RUN,
    b'{"format_version": 2, "dims": 5, "weights": [], "biases": [], ' + _RUN,
    b'{"format_version": 2, "dims": [], "weights": [], "biases": [], ' + _RUN,
    b'{"format_version": 1, "dims": [2, 2], "weights": [[1, 0, 0, 1]], "biases": [[0, 0]], '
    b'"seed": 0}',
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [[1, 0, 0, 1]], '
                 b'"biases": [[0, 0]], "seed": 0, "config_digest": "ab12"}', id="no-method"),
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [[NaN, 0, 0, 1]], '
                 b'"biases": [[0, 0]], ' + _RUN, id="nan-weight"),
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [[1, 0, 0, 1]], '
                 b'"biases": [[0, Infinity]], ' + _RUN, id="infinite-bias"),
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [[1, 0, 0, -Infinity]], '
                 b'"biases": [[0, 0]], ' + _RUN, id="negative-infinite-weight"),
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [[1, 0, 0, 1e999]], '
                 b'"biases": [[0, 0]], ' + _RUN, id="weight-overflowing-as-float"),
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [[1, 0, 0, ' + b"9" * 400
                 + b']], "biases": [[0, 0]], ' + _RUN, id="weight-of-400-digits"),
    b'{"format_version": 2, "dims": [2, 1e300], "weights": [[1, 0, 0, 1]], "biases": [[0, 0]], '
    + _RUN,
    b'{"format_version": 2, "dims": [2, true], "weights": [[1, 1]], "biases": [[0]], ' + _RUN,
    b'{"format_version": 2, "dims": [2, 2.5], "weights": [[1, 0, 0, 1]], "biases": [[0, 0]], '
    + _RUN,
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [["1.5", 0, 0, 1]], '
                 b'"biases": [[0, 0]], ' + _RUN, id="string-weight"),
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [[1, 0, 0, 1]], '
                 b'"biases": [[0, true]], ' + _RUN, id="bool-bias"),
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [[1, 0, 0, 1]], '
                 b'"biases": [[0, 0]], "extra": 1, ' + _RUN, id="unknown-key"),
    # Documents json.loads refuses: nested too deep, and an integer of too many digits.
    pytest.param(b"[" * 100000, id="nested-too-deep"),
    pytest.param(b'{"format_version": 2, "dims": [2, 2], "weights": [[1, 0, 0, ' + b"9" * 5000
                 + b']], "biases": [[0, 0]], ' + _RUN, id="integer-of-5000-digits"),
]


@pytest.mark.parametrize("content", BAD_CHECKPOINTS)
def test_malformed_checkpoint_exits_3(tmp_path, capsys, content):
    base = _evaluated_run(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    capsys.readouterr()
    assert cli.main(base + ["eval", "--checkpoint", str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"error: checkpoint {bad} ")


_REPORT = {"method": "oe", "score_kind": "msp", "id_accuracy": 0.75, "seed": 1,
           "config_digest": "ab12",
           "ood_sets": [{"set_name": "ring", "fpr95": 0.5, "auroc": 0.625, "aupr": 0.25}]}


@pytest.mark.parametrize("content", [
    b'[{"method": "x"}]', b"not json", b"\xff", b'{"method": "x"}', b"[1]",
    pytest.param(b"[" * 100000, id="nested-too-deep"),
    pytest.param(b'[{"id_accuracy": ' + b"9" * 5000 + b"}]", id="integer-of-5000-digits"),
    pytest.param(None, id="missing-file"),
    pytest.param(json.dumps([dict(_REPORT, extra=1)]).encode(), id="unknown-key"),
])
def test_malformed_report_exits_3(tmp_path, capsys, content):
    bad = tmp_path / "report.json"
    if content is not None:
        bad.write_bytes(content)
    out_csv = tmp_path / "out" / "merged.csv"
    assert cli.main(["report", str(bad), "--out-csv", str(out_csv)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {bad} ") and err.count("\n") == 1
    assert "DataError(" not in err
    assert not out_csv.exists()


@pytest.mark.parametrize("what", ["report", "checkpoint"])
def test_json_input_that_is_a_directory_exits_3(tmp_path, capsys, what):
    folder = tmp_path / "folder.json"
    if what == "report":
        argv = ["report", str(folder), "--out-csv", str(tmp_path / "out" / "merged.csv")]
    else:
        argv = _evaluated_run(tmp_path) + ["eval", "--checkpoint", str(folder)]
    folder.mkdir()
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} {folder} cannot be read: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# (key, value, in the OOD-set row?): a wrong JSON type, a rate outside [0, 1],
# or an unknown key.
BAD_REPORT_FIELDS = [
    ("method", 7, False), ("score_kind", None, False), ("id_accuracy", None, False),
    ("id_accuracy", 1.5, False), ("seed", "1", False), ("seed", True, False),
    ("config_digest", 5, False), ("set_name", 3, True), ("auroc", True, True),
    ("fpr95", -0.1, True), ("aupr", float("nan"), True), ("auroc", float("inf"), True),
    ("extra", 1, False), ("extra", 1, True),
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
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {bad} ") and key in err[len(f"error: report {bad} "):]
    assert not out_csv.exists()


def test_ce_train_reads_no_auxiliary_outliers(tmp_path, capsys):
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run")]
    assert cli.main(base + ["gen-data"]) == 0
    (tmp_path / "run" / "aux_out.csv").unlink()
    assert cli.main(base + ["--set", "train.loss.kind=ce", "train"]) == 0
    assert cli.main(base + ["--set", "train.loss.kind=oe", "train"]) == 3
    assert "aux_out.csv" in capsys.readouterr().err


# The optional columns of history.csv each loss kind fills: id_hinge_loss, the
# ID hinge term, for a hinge kind, outlier_loss, the one outlier term, when it
# binds the aux batch, and extrapolated_loss when it synthesizes rows of that batch.
FILLED_COLUMNS = {"ce": set(), "oe": {"outlier_loss"},
                  "energy_bounded": {"id_hinge_loss", "outlier_loss"},
                  "divoe": {"outlier_loss", "extrapolated_loss"}}
OPTIONAL_COLUMNS = ("id_hinge_loss", "outlier_loss", "extrapolated_loss")


def _filled_columns(history) -> set[str]:
    """The optional columns of a history.csv filled on every row; each must be
    filled on every row or on none."""
    with history.open(encoding="utf-8", newline="") as fh:
        filled = [{column for column in OPTIONAL_COLUMNS if row[column]}
                  for row in csv.DictReader(fh)]
    assert filled and all(row == filled[0] for row in filled)
    return filled[0]


@pytest.mark.parametrize("kind", losses.LOSS_KINDS)
def test_history_fills_the_outlier_columns_of_each_kind(tmp_path, kind):
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run"),
            "--set", f"train.loss.kind={kind}"]
    assert cli.main(base + ["gen-data"]) == 0 and cli.main(base + ["train"]) == 0
    assert _filled_columns(tmp_path / "run" / "history.csv") == FILLED_COLUMNS[kind]


@pytest.mark.parametrize("kind", losses.LOSS_KINDS)
def test_train_at_zero_epochs_saves_the_seeded_init(tmp_path, capsys, kind):
    cfg_path = _tiny_config(tmp_path)
    overrides = ["train.epochs=0", f"train.loss.kind={kind}"]
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "run"),
            *(arg for o in overrides for arg in ("--set", o))]
    assert cli.main(base + ["gen-data"]) == 0 and cli.main(base + ["train"]) == 0
    assert "no training steps executed (epochs=0)" in capsys.readouterr().out
    run = tmp_path / "run"
    assert (run / "history.csv").read_text(encoding="utf-8") == \
        "epoch,step,lr,ce_loss,id_hinge_loss,outlier_loss,extrapolated_loss,total_loss\n"
    cfg = config.load_config(cfg_path, overrides)
    init = model.init_model((2, *cfg.model.hidden, cfg.data.classes),
                            config.component_seed(cfg.seed, "model"))
    model.save_checkpoint(init, tmp_path / "init.json", (kind, cfg.seed, cfg.digest()))
    assert (run / "checkpoint.json").read_bytes() == (tmp_path / "init.json").read_bytes()


# divoe's ascent, eval and extrapolate run on a model with no hidden layer,
# whose θ is W0 and b0 alone, as on one with a hidden layer; ash_energy,
# refused without one, is scored only with one.
@pytest.mark.filterwarnings("ignore:.*rows left unshaped:UserWarning")
@pytest.mark.parametrize("hidden, kinds", [
    pytest.param([], ["msp", "energy", "odin"], id="no-hidden-layer"),
    pytest.param([4], ["msp", "energy", "odin", "ash_energy"], id="one-hidden-layer"),
])
def test_divoe_trains_and_evaluates_end_to_end(tmp_path, hidden, kinds):
    run = tmp_path / "run"
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(run),
            "--set", f"model.hidden={hidden}", "--set", "train.loss.kind=divoe",
            "--set", f"scores={json.dumps([{'kind': kind} for kind in kinds])}"]
    for command in ("gen-data", "train", "eval"):
        assert cli.main(base + [command]) == 0
    assert cli.main(base + ["extrapolate", "--input", str(run / "aux_out.csv"),
                            "--epsilons", "0.05", "--dump", str(run / "extrap.csv")]) == 0
    trained, _ = model.load_checkpoint(run / "checkpoint.json")
    assert trained.dims == (2, *hidden, 3)
    assert trained.theta.size == sum(a * b + b for a, b in zip(trained.dims, trained.dims[1:]))
    assert _filled_columns(run / "history.csv") == FILLED_COLUMNS["divoe"]
    reports = json.loads((run / "report.json").read_text(encoding="utf-8"))
    assert [doc["score_kind"] for doc in reports] == kinds
    with (run / "extrap.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(data.load_csv(run / "aux_out.csv"))
    assert all(float(r["loss_after"]) >= float(r["loss_before"]) for r in rows)


_CE = ["--set", "train.loss.kind=ce"]
_OE = ["--set", "train.loss.kind=oe"]
_DIVOE = ["--set", "train.loss.kind=divoe"]
_ASH = ["--set", 'scores=[{"kind": "msp"}, {"kind": "ash_energy"}]']
_NO_HIDDEN_LAYER = ('{"format_version": 2, "dims": [2, 3], "weights": [[1, 0, 0, 0, 1, 0]], '
                    '"biases": [[0, 0, 0]], ' + _RUN.decode())

# Each is one input file with the one fault a check where the CLI reads it
# refuses: a label outside [0, classes) (3 here) or outside intp, a width
# other than the model's or none at all, a value outside data.DOMAIN, no rows,
# bytes that are not UTF-8, a field over csv's length limit; then a
# checkpoint with no hidden layer for ash_energy to shape. Fields: command,
# extra arguments, the file (under the run directory; input.csv is
# extrapolate's --input and a .json is eval's --checkpoint), its content.
BAD_DATA = [
    pytest.param("train", [], "id_train.csv", "x0,x1,label\n0.5,0.5,7\n", id="train-label-7"),
    pytest.param("eval", [], "id_test.csv", "x0,x1,label\n0.5,0.5,7\n", id="eval-label-7"),
    pytest.param("eval", [], "id_test.csv", "x0,x1,label\n0.5,0.5,-1\n", id="eval-label-minus-1"),
    pytest.param("train", [], "id_train.csv", "x0,x1,label\n0.5,0.5,99999999999999999999\n",
                 id="train-label-outside-intp"),
    pytest.param("eval", [], "ood_ring.csv", "x0,x1,x2\n0.1,0.2,0.3\n", id="eval-3-columns"),
    pytest.param("extrapolate", [], "input.csv", "x0,x1,x2\n0.1,0.2,0.3\n",
                 id="extrapolate-3-columns"),
    pytest.param("train", _OE, "aux_out.csv", "x0,x1,x2\n0.1,0.2,0.3\n", id="oe-aux-3-columns"),
    pytest.param("train", _DIVOE, "aux_out.csv", "x0,x1\n1.5,0.5\n", id="divoe-aux-outside-domain"),
    pytest.param("eval", [], "ood_ring.csv", "x0,x1\n1.5,0.5\n", id="eval-outside-domain"),
    pytest.param("extrapolate", [], "input.csv", "x0,x1\n1.5,0.5\n",
                 id="extrapolate-outside-domain"),
    pytest.param("train", [], "id_train.csv", "x0,x1,label\n", id="train-no-rows"),
    pytest.param("train", _CE, "id_train.csv", "label\n0\n", id="ce-no-feature-columns"),
    pytest.param("train", _OE, "aux_out.csv", "x0,x1\n", id="oe-aux-no-rows"),
    pytest.param("extrapolate", [], "input.csv", "x0,x1\n", id="extrapolate-no-rows"),
    pytest.param("eval", [], "ood_ring.csv", b"x0,x1\n0.5,\xff\n", id="eval-not-utf-8"),
    pytest.param("extrapolate", [], "input.csv", b"x0,x1\n\xff,0.5\n",
                 id="extrapolate-not-utf-8"),
    pytest.param("eval", [], "ood_ring.csv", "x0,x1\n0." + "5" * 131072 + ",0.5\n",
                 id="eval-field-over-limit"),
    pytest.param("eval", _ASH, "flat.json", _NO_HIDDEN_LAYER, id="eval-ash-without-hidden-layer"),
]
OUTPUTS = {"train": ["checkpoint.json", "history.csv"],
           "eval": ["report.json", "report.csv", "scores.csv"],
           "extrapolate": ["dump"]}


@pytest.mark.parametrize("command, extra, name, content", BAD_DATA)
def test_bad_data_exits_3(tmp_path, capsys, command, extra, name, content):
    run = tmp_path / "run"
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(run), *extra]
    assert cli.main(base + ["gen-data"]) == 0
    if command != "train":
        assert cli.main(base + ["train"]) == 0
    bad = run / name
    bad.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    argv = {"train": ["train"],
            "eval": ["eval", "--checkpoint", str(bad)] if name.endswith(".json") else ["eval"],
            "extrapolate": ["extrapolate", "--input", str(bad),
                            "--dump", str(run / "dump" / "extrap.csv")]}[command]
    capsys.readouterr()
    assert cli.main(base + argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(bad) in captured.err
    assert captured.out == ""
    assert not any((run / output).exists() for output in OUTPUTS[command])


def test_eval_names_the_line_of_a_bad_value_past_the_first_csv_block(tmp_path, capsys):
    # load_csv parses rows in blocks of CSV_BLOCK_ROWS; the line number counts the header.
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run")]
    for command in ("gen-data", "train"):
        assert cli.main(base + [command]) == 0
    bad = tmp_path / "run" / "ood_ring.csv"
    bad.write_text("x0,x1\n" + "0.5,0.5\n" * data.CSV_BLOCK_ROWS + "0.5,abc\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(base + ["eval"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{data.CSV_BLOCK_ROWS + 2}: ") and err.count("\n") == 1


def test_extrapolate_grid_matches_one_run_per_epsilon(tmp_path):
    base = _evaluated_run(tmp_path)
    run = tmp_path / "run"
    grid = [0.0, 0.05, 0.2]
    argv = base + ["extrapolate", "--input", str(run / "aux_out.csv"), "--dump",
                   str(run / "extrap.csv"), "--epsilons", ",".join(map(str, grid))]
    assert cli.main(argv) == 0
    mlp, _ = model.load_checkpoint(run / "checkpoint.json")
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


# Without --epsilons, extrapolate runs the pool's distinct radii in pool order.
@pytest.mark.parametrize("pool, grid", [
    (None, "0.05"),
    ("[[0.02, 0.5], [0.1, 0.5]]", "0.02,0.1"),
    ("[[0.1, 0.25], [0.02, 0.5], [0.1, 0.25]]", "0.1,0.02"),
])
def test_extrapolate_without_epsilons_uses_the_pool_radii(tmp_path, pool, grid):
    base = _evaluated_run(tmp_path)
    run = tmp_path / "run"
    n = len(data.load_csv(run / "aux_out.csv").x)
    outputs = []
    for name, args in (("pool", []), ("grid", ["--epsilons", grid])):
        dump, samples = run / f"{name}.csv", run / f"{name}_samples.csv"
        argv = ["--set", f"extrapolation.pool={pool}"] if pool else []
        assert cli.main(base + argv + ["extrapolate", "--input", str(run / "aux_out.csv"),
                                        "--dump", str(dump), "--samples", str(samples),
                                        *args]) == 0
        outputs.append((dump.read_bytes(), samples.read_bytes()))
    assert outputs[0] == outputs[1]
    rows = [line.split(",")[:2] for line in outputs[0][0].decode().splitlines()[1:]]
    assert [(int(i), float(e)) for i, e in rows] == \
        [(i, float(e)) for e in grid.split(",") for i in range(n)]


def test_extrapolate_grid_over_the_size_rule_exits_2(tmp_path, capsys):
    # The grid ascends as one batch through the widest layer: 513 distinct radii
    # x 4096 x 64 values is past data.MAX_ELEMENTS (2**27), from a short argument.
    checkpoint, inputs, dump = tmp_path / "ckpt.json", tmp_path / "in.csv", tmp_path / "d.csv"
    model.save_checkpoint(model.init_model((2, 64, 4), seed=0), checkpoint, ("ce", 0, "ab12"))
    data.save_csv(data.UnlabeledDataset(np.full((4096, 2), 0.5)), inputs)
    grid = ",".join(str(i / 1000) for i in range(513))
    argv = ["--out", str(tmp_path / "run"), "extrapolate", "--checkpoint", str(checkpoint),
            "--input", str(inputs), "--dump", str(dump), "--epsilons", grid]
    assert 513 * 4096 * 64 > data.MAX_ELEMENTS
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the grid of --epsilons") and "widest layer" in err
    assert "513 x 4096 x 64 values exceeds data.MAX_ELEMENTS" in err
    assert not dump.exists() and not (tmp_path / "run").exists()


def test_extrapolate_calls_the_traced_pgd_extrapolate_once_per_grid(tmp_path, monkeypatch):
    # perfbench's traced mode wraps cli.pgd_extrapolate and reads the
    # ExtrapolationConfig at position 2, so the whole grid goes through that name.
    base = _evaluated_run(tmp_path)
    run = tmp_path / "run"
    calls = []
    real = cli.pgd_extrapolate

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "pgd_extrapolate", recorder)
    assert cli.main(base + ["extrapolate", "--input", str(run / "aux_out.csv"), "--dump",
                            str(run / "extrap.csv"), "--epsilons", "0.02,0.1"]) == 0
    x = data.load_csv(run / "aux_out.csv").x
    n, d = x.shape
    [(args, kwargs)] = calls
    assert args[1].shape == (2 * n, d)
    assert args[2] == config.load_config(_tiny_config(tmp_path)).extrapolation
    epsilon = args[3] if len(args) > 3 else kwargs["epsilon"]
    assert np.array_equal(epsilon, np.repeat([0.02, 0.1], n))


def test_huge_finite_losses_print_in_exponent_form(tmp_path, capsys):
    # Finite losses near 1e200 or 1e300 print as 6 significant digits and an
    # exponent, not as hundreds of digits.
    run = tmp_path / "run"
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(run)]
    assert cli.main(base + ["gen-data"]) == 0
    capsys.readouterr()
    one_step = ["--set", "train.id_batch=24", "--set", "train.loss.kind=energy_bounded",
                "--set", "train.loss.m_in=-1e100"]
    assert cli.main(base + one_step + ["train"]) == 0
    outputs = [capsys.readouterr().out]
    mlp = model.init_model((2, 4, 3), seed=0)
    huge = run / "huge.json"
    model.save_checkpoint(model.from_layers(mlp.dims, (mlp.weights[0] * 1e300, mlp.weights[1]),
                                            mlp.biases), huge, ("ce", 0, "ab12"))
    assert cli.main(base + ["extrapolate", "--checkpoint", str(huge), "--input",
                            str(run / "aux_out.csv"), "--dump", str(run / "extrap.csv")]) == 0
    outputs.append(capsys.readouterr().out)
    for out, summary in zip(outputs, ("final epoch 0: mean total loss", "epsilon 0.05:")):
        [line] = [line for line in out.splitlines() if line.startswith(summary)]
        assert "e+" in line
        assert all(len(line) < 200 for line in out.splitlines())


# Each run starts in an empty working directory: (arguments, exit code, what it
# holds after). A refused command creates no <out>, and theory-verify with
# --out-csv elsewhere writes nothing under it, so runs/default does not appear.
NO_OUT_DIR_RUNS = [
    pytest.param(["--out", "fresh", "train"], 3, [], id="train-before-gen-data"),
    pytest.param(["--out", "fresh", "eval"], 3, [], id="eval-without-checkpoint"),
    pytest.param(["--out", "fresh", "--set", "theory.alpha=0.1", "theory-verify"], 4, [],
                 id="theory-verify-infeasible"),
    pytest.param(["--set", "theory.trials=3", "theory-verify", "--out-csv", "elsewhere/t.csv"],
                 0, ["elsewhere"], id="theory-verify-out-csv-elsewhere"),
]


@pytest.mark.parametrize("argv, code, left", NO_OUT_DIR_RUNS)
def test_a_command_creates_no_output_directory_it_does_not_write(tmp_path, monkeypatch, capsys,
                                                                  argv, code, left):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    assert sorted(path.name for path in tmp_path.iterdir()) == left


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_gradcheck_without_cases_exits_2(capsys, cases):
    assert cli.main(["gradcheck", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--cases" in captured.err
    assert "PASS" not in captured.out


def test_gradcheck_negative_seed_exits_2(capsys):
    # PCG64 takes no negative seed; the CLI refuses it before the suite runs.
    assert cli.main(["gradcheck", "--cases", "1", "--gc-seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--gc-seed" in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out


def test_theory_verify_creates_the_out_csv_directory(tmp_path):
    out_csv = tmp_path / "missing" / "dir" / "t.csv"
    argv = ["--out", str(tmp_path / "run"), "--set", "theory.trials=3", "theory-verify",
            "--out-csv", str(out_csv)]
    assert cli.main(argv) == 0
    assert len(out_csv.read_text(encoding="utf-8").splitlines()) == 3 + 2


@pytest.mark.parametrize("overrides, warns", [([], False), (["--set", "theory.mu_norm=1"], True)])
def test_theory_verify_warns_when_the_bound_checks_nothing(tmp_path, capsys, overrides, warns):
    # At the defaults the right-hand side is about 0.37; at mu_norm 1 it is negative.
    argv = ["--out", str(tmp_path), "--set", "theory.trials=3", *overrides, "theory-verify"]
    assert cli.main(argv) == 0
    err = capsys.readouterr().err
    if warns:
        assert err.startswith("warning: the bound's right-hand side is -")
        assert err.endswith(" <= 0, so the check tests nothing\n")
    else:
        assert err == ""
    assert len((tmp_path / "theory.csv").read_text(encoding="utf-8").splitlines()) == 3 + 2


def test_theory_verify_fails_against_a_bound_no_ratio_can_meet(tmp_path, capsys, monkeypatch):
    # Negative control: by Cauchy-Schwarz mu^T theta / (sigma ||theta||) <= ||mu|| / sigma,
    # so a right-hand side of ||mu|| / sigma + 1 is violated by every trial.
    monkeypatch.setattr(gmm_theory, "bound_rhs",
                        lambda mu_norm, sigma, n, d, alpha, tau: mu_norm / sigma + 1.0)
    argv = ["--out", str(tmp_path), "--set", "theory.trials=4", "theory-verify"]
    assert cli.main(argv) == 0
    with (tmp_path / "theory.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4 + 2  # header, trials, violation fraction: what perfbench reads
    assert [row[3] for row in rows[1:-1]] == ["0"] * 4
    assert rows[-1][:2] == ["violation_fraction", "1.0"]
    margin = min(float(row[1]) - float(row[2]) for row in rows[1:-1])
    assert margin < 0
    assert capsys.readouterr().out == (
        f"violation fraction: 1.00 over 4 trials, smallest margin (ratio - rhs) {margin:.4g}\n")


def test_theory_verify_prints_the_smallest_margin(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "--set", "theory.trials=5", "theory-verify"]
    assert cli.main(argv) == 0
    with (tmp_path / "theory.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:-1]
    margin = min(float(ratio) - float(rhs) for _, ratio, rhs, _ in rows)
    assert margin > 0
    out = capsys.readouterr().out
    assert out == f"violation fraction: 0.00 over 5 trials, smallest margin (ratio - rhs) {margin:.4g}\n"


def test_theory_verify_exits_4_when_the_level_is_infeasible(tmp_path, capsys):
    # At level alpha - tau = 0.1 with ||mu|| 4, about 3 in a million candidates pass,
    # so the first trial runs out of candidates before it has its 50 outliers.
    argv = ["--out", str(tmp_path), "--set", "theory.alpha=0.1", "theory-verify"]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "exhausted 2000000 draws" in captured.err
    assert captured.out == "" and not (tmp_path / "theory.csv").exists()


def test_inputs_at_the_magnitude_cap_finish_or_fail_typed(tmp_path):
    # pytest turns a numpy RuntimeWarning into an error, so an overflow of a
    # product of capped inputs would raise here instead of returning an exit code.
    cap = json.dumps(data.MAX_MAGNITUDE)
    radii = f'"inner_radius": {data.MAX_MAGNITUDE / 2}, "outer_radius": {cap}'
    base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / "run")]
    run = tmp_path / "run"
    for key, value in [("data.aux", f'{{{radii}, "count": 16}}'),
                       ("data.ood_sets", f'{{"ring": {{{radii}, "count": 8}}}}')]:
        # Radii past data.BOX_RADIUS are refused at parse, before anything is written.
        assert cli.main(base + ["--set", f"{key}={value}", "gen-data"]) == 2
        assert not run.exists()
    assert cli.main(base + ["gen-data"]) == 0
    assert cli.main(base + ["train"]) == 0
    assert cli.main(base + ["extrapolate", "--input", str(run / "aux_out.csv"),
                            "--dump", str(run / "extrap.csv"), "--epsilons", cap]) in (0, 4)
    theory = [f"theory.{key}={cap}" for key in ("mu_norm", "sigma", "alpha")]
    argv = base + [arg for item in [*theory, "theory.trials=3"] for arg in ("--set", item)]
    assert cli.main(argv + ["theory-verify"]) in (0, 4)


def test_theory_verify_at_the_magnitude_cap_exits_0(tmp_path, capsys):
    # At mu_norm = sigma = alpha = data.MAX_MAGNITUDE the right-hand side is about
    # -2.3e199, so every trial passes.
    cap = json.dumps(data.MAX_MAGNITUDE)
    argv = ["--out", str(tmp_path), "--set", "theory.trials=3"]
    for key in ("mu_norm", "sigma", "alpha"):
        argv += ["--set", f"theory.{key}={cap}"]
    assert cli.main(argv + ["theory-verify"]) == 0
    assert capsys.readouterr().out.startswith("violation fraction: 0.00 over 3 trials")
    assert len((tmp_path / "theory.csv").read_text(encoding="utf-8").splitlines()) == 3 + 2


@pytest.mark.parametrize("divisors", [["mu_norm"], ["sigma"], ["mu_norm", "sigma"]])
def test_theory_verify_at_the_divisor_bound_finishes_or_fails_typed(tmp_path, divisors):
    # pytest turns a numpy RuntimeWarning into an error, so a division by an
    # underflowed square would raise here instead of returning an exit code.
    bound = json.dumps(1 / data.MAX_MAGNITUDE)
    argv = ["--out", str(tmp_path), "--set", "theory.trials=3"]
    for key in divisors:
        argv += ["--set", f"theory.{key}={bound}"]
    assert cli.main(argv + ["theory-verify"]) in (0, 4)


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


# extrapolate refuses two of --input, --dump and the samples path (default
# synthesized.csv beside the dump) that name one file, before it reads the
# checkpoint or the input, and before it writes.
@pytest.mark.parametrize("input_csv, dump, samples", [
    pytest.param("run/aux_out.csv", "out/synthesized.csv", None, id="dump-is-default-samples"),
    pytest.param("run/aux_out.csv", "out/d.csv", "out/sub/../d.csv", id="samples-is-dump"),
    pytest.param("run/aux_out.csv", "run/aux_out.csv", "out/s.csv", id="dump-is-input"),
])
def test_extrapolate_refuses_one_file_named_twice(tmp_path, monkeypatch, capsys,
                                                  input_csv, dump, samples):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out" / "sub").mkdir(parents=True)
    base = ["--config", str(_tiny_config(tmp_path)), "--out", "run"]
    assert cli.main(base + ["gen-data"]) == 0 and cli.main(base + ["train"]) == 0
    before = {path: path.read_bytes() for path in (tmp_path / "run").iterdir()}
    reads = []
    for module, name in ((model, "load_checkpoint"), (data, "load_csv")):
        monkeypatch.setattr(module, name, lambda path, real=getattr(module, name):
                            reads.append(path) or real(path))
    argv = base + ["extrapolate", "--input", input_csv, "--dump", dump]
    assert cli.main(argv + (["--samples", samples] if samples else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "names the same file as" in err
    assert reads == []
    assert {path: path.read_bytes() for path in (tmp_path / "run").iterdir()} == before
    assert [path.name for path in (tmp_path / "out").iterdir()] == ["sub"]


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


def _scores_by_kind(run):
    """scores.csv rows per score kind, and report.csv rows and report.json
    documents (less the config digest) per score kind, in file order."""
    with (run / "scores.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with (run / "report.csv").open(encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(fh))
    docs = json.loads((run / "report.json").read_text(encoding="utf-8"))
    kinds = list(dict.fromkeys(row["score_kind"] for row in rows))
    return kinds, {kind: ([row for row in rows if row["score_kind"] == kind],
                          [row for row in table if row["score"] == kind],
                          [{**doc, "config_digest": None} for doc in docs
                           if doc["score_kind"] == kind]) for kind in kinds}


@pytest.mark.filterwarnings("ignore:.*rows left unshaped:UserWarning")
def test_eval_scores_match_whatever_the_place_of_ash_energy(tmp_path):
    # ash_energy shapes the features in place; listed first, it must still
    # leave msp and energy the unshaped features.
    kinds = ["msp", "energy", "odin", "ash_energy"]
    results = []
    for name, order in (("last", kinds), ("first", kinds[-1:] + kinds[:-1])):
        base = ["--config", str(_tiny_config(tmp_path)), "--out", str(tmp_path / name),
                "--set", f"scores={json.dumps([{'kind': kind} for kind in order])}"]
        for command in ("gen-data", "train", "eval"):
            assert cli.main(base + [command]) == 0
        written, by_kind = _scores_by_kind(tmp_path / name)
        assert written == order  # stored and written in config order
        results.append(by_kind)
    assert results[0] == results[1]
