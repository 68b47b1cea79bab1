import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oodbench import data, metrics
from oodbench.errors import DataError, NumericError

score_lists = st.lists(st.floats(-5, 5).map(lambda v: round(v, 1)), min_size=1, max_size=40)


def _random_scores(rng, n, m, tie_prob=0.5):
    ids = rng.normal(1.0, 1.0, n)
    oods = rng.normal(0.0, 1.0, m)
    if rng.uniform() < tie_prob:
        ids = np.round(ids, 1)
        oods = np.round(oods, 1)
    return ids, oods


def test_fpr_perfectly_separated():
    assert metrics.fpr_at_tpr([2.0, 3.0, 4.0], [0.0, 1.0]) == 0.0


def test_fpr_hand_example():
    got = metrics.fpr_at_tpr([0.9, 0.8, 0.7, 0.6], [0.65, 0.5])
    assert got == 0.5


def test_fpr_identical_multisets_lower_bound():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = np.round(rng.normal(size=rng.integers(5, 60)), 1)
        got = metrics.fpr_at_tpr(scores, scores)
        assert got >= 0.95 - 1.0 / scores.size - 1e-12


def test_fpr_empty_raises():
    with pytest.raises(DataError):
        metrics.fpr_at_tpr([], [1.0])


def test_auroc_perfect_and_symmetric():
    assert metrics.auroc([2.0, 3.0], [0.0, 1.0]) == 1.0
    scores = [0.3, 0.5, 0.5, 0.9]
    assert metrics.auroc(scores, scores) == 0.5


def test_auroc_hand_example():
    assert metrics.auroc([0.9, 0.4], [0.5, 0.1]) == 0.75


def test_auroc_complement_identity_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ids, oods = _random_scores(rng, int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        assert metrics.auroc(ids, oods) + metrics.auroc(oods, ids) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", [metrics.fpr_at_tpr, metrics.auroc, metrics.aupr])
def test_nonfinite_scores_raise_numeric_error(metric, bad):
    with pytest.raises(NumericError, match="finite"):
        metric([0.5, bad], [0.1, 0.2])
    with pytest.raises(NumericError, match="finite"):
        metric([0.5, 0.7], [bad])


def test_aupr_perfect_separation():
    assert metrics.aupr([2.0, 3.0], [0.0, 1.0]) == 1.0


def test_aupr_all_equal_is_base_rate():
    assert metrics.aupr([1.0, 1.0, 1.0], [1.0]) == pytest.approx(0.75)


def test_aupr_hand_example_matches_oracle():
    got = metrics.aupr([0.9, 0.4], [0.5, 0.1])
    assert got == pytest.approx(oracles.aupr_sweep([0.9, 0.4], [0.5, 0.1]), abs=1e-15)
    assert got == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_metrics_match_oracles_with_ties():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n, m = int(rng.integers(1, 300)), int(rng.integers(1, 300))
        ids, oods = _random_scores(rng, n, m)
        # U is a sum of integer and half-integer counts, so AUROC matches exactly.
        assert metrics.auroc(ids, oods) == oracles.auroc_pairwise(ids, oods)
        # Both add the same step terms left to right, so AUPR matches exactly too.
        assert metrics.aupr(ids, oods) == oracles.aupr_sweep(ids, oods)
        assert abs(metrics.fpr_at_tpr(ids, oods)
                   - oracles.fpr_at_tpr_sweep(ids, oods, 0.95)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(score_lists, score_lists, st.sampled_from(["exp", "affine"]))
def test_rank_metrics_invariant_under_monotone_transform(ids, oods, transform):
    ids = np.asarray(ids)
    oods = np.asarray(oods)
    if transform == "exp":
        t = lambda v: np.exp(v / 5.0)
    else:
        t = lambda v: 3.0 * v + 1.0
    assert metrics.auroc(t(ids), t(oods)) == pytest.approx(metrics.auroc(ids, oods), abs=1e-12)
    assert metrics.aupr(t(ids), t(oods)) == pytest.approx(metrics.aupr(ids, oods), abs=1e-12)
    assert metrics.fpr_at_tpr(t(ids), t(oods)) == pytest.approx(
        metrics.fpr_at_tpr(ids, oods), abs=1e-12)


def test_id_accuracy_one_hot():
    labels = np.array([2, 0, 1])
    logits = np.eye(3)[labels]
    assert metrics.id_accuracy(logits, labels) == 1.0


def test_id_accuracy_tie_rule():
    assert metrics.id_accuracy(np.zeros((4, 3)), np.zeros(4, dtype=int)) == 1.0
    assert metrics.id_accuracy(np.zeros((4, 3)), np.ones(4, dtype=int)) == 0.0


def test_id_accuracy_hand_example():
    logits = np.array([[0.1, 0.9, 0.0], [2.0, 1.0, 3.0], [0.0, 0.5, 0.2]])
    labels = np.array([1, 2, 0])
    assert metrics.id_accuracy(logits, labels) == pytest.approx(2.0 / 3.0)


def test_report_roundtrip_and_average():
    ids = np.array([2.0, 3.0, 4.0])
    report = metrics.assemble_report(
        ids, {"ring": np.array([0.0, 1.0]), "blob": np.array([5.0, 6.0])},
        method="oe", score_kind="energy", id_acc=0.9, seed=1, config_digest="abc")
    names = [r.set_name for r in report.ood_sets]
    assert names == ["ring", "blob", "average"]
    assert report.average is report.ood_sets[-1]
    assert report.average.fpr95 == pytest.approx(
        np.mean([r.fpr95 for r in report.ood_sets[:-1]]))
    doc = json.loads(json.dumps(data.dump(report)))
    assert list(doc) == ["method", "score_kind", "id_accuracy", "seed", "config_digest",
                         "ood_sets"]
    assert data.parse(metrics.DetectionReport, doc, "report") == report
    assert data.dump(data.parse(metrics.DetectionReport, doc, "report")) == data.dump(report)
    assert [r["set_name"] for r in doc["ood_sets"]] == ["ring", "blob", "average"]


def test_detection_report_identical_sets_auroc_half():
    scores = np.round(np.random.default_rng(6).normal(size=30), 1)
    report = metrics.assemble_report(scores, {"same": scores.copy()}, method="model",
                                     score_kind="msp", id_acc=1.0)
    assert report.ood_sets[0].auroc == 0.5
    assert report.average.auroc == 0.5
    # A report without a seed or digest writes them as null and reads them back.
    doc = json.loads(json.dumps(data.dump(report)))
    assert (doc["seed"], doc["config_digest"]) == (None, None)
    assert data.parse(metrics.DetectionReport, doc, "report") == report
