import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oodbench import model, numerics, scoring
from oodbench.errors import ConfigError, NumericError


def test_msp_uniform_logits():
    np.testing.assert_allclose(scoring.msp_score(np.zeros((3, 10))), 0.1, atol=1e-15)


def test_msp_two_class_hand_value():
    got = scoring.msp_score(np.array([[1.0, 0.0]]))
    assert got[0] == pytest.approx(math.e / (math.e + 1.0), rel=1e-12)


def test_msp_saturation():
    logits = np.zeros((1, 5))
    logits[0, 0] = 1000.0
    assert scoring.msp_score(logits)[0] == pytest.approx(1.0, abs=1e-12)


def test_energy_zero_logits():
    got = scoring.energy_score(np.zeros((2, 10)))
    np.testing.assert_allclose(got, math.log(10.0), rtol=1e-12)


def test_energy_pair_hand_value():
    assert scoring.energy_score(np.array([[1.0, 1.0]]))[0] == pytest.approx(
        1.0 + math.log(2.0), rel=1e-12)


def test_energy_single_class_is_logit():
    assert scoring.energy_score(np.array([[3.7]]))[0] == pytest.approx(3.7, rel=1e-12)


def test_energy_additive_constant():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 6))
    base = scoring.energy_score(logits)
    shifted = scoring.energy_score(logits + 2.0)
    np.testing.assert_allclose(shifted, base + 2.0, atol=1e-12)



def test_odin_eps0_t1_equals_msp_bitwise(monkeypatch):
    monkeypatch.setattr(scoring, "ODIN_TEMPERATURE", 1.0)
    monkeypatch.setattr(scoring, "ODIN_EPSILON", 0.0)
    m = model.init_model([3, 8, 4], seed=5)
    x = np.random.default_rng(1).uniform(0.05, 0.95, (10, 3))
    odin = scoring.odin_score(m, x)
    msp = scoring.msp_score(model.forward(m, x))
    assert odin.tobytes() == msp.tobytes()


def test_odin_defaults_match_reference_values():
    assert scoring.ODIN_TEMPERATURE == 1.0e4
    assert scoring.ODIN_EPSILON == 1.4e-3
    assert scoring.ASH_PERCENTILE == 95.0
    assert scoring.ScoreSpec.odin_default() == scoring.ScoreSpec("odin")


def test_odin_linear_model_score_increases(monkeypatch):
    # Single affine layer: one sign step moves the top-class confidence up.
    w = np.array([[2.0, -1.0], [0.5, 1.5]])
    m = model.from_layers((2, 2), (w,), (np.zeros(2),))
    x = np.array([[0.5, 0.5], [0.4, 0.6]])
    base = scoring.msp_score(model.forward(m, x))
    monkeypatch.setattr(scoring, "ODIN_TEMPERATURE", 1.0)
    monkeypatch.setattr(scoring, "ODIN_EPSILON", 0.01)
    pushed = scoring.odin_score(m, x)
    assert np.all(pushed >= base)
    assert np.any(pushed > base)


def test_odin_gradient_is_taken_at_the_temperature():
    # No hidden layer: z = xW + b and d/dx log S_top(x; T) = (W[:, top] - W p_T) / T,
    # p_T = softmax(z / T). With p_1 >> p_2 at T=1 and p near uniform at T=1e4,
    # the second coordinate -(2 p_1 - 3 p_2) changes sign between the two.
    w = np.array([[0.0, -1.0, -1.0], [0.0, 2.0, -3.0]])
    b = np.array([5.0, 2.0, 0.0])
    m = model.from_layers((2, 3), (w,), (b,))
    x = np.array([[0.5, 0.5], [0.2, 0.6], [0.8, 0.3]])
    z = x @ w + b
    top = np.argmax(z, axis=1)

    def closed_form(t):
        p = numerics.softmax(z / t, axis=-1)
        return (w[:, top].T - p @ w.T) / t

    t, eps = scoring.ODIN_TEMPERATURE, scoring.ODIN_EPSILON
    assert np.all(np.sign(closed_form(t)[:, 1]) != np.sign(closed_form(1.0)[:, 1]))
    perturbed = np.clip(x + eps * np.sign(closed_form(t)), 0.0, 1.0)
    expected = scoring.msp_score(model.forward(m, perturbed) / t)
    assert scoring.odin_score(m, x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad_block", [1, 2])
def test_odin_non_finite_gradient_in_a_later_block_raises(bad_block, monkeypatch):
    # Rows with x0 < x1 sit in the dead half of the one ReLU unit. A row with
    # x0 == x1 keeps it alive at 1e-300, so its logits are ±1 while its input
    # gradient carries the 1e300 output weights times the 1e307 first-layer
    # weights: it overflows even after the mean weighs the row by one over its
    # slice's rows. score_set refuses it in the second slice as in the first.
    m = model.from_layers((2, 1, 2), (np.array([[1e307], [-1e307]]), np.array([[1e300, -1e300]])),
                          (np.array([1e-300]), np.zeros(2)))
    x = np.tile([0.2, 0.7], (model.CHUNK_ROWS * 5 // 2, 1))
    monkeypatch.setattr(scoring, "ODIN_TEMPERATURE", 1.0)
    specs = [scoring.ScoreSpec("odin")]
    assert np.all(np.isfinite(scoring.score_set(m, x, specs)[0][0]))
    x[bad_block * model.CHUNK_ROWS + 5] = 0.5
    with pytest.raises(NumericError, match="non-finite gradient"):
        scoring.score_set(m, x, specs)


@pytest.mark.filterwarnings("ignore:.*rows left unshaped:UserWarning")
def test_score_set_scores_each_slice_alone():
    # About 5.5 slices, the ragged tail joining the fifth, on the benchmark's
    # model with every kind on: a row's scores and logits depend only on its
    # slice, so each slice of the set's equals score_set of that slice alone,
    # byte for byte on any BLAS kernel and thread count.
    m = model.init_model((2, 64, 64, 4), seed=21)
    x = np.random.default_rng(22).uniform(0, 1, (model.CHUNK_ROWS * 11 // 2, 2))
    specs = [scoring.ScoreSpec(kind) for kind in scoring.ScoreSpec.KINDS]
    scores, logits = scoring.score_set(m, x, specs)
    slices = model.row_slices(x.shape[0], model.CHUNK_ROWS)
    assert len(slices) == 5
    for rows in slices:
        alone, alone_logits = scoring.score_set(m, x[rows], specs)
        assert logits[rows].tobytes() == alone_logits.tobytes()
        for spec, got, want in zip(specs, scores, alone):
            assert got[rows].tobytes() == want.tobytes(), (rows, spec.kind)


@pytest.mark.parametrize("dims, kind", [((2, 8, 8, 3), kind) for kind in scoring.ScoreSpec.KINDS]
                         + [((2, 3), kind) for kind in ("msp", "energy", "odin")],
                         ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
def test_scores_from_precomputed_features_are_bitwise_equal(dims, kind):
    m = model.init_model(dims, seed=13)
    x = np.random.default_rng(14).uniform(0, 1, (50, 2))
    spec = scoring.ScoreSpec(kind=kind)
    features = model.penultimate_features(m, x)
    with_features = scoring.compute_scores(m, x, spec, features=features)
    assert with_features.tobytes() == scoring.compute_scores(m, x, spec).tobytes()
    if kind == "odin":  # eval passes ODIN the predicted class alone
        top = np.argmax(model.head(m, features), axis=1)
        assert scoring.compute_scores(m, x, spec, top=top).tobytes() == with_features.tobytes()


def _ash_s(acts):
    """``scoring.ash_s``'s (shaped, count), checked to leave ``acts`` as it was."""
    kept = acts.copy()
    shaped, count = scoring.ash_s(acts)
    assert acts.tobytes() == kept.tobytes()
    return shaped, count


def test_ash_identity_at_zero_percentile(monkeypatch):
    monkeypatch.setattr(scoring, "ASH_PERCENTILE", 0.0)
    rng = np.random.default_rng(5)
    acts = rng.uniform(0, 1, (4, 6))
    shaped, count = _ash_s(acts)
    assert count == 0
    assert shaped.tobytes() == acts.tobytes()


def test_ash_hand_example(monkeypatch):
    monkeypatch.setattr(scoring, "ASH_PERCENTILE", 50.0)
    shaped, count = _ash_s(np.array([[4.0, 3.0, 2.0, 1.0]]))
    assert count == 0
    np.testing.assert_allclose(shaped, [[40.0 / 7.0, 30.0 / 7.0, 0.0, 0.0]], rtol=1e-12)


def test_ash_preserves_row_sums_and_argmax(monkeypatch):
    monkeypatch.setattr(scoring, "ASH_PERCENTILE", 60.0)
    rng = np.random.default_rng(6)
    acts = rng.uniform(0.01, 1, (10, 8))
    shaped, count = _ash_s(acts)
    assert count == 0
    np.testing.assert_allclose(shaped.sum(axis=1), acts.sum(axis=1), rtol=1e-12)
    np.testing.assert_array_equal(np.argmax(shaped, axis=1), np.argmax(acts, axis=1))


def test_ash_all_zero_row_flagged():
    # ash_s counts the row and warns nothing itself: score_set warns once per set.
    acts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shaped, count = _ash_s(acts)
    assert count == 1
    np.testing.assert_array_equal(shaped[0], [0.0, 0.0, 0.0])


def _ragged_relu_acts():
    """ReLU rows with two all-zero, so unshaped, rows: row 3 and one near the end."""
    acts = np.maximum(np.random.default_rng(15).normal(size=(model.CHUNK_ROWS * 7 // 2 + 7, 24)),
                      0.0)
    acts[3] = 0.0
    acts[2 * model.CHUNK_ROWS + 5] = 0.0
    return acts


def _ash_whole_matrix(acts, percentile):
    """The shaping formula applied to every row at once."""
    out = acts.copy()
    cut = np.percentile(acts, percentile, axis=1, keepdims=True)
    shaped = np.where(acts >= cut, acts, 0.0)
    before, after = acts.sum(axis=1), shaped.sum(axis=1)
    ok = (before > 0) & (after > 0)
    scale = np.where(ok, before / np.where(after == 0, 1.0, after), 1.0)
    out[ok] = shaped[ok] * scale[ok, None]
    return out, int(np.sum(~ok))


@pytest.mark.parametrize("percentile", [50.0, 95.0])
def test_blocked_ash_equals_the_whole_matrix_formula(percentile, monkeypatch):
    monkeypatch.setattr(scoring, "ASH_PERCENTILE", percentile)
    # The count of the unshaped rows, and no warning.
    acts = _ragged_relu_acts()
    expected, unshaped = _ash_whole_matrix(acts, percentile)
    assert unshaped == 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shaped, count = _ash_s(acts)
    assert caught == [] and count == 2
    assert shaped.tobytes() == expected.tobytes()


def _dead_unit_model():
    """A (2, 3, 2) model whose hidden units are all dead on rows with x0 <= 0.5."""
    return model.from_layers((2, 3, 2), (np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
                                         np.array([[1.0, -1.0], [0.5, 0.2], [-0.3, 0.4]])),
                             (np.full(3, -0.5), np.zeros(2)))


def test_score_set_warns_once_per_set_with_the_summed_count():
    # Three slices of a set, each with dead rows that ash_s leaves unshaped: one
    # warning per set gives the set's total, and the scores are each slice's.
    m = _dead_unit_model()
    specs = [scoring.ScoreSpec("msp"), scoring.ScoreSpec("ash_energy")]
    rng = np.random.default_rng(25)
    for x in (rng.uniform(0, 1, (model.CHUNK_ROWS * 7 // 2, 2)),
              rng.uniform(0, 0.5, (model.CHUNK_ROWS * 3, 2))):
        slices = model.row_slices(x.shape[0], model.CHUNK_ROWS)
        dead = [int(np.sum(x[rows, 0] <= 0.5)) for rows in slices]
        assert len(slices) == 3 and min(dead) > 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scores, _ = scoring.score_set(m, x, specs)
        assert [str(w.message) for w in caught] == \
            [f"{sum(dead)} rows left unshaped (non-positive sum)"]
        for spec, got in zip(specs, scores):
            by_slice = np.concatenate([scoring.compute_scores(m, x[rows], spec)
                                       for rows in slices])
            assert got.tobytes() == by_slice.tobytes(), spec.kind
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scoring.score_set(m, rng.uniform(0.6, 1, (model.CHUNK_ROWS * 3, 2)), specs)
    assert caught == []  # a set with no dead row


@pytest.mark.filterwarnings("ignore:.*rows left unshaped:UserWarning")
@pytest.mark.parametrize("dims", [(2, 3), (2, 8, 3)], ids=["no-hidden-layer", "hidden-layer"])
def test_compute_scores_writes_neither_the_features_nor_the_batch(dims):
    # Without a hidden layer the features are the batch itself.
    m = model.init_model(dims, seed=20)
    x = np.random.default_rng(18).uniform(0, 1, (40, 2))
    features = model.penultimate_features(m, x)
    kept = x.copy(), features.copy()
    for kind in scoring.ScoreSpec.KINDS:
        scoring.compute_scores(m, x, scoring.ScoreSpec(kind), features=features)
        assert x.tobytes() == kept[0].tobytes(), kind
        assert features.tobytes() == kept[1].tobytes(), kind


@pytest.mark.filterwarnings("ignore:.*rows left unshaped:UserWarning")
def test_ash_holds_no_set_sized_copy_of_the_features():
    # score_set shapes a copy of one slice's features at a time: beside its
    # outputs it holds one slice's temporaries, well under half a set-sized
    # features array.
    m = model.init_model((2, 64, 64, 4), seed=23)
    x = np.random.default_rng(17).uniform(0, 1, (64 * model.CHUNK_ROWS, 2))
    tracemalloc.start()
    try:
        scoring.score_set(m, x, [scoring.ScoreSpec("ash_energy")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.shape[0] * 64 * 8 / 2


def test_ash_peak_memory():
    # Without a hidden layer the features are the set itself: score_set shapes
    # a copy of one slice at a time, never a copy of the set, and leaves the set.
    m = model.init_model((64, 4), seed=24)
    x = np.random.default_rng(16).uniform(0, 1, (16384, 64))
    kept = x.copy()
    tracemalloc.start()
    try:
        scoring.score_set(m, x, [scoring.ScoreSpec("ash_energy")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 4
    assert x.tobytes() == kept.tobytes()


def test_detect_rule():
    # A score at or above the threshold is called ID; the metrics apply that
    # rule, so an OOD score tied with the threshold counts as a false positive.
    from oodbench import metrics

    ids = [0.9] * 19 + [0.1]  # 19 of 20 is exactly the 0.95 target
    assert metrics.tpr_threshold(ids) == 0.9
    assert metrics.fpr_at_tpr(ids, [0.9, 0.5]) == 0.5
    assert metrics.tpr_threshold(ids[1:]) == 0.1  # 18 of 19 falls short
    assert metrics.fpr_at_tpr([0.5], [0.5]) == 1.0  # ties are ID per the >= rule


def test_detect_with_calibrated_threshold():
    from oodbench import metrics

    m = model.init_model([2, 8, 3], seed=7)
    x = np.random.default_rng(7).uniform(0, 1, (200, 2))
    for kind in ("msp", "energy"):
        id_scores = scoring.compute_scores(m, x, scoring.ScoreSpec(kind=kind))
        lam = metrics.tpr_threshold(id_scores)
        assert np.mean(id_scores >= lam) >= 0.95
        # lam is the largest such threshold: any higher one keeps too few.
        assert np.mean(id_scores > lam) < 0.95


def test_compute_scores_dispatch():
    m = model.init_model([2, 8, 3], seed=9)
    x = np.random.default_rng(8).uniform(0, 1, (5, 2))
    for kind in ("msp", "energy", "odin", "ash_energy"):
        out = scoring.compute_scores(m, x, scoring.ScoreSpec(kind=kind))
        assert out.shape == (5,)


def test_score_spec_validation():
    for kind in ("nope", "mahalanobis"):
        with pytest.raises(ConfigError, match="unknown score kind"):
            scoring.ScoreSpec(kind=kind)


def test_score_csv_export(tmp_path):
    path = tmp_path / "scores.csv"
    scoring.write_score_csv(path, [("id_test", "msp", np.array([0.5, 0.75])),
                                   ("ood_ring", "msp", np.array([0.25]))])
    assert path.read_text().splitlines() == [
        "sample_id,set_name,score_kind,score", "0,id_test,msp,0.5", "1,id_test,msp,0.75",
        "0,ood_ring,msp,0.25"]


def test_score_csv_matches_per_row_writer(tmp_path):
    # The block writer must give the bytes of one csv.writer row per score,
    # quoting included.
    blocks = [("id_test", "msp", np.array([0.1 + 0.2, -0.0, 1e-300, 1e16, 2.5e-5])),
              ('ood "a,b"', "energy", np.random.default_rng(3).normal(size=50)),
              ("ood_empty", "odin", np.array([]))]
    path = tmp_path / "scores.csv"
    scoring.write_score_csv(path, blocks)
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["sample_id", "set_name", "score_kind", "score"])
    for set_name, kind, scores in blocks:
        for i, score in enumerate(scores):
            writer.writerow([i, set_name, kind, repr(float(score))])
    assert path.read_bytes() == ref.getvalue().encode("utf-8")
