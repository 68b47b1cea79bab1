import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodbench import autodiff as ad
from oodbench import model
from oodbench.errors import ConfigError, DataError, ShapeError


def test_init_model_deterministic():
    a = model.init_model([2, 8, 3], seed=11)
    b = model.init_model([2, 8, 3], seed=11)
    for wa, wb in zip(a.weights, b.weights):
        assert wa.tobytes() == wb.tobytes()
    for ba, bb in zip(a.biases, b.biases):
        assert ba.tobytes() == bb.tobytes()


def test_init_model_shapes():
    m = model.init_model([2, 8, 3], seed=0)
    assert m.weights[0].shape == (2, 8)
    assert m.weights[1].shape == (8, 3)
    assert m.biases[0].shape == (8,)
    assert all(np.all(b == 0) for b in m.biases)


def test_init_model_variance_matches_fan_in():
    m = model.init_model([100, 100, 2], seed=3)
    target = 2.0 / 100
    assert abs(np.var(m.weights[0]) - target) / target < 0.2


def test_init_model_invalid_dims():
    # ModelConfig checks the hidden widths a run asks for (probe model.hidden=[0]);
    # MlpClassifier still checks the dims it is given.
    with pytest.raises(ConfigError):
        model.init_model([5], seed=0)


def test_forward_zero_parameters():
    dims = (3, 4, 2)
    m = model.MlpClassifier(dims, (np.zeros((3, 4)), np.zeros((4, 2))),
                            (np.zeros(4), np.zeros(2)))
    out = model.forward(m, np.ones((5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_forward_identity_single_layer():
    m = model.MlpClassifier((2, 2), (np.eye(2),), (np.zeros(2),))
    out = model.forward(m, np.array([[3.0, -1.0]]))
    np.testing.assert_array_equal(out, [[3.0, -1.0]])


def test_forward_hand_computed_two_layer():
    w0 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b0 = np.array([0.0, -1.0])
    w1 = np.array([[1.0], [1.0]])
    b1 = np.array([0.5])
    m = model.MlpClassifier((2, 2, 1), (w0, w1), (b0, b1))
    x = np.array([[1.0, 1.0], [2.0, 0.0]])
    h = np.maximum(x @ w0 + b0, 0.0)
    expected = h @ w1 + b1
    np.testing.assert_array_equal(model.forward(m, x), expected)


def test_forward_shape_mismatch():
    m = model.init_model([3, 4, 2], seed=0)
    with pytest.raises(ShapeError):
        model.forward(m, np.ones((2, 5)))


def test_penultimate_consistency_identity():
    m = model.init_model([4, 16, 8, 3], seed=21)
    x = np.random.default_rng(0).uniform(0, 1, (6, 4))
    feats = model.penultimate_features(m, x)
    assert np.all(feats >= 0)
    recomposed = feats @ m.weights[-1] + m.biases[-1]
    np.testing.assert_array_equal(model.forward(m, x), recomposed)


def test_penultimate_of_a_linear_model_is_the_batch():
    m = model.init_model([3, 2], seed=0)
    x = np.random.default_rng(1).uniform(0, 1, (4, 3))
    feats = model.penultimate_features(m, x)
    assert feats.tobytes() == x.tobytes()
    assert model.head(m, feats).tobytes() == model.forward(m, x).tobytes()


def test_penultimate_hand_computed_one_hidden():
    w0 = np.array([[2.0], [-1.0]])
    b0 = np.array([0.25])
    w1 = np.array([[1.0]])
    b1 = np.array([0.0])
    m = model.MlpClassifier((2, 1, 1), (w0, w1), (b0, b1))
    feats = model.penultimate_features(m, np.array([[1.0, 0.5]]))
    np.testing.assert_allclose(feats, [[1.75]])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-5.0, 5.0))
def test_final_bias_translation_covariance(seed, shift):
    m = model.init_model([3, 6, 4], seed=seed)
    shifted = model.MlpClassifier(
        m.dims, m.weights, (m.biases[0], m.biases[1] + shift))
    x = np.random.default_rng(seed).uniform(0, 1, (4, 3))
    np.testing.assert_allclose(model.forward(shifted, x),
                               model.forward(m, x) + shift, rtol=0, atol=1e-12)


def test_graph_matches_numpy_forward_bitwise():
    m = model.init_model([3, 8, 5], seed=2)
    x = np.random.default_rng(4).uniform(0, 1, (7, 3))
    bindings = model.param_bindings(m)
    bindings["x"] = x
    via_graph = ad.evaluate(model.logits_graph(m.dims), bindings)
    assert via_graph.tobytes() == model.forward(m, x).tobytes()


def test_checkpoint_roundtrip(tmp_path):
    m = model.init_model([2, 5, 3], seed=13)
    path = tmp_path / "ckpt.json"
    model.save_checkpoint(m, path, seed=13)
    loaded = model.load_checkpoint(path)
    assert loaded.dims == m.dims
    for a, b in zip(loaded.weights, m.weights):
        assert a.tobytes() == b.tobytes()


def test_checkpoint_missing_file():
    with pytest.raises(DataError):
        model.load_checkpoint("/nonexistent/ckpt.json")


def test_checkpoint_bad_version(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format_version": 99}')
    with pytest.raises(DataError):
        model.load_checkpoint(p)
