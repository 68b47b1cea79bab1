import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodbench import model
from oodbench.errors import DataError


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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):  # numpy's matmul
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


@pytest.mark.parametrize("dims", [(2, 16, 16, 3), (3, 7, 2), (2, 3)])
def test_forward_equals_the_plain_chain_and_leaves_its_input(dims):
    m = model.init_model(dims, seed=31)
    m = model.MlpClassifier(m.dims, m.weights, tuple(np.random.default_rng(32).normal(size=b.shape)
                                                     for b in m.biases))
    x = np.random.default_rng(33).uniform(-1, 1, (257, dims[0]))
    kept = x.copy()
    h = x
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    assert model.penultimate_features(m, x).tobytes() == h.tobytes()
    assert model.forward(m, x).tobytes() == (h @ m.weights[-1] + m.biases[-1]).tobytes()
    assert x.tobytes() == kept.tobytes()


def test_penultimate_features_peak_memory():
    # A hidden layer holds its input and its output, never a third array.
    m = model.init_model((2, 64, 64, 4), seed=34)
    x = np.random.default_rng(35).uniform(0, 1, (16384, 2))
    tracemalloc.start()
    try:
        feats = model.penultimate_features(m, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * feats.nbytes


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
    # The logits an objective's terms read are model.forward's, bit for bit.
    m = model.init_model([3, 8, 5], seed=2)
    x = np.random.default_rng(4).uniform(0, 1, (7, 3))
    bindings = model.param_bindings(m)
    handle = model.logits_graph(m.dims)
    via_kernel, _ = model.mlp_forward(x, [bindings[name] for name in handle.params])
    assert handle == ("x", ("W0", "b0", "W1", "b1"))
    assert via_kernel.tobytes() == model.forward(m, x).tobytes()


@pytest.mark.parametrize("dims", [(3, 4), (3, 6, 5, 4)], ids=["no_hidden", "two_hidden"])
def test_kernel_forward_on_a_stack_equals_separate_passes(dims):
    # gradcheck's stacked pass: the batch broadcast to (S, m, d) and one input
    # stacked, a weight as (S, fan_in, fan_out), a bias as (S, 1, fan_out). Each
    # slice's logits and activations are a pass on that slice's input alone, byte
    # for byte; a numpy whose stacked matmul fused the slices would fail here.
    rng = np.random.default_rng(6)
    m = model.init_model(dims, seed=3)
    names = model.logits_graph(dims).params
    inputs = {"x": rng.uniform(0, 1, (4, dims[0])),
              **{k: v + rng.normal(0.0, 0.5, v.shape) for k, v in model.param_bindings(m).items()}}
    stack = 9
    for name, value in inputs.items():
        stacked = dict(inputs, x=np.broadcast_to(inputs["x"], (stack, *inputs["x"].shape)))
        stacked[name] = value + rng.normal(size=(stack, *np.atleast_2d(value).shape))
        z, acts = model.mlp_forward(stacked["x"], [stacked[k] for k in names])
        assert z.shape == (stack, 4, dims[-1])
        for s in range(stack):
            alone = dict(inputs)
            alone[name] = stacked[name][s].reshape(value.shape)
            z1, acts1 = model.mlp_forward(alone["x"], [alone[k] for k in names])
            assert z[s].tobytes() == z1.tobytes()
            assert [a[s].tobytes() for a in acts] == [a.tobytes() for a in acts1]


def test_checkpoint_roundtrip(tmp_path):
    m = model.init_model([2, 5, 3], seed=13)
    path = tmp_path / "ckpt.json"
    model.save_checkpoint(m, path, seed=13)
    loaded = model.load_checkpoint(path)
    assert loaded.dims == m.dims
    for a, b in zip(loaded.weights, m.weights):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [13, None])
def test_checkpoint_bytes_and_arrays_are_unchanged(tmp_path, seed):
    m = model.init_model([2, 5, 3], seed=13)
    path = tmp_path / "ckpt.json"
    model.save_checkpoint(m, path, seed=seed)
    assert path.read_bytes() == json.dumps({
        "format_version": 1, "dims": [2, 5, 3],
        "weights": [w.reshape(-1).tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases], "seed": seed}).encode("utf-8")
    loaded = model.load_checkpoint(path)
    assert loaded.dims == m.dims
    for a, b in zip(loaded.weights + loaded.biases, m.weights + m.biases):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_checkpoint_missing_file():
    with pytest.raises(DataError):
        model.load_checkpoint("/nonexistent/ckpt.json")


def test_checkpoint_bad_version(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format_version": 99}')
    with pytest.raises(DataError):
        model.load_checkpoint(p)


def test_checkpoint_dims_may_be_integral_floats(tmp_path):
    # As in a config, 2.0 is the integer 2; a bool or 2.5 is refused (test_cli.BAD_CHECKPOINTS).
    p = tmp_path / "ckpt.json"
    p.write_text('{"format_version": 1, "dims": [2.0, 2], "weights": [[1, 0, 0, 1]], '
                 '"biases": [[0, 0]]}', encoding="utf-8")
    assert model.load_checkpoint(p).dims == (2, 2)
