import sys
import threading

import numpy as np
import pytest

from oodbench import autodiff as ad
from oodbench import losses, model, numerics, trainer
from oodbench.errors import NumericError


def _layers(*pairs):
    """Bindings W0/b0, W1/b1, ... of an MLP node from (weights, bias) pairs."""
    out = {}
    for i, (w, b) in enumerate(pairs):
        out[f"W{i}"], out[f"b{i}"] = np.asarray(w, dtype=float), np.asarray(b, dtype=float)
    return out


def test_relu_evaluate():
    # Identity layers around the MLP node's ReLU show it alone.
    eye = (np.eye(3), np.zeros(3))
    out = ad.evaluate(model.logits_graph((3, 3, 3)),
                      {**_layers(eye, eye), "x": np.array([[-1.0, 0.0, 2.0]])})
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])


def test_softmax_uniform_on_zero_logits():
    out = ad.evaluate(ad.log_softmax(ad.inp("z")), {"z": np.zeros((2, 10))})
    np.testing.assert_allclose(np.exp(out), 0.1, atol=1e-15)


def test_matmul_hand_example():
    # The MLP node of a model with no hidden layer is x @ W0 + b0.
    out = ad.evaluate(model.logits_graph((2, 1)),
                      {**_layers(([[1.0], [1.0]], [0.0])),
                       "x": np.array([[1.0, 2.0], [3.0, 4.0]])})
    np.testing.assert_array_equal(out, [[3.0], [7.0]])


def test_mlp_node_hand_gradient_with_a_unit_at_exactly_zero():
    # Hidden preactivations [0, 2.5]: the unit at exactly 0 gets subgradient 0,
    # so its bias, its weight column and its path to x all receive 0.
    bindings = {**_layers(([[1.0, 1.0], [-1.0, 1.0]], [0.0, 0.5]), ([[2.0], [3.0]], [0.25])),
                "x": np.array([[1.0, 1.0]])}
    expr = ad.reduce_sum(model.logits_graph((2, 2, 1)))
    value, grads, _ = ad.value_and_grad(expr, bindings, ["x", "W0", "b0", "W1", "b1"])
    assert value == 7.75
    np.testing.assert_array_equal(grads["b1"], [1.0])
    np.testing.assert_array_equal(grads["W1"], [[0.0], [2.5]])
    np.testing.assert_array_equal(grads["b0"], [0.0, 3.0])
    np.testing.assert_array_equal(grads["W0"], [[0.0, 3.0], [0.0, 3.0]])
    np.testing.assert_array_equal(grads["x"], [[3.0, 3.0]])


def test_evaluate_unbound_input_raises():
    with pytest.raises(KeyError, match="'x'"):
        ad.evaluate(ad.reduce_sum(ad.inp("x")), {})


def test_evaluate_shape_mismatch_raises():
    # numpy's matmul, through the MLP node: W0 has 2 rows for 3 input columns.
    with pytest.raises(ValueError):
        ad.evaluate(model.logits_graph((3, 3)),
                    {**_layers((np.ones((2, 3)), np.zeros(3))), "x": np.ones((2, 3))})


def test_evaluate_nonfinite_overflow_raises():
    # multiply overflow outside the guarded logsumexp path
    x = ad.inp("x")
    with pytest.raises(NumericError):
        ad.evaluate(ad.mul(x, x), {"x": np.array([1e300])})


def test_evaluate_rejects_nonfinite_bindings():
    with pytest.raises(NumericError):
        ad.evaluate(ad.reduce_sum(ad.inp("x")), {"x": np.array([np.nan])})


def test_evaluate_is_pure():
    expr = ad.log_softmax(model.logits_graph((4, 5)))
    rng = np.random.default_rng(0)
    bindings = {"x": rng.normal(size=(3, 4)),
                **_layers((rng.normal(size=(4, 5)), rng.normal(size=5)))}
    a = ad.evaluate(expr, bindings)
    b = ad.evaluate(expr, bindings)
    assert a.tobytes() == b.tobytes()


def test_duplicate_input_name_rejected():
    expr = ad.add(ad.inp("x"), ad.inp("x"))
    with pytest.raises(ValueError, match="duplicate"):
        ad.evaluate(expr, {"x": np.ones(2)})


def test_gradient_quadratic():
    x = ad.inp("x")
    grads = ad.gradient(ad.reduce_sum(ad.mul(x, x)), {"x": np.array([1.0, 2.0])}, ["x"])
    np.testing.assert_array_equal(grads["x"], [2.0, 4.0])


def test_gradient_logsumexp_is_softmax():
    # The uniform-loss row is logsumexp - mean: its gradient is softmax - 1/C.
    x = np.array([[0.3, -1.2, 2.5, 0.0]])
    grads = ad.gradient(ad.reduce_sum(losses.oe_rowwise_expr(ad.inp("x"))), {"x": x}, ["x"])
    np.testing.assert_allclose(grads["x"] + 0.25, numerics.softmax(x), rtol=1e-14)


def test_gradient_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        ad.gradient(ad.affine(ad.inp("x"), 2.0), {"x": np.ones(3)}, ["x"])


def test_gradient_unknown_name():
    expr = ad.reduce_sum(ad.inp("x"))
    with pytest.raises(KeyError, match="'y'"):
        ad.gradient(expr, {"x": np.ones(2)}, ["y"])


def test_gradient_shapes_match_inputs():
    expr = ad.reduce_mean(model.logits_graph((4, 2)))
    bindings = {"x": np.ones((3, 4)), **_layers((np.ones((4, 2)), np.zeros(2)))}
    grads = ad.gradient(expr, bindings, ["x", "W0", "b0"])
    assert grads["x"].shape == (3, 4)
    assert grads["W0"].shape == (4, 2)
    assert grads["b0"].shape == (2,)


def test_gradient_broadcast_add_bias():
    expr = ad.reduce_sum(ad.add(ad.inp("x"), ad.inp("b")))
    grads = ad.gradient(expr, {"x": np.ones((3, 4)), "b": np.zeros(4)}, ["b"])
    np.testing.assert_array_equal(grads["b"], [3.0, 3.0, 3.0, 3.0])


def test_gradient_deterministic_accumulation():
    rng = np.random.default_rng(5)
    x = ad.inp("x")
    expr = ad.reduce_sum(ad.mul(ad.affine(x, 2.0, 1.0), ad.log_softmax(x)))
    bindings = {"x": rng.normal(size=(4, 6))}
    g1 = ad.gradient(expr, bindings, ["x"])["x"]
    g2 = ad.gradient(expr, bindings, ["x"])["x"]
    assert g1.tobytes() == g2.tobytes()


def test_logsumexp_empty_axis_raises():
    # numpy's own error, through a loss kernel; the direct call is in test_numerics.py.
    with pytest.raises(ValueError):
        ad.evaluate(losses.oe_rowwise_expr(ad.inp("x")), {"x": np.zeros((2, 0))})


def test_finite_diff_linear_function_exact():
    w = np.array([0.5, -1.25, 2.0])
    expr = ad.reduce_sum(ad.mul(ad.const(w), ad.inp("x")))
    err = ad.finite_diff_check(expr, {"x": np.array([0.3, 0.7, -0.2])}, ["x"])
    assert err <= 1e-10


def test_finite_diff_constant_expression():
    expr = ad.reduce_sum(ad.mul(ad.const(np.zeros(3)), ad.inp("x")))
    grads = ad.gradient(expr, {"x": np.ones(3)}, ["x"])
    np.testing.assert_array_equal(grads["x"], np.zeros(3))
    assert ad.finite_diff_check(expr, {"x": np.ones(3)}, ["x"]) == 0.0


# gradcheck samples one or two hidden layers, so (2, 3) is the only check of a
# model with none.
@pytest.mark.parametrize("dims", [(2, 3), (3, 5, 4), (3, 6, 5, 4)],
                         ids=["no_hidden", "one_hidden", "two_hidden"])
def test_finite_diff_random_three_layer_net(dims):
    # Pre-calibrated: unit-scale weights, inputs away from relu kinks.
    rng = np.random.default_rng(123)
    bindings = {}
    for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
        bindings[f"W{i}"] = rng.normal(0.0, np.sqrt(2.0 / fi), size=(fi, fo))
        bindings[f"b{i}"] = rng.normal(0.0, 0.5, size=fo)
    bindings["x"] = rng.uniform(0.1, 0.9, size=(4, dims[0]))
    labels = rng.integers(0, dims[-1], size=4)
    scalar = losses.ce_loss_expr(model.logits_graph(dims),
                                 ad.const(losses.onehot(labels, dims[-1])))
    names = [f"{p}{i}" for i in range(len(dims) - 1) for p in ("W", "b")] + ["x"]
    assert ad.finite_diff_check(scalar, bindings, names, h=1e-5) < 1e-6


def test_concurrent_evaluation_of_disjoint_expressions():
    rng = np.random.default_rng(9)
    exprs = [ad.reduce_sum(ad.mul(x, x)) for x in (ad.inp("x") for _ in range(4))]
    bindings = [{"x": rng.normal(size=16)} for _ in range(4)]
    expected = [float(ad.evaluate(e, b)) for e, b in zip(exprs, bindings)]
    results = [None] * 4
    def work(i):
        results[i] = float(ad.evaluate(exprs[i], bindings[i]))
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == expected


def test_threads_share_one_compiled_divoe_graph():
    # What a kernel saves lives in the pass, so threads running one compiled
    # graph on bindings of different row counts get the sequential results.
    dims = (3, 5, 4)
    total, terms = trainer._build_loss_graph(dims, "divoe", trainer.LossConfig(kind="divoe"),
                                             ("x_out", "x_ext"))
    rng = np.random.default_rng(12)
    bindings = [{**model.param_bindings(model.init_model(dims, seed=i)),
                 **{name: rng.uniform(size=(4 + 3 * i, 3)) for name in ("x", "x_out", "x_ext")},
                 "y": losses.onehot(rng.integers(0, 4, 4 + 3 * i), 4)} for i in range(4)]
    names = ["W0", "b0", "W1", "b1"]

    def run(i):
        value, grads, aux = ad.value_and_grad(total, bindings[i], names, aux=terms)
        return [value.tobytes(), *(grads[n].tobytes() for n in names),
                *(v.tobytes() for v in aux)]

    expected = [run(i) for i in range(4)]
    results: list = [[] for _ in range(4)]
    barrier = threading.Barrier(4)

    def work(i):
        barrier.wait()
        results[i] = [run(i) for _ in range(25)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the passes too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got == [expected[i]] * 25 for i, got in enumerate(results))


def test_expression_sugar_lowers_to_primitives():
    x = ad.inp("x")
    expr = 2.0 * x + x
    out = ad.evaluate(expr, {"x": np.array([3.0])})
    np.testing.assert_allclose(out, [9.0])


def _mlp_ce_graph(dims):
    return losses.ce_loss_expr(model.logits_graph(dims), ad.inp("y"))


def test_compiled_graph_reruns_bitwise_on_any_row_count():
    dims = (3, 5, 4)
    rng = np.random.default_rng(11)
    params = {"W0": rng.normal(size=(3, 5)), "b0": rng.normal(size=5),
              "W1": rng.normal(size=(5, 4)), "b1": rng.normal(size=4)}
    reused = _mlp_ce_graph(dims)
    for rows in (7, 2, 7, 1):
        bindings = dict(params, x=rng.uniform(size=(rows, 3)),
                        y=np.eye(4)[rng.integers(0, 4, rows)])
        value, grads, _ = ad.value_and_grad(reused, bindings, ["W0", "b1", "x"])
        fresh_value, fresh_grads, _ = ad.value_and_grad(_mlp_ce_graph(dims), bindings,
                                                        ["W0", "b1", "x"])
        assert value.tobytes() == fresh_value.tobytes()
        assert all(grads[k].tobytes() == fresh_grads[k].tobytes() for k in grads)
        assert ad.evaluate(reused, bindings).tobytes() == fresh_value.tobytes()


def test_duplicate_input_name_rejected_on_every_call():
    expr = ad.reduce_sum(ad.add(ad.inp("x"), ad.inp("x")))
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate input node for name 'x'"):
            ad.value_and_grad(expr, {"x": np.ones(2)}, ["x"])


@pytest.mark.parametrize("op", [ad.add, ad.mul])
def test_broadcast_mismatch_message(op):
    expr = op(ad.inp("a"), ad.inp("b"))
    for _ in range(2):  # numpy's message, and a failed pass leaves the plan reusable
        with pytest.raises(ValueError, match=r"could not be broadcast.*\(2,3\) \(4,\)"):
            ad.evaluate(expr, {"a": np.ones((2, 3)), "b": np.ones((4,))})
    assert ad.evaluate(expr, {"a": np.ones((2, 3)), "b": np.ones(3)}).shape == (2, 3)


def test_aux_node_outside_graph_raises_key_error():
    x = ad.inp("x")
    expr = ad.reduce_sum(ad.mul(x, x))
    with pytest.raises(KeyError):
        ad.value_and_grad(expr, {"x": np.ones(2)}, ["x"], aux=(ad.affine(x, 2.0),))
    value, _, (inner,) = ad.value_and_grad(expr, {"x": np.ones(2)}, ["x"],
                                           aux=(expr.parents[0],))
    assert value == 2.0 and inner.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("wrt", [["x"], ["x_ext", "x_out"], ["W0", "b0", "W1", "b1"], ["b1"]])
def test_pass_computes_only_the_requested_gradients(monkeypatch, wrt):
    dims, rng = (3, 5, 4), np.random.default_rng(8)
    graph = trainer._build_loss_graph(dims, "divoe", trainer.LossConfig(kind="divoe"),
                                      ("x_out", "x_ext"))[0]
    bindings = {**model.param_bindings(model.init_model(dims, seed=4)),
                **{name: rng.uniform(size=(6, 3)) for name in ("x", "x_out", "x_ext")},
                "y": losses.onehot(rng.integers(0, 4, 6), 4)}
    _, every, _ = ad.value_and_grad(graph, bindings, list(bindings))
    plan = ad._compile(graph)
    real = ad._accumulate
    fed: set[int] = set()

    def recording(grads, slot, grad):
        fed.add(slot)
        real(grads, slot, grad)

    monkeypatch.setattr(ad, "_accumulate", recording)
    for _ in range(2):  # the second pass reuses the mask cached on the plan
        fed.clear()
        value, grads, _ = ad.value_and_grad(graph, bindings, wrt)
        assert {name for name, slot in plan.inputs.items() if slot in fed} == set(wrt)
        assert sorted(grads) == sorted(wrt)
        assert all(grads[name].tobytes() == every[name].tobytes() for name in wrt)


def test_unknown_primitive_is_rejected_on_every_call():
    expr = ad.Expression("cube", (ad.inp("x"),))
    for _ in range(2):
        with pytest.raises(KeyError, match="'cube'"):
            ad.evaluate(expr, {"x": np.ones(2)})
