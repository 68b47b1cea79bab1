import threading

import numpy as np
import pytest

from oodbench import autodiff as ad
from oodbench import numerics
from oodbench.errors import NumericError


def test_relu_evaluate():
    out = ad.evaluate(ad.relu(ad.inp("x")), {"x": np.array([-1.0, 0.0, 2.0])})
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])


def test_softmax_uniform_on_zero_logits():
    out = ad.evaluate(ad.log_softmax(ad.inp("z")), {"z": np.zeros((2, 10))})
    np.testing.assert_allclose(np.exp(out), 0.1, atol=1e-15)


def test_matmul_hand_example():
    expr = ad.matmul(ad.inp("a"), ad.inp("b"))
    out = ad.evaluate(expr, {"a": np.array([[1.0, 2.0], [3.0, 4.0]]),
                             "b": np.array([[1.0], [1.0]])})
    np.testing.assert_array_equal(out, [[3.0], [7.0]])


def test_evaluate_unbound_input_raises():
    with pytest.raises(KeyError, match="'x'"):
        ad.evaluate(ad.relu(ad.inp("x")), {})


def test_evaluate_shape_mismatch_raises():
    expr = ad.matmul(ad.inp("a"), ad.inp("b"))
    with pytest.raises(ValueError):
        ad.evaluate(expr, {"a": np.ones((2, 3)), "b": np.ones((2, 3))})


def test_evaluate_nonfinite_overflow_raises():
    # exp overflow outside the guarded logsumexp path
    expr = ad.square(ad.inp("x"))
    with pytest.raises(NumericError):
        ad.evaluate(expr, {"x": np.array([1e300])})


def test_evaluate_rejects_nonfinite_bindings():
    with pytest.raises(NumericError):
        ad.evaluate(ad.relu(ad.inp("x")), {"x": np.array([np.nan])})


def test_evaluate_is_pure():
    expr = ad.log_softmax(ad.matmul(ad.inp("x"), ad.inp("w")))
    rng = np.random.default_rng(0)
    bindings = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 5))}
    a = ad.evaluate(expr, bindings)
    b = ad.evaluate(expr, bindings)
    assert a.tobytes() == b.tobytes()


def test_duplicate_input_name_rejected():
    expr = ad.add(ad.inp("x"), ad.inp("x"))
    with pytest.raises(ValueError, match="duplicate"):
        ad.evaluate(expr, {"x": np.ones(2)})


def test_gradient_quadratic():
    expr = ad.reduce_sum(ad.square(ad.inp("x")))
    grads = ad.gradient(expr, {"x": np.array([1.0, 2.0])}, ["x"])
    np.testing.assert_array_equal(grads["x"], [2.0, 4.0])


def test_gradient_logsumexp_is_softmax():
    x = np.array([0.3, -1.2, 2.5, 0.0])
    grads = ad.gradient(ad.logsumexp(ad.inp("x")), {"x": x}, ["x"])
    np.testing.assert_allclose(grads["x"], numerics.softmax(x), rtol=1e-14)


def test_gradient_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        ad.gradient(ad.relu(ad.inp("x")), {"x": np.ones(3)}, ["x"])


def test_gradient_unknown_name():
    expr = ad.reduce_sum(ad.inp("x"))
    with pytest.raises(KeyError, match="'y'"):
        ad.gradient(expr, {"x": np.ones(2)}, ["y"])


def test_gradient_shapes_match_inputs():
    expr = ad.reduce_mean(ad.matmul(ad.inp("x"), ad.inp("w")))
    bindings = {"x": np.ones((3, 4)), "w": np.ones((4, 2))}
    grads = ad.gradient(expr, bindings, ["x", "w"])
    assert grads["x"].shape == (3, 4)
    assert grads["w"].shape == (4, 2)


def test_gradient_broadcast_add_bias():
    expr = ad.reduce_sum(ad.add(ad.inp("x"), ad.inp("b")))
    grads = ad.gradient(expr, {"x": np.ones((3, 4)), "b": np.zeros(4)}, ["b"])
    np.testing.assert_array_equal(grads["b"], [3.0, 3.0, 3.0, 3.0])


def test_gradient_deterministic_accumulation():
    rng = np.random.default_rng(5)
    x = ad.inp("x")
    expr = ad.reduce_sum(ad.mul(ad.relu(x), ad.log_softmax(x)))
    bindings = {"x": rng.normal(size=(4, 6))}
    g1 = ad.gradient(expr, bindings, ["x"])["x"]
    g2 = ad.gradient(expr, bindings, ["x"])["x"]
    assert g1.tobytes() == g2.tobytes()


def test_logsumexp_empty_axis_raises():
    # numpy's own error, through the engine; the direct call is in test_numerics.py.
    with pytest.raises(ValueError):
        ad.evaluate(ad.logsumexp(ad.inp("x"), axis=1), {"x": np.zeros((2, 0))})


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


def test_finite_diff_random_three_layer_net():
    # Pre-calibrated: unit-scale weights, inputs away from relu kinks.
    from oodbench import losses, model

    rng = np.random.default_rng(123)
    dims = (3, 6, 5, 4)
    bindings = {}
    for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
        bindings[f"W{i}"] = rng.normal(0.0, np.sqrt(2.0 / fi), size=(fi, fo))
        bindings[f"b{i}"] = rng.normal(0.0, 0.5, size=fo)
    bindings["x"] = rng.uniform(0.1, 0.9, size=(4, 3))
    labels = rng.integers(0, 4, size=4)
    scalar = losses.ce_loss_expr(model.logits_graph(dims), ad.const(losses.onehot(labels, 4)))
    names = [f"{p}{i}" for i in range(3) for p in ("W", "b")] + ["x"]
    assert ad.finite_diff_check(scalar, bindings, names, h=1e-5) < 1e-6


def test_concurrent_evaluation_of_disjoint_expressions():
    rng = np.random.default_rng(9)
    exprs = [ad.reduce_sum(ad.square(ad.inp("x"))) for _ in range(4)]
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


def test_expression_sugar_lowers_to_primitives():
    x = ad.inp("x")
    expr = (2.0 * x + 1.0 - x) / 2.0
    out = ad.evaluate(expr, {"x": np.array([3.0])})
    np.testing.assert_allclose(out, [2.0])


def _mlp_ce_graph(dims):
    from oodbench import losses, model

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
    expr = ad.reduce_sum(ad.square(x))
    with pytest.raises(KeyError):
        ad.value_and_grad(expr, {"x": np.ones(2)}, ["x"], aux=(ad.relu(x),))
    value, _, (inner,) = ad.value_and_grad(expr, {"x": np.ones(2)}, ["x"],
                                           aux=(expr.parents[0],))
    assert value == 2.0 and inner.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("wrt", [["x"], ["x_ext", "x_out"], ["W0", "b0", "W1", "b1"], ["b1"]])
def test_pass_computes_only_the_requested_gradients(monkeypatch, wrt):
    from oodbench import losses, model, trainer

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
