import sys
import threading

import numpy as np
import pytest

from oodbench import autodiff as ad
from oodbench import gradcheck, losses, model, numerics, trainer
from oodbench.errors import NumericError


def _layers(*pairs):
    """The θ binding of an MLP from (weights, bias) pairs: W0, b0, W1, b1, ... flat."""
    return {"theta": np.concatenate([np.ravel(a) for pair in pairs for a in pair], dtype=float)}


def _forward(bindings, dims):
    """The logits ``model.mlp_forward`` gives for x under the ``dims`` layers of θ."""
    return model.mlp_forward(bindings["x"], model.layers(dims, bindings["theta"]))


def _hinge_objective():
    """mean(relu(x + 0)^2) on a one-class identity model: the outlier energy
    hinge at m_out = 0, since the energy of a single logit z is -z."""
    return ad.Objective(ad.Term(losses.energy_hinge_rows, model.logits_graph((1, 1)), (-1.0, 0.0)))


_IDENTITY_1 = _layers((np.ones((1, 1)), np.zeros(1)))


def _divoe(dims):
    return trainer._build_loss_graph(dims, losses.LossConfig(kind="divoe"))


def _divoe_bindings(dims, rng, rows, seed):
    return {**model.param_bindings(model.init_model(dims, seed=seed)),
            **{name: rng.uniform(size=(rows, dims[0])) for name in ("x", "x_out")},
            "y": losses.onehot(rng.integers(0, dims[-1], rows), dims[-1])}


def test_relu_evaluate():
    # Identity layers around the MLP's ReLU show it alone.
    eye = (np.eye(3), np.zeros(3))
    out, _ = _forward({**_layers(eye, eye), "x": np.array([[-1.0, 0.0, 2.0]])}, (3, 3, 3))
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])


def test_softmax_uniform_on_zero_logits():
    # The cross-entropy's row gradient is softmax(z) - y.
    y = np.eye(10)[[0, 3]]
    _, rowgrad = losses.ce_rows(y, np.zeros((2, 10)))
    np.testing.assert_allclose(rowgrad + y, 0.1, atol=1e-15)


def test_matmul_hand_example():
    # The MLP of a model with no hidden layer is x @ W0 + b0.
    out, _ = _forward({**_layers(([[1.0], [1.0]], [0.0])),
                       "x": np.array([[1.0, 2.0], [3.0, 4.0]])}, (2, 1))
    np.testing.assert_array_equal(out, [[3.0], [7.0]])


def test_mlp_node_hand_gradient_with_a_unit_at_exactly_zero():
    # Hidden preactivations [0, 2.5]: the unit at exactly 0 gets subgradient 0,
    # so its bias, its weight column and its path to x all receive 0.
    bindings = {**_layers(([[1.0, 1.0], [-1.0, 1.0]], [0.0, 0.5]), ([[2.0], [3.0]], [0.25])),
                "x": np.array([[1.0, 1.0]])}
    dims = (2, 2, 1)
    z, acts = _forward(bindings, dims)
    assert z.tolist() == [[7.75]]
    gx, gtheta = model.mlp_backward(np.ones((1, 1)), model.layers(dims, bindings["theta"]), acts,
                                    (True, True))
    (gw0, gw1), (gb0, gb1) = model.layers(dims, gtheta)
    np.testing.assert_array_equal(gb1, [1.0])
    np.testing.assert_array_equal(gw1, [[0.0], [2.5]])
    np.testing.assert_array_equal(gb0, [0.0, 3.0])
    np.testing.assert_array_equal(gw0, [[0.0, 3.0], [0.0, 3.0]])
    np.testing.assert_array_equal(gx, [[3.0, 3.0]])


def test_evaluate_unbound_input_raises():
    with pytest.raises(KeyError, match="'x'"):
        ad.evaluate(_hinge_objective(), dict(_IDENTITY_1))


def test_evaluate_shape_mismatch_raises():
    # numpy's matmul, through the MLP: W0 has 2 rows for 3 input columns.
    objective = ad.Objective(ad.Term(losses.oe_rows, model.logits_graph((2, 3))))
    with pytest.raises(ValueError):
        ad.evaluate(objective, {**_layers((np.ones((2, 3)), np.zeros(3))), "x": np.ones((2, 3))})
    # A θ whose length is not the dims' parameter count is refused before any layer runs.
    with pytest.raises(ValueError, match=r"θ of shape \(8,\) does not hold the 9 parameters"):
        ad.evaluate(objective, {"theta": np.ones(8), "x": np.ones((2, 2))})


def test_evaluate_nonfinite_overflow_raises():
    # The square in the hinge overflows; the pass names the loss and its batch.
    with pytest.raises(NumericError, match="energy_hinge_rows on 'x'"):
        ad.evaluate(_hinge_objective(), {**_IDENTITY_1, "x": np.array([[1e300]])})


def test_evaluate_on_a_stack_is_each_slice_alone():
    # A stack of three 2-row batches gives the three values of three passes, bit for bit.
    xs = np.array([[[0.3], [0.7]], [[1.2], [-0.4]], [[2.5], [0.1]]])
    values = ad.evaluate(_hinge_objective(), {**_IDENTITY_1, "x": xs})
    assert values.shape == (3,)
    assert [v.tobytes() for v in values] == \
        [ad.evaluate(_hinge_objective(), {**_IDENTITY_1, "x": x}).tobytes() for x in xs]


@pytest.mark.parametrize("stacked, culprit", [
    ({"x": np.array([[[0.3]], [[1e300]], [[0.5]]])}, "energy_hinge_rows on 'x'"),
    ({"x": np.full((3, 1, 1), 10.0),
      "theta": np.array([[1.0, 0.0], [1e308, 0.0], [1.0, 0.0]])}, "mlp_forward on 'x'"),
], ids=["loss", "mlp"])
def test_evaluate_on_a_stack_names_the_stage_of_a_nonfinite_slice(stacked, culprit):
    # One slice overflows; the stack as a whole fails, naming the first stage
    # that produced the non-finite value, as a pass on that slice alone would.
    with pytest.raises(NumericError, match=culprit):
        ad.evaluate(_hinge_objective(), {**_IDENTITY_1, **stacked})


@pytest.mark.parametrize("m", [3, 37, 300], ids="mean-{}".format)
def test_reduced_stack_equals_separate_reductions(m):
    # Pairwise summation starts above 8 rows and blocks at 128.
    values = np.random.default_rng(m).normal(size=(5, m))
    term = ad.Term(losses.oe_rows, model.logits_graph((2, 2)))
    stacked = term.reduced(values)
    assert stacked.shape == (5,)
    assert [v.tobytes() for v in stacked] == [term.reduced(v).tobytes() for v in values]


def test_evaluate_rejects_nonfinite_bindings():
    with pytest.raises(NumericError, match="binding for 'theta'"):
        ad.evaluate(_hinge_objective(), {"theta": np.array([1.0, np.nan]), "x": np.ones((1, 1))})


def test_evaluate_is_pure():
    dims = (4, 5, 3)
    rng = np.random.default_rng(0)
    bindings = _divoe_bindings(dims, rng, 3, seed=1)
    a = ad.evaluate(_divoe(dims), bindings)
    b = ad.evaluate(_divoe(dims), bindings)
    assert a.tobytes() == b.tobytes()


def test_a_batch_read_under_two_parameter_vectors_gets_both_gradients():
    # x is forwarded once under theta and once under shadow: the pass is the
    # two one-θ objectives combined, each the mean of its rows, and x's
    # gradient is the sum of both.
    dims = (3, 4, 2)
    bindings = {"theta": model.init_model(dims, seed=1).theta,
                "shadow": model.init_model(dims, seed=2).theta,
                "x": np.random.default_rng(21).uniform(size=(5, 3))}
    head = ad.Term(losses.oe_rows, model.logits_graph(dims))
    other = ad.Term(losses.oe_rows, model.logits_graph(dims, "x", "shadow"))
    value, grads, _ = ad.value_and_grad(ad.Objective(head, 0.3, (other,)), bindings,
                                        ["x", "theta", "shadow"])
    v_head, g_head, _ = ad.value_and_grad(ad.Objective(head), bindings, ["x", "theta"])
    v_other, g_other, (rows,) = ad.value_and_grad(ad.Objective(other), bindings,
                                                  ["x", "shadow"])
    assert rows.shape == (5,)
    np.testing.assert_allclose(v_other, rows.mean(), rtol=1e-15)
    np.testing.assert_allclose(value, v_head + 0.3 * v_other, rtol=1e-13)
    np.testing.assert_allclose(grads["theta"], g_head["theta"], rtol=1e-13)
    np.testing.assert_allclose(grads["shadow"], 0.3 * g_other["shadow"], rtol=1e-13)
    np.testing.assert_allclose(grads["x"], g_head["x"] + 0.3 * g_other["x"], rtol=1e-13)


def test_duplicate_input_name_rejected_on_every_call():
    # A batch named like θ would mix its gradient into θ's.
    objective = ad.Objective(ad.Term(losses.oe_rows, model.logits_graph((2, 2), "theta")))
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate input name 'theta'"):
            ad.value_and_grad(objective, _layers((np.eye(2), np.zeros(2))), ["theta"])


def test_gradient_quadratic():
    # mean((x + 0)^2) over two rows: the gradient is x itself.
    grads = ad.value_and_grad(_hinge_objective(),
                              {**_IDENTITY_1, "x": np.array([[1.0], [2.0]])}, ["x"])[1]
    np.testing.assert_array_equal(grads["x"], [[1.0], [2.0]])


def test_gradient_logsumexp_is_softmax():
    # The uniform-loss row is logsumexp - mean: its gradient is softmax - 1/C,
    # and the mean over m = 2 rows weighs each row's by 1/m.
    x = np.array([[0.3, -1.2, 2.5, 0.0], [-0.7, 1.1, 0.4, 2.0]])
    objective = ad.Objective(ad.Term(losses.oe_rows, model.logits_graph((4, 4))))
    grads = ad.value_and_grad(objective, {**_layers((np.eye(4), np.zeros(4))), "x": x}, ["x"])[1]
    np.testing.assert_allclose(2.0 * grads["x"] + 0.25, numerics.softmax(x), rtol=1e-14)


def test_gradient_unknown_name():
    with pytest.raises(KeyError, match="'y'"):
        ad.value_and_grad(_hinge_objective(), {**_IDENTITY_1, "x": np.ones((2, 1))}, ["y"])[1]


def test_gradient_shapes_match_inputs():
    objective = ad.Objective(ad.Term(losses.oe_rows, model.logits_graph((4, 2))))
    bindings = {"x": np.ones((3, 4)), **_layers((np.ones((4, 2)), np.zeros(2)))}
    grads = ad.value_and_grad(objective, bindings, ["x", "theta"])[1]
    assert grads["x"].shape == (3, 4)
    assert grads["theta"].shape == (4 * 2 + 2,)


def test_gradient_broadcast_add_bias():
    # The bias is added to every row, so its gradient sums the rows'.
    bindings = {"x": np.ones((3, 4)), **_layers((np.eye(4), np.zeros(4)))}
    _, acts = _forward(bindings, (4, 4))
    _, gtheta = model.mlp_backward(np.ones((3, 4)), model.layers((4, 4), bindings["theta"]),
                                   acts, (False, True))
    np.testing.assert_array_equal(model.layers((4, 4), gtheta).biases[0], [3.0, 3.0, 3.0, 3.0])


def test_gradient_deterministic_accumulation():
    dims = (3, 6, 4)
    bindings = _divoe_bindings(dims, np.random.default_rng(5), 4, seed=2)
    g1 = ad.value_and_grad(_divoe(dims), bindings, ["theta", "x"])[1]
    g2 = ad.value_and_grad(_divoe(dims), bindings, ["theta", "x"])[1]
    assert all(g1[k].tobytes() == g2[k].tobytes() for k in g1)


def test_logsumexp_empty_axis_raises():
    # numpy's own error, through a per-row loss; the direct call is in test_numerics.py.
    with pytest.raises(ValueError):
        losses.oe_rows(None, np.zeros((2, 0)))


def test_finite_diff_quadratic_function_exact():
    # A central difference has no truncation error on a quadratic.
    objective = _hinge_objective()
    bindings = {**_IDENTITY_1, "x": np.array([[0.3], [0.7], [1.2]])}
    grads = ad.value_and_grad(objective, bindings, ["x"])[1]
    err = gradcheck.finite_diff_check(objective, bindings, grads)
    assert err <= 1e-10


def test_finite_diff_constant_expression():
    # Cross-entropy over one class is log 1 = 0 whatever the logits.
    objective = ad.Objective(ad.Term(losses.ce_rows, model.logits_graph((3, 1)), np.ones((2, 1))))
    bindings = {**_layers((np.ones((3, 1)), np.zeros(1))), "x": np.ones((2, 3))}
    grads = ad.value_and_grad(objective, bindings, ["x"])[1]
    np.testing.assert_array_equal(grads["x"], np.zeros((2, 3)))
    assert gradcheck.finite_diff_check(objective, bindings, grads) == 0.0


# gradcheck samples one or two hidden layers, so (2, 3) is the only check of a
# model with none.
@pytest.mark.parametrize("dims", [(2, 3), (3, 5, 4), (3, 6, 5, 4)],
                         ids=["no_hidden", "one_hidden", "two_hidden"])
def test_finite_diff_random_three_layer_net(dims):
    # Pre-calibrated: unit-scale weights, inputs away from relu kinks.
    rng = np.random.default_rng(123)
    bindings = _layers(*((rng.normal(0.0, np.sqrt(2.0 / fi), size=(fi, fo)),
                          rng.normal(0.0, 0.5, size=fo)) for fi, fo in zip(dims[:-1], dims[1:])))
    bindings["x"] = rng.uniform(0.1, 0.9, size=(4, dims[0]))
    labels = rng.integers(0, dims[-1], size=4)
    objective = ad.Objective(ad.Term(losses.ce_rows, model.logits_graph(dims),
                                     losses.onehot(labels, dims[-1])))
    grads = ad.value_and_grad(objective, bindings, ["theta", "x"])[1]
    assert gradcheck.finite_diff_check(objective, bindings, grads) < 1e-6


def test_concurrent_evaluation_of_disjoint_expressions():
    rng = np.random.default_rng(9)
    objectives = [_hinge_objective() for _ in range(4)]
    bindings = [{**_IDENTITY_1, "x": rng.normal(size=(16, 1))} for _ in range(4)]
    expected = [float(ad.evaluate(e, b)) for e, b in zip(objectives, bindings)]
    results = [None] * 4
    def work(i):
        results[i] = float(ad.evaluate(objectives[i], bindings[i]))
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == expected


def test_threads_share_one_compiled_divoe_graph():
    # A pass keeps its per-row values and gradients to itself, so threads running one
    # objective on bindings of different row counts get the sequential results.
    dims = (3, 5, 4)
    objective = _divoe(dims)
    rng = np.random.default_rng(12)
    bindings = [_divoe_bindings(dims, rng, 4 + 3 * i, seed=i) for i in range(4)]
    names = ["theta"]

    def run(i):
        value, grads, outputs = ad.value_and_grad(objective, bindings[i], names)
        return [value.tobytes(), *(grads[n].tobytes() for n in names),
                *(v.tobytes() for v in outputs)]

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


def _mlp_ce_objective(dims):
    return ad.Objective(ad.Term(losses.ce_rows, model.logits_graph(dims), "y"))


def test_compiled_graph_reruns_bitwise_on_any_row_count():
    dims = (3, 5, 4)
    rng = np.random.default_rng(11)
    params = _layers((rng.normal(size=(3, 5)), rng.normal(size=5)),
                     (rng.normal(size=(5, 4)), rng.normal(size=4)))
    reused = _mlp_ce_objective(dims)
    for rows in (7, 2, 7, 1):
        bindings = dict(params, x=rng.uniform(size=(rows, 3)),
                        y=np.eye(4)[rng.integers(0, 4, rows)])
        value, grads, _ = ad.value_and_grad(reused, bindings, ["theta", "x"])
        fresh_value, fresh_grads, _ = ad.value_and_grad(_mlp_ce_objective(dims), bindings,
                                                        ["theta", "x"])
        assert value.tobytes() == fresh_value.tobytes()
        assert all(grads[k].tobytes() == fresh_grads[k].tobytes() for k in grads)
        assert ad.evaluate(reused, bindings).tobytes() == fresh_value.tobytes()


@pytest.mark.parametrize("bad, message", [
    ({"theta": np.zeros(13)}, r"θ of shape \(13,\) does not hold the 12 parameters"),
    ({"y": np.ones(4)}, r"could not be broadcast.*\(2,3\) \(4,\)"),
], ids=["theta", "mul"])
def test_broadcast_mismatch_message(bad, message):
    # A θ the dims' layout cannot split, or a kernel's own multiply (the
    # cross-entropy's target) that numpy refuses, raises its message, and a
    # failed pass leaves the objective reusable.
    objective = ad.Objective(ad.Term(losses.ce_rows, model.logits_graph((3, 3)), "y"))
    good = {**_layers((np.eye(3), np.zeros(3))), "x": np.ones((2, 3)), "y": np.eye(3)[[0, 1]]}
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            ad.evaluate(objective, {**good, **bad})
    assert ad.evaluate(objective, good).shape == ()


def test_outputs_are_each_terms_kernel_value():
    # Head first, then the group; every term keeps its rows, which it reduces
    # to what the objective adds.
    dims = (3, 5, 4)
    objective = _divoe(dims)
    bindings = _divoe_bindings(dims, np.random.default_rng(6), 5, seed=3)
    value, _, outputs = ad.value_and_grad(objective, bindings, ["theta"])
    assert [out.shape for out in outputs] == [(5,)] * 2
    ce, outlier = (t.reduced(out) for t, out in zip((objective.head, *objective.group), outputs))
    assert value == ce + 0.5 * outlier
    assert ad.evaluate(objective, bindings) == value


@pytest.mark.parametrize("wrt", [["x"], ["x", "x_out"], ["theta"], ["x_out", "theta"]])
def test_pass_computes_only_the_requested_gradients(monkeypatch, wrt):
    dims = (3, 5, 4)
    objective = _divoe(dims)
    bindings = _divoe_bindings(dims, np.random.default_rng(8), 6, seed=4)
    _, every, _ = ad.value_and_grad(objective, bindings, ["x", "x_out", "theta"])
    real = ad._accumulate
    fed: set[str] = set()

    def recording(grads, name, grad):
        fed.add(name)
        real(grads, name, grad)

    monkeypatch.setattr(ad, "_accumulate", recording)
    for _ in range(2):
        fed.clear()
        value, grads, _ = ad.value_and_grad(objective, bindings, wrt)
        assert fed == set(wrt)
        assert sorted(grads) == sorted(wrt)
        assert all(grads[name].tobytes() == every[name].tobytes() for name in wrt)

