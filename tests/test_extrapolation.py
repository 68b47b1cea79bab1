import hashlib

import numpy as np
import oracles
import pytest

from oodbench import autodiff as ad
from oodbench import losses, model, numerics, scoring
from oodbench.errors import ConfigError
from oodbench.extrapolation import (
    ExtrapolationConfig,
    build_extrapolation_pool,
    largest_remainder_counts,
    pgd_extrapolate,
)


@pytest.fixture(scope="module")
def small_model():
    return model.init_model([2, 16, 3], seed=77)


def _batch(n=6, seed=0):
    return np.random.default_rng(seed).uniform(0.1, 0.9, (n, 2))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExtrapolationConfig(ratio=1.5)
    with pytest.raises(ConfigError):
        ExtrapolationConfig(pool=((-0.1, 1.0),))
    with pytest.raises(ConfigError):
        ExtrapolationConfig(pool=((0.05, 0.4), (0.1, 0.4)))  # fractions sum to 0.8
    cfg = ExtrapolationConfig(pool=((0.05, 0.5), (0.125, 0.5)))
    assert cfg.pool == ((0.05, 0.5), (0.125, 0.5))


def test_paper_default_configuration():
    cfg = ExtrapolationConfig()
    assert cfg.ratio == 0.5 and cfg.pool == ((0.05, 1.0),) and cfg.steps == 5


def test_zero_steps_and_zero_epsilon_return_input_bitwise(small_model):
    x = _batch()
    for cfg in (ExtrapolationConfig(steps=0), ExtrapolationConfig(pool=((0.0, 1.0),))):
        out = pgd_extrapolate(small_model, x, cfg)
        assert out.synthesized.tobytes() == x.tobytes()
        np.testing.assert_array_equal(out.initial_values, out.final_values)


def test_linf_constraint_and_domain(small_model):
    x = _batch(20, seed=3)
    cfg = ExtrapolationConfig(steps=6, pool=((0.07, 1.0),))
    out = pgd_extrapolate(small_model, x, cfg)
    assert np.max(np.abs(out.synthesized - x)) <= 0.07 + 1e-12
    assert out.synthesized.min() >= 0.0 and out.synthesized.max() <= 1.0


def test_best_iterate_never_loses_ground(small_model):
    x = _batch(12, seed=4)
    out = pgd_extrapolate(small_model, x, ExtrapolationConfig())
    assert np.all(out.final_values >= out.initial_values)


def test_extrapolation_actually_moves_loss(small_model):
    x = _batch(12, seed=5)
    out = pgd_extrapolate(small_model, x, ExtrapolationConfig(steps=5, pool=((0.1, 1.0),)))
    assert np.mean(out.final_values) > np.mean(out.initial_values)


def test_recorded_values_match_uniform_loss(small_model):
    x = _batch(4, seed=6)
    out = pgd_extrapolate(small_model, x, ExtrapolationConfig(steps=3, pool=((0.05, 1.0),)))
    objective = ad.Objective(ad.Term(losses.oe_rows, model.logits_graph(small_model.dims)))
    bindings = model.param_bindings(small_model)

    def uniform_loss(row):
        return float(ad.evaluate(objective, {**bindings, "x": row[None, :]}))

    for i in range(len(x)):
        before = uniform_loss(x[i])
        after = uniform_loss(out.synthesized[i])
        assert out.initial_values[i] == pytest.approx(before, rel=1e-12)
        assert out.final_values[i] == pytest.approx(after, rel=1e-12)


def test_deterministic_given_same_inputs(small_model):
    x = _batch(8, seed=7)
    cfg = ExtrapolationConfig()
    a = pgd_extrapolate(small_model, x, cfg)
    b = pgd_extrapolate(small_model, x, cfg)
    assert a.synthesized.tobytes() == b.synthesized.tobytes()


WORKLOAD_POOL = ((0.02, 0.34), (0.05, 0.33), (0.1, 0.33))
POOL_CASES = {
    "workload_pool": dict(steps=5, pool=WORKLOAD_POOL),
    "zero_slice": dict(steps=4, pool=((0.0, 0.25), (0.08, 0.75))),
    "three_slices": dict(steps=3, pool=((0.04, 0.25), (0.12, 0.5), (0.3, 0.25))),
}


def _uniform_loss(mlp, x):
    logits = model.forward(mlp, x)
    return numerics.logsumexp(logits, axis=1) - logits.mean(axis=1)


@pytest.mark.parametrize("pool_case", sorted(POOL_CASES))
def test_batched_matches_rowwise_twin(pool_case):
    mlp = model.init_model([2, 16, 16, 4], seed=21)
    x = np.random.default_rng(22).uniform(0.0, 1.0, (16, 2))
    x[0] = [0.0, 1.0]  # starts on the domain's edge
    cfg = ExtrapolationConfig(**POOL_CASES[pool_case])
    got = build_extrapolation_pool(mlp, x, cfg)
    counts = largest_remainder_counts([f for _, f in cfg.pool], len(x))
    ref = oracles.pgd_extrapolate_rowwise(mlp, x, cfg, np.repeat([e for e, _ in cfg.pool], counts))

    np.testing.assert_array_equal(got.epsilons, ref.epsilons)
    np.testing.assert_array_equal(got.aborted, ref.aborted)
    np.testing.assert_allclose(got.initial_values, ref.initial_values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.final_values, ref.final_values, rtol=1e-12, atol=0)
    # A batched matmul rounds differently from a 1-row one, so two iterates
    # whose values tie within rounding may swap places as the best one (for
    # example x0 + 2*alpha and its clip to x0 + epsilon, 1 ulp apart).
    differ = np.any(got.synthesized != ref.synthesized, axis=1)
    moved = got.synthesized[differ]
    assert np.all(np.abs(moved - x[differ]) <= got.epsilons[differ, None] + 1e-12)
    assert moved.min(initial=0.0) >= 0.0 and moved.max(initial=1.0) <= 1.0
    np.testing.assert_allclose(_uniform_loss(mlp, moved), got.final_values[differ],
                               rtol=1e-12, atol=0)


def _overflow_model():
    # Hidden unit 2 fires only for x0 > 0.5 and then drives logit 0 past the
    # float64 range, so those rows (or iterates) overflow and the rest stay finite.
    w0 = np.array([[1.0, -1.0, 1e200], [0.5, 1.0, 0.0]])
    w1 = np.array([[1.0, -1.0, 0.5], [-0.5, 1.0, 0.2], [1e200, 0.0, 0.0]])
    return model.from_layers((2, 3, 3), (w0, w1), (np.array([0.0, 0.0, -0.5e200]), np.zeros(3)))


_OVERFLOW_X = np.array([[0.2, 0.3], [0.8, 0.1], [0.47, 0.6], [0.1, 0.9],
                        [0.9, 0.9], [0.48, 0.2], [0.3, 0.7], [0.52, 0.5]])


def test_nonfinite_rows_abort_at_origin():
    mlp = _overflow_model()
    cfg = ExtrapolationConfig(steps=5, pool=((0.05, 1.0),))
    out = pgd_extrapolate(mlp, _OVERFLOW_X, cfg)
    # Rows 1, 4, 7 overflow at the origin; rows 2, 5 ascend across x0 = 0.5.
    np.testing.assert_array_equal(np.flatnonzero(out.aborted), [1, 2, 4, 5, 7])
    bad = out.aborted
    assert out.synthesized[bad].tobytes() == _OVERFLOW_X[bad].tobytes()
    np.testing.assert_array_equal(np.isnan(out.initial_values), np.isin(range(8), [1, 4, 7]))
    np.testing.assert_array_equal(out.final_values[bad], out.initial_values[bad])
    ref = oracles.pgd_extrapolate_rowwise(mlp, _OVERFLOW_X, cfg, [0.05] * 8)
    np.testing.assert_array_equal(out.aborted, ref.aborted)
    np.testing.assert_allclose(out.initial_values, ref.initial_values, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_row_held_at_origin_never_aborts_on_its_gradient():
    # At x = (1e-250, 0) the logits are finite but the input gradient passes
    # through two 1e200 weights and overflows; at x = (0, 0) the relu blocks it.
    w1 = np.array([[1e200, -1e200], [0.0, 0.0]])
    mlp = model.from_layers((2, 2, 2), (np.full((2, 2), 1e200), w1), (np.zeros(2), np.zeros(2)))
    x = np.array([[1e-250, 0.0], [0.0, 0.0], [1e-250, 0.0]])
    eps = [0.0, 0.05, 0.05]
    cfg = ExtrapolationConfig(steps=3)
    out = pgd_extrapolate(mlp, x, cfg, epsilon=eps)
    ref = oracles.pgd_extrapolate_rowwise(mlp, x, cfg, eps)
    np.testing.assert_array_equal(out.aborted, [False, False, True])
    np.testing.assert_array_equal(out.aborted, ref.aborted)
    np.testing.assert_allclose(out.initial_values, ref.initial_values, rtol=1e-12, atol=0)
    assert out.synthesized.tobytes() == x.tobytes()


def test_nonfinite_rows_leave_finite_rows_untouched():
    mlp = _overflow_model()
    cfg = ExtrapolationConfig(steps=5, pool=((0.05, 1.0),))
    out = pgd_extrapolate(mlp, _OVERFLOW_X, cfg)
    ok = ~out.aborted
    clean = pgd_extrapolate(mlp, _OVERFLOW_X[ok], cfg)
    assert not clean.aborted.any()
    assert out.synthesized[ok].tobytes() == clean.synthesized.tobytes()
    np.testing.assert_allclose(out.initial_values[ok], clean.initial_values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(out.final_values[ok], clean.final_values, rtol=1e-12, atol=0)


def test_linear_model_single_step_moves_by_alpha():
    # On an affine model, the uniform-loss gradient has a closed form:
    # softmax(xW)-weighted columns minus their mean. With steps=2 the step is
    # alpha = 2*epsilon/2 = epsilon, so the first step moves every coordinate
    # with a nonzero gradient by exactly alpha, and a second step in the same
    # signs is projected back onto it.
    w = np.array([[1.5, -0.5, 0.2], [-0.3, 0.8, 0.1]])
    m = model.from_layers((2, 3), (w,), (np.zeros(3),))

    def grad(x):
        p = np.exp(model.forward(m, x)) / np.exp(model.forward(m, x)).sum()
        return (p @ w.T) - w.mean(axis=1)

    x = np.array([[0.5, 0.5]])
    alpha = 0.1
    expected = x + alpha * np.sign(grad(x))
    assert np.array_equal(np.sign(grad(expected)), np.sign(grad(x)))
    out = pgd_extrapolate(m, x, ExtrapolationConfig(steps=2, pool=((0.1, 1.0),)))
    np.testing.assert_allclose(out.synthesized, expected, rtol=1e-12)


def test_default_step_size_traverses_ball():
    # The step is 2*epsilon/steps for each row's own radius, so `steps` steps
    # span the ball's diameter and every row reaches its ball's corner while
    # the gradient keeps its signs. On this affine model the uniform loss is
    # convex and rises along the whole path, so the best iterate is the corner.
    w = np.array([[1.5, -0.5, 0.2], [-0.3, 0.8, 0.1]])
    m = model.from_layers((2, 3), (w,), (np.zeros(3),))
    x = np.full((3, 2), 0.5)
    radii = [0.02, 0.08, 0.2]
    direction = np.sign(_uniform_loss_grad(m, w, x[:1]))
    for eps in radii:
        path = x[:1] + np.linspace(0.0, eps, 11)[:, None] * direction
        assert np.array_equal(np.sign(_uniform_loss_grad(m, w, path)),
                              np.repeat(direction, len(path), axis=0))
    for steps in (1, 2, 5):
        out = pgd_extrapolate(m, x, ExtrapolationConfig(steps=steps), epsilon=radii)
        corners = x + np.array(radii)[:, None] * direction
        np.testing.assert_allclose(out.synthesized, corners, rtol=0, atol=1e-15)


def _uniform_loss_grad(m, w, x):
    logits = model.forward(m, x)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p @ w.T - w.mean(axis=1)


def test_largest_remainder_counts():
    assert largest_remainder_counts([0.3, 0.7], 10) == [3, 7]
    assert largest_remainder_counts([1.0], 7) == [7]
    assert largest_remainder_counts([0.5, 0.5], 7) == [4, 3]  # tie goes to lower index
    assert sum(largest_remainder_counts([0.25, 0.25, 0.5], 9)) == 9


def test_pool_single_entry_equals_plain_pgd_bitwise(small_model):
    x = _batch(10, seed=12)
    cfg = ExtrapolationConfig(steps=4, pool=((0.06, 1.0),))
    pooled = build_extrapolation_pool(small_model, x, cfg)
    plain = pgd_extrapolate(small_model, x, cfg, epsilon=0.06)
    assert pooled.synthesized.tobytes() == plain.synthesized.tobytes()
    assert pooled.final_values.tobytes() == plain.final_values.tobytes()


def test_default_radii_split_the_rows_across_the_pool_bitwise(small_model):
    # 11 rows over fractions (0.25, 0.5, 0.25): largest remainders give 3, 5, 3.
    x = _batch(11, seed=14)
    cfg = ExtrapolationConfig(steps=3, pool=((0.04, 0.25), (0.12, 0.5), (0.3, 0.25)))
    pooled = pgd_extrapolate(small_model, x, cfg)
    explicit = pgd_extrapolate(small_model, x, cfg, epsilon=[0.04] * 3 + [0.12] * 5 + [0.3] * 3)
    for field in ("epsilons", "synthesized", "initial_values", "final_values", "aborted"):
        assert getattr(pooled, field).tobytes() == getattr(explicit, field).tobytes(), field


def test_pool_mixed_epsilons(small_model):
    x = _batch(8, seed=13)
    cfg = ExtrapolationConfig(steps=3, pool=((0.05, 0.5), (0.125, 0.5)))
    out = build_extrapolation_pool(small_model, x, cfg)
    assert out.synthesized.shape == x.shape
    np.testing.assert_array_equal(out.epsilons, [0.05] * 4 + [0.125] * 4)
    assert np.max(np.abs(out.synthesized[:4] - x[:4])) <= 0.05 + 1e-12
    assert np.max(np.abs(out.synthesized[4:] - x[4:])) <= 0.125 + 1e-12


def test_pool_empty_spec_rejected():
    with pytest.raises(ConfigError, match="pool spec must not be empty"):
        ExtrapolationConfig(pool=())


def test_per_row_epsilon_and_empty_batch(small_model):
    x = _batch(3, seed=19)
    out = pgd_extrapolate(small_model, x, ExtrapolationConfig(), epsilon=[0.0, 0.05, 0.1])
    assert out.synthesized[0].tobytes() == x[0].tobytes()
    assert np.all(np.abs(out.synthesized - x) <= out.epsilons[:, None] + 1e-12)
    with pytest.raises(ValueError):  # numpy's broadcast_to
        pgd_extrapolate(small_model, x, ExtrapolationConfig(), epsilon=[0.1, 0.2])
    empty = pgd_extrapolate(small_model, np.zeros((0, 2)), ExtrapolationConfig())
    assert empty.synthesized.shape == (0, 2) and empty.final_values.shape == (0,)


# sha256 of the ascent's (synthesized, initial, final, aborted) on 21, 64 and
# 3072 rows over the benchmark's 3-slice pool, and of ODIN on 5000 rows (one
# full 4096-row block and a partial one), from the model below (x86-64, numpy
# 2.4.6, OpenBLAS 0.3.31). Pinned from the per-row loss kernels that reduced
# inside their own forward and backward. Both targets are means: each row's
# input gradient enters with the positive weight 1/m, which the sign steps
# read past. Another BLAS kernel or numpy build may round differently; re-pin
# from those kernels there.
ROW_OUTPUT_DIGESTS = {
    21: "36708aa09002aa6c9988b9e650fac7216ef8c057dbba82042a06fc54f8c8d859",
    64: "c1837207ae53e0a106b78ad51a7ca5d9cfaa53cdaba48f9e1e810a1b4ddf24fb",
    3072: "c695a47c1fff8d50a67bf2123f7ce1043e34a6290b885ec783da53669367d273",
    "odin": "bf7dfc30fde47500f67a3b6c5e96582a847b2209d5b8b46997b465c68534cc39",
}


def _sha256(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def test_ascent_and_odin_outputs_unchanged():
    base = model.init_model([2, 16, 16, 4], seed=11)
    rng = np.random.default_rng(12)
    mlp = model.from_layers(base.dims, base.weights,
                            tuple(rng.normal(0.0, 0.5, b.shape) for b in base.biases))
    cfg = ExtrapolationConfig(ratio=1.0, steps=5,
                              pool=((0.02, 0.34), (0.05, 0.33), (0.1, 0.33)))
    digests = {}
    for n in (21, 64, 3072):
        out = pgd_extrapolate(mlp, np.random.default_rng(n).uniform(0.0, 1.0, (n, 2)), cfg)
        digests[n] = _sha256(out.synthesized, out.initial_values, out.final_values, out.aborted)
    x = np.random.default_rng(5000).uniform(0.0, 1.0, (5000, 2))
    digests["odin"] = _sha256(scoring.odin_score(mlp, x))
    assert digests == ROW_OUTPUT_DIGESTS


def test_ascent_and_odin_take_every_pass_through_input_gradient(small_model, monkeypatch):
    # One pass per visited iterate, the last without a gradient, and one per
    # ODIN block: the two pushes share autodiff's input-gradient pass.
    calls = []
    real = ad.input_gradient

    def counted(mlp, x, objective, grad=True):
        calls.append((x.shape[0], grad))
        return real(mlp, x, objective, grad)

    monkeypatch.setattr(ad, "input_gradient", counted)
    steps = 4
    out = pgd_extrapolate(small_model, _batch(8, seed=9),
                          ExtrapolationConfig(steps=steps, pool=((0.05, 1.0),)))
    assert not out.aborted.any()
    assert calls == [(8, True)] * steps + [(8, False)]
    calls.clear()
    n = 2 * scoring.BLOCK_ROWS + 1
    scoring.odin_score(small_model, np.random.default_rng(10).uniform(0.0, 1.0, (n, 2)))
    assert calls == [(scoring.BLOCK_ROWS, True)] * 2 + [(1, True)]
