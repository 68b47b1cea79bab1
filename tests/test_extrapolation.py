import numpy as np
import oracles
import pytest

from oodbench import losses, model, numerics, scoring
from oodbench.errors import ConfigError, ShapeError
from oodbench.extrapolation import (
    ExtrapolationConfig,
    build_extrapolation_pool,
    largest_remainder_counts,
    pgd_extrapolate,
    select_subbatch,
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
        ExtrapolationConfig(epsilon=-0.1)
    with pytest.raises(ConfigError):
        ExtrapolationConfig(direction="sideways")
    with pytest.raises(ConfigError):
        ExtrapolationConfig(pool=((0.05, 0.4), (0.1, 0.4)))  # fractions sum to 0.8
    cfg = ExtrapolationConfig(pool=((0.05, 0.5), (0.125, 0.5)))
    assert cfg.pool == ((0.05, 0.5), (0.125, 0.5))


def test_default_step_size_traverses_ball():
    cfg = ExtrapolationConfig(epsilon=0.05, steps=5)
    assert cfg.effective_step_size() == pytest.approx(2 * 0.05 / 5)
    assert cfg.effective_step_size(0.125) == pytest.approx(2 * 0.125 / 5)
    assert ExtrapolationConfig(step_size=0.03).effective_step_size() == 0.03


def test_paper_default_configuration():
    cfg = ExtrapolationConfig()
    assert cfg.ratio == 0.5 and cfg.epsilon == 0.05 and cfg.steps == 5


def test_zero_steps_and_zero_epsilon_return_input_bitwise(small_model):
    x = _batch()
    for cfg in (ExtrapolationConfig(steps=0), ExtrapolationConfig(epsilon=0.0)):
        out = pgd_extrapolate(small_model, x, cfg)
        assert out.synthesized.tobytes() == x.tobytes()
        np.testing.assert_array_equal(out.initial_values, out.final_values)


def test_linf_constraint_and_domain(small_model):
    x = _batch(20, seed=3)
    cfg = ExtrapolationConfig(epsilon=0.07, steps=6)
    out = pgd_extrapolate(small_model, x, cfg)
    assert np.max(np.abs(out.synthesized - x)) <= 0.07 + 1e-12
    assert out.synthesized.min() >= 0.0 and out.synthesized.max() <= 1.0


def test_best_iterate_monotonicity_both_directions(small_model):
    x = _batch(12, seed=4)
    up = pgd_extrapolate(small_model, x, ExtrapolationConfig(direction="maximize"))
    assert np.all(up.final_values >= up.initial_values)
    down = pgd_extrapolate(small_model, x, ExtrapolationConfig(direction="minimize"))
    assert np.all(down.final_values <= down.initial_values)


def test_extrapolation_actually_moves_loss(small_model):
    x = _batch(12, seed=5)
    out = pgd_extrapolate(small_model, x, ExtrapolationConfig(epsilon=0.1, steps=5))
    assert np.mean(out.final_values) > np.mean(out.initial_values)


def test_recorded_values_match_uniform_loss(small_model):
    x = _batch(4, seed=6)
    out = pgd_extrapolate(small_model, x, ExtrapolationConfig(epsilon=0.05, steps=3))
    for i in range(len(x)):
        before = losses.oe_uniform_loss(model.forward(small_model, x[i:i + 1]))
        after = losses.oe_uniform_loss(model.forward(small_model, out.synthesized[i:i + 1]))
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
    "step_size": dict(steps=3, step_size=0.03, pool=((0.04, 0.5), (0.12, 0.5))),
}


def _target_values(mlp, x, cfg):
    logits = model.forward(mlp, x)
    if cfg.target == "uniform_loss":
        return numerics.logsumexp(logits, axis=1) - logits.mean(axis=1)
    if cfg.target == "msp":
        return scoring.msp_score(logits)
    return scoring.energy_score(logits, cfg.target_temperature)


@pytest.mark.parametrize("pool_case", sorted(POOL_CASES))
@pytest.mark.parametrize("direction", ["maximize", "minimize"])
@pytest.mark.parametrize("target", ["uniform_loss", "msp", "energy"])
def test_batched_matches_rowwise_twin(target, direction, pool_case):
    mlp = model.init_model([2, 16, 16, 4], seed=21)
    x = np.random.default_rng(22).uniform(0.0, 1.0, (16, 2))
    x[0] = [0.0, 1.0]  # starts on the clamp
    cfg = ExtrapolationConfig(target=target, direction=direction, **POOL_CASES[pool_case])
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
    np.testing.assert_allclose(_target_values(mlp, moved, cfg), got.final_values[differ],
                               rtol=1e-12, atol=0)


def _overflow_model():
    # Hidden unit 2 fires only for x0 > 0.5 and then drives logit 0 past the
    # float64 range, so those rows (or iterates) overflow and the rest stay finite.
    w0 = np.array([[1.0, -1.0, 1e200], [0.5, 1.0, 0.0]])
    w1 = np.array([[1.0, -1.0, 0.5], [-0.5, 1.0, 0.2], [1e200, 0.0, 0.0]])
    return model.MlpClassifier((2, 3, 3), (w0, w1), (np.array([0.0, 0.0, -0.5e200]), np.zeros(3)))


_OVERFLOW_X = np.array([[0.2, 0.3], [0.8, 0.1], [0.47, 0.6], [0.1, 0.9],
                        [0.9, 0.9], [0.48, 0.2], [0.3, 0.7], [0.52, 0.5]])


@pytest.mark.parametrize("target", ["uniform_loss", "msp", "energy"])
def test_nonfinite_rows_abort_at_origin(target):
    mlp = _overflow_model()
    cfg = ExtrapolationConfig(epsilon=0.05, steps=5, target=target)
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
    mlp = model.MlpClassifier((2, 2, 2), (np.full((2, 2), 1e200), w1), (np.zeros(2), np.zeros(2)))
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
    cfg = ExtrapolationConfig(epsilon=0.05, steps=5)
    out = pgd_extrapolate(mlp, _OVERFLOW_X, cfg)
    ok = ~out.aborted
    clean = pgd_extrapolate(mlp, _OVERFLOW_X[ok], cfg)
    assert not clean.aborted.any()
    assert out.synthesized[ok].tobytes() == clean.synthesized.tobytes()
    np.testing.assert_allclose(out.initial_values[ok], clean.initial_values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(out.final_values[ok], clean.final_values, rtol=1e-12, atol=0)


def test_score_targets_move_their_score(small_model):
    from oodbench import scoring

    x = _batch(10, seed=9)
    msp_cfg = ExtrapolationConfig(target="msp", epsilon=0.1, steps=5)
    out = pgd_extrapolate(small_model, x, msp_cfg)
    before = scoring.msp_score(model.forward(small_model, x))
    after = scoring.msp_score(model.forward(small_model, out.synthesized))
    np.testing.assert_allclose(out.initial_values, before, rtol=1e-10)
    assert np.all(after >= before - 1e-12)

    en_cfg = ExtrapolationConfig(target="energy", epsilon=0.1, steps=5)
    out = pgd_extrapolate(small_model, x, en_cfg)
    e_before = scoring.energy_score(model.forward(small_model, x), 1.0)
    e_after = scoring.energy_score(model.forward(small_model, out.synthesized), 1.0)
    np.testing.assert_allclose(out.initial_values, e_before, rtol=1e-10)
    assert np.all(e_after >= e_before - 1e-12)


def test_linear_model_single_step_moves_by_alpha():
    # On an affine model, the uniform-loss gradient has a closed form:
    # softmax(xW)-weighted columns minus their mean; every coordinate with a
    # nonzero gradient moves by exactly alpha.
    w = np.array([[1.5, -0.5, 0.2], [-0.3, 0.8, 0.1]])
    m = model.MlpClassifier((2, 3), (w,), (np.zeros(3),))
    x = np.array([[0.5, 0.5]])
    alpha = 0.02
    cfg = ExtrapolationConfig(epsilon=0.5, steps=1, step_size=alpha, clamp=(-1.0, 2.0))
    out = pgd_extrapolate(m, x, cfg)
    p = np.exp(model.forward(m, x)) / np.exp(model.forward(m, x)).sum()
    grad = (p @ w.T) - w.mean(axis=1)
    expected = x + alpha * np.sign(grad)
    np.testing.assert_allclose(out.synthesized, expected, rtol=1e-12)


def test_select_subbatch_extremes_and_split():
    rng = np.random.default_rng(1)
    batch = _batch(128, seed=10)
    none_sel, all_kept = select_subbatch(batch, 0.0, rng)
    assert none_sel.shape[0] == 0
    assert all_kept.tobytes() == batch.tobytes()  # original order preserved
    all_sel, none_kept = select_subbatch(batch, 1.0, rng)
    assert all_sel.shape[0] == 128 and none_kept.shape[0] == 0
    half, rest = select_subbatch(batch, 0.5, rng)
    assert half.shape[0] == 64 and rest.shape[0] == 64
    combined = np.concatenate([half, rest])
    assert {tuple(r) for r in combined} == {tuple(r) for r in batch}


def test_select_subbatch_ceil_rounding():
    rng = np.random.default_rng(2)
    batch = _batch(5, seed=11)
    chosen, rest = select_subbatch(batch, 0.3, rng)
    assert chosen.shape[0] == 2  # ceil(1.5)
    assert rest.shape[0] == 3


def test_largest_remainder_counts():
    assert largest_remainder_counts([0.3, 0.7], 10) == [3, 7]
    assert largest_remainder_counts([1.0], 7) == [7]
    assert largest_remainder_counts([0.5, 0.5], 7) == [4, 3]  # tie goes to lower index
    assert sum(largest_remainder_counts([0.25, 0.25, 0.5], 9)) == 9


def test_pool_single_entry_equals_plain_pgd_bitwise(small_model):
    x = _batch(10, seed=12)
    cfg = ExtrapolationConfig(epsilon=0.06, steps=4, pool=((0.06, 1.0),))
    pooled = build_extrapolation_pool(small_model, x, cfg)
    plain = pgd_extrapolate(small_model, x, cfg, epsilon=0.06)
    assert pooled.synthesized.tobytes() == plain.synthesized.tobytes()
    assert pooled.final_values.tobytes() == plain.final_values.tobytes()


def test_pool_mixed_epsilons(small_model):
    x = _batch(8, seed=13)
    cfg = ExtrapolationConfig(steps=3, pool=((0.05, 0.5), (0.125, 0.5)))
    out = build_extrapolation_pool(small_model, x, cfg)
    assert out.synthesized.shape == x.shape
    np.testing.assert_array_equal(out.epsilons, [0.05] * 4 + [0.125] * 4)
    assert np.max(np.abs(out.synthesized[:4] - x[:4])) <= 0.05 + 1e-12
    assert np.max(np.abs(out.synthesized[4:] - x[4:])) <= 0.125 + 1e-12


def test_pool_empty_spec_rejected(small_model):
    cfg = ExtrapolationConfig()
    object.__setattr__(cfg, "pool", ())
    with pytest.raises(ConfigError):
        build_extrapolation_pool(small_model, _batch(4), cfg)


def test_origin_outside_domain_rejected(small_model):
    cfg = ExtrapolationConfig()
    with pytest.raises(ConfigError):
        pgd_extrapolate(small_model, np.array([[2.0, 0.5]]), cfg)


def test_per_row_epsilon_and_empty_batch(small_model):
    x = _batch(3, seed=19)
    out = pgd_extrapolate(small_model, x, ExtrapolationConfig(), epsilon=[0.0, 0.05, 0.1])
    assert out.synthesized[0].tobytes() == x[0].tobytes()
    assert np.all(np.abs(out.synthesized - x) <= out.epsilons[:, None] + 1e-12)
    with pytest.raises(ShapeError):
        pgd_extrapolate(small_model, x, ExtrapolationConfig(), epsilon=[0.1, 0.2])
    with pytest.raises(ConfigError):
        pgd_extrapolate(small_model, x, ExtrapolationConfig(), epsilon=[0.1, -0.2, 0.1])
    empty = pgd_extrapolate(small_model, np.zeros((0, 2)), ExtrapolationConfig())
    assert empty.synthesized.shape == (0, 2) and empty.final_values.shape == (0,)
