import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodbench import autodiff as ad
from oodbench import gradcheck, losses, model, scoring, trainer


def _identity(c, **batches):
    """Bindings of a one-layer identity model, under which every batch is its own logits."""
    return {"W0": np.eye(c), "b0": np.zeros(c),
            **{name: np.asarray(z, dtype=np.float64) for name, z in batches.items()}}


def _logits(c, name="z"):
    return model.logits_graph((c, c), name)


def _value(objective, **batches) -> float:
    c = next(iter(batches.values())).shape[1]
    return float(ad.evaluate(objective, _identity(c, **batches)))


def _ce(logits, labels) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    c = logits.shape[1]
    return _value(ad.Objective(ad.Term(losses.ce_rows, _logits(c), losses.onehot(labels, c))),
                  z=logits)


def _oe(logits) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    return _value(ad.Objective(ad.Term(losses.oe_rows, _logits(logits.shape[1]))), z=logits)


def _objective(kind, batches, lam=0.5):
    """trainer._build_loss_graph's total, ce and outlier term (if the kind binds
    x_out); the model is one identity layer, so every batch is its own logits."""
    c = batches["x"].shape[1]
    objective = trainer._build_loss_graph((c, c), losses.LossConfig(kind=kind, balance=lam))
    total, _, outputs = ad.value_and_grad(objective, {"W0": np.eye(c), "b0": np.zeros(c),
                                                      **batches}, [])
    ce, *group = (float(t.reduced(out)) for t, out in zip((objective.head, *objective.group),
                                                          outputs))
    return (float(total), ce, *group[-1:])


def test_ce_uniform_logits():
    assert _ce(np.zeros((4, 10)), np.zeros(4, dtype=int)) == pytest.approx(math.log(10.0))


def test_ce_saturated_correct_logit():
    logits = np.zeros((1, 3))
    logits[0, 1] = 100.0
    assert _ce(logits, [1]) < 1e-6


def test_ce_hand_value():
    # -log softmax([2, 0]) at class 0 = log(1 + e^-2)
    assert _ce(np.array([[2.0, 0.0]]), [0]) == pytest.approx(
        math.log1p(math.exp(-2.0)), rel=1e-12)


def test_ce_label_out_of_range():
    # numpy's own IndexError. A negative label would index from the end
    # instead, so the CLI refuses labels outside [0, C) where it reads them.
    with pytest.raises(IndexError):
        _ce(np.zeros((2, 3)), [0, 3])


def test_oe_uniform_constant_rows():
    # Any constant row attains the minimum value ln C.
    logits = np.full((5, 7), 3.25)
    assert _oe(logits) == pytest.approx(math.log(7.0), rel=1e-12)


def test_oe_uniform_hand_value():
    # lse([2,0]) - mean([2,0]) = 2 + log(1+e^-2) - 1
    expected = 2.0 + math.log1p(math.exp(-2.0)) - 1.0
    assert _oe(np.array([[2.0, 0.0]])) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.floats(-100, 100))
def test_oe_uniform_shift_invariance(row, shift):
    logits = np.array([row])
    assert _oe(logits) == pytest.approx(_oe(logits + shift), abs=1e-9)


def test_oe_uniform_gradient_vanishes_at_constant_rows():
    objective = ad.Objective(ad.Term(losses.oe_rows, _logits(5)))
    grads = ad.value_and_grad(objective, _identity(5, z=np.full((3, 5), 1.7)), ["z"])[1]
    np.testing.assert_allclose(grads["z"], 0.0, atol=1e-15)


def test_oe_total_reductions():
    rng = np.random.default_rng(0)
    id_logits = rng.normal(size=(6, 4))
    out_logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, 6)

    def total(lam):
        return _value(losses.oe_total_loss_expr(_logits(4), labels, 4, _logits(4, "z_out"), lam),
                      z=id_logits, z_out=out_logits)

    assert total(0.0) == pytest.approx(_ce(id_logits, labels), rel=1e-15)
    assert total(1.0) == pytest.approx(_ce(id_logits, labels) + _oe(out_logits), rel=1e-12)


def _energy_bounded(id_logits, out_logits, m_in, m_out):
    hinge = losses.energy_hinge_rows
    objective = ad.Objective(ad.Term(hinge, _logits(2), (1.0, -m_in)), 1.0,
                             (ad.Term(hinge, _logits(2, "z_out"), (-1.0, m_out)),))
    return _value(objective, z=id_logits, z_out=out_logits)


def test_energy_bounded_inactive_hinge():
    # Construct logits with S_E = -logsumexp(f) = -30 for the ID row.
    id_logits = np.array([[30.0, -500.0]])
    out_logits = np.array([[100.0, -500.0]])  # S_E = -100, far past m_out
    value = _energy_bounded(id_logits, out_logits, m_in=-23.0, m_out=-105.0)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_energy_bounded_hinge_arithmetic():
    # Outlier with S_E = -10 against m_out = -5 contributes (5)^2 = 25.
    out_logits = np.array([[10.0, -500.0]])        # logsumexp = 10, S_E = -10
    id_logits = np.array([[100.0, -500.0]])        # S_E = -100, inactive vs m_in=-23
    value = _energy_bounded(id_logits, out_logits, m_in=-23.0, m_out=-5.0)
    assert value == pytest.approx(25.0, rel=1e-9)


def test_energy_bounded_outlier_term_is_the_outlier_hinge_alone():
    # Identity layer: the ID energy -1 sits 22 above m_in = -23 and the outlier
    # energy -10 sits 5 below m_out = -5, so the hinges are 22^2 and 5^2. The
    # outlier term holds the outlier hinge only; the total adds the ID hinge once.
    _, batches = _id_batch(np.random.default_rng(8), 1, 2)
    batches["x"] = np.array([[1.0, -500.0]])
    batches["x_out"] = np.array([[10.0, -500.0]])
    total, ce, outlier = _objective("energy_bounded", batches)
    assert outlier == pytest.approx(25.0, rel=1e-12)
    assert total == pytest.approx(ce + 0.5 * (484.0 + 25.0), rel=1e-12)


def test_energy_bounded_default_margins_importable():
    assert losses.LossConfig().m_in == -23.0
    assert losses.LossConfig().m_out == -5.0


def _id_batch(rng, m, c):
    labels = rng.integers(0, c, m)
    return labels, {"x": rng.normal(size=(m, c)), "y": losses.onehot(labels, c)}


def test_divoe_reduces_to_oe_total_bitwise():
    rng = np.random.default_rng(2)
    labels, batches = _id_batch(rng, 4, 3)
    batches["x_out"] = rng.normal(size=(6, 3))
    total, ce, oe_orig = _objective("divoe", batches)
    assert (total, ce, oe_orig) == _objective("oe", batches)
    assert total == ce + 0.5 * oe_orig  # bitwise: one outlier batch adds nothing
    assert total == _value(losses.oe_total_loss_expr(_logits(3, "x"), labels, 3,
                                                     _logits(3, "x_out"), 0.5),
                           x=batches["x"], x_out=batches["x_out"])


def test_divoe_full_extrapolation_uses_extrap_only():
    # At ratio 1 every row of the outlier batch is synthesized, so the one
    # outlier term is the uniform loss of the synthesized rows alone.
    rng = np.random.default_rng(3)
    labels, batches = _id_batch(rng, 4, 3)
    ext = rng.normal(size=(6, 3))
    total, ce, outlier = _objective("divoe", {**batches, "x_out": ext})
    assert (ce, outlier) == (_ce(batches["x"], labels), _oe(ext))
    assert total == ce + 0.5 * outlier


def test_divoe_hand_composed_two_sides():
    # An untouched row and a synthesized one share the outlier batch: one
    # uniform term, in which each row weighs half.
    rng = np.random.default_rng(4)
    labels, batches = _id_batch(rng, 2, 3)
    orig, ext = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
    total, ce, outlier = _objective("divoe", {**batches, "x_out": np.concatenate([orig, ext])})
    assert ce == _ce(batches["x"], labels)
    assert outlier == pytest.approx((_oe(orig) + _oe(ext)) / 2, rel=1e-12)
    expected = _ce(batches["x"], labels) + 0.5 * (_oe(orig) + _oe(ext)) / 2
    assert total == pytest.approx(expected, rel=1e-12)


def test_losses_differentiable_finite_diff():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(3, 4)) * 2.0
    for term in (ad.Term(losses.oe_rows, _logits(4)),
                 ad.Term(losses.ce_rows, _logits(4), losses.onehot(rng.integers(0, 4, 3), 4))):
        objective, bindings = ad.Objective(term), _identity(4, z=z)
        grads = ad.value_and_grad(objective, bindings, ["z"])[1]
        assert gradcheck.finite_diff_check(objective, bindings, grads) < 1e-6


# Every per-row loss, with payloads that keep both hinge signs active on the
# logits below: sign +1 is the ID hinge, sign -1 the outlier hinge.
ROW_LOSSES = [
    ("ce", losses.ce_rows, lambda m, c: losses.onehot(np.arange(m) % c, c)),
    ("oe", losses.oe_rows, lambda m, c: None),
    ("energy_id", losses.energy_hinge_rows, lambda m, c: (1.0, 10.0)),
    ("energy_out", losses.energy_hinge_rows, lambda m, c: (-1.0, 5.0)),
    ("odin_t1", scoring.odin_rows, lambda m, c: (losses.onehot(np.arange(m) % c, c), 1.0)),
    ("odin_t1e4", scoring.odin_rows,
     lambda m, c: (losses.onehot(np.arange(m) % c, c), 1.0 / scoring.ODIN_TEMPERATURE)),
]


@pytest.mark.parametrize("rows, payload", [r[1:] for r in ROW_LOSSES],
                         ids=[r[0] for r in ROW_LOSSES])
def test_row_gradient_matches_central_differences(rows, payload):
    z = np.random.default_rng(21).normal(size=(5, 4)) * 2.0
    p = payload(*z.shape)
    values, rowgrad = rows(p, z)
    assert values.shape == (5,) and rowgrad.shape == z.shape
    h = 1e-5
    fd = np.empty_like(z)
    for i, j in np.ndindex(*z.shape):
        up, down = z.copy(), z.copy()
        up[i, j] += h
        down[i, j] -= h
        fd[i, j] = (rows(p, up)[0][i] - rows(p, down)[0][i]) / (2.0 * h)
    np.testing.assert_allclose(rowgrad, fd, rtol=1e-6, atol=1e-6 * np.abs(rowgrad).max())


@pytest.mark.parametrize("rows, payload", [r[1:] for r in ROW_LOSSES],
                         ids=[r[0] for r in ROW_LOSSES])
def test_rows_do_not_interact(rows, payload):
    # The ascent's bisection and ODIN's blocks evaluate slices of a batch.
    z = np.random.default_rng(22).normal(size=(6, 3)) * 2.0
    p = payload(*z.shape)
    values, rowgrad = rows(p, z)
    for k in range(z.shape[0]):
        moved = z.copy()
        moved[k] += np.array([0.75, -1.5, 3.0])
        v, g = rows(p, moved)
        others = np.arange(z.shape[0]) != k
        assert v[k] != values[k]
        assert v[others].tobytes() == values[others].tobytes()
        assert g[others].tobytes() == rowgrad[others].tobytes()


@pytest.mark.parametrize("shape", [(7, 5, 4), (3, 37, 11)], ids=["small", "wide"])
@pytest.mark.parametrize("rows, payload", [r[1:] for r in ROW_LOSSES],
                         ids=[r[0] for r in ROW_LOSSES])
def test_stacked_rows_equal_separate_calls(rows, payload, shape):
    # gradcheck evaluates a stack of perturbed batches in one pass: each slice
    # gets the bytes a call on that batch alone gets.
    z = np.random.default_rng(23).normal(size=shape) * 2.0
    p = payload(*shape[1:])
    values, rowgrad = rows(p, z)
    assert values.shape == shape[:2] and rowgrad.shape == shape
    for s in range(shape[0]):
        v, g = rows(p, z[s])
        assert values[s].tobytes() == v.tobytes()
        assert rowgrad[s].tobytes() == g.tobytes()
