import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodbench import autodiff as ad
from oodbench import losses
from oodbench.errors import ConfigError


def _value(expr) -> float:
    return float(ad.evaluate(expr, {}))


def _target(labels, n_classes):
    return ad.const(losses.onehot(labels, n_classes))


def _ce(logits, labels) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    return _value(losses.ce_loss_expr(ad.const(logits), _target(labels, logits.shape[1])))


def _oe(logits) -> float:
    return _value(losses.oe_uniform_loss_expr(ad.const(np.asarray(logits, dtype=np.float64))))


def _divoe_terms(id_logits, labels, orig, ext, lam):
    """Values of (total, ce, oe_orig, oe_extrap); None stays None."""
    terms = losses.divoe_loss_terms(ad.const(id_logits), _target(labels, id_logits.shape[1]),
                                    None if orig is None else ad.const(orig),
                                    None if ext is None else ad.const(ext), lam)
    return tuple(None if t is None else _value(t) for t in terms)


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
    with pytest.raises(ConfigError):
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
    logits_node = ad.inp("z")
    expr = losses.oe_uniform_loss_expr(logits_node)
    grads = ad.gradient(expr, {"z": np.full((3, 5), 1.7)}, ["z"])
    np.testing.assert_allclose(grads["z"], 0.0, atol=1e-15)


def test_oe_total_reductions():
    rng = np.random.default_rng(0)
    id_logits = rng.normal(size=(6, 4))
    out_logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, 6)

    def total(lam):
        return _value(losses.oe_total_loss_expr(ad.const(id_logits), labels, 4,
                                                ad.const(out_logits), lam))

    assert total(0.0) == pytest.approx(_ce(id_logits, labels), rel=1e-15)
    assert total(1.0) == pytest.approx(_ce(id_logits, labels) + _oe(out_logits), rel=1e-12)


def _energy_bounded(id_logits, out_logits, m_in, m_out):
    return _value(losses.energy_bounded_loss_expr(ad.const(id_logits), ad.const(out_logits),
                                                  m_in, m_out, 1.0))


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


def test_energy_bounded_default_margins_importable():
    assert losses.DEFAULT_M_IN_10CLASS == -23.0
    assert losses.DEFAULT_M_OUT == -5.0


def test_divoe_reduces_to_oe_total_bitwise():
    rng = np.random.default_rng(2)
    id_logits = rng.normal(size=(4, 3))
    out_logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, 4)
    total, ce, oe_orig, oe_ext = _divoe_terms(id_logits, labels, out_logits, None, 0.5)
    assert oe_ext is None
    assert total == ce + 0.5 * oe_orig  # bitwise: the one-sided case adds nothing
    assert total == _value(losses.oe_total_loss_expr(ad.const(id_logits), labels, 3,
                                                     ad.const(out_logits), 0.5))


def test_divoe_full_extrapolation_uses_extrap_only():
    rng = np.random.default_rng(3)
    id_logits = rng.normal(size=(4, 3))
    ext_logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, 4)
    total, ce, oe_orig, oe_ext = _divoe_terms(id_logits, labels, None, ext_logits, 0.5)
    assert oe_orig is None
    assert total == ce + 0.5 * oe_ext
    assert total == _divoe_terms(id_logits, labels, ext_logits, None, 0.5)[0]


def test_divoe_hand_composed_two_sides():
    rng = np.random.default_rng(4)
    id_logits = rng.normal(size=(2, 3))
    orig = rng.normal(size=(1, 3))
    ext = rng.normal(size=(1, 3))
    labels = rng.integers(0, 3, 2)
    total, ce, oe_orig, oe_ext = _divoe_terms(id_logits, labels, orig, ext, 0.5)
    assert (ce, oe_orig, oe_ext) == (_ce(id_logits, labels), _oe(orig), _oe(ext))
    expected = _ce(id_logits, labels) + 0.5 * (_oe(orig) + _oe(ext))
    assert total == pytest.approx(expected, rel=1e-12)


def test_divoe_both_sides_empty():
    with pytest.raises(ConfigError):
        _divoe_terms(np.zeros((1, 3)), [0], None, None, 0.5)


def test_losses_differentiable_finite_diff():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(3, 4)) * 2.0
    node = ad.inp("z")
    for expr in (losses.oe_uniform_loss_expr(node),
                 losses.ce_loss_expr(node, _target(rng.integers(0, 4, 3), 4))):
        assert ad.finite_diff_check(expr, {"z": z}, ["z"]) < 1e-6
