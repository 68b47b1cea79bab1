"""The finite-difference self-test behind ``gradcheck``."""

import numpy as np
import oracles
import pytest

from oodbench import autodiff as ad
from oodbench import cli, gradcheck, losses, model, scoring


def test_run_suite_passes():
    result = gradcheck.run_suite(cases=5, seed=3)
    assert result.cases == 5 and result.passed
    assert result.max_relative_error < gradcheck.DEFAULT_TOLERANCE


def test_full_size_suite_passes(capsys):
    # The gradient self-test at full size. The difference quotients run
    # outside the evaluator's errstate, so a numpy warning there fails it
    # (pyproject's error::RuntimeWarning filter).
    assert cli.main(["gradcheck", "--cases", "100", "--gc-seed", "7"]) == 0
    assert "gradcheck PASS" in capsys.readouterr().out


def test_corrupted_backward_pass_fails(monkeypatch, capsys):
    # Skew every gradient the backward pass accumulates into an input (θ or
    # a batch).
    real_accumulate = ad._accumulate

    def skewed(grads, name, grad):
        real_accumulate(grads, name, grad * (1.0 + 1e-3))

    monkeypatch.setattr(ad, "_accumulate", skewed)
    result = gradcheck.run_suite(cases=5, seed=3)
    assert not result.passed
    assert np.isclose(result.max_relative_error, 1e-3, rtol=0.1)
    assert cli.main(["gradcheck", "--cases", "5", "--gc-seed", "3"]) == 4
    assert "gradcheck FAIL" in capsys.readouterr().out


def test_every_loss_kind_is_a_case():
    assert set(gradcheck.CASES) >= set(losses.LOSS_KINDS)


@pytest.mark.parametrize("kind", gradcheck.CASES)
def test_each_case_kind_passes(kind):
    objective, bindings, grads = gradcheck._case(kind, np.random.Generator(np.random.PCG64(11)))
    err = gradcheck.finite_diff_check(objective, bindings, grads, h=gradcheck.DEFAULT_STEP)
    assert err < gradcheck.DEFAULT_TOLERANCE


@pytest.mark.parametrize("kind", gradcheck.CASES)
def test_stacked_check_is_the_per_coordinate_loop_bitwise(kind):
    for seed in (1, 7, 42):
        case = gradcheck._case(kind, np.random.Generator(np.random.PCG64(seed)))
        assert gradcheck.finite_diff_check(*case, h=gradcheck.DEFAULT_STEP) == \
            oracles.finite_diff_check_loop(*case, h=gradcheck.DEFAULT_STEP)


def test_second_contribution_to_a_parameter_is_checked(monkeypatch):
    # θ receives one contribution per batch whose logits it feeds; in every
    # kind but ce that is x and x_out, and skewing just the second (x's, which
    # the backward runs last) must show.
    real_backward, real_accumulate = ad._backward, ad._accumulate
    seen: dict[str, int] = {}

    def backward_counting(objective, fwd, wrt):
        seen.clear()
        return real_backward(objective, fwd, wrt)

    def skewed(grads, name, grad):
        seen[name] = seen.get(name, 0) + 1
        real_accumulate(grads, name, grad * (1.0 + 1e-3) if seen[name] == 2 else grad)

    monkeypatch.setattr(ad, "_backward", backward_counting)
    monkeypatch.setattr(ad, "_accumulate", skewed)
    result = gradcheck.run_suite(cases=20, seed=3)
    assert not result.passed
    assert result.max_relative_error > 1e-4


def _skew_first_layer_dw(real, grad, params, acts, needs):
    gx, gtheta = real(grad, params, acts, needs)
    if gtheta is not None:  # W0 leads θ
        n = params.weights[0].size
        gtheta = np.concatenate([gtheta[:n] * (1.0 + 1e-3), gtheta[n:]])
    return gx, gtheta


class _PassEveryUnit(np.ndarray):
    """Activations whose ReLU mask ``h > 0`` is true for every unit, dead ones
    included; their values, and so dW = h.T @ g, are unchanged."""

    def __gt__(self, other):
        return np.ones(self.shape, dtype=bool)


def _skew_relu_mask(real, grad, params, acts, needs):
    return real(grad, params, [h.view(_PassEveryUnit) for h in acts], needs)


def _skew_row_dz(real, payload, z):
    values, rowgrad = real(payload, z)
    return values, rowgrad * (1.0 + 1e-3)


@pytest.mark.parametrize("owner, name, mutation", [
    (model, "mlp_backward", _skew_first_layer_dw),
    (model, "mlp_backward", _skew_relu_mask),
    (losses, "ce_rows", _skew_row_dz),
    (losses, "oe_rows", _skew_row_dz),
    (scoring, "odin_rows", _skew_row_dz),
], ids=["mlp_dW0", "relu_mask", "ce_dz", "oe_dz", "odin_dz"])
def test_skewed_kernel_backward_fails(monkeypatch, owner, name, mutation):
    # A pass looks the MLP backward up when it runs it, and gradcheck builds
    # each case's objective, which holds its per-row losses, after the patch.
    # Only the odin case reads odin_rows, so odin_dz fails through the input
    # gradient alone.
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: mutation(real, *args))
    result = gradcheck.run_suite(cases=20, seed=3)
    assert not result.passed
    assert result.max_relative_error > 1e-4
