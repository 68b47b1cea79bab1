"""The finite-difference self-test behind ``gradcheck``."""

import numpy as np
import pytest

from oodbench import autodiff as ad
from oodbench import cli, gradcheck, trainer


def test_run_suite_passes():
    result = gradcheck.run_suite(cases=5, seed=3)
    assert result.cases == 5 and result.passed
    assert result.max_relative_error < gradcheck.DEFAULT_TOLERANCE


def test_corrupted_backward_pass_fails(monkeypatch, capsys):
    # Skew every gradient the backward pass accumulates into an input slot;
    # the plan of the graph being differentiated says which slots those are.
    real_compile, real_accumulate = ad._compile, ad._accumulate
    input_slots: set[int] = set()

    def compile_noting_inputs(expr):
        plan = real_compile(expr)
        input_slots.clear()
        input_slots.update(plan.inputs.values())
        return plan

    def skewed(grads, slot, grad):
        real_accumulate(grads, slot, grad * (1.0 + 1e-3) if slot in input_slots else grad)

    monkeypatch.setattr(ad, "_compile", compile_noting_inputs)
    monkeypatch.setattr(ad, "_accumulate", skewed)
    result = gradcheck.run_suite(cases=5, seed=3)
    assert not result.passed
    assert np.isclose(result.max_relative_error, 1e-3, rtol=0.1)
    assert cli.main(["gradcheck", "--cases", "5", "--gc-seed", "3"]) == 4
    assert "gradcheck FAIL" in capsys.readouterr().out


def test_every_loss_kind_is_a_case():
    assert set(gradcheck.CASES) >= set(trainer.LOSS_KINDS)


@pytest.mark.parametrize("kind", gradcheck.CASES)
def test_each_case_kind_passes(kind):
    graph, bindings, wrt = gradcheck._case(kind, np.random.Generator(np.random.PCG64(11)))
    err = ad.finite_diff_check(graph, bindings, wrt, h=gradcheck.DEFAULT_STEP)
    assert err < gradcheck.DEFAULT_TOLERANCE


def test_third_contribution_to_an_input_is_checked(monkeypatch):
    # Only a parameter that feeds three logits graphs (divoe's x, x_out and
    # x_ext) receives a third contribution; skewing just that one must show.
    real_backward, real_accumulate = ad._backward_all, ad._accumulate
    seen: dict[int, int] = {}
    input_slots: set[int] = set()

    def backward_counting(plan, vals, needed):
        seen.clear()
        input_slots.clear()
        input_slots.update(plan.inputs.values())
        return real_backward(plan, vals, needed)

    def skewed(grads, slot, grad):
        seen[slot] = seen.get(slot, 0) + 1
        third = slot in input_slots and seen[slot] == 3
        real_accumulate(grads, slot, grad * (1.0 + 1e-3) if third else grad)

    monkeypatch.setattr(ad, "_backward_all", backward_counting)
    monkeypatch.setattr(ad, "_accumulate", skewed)
    result = gradcheck.run_suite(cases=20, seed=3)
    assert not result.passed
    assert result.max_relative_error > 1e-4
