"""The finite-difference self-test behind ``gradcheck``."""

import numpy as np

from oodbench import autodiff as ad
from oodbench import cli, gradcheck


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
