"""The finite-difference self-test behind ``gradcheck``."""

import numpy as np

from oodbench import autodiff as ad
from oodbench import cli, gradcheck


def test_run_suite_passes():
    result = gradcheck.run_suite(cases=5, seed=3)
    assert result.cases == 5 and result.passed
    assert result.max_relative_error < gradcheck.DEFAULT_TOLERANCE


def test_corrupted_backward_pass_fails(monkeypatch, capsys):
    real = ad._accumulate

    def skewed(accum, node, grad):
        real(accum, node, grad * (1.0 + 1e-3) if node.op == "input" else grad)

    monkeypatch.setattr(ad, "_accumulate", skewed)
    result = gradcheck.run_suite(cases=5, seed=3)
    assert not result.passed
    assert np.isclose(result.max_relative_error, 1e-3, rtol=0.1)
    assert cli.main(["gradcheck", "--cases", "5", "--gc-seed", "3"]) == 4
    assert "gradcheck FAIL" in capsys.readouterr().out
