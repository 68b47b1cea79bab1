"""The benchmark's layer microbenchmarks (perfbench/micro.py) call package
names directly; a smoke run in process pins every one of them."""

import importlib.util
import json
import math
from pathlib import Path

MICRO = Path(__file__).resolve().parents[1] / "perfbench" / "micro.py"


def test_micro_smoke_run_prints_finite_timings(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("perfbench_micro", MICRO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--seed", "3", "--work", str(tmp_path), "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    metrics = json.loads(lines[0])
    assert metrics and all(name.startswith("micro.") for name in metrics)
    assert all(isinstance(v, float) and math.isfinite(v) and v >= 0 for v in metrics.values())
