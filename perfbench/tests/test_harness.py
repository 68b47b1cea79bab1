"""Tests of the benchmark harness. Run from the repository root:

    python -m pytest perfbench/tests -q

The smoke runs execute every workload at its tiny size, traced and untraced,
and check the result line against BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trainer.steps"] >= 1 and m["autodiff.passes"] >= 1
        if workload == "oe_finetune":
            assert m["extrapolation.calls"] == 0
        else:
            assert m["extrapolation.calls"] > 0 and m["extrapolation.passes_per_row"] > 0


def test_all_runs_every_workload():
    proc = _bench(ROOT, "all", 0, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert set(result["metrics"]) == {f"{w}.{n}" for w in workloads.NAMES for n in names}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "divoe_finetune", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibrated_runner_pauses_child_and_scales_its_time(tmp_path):
    cpus = os.sched_getaffinity(0)
    busy = "import time\nend = time.time() + 0.5\nwhile time.time() < end:\n    pass"
    try:
        runner = run.Runner(tmp_path, calibrate=True)
        t0 = time.perf_counter()
        r = runner.spawn([sys.executable, "-c", busy], "busy")
        elapsed = time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, cpus)
    assert r["rc"] == 0 and r["windows"] >= 3
    assert r["wall"] < elapsed  # the pauses are not the child's time
    assert r["norm"] == pytest.approx(r["wall"] * reference.NOMINAL_S / r["ref_s"])
    assert r["ref_s"] == pytest.approx(sum(r["ref_parts"].values()))


def test_self_time_and_cover():
    # train command: fine_tune [0,10] > extrapolation [1,5] > autodiff [2,3]; sgd [6,7], [8,9]
    spans = [[0, -1, "trainer.fine_tune", 0.0, 10.0, None],
             [1, 0, "extrapolation", 1.0, 5.0, {"rows": 4, "improved": 3, "aborted": 0}],
             [2, 1, "autodiff.pass", 2.0, 3.0, {"rows": 1}],
             [3, 0, "trainer.sgd_step", 6.0, 7.0, None],
             [4, 0, "trainer.sgd_step", 8.0, 9.0, None]]
    m = layers.layer_metrics([{"command": "train", "wall": 20.0, "spans": spans},
                              {"command": "eval", "wall": 4.0, "spans": [
                                  [0, -1, "scoring", 0.0, 2.0, {"kind": "msp", "rows": 5, "key": "a"}],
                                  [1, 0, "model.forward", 0.5, 1.5, {"rows": 5}],
                                  [2, -1, "scoring", 2.0, 3.0, {"kind": "msp", "rows": 5, "key": "a"}]]}])
    assert m["trainer.fine_tune_s"] == 10.0 - 4.0 - 1.0 - 1.0
    assert m["autodiff.pass_s"] == 1.0 and m["trainer.sgd_step_s"] == 2.0
    assert m["fine_tune.extrapolation_share"] == 4.0 / 10.0
    assert m["fine_tune.autodiff_share"] == 1.0 / 10.0
    assert m["extrapolation.passes_per_row"] == 0.25
    assert m["extrapolation.improved_frac"] == 0.75
    assert m["trainer.steps"] == 2 and m["trainer.step_ms_p50"] == 2000.0
    assert m["scoring.msp_s"] == 2.0 and m["model.forward_s"] == 1.0
    assert m["eval.scoring_share"] == 3.0 / 4.0 and m["scoring.rows_per_unique_row"] == 2.0


def test_import_times_sum_self_time_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:       300 |        300 |     scipy.linalg",
        "import time:        20 |        470 | oodbench",
    ])
    m = run.import_times(text)
    assert m["import.numpy_s"] == 150e-6 and m["import.scipy_s"] == 300e-6
    assert m["import.oodbench_s"] == 20e-6 and m["import.total_s"] == 470e-6
