"""Layer microbenchmarks on fixed inputs generated from the workload seed.

    python perfbench/micro.py --seed N --work DIR [--smoke]

Prints one JSON object of `micro.*` metrics in milliseconds. Each entry is the
median of repeated calls after one warm-up call, so caches and lazily built
graphs are filled before timing, as they are in every call after the first
within a command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from oodbench import autodiff as ad
from oodbench import data, gmm_theory, gradcheck, losses, metrics, model, scoring
from oodbench.extrapolation import ExtrapolationConfig, pgd_extrapolate

DIMS = (2, 64, 64, 4)


def timed_ms(fn, min_reps: int, min_seconds: float) -> float:
    fn()
    times: list[float] = []
    while len(times) < min_reps or (sum(times) < min_seconds and len(times) < 200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def oe_graph(labels):
    nodes = model.make_param_nodes(DIMS)
    id_logits = model.logits_graph(DIMS, "x", nodes)
    out_logits = model.logits_graph(DIMS, "x_out", nodes)
    return losses.oe_total_loss_expr(id_logits, labels, DIMS[-1], out_logits, 0.5)


def run(seed: int, work: Path, smoke: bool) -> dict[str, float]:
    rng = np.random.Generator(np.random.PCG64(seed))
    mlp = model.init_model(DIMS, seed)
    n = 500 if smoke else 10_000
    batch = 32 if smoke else 128
    reps, min_s = (1, 0.0) if smoke else (5, 0.25)

    labels = rng.integers(0, DIMS[-1], size=batch)
    graph = oe_graph(labels)
    bindings = dict(model.param_bindings(mlp), x=rng.uniform(size=(batch, 2)),
                    x_out=rng.uniform(size=(batch, 2)))
    names = model.param_names(mlp)
    rows64 = rng.uniform(size=(8 if smoke else 64, 2))
    x = rng.uniform(size=(n, 2))
    id_scores = rng.normal(1.0, 1.0, size=n)
    ood_scores = rng.normal(0.0, 1.0, size=n)
    logits = rng.normal(size=(n, DIMS[-1]))
    y = rng.integers(0, DIMS[-1], size=n)
    csv_path = work / "micro.csv"
    table = data.LabeledDataset(x, y)
    spec = gmm_theory.GmmSpec(mu=np.full(8, 4.0 / np.sqrt(8)), sigma=1.0)
    params = gmm_theory.TheoryParams(n1=50, n2=50, alpha=10.0, tau=0.0,
                                     trials=2 if smoke else 10)

    cases = {
        "micro.losses.graph_build_ms": lambda: oe_graph(labels),
        "micro.autodiff.value_and_grad_ms": lambda: ad.value_and_grad(graph, bindings, names),
        "micro.extrapolation.pgd_64_ms":
            lambda: pgd_extrapolate(mlp, rows64, ExtrapolationConfig()),
        "micro.scoring.msp_ms": lambda: scoring.compute_scores(mlp, x, scoring.ScoreSpec("msp")),
        "micro.scoring.energy_ms":
            lambda: scoring.compute_scores(mlp, x, scoring.ScoreSpec("energy")),
        "micro.scoring.odin_ms":
            lambda: scoring.compute_scores(mlp, x, scoring.ScoreSpec.odin_default()),
        "micro.scoring.ash_energy_ms":
            lambda: scoring.compute_scores(mlp, x, scoring.ScoreSpec("ash_energy")),
        "micro.metrics.fpr95_ms": lambda: metrics.fpr_at_tpr(id_scores, ood_scores),
        "micro.metrics.auroc_ms": lambda: metrics.auroc(id_scores, ood_scores),
        "micro.metrics.aupr_ms": lambda: metrics.aupr(id_scores, ood_scores),
        "micro.metrics.id_accuracy_ms": lambda: metrics.id_accuracy(logits, y),
        "micro.data.save_csv_ms": lambda: data.save_csv(table, csv_path),
        "micro.data.load_csv_ms": lambda: data.load_csv(csv_path),
        "micro.gmm_theory.verify_ms":
            lambda: gmm_theory.verify_bound(spec, params, np.random.Generator(np.random.PCG64(seed))),
        "micro.gradcheck.run_ms": lambda: gradcheck.run_suite(cases=2 if smoke else 10, seed=seed),
    }
    return {name: timed_ms(fn, reps, min_s) for name, fn in cases.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    print(json.dumps(run(args.seed, args.work, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
