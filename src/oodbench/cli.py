"""Batch-oriented command-line front end.

Subcommands: gen-data, train, eval, extrapolate, theory-verify, gradcheck,
report. Every command is deterministic given (config, seed) and writes
only under the declared output directory. Exit codes: 0 success, 2 config
error, 3 data/IO error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import data as data_mod
from . import gradcheck as gradcheck_mod
from . import gmm_theory
from . import metrics as metrics_mod
from . import model as model_mod
from . import scoring
from . import trainer as trainer_mod
from .errors import ConfigError, DataError, OodbenchError
from .extrapolation import pgd_extrapolate


def _out_dir(cfg: config_mod.RunConfig) -> Path:
    out = Path(cfg.outputs.dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(cfg: config_mod.RunConfig) -> int:
    """Write id_train/id_test/aux_out/ood_<name> CSVs plus the transform record."""
    out = _out_dir(cfg)
    d = cfg.data
    seed = config_mod.component_seed(cfg.seed, "data")
    raw_train = data_mod.gen_id_mixture_raw(d.classes, d.per_class, d.radius, d.sigma, seed)
    raw_test = data_mod.gen_id_mixture_raw(d.classes, d.test_per_class, d.radius, d.sigma,
                                           seed + 1)
    transform = data_mod.fit_minmax(raw_train.x)
    id_train = data_mod.LabeledDataset(transform.apply(raw_train.x), raw_train.y)
    id_test = data_mod.LabeledDataset(transform.apply(raw_test.x), raw_test.y)
    aux = data_mod.gen_arc_outliers(d.aux.inner_radius, d.aux.outer_radius,
                                    d.aux.arc_fraction, d.aux.count, seed + 2, transform)
    data_mod.save_csv(id_train, out / "id_train.csv")
    data_mod.save_csv(id_test, out / "id_test.csv")
    data_mod.save_csv(aux, out / "aux_out.csv")
    (out / "transform.json").write_text(transform.to_json(), encoding="utf-8")
    for i, (name, spec) in enumerate(sorted(d.ood_sets.items())):
        ood = data_mod.gen_ring_ood(spec.inner_radius, spec.outer_radius, spec.count,
                                    seed + 3 + i, transform)
        data_mod.save_csv(ood, out / f"ood_{name}.csv")
    print(f"wrote benchmark data to {out}")
    return 0


def _load_sets(cfg: config_mod.RunConfig, *names: str) -> list:
    """Parse the named gen-data CSVs (``<name>.csv`` under the output
    directory); an ``id_*`` set must keep its label column."""
    paths = [Path(cfg.outputs.dir) / f"{name}.csv" for name in names]
    for p in paths:
        if not p.exists():
            raise DataError(f"missing data file {p}; run gen-data first")
    sets = [data_mod.load_csv(p) for p in paths]
    for name, ds in zip(names, sets):
        if name.startswith("id_") and not isinstance(ds, data_mod.LabeledDataset):
            raise DataError(f"{name}.csv lost its label column")
    return sets


def cmd_train(cfg: config_mod.RunConfig) -> int:
    """Fine-tune from a seeded init; writes checkpoint.json and history.csv."""
    out = _out_dir(cfg)
    names = ("id_train",) if cfg.train.loss.kind == "ce" else ("id_train", "aux_out")
    id_train, *aux = _load_sets(cfg, *names)  # plain cross-entropy reads no outliers
    dims = (id_train.x.shape[1], *cfg.model.hidden, cfg.data.classes)
    mlp = model_mod.init_model(dims, config_mod.component_seed(cfg.seed, "model"))
    trained, history = trainer_mod.fine_tune(mlp, id_train, aux[0].x if aux else None,
                                             cfg.train, cfg.extrapolation,
                                             config_mod.component_seed(cfg.seed, "train"))
    model_mod.save_checkpoint(trained, out / "checkpoint.json", seed=cfg.seed)
    history.to_csv(out / "history.csv")
    if history.records:
        last_epoch = history.records[-1].epoch
        finals = [r for r in history.records if r.epoch == last_epoch]
        mean_total = float(np.mean([r.total_loss for r in finals]))
        mean_ce = float(np.mean([r.ce_loss for r in finals]))
        print(f"final epoch {last_epoch}: mean total loss {mean_total:.6f}, "
              f"mean ce loss {mean_ce:.6f}")
    else:
        print("no training steps executed (epochs=0)")
    print(f"checkpoint written to {out / 'checkpoint.json'}")
    return 0


def cmd_eval(cfg: config_mod.RunConfig, checkpoint: str | None) -> int:
    """Evaluate a checkpoint: report.json, report.csv and per-sample scores.csv.

    Each set goes through the model once: its last hidden layer
    (``model.penultimate_features``) feeds every score kind, and the
    id_test logits made from it give the ID accuracy. ODIN adds one forward
    pass over its perturbed inputs. Each (score, set) array is computed once
    and feeds both the reports and scores.csv; nothing is written unless
    every report could be assembled.
    """
    out = _out_dir(cfg)
    ckpt_path = Path(checkpoint) if checkpoint else out / "checkpoint.json"
    mlp = model_mod.load_checkpoint(ckpt_path)
    names = sorted(cfg.data.ood_sets)
    id_test, *oods = _load_sets(cfg, "id_test", *(f"ood_{name}" for name in names))
    sets = {"id_test": id_test.x, **{f"ood_{name}": ds.x for name, ds in zip(names, oods)}}
    if any(x.shape[0] == 0 for x in sets.values()):
        raise DataError("all evaluation sets must be non-empty")
    scores = [{} for _ in cfg.scores]  # per spec: set name -> scores
    for set_name, x in sets.items():
        features = model_mod.penultimate_features(mlp, x)
        if set_name == "id_test":
            id_acc = metrics_mod.id_accuracy(model_mod.head(mlp, features), id_test.y)
        for spec, by_set in zip(cfg.scores, scores):
            by_set[set_name] = scoring.compute_scores(mlp, x, spec, features=features)
    method = cfg.method_label()
    digest = cfg.digest()
    reports = []
    score_blocks = []
    for spec, by_set in zip(cfg.scores, scores):
        reports.append(metrics_mod.assemble_report(
            by_set["id_test"], {name: by_set[f"ood_{name}"] for name in names}, method=method,
            score_kind=spec.kind, id_acc=id_acc, seed=cfg.seed, config_digest=digest))
        score_blocks.extend((set_name, spec.kind, s) for set_name, s in by_set.items())
    (out / "report.json").write_text(
        json.dumps([r.to_dict() for r in reports], indent=2), encoding="utf-8")
    _write_report_csv(out / "report.csv", reports)
    scoring.write_score_csv(out / "scores.csv", score_blocks)
    for report in reports:
        avg = report.average
        print(f"[{report.score_kind}] average FPR95 {avg.fpr95:.4f}  AUROC {avg.auroc:.4f}  "
              f"AUPR {avg.aupr:.4f}  ID-ACC {report.id_accuracy:.4f}")
    return 0


def cmd_extrapolate(cfg: config_mod.RunConfig, checkpoint: str | None, input_csv: str,
                    dump_csv: str, samples_csv: str | None, epsilons: list[float] | None) -> int:
    """Synthesize from the inputs over an epsilon grid and dump per-sample records."""
    out = _out_dir(cfg)
    ckpt_path = Path(checkpoint) if checkpoint else out / "checkpoint.json"
    mlp = model_mod.load_checkpoint(ckpt_path)
    x = data_mod.load_csv(input_csv).x
    grid = epsilons if epsilons else [cfg.extrapolation.epsilon]
    score_spec = cfg.scores[0]
    # The whole grid ascends as one batch: a copy of the inputs per radius, in grid order.
    n = x.shape[0]
    batch = pgd_extrapolate(mlp, np.tile(x, (len(grid), 1)), cfg.extrapolation,
                            epsilon=np.repeat(grid, n))
    score_before = scoring.compute_scores(mlp, x, score_spec)
    score_after = scoring.compute_scores(mlp, batch.synthesized, score_spec)
    dump_path = Path(dump_csv)
    samples_path = Path(samples_csv) if samples_csv else dump_path.with_name("synthesized.csv")
    for path in (dump_path, samples_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    with dump_path.open("w", encoding="utf-8", newline="\n") as dump_fh, \
            samples_path.open("w", encoding="utf-8", newline="\n") as samples_fh:
        dump_writer = csv.writer(dump_fh, lineterminator="\n")
        dump_writer.writerow(["index", "epsilon", "loss_before", "loss_after",
                              "score_before", "score_after"])
        sample_writer = csv.writer(samples_fh, lineterminator="\n")
        sample_writer.writerow(["index", "epsilon"] + [f"x{i}" for i in range(x.shape[1])])
        for k, eps in enumerate(grid):
            rows = slice(k * n, (k + 1) * n)
            for i, j in enumerate(range(k * n, (k + 1) * n)):
                dump_writer.writerow([
                    i, repr(float(eps)), repr(float(batch.initial_values[j])),
                    repr(float(batch.final_values[j])), repr(float(score_before[i])),
                    repr(float(score_after[j]))])
                sample_writer.writerow([i, repr(float(eps))] +
                                       [format(v, ".17g") for v in batch.synthesized[j]])
            print(f"epsilon {eps}: mean uniform loss {batch.initial_values[rows].mean():.6f} -> "
                  f"{batch.final_values[rows].mean():.6f}, mean {score_spec.kind} "
                  f"{score_before.mean():.6f} -> {score_after[rows].mean():.6f}")
    return 0


def cmd_theory_verify(cfg: config_mod.RunConfig, out_csv: str | None) -> int:
    """Monte Carlo bound check; writes per-trial rows and prints the violation fraction."""
    out = _out_dir(cfg)
    t = cfg.theory
    mu = np.full(t.dim, t.mu_norm / np.sqrt(t.dim))
    spec = gmm_theory.GmmSpec(mu=mu, sigma=t.sigma)
    params = gmm_theory.TheoryParams(n1=t.n1, n2=t.n2, alpha=t.alpha, tau=t.tau,
                                     trials=t.trials)
    rng = np.random.Generator(np.random.PCG64(config_mod.component_seed(cfg.seed, "theory")))
    check = gmm_theory.verify_bound(spec, params, rng)
    path = Path(out_csv) if out_csv else out / "theory.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "ratio", "rhs", "satisfied"])
        for trial in check.trials:
            writer.writerow([trial.trial, repr(trial.ratio), repr(trial.rhs),
                             int(trial.satisfied)])
        writer.writerow(["violation_fraction", repr(check.violation_fraction), "", ""])
    print(f"violation fraction: {check.violation_fraction:.2f} over {t.trials} trials")
    return 0


def cmd_gradcheck(cases: int, seed: int) -> int:
    if cases < 1:
        raise ConfigError(f"--cases must be >= 1, got {cases}")
    result = gradcheck_mod.run_suite(cases=cases, seed=seed)
    status = "PASS" if result.passed else "FAIL"
    print(f"gradcheck {status}: max relative error {result.max_relative_error:.3e} "
          f"(tolerance {gradcheck_mod.DEFAULT_TOLERANCE:.0e}, {result.cases} cases)")
    return 0 if result.passed else 4


def _write_report_csv(path: Path, reports: list[metrics_mod.DetectionReport]) -> int:
    """One row per (report, OOD set), average row included; returns the row count."""
    rows = [[report.method, report.score_kind, row.set_name, repr(row.fpr95),
             repr(row.auroc), repr(row.aupr), repr(report.id_accuracy)]
            for report in reports for row in report.results + [report.average]]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "score", "ood_set", "fpr95", "auroc", "aupr", "id_acc"])
        writer.writerows(rows)
    return len(rows)


def cmd_report(report_paths: list[str], out_csv: str) -> int:
    """Merge the report lists that ``eval`` writes as report.json into one CSV table."""
    reports = []
    for rp in report_paths:
        path = Path(rp)
        if not path.exists():
            raise DataError(f"report not found: {path}")
        try:
            docs = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(docs, list):
                raise TypeError("expected a list of reports")
            reports.extend(metrics_mod.DetectionReport.from_dict(doc) for doc in docs)
        except (ValueError, LookupError, TypeError, DataError) as exc:
            raise DataError(f"{path} is not a report list: {exc!r}") from None
    out_path = Path(out_csv)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    n_rows = _write_report_csv(out_path, reports)
    print(f"combined {n_rows} rows into {out_path}")
    return 0


def _epsilon_grid(text: str) -> list[float]:
    """Parse ``--epsilons``: comma-separated radii, at least one, each finite and >= 0."""
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--epsilons: {exc}") from None
    if not grid:
        raise ConfigError(f"--epsilons names no radius, got {text!r}")
    if not all(math.isfinite(e) and e >= 0 for e in grid):
        raise ConfigError(f"--epsilons must be finite and >= 0, got {text!r}")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oodbench",
                                     description="Desk-scale OOD detection workbench")
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the top-level seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry by dotted path")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data", help="generate the benchmark CSV files")
    sub.add_parser("train", help="fine-tune a model on the generated benchmark")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint into reports")
    p_eval.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.json)")

    p_ex = sub.add_parser("extrapolate", help="dump synthesized outliers for an input CSV")
    p_ex.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.json)")
    p_ex.add_argument("--input", required=True, help="input samples CSV")
    p_ex.add_argument("--dump", required=True, help="per-sample record CSV to write")
    p_ex.add_argument("--samples", help="synthesized samples CSV (default: synthesized.csv)")
    p_ex.add_argument("--epsilons", help="comma-separated epsilon grid")

    p_th = sub.add_parser("theory-verify", help="Monte Carlo check of the alignment bound")
    p_th.add_argument("--out-csv", help="per-trial CSV path (default: <out>/theory.csv)")

    p_gc = sub.add_parser("gradcheck", help="finite-difference self-test")
    p_gc.add_argument("--cases", type=int, default=100)
    p_gc.add_argument("--gc-seed", type=int, default=7)

    p_rep = sub.add_parser("report", help="merge report.json files into one CSV")
    p_rep.add_argument("reports", nargs="+", help="report.json paths")
    p_rep.add_argument("--out-csv", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(args.cases, args.gc_seed)
        if args.command == "report":
            return cmd_report(args.reports, args.out_csv)
        cfg = config_mod.load_config(args.config, args.set or (), seed=args.seed, out=args.out)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        if args.command == "extrapolate":
            eps = None if args.epsilons is None else _epsilon_grid(args.epsilons)
            return cmd_extrapolate(cfg, args.checkpoint, args.input, args.dump,
                                   args.samples, eps)
        if args.command == "theory-verify":
            return cmd_theory_verify(cfg, args.out_csv)
        raise ConfigError(f"unknown command {args.command!r}")
    except OodbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
