"""Batch-oriented command-line front end.

Subcommands: gen-data, train, eval, extrapolate, theory-verify, gradcheck,
report. Every command is deterministic given (config, seed). What each writes,
with ``<out>`` the config's ``outputs.dir``:

- gen-data: ``<out>/`` id_train.csv, id_test.csv, aux_out.csv and one
  ood_<name>.csv per OOD set
- train: ``<out>/`` checkpoint.json and history.csv
- eval: ``<out>/`` report.json, report.csv and scores.csv
- extrapolate: the ``--dump`` CSV and the ``--samples`` CSV (default:
  synthesized.csv beside the dump), nothing under ``<out>``; neither may name
  the other or the ``--input`` CSV
- theory-verify: the ``--out-csv`` CSV (default: ``<out>/theory.csv``)
- report: the ``--out-csv`` CSV
- gradcheck: nothing; it prints its result

A command creates the directory of a file just before its first write, so one
refused on its config or its inputs leaves no directory behind.

Exit codes: 0 success, 2 a ConfigError (config or argument), 3 a DataError or
OSError (input file), 4 a NumericError or a gradcheck FAIL. Each input is
checked once, where it is read: a dataset CSV by ``_read_csv`` (one that cannot
be decoded, UTF-8 or CSV, is a DataError too), a checkpoint by
``model.load_checkpoint``, the config by its dataclasses. The config, checkpoint
and report files are read by ``data.read_json``: one that is missing or
unreadable, or that the JSON parser refuses (nested too deep, an integer too
long), is its reader's typed error. Each is then typed by ``data.parse`` against
its dataclasses, so an unknown key is refused in a report or a checkpoint
(exit 3) as in the config (exit 2). Any other exception is a programming error
and escapes.

Every command is a cold process, so its imports count in its wall time. At
load this module imports only config and the modules it loads (data, errors,
numerics). The model stack (model, autodiff, losses, extrapolation), trainer,
scoring, metrics, gmm_theory and gradcheck are imported inside the commands
that run them, so gen-data, theory-verify and report load no model code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import data as data_mod
from .errors import ConfigError, DataError, NumericError, OodbenchError
from .numerics import derive_seed, rng


def _out_dir(cfg: config_mod.RunConfig) -> Path:
    out = Path(cfg.outputs.dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(cfg: config_mod.RunConfig) -> int:
    """Write the id_train/id_test/aux_out/ood_<name> CSVs.

    Each set draws from its own stream, derived from the data seed and its file
    stem, and is mapped onto DOMAIN through the fixed box of ``data.fit_minmax``,
    so adding a set changes no other set's bytes.
    """
    d = cfg.data
    data_seed = config_mod.component_seed(cfg.seed, "data")

    def seed(stem: str) -> int:
        return derive_seed(data_seed, *stem.encode())

    sets = {"id_train": data_mod.gen_id_mixture_raw(d.classes, d.per_class, seed("id_train")),
            "id_test": data_mod.gen_id_mixture_raw(d.classes, d.test_per_class, seed("id_test")),
            "aux_out": data_mod.gen_arc_outliers(d.aux.inner_radius, d.aux.outer_radius,
                                                 d.aux.arc_fraction, d.aux.count, seed("aux_out"))}
    for name, spec in d.ood_sets.items():
        sets[f"ood_{name}"] = data_mod.gen_ring_ood(spec.inner_radius, spec.outer_radius,
                                                    spec.count, seed(f"ood_{name}"))
    out = _out_dir(cfg)
    for name, ds in sets.items():
        data_mod.save_csv(dataclasses.replace(ds, x=data_mod.fit_minmax(ds.x)), out / f"{name}.csv")
    print(f"wrote benchmark data to {out}")
    return 0


def _read_csv(path: Path, width: int | None, classes: int | None):
    """A dataset CSV with rows, ``width`` feature columns (any non-zero count
    when None), values inside data.DOMAIN and, when ``classes`` is given,
    labels in [0, classes); any other is a DataError naming the file."""
    ds = data_mod.load_csv(path)
    x = ds.x
    expected = width if width is not None else max(x.shape[1], 1)
    if x.shape[0] == 0:
        raise DataError(f"{path} has no rows")
    if x.shape[1] != expected:
        raise DataError(f"{path} has {x.shape[1]} feature columns, expected {expected}")
    lo, hi = data_mod.DOMAIN
    if x.min() < lo or x.max() > hi:
        outside = float(x[(x < lo) | (x > hi)][0])
        raise DataError(f"{path} holds {outside!r}, outside the domain [{lo}, {hi}]")
    if classes is not None:
        if not isinstance(ds, data_mod.LabeledDataset):
            raise DataError(f"{path} lost its label column")
        bad = ds.y[(ds.y < 0) | (ds.y >= classes)]
        if bad.size:
            raise DataError(f"{path} holds label {bad[0]}, outside [0, {classes})")
    return ds


def _load_sets(cfg: config_mod.RunConfig, names: tuple[str, ...], width: int | None,
               classes: int) -> list:
    """The named gen-data CSVs under the output directory, read by ``_read_csv``
    with ``width`` columns (the first set's when None); ``id_*`` sets are labeled."""
    sets = []
    for name in names:
        path = Path(cfg.outputs.dir) / f"{name}.csv"
        if not path.exists():
            raise DataError(f"missing data file {path}; run gen-data first")
        sets.append(_read_csv(path, width, classes if name.startswith("id_") else None))
        width = sets[0].x.shape[1]
    return sets


def _load_model(cfg: config_mod.RunConfig, checkpoint: str | None, kinds: list[str]):
    """The checkpoint's ``model.MlpClassifier`` (default ``<out>/checkpoint.json``),
    refused without a hidden layer when ``kinds``, the score kinds to compute, need one."""
    from . import model as model_mod

    path = Path(checkpoint) if checkpoint else Path(cfg.outputs.dir) / "checkpoint.json"
    mlp = model_mod.load_checkpoint(path)
    if "ash_energy" in kinds and len(mlp.dims) < 3:
        raise DataError(f"checkpoint {path} has no hidden layer for ash_energy to shape")
    return mlp


def cmd_train(cfg: config_mod.RunConfig) -> int:
    """Fine-tune from a seeded init; writes checkpoint.json and history.csv."""
    from . import model as model_mod
    from . import trainer as trainer_mod

    binds_aux = config_mod.LOSS_KINDS[cfg.train.loss.kind].binds_aux
    names = ("id_train", "aux_out") if binds_aux else ("id_train",)
    id_train, *aux = _load_sets(cfg, names, None, cfg.data.classes)
    dims = (id_train.x.shape[1], *cfg.model.hidden, cfg.data.classes)
    mlp = model_mod.init_model(dims, config_mod.component_seed(cfg.seed, "model"))
    trained, history = trainer_mod.fine_tune(mlp, id_train, aux[0].x if aux else None,
                                             cfg.train, cfg.extrapolation,
                                             config_mod.component_seed(cfg.seed, "train"))
    out = _out_dir(cfg)
    model_mod.save_checkpoint(trained, out / "checkpoint.json", seed=cfg.seed)
    history.to_csv(out / "history.csv")
    if history.records:
        last_epoch = history.records[-1].epoch
        finals = [r for r in history.records if r.epoch == last_epoch]
        mean_total = float(np.mean([r.total_loss for r in finals]))
        mean_ce = float(np.mean([r.ce_loss for r in finals]))
        print(f"final epoch {last_epoch}: mean total loss {mean_total:.6g}, "
              f"mean ce loss {mean_ce:.6g}")
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

    Memory order: sets are scored one at a time. ash_energy shapes a set's
    features in place, so it scores after every other kind that reads them;
    results are still stored, and written, in config order. The features
    are dropped once those kinds are done, before ODIN runs (it reads only
    the predicted class, the argmax of the logits) and before the next
    set's forward. So eval holds either one set's features (ASH adds one
    block's temporaries, no copy) or ODIN's perturbed forward, never both.
    The config digest, the one use of hashlib and so of OpenSSL's library,
    is taken after scoring, when the features are gone.
    """
    from . import metrics as metrics_mod
    from . import model as model_mod
    from . import scoring

    mlp = _load_model(cfg, checkpoint, [spec.kind for spec in cfg.scores])
    names = sorted(cfg.data.ood_sets)
    id_test, *oods = _load_sets(cfg, ("id_test", *(f"ood_{name}" for name in names)),
                                mlp.n_features, mlp.n_classes)
    sets = {"id_test": id_test.x, **{f"ood_{name}": ds.x for name, ds in zip(names, oods)}}
    scores = [{} for _ in cfg.scores]  # per spec: set name -> scores
    # Logits that overflow give non-finite scores, which the metrics refuse (exit 4).
    with np.errstate(over="ignore", invalid="ignore"):
        for set_name, x in sets.items():
            features = model_mod.penultimate_features(mlp, x)
            logits = model_mod.head(mlp, features)
            if set_name == "id_test":
                id_acc = metrics_mod.id_accuracy(logits, id_test.y)
            # ash_energy consumes the features (it shapes them in place), so it scores last.
            for spec, by_set in sorted(zip(cfg.scores, scores),
                                       key=lambda pair: pair[0].kind == "ash_energy"):
                if spec.kind != "odin":
                    by_set[set_name] = scoring.compute_scores(mlp, x, spec, features=features)
            del features  # before ODIN's perturbed forward and the next set's forward
            top = np.argmax(logits, axis=1)
            for spec, by_set in zip(cfg.scores, scores):
                if spec.kind == "odin":
                    by_set[set_name] = scoring.compute_scores(mlp, x, spec, top=top)
    method = cfg.method_label()
    digest = cfg.digest()
    reports = []
    score_blocks = []
    for spec, by_set in zip(cfg.scores, scores):
        reports.append(metrics_mod.assemble_report(
            by_set["id_test"], {name: by_set[f"ood_{name}"] for name in names}, method=method,
            score_kind=spec.kind, id_acc=id_acc, seed=cfg.seed, config_digest=digest))
        score_blocks.extend((set_name, spec.kind, s) for set_name, s in by_set.items())
    out = _out_dir(cfg)
    (out / "report.json").write_text(json.dumps(data_mod.dump(tuple(reports)), indent=2),
                                     encoding="utf-8")
    _write_report_csv(out / "report.csv", reports)
    scoring.write_score_csv(out / "scores.csv", score_blocks)
    for report in reports:
        avg = report.average
        print(f"[{report.score_kind}] average FPR95 {avg.fpr95:.4f}  AUROC {avg.auroc:.4f}  "
              f"AUPR {avg.aupr:.4f}  ID-ACC {report.id_accuracy:.4f}")
    return 0


def pgd_extrapolate(mlp, x0, cfg, epsilon=None):
    """``extrapolation.pgd_extrapolate``, imported on the first call, so only
    extrapolate loads it. A module function, not a local import: perfbench's
    traced mode wraps this name, and ``cmd_extrapolate`` calls it through the
    module global with ``cfg`` as the third positional argument, which the
    wrap reads."""
    from .extrapolation import pgd_extrapolate as extrapolate

    return extrapolate(mlp, x0, cfg, epsilon)


def cmd_extrapolate(cfg: config_mod.RunConfig, checkpoint: str | None, input_csv: str,
                    dump_csv: str, samples_csv: str | None, epsilons: list[float] | None) -> int:
    """Synthesize over an epsilon grid (default: the pool's radii); dump per-sample records.

    Two of the input, dump and samples paths naming one file are a ConfigError before
    any read; a score that is not finite is a NumericError before any write."""
    from . import scoring

    dump_path = Path(dump_csv)
    samples_path = Path(samples_csv) if samples_csv else dump_path.with_name("synthesized.csv")
    named = {}
    for flag, path in (("--input", input_csv), ("--dump", dump_path), ("--samples", samples_path)):
        other = named.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ConfigError(f"{flag} names the same file as {other}: {path} "
                              "(--samples defaults to synthesized.csv beside the dump)")
    score_spec = cfg.scores[0]
    mlp = _load_model(cfg, checkpoint, [score_spec.kind])
    x = _read_csv(Path(input_csv), mlp.n_features, None).x
    grid = epsilons if epsilons else list(dict.fromkeys(e for e, _ in cfg.extrapolation.pool))
    # The whole grid ascends as one batch: a copy of the inputs per radius, in grid order.
    n = x.shape[0]
    config_mod.check_size("the grid of --epsilons (or of the pool's radii) x input rows x "
                          "widest layer", len(grid), n, max(mlp.dims))
    eps = np.repeat(np.asarray(grid, dtype=np.float64), n)
    batch = pgd_extrapolate(mlp, np.tile(x, (len(grid), 1)), cfg.extrapolation, epsilon=eps)
    with np.errstate(over="ignore", invalid="ignore"):
        score_before = scoring.compute_scores(mlp, x, score_spec)
        score_after = scoring.compute_scores(mlp, batch.synthesized, score_spec)
    if not (np.isfinite(score_before).all() and np.isfinite(score_after).all()):
        raise NumericError(f"the checkpoint's {score_spec.kind} scores are not finite")
    for path in (dump_path, samples_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    index, radii = list(range(n)) * len(grid), eps.tolist()
    data_mod.write_table(
        dump_path, ["index", "epsilon", "loss_before", "loss_after", "score_before", "score_after"],
        zip(index, radii, batch.initial_values.tolist(), batch.final_values.tolist(),
            score_before.tolist() * len(grid), score_after.tolist()))
    data_mod.write_table(
        samples_path, ["index", "epsilon", *(f"x{i}" for i in range(x.shape[1]))],
        ([i, e, *(format(v, ".17g") for v in row)]
         for i, e, row in zip(index, radii, batch.synthesized.tolist())))
    for k, radius in enumerate(grid):
        rows = slice(k * n, (k + 1) * n)
        print(f"epsilon {radius}: mean uniform loss {batch.initial_values[rows].mean():.6g} -> "
              f"{batch.final_values[rows].mean():.6g}, mean {score_spec.kind} "
              f"{score_before.mean():.6g} -> {score_after[rows].mean():.6g}")
    return 0


def cmd_theory_verify(cfg: config_mod.RunConfig, out_csv: str | None) -> int:
    """Monte Carlo bound check; writes per-trial rows, prints the violation fraction and
    the smallest margin."""
    from . import gmm_theory

    t = cfg.theory
    mu = np.full(t.dim, t.mu_norm / np.sqrt(t.dim))
    spec = gmm_theory.GmmSpec(mu=mu, sigma=t.sigma)
    params = gmm_theory.TheoryParams(n1=t.n1, n2=t.n2, alpha=t.alpha, tau=t.tau,
                                     trials=t.trials)
    check = gmm_theory.verify_bound(spec, params,
                                    rng(config_mod.component_seed(cfg.seed, "theory")))
    path = Path(out_csv) if out_csv else Path(cfg.outputs.dir) / "theory.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    data_mod.write_table(path, ["trial", "ratio", "rhs", "satisfied"],
                         [*([t.trial, t.ratio, t.rhs, int(t.satisfied)] for t in check.trials),
                          ["violation_fraction", check.violation_fraction, None, None]])
    print(f"violation fraction: {check.violation_fraction:.2f} over {t.trials} trials, "
          f"smallest margin (ratio - rhs) {check.min_margin:.4g}")
    if check.trials[0].rhs <= 0:
        print(f"warning: the bound's right-hand side is {check.trials[0].rhs!r} <= 0, "
              "so the check tests nothing", file=sys.stderr)
    return 0


def cmd_gradcheck(cases: int, seed: int) -> int:
    if cases < 1:
        raise ConfigError(f"--cases must be >= 1, got {cases}")
    if seed < 0:
        raise ConfigError(f"--gc-seed must be >= 0, got {seed}")
    from . import gradcheck as gradcheck_mod

    result = gradcheck_mod.run_suite(cases=cases, seed=seed)
    status = "PASS" if result.passed else "FAIL"
    print(f"gradcheck {status}: max relative error {result.max_relative_error:.3e} "
          f"(tolerance {gradcheck_mod.DEFAULT_TOLERANCE:.0e}, {result.cases} cases)")
    return 0 if result.passed else 4


def _write_report_csv(path: Path, reports: list) -> int:
    """One row per (metrics.DetectionReport, OOD set), average row included; returns the
    row count."""
    rows = [[report.method, report.score_kind, row.set_name, row.fpr95, row.auroc, row.aupr,
             report.id_accuracy] for report in reports for row in report.ood_sets]
    data_mod.write_table(path, ["method", "score", "ood_set", "fpr95", "auroc", "aupr", "id_acc"],
                         rows)
    return len(rows)


def cmd_report(report_paths: list[str], out_csv: str) -> int:
    """Merge the report lists that ``eval`` writes as report.json into one CSV table."""
    from . import metrics as metrics_mod

    reports = []
    for rp in report_paths:
        path = Path(rp)
        docs = data_mod.read_json(path, DataError, "report")
        try:
            reports.extend(data_mod.parse(tuple[metrics_mod.DetectionReport, ...], docs, "reports"))
        except (ConfigError, DataError) as exc:
            raise DataError(f"report {path} is malformed: {exc}") from None
    out_path = Path(out_csv)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    n_rows = _write_report_csv(out_path, reports)
    print(f"combined {n_rows} rows into {out_path}")
    return 0


def _epsilon_grid(text: str) -> list[float]:
    """Parse ``--epsilons``: comma-separated radii, at least one, each in
    [0, data.MAX_MAGNITUDE], the bound ``data.parse`` puts on every float input,
    and no two equal (each radius writes its own rows, keyed by index and radius)."""
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--epsilons: {exc}") from None
    if not grid:
        raise ConfigError(f"--epsilons names no radius, got {text!r}")
    if not all(0 <= e <= data_mod.MAX_MAGNITUDE for e in grid):
        raise ConfigError(f"--epsilons must lie in [0, {data_mod.MAX_MAGNITUDE:g}], got {text!r}")
    seen = set()
    for e in grid:
        if e in seen:
            raise ConfigError(f"--epsilons names the radius {e!r} more than once, got {text!r}")
        seen.add(e)
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
    p_ex.add_argument("--epsilons", help="comma-separated epsilon grid "
                      "(default: the radii of extrapolation.pool)")

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
        return cmd_theory_verify(cfg, args.out_csv)
    except OodbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
