"""Workload definitions and the output checks for each CLI command.

A workload is a run configuration plus a sequence of `python -m oodbench`
commands. Every size the checks depend on is written into the config
explicitly, so the checks never rely on the program's defaults. This module
uses the standard library only: the process running run.py stays light and never
imports the program it measures.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

POOL = [[0.02, 0.34], [0.05, 0.33], [0.1, 0.33]]
EPSILONS = (0.02, 0.05, 0.1)


def _data(per_class, test_per_class, aux_count, ood_sets):
    return {"classes": 4, "per_class": per_class, "test_per_class": test_per_class,
            "aux": {"count": aux_count},
            "ood_sets": {name: {"inner_radius": lo, "outer_radius": hi, "count": n}
                         for name, (lo, hi, n) in ood_sets.items()}}


def _train(kind, epochs, batch):
    return {"loss": {"kind": kind}, "epochs": epochs, "id_batch": batch,
            "outlier_batch": batch}


def _scores(*kinds):
    return [{"kind": k} for k in kinds]


def build(name: str, smoke: bool) -> tuple[dict, list[str], dict]:
    """Return (run config, command names, extra knobs) for one workload.

    The smoke size keeps every command and every layer of the full size, on
    inputs small enough that the whole workload runs in a few seconds.
    """
    batch = 32 if smoke else 128
    if name == "divoe_finetune":
        # Program defaults for data and schedule: 80 steps, each extrapolating
        # about 21 rows per epsilon slice against the model of that step.
        cfg = {"data": _data(16, 16, 64, {"ring": (1.5, 2.2, 64)}) if smoke
               else _data(256, 200, 1024, {"ring": (1.5, 2.2, 2048)}),
               "train": _train("divoe", 1 if smoke else 10, batch),
               "extrapolation": {"pool": POOL},
               "scores": _scores("msp", "energy")}
        return cfg, ["gen_data", "train", "eval"], {}
    if name == "oe_finetune":
        # Plain outlier exposure, scaled up so that training outweighs the import:
        # 20 epochs of 64 steps, no extrapolation.
        cfg = {"data": _data(16, 16, 64, {"ring": (1.5, 2.2, 64)}) if smoke
               else _data(2048, 200, 8192, {"ring": (1.5, 2.2, 2048)}),
               "train": _train("oe", 1 if smoke else 20, batch),
               "scores": _scores("msp", "energy")}
        return cfg, ["gen_data", "train", "eval"], {}
    if name == "analysis":
        n_ood = 64 if smoke else 20000
        cfg = {"data": _data(16 if smoke else 256, 16 if smoke else 2000, 64 if smoke else 1024,
                             {"ring": (1.5, 2.2, n_ood), "near": (1.2, 1.5, n_ood),
                              "far": (2.2, 4.0, n_ood)}),
               "train": _train("ce", 1 if smoke else 2, batch),
               "scores": _scores("msp", "energy", "odin", "ash_energy"),
               "theory": {"trials": 5 if smoke else 100}}
        return cfg, ["gen_data", "train", "eval", "extrapolate", "theory", "gradcheck"], \
            {"gradcheck_cases": 3 if smoke else 100}
    raise KeyError(name)


NAMES = ("divoe_finetune", "oe_finetune", "analysis")


def argv(command: str, config_path: str, out: str, seed: int, extra: dict) -> list[str]:
    base = ["--config", config_path, "--seed", str(seed), "--out", out]
    if command == "gen_data":
        return base + ["gen-data"]
    if command in ("train", "eval"):
        return base + [command]
    if command == "extrapolate":
        return base + ["extrapolate", "--input", f"{out}/aux_out.csv",
                       "--dump", f"{out}/extrap.csv", "--samples", f"{out}/synthesized.csv",
                       "--epsilons", ",".join(str(e) for e in EPSILONS)]
    if command == "theory":
        return base + ["theory-verify"]
    if command == "gradcheck":
        return ["gradcheck", "--cases", str(extra["gradcheck_cases"]), "--gc-seed", str(seed)]
    raise KeyError(command)


# -- output checks -------------------------------------------------------------------
# Each check returns a list of failure messages; an empty list means it passed.


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _line_count(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _expect_rows(path: Path, n: int) -> list[str]:
    if not path.exists():
        return [f"{path.name} missing"]
    got = _line_count(path) - 1
    return [] if got == n else [f"{path.name} has {got} rows, expected {n}"]


def _unit(value) -> bool:
    return isinstance(value, float) and 0.0 <= value <= 1.0


def check_gen_data(cfg: dict, out: Path, stdout: str) -> list[str]:
    d = cfg["data"]
    errs = _expect_rows(out / "id_train.csv", d["classes"] * d["per_class"])
    errs += _expect_rows(out / "id_test.csv", d["classes"] * d["test_per_class"])
    errs += _expect_rows(out / "aux_out.csv", d["aux"]["count"])
    for name, spec in d["ood_sets"].items():
        errs += _expect_rows(out / f"ood_{name}.csv", spec["count"])
    return errs


def check_train(cfg: dict, out: Path, stdout: str) -> list[str]:
    d, t = cfg["data"], cfg["train"]
    steps = t["epochs"] * math.ceil(d["classes"] * d["per_class"] / t["id_batch"])
    errs = _expect_rows(out / "history.csv", steps)
    try:
        doc = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
        values = [v for layer in doc["weights"] + doc["biases"] for v in layer]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return errs + [f"checkpoint.json unreadable: {exc}"]
    if not values or not all(math.isfinite(v) for v in values):
        errs.append("checkpoint has non-finite or no parameters")
    return errs


def check_eval(cfg: dict, out: Path, stdout: str) -> list[str]:
    d = cfg["data"]
    kinds = [s["kind"] for s in cfg["scores"]]
    n_sets = len(d["ood_sets"])
    errs = []
    try:
        reports = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if sorted(r["score_kind"] for r in reports) != sorted(kinds):
            errs.append("report.json score kinds do not match the config")
        for r in reports:
            if len(r["ood_sets"]) != n_sets + 1 or not _unit(r["id_accuracy"]):
                errs.append(f"report.json entry {r['score_kind']} is malformed")
            for row in r["ood_sets"]:
                if not all(_unit(row[k]) for k in ("fpr95", "auroc", "aupr")):
                    errs.append(f"report.json {r['score_kind']}/{row['set_name']} out of [0,1]")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errs.append(f"report.json unreadable: {exc}")
    try:
        rows = _rows(out / "report.csv")
        if len(rows) != 1 + len(kinds) * (n_sets + 1):
            errs.append(f"report.csv has {len(rows) - 1} rows")
        for row in rows[1:]:
            if not all(0.0 <= float(v) <= 1.0 for v in row[3:6]):
                errs.append(f"report.csv row {row[:3]} out of [0,1]")
    except (OSError, ValueError, IndexError) as exc:
        errs.append(f"report.csv unreadable: {exc}")
    per_kind = d["classes"] * d["test_per_class"] + sum(s["count"] for s in d["ood_sets"].values())
    return errs + _expect_rows(out / "scores.csv", len(kinds) * per_kind)


def check_extrapolate(cfg: dict, out: Path, stdout: str) -> list[str]:
    try:
        origins = [[float(v) for v in row] for row in _rows(out / "aux_out.csv")[1:]]
        dump = _rows(out / "extrap.csv")[1:]
        samples = _rows(out / "synthesized.csv")[1:]
    except (OSError, ValueError) as exc:
        return [f"extrapolate outputs unreadable: {exc}"]
    n = len(origins) * len(EPSILONS)
    if len(dump) != n or len(samples) != n:
        return [f"extrapolate wrote {len(dump)}/{len(samples)} rows, expected {n}"]
    bad_ball = bad_gain = 0
    for rec, smp in zip(dump, samples):
        i, eps = int(smp[0]), float(smp[1])
        x = [float(v) for v in smp[2:]]
        if any(abs(a - b) > eps + 1e-12 or not 0.0 <= a <= 1.0
               for a, b in zip(x, origins[i])):
            bad_ball += 1
        if not float(rec[3]) >= float(rec[2]):
            bad_gain += 1
    errs = []
    if bad_ball:
        errs.append(f"{bad_ball} synthesized rows leave their l-inf ball or the clamp")
    if bad_gain:
        errs.append(f"{bad_gain} rows end with loss_after < loss_before")
    return errs


def check_theory(cfg: dict, out: Path, stdout: str) -> list[str]:
    try:
        rows = _rows(out / "theory.csv")
        frac = float(rows[-1][1])
    except (OSError, ValueError, IndexError) as exc:
        return [f"theory.csv unreadable: {exc}"]
    errs = [] if len(rows) == cfg["theory"]["trials"] + 2 else ["theory.csv row count"]
    return errs + ([] if 0.0 <= frac <= 1.0 else ["violation fraction out of [0,1]"])


def check_gradcheck(cfg: dict, out: Path, stdout: str) -> list[str]:
    return [] if "gradcheck PASS" in stdout else ["gradcheck did not print PASS"]


CHECKS = {"gen_data": check_gen_data, "train": check_train, "eval": check_eval,
          "extrapolate": check_extrapolate, "theory": check_theory,
          "gradcheck": check_gradcheck}


def quality(out: Path) -> dict[str, float]:
    """Mean over score kinds of the `average` row of report.json."""
    reports = json.loads((out / "report.json").read_text(encoding="utf-8"))
    avg = [next(r for r in rep["ood_sets"] if r["set_name"] == "average") for rep in reports]
    n = len(reports)
    return {"auroc": sum(a["auroc"] for a in avg) / n,
            "fpr95": sum(a["fpr95"] for a in avg) / n,
            "id_acc": sum(r["id_accuracy"] for r in reports) / n}
