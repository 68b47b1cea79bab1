"""Per-layer metrics derived from the spans of one traced workload iteration.

A span is [id, parent, name, start, end, attrs]. Its self time is its
duration minus the durations of its direct children, so every second of a
command is counted once, in the innermost layer that was running. A layer's
cover is the time inside its outermost spans, children included: it answers
"how much of this ran under that layer".
"""

from __future__ import annotations

import statistics

# Share metrics: (metric, command, span prefix whose cover is reported, span prefix
# whose cover is the whole, or None for the command's wall time).
SHARES = [
    ("fine_tune.extrapolation_share", "train", "extrapolation", "trainer.fine_tune"),
    ("fine_tune.autodiff_share", "train", "autodiff.", "trainer.fine_tune"),
    ("eval.scoring_share", "eval", "scoring", None),
    ("eval.metrics_share", "eval", "metrics.", None),
    ("eval.data_share", "eval", "data.", None),
]


def _self_times(spans: list[list]) -> list[float]:
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def _under(spans: list[list], prefix: str) -> list[bool]:
    """For each span, whether it or one of its ancestors has a name starting with prefix."""
    flags: list[bool] = []
    for s in spans:  # parents are recorded before their children
        flags.append(s[2].startswith(prefix) or (s[1] >= 0 and flags[s[1]]))
    return flags


def _cover(spans: list[list], prefix: str) -> float:
    inside = _under(spans, prefix)
    return sum(s[4] - s[3] for s in spans
               if s[2].startswith(prefix) and not (s[1] >= 0 and inside[s[1]]))


def _pct(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(commands: list[dict]) -> dict[str, float]:
    """commands: [{"command", "wall", "spans"}] for one traced iteration."""
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    attr: dict[str, float] = {}
    step_gaps: list[float] = []
    ext_passes = ext_pass_rows = 0
    ext_time = 0.0
    eval_rows = 0
    eval_keys: dict[str, int] = {}
    kind_s: dict[str, float] = {}
    m: dict[str, float] = {}
    for cmd in commands:
        spans = cmd["spans"]
        own = _self_times(spans)
        in_ext = _under(spans, "extrapolation")
        starts = []
        for s, t in zip(spans, own):
            name, attrs = s[2], s[5] or {}
            self_s[name] = self_s.get(name, 0.0) + t
            count[name] = count.get(name, 0) + 1
            for k, v in attrs.items():
                if isinstance(v, (int, float)):
                    attr[f"{name}.{k}"] = attr.get(f"{name}.{k}", 0) + v
            if name == "trainer.sgd_step":
                starts.append(s[3])
            elif name == "extrapolation" and not (s[1] >= 0 and in_ext[s[1]]):
                ext_time += s[4] - s[3]
            elif name == "autodiff.pass" and in_ext[s[0]]:
                ext_passes += 1
                ext_pass_rows += attrs.get("rows", 0)
            elif name == "scoring":
                kind_s[attrs.get("kind")] = kind_s.get(attrs.get("kind"), 0.0) + t
                if cmd["command"] == "eval":
                    eval_rows += attrs.get("rows", 0)
                    eval_keys[attrs.get("key")] = attrs.get("rows", 0)
        step_gaps += [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
        for metric, command, part, whole in SHARES:
            if cmd["command"] == command:
                total = _cover(spans, whole) if whole else cmd["wall"]
                m[metric] = _cover(spans, part) / total if total else 0.0
    for metric, *_ in SHARES:
        m.setdefault(metric, 0.0)

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return count.get(name, 0)

    def a(key):
        return attr.get(key, 0)

    ext_rows = a("extrapolation.rows")
    m.update({
        "config.parse_s": s("config.parse"),
        "data.gen_s": s("data.gen"),
        "data.save_csv_s": s("data.save_csv"),
        "data.load_csv_s": s("data.load_csv"),
        "data.csv_rows": a("data.save_csv.rows") + a("data.load_csv.rows"),
        "data.csv_bytes": a("data.save_csv.bytes") + a("data.load_csv.bytes"),
        "model.forward_s": s("model.forward"),
        "model.forward_calls": c("model.forward"),
        "model.forward_rows": a("model.forward.rows"),
        "model.checkpoint_io_s": s("model.checkpoint_io"),
        "losses.graph_build_s": s("losses.graph_build"),
        "losses.graph_builds": c("losses.graph_build"),
        "autodiff.passes": c("autodiff.pass"),
        "autodiff.pass_s": s("autodiff.pass"),
        "autodiff.rows_per_pass": a("autodiff.pass.rows") / max(1, c("autodiff.pass")),
        "trainer.fine_tune_s": s("trainer.fine_tune"),
        "trainer.steps": c("trainer.sgd_step"),
        "trainer.step_ms_p50": _pct(step_gaps, 50),
        "trainer.step_ms_p99": _pct(step_gaps, 99),
        "trainer.sgd_step_s": s("trainer.sgd_step"),
        "extrapolation.calls": c("extrapolation"),
        "extrapolation.rows": ext_rows,
        "extrapolation.rows_per_s": ext_rows / ext_time if ext_time else 0.0,
        "extrapolation.passes_per_row": ext_passes / ext_rows if ext_rows else 0.0,
        "extrapolation.rows_per_pass": ext_pass_rows / ext_passes if ext_passes else 0.0,
        "extrapolation.improved_frac": a("extrapolation.improved") / ext_rows if ext_rows else 0.0,
        "extrapolation.aborted": a("extrapolation.aborted"),
        "scoring.total_s": s("scoring"),
        "scoring.msp_s": kind_s.get("msp", 0.0),
        "scoring.energy_s": kind_s.get("energy", 0.0),
        "scoring.rows": a("scoring.rows"),
        "scoring.rows_per_unique_row": eval_rows / max(1, sum(eval_keys.values())),
        "scoring.write_csv_s": s("scoring.write_csv"),
        "metrics.fpr95_s": s("metrics.fpr95"),
        "metrics.auroc_s": s("metrics.auroc"),
        "metrics.aupr_s": s("metrics.aupr"),
        "metrics.id_accuracy_s": s("metrics.id_accuracy"),
        "gmm_theory.trials": a("gmm_theory.verify.trials"),
        "gradcheck.cases": a("gradcheck.run.cases"),
    })
    return m
