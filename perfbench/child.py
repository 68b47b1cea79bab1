"""Child-process entry points of the benchmark.

    python perfbench/child.py setup CONFIG SEED OUT   import the CLI and parse the config
    python perfbench/child.py env                     print versions and BLAS as JSON
    python perfbench/child.py trace SPANS -- ARGV...  run `oodbench.cli.main(ARGV)` traced

The traced mode wraps public functions of each layer where its caller looks the
name up, records one span per call (name, start, end, parent, attributes) in
memory, and writes them all to SPANS when the command ends. The wrappers only
observe: each returns exactly what the wrapped function returned.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import time


def setup(config_path: str, seed: str, out: str) -> int:
    from oodbench import cli, config

    args = cli.build_parser().parse_args(
        ["--config", config_path, "--seed", seed, "--out", out, "gen-data"])
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    config.apply_overrides(doc, [f"seed={args.seed}", f"outputs.dir={json.dumps(args.out)}"])
    config.parse_config(doc)
    return 0


def env() -> int:
    import numpy
    import scipy

    import oodbench

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "oodbench_file": oodbench.__file__,
                      "blas": {k: blas.get(k) for k in ("name", "version",
                                                         "openblas configuration")}}))
    return 0


class Tracer:
    """In-memory span recorder; the stack gives each span its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, self.stack[-1] if self.stack else -1, name, 0.0, 0.0, None]
            self.spans.append(span)
            self.stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                try:
                    span[5] = attrs(args, kwargs, result)
                except Exception as exc:  # an observer must not change the program's behaviour
                    span[5] = {"attr_error": repr(exc)}
            return result

        return traced


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else 0


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs.get(key)


def _csv_save(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"rows": _rows(_arg(args, kwargs, 0, "dataset").x), "bytes": os.path.getsize(path)}


def _csv_load(args, kwargs, result):
    return {"rows": _rows(result.x), "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _batch_rows(args, kwargs, result):
    return {"rows": _rows(_arg(args, kwargs, 1, "batch"))}


def _pass_rows(args, kwargs, result):
    bindings = _arg(args, kwargs, 1, "bindings") or {}
    return {"rows": _rows(bindings.get("x"))}


def _extrapolation(args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    sign = 1.0 if getattr(cfg, "direction", "maximize") == "maximize" else -1.0
    gains = (result.final_values - result.initial_values) * sign
    return {"rows": _rows(result.origins), "improved": int((gains > 0).sum()),
            "aborted": int(result.aborted.sum())}


def _scores(args, kwargs, result):
    import numpy as np

    batch = np.ascontiguousarray(_arg(args, kwargs, 1, "batch"), dtype=np.float64)
    spec = _arg(args, kwargs, 2, "spec")
    return {"kind": spec.kind, "rows": _rows(batch),
            "key": spec.kind + hashlib.blake2b(batch.tobytes(), digest_size=16).hexdigest()}


# (module, attribute looked up by the caller, span name, attribute extractor)
WRAPS = [
    ("oodbench.config", "apply_overrides", "config.parse", None),
    ("oodbench.config", "parse_config", "config.parse", None),
    ("oodbench.data", "gen_id_mixture_raw", "data.gen", None),
    ("oodbench.data", "fit_minmax", "data.gen", None),
    ("oodbench.data", "gen_arc_outliers", "data.gen", None),
    ("oodbench.data", "gen_ring_ood", "data.gen", None),
    ("oodbench.data", "save_csv", "data.save_csv", _csv_save),
    ("oodbench.data", "load_csv", "data.load_csv", _csv_load),
    ("oodbench.model", "forward", "model.forward", _batch_rows),
    ("oodbench.model", "penultimate_features", "model.forward", _batch_rows),
    ("oodbench.model", "save_checkpoint", "model.checkpoint_io", None),
    ("oodbench.model", "load_checkpoint", "model.checkpoint_io", None),
    ("oodbench.trainer", "_build_loss_graph", "losses.graph_build", None),
    ("oodbench.autodiff", "value_and_grad", "autodiff.pass", _pass_rows),
    ("oodbench.autodiff", "evaluate", "autodiff.pass", _pass_rows),
    ("oodbench.trainer", "fine_tune", "trainer.fine_tune", None),
    ("oodbench.trainer", "sgd_step", "trainer.sgd_step", None),
    ("oodbench.trainer", "build_extrapolation_pool", "extrapolation", _extrapolation),
    ("oodbench.cli", "pgd_extrapolate", "extrapolation", _extrapolation),
    ("oodbench.scoring", "compute_scores", "scoring", _scores),
    ("oodbench.scoring", "write_score_csv", "scoring.write_csv", None),
    ("oodbench.metrics", "fpr_at_tpr", "metrics.fpr95", None),
    ("oodbench.metrics", "auroc", "metrics.auroc", None),
    ("oodbench.metrics", "aupr", "metrics.aupr", None),
    ("oodbench.metrics", "id_accuracy", "metrics.id_accuracy", None),
    ("oodbench.gmm_theory", "verify_bound", "gmm_theory.verify",
     lambda a, k, r: {"trials": len(r.trials)}),
    ("oodbench.gradcheck", "run_suite", "gradcheck.run", lambda a, k, r: {"cases": r.cases}),
]


def trace(spans_path: str, argv: list[str]) -> int:
    from oodbench import cli

    tracer = Tracer()
    missing = []
    for module_name, attr, name, attrs in WRAPS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))
        else:
            missing.append(f"{module_name}.{attr}")
    try:
        rc = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, "spans": tracer.spans}, fh)
    return rc


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        return setup(*argv[1:4])
    if mode == "env":
        return env()
    if mode == "trace" and argv[2] == "--":
        return trace(argv[1], argv[3:])
    raise SystemExit(f"usage: child.py setup|env|trace ...; got {argv}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
