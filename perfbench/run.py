"""oodbench benchmark runner.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see workloads.py) as a sequence of cold `python -m oodbench`
processes, one at a time, from the root of a source checkout, and checks every
command's outputs.

--trace 0 reports the end-to-end metrics: cold set-up time (median of several
set-ups), then whole-workload iterations repeated for S seconds (at least one),
reported as medians. These times are calibrated against the host's speed: each
child is paused every SLICE_S seconds while a fixed reference job runs on the
same CPU, and its wall time is scaled to the speed at which that job takes
reference.NOMINAL_S (see Runner). --trace 1 runs one untraced iteration, then traced
iterations for the rest of S seconds, then import-time probes and the layer
microbenchmarks, and reports the per-layer metrics. Traced outputs must be
byte-identical to the untraced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full run record (machine, versions, BLAS
thread cap, commit, per-command timings and output digests) is written under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_out"
HARD_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread per child. The model's matrices are small, so a second
# OpenBLAS thread mostly spins waiting for work: on 2 CPUs it doubled the CPU
# time of divoe `train` and made its wall time depend on the other CPU's load.
BLAS_THREADS = 1
SLICE_S = 0.1  # how long a calibrated child runs between two reference windows
SETUP_REPS = 3
IMPORT_REPS = 3

class Fatal(Exception):
    """The checkout cannot be benchmarked; exit non-zero without a result."""


class Runner:
    """Starts one child at a time and collects its wall time and rusage.

    With `calibrate`, the runner and its children share one CPU, and each child
    is paused every SLICE_S seconds while the reference job runs once (see
    reference.py). A child's `wall` then excludes the pauses, and its `norm` is
    that wall time at the reference's nominal speed:
    wall * NOMINAL_S / mean(reference windows timed during and right after it).
    """

    def __init__(self, log_dir: Path, calibrate: bool):
        self.start = time.monotonic()
        self.log_dir = log_dir
        self.cpus = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
        self.calibrate = calibrate
        if calibrate:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            reference.window()  # the first run pages numpy in

    def left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def _wait_sliced(self, proc: subprocess.Popen) -> tuple[int, object, float, list[dict]]:
        """Wait for proc to exit, timing the reference job between its slices."""
        refs: list[dict[str, float]] = []
        paused = 0.0
        fd = os.pidfd_open(proc.pid)
        try:
            while not select.select([fd], [], [], SLICE_S)[0]:
                t_stop = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, ru = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):  # it exited before the signal; now reaped
                    return status, ru, paused, refs
                refs.append(reference.window())
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - t_stop
        finally:
            os.close(fd)
        _, status, ru = os.wait4(proc.pid, 0)
        return status, ru, paused, refs

    def spawn(self, argv: list[str], log_name: str) -> dict:
        log = self.log_dir / f"{log_name}.log"
        with log.open("w", encoding="utf-8") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.left()), proc.kill)
            timer.start()
            try:
                if self.calibrate:
                    status, ru, paused, refs = self._wait_sliced(proc)
                else:
                    _, status, ru = os.wait4(proc.pid, 0)
                    paused, refs = 0.0, []
                wall = time.perf_counter() - t0 - paused
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        r = {"rc": proc.returncode, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
             "rss_mb": ru.ru_maxrss / 1024.0,
             "stdout": log.read_text(encoding="utf-8", errors="replace")}
        if self.calibrate:
            refs.append(reference.window())
            parts = {k: statistics.fmean(w[k] for w in refs) for k in refs[0]}
            ref_s = sum(parts.values())
            r.update(ref_s=ref_s, ref_parts=parts, windows=len(refs),
                     norm=wall * reference.NOMINAL_S / ref_s)
        return r


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _stats(out: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (st.st_size, st.st_mtime_ns) for p in out.iterdir()
            if p.is_file() and (st := p.stat())}


class Bench:
    def __init__(self, name: str, seed: int, smoke: bool, calibrate: bool):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.cfg, self.commands, self.extra = workloads.build(name, smoke)
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        (self.dir / "config.json").write_text(json.dumps(self.cfg, indent=1), encoding="utf-8")
        self.config_rel = str((self.dir / "config.json").relative_to(ROOT))
        self.out = self.dir / "run"
        self.out_rel = str(self.out.relative_to(ROOT))
        self.runner = Runner(self.dir / "logs", calibrate)
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_labels: set[str] = set()
        self.setup_norms: list[float] = []

    def count(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        self.failures += [f"{label}: {e}" for e in errors]
        if errors:
            self.failed_labels.add(label)

    def probe_env(self) -> dict:
        """Also the warm-up: compiles bytecode and pages in numpy and scipy."""
        if not (ROOT / "src" / "oodbench" / "__init__.py").is_file():
            raise Fatal(f"no oodbench sources under {ROOT / 'src'}")
        r = self.runner.spawn([sys.executable, str(HERE / "child.py"), "env"], "env")
        if r["rc"] != 0:
            raise Fatal(f"cannot import oodbench from the checkout:\n{r['stdout']}")
        info = json.loads(r["stdout"].strip().splitlines()[-1])
        if not Path(info["oodbench_file"]).resolve().is_relative_to(ROOT / "src"):
            raise Fatal(f"oodbench imported from {info['oodbench_file']}, not the checkout")
        return info

    def iteration(self, tag: str, traced: bool) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        results = []
        for cmd in self.commands:
            argv = workloads.argv(cmd, self.config_rel, self.out_rel, self.seed, self.extra)
            spans_path = self.dir / "logs" / f"{tag}-{cmd}.spans.json"
            if traced:
                full = [sys.executable, str(HERE / "child.py"), "trace", str(spans_path), "--",
                        *argv]
            else:
                full = [sys.executable, "-m", "oodbench", *argv]
            before = _stats(self.out)
            r = self.runner.spawn(full, f"{tag}-{cmd}")
            after = _stats(self.out)
            r["command"] = cmd
            r["digests"] = {n: _sha256(self.out / n) for n in sorted(after)
                            if before.get(n) != after[n]}
            try:
                r["errors"] = ([f"exit code {r['rc']}"] if r["rc"] != 0
                               else workloads.CHECKS[cmd](self.cfg, self.out, r["stdout"]))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                r["errors"] = [f"malformed output: {exc!r}"]
            if traced:
                try:
                    doc = json.loads(spans_path.read_text(encoding="utf-8"))
                    r["spans"], r["missing_wraps"] = doc["spans"], doc["missing"]
                except (OSError, ValueError) as exc:
                    r["spans"], r["missing_wraps"] = [], []
                    r["errors"].append(f"no spans: {exc}")
            results.append(r)
        it = {"tag": tag, "wall": sum(r["wall"] for r in results), "commands": results}
        if self.runner.calibrate:
            it["norm"] = sum(r["norm"] for r in results)
        return it

    def tally(self, it: dict, reference: dict | None) -> None:
        """Count each command of an iteration, failing it if its outputs differ."""
        for r, ref in zip(it["commands"], (reference or it)["commands"]):
            errors = list(r["errors"])
            if r["digests"] != ref["digests"]:
                errors.append(f"outputs differ from iteration {reference['tag']}")
            self.count(f"{it['tag']}/{r['command']}", errors)

    def more(self, t0: float, seconds: float, done: list[dict]) -> bool:
        if not done:
            return True
        last = done[-1]["wall"]
        return time.monotonic() - t0 < seconds and self.runner.left() > 1.5 * last + 10


def _median_by_key(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _wall_of(it: dict, cmd: str) -> float:
    return next((r["wall"] for r in it["commands"] if r["command"] == cmd), 0.0)


def _norm_of(it: dict, cmd: str) -> float:
    return next(r["norm"] for r in it["commands"] if r["command"] == cmd)


def end_to_end(b: Bench, seconds: float) -> tuple[dict, list[dict]]:
    def setup() -> None:
        i = len(b.setup_norms)
        r = b.runner.spawn([sys.executable, str(HERE / "child.py"), "setup", b.config_rel,
                            str(b.seed), b.out_rel], f"setup{i}")
        b.count(f"setup{i}", [] if r["rc"] == 0 else [f"exit code {r['rc']}"])
        b.setup_norms.append(r["norm"])

    # One set-up before each iteration spreads the set-up samples over the run,
    # so a burst of load on the host moves fewer of them.
    iters: list[dict] = []
    t0 = time.monotonic()
    while b.more(t0, seconds, iters):
        setup()
        iters.append(b.iteration(f"iter{len(iters)}", traced=False))
        b.tally(iters[-1], iters[0])
    while len(b.setup_norms) < (1 if b.smoke else SETUP_REPS):
        setup()
    metrics = {
        "setup_s": statistics.median(b.setup_norms),
        "wall_s": statistics.median(it["norm"] for it in iters),
        "peak_rss_mb": max(r["rss_mb"] for it in iters for r in it["commands"]),
        "ok_frac": (b.attempted - len(b.failed_labels)) / b.attempted,
    }
    return metrics, iters


def import_times(text: str) -> dict[str, float]:
    """Self time per top-level package from `python -X importtime` output."""
    per_pkg: dict[str, int] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line.split(":", 1)[1].split("|")
        top = name.strip().split(".")[0]
        per_pkg[top] = per_pkg.get(top, 0) + int(self_us)
    return {"import.total_s": sum(per_pkg.values()) / 1e6,
            **{f"import.{p}_s": per_pkg.get(p, 0) / 1e6 for p in ("scipy", "numpy", "oodbench")}}


def per_layer(b: Bench, seconds: float) -> tuple[dict, list[dict]]:
    t0 = time.monotonic()
    base = b.iteration("untraced", traced=False)
    b.tally(base, None)
    iters = [base]
    traced: list[dict] = []
    while not traced or b.more(t0, seconds, traced):
        traced.append(b.iteration(f"traced{len(traced)}", traced=True))
        b.tally(traced[-1], base)
    iters += traced
    imports = []
    for i in range(1 if b.smoke else IMPORT_REPS):
        r = b.runner.spawn([sys.executable, "-X", "importtime", "-c", "import oodbench.cli"],
                           f"importtime{i}")
        b.count(f"importtime{i}", [] if r["rc"] == 0 else [f"exit code {r['rc']}"])
        imports.append(import_times(r["stdout"]))
    micro_argv = [sys.executable, str(HERE / "micro.py"), "--seed", str(b.seed),
                  "--work", str(b.dir / "micro")] + (["--smoke"] if b.smoke else [])
    r = b.runner.spawn(micro_argv, "micro")
    b.count("micro", [] if r["rc"] == 0 else [f"exit code {r['rc']}"])
    micro = json.loads(r["stdout"].strip().splitlines()[-1]) if r["rc"] == 0 else {}

    m = _median_by_key([layers.layer_metrics(it["commands"]) for it in traced])
    m.update(_median_by_key(imports))
    m.update(micro)
    for r in base["commands"]:
        if r["command"] in ("gen_data", "train", "eval"):
            m[f"cmd.{r['command']}.wall_s"] = r["wall"]
            m[f"cmd.{r['command']}.cpu_s"] = r["cpu"]
            m[f"cmd.{r['command']}.peak_rss_mb"] = r["rss_mb"]
    for cmd in ("extrapolate", "theory", "gradcheck"):
        m[f"cmd.{cmd}_share"] = _wall_of(base, cmd) / base["wall"]
    m["trace.overhead_s"] = statistics.median(it["wall"] for it in traced) - base["wall"]
    try:
        m.update({f"quality.{k}": v for k, v in workloads.quality(b.out).items()})
    except (OSError, ValueError, KeyError, StopIteration, ZeroDivisionError) as exc:
        b.count("quality", [f"report.json unusable: {exc!r}"])
    return m, iters


def _trace_problems(r: dict) -> list[str]:
    """Wrap points the program no longer has, and attribute extractors that failed."""
    return [f"missing {m}" for m in r.get("missing_wraps", ())] + [
        f"{s[2]}: {s[5]['attr_error']}" for s in r.get("spans", ()) if s[5] and "attr_error" in s[5]]


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workload(name: str, args: argparse.Namespace, units: dict[str, str]) -> dict:
    """Measure one workload, write its run record and print its metric table."""
    bench = Bench(name, args.seed, args.smoke, calibrate=not args.trace)
    env = bench.probe_env()
    metrics, iters = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    run_record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "machine": {"nproc": os.cpu_count(), "affinity": bench.runner.cpus,
                    "cpu_model": _cpu_model()},
        "versions": {k: env[k] for k in ("python", "numpy", "scipy")},
        "blas": env["blas"], "blas_thread_cap": {v: BLAS_THREADS for v in BLAS_VARS},
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "config": bench.cfg, "failures": bench.failures, "setup_norms": bench.setup_norms,
        "trace_problems": sorted({p for it in iters for r in it["commands"]
                                  for p in _trace_problems(r)}),
        "iterations": [{"tag": it["tag"], "wall": it["wall"], "norm": it.get("norm"),
                        "commands": [{k: r.get(k) for k in (
                            "command", "rc", "wall", "norm", "ref_s", "ref_parts", "windows",
                            "cpu", "rss_mb", "errors", "digests")} for r in it["commands"]]}
                       for it in iters],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record_path = WORK / "records" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(run_record, indent=1), encoding="utf-8")

    print(f"== {name} (seed {args.seed}, trace {args.trace})")
    for metric, v in metrics.items():
        print(f"{metric:40s} {v:14.6f} {units[metric]}")
    untraced = [it for it in iters if not it["tag"].startswith("traced")]
    print("median untraced wall per command: " + ", ".join(
        f"{c} {statistics.median(_wall_of(it, c) for it in untraced):.3f} s"
        for c in bench.commands))
    if bench.runner.calibrate:
        print("median calibrated wall per command: " + ", ".join(
            f"{c} {statistics.median(_norm_of(it, c) for it in iters):.3f} s"
            for c in bench.commands))
    for failure in bench.failures:
        print(f"FAILED {failure}")
    failed = len(bench.failed_labels)
    print(f"{bench.attempted} processes, {failed} failed (failed_frac "
          f"{failed / bench.attempted:.4f}); record: {record_path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
            "metrics": run_record["metrics"]}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness tests")
    args = p.parse_args(argv)

    # SystemExit unwinds Runner.spawn, which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args, units) for name in names}
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{k}": v for name, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
