import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oodbench
from oodbench.errors import ConfigError, DataError, NumericError, OodbenchError


CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(oodbench.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_the_kernel_conftest_names_runs():
    # The byte pins hold on the BLAS core tests/conftest.py names, and every
    # interpreter a test starts inherits it. An OpenBLAS that ignores the
    # variable fails here by name, not as a digest mismatch elsewhere.
    result = subprocess.run([sys.executable, "-c", "import numpy"],
                            env=dict(_fresh_env(), OPENBLAS_VERBOSE="2"),
                            capture_output=True, text=True, check=True)
    assert "Core: Haswell" in result.stderr


# The baseline is taken first, so what site hooks import at startup is not counted.
SCRIPT = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import oodbench
names = [m.name for m in pkgutil.iter_modules(oodbench.__path__, "oodbench.")
         if m.name != "oodbench.__main__"]
for name in names:
    importlib.import_module(name)
added = {m.split(".")[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names)
print(json.dumps([names, sorted(added)]))
"""


def test_every_module_imports_only_numpy_and_the_standard_library():
    # A fresh interpreter, so nothing the test session imported is counted;
    # __main__ is skipped because importing it runs the CLI.
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=_fresh_env(),
                            capture_output=True, text=True, check=True)
    names, added = json.loads(result.stdout)
    assert added == ["numpy", "oodbench"]
    assert {"oodbench.cli", "oodbench.metrics", "oodbench.scoring"} <= set(names)


def test_eval_never_loads_openssl(tmp_path):
    # hashlib's _hashlib maps OpenSSL's libcrypto. eval takes its reports'
    # config digest from the checkpoint, so it never loads it. (numpy.random
    # imports it through secrets and hmac, so gen-data and train, which draw
    # from numpy's generators, do; train digests its config there.)
    from oodbench import cli

    tiny = ["--out", str(tmp_path), "--set", "data.per_class=8", "--set", "data.test_per_class=4",
            "--set", "data.aux.count=16", "--set", 'data.ood_sets={"ring": {"count": 8}}',
            "--set", "model.hidden=[4]", "--set", "train.epochs=1",
            "--set", 'scores=[{"kind": "msp"}, {"kind": "odin"}, {"kind": "ash_energy"}]']
    assert cli.main([*tiny, "gen-data"]) == 0 and cli.main([*tiny, "train"]) == 0
    script = ("import sys\nfrom oodbench import cli\nassert cli.main(sys.argv[1:]) == 0\n"
              "print('_hashlib' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", script, *tiny, "eval"], env=_fresh_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False"


def test_eval_with_msp_and_energy_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 9 ms of import; np.unique imports it for its mask
    # check, and metrics no longer calls np.unique. (ASH's np.percentile still does.)
    from oodbench import cli

    tiny = ["--out", str(tmp_path), "--set", "data.per_class=8", "--set", "data.test_per_class=4",
            "--set", "data.aux.count=16", "--set", 'data.ood_sets={"ring": {"count": 8}}',
            "--set", "model.hidden=[4]", "--set", "train.epochs=1",
            "--set", 'scores=[{"kind": "msp"}, {"kind": "energy"}]']
    assert cli.main([*tiny, "gen-data"]) == 0 and cli.main([*tiny, "train"]) == 0
    script = ("import sys\nfrom oodbench import cli\nassert cli.main(sys.argv[1:]) == 0\n"
              "print('numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", script, *tiny, "eval"], env=_fresh_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False"


# Prints the package modules loaded after the set-up path of perfbench/child.py
# (import cli and config, parse a config) or after `cli.main(argv)`.
LOADED_SCRIPT = """
import json, runpy, sys
if sys.argv[1] == "setup":
    runpy.run_path(sys.argv[2])["setup"](*sys.argv[3:])
else:
    from oodbench import cli
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m.split(".")[1] for m in sys.modules if m.startswith("oodbench."))))
"""
# The modules every entry loads: cli and config, which imports only errors, so
# perfbench's set-up path loads nothing more. Every command also loads data and
# numerics (numpy), where it reads, writes or draws.
COMMON_MODULES = {"cli", "config", "errors"}
DATA = {"data", "numerics"}
# What each entry loads beside them: a command imports a module only it runs when
# it runs. The model stack (model, autodiff, losses) loads only where a model is
# trained or scored, and extrapolation only where outliers may be synthesized.
MODEL_STACK = {"model", "autodiff", "losses"}
ENTRY_MODULES = [
    pytest.param("setup", set(), id="perfbench-setup"),
    pytest.param("gen-data", DATA, id="gen-data"),
    pytest.param("train", {"trainer", "extrapolation", *MODEL_STACK, *DATA}, id="train"),
    pytest.param("eval", {"scoring", "metrics", *MODEL_STACK, *DATA}, id="eval"),
    pytest.param("extrapolate", {"extrapolation", "scoring", *MODEL_STACK, *DATA},
                 id="extrapolate"),
    pytest.param("theory-verify", {"gmm_theory", *DATA}, id="theory-verify"),
    pytest.param("report", {"metrics", *DATA}, id="report"),
    pytest.param("gradcheck", {"gradcheck", "trainer", "scoring", "extrapolation", *MODEL_STACK,
                               *DATA}, id="gradcheck"),
]


@pytest.mark.parametrize("entry, modules", ENTRY_MODULES)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, entry, modules):
    from oodbench import cli

    run = tmp_path / "run"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"data": {"per_class": 8, "test_per_class": 4,
                                           "aux": {"count": 16},
                                           "ood_sets": {"ring": {"count": 8}}},
                                  "model": {"hidden": [4]}, "train": {"epochs": 1},
                                  "theory": {"trials": 3}}), encoding="utf-8")
    base = ["--config", str(config), "--out", str(run)]
    for command in ("gen-data", "train", "eval"):
        assert cli.main([*base, command]) == 0
    args = {"setup": ["setup", str(CHILD), str(config), "0", str(run)],
            "extrapolate": [*base, "extrapolate", "--input", str(run / "aux_out.csv"),
                            "--dump", str(run / "extrap.csv")],
            "report": ["report", str(run / "report.json"), "--out-csv", str(run / "all.csv")],
            "gradcheck": ["gradcheck", "--cases", "1"]}.get(entry, [*base, entry])
    result = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, *args], env=_fresh_env(),
                            capture_output=True, text=True, check=True)
    assert set(json.loads(result.stdout.splitlines()[-1])) == COMMON_MODULES | modules


# Runs perfbench/child.py's set-up path, or `python -m oodbench ARGV`, then
# prints its exit code and whether numpy was imported.
NUMPY_FREE_SCRIPT = """
import runpy, sys
code = 0
try:
    if sys.argv[1] == "setup":
        runpy.run_path(sys.argv[2])["setup"](*sys.argv[3:])
    else:
        sys.argv = ["oodbench", *sys.argv[1:]]
        runpy.run_module("oodbench", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules)
"""
NUMPY_FREE_RUNS = [
    pytest.param(["setup", str(CHILD), "cfg.json", "0", "run"], 0, id="perfbench-setup"),
    pytest.param(["--help"], 0, id="help-0"),
    pytest.param(["--set", "train.loss.kind=bogus", "train"], 2, id="bogus-loss-kind-2"),
    pytest.param(["theory-verify", "--out-csv", ""], 2, id="theory-verify-no-file-2"),
    pytest.param(["extrapolate", "--input", "in.csv", "--dump", "in.csv"], 2,
                 id="extrapolate-dump-is-input-2"),
    pytest.param(["report", "r.json", "--out-csv", "r.json"], 2, id="report-out-is-input-2"),
]


@pytest.mark.parametrize("argv, code", NUMPY_FREE_RUNS)
def test_set_up_help_and_refused_arguments_import_no_numpy(tmp_path, argv, code):
    # Parsing a config or the arguments needs no numpy, so none of these pays its import.
    (tmp_path / "cfg.json").write_text("{}", encoding="utf-8")
    result = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT, *argv], cwd=tmp_path,
                            env=_fresh_env(), capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines()[-1] == f"{code} False", result.stderr
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


# `python -m oodbench` runs __main__.py, which must pass main()'s return to sys.exit:
# (arguments, exit code), each run in a fresh interpreter from an empty directory.
MODULE_RUNS = [
    pytest.param(["gradcheck", "--cases", "1"], 0, id="gradcheck-0"),
    pytest.param(["--set", "train.loss.kind=bogus", "train"], 2, id="bogus-loss-kind-2"),
    pytest.param(["report", "missing.json", "--out-csv", "merged.csv"], 3, id="missing-report-3"),
    pytest.param(["--set", "theory.alpha=0.1", "--set", "theory.trials=1", "theory-verify"], 4,
                 id="infeasible-level-4"),
]


@pytest.mark.parametrize("argv, code", MODULE_RUNS)
def test_python_m_oodbench_passes_the_exit_code_through(tmp_path, argv, code):
    result = subprocess.run([sys.executable, "-m", "oodbench", *argv], cwd=tmp_path,
                            env=_fresh_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == code
    errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == (code != 0)
    assert "Traceback" not in result.stderr


# Public definitions that no module of the package uses, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "losses.oe_total_loss_expr": "the plain-OE graph that perfbench/micro.py times",
    "config.ScoreSpec.odin_default": "the ODIN spec that perfbench/micro.py scores with",
    "model.make_param_nodes": "the θ binding perfbench/micro.py passes to logits_graph",
}


def _unreferenced_public_definitions(src: Path) -> set[str]:
    """Public top-level functions, classes and methods whose name no module uses.

    Matching is by bare name, so a use of one definition also covers any other
    definition of the same name (``numerics.softmax`` and a graph ``softmax``).
    """
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {qualified for qualified, name in defined.items()
            if not name.startswith("_") and name not in used}


def test_every_public_definition_is_used_in_the_package():
    src = Path(oodbench.__file__).resolve().parent
    assert _unreferenced_public_definitions(src) == set(UNREFERENCED_ALLOWED)


def test_the_benchmark_still_calls_each_allowed_definition():
    # Once the benchmark stops calling one, this names the definition to delete.
    names = set()
    for path in (CHILD, CHILD.with_name("micro.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    assert {q for q in UNREFERENCED_ALLOWED if q.rsplit(".", 1)[1] not in names} == set()


def test_each_exit_code_has_one_error_class():
    assert {cls: cls.exit_code for cls in OodbenchError.__subclasses__()} == \
        {ConfigError: 2, DataError: 3, NumericError: 4}
