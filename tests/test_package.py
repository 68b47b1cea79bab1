import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import oodbench
from oodbench.errors import ConfigError, DataError, NumericError, OodbenchError

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
    src = str(Path(oodbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                            text=True, check=True)
    names, added = json.loads(result.stdout)
    assert added == ["numpy", "oodbench"]
    assert {"oodbench.cli", "oodbench.metrics", "oodbench.scoring"} <= set(names)


# Public definitions that no module of the package uses, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "losses.oe_total_loss_expr": "the plain-OE graph that perfbench/micro.py times",
    "scoring.ScoreSpec.odin_default": "the ODIN spec that perfbench/micro.py scores with",
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


def test_each_exit_code_has_one_error_class():
    assert {cls: cls.exit_code for cls in OodbenchError.__subclasses__()} == \
        {ConfigError: 2, DataError: 3, NumericError: 4}
