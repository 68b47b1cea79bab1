import json
import os
import subprocess
import sys
from pathlib import Path

import oodbench

SCRIPT = """
import importlib, json, pkgutil, sys
import oodbench
names = [m.name for m in pkgutil.iter_modules(oodbench.__path__, "oodbench.")
         if m.name != "oodbench.__main__"]
for name in names:
    importlib.import_module(name)
print(json.dumps([names, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_every_module_imports_without_scipy():
    # A fresh interpreter, so nothing the test session imported is counted;
    # __main__ is skipped because importing it runs the CLI.
    src = str(Path(oodbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                            text=True, check=True)
    names, scipy_modules = json.loads(result.stdout)
    assert scipy_modules == []
    assert {"oodbench.cli", "oodbench.metrics", "oodbench.scoring"} <= set(names)
