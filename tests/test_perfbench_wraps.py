"""The benchmark's traced mode wraps package functions by module and name
(``WRAPS`` in perfbench/child.py); each of them must exist, or a traced run
silently loses that layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # top-level imports are standard library only
    return module.WRAPS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in _wraps()],
                         ids=lambda v: v)
def test_wrap_point_exists(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
