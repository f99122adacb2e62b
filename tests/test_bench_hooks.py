"""Every function the benchmark tracer wraps exists in this checkout.

``perfbench/layers.py`` names its hooks as (module, attribute path) strings;
a rename or deletion in ``src/`` would otherwise surface only as an
AttributeError in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.append(str(REPO / "perfbench"))
try:
    from layers import HOOKS
finally:
    sys.path.remove(str(REPO / "perfbench"))


@pytest.mark.parametrize(
    "module, attr_path", [hook[:2] for hook in HOOKS], ids=lambda v: v
)
def test_hook_resolves(module, attr_path):
    target = importlib.import_module(module)
    assert Path(target.__file__).resolve().is_relative_to(REPO / "src"), target.__file__
    for name in attr_path.split("."):
        target = getattr(target, name)
    assert callable(target)
