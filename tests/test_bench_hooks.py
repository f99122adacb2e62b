"""The benchmark tracer's hooks resolve and its counts survive a traced build.

``perfbench/layers.py`` names its hooks as (module, attribute path) strings
and derives counts from each hooked call's arguments and result; a rename in
``src/``, or a changed result type, would otherwise surface only as an error
in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from test_cli import FLAGSHIP_INI, LINE_INI, TWO_STAGE_INI

from dominofill.cli.main import main

REPO = Path(__file__).resolve().parent.parent
sys.path.append(str(REPO / "perfbench"))
try:
    from layers import FROM_SUMMARY, HOOKS, layer_metrics
    from spans import Tracer
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


def traced_build(ini, tmp_path, monkeypatch, capsys):
    """Build and verify ``ini`` under the tracer; return its layer metrics."""
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(ini, encoding="utf-8")
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        assert main(["build", "--config", "run.ini", "--out", "out"]) == 0
        assert main(["verify", "out/tiling.txt"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return layer_metrics(tracer, 0.0)[0]


@pytest.mark.parametrize(
    "ini",
    [FLAGSHIP_INI, TWO_STAGE_INI, LINE_INI],
    ids=["one_stage_many_blocks", "two_stage_one_top_block", "line_many_top_blocks"],
)
def test_traced_build_yields_every_metric(ini, tmp_path, monkeypatch, capsys):
    """Every metric is reported.  The build writes no word: walls and bands
    are read from their lattices and fills in closed form, so no build
    decodes or validates a cell, bands or not."""
    values = traced_build(ini, tmp_path, monkeypatch, capsys)
    assert {metric for metric, _, _ in FROM_SUMMARY} <= set(values)
    assert values["sft.decode.calls"] == 0
    assert values["sft.validate_word.cells"] == 0
    if ini is not FLAGSHIP_INI:  # a two-stage build fills bands all the same
        assert values["brickfill.fill_between.calls"] >= 1
    assert values["cli.verify.verify_tiling.cells_painted"] > 0


def test_traced_build_validates_templates_only(tmp_path, monkeypatch, capsys):
    """A two-stage build checks its band fills, never the window's word: its
    bands are filled, yet not one cell is validated as a word."""
    values = traced_build(TWO_STAGE_INI, tmp_path, monkeypatch, capsys)
    assert values["brickfill.fill_between.calls"] >= 1
    assert values["sft.validate_word.cells"] == 0
