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


@pytest.mark.parametrize(
    "ini, decodes",
    [(FLAGSHIP_INI, False), (TWO_STAGE_INI, True), (LINE_INI, True)],
    ids=["one_stage_many_blocks", "two_stage_one_top_block", "line_many_top_blocks"],
)
def test_traced_build_yields_every_metric(ini, decodes, tmp_path, monkeypatch, capsys):
    """Every metric is reported.  Only band templates are decoded, so a
    one-stage build, which has no band, decodes nothing."""
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
    values, _ = layer_metrics(tracer, 0.0)
    assert {metric for metric, _, _ in FROM_SUMMARY} <= set(values)
    if decodes:
        assert values["sft.decode.calls"] >= 1
    else:
        assert values["sft.decode.calls"] == 0
    assert values["cli.verify.verify_tiling.cells_painted"] > 0


def test_traced_build_validates_templates_only(tmp_path, monkeypatch, capsys):
    """A two-stage build checks its band templates, never the window's
    word: fewer cells are validated than the window holds."""
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(TWO_STAGE_INI, encoding="utf-8")
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        assert main(["build", "--config", "run.ini", "--out", "out"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    values, _ = layer_metrics(tracer, 0.0)
    assert 0 < values["sft.validate_word.cells"] < 1024 * 1024
