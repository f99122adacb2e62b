"""The experiment scripts and README's library example import the package top level."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dominofill

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script):
    src = str(Path(dominofill.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_readme_import_line_resolves():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^from dominofill import \(.*?\)$", readme, re.M | re.S)
    assert match, "README has no `from dominofill import (...)` line"
    namespace: dict = {}
    exec(compile(match.group(0), "README.md", "exec"), namespace)
    assert namespace["run_pipeline"] is dominofill.run_pipeline
