"""The experiment scripts run end to end, and README's library import line resolves."""

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


def run_script(name, *args):
    src = str(Path(dominofill.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script):
    assert "usage:" in run_script(script.name, "--help")


def test_fill_demo_runs(tmp_path):
    out = tmp_path / "c.svg"
    assert "verifier errors: 0" in run_script("fill_demo.py", "--out", str(out))
    assert "<svg" in out.read_text(encoding="utf-8")


def test_window_sweep_runs():
    lines = run_script("window_sweep.py", "--windows", "1024", "--seeds", "1").splitlines()
    assert len(lines) == 2 and lines[1].split()[:2] == ["1024", "1"]


def test_run_flagship_runs(tmp_path):
    stdout = run_script("run_flagship.py", "--window", "1024", "--out", str(tmp_path))
    assert "verifier errors: 0" in stdout
    assert (tmp_path / "tiling.txt").exists() and (tmp_path / "report.json").exists()


def test_readme_import_line_resolves():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^from dominofill import \(.*?\)$", readme, re.M | re.S)
    assert match, "README has no `from dominofill import (...)` line"
    namespace: dict = {}
    exec(compile(match.group(0), "README.md", "exec"), namespace)
    assert namespace["run_pipeline"] is dominofill.run_pipeline
