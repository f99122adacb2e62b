"""The experiment scripts run end to end, and README's library import line resolves."""

import json
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


def test_compare_digests_reports_each_op(tmp_path):
    ops = [{"seed": s, "digests": {"tiling.txt": f"t{s}", "report.json": f"r{s}"}}
           for s in (1, 2)]
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "flagship-seed1-trace1.json").write_text(
            json.dumps({"ops": ops}), encoding="utf-8")
    args = str(tmp_path / "base"), str(tmp_path / "head")
    rows = [line for line in run_script("compare_digests.py", *args).splitlines()
            if line.startswith("| flagship")]
    assert rows == ["| flagship-seed1-trace1 | 1 | same |", "| flagship-seed1-trace1 | 2 | same |"]
    ops[1]["digests"]["tiling.txt"] = "edited"
    (tmp_path / "head" / "flagship-seed1-trace1.json").write_text(
        json.dumps({"ops": ops[1:]}), encoding="utf-8")
    (tmp_path / "head" / "line_countable-seed1-trace1.json").write_text(
        json.dumps({"ops": ops}), encoding="utf-8")
    stdout = run_script("compare_digests.py", *args)
    assert "| flagship-seed1-trace1 | 1 | missing in head |" in stdout
    assert "| flagship-seed1-trace1 | 2 | differ: tiling.txt |" in stdout
    assert "| line_countable-seed1-trace1 | - | no base run |" in stdout
    assert stdout.rstrip().endswith("3 of 3 rows not the same.")


def test_readme_import_line_resolves():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^from dominofill import \(.*?\)$", readme, re.M | re.S)
    assert match, "README has no `from dominofill import (...)` line"
    namespace: dict = {}
    exec(compile(match.group(0), "README.md", "exec"), namespace)
    assert namespace["run_pipeline"] is dominofill.run_pipeline
