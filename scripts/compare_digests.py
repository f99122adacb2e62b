#!/usr/bin/env python3
"""Compare the output digests of two perfbench result directories.

Each ``perfbench/run.py`` run writes ``<workload>-seed<n>-trace<t>.json`` with
one record per op, and each record holds the sha256 digests of the op's
output files.  For every run file in HEAD_DIR and the file of the same name
in BASE_DIR, this prints one markdown table row per op seed: ``same``,
``differ`` (naming the files), or ``missing`` when one side has no record of
that seed; a run file that BASE_DIR lacks gets one ``no base run`` row.  The
table is a report and not a gate: the exit status is 0 whatever the digests
say.

    python3 scripts/compare_digests.py BASE_DIR HEAD_DIR >> summary.md
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def op_digests(path: Path) -> dict[int, dict[str, str]]:
    """Each op seed's digests in one run file."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {op["seed"]: op["digests"] for op in doc["ops"]}


def compare(base_dir: Path, head_dir: Path) -> list[str]:
    """Markdown lines: a heading, a table with one row per (run file, seed), a tally."""
    lines = ["### Output digests against the base", "",
             "| run | seed | digests |", "| --- | --- | --- |"]
    rows = differing = 0
    for head_path in sorted(head_dir.glob("*-seed*-trace*.json")):
        base_path = base_dir / head_path.name
        if not base_path.is_file():
            rows, differing = rows + 1, differing + 1
            lines.append(f"| {head_path.stem} | - | no base run |")
            continue
        base, head = op_digests(base_path), op_digests(head_path)
        for seed in sorted(base.keys() | head.keys()):
            if seed not in base or seed not in head:
                verdict = f"missing in {'base' if seed not in base else 'head'}"
            elif base[seed] == head[seed]:
                verdict = "same"
            else:
                names = sorted(n for n in base[seed].keys() | head[seed].keys()
                               if base[seed].get(n) != head[seed].get(n))
                verdict = "differ: " + ", ".join(names)
            rows, differing = rows + 1, differing + (verdict != "same")
            lines.append(f"| {head_path.stem} | {seed} | {verdict} |")
    lines += ["", f"{differing} of {rows} rows not the same."]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", type=Path, help="the base checkout's .perfbench_out")
    parser.add_argument("head_dir", type=Path, help="this checkout's .perfbench_out")
    args = parser.parse_args(argv)
    print("\n".join(compare(args.base_dir, args.head_dir)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
