"""One op (a seeded ``build`` plus ``verify`` of its output) and the arithmetic
that turns a run's ops into end-to-end metrics."""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

OUTPUTS = ("tiling.txt", "tiling_pre.txt", "report.json")
TILING_MAGIC = "dominofill tiling v1"

# Op outcomes.  Every outcome but OK counts as failed; WRONG also makes the
# run incorrect, because the program wrote output that fails a check.
# REFUSED is a build that rejects its inputs with one of the expected
# refusals (see ``escalate_faults``); any other exception is an ERROR.
OK, REFUSED, ERROR, WRONG = "ok", "refused", "error", "wrong"


class InternalFault(Exception):
    """An exception of a command that is not an expected refusal of its inputs."""


def escalate_faults(module, attr: str, refusals: tuple[type[BaseException], ...]) -> None:
    """Let only ``refusals`` leave ``module.attr`` as themselves.

    The CLI reports every ``ValueError`` and ``OSError`` as a user error and
    exits 1, internal faults included.  Wrapped this way, any other exception
    of the command leaves as ``InternalFault``, which the CLI does not catch,
    so the op records it as an ERROR rather than a refusal.
    """
    original = getattr(module, attr)

    @functools.wraps(original)
    def command(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except refusals:
            raise
        except Exception as exc:
            raise InternalFault(f"{type(exc).__name__}: {exc}") from exc

    setattr(module, attr, command)


@dataclass
class OpResult:
    seed: int
    status: str
    reason: str = ""
    build_s: float = 0.0
    check_s: float = 0.0
    build_ref_s: float = 0.0
    check_ref_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    uncovered: float = 0.0
    max_abs_delta: float = 0.0
    cells: int = 0

    @property
    def wall_s(self) -> float:
        return self.build_s + self.check_s

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "status": self.status,
            "reason": self.reason,
            "build_s": self.build_s,
            "check_s": self.check_s,
            "build_ref_s": self.build_ref_s,
            "check_ref_s": self.check_ref_s,
            "digests": self.digests,
            "uncovered_fraction": self.uncovered,
            "max_abs_delta": self.max_abs_delta,
        }


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _call(cli_main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command with its output captured; returns (code, stderr, seconds)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli_main(argv)
        elapsed = time.perf_counter() - start
    return code, err.getvalue(), elapsed


def run_op(
    cli_main: Callable[[list[str]], int],
    seed: int,
    config: str,
    out_dir: str,
    targets: list[Fraction],
    cells: int,
    tolerance: Fraction,
    reference: Callable[[], float],
) -> OpResult:
    """Build from ``config`` into ``out_dir``, verify, and check frequencies.

    ``reference`` times the fixed reference work before the build, between
    build and verify, and after the verify; ``build_ref_s`` and
    ``check_ref_s`` are the means of the two reference times around each
    command.  An exception escaping the CLI is an internal fault: the op
    records its last traceback line and the run goes on.  ``out_dir`` is
    removed after.
    """
    result = OpResult(seed, OK, cells=cells)
    try:
        try:
            before = reference()
            code, err, result.build_s = _call(cli_main, ["build", "--config", config])
            if code != 0:
                lines = err.strip().splitlines()
                result.status, result.reason = REFUSED, lines[-1] if lines else f"exit {code}"
                return result
            tiling = os.path.join(out_dir, "tiling.txt")
            between = reference()
            code, err, result.check_s = _call(cli_main, ["verify", tiling])
            if code != 0 or err:
                result.status, result.reason = WRONG, f"verify: {err.strip()[:200]}"
                return result
            result.build_ref_s = (before + between) / 2
            result.check_ref_s = (between + reference()) / 2
        except Exception:  # noqa: BLE001 - the op boundary records any fault
            result.status = ERROR
            result.reason = traceback.format_exc().strip().splitlines()[-1]
            return result
        result.digests = {name: sha256_file(os.path.join(out_dir, name)) for name in OUTPUTS}
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            post = json.load(fh)["post"]
        try:
            counted = count_tile_cells(tiling)
        except (ValueError, KeyError, IndexError) as exc:
            result.status, result.reason = WRONG, f"tiling.txt unreadable: {exc!r}"
            return result
        check_frequencies(result, counted, post, targets, cells, tolerance)
        return result
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def count_tile_cells(path: str) -> tuple[int, dict[str, int]]:
    """(window cells, cells per tile id) counted from a text tiling file.

    The benchmark's own reading of the file, independent of the program's
    parser and of its report: the header gives the window and each tile's
    shape, and every later line is one placement whose first token is its tile.
    """
    with open(path, encoding="utf-8") as fh:
        header = [fh.readline().split() for _ in range(5)]
        placed = Counter(line.split(" ", 1)[0] for line in fh if line.strip())
    if " ".join(header[0]) != TILING_MAGIC or header[2][:1] != ["shapes"]:
        raise ValueError(f"{path} is not a text tiling file")
    dim = int(header[1][1])
    window = math.prod(int(e) for e in header[3][1 + dim:]) if header[3][1:] != ["none"] else 0
    volume = {}
    for token in header[2][1:]:
        tile, _, extents = token.partition(":")
        volume[tile] = math.prod(int(e) for e in extents.split("x"))
    return window, {tile: n * volume[tile] for tile, n in placed.items()}


def check_frequencies(
    result: OpResult,
    counted: tuple[int, dict[str, int]],
    post: dict,
    targets: list[Fraction],
    cells: int,
    tolerance: Fraction,
) -> None:
    """Exact per-tile deltas from the cells counted in the written tiling.

    ``counted`` is ``count_tile_cells`` of ``tiling.txt``.  The report must
    agree with it; the deltas and the uncovered fraction come from the count.
    """
    window, tile_cells = counted
    covered = sum(tile_cells.values())
    reported = {t: int(n) for t, n in post["tile_cells"].items() if int(n)}
    if window != cells or covered <= 0:
        result.status = WRONG
        result.reason = f"tiling covers {covered} of {window} cells, window {cells}"
        return
    if (reported != {t: n for t, n in tile_cells.items() if n}
            or int(post["covered_cells"]) != covered or int(post["window_cells"]) != window):
        result.status = WRONG
        result.reason = f"report cell counts {reported} differ from tiling.txt {tile_cells}"
        return
    deltas = [
        Fraction(tile_cells.get(str(j), 0), covered) - p
        for j, p in enumerate(targets, start=1)
    ]
    worst = max(abs(d) for d in deltas)
    result.max_abs_delta = float(worst)
    result.uncovered = float(1 - Fraction(covered, cells))
    if worst > tolerance:
        result.status, result.reason = WRONG, f"|delta| {float(worst):.5f} above {tolerance}"


def compare_digests(results: list[OpResult], reference: dict[int, dict[str, str]]) -> None:
    """Mark an op WRONG when its outputs differ from an earlier op of its seed."""
    for r in results:
        if r.status != OK:
            continue
        first = reference.setdefault(r.seed, r.digests)
        if first != r.digests:
            r.status, r.reason = WRONG, "output digests differ from an earlier op of this seed"


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """The highest of the usual percentiles with ``min_beyond`` samples above its rank."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if n - math.ceil(p / 100 * n) >= min_beyond:
            return p
    return None


def tally(results: list[OpResult]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over a run's ops."""
    failed = sum(1 for r in results if r.status != OK)
    correct = not any(r.status == WRONG for r in results)
    return len(results), failed, correct


def end_to_end(results: list[OpResult], setup_samples: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics over the ops that succeeded.

    Failed ops are counted by ``tally``; a refused build stops early, so its
    time would understate the cost of a build.  ``build_ref`` and
    ``check_ref`` are a command's summed time over the summed reference time
    around it: the mean time of one command in units of the reference work.
    """
    ok = [r for r in results if r.status == OK]
    builds = [r.build_s for r in ok]
    checks = [r.check_s for r in ok]
    cells = sum(r.cells for r in ok)
    build_ref = sum(builds) / sum(r.build_ref_s for r in ok)
    check_ref = sum(checks) / sum(r.check_ref_s for r in ok)
    return {
        "setup_s": statistics.median(setup_samples),
        "build_s": statistics.median(builds),
        "build_s_p75": percentile(builds, 75),
        "check_s": statistics.median(checks),
        "check_s_p75": percentile(checks, 75),
        "cells_per_s": cells / sum(r.wall_s for r in ok),
        "build_ref": build_ref,
        "check_ref": check_ref,
        "cells_per_ref": cells / len(ok) / (build_ref + check_ref),
        "peak_rss_mb": peak_rss_mb,
        "uncovered_fraction": statistics.fmean(r.uncovered for r in ok),
    }

