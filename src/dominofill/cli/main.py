"""Argument parsing and subcommand orchestration.

Subcommands: plan, build, fill, redistribute, verify, stats, render.  All
run parameters come from an INI config (see config.py); a few flags override
it per invocation.  The only environment variable honoured is
``DOMINOFILL_LOG`` (log level).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import sys

from ..brickfill import BrickWall, fill_between
from ..geometry import Box, expand
from ..numerics import FamilyError, validate_family
from ..sft import Tiling, build_alphabet
from ..tower import (
    FrequencyReport,
    Infeasible,
    InvalidTargets,
    NonpositiveTarget,
    TargetDistribution,
    TargetsInfeasible,
    WindowTooSmall,
    plan_stages,
    redistribute,
    run_pipeline,
)
from .config import (
    ConfigError,
    RunConfig,
    cells_in_int64,
    load_config,
    serialize_config,
)
from .files import ParseError, file_blocks, load_any, write_atomic
from .files import serialize_tiling  # noqa: F401 - the benchmark's tracer hooks it here
from .render import RenderError, render_ascii, render_svg
from .verify import MAX_PAINT_CELLS, verify_tiling, verify_word

log = logging.getLogger("dominofill")

USER_ERRORS = (
    ConfigError,
    FamilyError,
    Infeasible,
    InvalidTargets,
    NonpositiveTarget,
    OSError,
    ParseError,
    RenderError,
    TargetsInfeasible,
    WindowTooSmall,
)


def _setup_logging() -> None:
    level_name = os.environ.get("DOMINOFILL_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_with_overrides(args) -> RunConfig:
    """The config, with each ``[run]`` key that a flag of the same name gives replaced."""
    given = {key: v for key, v in vars(args).items() if v is not None}
    return load_config(args.config).with_run_keys(given)


def _family_and_plan(cfg: RunConfig):
    family = validate_family(cfg.shapes, cfg.dim)
    targets = TargetDistribution.of(cfg.targets, cfg.tail_mass)
    plan = plan_stages(
        family,
        targets,
        count=cfg.count,
        mode=cfg.mode,
        sides=cfg.sides,
        error_budgets=cfg.error_budgets,
        gaps=cfg.gaps,
        cutoffs=cfg.cutoffs,
    )
    return family, targets, plan


def _window(cfg: RunConfig) -> Box:
    return Box(cfg.window_anchor, cfg.window_shape)


def _write(path_stem: str, tiling_or_word, seed: int) -> str:
    """Write a tiling or a word to ``path_stem`` plus ``.txt``; return the path."""
    path = path_stem + ".txt"
    write_atomic(path, file_blocks(tiling_or_word, seed))
    return path


def _load_tiling(path: str, verified: bool = True) -> Tiling:
    """The tiling in ``path``; if ``verified``, one ``verify_tiling`` refuses is a user error."""
    loaded = load_any(path)
    if loaded.kind != "tiling":
        raise ParseError(f"{path} is not a tiling file")
    if verified and (problems := verify_tiling(loaded.tiling)):
        raise ParseError(f"{path} fails verify, {len(problems)} violations: {problems[0]}")
    return loaded.tiling


def cmd_plan(args) -> int:
    cfg = _load_with_overrides(args)
    family, targets, plan = _family_and_plan(cfg)
    print(f"family: {len(family.shapes)} tiles, d={family.dim}")
    print(f"large brick: {family.large_shape}  threshold: {family.threshold}  "
          f"fill length: {family.fill_length}")
    print(f"mode: {plan.mode}  stages: {plan.stage_count}"
          + (f"  cutoffs: {plan.cutoffs}" if plan.countable else ""))
    for i, s in enumerate(plan.stages, start=1):
        extra = f"  cutoff: {s.cutoff}  tail mass: {s.tail_mass}" if plan.countable else ""
        print(f"stage {i}: side {s.side}  collar {s.collar}  gap {s.gap}  "
              f"budget {s.error_budget}{extra}")
    bound = plan.predicted_uncovered_bound(cfg.window_shape)
    print(f"window {cfg.window_shape}: predicted uncovered bound {bound} "
          f"(~{float(bound):.4f})")
    return 0


def cmd_build(args) -> int:
    cfg = _load_with_overrides(args)
    _, _, plan = _family_and_plan(cfg)
    window = _window(cfg)
    log.info("building window %s with seed %d", window, cfg.seed)
    result = run_pipeline(plan, window, cfg.seed)
    out = cfg.out_dir
    paths = [
        _write(os.path.join(out, "tiling"), result.tiling, cfg.seed),
        _write(os.path.join(out, "tiling_pre"), result.pre_tiling, cfg.seed),
    ]
    report_doc = {
        "schema": 1,
        "seed": cfg.seed,
        "config": serialize_config(cfg),
        "pre": result.pre_report.to_dict(),
        "post": result.report.to_dict(),
        "predicted_uncovered_bound": float(
            plan.predicted_uncovered_bound(cfg.window_shape)
        ),
    }
    report_path = os.path.join(out, "report.json")
    write_atomic(report_path, json.dumps(report_doc, sort_keys=True, indent=2) + "\n")
    paths.append(report_path)
    post = result.report
    print(f"covered {post.covered_cells}/{post.window_cells} cells "
          f"({1 - float(post.uncovered_fraction):.4f})")
    for tile, delta in sorted(post.deltas().items()):
        print(f"tile {tile}: freq {float(post.frequency(tile)):.5f} "
              f"(target delta {float(delta):+.5f})")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_fill(args) -> int:
    cfg = _load_with_overrides(args)
    if cfg.fill_inner is None or cfg.fill_outer is None or cfg.fill_anchor is None:
        raise ConfigError("fill needs [fill] inner_translate, outer_translate, box_anchor, box_shape")
    family = validate_family(cfg.shapes, cfg.dim)
    box = Box(cfg.fill_anchor, cfg.fill_shape)
    region = expand(box, family.fill_length)
    reach = expand(region, max(family.large_shape) - 1)  # the wall bricks that meet it
    if not cells_in_int64(reach.anchor, reach.shape):
        raise ConfigError(f"[fill] box_anchor: bricks that meet fill region {region} leave int64")
    if region.volume > MAX_PAINT_CELLS:
        raise ConfigError(f"[fill] box_shape: fill region {region} has {region.volume} cells, "
                          f"more than {MAX_PAINT_CELLS}")
    alphabet = build_alphabet(family)
    inner = BrickWall(alphabet, "P", cfg.fill_inner)
    outer = BrickWall(alphabet, "P", cfg.fill_outer)
    filled = fill_between(inner, box, outer, family)
    word = filled.materialize(region)
    path = _write(os.path.join(cfg.out_dir, "fill"), word, cfg.seed)
    print(f"filled {region} between translates {cfg.fill_inner} and {cfg.fill_outer}")
    print(f"wrote {path}")
    return 0


def cmd_redistribute(args) -> int:
    cfg = _load_with_overrides(args)
    tiling = _load_tiling(args.file)
    if tiling.window is None:
        raise ParseError("redistribution needs a tiling with a window")
    _check_family(cfg, tiling)
    targets = TargetDistribution.of(cfg.targets, cfg.tail_mass)
    shapes = dict(tiling.tile_shapes)
    for j, s in enumerate(cfg.shapes, start=1):
        shapes.setdefault(j, tuple(s))
    result = redistribute(tiling, targets, cfg.seed, shapes)
    path = _write(os.path.join(cfg.out_dir, "redistributed"), result, cfg.seed)
    print(f"wrote {path}")
    return 0


def _check_family(cfg, tiling) -> None:
    """Refuse a config of another family than the tiling's: another dimension,
    or a small tile whose shape differs from its shape in the tiling header."""
    if tiling.dim != cfg.dim:
        raise ConfigError(f"config has dim {cfg.dim}, the tiling has dim {tiling.dim}")
    for tile, shape in enumerate(map(tuple, cfg.shapes), start=1):
        have = tiling.tile_shapes.get(tile, shape)
        if have != shape:
            shapes = ("x".join(map(str, s)) for s in (shape, have))
            raise ConfigError("config tile {} has shape {}, the tiling has {}".format(tile, *shapes))


def cmd_verify(args) -> int:
    loaded = load_any(args.file)
    if loaded.kind == "tiling":
        problems = verify_tiling(loaded.tiling)
    else:
        problems = verify_word(loaded.word)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"FAIL: {len(problems)} violations in {args.file}", file=sys.stderr)
        return 1
    print(f"OK: {args.file}")
    return 0


def cmd_stats(args) -> int:
    tiling = _load_tiling(args.file)
    targets = None
    if args.config:
        cfg = load_config(args.config)
        _check_family(cfg, tiling)
        targets = TargetDistribution.of(cfg.targets, cfg.tail_mass)
    report = FrequencyReport.of_tiling(tiling, targets)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def cmd_render(args) -> int:
    tiling = _load_tiling(args.file, verified=False)  # an overlap can be looked at
    out_dir = args.out or "out"
    if tiling.dim == 1:
        path = os.path.join(out_dir, "render.txt")
        write_atomic(path, render_ascii(tiling))
    else:
        path = os.path.join(out_dir, "render.svg")
        write_atomic(path, render_svg(tiling))
    print(f"wrote {path}")
    return 0


# One row per subcommand: name, help line, positional file, --config (required:
# True, optional: False, not taken: None) and the [run] keys it takes as flags,
# each read as the INI file reads its key.  render reads no config: its --out
# is where it writes.
FLAG_HELP = {"seed": "the run's seed", "mode": "strict or relaxed",
             "window": "window extents, e.g. 4096,4096", "out": "output directory",
             "format": "file format: text"}
COMMANDS = (
    ("plan", "validate and print a stage schedule", False, True, tuple(FLAG_HELP)),
    ("build", "run the staged pipeline and write tilings", False, True, tuple(FLAG_HELP)),
    ("fill", "fill between two wall translates", False, True, ("seed", "out", "format")),
    ("redistribute", "relabel bricks to hit targets", True, True, ("seed", "out", "format")),
    ("verify", "independently check a tiling or word file", True, None, ()),
    ("stats", "frequency report for a tiling file", True, False, ()),
    ("render", "SVG (d=2) or ASCII (d=1) picture", True, None, ("out",)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, built once.  ``main`` looks each command up
    by name when it runs it, so a ``cmd_*`` replaced on this module takes effect."""
    parser = argparse.ArgumentParser(
        prog="dominofill",
        description="Tilings of lattice windows by rectangles with coprime sides.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_line, takes_file, config, flags in COMMANDS:
        sub = subs.add_parser(name, help=help_line)
        if takes_file:
            sub.add_argument("file")
        if config is not None:
            sub.add_argument("--config", required=config, help="the INI run config")
        for key in flags:
            sub.add_argument("--" + key, help=FLAG_HELP[key])
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        status = globals()["cmd_" + args.command](args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed reader is met here, not in the exit flush
        return status
    except BrokenPipeError:
        # The reader closed stdout (``dominofill plan | head -1``): stop
        # quietly with 128 + SIGPIPE, as a process the signal ends does.
        # The rest of stdout's buffer goes to the null device at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError, ValueError):  # stdout may have no descriptor
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
