"""Where the tracer hooks into each layer, and the per-layer metrics it yields.

Each hook names the module whose global (or class attribute) the caller looks
up: ``run_pipeline`` calls ``build_stage`` through ``dominofill.tower``, the CLI
calls ``serialize_tiling`` through ``dominofill.cli.main``, and ``finalize``
imports ``decode`` from ``dominofill.sft`` at call time.
"""

from __future__ import annotations

import math
import os

import numpy as np

from spans import Tracer, summarize


def _build_stage_name(args) -> str:
    return f"tower.build_stage.s{args[1].stage}"


def _build_stage_counts(tracer, span, args, result) -> dict:
    return {"towers": int(args[1].count), "blocks": len(result.blocks)}


def _decode_counts(tracer, span, args, result) -> dict:
    discarded = len(result.partials) if tracer.parent_name(span) == "tower.finalize" else 0
    return {"partials_discarded": discarded}


def _concat_counts(tracer, span, args, result) -> dict:
    rows = len(args[0]) + len(args[1])
    return {"rows_copied": rows, "bytes": rows * (4 + 8 * result.dim)}


def _cells_painted(tracer, span, args, result) -> dict:
    tiling = args[0]
    volumes = np.array([math.prod(tiling.tile_shapes[t]) for t in tiling.tile_order])
    return {"cells_painted": int(volumes[tiling.codes].sum()) if len(tiling) else 0}


HOOKS = [
    ("dominofill.cli.main", "cmd_build", "cli.build", None),
    ("dominofill.cli.main", "cmd_verify", "cli.verify", None),
    ("dominofill.cli.main", "validate_family", "numerics.validate_family", None),
    ("dominofill.cli.main", "plan_stages", "tower.plan_stages", None),
    ("dominofill.cli.main", "run_pipeline", "tower.run_pipeline", None),
    ("dominofill.tower", "build_stage", _build_stage_name, _build_stage_counts),
    ("dominofill.tower", "finalize", "tower.finalize", None),
    ("dominofill.tower", "redistribute", "tower.redistribute", None),
    ("dominofill.tower", "validate_word", "sft.validate_word",
     lambda tr, sp, args, res: {"cells": args[0].box.volume}),
    ("dominofill.sft", "decode", "sft.decode", _decode_counts),
    ("dominofill.sft", "Tiling.concat", "sft.Tiling.concat", _concat_counts),
    ("dominofill.sft", "Tiling.sorted_canonical", "sft.Tiling.sorted_canonical", None),
    ("dominofill.tower", "fill_between", "brickfill.fill_between", None),
    ("dominofill.brickfill", "BrickWall.pattern_over", "brickfill.BrickWall.pattern_over", None),
    ("dominofill.rng", "SplitMix64.shuffle", "rng.SplitMix64.shuffle",
     lambda tr, sp, args, res: {"items": len(args[1])}),
    ("dominofill.cli.main", "serialize_tiling", "cli.files.serialize_tiling",
     lambda tr, sp, args, res: {"bytes": len(res)}),
    ("dominofill.cli.main", "write_atomic", "cli.files.write_atomic", None),
    ("dominofill.cli.main", "load_any", "cli.files.load_any",
     lambda tr, sp, args, res: {"bytes": os.path.getsize(args[0])}),
    ("dominofill.cli.main", "verify_tiling", "cli.verify.verify_tiling", _cells_painted),
]


def _kept_ratio(tracer: Tracer) -> float:
    """Stage-2 ``fill_between`` calls (blocks pasted) per stage-1 block built."""
    built = sum(s.counts["blocks"] for s in tracer.spans if s.name == "tower.build_stage.s1")
    kept = sum(
        1
        for s in tracer.spans
        if s.name == "brickfill.fill_between" and tracer.parent_name(s) == "tower.build_stage.s2"
    )
    return kept / built if built else 0.0


# (metric, span name, summary field); the units live in BENCHMARK.json.
FROM_SUMMARY = [
    ("numerics.validate_family.s", "numerics.validate_family", "total_s"),
    ("tower.plan_stages.s", "tower.plan_stages", "total_s"),
    ("tower.build_stage.s1.s", "tower.build_stage.s1", "self_s"),
    ("tower.build_stage.s2.s", "tower.build_stage.s2", "self_s"),
    ("tower.build_stage.towers.s1", "tower.build_stage.s1", "towers"),
    ("tower.build_stage.towers.s2", "tower.build_stage.s2", "towers"),
    ("tower.finalize.self_s", "tower.finalize", "self_s"),
    ("tower.redistribute.self_s", "tower.redistribute", "self_s"),
    ("sft.validate_word.s", "sft.validate_word", "total_s"),
    ("sft.validate_word.cells", "sft.validate_word", "cells"),
    ("sft.decode.calls", "sft.decode", "calls"),
    ("sft.decode.s", "sft.decode", "total_s"),
    ("sft.decode.partials_discarded", "sft.decode", "partials_discarded"),
    ("sft.Tiling.concat.calls", "sft.Tiling.concat", "calls"),
    ("sft.Tiling.concat.rows_copied", "sft.Tiling.concat", "rows_copied"),
    ("sft.Tiling.concat.bytes", "sft.Tiling.concat", "bytes"),
    ("sft.Tiling.sorted_canonical.calls", "sft.Tiling.sorted_canonical", "calls"),
    ("sft.Tiling.sorted_canonical.s", "sft.Tiling.sorted_canonical", "total_s"),
    ("brickfill.fill_between.calls", "brickfill.fill_between", "calls"),
    ("brickfill.fill_between.s", "brickfill.fill_between", "total_s"),
    ("brickfill.BrickWall.pattern_over.calls", "brickfill.BrickWall.pattern_over", "calls"),
    ("brickfill.BrickWall.pattern_over.s", "brickfill.BrickWall.pattern_over", "total_s"),
    ("rng.SplitMix64.shuffle.items", "rng.SplitMix64.shuffle", "items"),
    ("rng.SplitMix64.shuffle.s", "rng.SplitMix64.shuffle", "total_s"),
    ("cli.files.serialize_tiling.s", "cli.files.serialize_tiling", "total_s"),
    ("cli.files.serialize_tiling.bytes", "cli.files.serialize_tiling", "bytes"),
    ("cli.files.write_atomic.s", "cli.files.write_atomic", "total_s"),
    ("cli.files.load_any.s", "cli.files.load_any", "total_s"),
    ("cli.files.load_any.bytes", "cli.files.load_any", "bytes"),
    ("cli.verify.verify_tiling.s", "cli.verify.verify_tiling", "total_s"),
    ("cli.verify.verify_tiling.cells_painted", "cli.verify.verify_tiling", "cells_painted"),
]


def layer_metrics(tracer: Tracer, overhead_s: float) -> tuple[dict, dict]:
    """(per-layer metric values, per-span-name summary) of one traced pass."""
    summary = summarize(tracer.spans)
    values = {
        metric: summary.get(name, {}).get(key, 0) for metric, name, key in FROM_SUMMARY
    }
    values["tower.build_stage.kept_ratio"] = _kept_ratio(tracer)
    values["trace.overhead_s"] = overhead_s
    return values, summary
