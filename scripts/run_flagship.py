#!/usr/bin/env python3
"""Run one staged build of the flagship 3x2 / 2x3 family and save the output.

Builds the window with the staged tower construction, redistributes the
large bricks onto the requested frequencies, verifies the result with the
independent checker, and writes tiling.txt plus report.json to --out.
"""

import argparse
import json
import os
import time
from fractions import Fraction

from dominofill import (
    Box,
    TargetDistribution,
    plan_stages,
    run_pipeline,
    validate_family,
)
from dominofill.cli.files import file_blocks, write_atomic
from dominofill.cli.verify import verify_tiling


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--window", type=int, default=4096, help="window side length")
    parser.add_argument(
        "--probs", default="2/5 3/5", help="target frequencies, space separated"
    )
    parser.add_argument(
        "--sides", default="64 512", help="tower side per stage, space separated"
    )
    parser.add_argument("--out", default="out-flagship")
    args = parser.parse_args()

    family = validate_family([(3, 2), (2, 3)])
    targets = TargetDistribution.of([Fraction(p) for p in args.probs.split()])
    sides = tuple(int(s) for s in args.sides.split())
    plan = plan_stages(family, targets, mode="relaxed", sides=sides)
    window = Box((0, 0), (args.window, args.window))

    start = time.perf_counter()
    result = run_pipeline(plan, window, args.seed)
    elapsed = time.perf_counter() - start
    errors = verify_tiling(result.tiling, window)

    os.makedirs(args.out, exist_ok=True)
    write_atomic(
        os.path.join(args.out, "tiling.txt"),
        file_blocks(result.tiling, args.seed, "text"),
    )
    report = {
        "seed": args.seed,
        "elapsed_seconds": round(elapsed, 2),
        "verifier_errors": errors,
        "pre": result.pre_report.to_dict(),
        "post": result.report.to_dict(),
    }
    write_atomic(
        os.path.join(args.out, "report.json"), json.dumps(report, indent=2) + "\n"
    )

    print(f"built {args.window}^2 window with seed {args.seed} in {elapsed:.1f}s")
    print(f"verifier errors: {len(errors)}")
    print(f"uncovered fraction: {float(result.report.uncovered_fraction):.4f}")
    for tile, delta in result.report.deltas().items():
        print(f"tile {tile}: frequency delta {float(delta):+.6f}")
    print(f"wrote {args.out}/tiling.txt and {args.out}/report.json")


if __name__ == "__main__":
    main()
