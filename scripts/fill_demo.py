#!/usr/bin/env python3
"""Fill between two mismatched brick walls and draw the transition collar.

Picks random wall translates, runs the filler around a small box,
verifies the stitched word cell by cell, and writes the collar's explicit
small-tile placements as an SVG drawing.
"""

import argparse
import random

from dominofill import Box, BrickWall, build_alphabet, expand, fill_between, validate_family
from dominofill.brickfill import placements_of
from dominofill.cli.files import write_atomic
from dominofill.cli.render import render_svg
from dominofill.cli.verify import verify_word
from dominofill.sft import Tiling


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--box", default="8 10", help="box extents, space separated")
    parser.add_argument("--out", default="collar.svg")
    args = parser.parse_args()

    family = validate_family([(3, 2), (2, 3)])
    alphabet = build_alphabet(family)
    period = alphabet.shape("P")
    rng = random.Random(args.seed)
    inner = BrickWall(alphabet, "P", tuple(rng.randrange(p) for p in period))
    outer = BrickWall(alphabet, "P", tuple(rng.randrange(p) for p in period))
    extents = tuple(int(x) for x in args.box.split())
    box = Box((0,) * len(extents), extents)

    fill = fill_between(inner, box, outer, family)
    region = expand(box, family.fill_length + 2)
    word = fill.materialize(region)
    errors = verify_word(word)

    print(f"inner translate {inner.translate}, outer translate {outer.translate}")
    print(f"box {box.shape} bridged inside a collar of width {family.fill_length}")
    print(f"verifier errors: {errors.total}")
    # The small tiles sort first, so their codes are the same in both tile tables.
    codes, anchors, _ = placements_of([fill], region)
    small = {t: s for t, s in alphabet.tile_shapes.items() if isinstance(t, int)}
    keep = codes < len(small)
    collar = Tiling(small, codes[keep], anchors[keep], fill.footprint)
    print(f"collar uses {len(collar)} small tiles")
    write_atomic(args.out, render_svg(collar))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
