"""Config parsing, file formats, independent verification, and the CLI."""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    in_window,
    load_text,
    placements,
    same_placements,
    set_cell,
    tiling_from_parts,
    verify_tiling_by_rows,
)

import dominofill
from dominofill import Box, BrickWall
from dominofill.brickfill import FilledWord
from dominofill.cli.config import (
    FORMATS,
    MODES,
    SCHEMA,
    ConfigError,
    RunConfig,
    parse_config,
    serialize_config,
)
from dominofill.cli.files import (
    ParseError,
    VersionMismatch,
    file_blocks,
    load_any,
    serialize_tiling,
    write_atomic,
)
from dominofill.cli import main as cli_main
from dominofill.cli.main import main
from dominofill.cli.render import render_ascii, render_svg
from dominofill.cli import verify
from dominofill.cli.verify import MAX_REPORTED, verify_tiling, verify_word
from dominofill.numerics import validate_family
from dominofill.sft import Symbol, SymbolicWord, Tiling, build_alphabet
from dominofill.tower import FrequencyReport

FLAGSHIP_INI = """\
[run]
dim = 2
window = 300,300
seed = 11
mode = relaxed

[family]
shapes = 3x2 2x3

[targets]
probs = 2/5 3/5

[plan]
sides = 64
"""

# The benchmark's flagship plan and window.
FLAGSHIP_PLAN_INI = (
    FLAGSHIP_INI.replace("300,300", "1536,1536")
    .replace("seed = 11", "seed = 1")
    .replace("sides = 64", "sides = 64,512")
)

FILL_INI = """\
[run]
dim = 1
window = 100

[family]
shapes = 2 3

[targets]
probs = 1/2 1/2

[fill]
inner_translate = 4
outer_translate = 0
box_anchor = 4
box_shape = 6
"""


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


@st.composite
def run_configs(draw):
    """A RunConfig with every field set, out_dir included."""
    dim = draw(st.integers(1, 3))
    axes = st.tuples(*[st.integers(-(10**6), 10**6)] * dim)
    extents = st.tuples(*[st.integers(1, 10**6)] * dim)
    ints = st.lists(st.integers(0, 10**4), min_size=1, max_size=4).map(tuple)
    fractions = st.lists(st.fractions(), min_size=1, max_size=4).map(tuple)
    shapes = st.lists(st.tuples(*[st.integers(1, 9)] * dim), min_size=1, max_size=4)
    return RunConfig(
        dim=dim,
        shapes=tuple(draw(shapes)),
        targets=draw(fractions),
        window_shape=draw(extents),
        seed=draw(st.integers(0, 2**64 - 1)),
        mode=draw(st.sampled_from(MODES)),
        tail_mass=draw(st.fractions()),
        window_anchor=draw(axes),
        out_dir=draw(st.sampled_from(["elsewhere", "runs/a b"])),
        out_format=draw(st.sampled_from(FORMATS)),
        count=draw(st.integers(1, 9)),
        sides=draw(ints),
        gaps=draw(ints),
        error_budgets=draw(fractions),
        cutoffs=draw(ints),
        fill_inner=draw(axes),
        fill_outer=draw(axes),
        fill_anchor=draw(axes),
        fill_shape=draw(extents),
    )


class TestConfig:
    def test_parse_fields(self):
        cfg = parse_config(FLAGSHIP_INI)
        assert cfg.dim == 2
        assert cfg.shapes == ((3, 2), (2, 3))
        assert cfg.targets == (Fraction(2, 5), Fraction(3, 5))
        assert cfg.window_shape == (300, 300)
        assert cfg.window_anchor == (0, 0)
        assert cfg.seed == 11 and cfg.mode == "relaxed"
        assert cfg.sides == (64,) and cfg.count is None

    def test_round_trip(self):
        cfg = parse_config(FLAGSHIP_INI)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "line, message",
        [
            ("mode = bogus", "[run] mode: must be one of ('strict', 'relaxed'), got 'bogus'"),
            ("format = json", "[run] format: must be 'text', got 'json'"),
        ],
    )
    def test_a_choice_key_names_its_choices(self, line, message):
        """A key of several choices lists them; a key of one names it."""
        with pytest.raises(ConfigError) as info:
            parse_config(FLAGSHIP_INI.replace("mode = relaxed", line))
        assert str(info.value) == message
        filled = parse_config(FILL_INI)
        assert (filled.fill_anchor, filled.fill_shape) == ((4,), (6,))
        assert parse_config(serialize_config(filled)) == filled

    @given(run_configs())
    def test_round_trip_of_every_key(self, cfg):
        """A config that sets every schema row reads back equal, up to out_dir."""
        text = serialize_config(cfg)
        assert parse_config(text) == replace(cfg, out_dir="out")
        echoed = [row.key for row in SCHEMA if row.write is not None]
        assert re.findall(r"^(\w+) = ", text, re.M) == echoed

    def test_readme_example_parses(self):
        example = README.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(example)
        assert cfg.sides == (64, 512) and cfg.window_shape == (4096, 4096)

    def test_readme_table_lists_the_schema(self):
        """README's key table lists each schema row, in order, with its echo."""
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| [^|]+ \| ([^|]+) \|$", README, re.M)
        assert [(section, key) for section, key, _ in rows] == [
            (row.section, row.key) for row in SCHEMA
        ]
        assert [echo.strip() != "no" for _, _, echo in rows] == [
            row.write is not None for row in SCHEMA
        ]

    def test_missing_section(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\ndim = 2\nwindow = 10,10\n")

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config(FLAGSHIP_INI.replace("window = 300,300", "window = wide"))
        with pytest.raises(ConfigError):
            parse_config(FILL_INI.replace("box_anchor = 4\n", ""))


@st.composite
def checked_tilings(draw):
    """A tiling and a window (or None) for the verifier: placements on a
    small grid, so that overlaps and escapes abound, one of them repeated 2 to
    257 times, and at times a few far anchors (within 10^15) that make the
    bounding box too large to paint."""
    dim = draw(st.integers(1, 3))
    ids = draw(st.lists(st.sampled_from([1, 2, "P"]), min_size=1, unique=True))
    shapes = {t: tuple(draw(st.integers(1, 4)) for _ in range(dim)) for t in ids}
    near = st.tuples(*[st.integers(-3, 14)] * dim)
    far = st.tuples(*[st.integers(-(10**15), 10**15)] * dim)
    rows = draw(st.lists(st.tuples(st.sampled_from(ids), near), max_size=80))
    if rows and draw(st.booleans()):
        at = draw(st.integers(0, len(rows) - 1))
        rows[at:at] = [rows[at]] * draw(st.sampled_from([1, 2, 3, 255, 256, 257]))
    if draw(st.integers(0, 3)) == 0:
        rows += draw(st.lists(st.tuples(st.sampled_from(ids), far), min_size=1, max_size=3))
    rows = draw(st.permutations(rows))
    window = draw(
        st.none()
        | st.builds(
            Box, st.tuples(*[st.integers(-3, 6)] * dim), st.tuples(*[st.integers(1, 14)] * dim)
        )
    )
    return tiling_from_parts(shapes, [(t, [a]) for t, a in rows], window), window


@st.composite
def pushed_tilings(draw):
    """A tiling and its window for the verifier: tiles 1 and P placed in a
    small window, which at times lies at the low or the high end of int64; then, at times, one placement pushed 1 to
    3 cells past the window's low or high face on one axis (where the anchor
    stays an int64), and at times a P laid on the anchor of a 1, an overlap
    of two codes.  Tile 1 is small and often placed more times than it has
    cells, so that its cells are painted one offset at a time."""
    dim = draw(st.integers(1, 3))
    shapes = {1: tuple(draw(st.integers(1, 2)) for _ in range(dim))}
    shapes["P"] = tuple(draw(st.integers(1, 3)) for _ in range(dim))
    extents = [draw(st.integers(3, 8)) for _ in range(dim)]
    near = [draw(st.integers(-5, 5)) for _ in range(dim)]
    anchor = draw(st.sampled_from([near, [-(2**63)] * dim, [2**63 - e for e in extents]]))
    window = Box(tuple(anchor), tuple(extents))
    rows = [
        (t, [draw(st.integers(lo, hi - s)) for lo, hi, s in zip(window.anchor, window.end, shape)])
        for t, shape in shapes.items()
        for _ in range(draw(st.integers(1, 10)))
    ]
    if draw(st.booleans()):
        tile, moved = rows[draw(st.integers(0, len(rows) - 1))]
        axis, k = draw(st.integers(0, dim - 1)), draw(st.integers(1, 3))
        lo, hi = window.anchor[axis] - k, window.end[axis] - shapes[tile][axis] + k
        past = [x for x in (lo, hi) if -(2**63) <= x < 2**63]
        if past:
            moved[axis] = draw(st.sampled_from(past))
    if draw(st.booleans()):
        rows.append(("P", list(draw(st.sampled_from([a for t, a in rows if t == 1])))))
    rows = draw(st.permutations(rows))
    return tiling_from_parts(shapes, [(t, [a]) for t, a in rows], window), window


# A one-cell tile painted offset by offset under a P, and at each end of int64
# a placement pushed past the window's face and a P laid on a 1.
PUSHED = {
    "one_cell_tile_under_p": (
        {1: (1, 1), "P": (2, 2)},
        [(1, [(0, 0), (1, 0), (0, 1), (9, 9)]), ("P", [(0, 0), (-2, 3)])],
        Box((0, 0), (10, 10)),
    ),
    "int64_high_end": (
        {1: (1, 1), "P": (2, 2)},
        [(1, [(2**63 - 1, 2**63 - 1), (2**63 - 8, 2**63 - 8)])]
        + [("P", [(2**63 - 2, 2**63 - 2), (2**63 - 1, 2**63 - 5)])],
        Box((2**63 - 8, 2**63 - 8), (8, 8)),
    ),
    "int64_low_end": (
        {1: (2,), "P": (3,)},
        [(1, [(-(2**63),), (-(2**63) + 5,), (-(2**63) + 2,)]), ("P", [(-(2**63),)])],
        Box((-(2**63),), (6,)),
    ),
}
PUSHED = {name: (tiling_from_parts(*args), args[2]) for name, args in PUSHED.items()}

# More than MAX_REPORTED placements outside the window, and overlapping cells.
MORE_THAN_REPORTED = {
    "outside": (
        tiling_from_parts({1: (3, 2)}, [(1, [(x, 20) for x in range(0, 180, 3)])]),
        Box((0, 0), (180, 10)),
    ),
    "overlapping": (
        tiling_from_parts({1: (3, 2)}, [(1, [(x, 0) for x in range(0, 60, 3)] * 2)]),
        None,
    ),
}


def sample_tiling():
    shapes = {1: (3, 2), 2: (2, 3), "P": (6, 6)}
    parts = [("P", [(-6, -6)]), (1, [(0, 0), (3, 0)]), (2, [(0, 2)])]
    return tiling_from_parts(shapes, parts, Box((-6, -6), (12, 12)))


class TestTilingFiles:
    def test_text_round_trip(self):
        t = sample_tiling()
        text = serialize_tiling(t, seed=7)
        back, seed = load_text(text)
        assert seed == 7
        assert same_placements(back, t)
        assert back.window == t.window
        assert serialize_tiling(back, seed=7) == text

    def test_version_mismatch(self):
        text = serialize_tiling(sample_tiling())
        with pytest.raises(VersionMismatch):
            load_text(text.replace("tiling v1", "tiling v9", 1))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            load_text("not a tiling\n")
        good = serialize_tiling(sample_tiling())
        with pytest.raises(ParseError):
            load_text(good + "9 0 0\n")  # unknown tile id
        with pytest.raises(ParseError):
            load_text(good + "1 0\n")  # wrong coordinate count
        head = "dominofill tiling v1\ndim {}\nshapes {}\nwindow {}\nseed 0\n"
        for text, message in [
            (head.format(1, "1", "none"), "bad shapes token '1'"),
            (head.format(2, "1:3x2", "0 0 8"), "window line needs 4 integers"),
        ]:
            with pytest.raises(ParseError, match=message):
                load_text(text)


def sample_word(flagship_alphabet):
    wall = BrickWall(flagship_alphabet, "P", (1, 2))
    return FilledWord.pure_wall(wall).materialize(Box((0, 0), (8, 8)))


class TestWordFiles:
    def test_text_round_trip(self, flagship_alphabet):
        w = sample_word(flagship_alphabet)
        text = b"".join(file_blocks(w, 5)).decode()
        back, seed = load_text(text)
        assert seed == 5
        assert back.box == w.box
        assert np.array_equal(back.grid, w.grid)
        assert b"".join(file_blocks(back, 5)).decode() == text

    def test_bad_offset_rejected(self, flagship_alphabet):
        w = sample_word(flagship_alphabet)
        text = b"".join(file_blocks(w, 0)).decode()
        lines = text.splitlines()
        lines[5] = lines[5].rsplit(" ", 2)[0] + " 9 9"
        with pytest.raises(ParseError):
            load_text("\n".join(lines) + "\n")

    def test_cell_outside_window_rejected(self, flagship_alphabet):
        w = sample_word(flagship_alphabet)
        text = b"".join(file_blocks(w, 0)).decode() + "50 50 P 0 0\n"
        with pytest.raises(ParseError):
            load_text(text)

    def test_cell_listed_twice_rejected(self, flagship_alphabet):
        w = sample_word(flagship_alphabet)
        text = b"".join(file_blocks(w, 0)).decode() + "0 0 1 0 0\n"
        with pytest.raises(ParseError, match=r"cell \(0, 0\) listed twice"):
            load_text(text)


# A tiling in the JSON layout that earlier versions also wrote.
JSON_TILING = {
    "format": "dominofill tiling", "version": 1, "dim": 2, "shapes": {"1": [3, 2]},
    "window": {"anchor": [0, 0], "shape": [6, 6]}, "seed": 0,
    "placements": [{"tile": 1, "anchor": [0, 0]}],
}


@pytest.mark.parametrize("command", ["verify", "stats", "render"])
def test_json_file_is_a_user_error(tmp_path, capsys, command):
    """Text is the one file format: a JSON tiling is one error line and
    status 1, and nothing is written."""
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps(JSON_TILING), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(path), *(["--out", str(out)] if command == "render" else [])]) == 1
    assert capsys.readouterr() == ("", f"error: unrecognized file {str(path)!r}\n")
    assert not out.exists()


# A word in the same JSON layout.
JSON_WORD = {
    "format": "dominofill word", "version": 1, "dim": 2, "shapes": {"1": [3, 2], "P": [6, 6]},
    "window": {"anchor": [0, 0], "shape": [6, 6]}, "seed": 0,
    "cells": [{"cell": [0, 0], "tile": 1, "offset": [0, 0]}],
}


def write_json(tmp_path, doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def unknown_tile(doc):
    doc["placements"].append({"tile": 9, "anchor": [0, 0]})


def bad_offset(doc):
    doc["cells"][0]["offset"] = [9, 9]


def cell_outside(doc):
    doc["cells"].append({"cell": [50, 50], "tile": "P", "offset": [0, 0]})


def negative_cell(doc):
    doc["cells"][0]["cell"] = [-1, -1]


def duplicate_cell(doc):
    doc["cells"].append({"cell": doc["cells"][0]["cell"], "tile": 1, "offset": [0, 0]})


def half_anchor(doc):
    next(rec for rec in doc["placements"] if rec["anchor"] == [0, 0])["anchor"] = [0.5, 0]


def float_shape(doc):
    doc["shapes"]["1"] = [2.9, 1]


def float_window_anchor(doc):
    doc["window"]["anchor"] = [-6.0, -6]


def float_offset(doc):
    doc["cells"][0]["offset"] = [x + 0.5 for x in doc["cells"][0]["offset"]]


def bool_seed(doc):
    doc["seed"] = True


class TestJsonLoaderErrors:
    """A JSON file, whatever its fields hold, is refused whole at its first
    line: one ParseError naming the file, as for any file that is not a
    tiling or word in the text format."""

    CASES = [
        ("tiling", unknown_tile),
        ("word", bad_offset),
        ("word", cell_outside),
        ("word", negative_cell),
        ("word", duplicate_cell),
        ("tiling", half_anchor),
        ("tiling", float_shape),
        ("tiling", float_window_anchor),
        ("tiling", bool_seed),
        ("word", float_offset),
    ]

    def bad_file(self, tmp_path, kind, edit):
        return write_json(tmp_path, JSON_TILING if kind == "tiling" else JSON_WORD, edit)

    @pytest.mark.parametrize("kind, edit", CASES, ids=lambda v: getattr(v, "__name__", v))
    def test_load_any_raises_parse_error(self, tmp_path, kind, edit):
        path = self.bad_file(tmp_path, kind, edit)
        with pytest.raises(ParseError, match=f"^unrecognized file {re.escape(repr(path))}$"):
            load_any(path)

    @pytest.mark.parametrize("kind, edit", CASES, ids=lambda v: getattr(v, "__name__", v))
    def test_verify_is_user_error(self, tmp_path, capsys, kind, edit):
        path = self.bad_file(tmp_path, kind, edit)
        assert main(["verify", path]) == 1
        assert capsys.readouterr() == ("", f"error: unrecognized file {path!r}\n")

    def test_stats_is_user_error(self, tmp_path, capsys):
        path = write_json(tmp_path, JSON_TILING, unknown_tile)
        assert main(["stats", path]) == 1
        assert capsys.readouterr() == ("", f"error: unrecognized file {path!r}\n")


class TestVerifyWord:
    def test_wall_restriction_passes(self, flagship_alphabet):
        assert verify_word(sample_word(flagship_alphabet)) == []

    def test_broken_pair_reported(self, flagship_alphabet):
        w = sample_word(flagship_alphabet)
        set_cell(w, (3, 3), Symbol(1, (0, 0)))
        problems = verify_word(w)
        assert problems
        assert any("axis" in p for p in problems)

    def test_breaches_past_the_reported_are_counted(self):
        """60 cells that each start a 2-tile on the line: each of the 59 pairs
        breaks the rule, MAX_REPORTED are named and the rest counted."""
        alphabet = build_alphabet(validate_family([(2,), (3,)]))
        start = alphabet.symbols.index(Symbol(1, (0,)))
        w = SymbolicWord(alphabet, Box((0,), (60,)), np.full(60, start, dtype=np.int32))
        problems = verify_word(w)
        assert len(problems) == MAX_REPORTED + 1
        assert problems[0] == "cell (0,) axis 0: 1@(0,) cannot precede 1@(0,)"
        assert problems[-1] == f"... and {59 - MAX_REPORTED} more along axis 0"
        assert problems.total == 59

    def test_gaps_are_ignored(self, flagship_alphabet):
        w = SymbolicWord(flagship_alphabet, Box((0, 0), (4, 4)))
        set_cell(w, (1, 1), Symbol(2, (1, 1)))
        assert verify_word(w) == []


class TestVerifyTiling:
    def test_clean_tiling_passes(self):
        assert verify_tiling(sample_tiling()) == []

    def test_overlap_reported(self):
        shapes = {1: (3, 2)}
        t = tiling_from_parts(shapes, [(1, [(0, 0), (1, 0)])])
        problems = verify_tiling(t)
        assert problems and "covered 2 times" in problems[0]

    @pytest.mark.parametrize("copies", [2, 255, 256, 257])
    def test_overlap_of_any_multiplicity(self, copies):
        t = tiling_from_parts({1: (3, 2)}, [(1, [(0, 0)] * copies)])
        problems = verify_tiling(t)
        assert len(problems) == 6  # every cell of the tile
        assert problems[0].startswith(f"cell (0, 0) covered {copies} times")

    def test_overlaps_past_the_reported_are_counted(self):
        """60 cells each covered twice: MAX_REPORTED named, the rest on one
        line, and 60 violations counted."""
        t = tiling_from_parts({1: (1, 1)}, [(1, [(i, 0) for i in range(60)] * 2)])
        problems = verify_tiling(t)
        assert len(problems) == MAX_REPORTED + 1
        assert problems[-1] == f"... and {60 - MAX_REPORTED} more overlapping cells"
        assert problems.total == 60

    def test_window_containment(self):
        shapes = {1: (3, 2)}
        t = tiling_from_parts(shapes, [(1, [(2, 3)])], Box((0, 0), (4, 4)))
        problems = verify_tiling(t)
        assert problems and "leaves the window" in problems[0]

    def test_column_bound_past_the_window_with_every_tile_inside(self):
        """The greatest anchor on axis 0 plus the largest extent there, 8 + 3,
        passes the window's end 10, yet each tile ends at 10: no problem."""
        t = tiling_from_parts(
            {1: (3, 2), 2: (2, 3)}, [(1, [(7, 0)]), (2, [(8, 4)])], Box((0, 0), (10, 10))
        )
        assert verify_tiling(t) == []

    def test_exact_box_is_painted_where_the_column_bound_is_too_large(self, monkeypatch):
        """The placements span 3 x 8 = 24 cells, the column bound (8 + 3 on
        axis 0, 5 + 3 on axis 1) 4 x 8 = 32.  Under a cap between the two,
        the overlap is still painted and named; under one below 24, the box
        refused is the exact one."""
        t = tiling_from_parts({1: (3, 2), 2: (2, 3)}, [(1, [(7, 0)]), (2, [(8, 4), (8, 5)])])
        monkeypatch.setattr(verify, "MAX_PAINT_CELLS", 28)
        problems = verify_tiling(t)
        assert problems == verify_tiling_by_rows(t, None, MAX_REPORTED)
        assert len(problems) == 4 and all("covered 2 times" in p for p in problems)
        monkeypatch.setattr(verify, "MAX_PAINT_CELLS", 23)
        assert verify_tiling(t) == ["bounding box of 24 cells is too large to paint; not checked"]

    def test_tiles_sharing_a_shape(self):
        t = tiling_from_parts(
            {1: (2, 1), 2: (2, 1), "P": (2, 2)},
            [(1, [(0, 0), (0, 1)]), (2, [(1, 0), (0, 2)]), ("P", [(1, 1)])],
            Box((0, 0), (3, 3)),
        )
        assert verify_tiling(t) == [
            "cell (1, 0) covered 2 times by [(1, (0, 0)), (2, (1, 0))]",
            "cell (1, 1) covered 2 times by [(1, (0, 1)), ('P', (1, 1))]",
            "cell (1, 2) covered 2 times by [(2, (0, 2)), ('P', (1, 1))]",
        ]

    def test_overlap_and_escape_in_3d(self):
        t = tiling_from_parts(
            {1: (2, 1, 1), 2: (1, 2, 3)},
            [(1, [(0, 0, 0), (3, 3, 3)]), (2, [(1, 0, 0), (4, 4, 4)])],
            Box((0, 0, 0), (5, 5, 5)),
        )
        assert verify_tiling(t) == [
            "placement 2 at (4, 4, 4) leaves the window",
            "cell (1, 0, 0) covered 2 times by [(1, (0, 0, 0)), (2, (1, 0, 0))]",
        ]

    @settings(max_examples=500)
    @given(checked_tilings() | pushed_tilings())
    @example(MORE_THAN_REPORTED["outside"])
    @example(MORE_THAN_REPORTED["overlapping"])
    @example(PUSHED["one_cell_tile_under_p"])
    @example(PUSHED["int64_high_end"])
    @example(PUSHED["int64_low_end"])
    # An int64 wrap warns before it misreports.  Only RuntimeWarning: a failing
    # example must still be reported, and reporting it may warn otherwise.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_row_wise_oracle(self, case):
        tiling, window = case
        want = verify_tiling_by_rows(tiling, window, MAX_REPORTED)
        assert verify_tiling(in_window(tiling, window)) == want

    def test_large_tile_is_painted_in_one_piece(self, monkeypatch):
        t = tiling_from_parts(
            {1: (3, 2), "P": (1000, 1000)}, [(1, [(0, 0), (999, 999)]), ("P", [(0, 0)])]
        )
        pieces = []
        painted_cells = verify._painted_cells

        def counted(*args):
            for cells in painted_cells(*args):
                pieces.append(len(cells))
                yield cells

        monkeypatch.setattr(verify, "_painted_cells", counted)
        assert verify_tiling(t) == verify_tiling_by_rows(t, None, MAX_REPORTED)
        assert len(verify_tiling(t)) == 7
        # Each pass: the two 3x2 placements broadcast at once, the big tile in one array.
        assert pieces == [12, 1_000_000, 12, 1_000_000] * 2

    def test_coverage_counts(self):
        t = sample_tiling()
        window = Box((0, 0), (6, 6))
        inside = [
            p for p in placements(t) if window.contains_box(Box(p.anchor, t.tile_shapes[p.tile]))
        ]
        sub = tiling_from_parts(t.tile_shapes, [(p.tile, [p.anchor]) for p in inside], window)
        assert verify_tiling(sub) == []  # inside the window, no cell covered twice
        assert sum(sub.tile_cell_counts().values()) == 6 + 6 + 6  # the three small tiles
        assert FrequencyReport.of_tiling(sub).covered_cells == 18  # as ``stats`` reports it


class TestRender:
    def test_svg_for_plane(self):
        svg = render_svg(sample_tiling())
        assert svg.startswith("<svg") or "<svg" in svg
        assert svg.count("<rect") >= len(sample_tiling())

    def test_ascii_for_line(self):
        shapes = {1: (2,), 2: (3,)}
        t = tiling_from_parts(shapes, [(1, [(0,), (2,)]), (2, [(4,)])], Box((0,), (7,)))
        art = render_ascii(t)
        assert art.strip()

    def test_ascii_marks_each_brick_stage(self):
        """Small tiles draw as their digit, each brick stage as its own mark."""
        shapes = {1: (2,), 2: (2,), "P1": (6,), "P2": (30,)}
        parts = [(1, [(0,)]), ("P1", [(2,)]), ("P2", [(8,)]), (2, [(38,)])]
        art = render_ascii(tiling_from_parts(shapes, parts, Box((0,), (40,))))
        assert art == "11" + "#" * 6 + "%" * 30 + "22\n"

    def test_ascii_clips_placements_to_the_window(self):
        """A placement wholly left of the window is not drawn, and one that
        straddles an edge is drawn only inside it."""
        shapes = {1: (2,), 2: (3,)}
        parts = [(1, [(-50,), (-1,)]), (2, [(10,), (98,)])]
        art = render_ascii(tiling_from_parts(shapes, parts, Box((0,), (100,))))
        assert art == "1" + "." * 9 + "222" + "." * 85 + "22\n"

    def test_density_map_bins_only_anchors_in_the_window(self):
        """An anchor left of the window falls in no bin: bins are floored, so
        (-4, 0) is not counted in bin (0, 0) of a 1536^2 window's 6-cell bins."""
        shapes = {1: (3, 2)}
        window = Box((0, 0), (1536, 1536))
        svg = render_svg(tiling_from_parts(shapes, [(1, [(-4, 0), (6, 0)])], window))
        rects = [line for line in svg.splitlines() if "fill-opacity" in line]
        assert rects == ['<rect x="4" y="0" width="4" height="4" fill="#0067a5" '
                         'fill-opacity="0.167"/>']

    def test_svg_without_window_draws_the_bounding_box(self):
        t = tiling_from_parts({1: (3, 2), 2: (2, 3)}, [(1, [(5, 7)]), (2, [(8, 7)])])
        svg = render_svg(t)
        assert 'viewBox="0 0 40 24"' in svg
        assert '<rect x="0" y="0" width="24" height="16"' in svg
        assert '<rect x="24" y="0" width="16" height="24"' in svg
        empty = tiling_from_parts({1: (3, 2)}, [(1, [])])
        assert 'viewBox="0 0 8 8"' in render_svg(empty)  # one cell at the origin

    def test_density_map_past_the_cell_cap(self, tmp_path, capsys):
        """The benchmark's flagship window, 1536^2, has more cells than are
        drawn one by one: render writes a density map, and says so."""
        ini = tmp_path / "run.ini"
        ini.write_text(FLAGSHIP_PLAN_INI, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["build", "--config", str(ini), "--out", str(out)]) == 0
        assert main(["render", str(out / "tiling.txt"), "--out", str(out)]) == 0
        capsys.readouterr()
        svg = (out / "render.svg").read_text(encoding="utf-8")
        assert "<!-- density map: 135000 placements over 2359296 cells -->\n" in svg
        assert 'viewBox="0 0 1024 1024"' in svg
        digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
        assert digest == "3f5679a7fd195add19e56d383fe4f67505b3e899c24493f04c2536628c41d92b"


@pytest.fixture()
def flagship_cfg(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FLAGSHIP_INI, encoding="utf-8")
    return str(path)


@pytest.fixture()
def fill_cfg(tmp_path):
    path = tmp_path / "fill.ini"
    path.write_text(FILL_INI, encoding="utf-8")
    return str(path)


def reversed_body(path: Path, out: Path) -> Path:
    """A copy at ``out`` of the tiling file ``path`` with its placement
    lines, those after the five header lines, in reverse order."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    out.write_text("".join(lines[:5] + lines[5:][::-1]), encoding="utf-8")
    return out


def traced(peaks: dict, name: str, call):
    """``call()``, its peak of traced memory put in ``peaks[name]`` in MB."""
    tracemalloc.start()
    try:
        result = call()
        peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
        return result
    finally:
        tracemalloc.stop()


class TestMain:
    def test_plan_prints_schedule(self, tmp_path, capsys):
        ini = tmp_path / "strict.ini"
        ini.write_text(
            FLAGSHIP_INI.replace("mode = relaxed", "mode = strict")
            .replace("sides = 64", "count = 1")
            .replace("window = 300,300", "window = 500,500"),  # holds side 449
            encoding="utf-8",
        )
        assert main(["plan", "--config", str(ini)]) == 0
        out = capsys.readouterr().out
        assert "stage 1: side 449" in out
        assert "predicted uncovered bound" in out

    def test_plan_names_each_stage_brick(self, tmp_path, capsys):
        """The countable line's stage lines name the bricks the planner chose,
        and no family-wide fill length, which no stage uses, is printed."""
        config = tmp_path / "run.ini"
        config.write_text(LINE_INI, encoding="utf-8")
        assert main(["plan", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "stage 1: side 33  collar 14  gap 0  budget 1/4  brick P1 (6,)  cutoff: 2" in out
        assert "stage 2: side 200  collar 38  gap 0  budget 1/4  brick P2 (30,)  cutoff: 3" in out
        assert "fill length" not in out

    def test_plan_rejects_bad_family(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(FLAGSHIP_INI.replace("3x2 2x3", "2x2 4x2"), encoding="utf-8")
        assert main(["plan", "--config", str(ini)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_build_verify_stats_render(self, flagship_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["build", "--config", flagship_cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "covered" in printed and "tile 1" in printed
        tiling_path = out / "tiling.txt"
        pre_path = out / "tiling_pre.txt"
        report_path = out / "report.json"
        assert tiling_path.exists() and pre_path.exists() and report_path.exists()

        report = json.loads(report_path.read_text())
        assert report["seed"] == 11
        assert set(report["post"]["deltas"]) == {"1", "2"}

        assert main(["verify", str(tiling_path)]) == 0
        assert main(["verify", str(pre_path)]) == 0
        capsys.readouterr()

        assert main(["stats", str(tiling_path), "--config", flagship_cfg]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["covered_cells"] > 0
        assert "frequencies" in stats
        assert stats == report["post"]  # the report's counts are a count of the file
        assert main(["stats", str(pre_path), "--config", flagship_cfg]) == 0
        assert json.loads(capsys.readouterr().out) == report["pre"]

        assert main(["render", str(tiling_path), "--out", str(out)]) == 0
        svg = (out / "render.svg").read_text()
        assert "<rect" in svg

    def test_build_byte_determinism(self, flagship_cfg, tmp_path, capsys):
        out = tmp_path / "det"
        assert main(["build", "--config", flagship_cfg, "--out", str(out)]) == 0
        first = (out / "tiling.txt").read_bytes()
        first_report = (out / "report.json").read_bytes()
        assert main(["build", "--config", flagship_cfg, "--out", str(out)]) == 0
        assert (out / "tiling.txt").read_bytes() == first
        assert (out / "report.json").read_bytes() == first_report
        capsys.readouterr()

    def test_seed_override_changes_output(self, flagship_cfg, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["build", "--config", flagship_cfg, "--out", str(a)]) == 0
        assert main(
            ["build", "--config", flagship_cfg, "--out", str(b), "--seed", "12"]
        ) == 0
        capsys.readouterr()
        assert (a / "tiling.txt").read_bytes() != (b / "tiling.txt").read_bytes()

    def test_json_format(self, tmp_path, capsys):
        """JSON is no longer written: ``format = json`` is the key's one
        error line and status 1, before anything is built."""
        ini = tmp_path / "json.ini"
        ini.write_text(FLAGSHIP_INI.replace("[run]\n", "[run]\nformat = json\n"), encoding="utf-8")
        out = tmp_path / "json_out"
        assert main(["build", "--config", str(ini), "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: [run] format: must be 'text', got 'json'\n"
        )
        assert not out.exists()

    def test_fill_and_verify(self, fill_cfg, tmp_path, capsys):
        out = tmp_path / "fill_out"
        assert main(["fill", "--config", fill_cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        path = out / "fill.txt"
        assert main(["verify", str(path)]) == 0
        loaded = load_any(str(path))
        assert loaded.kind == "word"
        assert np.count_nonzero(loaded.word.grid >= 0) == loaded.word.box.volume

    def test_redistribute_subcommand(self, flagship_cfg, tmp_path, capsys):
        out = tmp_path / "re"
        assert main(["build", "--config", flagship_cfg, "--out", str(out)]) == 0
        assert main(
            ["redistribute", str(out / "tiling_pre.txt"), "--config", flagship_cfg,
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        path = out / "redistributed.txt"
        assert main(["verify", str(path)]) == 0
        loaded = load_any(str(path))
        tiles = set(p.tile for p in placements(loaded.tiling))
        assert tiles <= {1, 2}

    def test_verify_rejects_overlap(self, tmp_path, capsys):
        shapes = {1: (3, 2)}
        bad = tiling_from_parts(shapes, [(1, [(0, 0), (1, 0)])])
        path = tmp_path / "bad.txt"
        write_atomic(str(path), serialize_tiling(bad))
        assert main(["verify", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "stats", "redistribute"])
    def test_violations_past_the_reported_are_counted(self, command, flagship_cfg, tmp_path,
                                                       capsys):
        """60 placements that leave a 10x10 window: verify names MAX_REPORTED,
        counts the rest on one line, and both it and the commands that refuse
        the file count 60 violations, not 51 lines."""
        path = tmp_path / "sixty.txt"
        head = "dominofill tiling v1\ndim 2\nshapes 1:3x2\nwindow 0 0 10 10\nseed 0\n"
        path.write_text(head + "".join(f"1 {100 + 3 * i} 0\n" for i in range(60)), "utf-8")
        flags = ["--config", flagship_cfg, "--out", str(tmp_path)]
        assert main([command, str(path), *(flags if command == "redistribute" else [])]) == 1
        err = capsys.readouterr().err.splitlines()
        if command == "verify":
            assert err[:MAX_REPORTED] == [
                f"placement 1 at ({100 + 3 * i}, 0) leaves the window" for i in range(MAX_REPORTED)
            ]
            assert err[MAX_REPORTED:] == [
                f"... and {60 - MAX_REPORTED} more outside", f"FAIL: 60 violations in {path}"
            ]
        else:
            assert err == [f"error: {path} fails verify, 60 violations: placement 1 at (100, 0)"
                           " leaves the window"]

    def test_verify_names_leaving_placements_in_canonical_order(self, tmp_path, capsys):
        """A file that lists (9, 0) before (8, 5) is read in canonical order,
        so verify names (8, 5) first."""
        path = tmp_path / "order.txt"
        head = "dominofill tiling v1\ndim 2\nshapes 1:3x2\nwindow 0 0 10 10\nseed 0\n"
        path.write_text(head + "1 9 0\n1 8 5\n", encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "placement 1 at (8, 5) leaves the window",
            "placement 1 at (9, 0) leaves the window",
            f"FAIL: 2 violations in {path}",
        ]

    @pytest.mark.parametrize(
        "body, checks, sorts",
        [("1 0 0\n1 3 4\n", 1, 0), ("1 3 4\n1 0 0\n", 1, 0),
         ("1 8 5\n1 9 0\n", 1, 1), ("1 9 0\n1 8 5\n", 2, 1)],
        ids=["passes_in_order", "passes_out_of_order", "fails_in_order", "fails_out_of_order"],
    )
    def test_verify_checks_a_file_again_only_when_it_fails_out_of_order(
        self, tmp_path, monkeypatch, capsys, body, checks, sorts
    ):
        """verify checks a tiling as read, sorts it only when that finds
        violations, and checks it again only when sorting moved a placement."""
        path = tmp_path / "order.txt"
        head = "dominofill tiling v1\ndim 2\nshapes 1:3x2\nwindow 0 0 10 10\nseed 0\n"
        path.write_text(head + body, encoding="utf-8")
        calls = {"check": 0, "sort": 0}

        def counted(name, call):
            def wrapper(*args):
                calls[name] += 1
                return call(*args)
            return wrapper

        monkeypatch.setattr(cli_main, "verify_tiling", counted("check", verify_tiling))
        monkeypatch.setattr(Tiling, "sorted_canonical", counted("sort", Tiling.sorted_canonical))
        assert main(["verify", str(path)]) == (1 if sorts else 0)
        capsys.readouterr()
        assert calls == {"check": checks, "sort": sorts}

    def test_reversed_body_verifies(self, flagship_cfg, tmp_path, capsys):
        """The reader keeps the file's order, and a built tiling whose
        placements are listed in reverse still verifies."""
        out = tmp_path / "out"
        assert main(["build", "--config", flagship_cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        for name in ("tiling.txt", "tiling_pre.txt"):
            path = reversed_body(out / name, tmp_path / name)
            assert main(["verify", str(path)]) == 0
            assert capsys.readouterr() == (f"OK: {path}\n", "")

    def test_reversed_body_fails_as_the_sorted_file_does(self, flagship_cfg, tmp_path, capsys):
        """A built tiling with its last placement moved past the window's
        high edge and its first placement written twice: its body reversed,
        verify writes the same lines in the same order and exits 1."""
        out = tmp_path / "out"
        assert main(["build", "--config", flagship_cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "tiling.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        tile, _, y = lines[-1].split()
        lines[-1] = f"{tile} 299 {y}\n"
        lines.insert(5, lines[5])
        in_order = tmp_path / "in_order.txt"
        in_order.write_text("".join(lines), encoding="utf-8")
        errors = []
        for path in (in_order, reversed_body(in_order, tmp_path / "reversed.txt")):
            assert main(["verify", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err.replace(str(path), "<file>").splitlines())
        assert errors[0] == errors[1]
        assert errors[0][0] == f"placement {tile} at (299, {y}) leaves the window"
        # The doubled placement covers each of its 6 cells twice.
        assert len(errors[0]) == 8 and all("covered 2 times" in e for e in errors[0][1:7])
        assert errors[0][-1] == "FAIL: 7 violations in <file>"

    def test_reversed_body_reads_as_the_sorted_file(self, flagship_cfg, tmp_path, capsys):
        """stats, render and redistribute give the same bytes for a built
        tiling_pre.txt and for its copy with the placements in reverse."""
        out = tmp_path / "out"
        assert main(["build", "--config", flagship_cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        pre = out / "tiling_pre.txt"
        outputs = []
        for k, path in enumerate((pre, reversed_body(pre, tmp_path / "tiling_pre.txt"))):
            dest = tmp_path / f"again{k}"
            assert main(["stats", str(path), "--config", flagship_cfg]) == 0
            stats = capsys.readouterr()
            assert main(["redistribute", str(path), "--config", flagship_cfg, "--out", str(dest)]) == 0
            assert main(["render", str(path), "--out", str(dest)]) == 0
            capsys.readouterr()
            written = [(dest / name).read_bytes() for name in ("redistributed.txt", "render.svg")]
            outputs.append((stats, written))
        assert outputs[0] == outputs[1]
        assert outputs[0][1][0] == (out / "tiling.txt").read_bytes()

    def test_report_states_bounds_only_for_a_strict_plan(self, flagship_cfg, tmp_path, capsys):
        """A strict one-stage flagship plan (side 449) states its collar mass
        bound, 4 * 26 / 449, which holds the pre small-tile share, and its
        error budget 1/8; the relaxed flagship plan promises neither."""
        strict = tmp_path / "strict.ini"
        strict.write_text(
            FLAGSHIP_INI.replace("mode = relaxed", "mode = strict")
            .replace("window = 300,300", "window = 898,898")
            .replace("sides = 64", "sides = 449"),
            encoding="utf-8",
        )
        reports = []
        for name, config in (("strict", str(strict)), ("relaxed", flagship_cfg)):
            assert main(["build", "--config", config, "--out", str(tmp_path / name)]) == 0
            reports.append(json.loads((tmp_path / name / "report.json").read_text()))
        capsys.readouterr()
        strict_report, relaxed_report = reports
        assert strict_report["collar_mass_bound"] == float(Fraction(104, 449))
        pre = strict_report["pre"]["frequencies"]
        assert pre.get("1", 0) + pre.get("2", 0) <= strict_report["collar_mass_bound"]
        assert strict_report["predicted_error_budget"] == 0.125
        assert not {"collar_mass_bound", "predicted_error_budget"} & set(relaxed_report)
        for report in reports:
            assert report["partial_cells"] > 0
            assert not {"notes", "partial_cells"} & (set(report["pre"]) | set(report["post"]))

    def test_verify_rejects_256_copies(self, tmp_path, capsys):
        path = tmp_path / "copies.txt"
        text = serialize_tiling(tiling_from_parts({1: (1, 1)}, [(1, [(0, 0)] * 256)]))
        assert text.splitlines()[5:] == ["1 0 0"] * 256
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        assert "covered 256 times" in capsys.readouterr().err

    def test_command_replaced_after_first_call_is_run(self, tmp_path, capsys, monkeypatch):
        """The parser is built once, but each call looks its command up on
        the module, so a ``cmd_*`` patched in later is the one that runs."""
        path = tmp_path / "one.txt"
        write_atomic(str(path), serialize_tiling(tiling_from_parts({1: (1, 1)}, [(1, [(0, 0)])])))
        assert main(["verify", str(path)]) == 0
        seen = []
        monkeypatch.setattr(cli_main, "cmd_verify", lambda args: seen.append(args.file) or 7)
        assert main(["verify", str(path)]) == 7
        assert seen == [str(path)]
        assert cli_main.build_parser() is cli_main.build_parser()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "header, body, want",
        [
            (
                "dim 2\nshapes 1:3x2\nwindow 0 0 8 8",
                "1 0 9223372036854775807\n",
                ["placement 1 at (0, 9223372036854775807) leaves the window"],
            ),
            (
                "dim 1\nshapes 1:3\nwindow 0 10",
                "1 9223372036854775806\n",
                ["placement 1 at (9223372036854775806,) leaves the window"],
            ),
            (
                "dim 1\nshapes 1:3\nwindow 0 10",
                "1 -9223372036854775808\n1 0\n",
                [
                    "placement 1 at (-9223372036854775808,) leaves the window",
                    "bounding box of 9223372036854775811 cells is too large to paint; not checked",
                ],
            ),
            (
                "dim 1\nshapes 1:3\nwindow none",
                "1 9223372036854775806\n1 9223372036854775806\n",
                [
                    f"cell ({x},) covered 2 times by "
                    "[(1, (9223372036854775806,)), (1, (9223372036854775806,))]"
                    for x in range(2**63 - 2, 2**63 + 1)
                ],
            ),
            # Window bounds outside int64, compared as Python ints: a tile at
            # -2^63 lies above a window that ends there, and one at 2^63 - 2
            # inside a window that runs past 2^63.
            (
                "dim 1\nshapes 1:1\nwindow -9223372036854775818 10",
                "1 -9223372036854775808\n",
                ["placement 1 at (-9223372036854775808,) leaves the window"],
            ),
            ("dim 1\nshapes 1:1\nwindow 9223372036854775800 100", "1 9223372036854775806\n", []),
        ],
        ids=[
            "end_past_int64_2d", "end_past_int64_1d", "spread_past_int64", "overlap_past_int64",
            "window_below_int64", "window_past_int64",
        ],
    )
    @pytest.mark.filterwarnings("error")  # an int64 wrap warns before it misreports
    def test_verify_anchors_at_the_int64_edge(self, tmp_path, capsys, header, body, want):
        path = tmp_path / "edge.txt"
        path.write_text(f"dominofill tiling v1\n{header}\nseed 0\n{body}", encoding="utf-8")
        status = main(["verify", str(path)])
        out, err = capsys.readouterr()
        if not want:
            assert (status, out, err) == (0, f"OK: {path}\n", "")
        else:
            assert status == 1
            assert err.splitlines() == want + [f"FAIL: {len(want)} violations in {path}"]

    def test_verify_rejects_cell_listed_twice(self, tmp_path, capsys):
        path = tmp_path / "twice.txt"
        lines = ["dominofill word v1", "dim 1", "shapes 1:2 2:3", "window 0 5", "seed 0"]
        path.write_text("\n".join(lines + ["0 2 0", "0 1 0"]) + "\n", encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        assert "cell (0,) listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [[
        "dominofill word v1", "dim 2", "shapes 1:2x1",
        "window 0 0 100000000 100000000", "seed 0", "0 0 1 0 0",
    ]], ids=["text"])
    def test_verify_refuses_a_word_window_too_large_to_paint(self, tmp_path, capsys, lines):
        """A word file's window is input: one beyond the verifier's paint
        bound is one error line, not an allocation of 10^16 cells."""
        path = tmp_path / "huge.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: word window of 10000000000000000 cells is too large to paint\n"

    def test_verify_refuses_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(serialize_tiling(sample_tiling()).encode() + b"\xff\n")
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1

    def test_commands_keep_their_scratch_memory(self, tmp_path, capsys):
        """A flagship-plan build and verify of the benchmark's window each
        stay within 15% of their traced peak, numpy's arrays included (build
        8.15 MB, verify 6.71 MB at 1536^2, seed 1), and so does writing the
        built tiling again (1.98 MB for a 1.41 MB file).  A whole-file string
        in the writer or the reader, or a (dim, n) temporary in the
        containment checks, takes one of them past its bound."""
        ini = tmp_path / "run.ini"
        ini.write_text(FLAGSHIP_PLAN_INI, encoding="utf-8")
        path = str(tmp_path / "out" / "tiling.txt")
        build, peaks = ["build", "--config", str(ini), "--out", str(tmp_path / "out")], {}
        assert traced(peaks, "build", lambda: main(build)) == 0
        assert traced(peaks, "verify", lambda: main(["verify", path])) == 0
        tiling = load_any(path).tiling
        traced(peaks, "write", lambda: cli_main._write(str(tmp_path / "again"), tiling, 1))
        capsys.readouterr()
        for name, bound in {"build": 8.15, "verify": 6.71, "write": 1.98}.items():
            assert peaks[name] <= 1.15 * bound, f"{name} peaked at {peaks[name]:.2f} MB"

    def test_build_refuses_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "latin.ini"
        path.write_bytes(b"; \xff\n" + FLAGSHIP_INI.encode())
        assert main(["build", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["stats", "redistribute"])
    def test_broken_tiling_is_refused(self, command, flagship_cfg, tmp_path, capsys):
        """stats and redistribute refuse a tiling that verify fails, rather than
        report or relabel from double-counted cells; render still draws it."""
        path = tmp_path / "seven.txt"
        head = "dominofill tiling v1\ndim 2\nshapes 1:3x2 2:2x3\nwindow 0 0 6 6\nseed 0\n"
        path.write_text(head + "1 0 0\n" * 7, encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        assert "FAIL: 6 violations" in capsys.readouterr().err
        out = tmp_path / "out"
        extra = ["--config", flagship_cfg, "--out", str(out)] if command == "redistribute" else []
        assert main([command, str(path), *extra]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1, err
        assert err[0].startswith(f"error: {path} fails verify, 6 violations: cell (0, 0) covered 7")
        assert not out.exists()
        assert main(["render", str(path), "--out", str(tmp_path)]) == 0

    def test_stats_without_window(self, tmp_path, capsys):
        t = sample_tiling()
        path = tmp_path / "nowindow.txt"
        windowless = Tiling(t.tile_shapes, t.codes, t.anchors)
        path.write_text(serialize_tiling(windowless), encoding="utf-8")
        assert "window none" in path.read_text(encoding="utf-8")
        assert main(["stats", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["window_cells"] == report["covered_cells"] == 36 + 18
        assert report["uncovered_fraction"] == 0

    def test_verify_rejects_broken_word(self, tmp_path, flagship_alphabet, capsys):
        w = sample_word(flagship_alphabet)
        set_cell(w, (3, 3), Symbol(1, (0, 0)))
        path = tmp_path / "bad_word.txt"
        write_atomic(str(path), file_blocks(w, 0))
        assert main(["verify", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_missing_file_is_user_error(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.txt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_version_mismatch_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "future.txt"
        text = serialize_tiling(sample_tiling()).replace("tiling v1", "tiling v9", 1)
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "render", "redistribute"])
    def test_word_file_is_not_a_tiling(self, command, fill_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fill", "--config", fill_cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        path = out / "fill.txt"
        extra = {"stats": [], "render": ["--out", str(tmp_path / "x")],
                 "redistribute": ["--config", fill_cfg, "--out", str(tmp_path / "x")]}
        assert main([command, str(path), *extra[command]]) == 1
        assert capsys.readouterr() == ("", f"error: {path} is not a tiling file\n")
        assert not (tmp_path / "x").exists()

    def test_fill_needs_its_fill_keys(self, flagship_cfg, tmp_path, capsys):
        assert main(["fill", "--config", flagship_cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == (
            "", "error: fill needs [fill] inner_translate, outer_translate, box_anchor, box_shape\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "shapes, window, message",
        [
            ({1: (3, 2), 2: (2, 3)}, None, "redistribution needs a tiling with a window"),
            ({1: (3, 2), 2: (2, 3), 3: (1, 1)}, Box((0, 0), (8, 8)), "3 small tiles, 2 targets"),
        ],
        ids=["window_none", "more_small_tiles_than_targets"],
    )
    def test_redistribute_refusals(self, shapes, window, message, flagship_cfg, tmp_path, capsys):
        parts = [(1, [(0, 0)]), (2, [(3, 0)])] + ([(3, [(7, 7)])] if 3 in shapes else [])
        path = tmp_path / "in.txt"
        write_atomic(str(path), serialize_tiling(tiling_from_parts(shapes, parts, window)))
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()
        argv = ["redistribute", str(path), "--config", flagship_cfg, "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_render_ascii_for_line_file(self, tmp_path, capsys):
        shapes = {1: (2,), 2: (3,)}
        t = tiling_from_parts(shapes, [(1, [(0,)]), (2, [(2,)])], Box((0,), (5,)))
        path = tmp_path / "line.txt"
        write_atomic(str(path), serialize_tiling(t))
        assert main(["render", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "render.txt").exists()


# (name, config text, what the error names) triples that parse_config must
# refuse with a ConfigError.
BAD_CONFIGS = [
    ("mode_bogus", FLAGSHIP_INI.replace("mode = relaxed", "mode = bogus"), "mode"),
    (
        "window_extent_zero",
        FLAGSHIP_INI.replace("window = 300,300", "window = 300,0"),
        "window",
    ),
    ("window_wrong_length", FLAGSHIP_INI.replace("window = 300,300", "window = 300"), "window"),
    (
        "window_anchor_wrong_length",
        FLAGSHIP_INI.replace("window = 300,300", "window = 300,300\nwindow_anchor = 0,0,0"),
        "window_anchor",
    ),
    (
        "format_xml",
        FLAGSHIP_INI.replace("mode = relaxed", "mode = relaxed\nformat = xml"),
        "format",
    ),
    (
        "fill_translate_wrong_length",
        FILL_INI.replace("inner_translate = 4", "inner_translate = 4,1"),
        "inner_translate",
    ),
    ("probs_zero_denominator", FLAGSHIP_INI.replace("2/5 3/5", "2/0 3/5"), "probs"),
    (
        "tail_mass_zero_denominator",
        FLAGSHIP_INI.replace("probs = 2/5 3/5", "probs = 2/5 3/5\ntail_mass = 1/0"),
        "tail_mass",
    ),
    (
        "error_budgets_zero_denominator",
        FLAGSHIP_INI.replace("sides = 64", "sides = 64\nerror_budgets = 1/0"),
        "error_budgets",
    ),
    (
        "format_json",
        FLAGSHIP_INI.replace("mode = relaxed", "mode = relaxed\nformat = json"),
        "format",
    ),
    (
        "format_misspelled",
        FLAGSHIP_INI.replace("mode = relaxed", "mode = relaxed\nformt = json"),
        "formt",
    ),
    (
        "window_anchor_misspelled",
        FLAGSHIP_INI.replace("window = 300,300", "window = 300,300\nwindow_ancor = 5,5"),
        "window_ancor",
    ),
    ("plan_unknown_key", FLAGSHIP_INI.replace("sides = 64", "sides = 64\ngap = 5"), "gap"),
    ("section_misspelled", FLAGSHIP_INI.replace("[plan]", "[plann]"), "plann"),
    ("section_unknown_empty", FLAGSHIP_INI + "\n[plann]\n", "plann"),
    ("default_entry", "[DEFAULT]\nseed = 3\n\n" + FLAGSHIP_INI, "DEFAULT"),
    ("dim_zero", FLAGSHIP_INI.replace("dim = 2", "dim = 0"), "] dim: must be >= 1"),
    ("dim_negative", FLAGSHIP_INI.replace("dim = 2", "dim = -1"), "] dim: must be >= 1"),
    # A window with a cell outside int64: one cell past 2^63 - 1 or below
    # -2^63, and an anchor that is not an int64 at all.
    (
        "window_last_cell_past_int64",
        FLAGSHIP_INI.replace("[run]\n", "[run]\nwindow_anchor = 0,9223372036854775509\n"),
        "] window_anchor: window at",
    ),
    (
        "window_first_cell_below_int64",
        FLAGSHIP_INI.replace("[run]\n", "[run]\nwindow_anchor = -9223372036854775809,0\n"),
        "window_anchor",
    ),
    (
        "window_anchor_past_int64",
        FLAGSHIP_INI.replace("[run]\n", "[run]\nwindow_anchor = 10000000000000000000,0\n"),
        "window_anchor",
    ),
]
BAD_IDS = [name for name, _, _ in BAD_CONFIGS]
# The countable line with the relaxed minimal stage-2 side: its tail towers'
# block domain, [39, 75), holds no whole 30-brick.
TAIL_TOWER_INI = """\
[run]
dim = 1
window = 2000
mode = relaxed

[family]
shapes = 2 3 5

[targets]
probs = 1/2 2/5 1/10

[plan]
sides = 33,114
cutoffs = 2,3
"""
# Configs that read, but whose plan the planner refuses.
BAD_PLANS = [
    (
        "count_disagrees_with_sides",
        FLAGSHIP_INI.replace("sides = 64", "sides = 64\ncount = 2"),
        "plan constraint 'stage_side'",
    ),
    (
        "tail_towers_hold_no_brick",
        TAIL_TOWER_INI,
        "plan constraint 'stage_side' cannot be met: stage 2 tail towers hold no whole brick",
    ),
    (
        "relaxed_budget_below_zero",
        FLAGSHIP_INI.replace("sides = 64", "sides = 64\nerror_budgets = -1/2"),
        "plan constraint 'error_budget' cannot be met: stage 1 budget -1/2 not in (0, 1)",
    ),
]

RUN_FLAGS = {"--seed", "--mode", "--window", "--out"}
# Each subcommand's option strings (``-h`` aside), whether ``--config`` is
# required (None: not taken), and whether it takes a positional file.
PARSER_PIN = {
    "plan": ({"--config", *RUN_FLAGS}, True, False),
    "build": ({"--config", *RUN_FLAGS}, True, False),
    "fill": ({"--config", *RUN_FLAGS - {"--window", "--mode"}}, True, False),
    "redistribute": ({"--config", *RUN_FLAGS - {"--window", "--mode"}}, True, True),
    "verify": (set(), None, True),
    "stats": ({"--config"}, False, True),
    "render": ({"--out"}, None, True),
}


class TestUserErrors:
    """User errors exit 1 with one ``error:`` line; internal faults propagate."""

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("name, text, named", BAD_CONFIGS, ids=BAD_IDS)
    def test_config_read_raises_config_error(self, name, text, named):
        with pytest.raises(ConfigError, match=named):
            parse_config(text)

    @pytest.mark.parametrize(
        "name, text, named", BAD_CONFIGS + BAD_PLANS, ids=BAD_IDS + [n for n, _, _ in BAD_PLANS]
    )
    def test_bad_config_exits_1(self, name, text, named, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(text, encoding="utf-8")
        command = "fill" if "[fill]" in text else "build"
        for argv in (["plan"], [command, "--out", str(tmp_path / "out")]):
            assert main(argv + ["--config", str(ini)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
        assert not (tmp_path / "out").exists()

    def test_empty_top_stage_exits_1(self, tmp_path, capsys):
        """At 600x600, seed 1, the stage-2 offset leaves no whole 512-tower in
        the window: the build is refused, not written with nothing covered."""
        ini = tmp_path / "run.ini"
        ini.write_text(
            FLAGSHIP_INI.replace("window = 300,300", "window = 600,600")
            .replace("seed = 11", "seed = 1")
            .replace("sides = 64", "sides = 64,512"),
            encoding="utf-8",
        )
        assert main(["build", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "(600, 600)" in err[0] and "stage 2" in err[0] and "offset (180, 248)" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "mode, plan, side",
        [("strict", "count = 1", 449), ("relaxed", "sides = 64,512", 512)],
        ids=["strict_count_1", "relaxed_second_stage"],
    )
    def test_plan_refuses_a_window_that_holds_no_side(self, mode, plan, side, tmp_path, capsys):
        """A 300x300 window below a stage's side is refused by ``plan`` with
        the line ``build`` gives, before anything is printed or built."""
        text = FLAGSHIP_INI.replace("mode = relaxed", f"mode = {mode}")
        ini = tmp_path / "run.ini"
        ini.write_text(text.replace("sides = 64", plan), encoding="utf-8")
        outputs = []
        for argv in (["plan"], ["build", "--out", str(tmp_path / "out")]):
            assert main(argv + ["--config", str(ini)]) == 1
            outputs.append(capsys.readouterr())
        line = f"error: window (300, 300) cannot hold side {side}\n"
        assert outputs == [("", line), ("", line)]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("window", ["10,x", "10", "10,0"])
    def test_bad_window_flag_exits_1(self, window, flagship_cfg, capsys):
        assert main(["plan", "--config", flagship_cfg, "--window", window]) == 1
        self.assert_one_error_line(capsys)

    def test_parser_options_are_pinned(self):
        """No subcommand gains or loses a flag, and every value reaches its
        command as text: only the config schema reads it."""
        parser = cli_main.build_parser()
        (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(subs.choices) == set(PARSER_PIN)
        for name, sub in subs.choices.items():
            actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            options = {s for a in actions for s in a.option_strings}
            config = next((a.required for a in actions if "--config" in a.option_strings), None)
            takes_file = [a.dest for a in actions if not a.option_strings] == ["file"]
            assert (options, config, takes_file) == PARSER_PIN[name], name
            assert all(a.type is None and a.choices is None and a.help for a in actions
                       if a.option_strings), name

    @pytest.mark.parametrize(
        "key, value",
        [("seed", "abc"), ("seed", ""), ("mode", "bogus"), ("window", "10,x"),
         ("window", "300"), ("format", "xml"), ("format", "json")],
    )
    @pytest.mark.parametrize("command", ["plan", "build"])
    def test_bad_flag_value_reads_as_in_the_config(
        self, command, key, value, flagship_cfg, tmp_path, capsys
    ):
        """A bad --seed, --mode or --window value gives the same stderr line
        and exit status as the same value in the INI file.  ``format`` has no
        flag: its bad value is refused from the file alone."""
        ini = tmp_path / "bad.ini"
        text = re.sub(rf"(?m)^{key} = .*\n", "", FLAGSHIP_INI)
        ini.write_text(text.replace("[run]\n", f"[run]\n{key} = {value}\n"), encoding="utf-8")
        out = ["--out", str(tmp_path / "out")]
        assert main([command, "--config", str(ini), *out]) == 1
        in_file = capsys.readouterr()
        if f"--{key}" in RUN_FLAGS:
            assert main([command, "--config", flagship_cfg, f"--{key}", value, *out]) == 1
            assert capsys.readouterr() == in_file
        assert in_file.out == "" and in_file.err.startswith(f"error: [run] {key}: ")
        assert in_file.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [["plot"], ["plan"], ["build", "--config", "run.ini", "--sed", "1"],
         ["verify", "t.txt", "--config", "run.ini"], ["render", "t.txt", "--seed", "1"]],
        ids=["unknown_command", "no_config", "unknown_flag", "verify_config", "render_seed"],
    )
    def test_grammar_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: dominofill")

    @pytest.mark.parametrize("argv", [["fill"], ["redistribute", "t.txt"]], ids=["fill", "redistribute"])
    def test_mode_flag_is_a_usage_error_where_unread(self, argv, capsys):
        """fill and redistribute read no [run] mode, so they take no --mode."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", "run.ini", "--mode", "strict"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: dominofill")
        assert err.splitlines()[-1].endswith("unrecognized arguments: --mode strict")

    def test_window_flag_past_int64_exits_1(self, tmp_path, capsys):
        """A --window that moves the config's window past int64 is refused
        as the same extents in the file are."""
        ini = tmp_path / "edge.ini"
        anchor = "window_anchor = 0,9223372036854775508"
        ini.write_text(FLAGSHIP_INI.replace("window = 300,300", f"window = 300,300\n{anchor}"))
        assert main(["plan", "--config", str(ini)]) == 0
        capsys.readouterr()
        assert main(["plan", "--config", str(ini), "--window", "300,301"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: [run] window_anchor: "), err

    @pytest.mark.parametrize(
        "window, anchor",
        [("1536,1536", "9223372036854774271,0"), ("1024,1024", "0,9223372036854774784"),
         ("1024,1024", "-9223372036854775808,0")],
        ids=["end_2^63-1", "last_cell_2^63-1", "first_cell_-2^63"],
    )
    def test_window_at_the_int64_edge_builds_and_verifies(self, window, anchor, tmp_path, capsys):
        ini, out = tmp_path / "edge.ini", tmp_path / "out"
        text = TWO_STAGE_INI.replace("window = 1024,1024", f"window = {window}")
        ini.write_text(text.replace("[run]\n", f"[run]\nwindow_anchor = {anchor}\n"))
        assert main(["build", "--config", str(ini), "--out", str(out)]) == 0
        assert main(["verify", str(out / "tiling.txt")]) == 0
        assert f"window {anchor.replace(',', ' ')} " in (out / "tiling.txt").read_text()
        capsys.readouterr()

    @pytest.mark.parametrize("sides", ["0", "0,100"])
    @pytest.mark.parametrize("command", ["plan", "build"])
    def test_strict_zero_side_exits_1(self, command, sides, tmp_path, capsys):
        ini, out = tmp_path / "zero.ini", tmp_path / "out"
        strict = FLAGSHIP_INI.replace("mode = relaxed", "mode = strict")
        ini.write_text(strict.replace("sides = 64", f"sides = {sides}"), encoding="utf-8")
        assert main([command, "--config", str(ini), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: plan constraint 'stage_side' cannot be met: stage 1 side 0 below 1"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, named",
        [
            ("box_shape = 1000000000000", "[fill] box_shape: fill region"),
            ("box_anchor = 9223372036854775800", "[fill] box_anchor: bricks that meet"),
        ],
        ids=["too_many_cells", "past_int64"],
    )
    def test_fill_region_it_cannot_hold_exits_1(self, edit, named, tmp_path, capsys):
        ini, out = tmp_path / "fill.ini", tmp_path / "out"
        key = edit.split(" = ")[0]
        ini.write_text(re.sub(rf"(?m)^{key} = .*$", edit, FILL_INI), encoding="utf-8")
        assert main(["fill", "--config", str(ini), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}"), err
        assert not out.exists()

    def test_fill_at_the_int64_edge(self, tmp_path, capsys):
        """The wall bricks that meet the fill region may reach either end of
        int64, but not a cell past it."""
        family = validate_family(((2,), (3,)), 1)
        reach = family.fill_length + family.large_shape[0] - 1
        low, high = -(2**63) + reach, 2**63 - 6 - reach
        for anchor, status in [(low, 0), (low - 1, 1), (high, 0), (high + 1, 1)]:
            ini, out = tmp_path / "fill.ini", tmp_path / str(anchor)
            ini.write_text(FILL_INI.replace("box_anchor = 4", f"box_anchor = {anchor}"))
            assert main(["fill", "--config", str(ini), "--out", str(out)]) == status, anchor
            if status == 0:
                assert main(["verify", str(out / "fill.txt")]) == 0
        capsys.readouterr()

    def test_render_3d_exits_1(self, tmp_path, capsys):
        t = tiling_from_parts({1: (2, 1, 1)}, [(1, [(0, 0, 0)])], Box((0, 0, 0), (2, 1, 1)))
        path = tmp_path / "cube.txt"
        write_atomic(str(path), serialize_tiling(t))
        assert main(["render", str(path), "--out", str(tmp_path)]) == 1
        self.assert_one_error_line(capsys)

    def test_render_huge_line_window_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(
            "dominofill tiling v1\ndim 1\nshapes 1:2\nwindow 0 1000000000000000\nseed 0\n1 0\n",
            encoding="utf-8",
        )
        assert main(["render", str(path), "--out", str(tmp_path)]) == 1
        self.assert_one_error_line(capsys)
        assert not (tmp_path / "render.txt").exists()

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("dim 2", "dim x"),
            ("seed 0", "seed x"),
            ("window -6 -6 12 12", "window -6 -6 12 0"),
            ("P -6 -6", "P -6 x"),
            ("P:6x6", "P:6"),
        ],
    )
    def test_malformed_text_field_exits_1(self, field, bad, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        text = serialize_tiling(sample_tiling())
        assert field in text
        path.write_text(text.replace(field, bad, 1))
        assert main(["verify", str(path)]) == 1
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "config, named",
        [
            (
                "[run]\ndim = 1\nwindow = 100\n\n[family]\nshapes = 2 3\n\n"
                "[targets]\nprobs = 1/2 1/2\n",
                "config has dim 1, the tiling has dim 2",
            ),
            (
                FLAGSHIP_INI.replace("3x2 2x3", "2x3 3x2"),
                "config tile 1 has shape 2x3, the tiling has 3x2",
            ),
        ],
        ids=["other_dim", "other_shape"],
    )
    @pytest.mark.parametrize("command", ["stats", "redistribute"])
    def test_config_of_another_family_exits_1(self, command, config, named, tmp_path, capsys):
        """stats and redistribute refuse a config whose family is not the
        tiling's, rather than measure the tiling against its targets."""
        path, ini = tmp_path / "t.txt", tmp_path / "other.ini"
        write_atomic(str(path), serialize_tiling(sample_tiling()))
        ini.write_text(config, encoding="utf-8")
        extra = ["--out", str(tmp_path / "out")] if command == "redistribute" else []
        assert main([command, str(path), "--config", str(ini), *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == f"error: {named}", err
        assert not (tmp_path / "out").exists()

    def test_closed_stdout_exits_141_silently(self, flagship_cfg, monkeypatch, capsys):
        def closed(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("dominofill.cli.main.cmd_plan", closed)
        assert main(["plan", "--config", flagship_cfg]) == 141
        assert capsys.readouterr() == ("", "")

    def test_internal_value_error_propagates(self, flagship_cfg, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr("dominofill.cli.main.run_pipeline", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["build", "--config", flagship_cfg])


TWO_STAGE_INI = (
    FLAGSHIP_INI.replace("window = 300,300", "window = 1024,1024")
    .replace("seed = 11", "seed = 1")
    .replace("sides = 64", "sides = 64,512")
)

LINE_INI = """\
[run]
dim = 1
window = 100000
seed = 4
mode = relaxed

[family]
shapes = 2 3 5

[targets]
probs = 2/5 2/5 1/5

[plan]
sides = 33,200
cutoffs = 2,3
"""

# Three countable line stages: at seed 2 stage-3 towers keep stage-2 blocks
# of both kinds (the composite and the P2 tail brick), so the band keys'
# kind digit is pinned.
LINE_3_STAGE_INI = """\
[run]
dim = 1
window = 300000
seed = 2
mode = relaxed

[family]
shapes = 2 3 5 7

[targets]
probs = 2/5 3/10 1/5 1/10

[plan]
sides = 33,220,1500
cutoffs = 2,3,4
"""

# Three flagship stages: at seed 4 stage-3 towers keep stage-2 blocks that
# themselves kept stage-1 blocks.
THREE_STAGE_INI = (
    FLAGSHIP_INI.replace("window = 300,300", "window = 1500,1500")
    .replace("seed = 11", "seed = 4")
    .replace("sides = 64", "sides = 57,200,700")
)

THREE_D_INI = """\
[run]
dim = 3
window = 240,240,240
seed = 1
mode = relaxed

[family]
shapes = 2x1x1 1x2x1 1x1x2

[targets]
probs = 1/3 1/3 1/3

[plan]
sides = 30,120
"""

# sha256 of the files `dominofill build` writes.  A change here changes
# seeded outputs.
GOLDEN_BUILDS = {
    "flagship_300": (FLAGSHIP_INI, {
        "tiling.txt": "03c1e6c172a9210c4ca08d5a69ede18088c7d69543a7d0648490739cf3e6cf55",
        "tiling_pre.txt": "1bea073244a963ddd7ab7bde9ca42b2666540c918a3c43ec53c9cd0e4b2c1db3",
        "report.json": "d0e1b2a44960d957564fb9bb280a961bd5de3910e7eff7af9e3eaf9e4864e56f",
    }),
    "two_stage_1024": (TWO_STAGE_INI, {
        "tiling.txt": "d98bffb5cd4469bd2fd817faf8ec803eaceacfb16ca86e17a006187bb1f05ee9",
        "tiling_pre.txt": "977bf9199a88f1a3cdd651d67af5e83b3cf53936061eaf2ec635b5a43fe60a84",
        "report.json": "1ec38966c9bb88705f190b89b8faeed6dbf5439d5c23e2161519e8e23ca7dd87",
    }),
    "countable_line": (LINE_INI, {
        "tiling.txt": "3790190a28ab360f44699baab7b45c22e8e57433f6e291d45097c6b6b2406ac3",
        "tiling_pre.txt": "e019bc1f22daa1d4808da99d89e6065da70f62bcced097f0ef88eab6817656c7",
        "report.json": "a030c63575f2b7ebeb281229c0fc61461009d8d4a8d7a9aadce4ec1b1901d9d8",
    }),
    "countable_line_3_stage": (LINE_3_STAGE_INI, {
        "tiling.txt": "e4ecdfcc4e746ebfc0b13157f1d1ed15d21cfb1f4e1c502f59de033abd65d80a",
        "tiling_pre.txt": "5637a41f585948fa3a95e15076ee128fce1a38f536a61bddba00c4d4560a99f3",
        "report.json": "71a069e264aec6a933b51bcc75114bb8fdf7c0d3a3a1dc4a9f183532bf391c93",
    }),
    "three_stage_1500": (THREE_STAGE_INI, {
        "tiling.txt": "cd46e35a46a252d00ad8efb88fcf296be274601d4026bbdc7e2e80d4ccca1226",
        "tiling_pre.txt": "3531cfc285c216bae36cf89c8872b71866ffa8c594c2eade3aefabb5632464f2",
        "report.json": "b9b8d4f20270741e748b29eb99a4b66b5f76fbfb1bd90586bda414ffb3e24a4c",
    }),
    "three_d_two_stage": (THREE_D_INI, {
        "tiling.txt": "2fe086e9e81ddc15d7eb1f6587c96a5ef57eb2ea0fe00559980765394c0767cd",
        "tiling_pre.txt": "2d2f56ab39407f393f551997989b978d39ad7bf515f15b88672afbb355784e42",
        "report.json": "50252df3ca21384a6603bbb74af0fdfefe0b3f3a829271ed668c266fd8baf832",
    }),
}
GOLDEN_FILL = "90522b56788230bd82846b10810a0e49c1fc3a121736979376b577b983d38213"
# `dominofill fill` on the flagship plane and on the 3-D dominoes; GOLDEN_FILL
# pins the line.
FILL_PLANE_INI = """\
[run]
dim = 2
window = 64,64

[family]
shapes = 3x2 2x3

[targets]
probs = 2/5 3/5

[fill]
inner_translate = 1,2
outer_translate = 0,0
box_anchor = 0,0
box_shape = 18,18
"""
FILL_3D_INI = """\
[run]
dim = 3
window = 32,32,32

[family]
shapes = 2x1x1 1x2x1 1x1x2

[targets]
probs = 1/3 1/3 1/3

[fill]
inner_translate = 1,0,1
outer_translate = 0,0,0
box_anchor = 0,0,0
box_shape = 4,6,4
"""
GOLDEN_FILLS = {
    "plane": (FILL_PLANE_INI, "6f32013b50577f951289dff4f0051808bc9b6018ac46dbb585f0e39aaf54ea96"),
    "dominoes_3d": (FILL_3D_INI, "cd92094ad723816594f8c8254cddfdf8ac3b9666a48e778009f58c1e8de49712"),
}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGoldenBytes:
    @pytest.mark.parametrize("ini", [FLAGSHIP_PLAN_INI, LINE_INI], ids=["flagship", "line"])
    def test_redistribute_reproduces_the_build(self, ini, tmp_path, capsys):
        """redistribute of a build's tiling_pre.txt, with the build's config,
        writes the bytes of its tiling.txt: both draw one stream of the seed."""
        config = tmp_path / "run.ini"
        config.write_text(ini, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["build", "--config", str(config), "--out", str(out)]) == 0
        pre = str(out / "tiling_pre.txt")
        assert main(["redistribute", pre, "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "redistributed.txt").read_bytes() == (out / "tiling.txt").read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
    def test_build_outputs(self, name, tmp_path, monkeypatch, capsys):
        ini, digests = GOLDEN_BUILDS[name]
        monkeypatch.chdir(tmp_path)
        Path("run.ini").write_text(ini, encoding="utf-8")
        assert main(["build", "--config", "run.ini", "--out", "out"]) == 0
        capsys.readouterr()
        assert {f: sha256_of(Path("out") / f) for f in digests} == digests

    def test_report_does_not_depend_on_out_dir(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(FLAGSHIP_INI, encoding="utf-8")
        reports = []
        for out in (tmp_path / "a", tmp_path / "deeper" / "b"):
            assert main(["build", "--config", str(config), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert report["schema"] == 2
        echoed = parse_config(report["config"])
        assert echoed == replace(parse_config(FLAGSHIP_INI), out_dir=echoed.out_dir)

    def test_fill_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("fill.ini").write_text(FILL_INI, encoding="utf-8")
        assert main(["fill", "--config", "fill.ini", "--out", "out"]) == 0
        capsys.readouterr()
        assert sha256_of(Path("out") / "fill.txt") == GOLDEN_FILL

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", sorted(GOLDEN_FILLS))
    def test_fill_outputs_in_each_dimension(self, name, fmt, tmp_path, monkeypatch, capsys):
        ini, digest = GOLDEN_FILLS[name]
        monkeypatch.chdir(tmp_path)
        text = ini.replace("[run]\n", f"[run]\nformat = {fmt}\n")
        Path("fill.ini").write_text(text, encoding="utf-8")
        assert main(["fill", "--config", "fill.ini", "--out", "out"]) == 0
        capsys.readouterr()
        assert sha256_of(Path("out") / "fill.txt") == digest


class TestConsoleScript:
    def test_entry_point_runs(self, flagship_cfg):
        """Run the `dominofill` script declared in pyproject.toml as its own process.

        The command line is the one pip's generated wrapper executes, so this
        needs no install; PYTHONPATH pins the subprocess to the package under test.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["dominofill"]
        module, attr = target.split(":")
        src = str(Path(dominofill.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; from {module} import {attr}; sys.exit({attr}())",
                "plan",
                "--config",
                flagship_cfg,
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "stage 1: side 64" in proc.stdout

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_gone_exits_141(self, flagship_cfg, unbuffered):
        """A pipe whose reader closed before the first write: no error line, no
        "Exception ignored" from the exit flush, and status 128 + SIGPIPE,
        whether stdout is block-buffered (one write at the end) or not."""
        src = str(Path(dominofill.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONUNBUFFERED": unbuffered}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dominofill", "plan", "--config", flagship_cfg],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

    @pytest.mark.skipif(
        shutil.which("dominofill") is None,
        reason="dominofill console script not on PATH",
    )
    def test_installed_console_script_runs(self, flagship_cfg):
        exe = shutil.which("dominofill")
        assert exe is not None, "console script not installed"
        proc = subprocess.run(
            [exe, "plan", "--config", flagship_cfg],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "stage 1: side 64" in proc.stdout
