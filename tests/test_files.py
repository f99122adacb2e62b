"""Tiling and word files: the column writers and bulk readers against the line, cell and
record oracles."""

import json
import os
import re
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    iter_cells,
    load_by_text_mode,
    load_text,
    parse_by_lines,
    parse_word_by_lines,
    placements,
    same_placements,
    serialize_by_lines,
    serialize_word_by_lines,
    tiling_from_parts,
)

from dominofill import Box, BrickWall
from dominofill.brickfill import FilledWord
from dominofill.cli import files
from dominofill.cli.files import (
    ParseError,
    VersionMismatch,
    load_any,
    serialize_tiling,
    write_atomic,
)
from dominofill.cli import main as cli_main
from dominofill.cli.main import main
from dominofill.sft import Alphabet, SymbolicWord, Tiling, tile_table

# The int64 ends, the first two- and nineteen-digit values, and both sides
# of the writer's switch from uint32 to uint64 digit columns.
INT64_EDGES = [0, 9, 10, 2**32 - 1, 2**32, -(2**32 - 1), -(2**32), 10**18]
INT64_EDGES += [2**63 - 1, -(2**63 - 1), -(2**63)]
# Labels of 1 to 13 bytes: the bulk parser reads labels of up to 8 bytes,
# the builder's, as packed integers, and leaves a file with a longer one in
# its body to the line walk.
TILE_IDS = [1, 2, "P", "P2", "P10", "P1234567", "P123456789", 10**12]
SHORT_IDS = [t for t in TILE_IDS if len(str(t)) <= 8]


@st.composite
def tilings(draw):
    dim = draw(st.integers(1, 3))
    ids = draw(st.lists(st.sampled_from(TILE_IDS), unique=True, max_size=len(TILE_IDS)))
    shapes = {t: tuple(draw(st.integers(1, 12)) for _ in range(dim)) for t in ids}
    coord = st.one_of(
        st.integers(-12, 12),
        st.integers(-(10**15), 10**15),
        st.sampled_from(INT64_EDGES),
        st.builds(lambda k, sign: sign * 10**k, st.integers(0, 18), st.sampled_from([1, -1])),
    )
    placements = draw(
        st.lists(st.tuples(st.sampled_from(ids), st.tuples(*[coord] * dim)), max_size=25)
        if ids
        else st.just([])
    )
    window = draw(
        st.none()
        | st.builds(
            Box,
            st.tuples(*[st.integers(-50, 50)] * dim),
            st.tuples(*[st.integers(1, 50)] * dim),
        )
    )
    tiling = tiling_from_parts(shapes, [(t, [a]) for t, a in placements], window)
    return tiling, draw(st.integers(0, 2**64))


def snapshot(parsed):
    """Everything a parse returns, in a form that compares with ``==``."""
    tiling, seed = parsed
    return (
        list(tiling.tile_shapes.items()),
        tiling.tile_order,
        tiling.codes.dtype,
        tiling.codes.tolist(),
        tiling.anchors.dtype,
        tiling.anchors.shape,
        tiling.anchors.tolist(),
        tiling.window,
        seed,
    )


def records(tiling):
    return [(*map(int, a), int(c)) for c, a in zip(tiling.codes, tiling.anchors)]


def outcome(parse, text):
    try:
        return "ok", snapshot(parse(text))
    except ParseError as exc:
        return type(exc).__name__, str(exc)


def parse_bulk_only(text, kind=files.TILING):
    """(object, seed) read by the bulk parser alone; a file it leaves to the
    line walk fails the test."""
    parsed = files._parse_bulk(text.encode(), kind)
    assert parsed is not None
    (dim, shapes, window, seed), records = parsed
    return kind.build(shapes, dim, window, *records), seed


# Rows a writer block: one to three rows a block split small tilings and
# words over several blocks, as a file of more than ``_CHUNK_ROWS`` records is.
CHUNK_ROWS = st.sampled_from([1, 2, 3, files._CHUNK_ROWS])


@settings(max_examples=300)
@given(tilings(), CHUNK_ROWS)
def test_writer_and_bulk_parser_match_line_oracles(case, chunk_rows):
    tiling, seed = case
    canon = tiling.sorted_canonical()
    assert records(canon) == sorted(records(tiling))
    assert canon.sorted_canonical() is canon  # an ordered tiling is not sorted again
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(files, "_CHUNK_ROWS", chunk_rows)
        text = serialize_tiling(tiling, seed)
    assert text == serialize_by_lines(tiling, seed)
    want = outcome(parse_by_lines, text)
    assert outcome(load_text, text) == want
    if all(len(str(p.tile)) <= 8 for p in placements(tiling)):
        assert outcome(parse_bulk_only, text) == want  # such written files never need the walk
    else:
        assert files._parse_bulk(text.encode(), files.TILING) is None


@pytest.mark.parametrize("chunk_bytes", [1, 40, 1 << 17])
def test_labels_group_across_chunks(monkeypatch, chunk_bytes):
    """Each label's placements read as one tile, whichever chunk they fall
    in: in bulk for labels of up to 8 bytes, else by the line walk."""
    monkeypatch.setattr(files, "_CHUNK_BYTES", chunk_bytes)
    for ids in (SHORT_IDS, TILE_IDS):
        shapes = {t: (1, 1) for t in ids}
        parts = [(t, [(i, k) for k in range(3)]) for i, t in enumerate(ids)]
        text = serialize_tiling(tiling_from_parts(shapes, parts, None), 1)
        want = outcome(parse_by_lines, text)
        assert want[0] == "ok" and len(want[1][3]) == 3 * len(ids)
        assert outcome(load_text, text) == want
        if ids is SHORT_IDS:
            assert outcome(parse_bulk_only, text) == want
        else:
            assert files._parse_bulk(text.encode(), files.TILING) is None


@pytest.mark.parametrize("label", ["01", "Q", "P_1", "P123456789", "1000000000000"])
def test_labels_off_the_table_go_to_the_line_walk(label):
    """A body label that is not one of the header's labels of up to 8
    bytes, spelled as written, leaves the file to the line walk, which
    reads it as the oracles do."""
    header = "dim 2\nshapes 1:1x1 2:1x1 P:1x1 P123456789:1x1\nwindow 0 0 4 4\nseed 5\n"
    tiling = f"dominofill tiling v1\n{header}1 0 0\n{label} 1 0\n"
    word = f"dominofill word v1\n{header}0 0 1 0 0\n1 0 {label} 0 0\n"
    assert files._parse_bulk(tiling.encode(), files.TILING) is None
    assert files._parse_bulk(word.encode(), files.WORD) is None
    assert outcome(load_text, tiling) == outcome(parse_by_lines, tiling)
    assert word_outcome(load_text, word) == word_outcome(parse_word_by_lines, word)


# Body labels against a header that lists HEADER_TILES: its own spellings
# (one over 8 bytes), other spellings of its ints, tiles it lacks (one an int
# over 8 bytes) and labels the bulk parser leaves to the line walk.
HEADER_TILES = [1, 2, "P", "P1234567", "P123456789"]
OWN_LABELS = ["1", "2", "P", "P1234567", "P123456789"]
OTHER_LABELS = ["01", "002", "-0", "9", "Q", "P12345678", "1000000000000", "P_1"]


@st.composite
def labelled_bodies(draw):
    """(header lines, body labels): a run of the header's own labels, then any
    labels, so that a label the header lacks can first appear in a later chunk."""
    labels = draw(st.lists(st.sampled_from(OWN_LABELS), max_size=12))
    labels += draw(st.lists(st.sampled_from(OWN_LABELS + OTHER_LABELS), max_size=12))
    tiles = draw(st.lists(st.sampled_from(HEADER_TILES), min_size=1, unique=True))
    shapes = " ".join(f"{t}:1x1" for t in tiles)
    return f"dim 2\nshapes {shapes}\nwindow 0 0 4 4\nseed 5\n", labels


@settings(max_examples=150)
@given(labelled_bodies(), st.sampled_from([1, 40]), st.data())
def test_label_lookup_matches_line_walk(case, chunk_bytes, data):
    """Tiling and word bodies read as the line walk reads them, whichever
    chunk a label the header lacks first appears in.  The reader keeps the
    file's order and the tiling oracle sorts, so the tiling is compared
    sorted."""
    header, labels = case
    coord = st.integers(-1, 4)
    anchors = [data.draw(st.tuples(coord, coord)) for _ in labels]
    tiling = "dominofill tiling v1\n" + header
    tiling += "".join(f"{t} {x} {y}\n" for t, (x, y) in zip(labels, anchors))
    word = "dominofill word v1\n" + header
    word += "".join(f"{x} {y} {t} 0 0\n" for t, (x, y) in zip(labels, anchors))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(files, "_CHUNK_BYTES", chunk_bytes)
        assert outcome(load_sorted, tiling) == outcome(parse_by_lines, tiling)
        assert word_outcome(load_text, word) == word_outcome(parse_word_by_lines, word)


def load_sorted(text):
    """(tiling, seed) that ``load_any`` reads from a file of ``text``, sorted
    into canonical order."""
    tiling, seed = load_text(text)
    return tiling.sorted_canonical(), seed


# Odd body tokens: signs out of place, a lone sign, labels that read as ints
# or hold an x, the int64 ends and one past each.
BODY_TOKENS = ["--5", "5-", "-", "-1", "-0", "P", "x", "1x2", "9223372036854775807"]
BODY_TOKENS += ["-9223372036854775808", "9223372036854775808", "-9223372036854775809"]


@st.composite
def text_bodies(draw):
    """(kind, dim, body): lines of a label and coordinates, mostly ints, else
    tokens of digits, ``-``, ``P`` and ``x`` (or from BODY_TOKENS), joined by
    spaces and ended by ``\n``, at times with a token too many or too few, a
    stray space or ``\r``; or any string of those bytes."""
    kind = draw(st.sampled_from([files.TILING, files.WORD]))
    dim = draw(st.integers(1, 2))
    odd = st.text("0123456789-Px", min_size=1, max_size=4) | st.sampled_from(BODY_TOKENS)
    # Odd tokens and counts are drawn one time in twenty, so that most chunks read in bulk.
    coord = st.one_of([st.integers(-(10**4), 10**4).map(str)] * 19 + [odd])
    label = st.one_of([st.sampled_from(["1", "P", "-1", "01", "x", "P-"])] * 19 + [odd])
    count = st.sampled_from([0] * 38 + [-1, 1]).map(lambda k: len(kind.fields) * dim + k)
    coords = count.flatmap(lambda k: st.lists(coord, min_size=k, max_size=k))
    line = st.tuples(label, coords).map(
        lambda lc: " ".join([*lc[1][: kind.label_at * dim], lc[0], *lc[1][kind.label_at * dim :]])
    )
    ending = st.sampled_from(["\n"] * 36 + ["\r\n", " \n", "\n\n", "\r"])
    lines = st.lists(st.tuples(line, ending).map("".join), max_size=8).map("".join)
    return kind, dim, draw(st.one_of([lines] * 4 + [st.text("0123456789- \n\rPx", max_size=40)]))


@settings(max_examples=400)
@given(text_bodies(), st.sampled_from([1, 40, 1 << 17]))
@example((files.TILING, 1, "P --5\n"), 1 << 17)
@example((files.TILING, 1, "P 5-\n"), 1 << 17)
@example((files.TILING, 1, "1 2\r\n"), 1 << 17)
@example((files.TILING, 2, "-1 0 -3\n-1 -0 9223372036854775807\n"), 1 << 17)
@example((files.WORD, 1, "4 -1 0\n-2 P 1\n"), 40)
@example((files.WORD, 1, "5 1 0\n123 1 0\n"), 1 << 17)  # a short first token
@example((files.TILING, 1, "1 2 3\n4\n"), 1 << 17)  # lines of 3 and 1 tokens
@example((files.TILING, 1, "1\n2\n3 4\n"), 1 << 17)  # lines of 1, 1 and 2 tokens
def test_bulk_parse_is_the_line_walk_or_none(case, chunk_bytes):
    """Whatever body bytes the bulk reader takes, it reads as the line walk
    does: the same header, each record's tile and its coordinates."""
    kind, dim, body = case
    shapes = " ".join(f"{t}:{'x'.join(['1'] * dim)}" for t in (1, "P", -1))
    window = " ".join(["0"] * dim + ["4"] * dim)
    text = f"{kind.magic}\ndim {dim}\nshapes {shapes}\nwindow {window}\nseed 3\n{body}"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(files, "_CHUNK_BYTES", chunk_bytes)
        parsed = files._parse_bulk(text.encode(), kind)
    if parsed is None:
        return
    head, (tiles, inverse, fields) = parsed
    want_head, (want_tiles, want_inverse, want_fields) = files._walk_lines(text, kind)
    assert head == want_head
    assert [tiles[i] for i in inverse] == [want_tiles[i] for i in want_inverse]
    assert [np.asarray(f).tolist() for f in fields] == want_fields


@pytest.mark.parametrize("labels", [("P", "Q"), ("Ab", "PX"), ("P2", "Q2", "P10", "R")])
def test_tile_order_is_total(labels):
    """Any labels load, and the header's order of labels of one stage does
    not change the bytes written."""
    texts = []
    for order in (labels, labels[::-1]):
        header = " ".join(f"{t}:{labels.index(t) + 1}x1" for t in order)
        body = "".join(f"{t} {10 * labels.index(t)} 0\n" for t in order)
        text = f"dominofill tiling v1\ndim 2\nshapes {header}\nwindow none\nseed 4\n{body}"
        texts.append(serialize_tiling(*load_text(text)))
    assert texts[0] == texts[1]
    written = [1, 2, 10**12, "P", "P2", "P10", "P1234567", "P123456789"]
    assert list(tile_table(TILE_IDS)) == written  # the program's labels keep their order


@pytest.mark.parametrize(
    "token, tile",
    [("7", 7), ("-7", -7), ("٣", 3), ("+5", "+5"), ("1_0", "1_0"), ("²", "²"), ("-²", "-²")],
)
def test_tile_token_is_an_int_only_where_int_reads_it(token, tile):
    assert files._parse_tile(token) == tile


@pytest.mark.parametrize("label", ["²", "-²"], ids=["superscript", "minus_superscript"])
def test_label_int_refuses_reads_back(tmp_path, capsys, label):
    """A label that ``str.isdigit`` accepts and ``int()`` refuses is written,
    read back and verified as that label."""
    shapes = {1: (1, 2), label: (2, 2)}
    tiling = tiling_from_parts(shapes, [(1, [(0, 0)]), (label, [(1, 0)])], Box((0, 0), (3, 2)))
    text = serialize_tiling(tiling, 7)
    parsed, seed = load_text(text)
    assert parsed.tile_shapes == shapes and seed == 7
    assert same_placements(parsed, tiling)
    path = tmp_path / "tiling.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("serialize", [serialize_tiling], ids=["text"])
def test_empty_tiling_without_window_round_trips(tmp_path, dim, serialize):
    shapes = {1: (2,) * dim, "P": (4,) * dim}
    empty = Tiling(shapes, [], np.zeros((0, dim)))
    text = serialize(empty, 5)
    assert f"\ndim {dim}\n" in text
    path = tmp_path / "empty"
    path.write_text(text, encoding="utf-8")
    loaded = load_any(str(path))
    assert loaded.tiling.tile_shapes == shapes
    assert loaded.tiling.anchors.shape == (0, dim)
    assert loaded.tiling.window is None and loaded.seed == 5


@pytest.mark.parametrize(
    "text", ["dominofill tiling v1\ndim 3\nshapes \nwindow none\nseed 0\n"], ids=["text"]
)
def test_empty_tiling_without_shapes_keeps_its_dimension(tmp_path, text):
    """With no shapes and no window, the dimension is the header's alone."""
    path = tmp_path / "empty"
    path.write_text(text, encoding="utf-8")
    tiling = load_any(str(path)).tiling
    assert tiling.dim == 3 and tiling.anchors.shape == (0, 3) and len(tiling) == 0
    assert serialize_tiling(tiling, 0) == text


def wall_word(alphabet, box):
    """The word over ``box`` of the wall of brick ``P`` at translate (1, 2)."""
    return FilledWord.pure_wall(BrickWall(alphabet, "P", (1, 2))).materialize(box)


def test_word_writer_matches_cell_lines(flagship_alphabet):
    word = wall_word(flagship_alphabet, Box((-13, -7), (9, 11)))
    word.grid[2:4, 5:9] = -1  # unassigned cells are skipped
    body = "".join(
        f"{' '.join(map(str, cell))} {sym.tile} {' '.join(map(str, sym.offset))}\n"
        for cell, sym in iter_cells(word)
    )
    assert b"".join(files.file_blocks(word, 4)).decode().split("\n", 5)[5] == body


HEADER = "dominofill tiling v1\ndim 2\nshapes 1:3x2 2:2x3 P:6x6\nwindow 0 0 12 12\nseed 3\n"

MALFORMED = {
    "uneven_lines_even_token_count": HEADER + "1 0\n0 1 3 0\n",
    "plus_sign": HEADER + "1 +5 0\n",
    "underscore_digits": HEADER + "1 1_0 0\n",
    "arabic_indic_digit": HEADER + "1 ٣ 0\n",
    "superscript_digit_tile": HEADER + "² 0 0\n",
    "tab_separators": HEADER + "1\t0\t0\n2 3 0\n",
    "crlf_endings": (HEADER + "1 0 0\n2 3 0\n").replace("\n", "\r\n"),
    "crlf_header_only": HEADER.replace("\n", "\r\n") + "1 0 0\n",
    "blank_lines_in_body": HEADER + "1 0 0\n\n   \n2 3 0\n",
    "trailing_blank_line": HEADER + "1 0 0\n\n",
    "trailing_spaces": HEADER + "1 0 0  \n 2 3 0\n",
    "no_final_newline": HEADER + "1 0 0\n2 3 0",
    # Each of these has a multiple of 3 separators, so the separator count
    # alone does not refuse it: the newline positions or the last byte do.
    "space_before_newline": HEADER + "1 0 0 \n2 3\n",
    "blank_body_line": HEADER + "1 0 0\n\n2 3\n",
    "tab_separator": HEADER + "1\t0 0\n2 3 0 4\n",
    "no_final_newline_after_even_count": HEADER + "1 0 0\n2 3 0 4",
    "int64_overflow": HEADER + "1 9223372036854775808 0\n",
    "int64_negative_overflow": HEADER + "1 -9223372036854775809 0\n",
    "multi_digit_anchors": HEADER + "1 300 -1234\n2 987654321 -4999999999\n",
    "int64_extremes": HEADER + "1 9223372036854775807 -9223372036854775808\n",
    "leading_zeros": HEADER + "01 007 -00\n",
    "twenty_digit_one": HEADER + "1 00000000000000000001 0\n",
    "unknown_tile_number": HEADER + "1 0 0\n9 0 0\n",
    "unknown_tile_label": HEADER + "Q 0 0\nP2 6 6\n",
    "lone_minus_anchor": HEADER + "1 - 0\n",
    "minus_inside_anchor": HEADER + "1 1-2 0\n",
    "letter_in_anchor": HEADER + "1 0x1 0\n",
    "double_minus_tile": HEADER + "--1 0 0\n",
    "too_many_tokens": HEADER + "1 0 0 0\n",
    "group_separator": HEADER + "1 0 0\x1c2 3 0\n",
    "form_feed_line": HEADER + "1 0 0\n\x0c\n2 3 0\n",
    "bad_shape_extent": HEADER.replace("P:6x6", "P:6x0") + "1 0 0\n",
    "bad_dim": HEADER.replace("dim 2", "dim two"),
    "huge_dim": HEADER.replace("dim 2", "dim 1000000000").replace("0 0 12 12", "none") + "1 0\n",
    "dim_past_intp": HEADER.replace("dim 2", "dim 9223372036854775808").replace("0 0 12 12", "none")
    + "1 0\n",
    "empty_body": HEADER,
    "header_cut_short": "dominofill tiling v1\ndim 2\n",
    "dim_zero": "dominofill tiling v1\ndim 0\nshapes \nwindow none\nseed 0\n",
    "dim_negative": "dominofill tiling v1\ndim -1\nshapes \nwindow none\nseed 0\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_bodies_match_line_walk(name):
    text = MALFORMED[name]
    assert outcome(load_text, text) == outcome(parse_by_lines, text)


def test_uneven_lines_are_not_counted_as_tokens():
    text = MALFORMED["uneven_lines_even_token_count"]
    assert outcome(load_text, text) == ("ParseError", "bad placement line '1 0'")


@pytest.mark.parametrize(
    "first, error",
    [
        ("dominofill tiling v1\r", None),
        ("dominofill tiling v2", VersionMismatch),
        ("dominofill " + "x" * 5000, VersionMismatch),
        ("not a tiling", ParseError),
        (" dominofill tiling v1", ParseError),
        ("\tdominofill tiling v2", ParseError),
    ],
    ids=[
        "cr_ending",
        "other_version",
        "long_marker",
        "no_marker",
        "leading_space_marker",
        "leading_tab_other_version",
    ],
)
def test_load_any_reads_first_line(tmp_path, first, error):
    path = tmp_path / "t.txt"
    rest = HEADER.split("\n", 1)[1] + "1 0 0\n"
    path.write_bytes(("\n\n" + first + "\n" + rest).encode())
    if error is None:
        assert np.array_equal(load_any(str(path)).tiling.anchors, [[0, 0]])
        return
    with pytest.raises(error) as exc:
        load_any(str(path))
    if error is VersionMismatch:
        assert str(exc.value) == f"unsupported format marker {first!r}"
    else:
        assert str(exc.value) == f"unrecognized file {str(path)!r}"


@pytest.mark.parametrize("data", [b"", b"\n \r\n\t\n"], ids=["empty", "blank_lines"])
def test_load_any_refuses_a_file_without_a_first_line(tmp_path, data):
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_any(str(path))
    assert type(exc.value) is ParseError
    assert str(exc.value) == f"unrecognized file {str(path)!r}"


def json_doc(*placements):
    return {
        "format": "dominofill tiling",
        "version": 1,
        "dim": 2,
        "shapes": {"1": [3, 2], "2": [2, 3], "P": [6, 6]},
        "window": {"anchor": [0, 0], "shape": [12, 12]},
        "seed": 3,
        "placements": [{"tile": t, "anchor": a} for t, a in placements],
    }


def json_word_doc(*cells):
    return {
        "format": "dominofill word",
        "version": 1,
        "dim": 2,
        "shapes": {"1": [3, 2], "2": [2, 3], "P": [6, 6]},
        "window": {"anchor": [0, 0], "shape": [12, 12]},
        "seed": 3,
        "cells": [{"cell": c, "tile": t, "offset": o} for c, t, o in cells],
    }


GOOD_CELL = ([0, 0], 1, [0, 0])
# Tilings in the JSON layout that earlier versions read, malformed in each field.
MALFORMED_JSON = {
    "missing_anchor": {**json_doc((1, [0, 0])), "placements": [{"tile": 1}]},
    "missing_tile": {**json_doc((1, [0, 0])), "placements": [{"anchor": [0, 0]}]},
    "record_not_object": {**json_doc((1, [0, 0])), "placements": [[1, [0, 0]]]},
    "wrong_arity": json_doc((1, [0, 0]), (2, [3, 0, 0])),
    "uniform_wrong_arity": json_doc((1, [0]), (2, [3])),
    "nested_anchor": json_doc((1, [[0], [0]])),
    "float_coordinate": json_doc((1, [0, 0]), (2, [1.5, 0])),
    "integral_float_coordinate": json_doc((1, [2.0, 0])),
    "huge_float_coordinate": json_doc((1, [1e30, 0])),
    "string_coordinate": json_doc((1, ["3", 0])),
    "bad_string_coordinate": json_doc((1, ["x", 0])),
    "string_anchor": json_doc((1, "00")),
    "null_coordinate": json_doc((1, [None, 0])),
    "int64_overflow": json_doc((1, [2**63, 0])),
    "int64_negative_overflow": json_doc((1, [-(2**63) - 1, 0])),
    "int64_extremes": json_doc((1, [2**63 - 1, -(2**63)])),
    "unknown_tile": json_doc((1, [0, 0]), (9, [3, 0])),
    "unknown_tile_label": json_doc(("Q", [0, 0]), ("P", [6, 6])),
    "string_tile_ids": json_doc(("1", [0, 0]), (2, [3, 0]), ("P", [6, 6])),
    "bool_tile": json_doc((1, [0, 0]), (True, [3, 0])),
    "bool_coordinates": json_doc((1, [True, False]), (2, [3, 0])),
    "all_bool_coordinates": json_doc((1, [True, False])),
    "float_tile": json_doc((1.0, [0, 0])),
    "null_tile": json_doc((None, [0, 0])),
    "no_placements": json_doc(),
    "placements_not_list": {**json_doc(), "placements": {"tile": 1, "anchor": [0, 0]}},
    "float_dim": {**json_doc((1, [0, 0])), "dim": 2.0},
    "float_shape": {**json_doc((1, [0, 0])), "shapes": {"1": [2.9, 1], "P": [6, 6]}},
    "bool_shape": {**json_doc((1, [0, 0])), "shapes": {"1": [True, 1], "P": [6, 6]}},
    "float_window_anchor": {
        **json_doc((1, [0, 0])),
        "window": {"anchor": [0.5, 0], "shape": [12, 12]},
    },
    "bool_window_shape": {
        **json_doc((1, [0, 0])),
        "window": {"anchor": [0, 0], "shape": [12, True]},
    },
    "float_seed": {**json_doc((1, [0, 0])), "seed": 3.0},
}
# Integer fields that are JSON floats or bools.
NON_INTEGER_JSON = [
    "float_coordinate",
    "integral_float_coordinate",
    "huge_float_coordinate",
    "bool_coordinates",
    "all_bool_coordinates",
    "float_dim",
    "float_shape",
    "bool_shape",
    "float_window_anchor",
    "bool_window_shape",
    "float_seed",
]


def json_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def load_outcome(load, path):
    try:
        loaded = load(path)
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    return "ok", loaded.kind


@pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
def test_malformed_json_matches_record_oracle(tmp_path, name):
    """Text is the one file format: ``load_any`` and the text-mode oracle
    both refuse a JSON tiling whole, whatever its records hold, as a file
    that is not a tiling or a word."""
    path = json_file(tmp_path, MALFORMED_JSON[name])
    refused = ("ParseError", f"unrecognized file {path!r}")
    assert load_outcome(load_any, path) == load_outcome(load_by_text_mode, path) == refused


@pytest.mark.parametrize("name", NON_INTEGER_JSON)
def test_json_integer_fields_refuse_floats_and_bools(tmp_path, capsys, name):
    """A float or bool in an integer field is never truncated into a tiling:
    ``verify`` refuses the JSON file before reading any field."""
    path = json_file(tmp_path, MALFORMED_JSON[name])
    assert main(["verify", path]) == 1
    assert capsys.readouterr() == ("", f"error: unrecognized file {path!r}\n")


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_write_atomic_gives_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_atomic(str(tmp_path / "atomic.txt"), "x\n")
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "atomic.txt").stat().st_mode)
    assert mode == 0o666 & ~umask == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)


@st.composite
def words(draw):
    """A word over a small window with random symbols and unassigned cells;
    file I/O does not ask for the one-step rule."""
    dim = draw(st.integers(1, 3))
    ids = draw(st.lists(st.sampled_from(TILE_IDS), unique=True, min_size=1, max_size=4))
    shapes = {t: tuple(draw(st.integers(1, 3)) for _ in range(dim)) for t in ids}
    corner = st.one_of(st.integers(-12, 12), st.integers(-(10**15), 10**15))
    window = Box(
        tuple(draw(corner) for _ in range(dim)), tuple(draw(st.integers(1, 5)) for _ in range(dim))
    )
    word = SymbolicWord(Alphabet(dim, shapes), window)
    cells = int(np.prod(window.shape))
    symbols = st.integers(-1, word.alphabet.size - 1)
    word.grid[...] = np.array(draw(st.lists(symbols, min_size=cells, max_size=cells))).reshape(
        window.shape
    )
    return word, draw(st.integers(0, 2**64))


def word_snapshot(parsed):
    """Everything a word read returns, in a form that compares with ``==``."""
    word, seed = parsed
    alphabet = word.alphabet
    return (
        list(alphabet.tile_shapes.items()),
        alphabet.tiles,
        word.box,
        word.grid.dtype,
        word.grid.tolist(),
        seed,
    )


def same_word(outcome, word, seed):
    """Whether a read's outcome is ``word`` and ``seed``, shapes in any order."""
    shapes, *rest = word_snapshot((word, seed))
    ok, got = outcome
    return ok == "ok" and dict(got[0]) == dict(shapes) and got[1:] == tuple(rest)


def word_outcome(parse, text):
    try:
        return "ok", word_snapshot(parse(text))
    except ParseError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300)
@given(words(), CHUNK_ROWS)
def test_word_writers_and_readers_match_cell_oracles(case, chunk_rows):
    word, seed = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(files, "_CHUNK_ROWS", chunk_rows)
        text = b"".join(files.file_blocks(word, seed)).decode()
    assert text == serialize_word_by_lines(word, seed)
    want = word_outcome(parse_word_by_lines, text)
    assert same_word(want, word, seed)
    assert word_outcome(load_text, text) == want
    if all(len(str(sym.tile)) <= 8 for _, sym in iter_cells(word)):
        # Such written files never need the line walk.
        assert word_outcome(lambda t: parse_bulk_only(t, files.WORD), text) == want
    else:
        assert files._parse_bulk(text.encode(), files.WORD) is None


WORD_HEADER = "dominofill word v1\ndim 2\nshapes 1:3x2 2:2x3 P:6x6\nwindow 0 0 12 12\nseed 3\n"
PAST_INT64 = "9223372036854775808"

# Word files as MALFORMED has tilings, plus the build's refusals and files
# with more than one defect: the first offending record is named, and in it
# the first of unknown tile, cell outside, cell listed twice, bad offset.
MALFORMED_WORDS = {
    "well_formed": WORD_HEADER + "0 0 1 0 0\n0 1 1 0 1\n11 11 P 5 5\n",
    "uneven_lines_even_token_count": WORD_HEADER + "0 0 1 0\n0 1 1 0 1 0\n",
    "plus_sign": WORD_HEADER + "+5 0 1 0 0\n",
    "underscore_digits": WORD_HEADER + "1_0 0 1 0 0\n",
    "arabic_indic_digit": WORD_HEADER + "٣ 0 1 0 0\n",
    "superscript_digit_tile": WORD_HEADER + "0 0 ² 0 0\n",
    "tab_separators": WORD_HEADER + "0\t0\t1\t0\t0\n0 1 1 0 1\n",
    "crlf_endings": (WORD_HEADER + "0 0 1 0 0\n0 1 1 0 1\n").replace("\n", "\r\n"),
    "crlf_header_only": WORD_HEADER.replace("\n", "\r\n") + "0 0 1 0 0\n",
    "blank_lines_in_body": WORD_HEADER + "0 0 1 0 0\n\n   \n0 1 1 0 1\n",
    "trailing_blank_line": WORD_HEADER + "0 0 1 0 0\n\n",
    "trailing_spaces": WORD_HEADER + "0 0 1 0 0  \n 0 1 1 0 1\n",
    "no_final_newline": WORD_HEADER + "0 0 1 0 0\n0 1 1 0 1",
    "cell_past_int64": WORD_HEADER + f"{PAST_INT64} 0 1 0 0\n",
    "cell_past_negative_int64": WORD_HEADER + "0 -9223372036854775809 1 0 0\n",
    "offset_past_int64": WORD_HEADER + f"0 0 1 {PAST_INT64} 0\n",
    "int64_extremes": WORD_HEADER + "9223372036854775807 -9223372036854775808 1 0 0\n",
    "two_digit_cells": WORD_HEADER + "10 11 P 4 5\n11 10 P 5 4\n",
    "leading_zeros": WORD_HEADER + "01 00 01 00 01\n",
    "twenty_digit_one": WORD_HEADER + "00000000000000000001 0 1 0 0\n",
    "lone_minus_cell": WORD_HEADER + "- 0 1 0 0\n",
    "minus_inside_offset": WORD_HEADER + "0 0 1 0-1 0\n",
    "letter_in_cell": WORD_HEADER + "0x1 0 1 0 0\n",
    "double_minus_tile": WORD_HEADER + "0 0 --1 0 0\n",
    "too_many_tokens": WORD_HEADER + "0 0 1 0 0 0\n",
    "group_separator": WORD_HEADER + "0 0 1 0 0\x1c0 1 1 0 1\n",
    "form_feed_line": WORD_HEADER + "0 0 1 0 0\n\x0c\n0 1 1 0 1\n",
    "bad_shape_extent": WORD_HEADER.replace("P:6x6", "P:6x0") + "0 0 1 0 0\n",
    "bad_dim": WORD_HEADER.replace("dim 2", "dim two"),
    "huge_dim": WORD_HEADER.replace("dim 2", "dim 1000000000").replace("0 0 12 12", "none")
    + "0 1 0\n",
    "dim_past_intp": WORD_HEADER.replace("dim 2", f"dim {PAST_INT64}").replace("0 0 12 12", "none")
    + "0 1 0\n",
    "empty_body": WORD_HEADER,
    "header_cut_short": "dominofill word v1\ndim 2\n",
    "dim_zero": "dominofill word v1\ndim 0\nshapes \nwindow \nseed 0\n",
    "dim_negative": "dominofill word v1\ndim -1\nshapes \nwindow none\nseed 0\n",
    "tile_listed_twice_in_shapes": WORD_HEADER.replace("2:2x3", "1:2x3") + "0 0 1 0 0\n",
    "no_window": WORD_HEADER.replace("0 0 12 12", "none") + "0 0 1 0 0\n",
    "no_window_and_bad_int": WORD_HEADER.replace("0 0 12 12", "none") + "0 x 1 0 0\n",
    "unknown_tile_number": WORD_HEADER + "0 0 1 0 0\n1 0 9 0 0\n",
    "unknown_tile_label": WORD_HEADER + "0 0 Q 0 0\n",
    "cell_outside": WORD_HEADER + "0 0 1 0 0\n12 0 1 0 0\n",
    "cell_below_window": WORD_HEADER + "0 -1 1 0 0\n",
    "cell_listed_twice": WORD_HEADER + "4 4 1 0 0\n4 4 2 0 0\n",
    "offset_outside_tile": WORD_HEADER + "0 0 1 3 0\n",
    "negative_offset": WORD_HEADER + "0 0 2 0 -1\n",
    "unknown_tile_then_bad_int": WORD_HEADER + "0 0 Q 0 0\n0 x 1 0 0\n",
    "unknown_tile_and_outside_cell": WORD_HEADER + "99 99 Q 0 0\n",
    "outside_cell_and_bad_offset": WORD_HEADER + "99 0 1 9 9\n",
    "twice_and_bad_offset": WORD_HEADER + "0 0 1 0 0\n0 0 1 9 9\n",
    "bad_offset_then_unknown_tile": WORD_HEADER + "0 0 1 5 5\n1 1 Q 0 0\n",
    "twice_then_unknown_tile": WORD_HEADER + "0 0 1 0 0\n0 0 1 1 0\n5 5 Q 0 0\n",
    "outside_then_twice": WORD_HEADER + "0 0 1 0 0\n0 12 1 0 0\n0 0 1 0 0\n",
    "twice_then_cell_past_int64": WORD_HEADER + f"0 0 1 0 0\n0 0 1 0 0\n{PAST_INT64} 0 1 0 0\n",
    "cell_past_int64_then_twice": WORD_HEADER + f"{PAST_INT64} 0 1 0 0\n0 0 1 0 0\n0 0 1 0 0\n",
    "offset_past_int64_after_good_cells": WORD_HEADER + f"0 0 1 0 0\n1 1 1 {PAST_INT64} 0\n",
    "first_of_three_twice": WORD_HEADER + "3 3 1 0 0\n2 2 1 0 0\n3 3 1 0 0\n2 2 1 0 0\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_WORDS))
def test_malformed_words_match_line_walk(name):
    text = MALFORMED_WORDS[name]
    assert word_outcome(load_text, text) == word_outcome(parse_word_by_lines, text)


def test_word_refusals_name_the_first_record():
    assert word_outcome(load_text, MALFORMED_WORDS["twice_then_unknown_tile"]) == (
        "ParseError",
        "cell (0, 0) listed twice",
    )
    assert word_outcome(load_text, MALFORMED_WORDS["cell_past_int64_then_twice"]) == (
        "ParseError",
        f"cell ({PAST_INT64}, 0) outside window",
    )
    assert word_outcome(load_text, MALFORMED_WORDS["first_of_three_twice"]) == (
        "ParseError",
        "cell (3, 3) listed twice",
    )


@pytest.mark.parametrize("command", ["verify", "stats"])
@pytest.mark.parametrize("kind", ["tiling", "word"])
@pytest.mark.parametrize("name, dim", [("dim_zero", 0), ("dim_negative", -1)])
def test_dimension_below_one_is_refused(tmp_path, capsys, command, kind, name, dim):
    """A header ``dim`` below 1 is one error that names it, as ``[run] dim``
    is: ``dim 0`` verified ``OK``, and ``dim -1`` was refused as an anchor of
    -1 coordinates."""
    message = f"dim: must be >= 1, got {dim}"
    path = tmp_path / f"{kind}.txt"
    path.write_text((MALFORMED if kind == "tiling" else MALFORMED_WORDS)[name], encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_any(str(path))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


TILE_LISTED_TWICE = {
    "text_tiling": HEADER.replace("2:2x3", "1:2x3") + "1 0 0\n1 2 0\n",
    "text_tiling_leading_zero": HEADER.replace("2:2x3", "01:2x3") + "1 0 0\n1 2 0\n",
    "text_word": WORD_HEADER.replace("2:2x3", "1:2x3") + "0 0 1 0 0\n",
}


@pytest.mark.parametrize("name", sorted(TILE_LISTED_TWICE))
def test_tile_listed_twice_in_shapes_is_refused(tmp_path, capsys, name):
    """Two header entries that read as one tile are a one-line user error,
    not a file in which the last shape wins."""
    path = tmp_path / "dup.txt"
    path.write_text(TILE_LISTED_TWICE[name], encoding="utf-8")
    with pytest.raises(ParseError, match=r"^tile 1 listed twice in shapes$"):
        load_any(str(path))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == "error: tile 1 listed twice in shapes\n"


@pytest.mark.parametrize("kind", ["tiling", "word"])
@pytest.mark.parametrize("anchor, shape", [([0, 0, 0], [6, 6, 6]), ([0, 0, 0], [6]), ([0], [6, 6])])
def test_json_window_of_other_dimension_is_refused(tmp_path, capsys, kind, anchor, shape):
    """A JSON window of other than ``dim`` coordinates never reaches the
    verifier (a 3-D window on a 2-D tiling once verified ``OK`` and counted
    216 window cells): the JSON file is refused whole."""
    doc = json_doc((1, [0, 0])) if kind == "tiling" else json_word_doc(GOOD_CELL)
    doc["window"] = {"anchor": anchor, "shape": shape}
    path = json_file(tmp_path, doc)
    message = f"unrecognized file {path!r}"
    assert load_outcome(load_by_text_mode, path) == ("ParseError", message)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_any(path)
    assert main(["verify", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def many_placements():
    """90,000 one-cell placements, more than one writer block, of labels of
    1 to 10 bytes at negative and positive anchors, with no window."""
    shapes = {1: (1, 1), "P": (1, 1), "P123456789": (1, 1)}
    cells = np.argwhere(np.ones((300, 300), dtype=bool)) - 150
    return tiling_from_parts(shapes, [(t, cells[k::3]) for k, t in enumerate(shapes)], None)


# What the CLI writes, by name: a function of the flagship alphabet.
WRITTEN = {
    "empty_tiling": lambda alphabet: Tiling({1: (3, 2)}, [], np.zeros((0, 2)), Box((0, 0), (6, 6))),
    "empty_tiling_without_window": lambda alphabet: Tiling({1: (3, 2)}, [], np.zeros((0, 2))),
    "tiling_without_window": lambda alphabet: tiling_from_parts(
        {1: (3, 2), "P": (6, 6)}, [(1, [(3, 0), (0, 0)]), ("P", [(0, 2)])], None
    ),
    "negative_anchors": lambda alphabet: tiling_from_parts(
        {1: (3, 2), 2: (2, 3)},
        [(1, [(-7, -2), (-4, -2)]), (2, [(-(2**40), 5)])],
        Box((-(2**40), -2), (2**41, 10)),
    ),
    "tiling_past_one_block": lambda alphabet: many_placements(),
    "word": lambda alphabet: wall_word(alphabet, Box((-13, -7), (9, 11))),
    "word_past_one_block": lambda alphabet: wall_word(alphabet, Box((-130, -7), (260, 260))),
}


def text_of(tiling_or_word, seed):
    """A tiling's ``serialize_tiling`` string, or a word's joined file blocks."""
    if isinstance(tiling_or_word, Tiling):
        return serialize_tiling(tiling_or_word, seed)
    return b"".join(files.file_blocks(tiling_or_word, seed)).decode()


@pytest.mark.parametrize("serialize", [text_of], ids=["text"])
@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_written_file_is_the_serialized_string(tmp_path, flagship_alphabet, name, serialize):
    """The bytes the CLI writes, block by block, are the string the
    serializer returns, encoded, and no temp file is left beside them."""
    written = WRITTEN[name](flagship_alphabet)
    path = cli_main._write(str(tmp_path / "out"), written, 9)
    with open(path, "rb") as fh:
        assert fh.read() == serialize(written, 9).encode("utf-8")
    assert os.listdir(tmp_path) == [os.path.basename(path)]


def test_writers_match_oracles_past_one_block(flagship_alphabet):
    tiling, word = many_placements(), WRITTEN["word_past_one_block"](flagship_alphabet)
    assert min(len(tiling), np.count_nonzero(word.grid >= 0)) > files._CHUNK_ROWS
    assert serialize_tiling(tiling, 3) == serialize_by_lines(tiling, 3)
    assert b"".join(files.file_blocks(word, 3)).decode() == serialize_word_by_lines(word, 3)


@pytest.mark.parametrize("blocks", [files.file_blocks], ids=["text"])
def test_a_block_that_raises_leaves_no_file(tmp_path, monkeypatch, blocks):
    """Blocks that fail partway, after the header and the first block of
    rows went to the temp file, leave neither that file nor the target."""

    def failing(tiling_or_word, seed):
        for k, block in enumerate(blocks(tiling_or_word, seed)):
            if k == 2:
                raise RuntimeError("no more blocks")
            yield block

    monkeypatch.setattr(cli_main, "file_blocks", failing)
    with pytest.raises(RuntimeError, match="no more blocks"):
        cli_main._write(str(tmp_path / "out"), many_placements(), 1)
    assert os.listdir(tmp_path) == []


def lone_byte(byte):
    """An edit that puts ``byte`` at a drawn place in the file."""

    def edit(data, draw):
        at = draw(st.integers(0, len(data)))
        return data[:at] + byte + data[at:]

    return edit


# Blank lines and white space: ASCII, what only ``str.isspace`` calls space,
# and non-ASCII space.
LEADING = st.sampled_from(["\n", " \n", "\t", "\x0c", "\x1c", "\x85", "\u3000"])

# Byte edits of a written file.  Each of the first five sends ``load_any``
# down its decoded fallback.
EDITS = {
    "crlf": lambda data, draw: data.replace(b"\n", b"\r\n"),
    "lone_cr": lone_byte(b"\r"),
    "bom": lambda data, draw: b"\xef\xbb\xbf" + data,
    "non_ascii_label": lambda data, draw: data.replace(b"P", "Ä".encode()),
    "ff_byte": lone_byte(b"\xff"),
    "leading_space": lambda data, draw: "".join(draw(st.lists(LEADING, min_size=1))).encode()
    + data,
    "cut": lambda data, draw: data[: draw(st.integers(0, len(data)))],
}


@st.composite
def edited_files(draw):
    """The bytes of a written tiling or word after some of ``EDITS``."""
    written, seed = draw(st.one_of(tilings(), words()))
    data = b"".join(files.file_blocks(written, seed))
    for name in draw(st.lists(st.sampled_from(sorted(EDITS)), unique=True)):
        data = EDITS[name](data, draw)
    return data


def loaded_outcome(load, path):
    try:
        loaded = load(path)
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    if loaded.kind == "tiling":
        return "ok", loaded.kind, snapshot((loaded.tiling, loaded.seed))
    return "ok", loaded.kind, word_snapshot((loaded.word, loaded.seed))


SMALL_TILING = (HEADER + "1 0 0\nP 6 6\n").encode()


@settings(max_examples=300)
@given(edited_files())
@example(SMALL_TILING.replace(b"\n", b"\r\n"))
@example(SMALL_TILING.replace(b"P 6", b"P\r6"))
@example(b"\xef\xbb\xbf" + SMALL_TILING)
@example(SMALL_TILING.replace(b"P", "Ä".encode()))
@example(SMALL_TILING + b"\xff\n")
@example(b"\n \n" + SMALL_TILING)
@example("\u3000".encode() + SMALL_TILING)
@example(b"\x1c" + SMALL_TILING)  # white space to str.lstrip, not to bytes.lstrip
def test_load_any_reads_as_text_mode_does(data):
    """``load_any`` reads the bytes once, and gives what a text-mode read of
    the file gives: the same object, or the same error."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "file")
        with open(path, "wb") as fh:
            fh.write(data)
        assert loaded_outcome(load_any, path) == loaded_outcome(load_by_text_mode, path)


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "lone_cr"])
@pytest.mark.parametrize(
    "text", [SMALL_TILING.decode(), MALFORMED_WORDS["well_formed"]], ids=["tiling", "word"]
)
def test_cr_line_ends_are_read_in_bulk(tmp_path, monkeypatch, text, ending):
    """An ASCII file whose lines end in ``\\r\\n`` or a lone ``\\r`` is read by
    the bulk parser, as the same file with ``\\n`` line ends is."""
    paths = [tmp_path / "lf.txt", tmp_path / "cr.txt"]
    paths[0].write_bytes(text.encode())
    paths[1].write_bytes(text.replace("\n", ending).encode())
    want = loaded_outcome(load_any, str(paths[0]))
    assert want[0] == "ok"

    def walk(text, kind):
        raise AssertionError("read by the line walk")

    monkeypatch.setattr(files, "_walk_lines", walk)
    assert loaded_outcome(load_any, str(paths[1])) == want
