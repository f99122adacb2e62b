"""Tiling and word files: the column writers and bulk readers against the line, cell and
record oracles."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    iter_cells,
    load_json_doc_by_records,
    parse_by_lines,
    parse_word_by_lines,
    same_placements,
    serialize_by_lines,
    serialize_word_by_lines,
    tiling_to_json_by_rows,
    word_to_json_by_cells,
)

from dominofill import Box, BrickWall
from dominofill.cli import files
from dominofill.cli.files import (
    ParseError,
    VersionMismatch,
    load_any,
    parse_tiling,
    parse_word,
    serialize_tiling,
    serialize_word,
    tiling_to_json,
    word_to_json,
    write_atomic,
)
from dominofill.cli.main import main
from dominofill.sft import Alphabet, SymbolicWord, Tiling, tile_sort_key

# The int64 ends, the first two- and nineteen-digit values, and both sides
# of the writer's switch from uint32 to uint64 digit columns.
INT64_EDGES = [0, 9, 10, 2**32 - 1, 2**32, -(2**32 - 1), -(2**32), 10**18]
INT64_EDGES += [2**63 - 1, -(2**63 - 1), -(2**63)]
# Labels of 1 to 13 bytes: the bulk parser groups labels of up to 8 bytes as
# packed integers and longer ones as byte strings.
TILE_IDS = [1, 2, "P", "P2", "P10", "P1234567", "P123456789", 10**12]


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
    tiling = Tiling.from_parts(shapes, [(t, [a]) for t, a in placements], window)
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
    parsed = files._parse_bulk(text, kind)
    assert parsed is not None
    (dim, shapes, window, seed), records = parsed
    return kind.build(shapes, dim, window, *records), seed


@settings(max_examples=300)
@given(tilings())
def test_writer_and_bulk_parser_match_line_oracles(case):
    tiling, seed = case
    canon = tiling.sorted_canonical()
    assert records(canon) == sorted(records(tiling))
    assert canon.sorted_canonical() is canon  # an ordered tiling is not sorted again
    text = serialize_tiling(tiling, seed)
    assert text == serialize_by_lines(tiling, seed)
    want = outcome(parse_by_lines, text)
    assert outcome(parse_tiling, text) == want
    assert outcome(parse_bulk_only, text) == want  # written files never need the walk


@pytest.mark.parametrize("chunk_bytes", [1, 40, 1 << 17])
def test_labels_group_across_chunks(monkeypatch, chunk_bytes):
    shapes = {t: (1, 1) for t in TILE_IDS}
    # Short labels first and wide ones last, so small chunks see one kind each.
    parts = [(t, [(i, k) for k in range(3)]) for i, t in enumerate(TILE_IDS)]
    text = serialize_tiling(Tiling.from_parts(shapes, parts, None), 1)
    monkeypatch.setattr(files, "_CHUNK_BYTES", chunk_bytes)
    want = outcome(parse_by_lines, text)
    assert outcome(parse_bulk_only, text) == want
    assert want[0] == "ok" and len(want[1][3]) == 3 * len(TILE_IDS)


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
    chunk a label the header lacks first appears in."""
    header, labels = case
    coord = st.integers(-1, 4)
    anchors = [data.draw(st.tuples(coord, coord)) for _ in labels]
    tiling = "dominofill tiling v1\n" + header
    tiling += "".join(f"{t} {x} {y}\n" for t, (x, y) in zip(labels, anchors))
    word = "dominofill word v1\n" + header
    word += "".join(f"{x} {y} {t} 0 0\n" for t, (x, y) in zip(labels, anchors))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(files, "_CHUNK_BYTES", chunk_bytes)
        assert outcome(parse_tiling, tiling) == outcome(parse_by_lines, tiling)
        assert word_outcome(parse_word, word) == word_outcome(parse_word_by_lines, word)


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
        parsed = files._parse_bulk(text, kind)
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
        texts.append(serialize_tiling(*parse_tiling(text)))
    assert texts[0] == texts[1]
    written = [1, 2, 10**12, "P", "P2", "P10", "P1234567", "P123456789"]
    assert sorted(TILE_IDS, key=tile_sort_key) == written  # the program's labels keep their order


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
    tiling = Tiling.from_parts(shapes, [(1, [(0, 0)]), (label, [(1, 0)])], Box((0, 0), (3, 2)))
    text = serialize_tiling(tiling, 7)
    parsed, seed = parse_tiling(text)
    assert parsed.tile_shapes == shapes and seed == 7
    assert same_placements(parsed, tiling)
    path = tmp_path / "tiling.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().err == ""


@settings(max_examples=300)
@given(tilings())
def test_json_writer_matches_row_oracle(case):
    tiling, seed = case
    text = tiling_to_json(tiling, seed)
    assert text == tiling_to_json_by_rows(tiling, seed)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_empty_tiling_without_window_round_trips(tmp_path, dim, fmt):
    shapes = {1: (2,) * dim, "P": (4,) * dim}
    empty = Tiling.from_parts(shapes, [], None)
    text = serialize_tiling(empty, 5) if fmt == "text" else tiling_to_json(empty, 5)
    assert (f"\ndim {dim}\n" if fmt == "text" else f'"dim":{dim},') in text
    path = tmp_path / "empty"
    path.write_text(text, encoding="utf-8")
    loaded = load_any(str(path))
    assert loaded.tiling.tile_shapes == shapes
    assert loaded.tiling.anchors.shape == (0, dim)
    assert loaded.tiling.window is None and loaded.seed == 5


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_empty_tiling_without_shapes_keeps_its_dimension(tmp_path, fmt):
    """With no shapes and no window, the dimension is the header's alone."""
    if fmt == "text":
        text = "dominofill tiling v1\ndim 3\nshapes \nwindow none\nseed 0\n"
    else:
        text = ('{"dim":3,"format":"dominofill tiling","placements":[],"seed":0,'
                '"shapes":{},"version":1,"window":null}\n')
    path = tmp_path / "empty"
    path.write_text(text, encoding="utf-8")
    tiling = load_any(str(path)).tiling
    assert tiling.dim == 3 and tiling.anchors.shape == (0, 3) and len(tiling) == 0
    assert (serialize_tiling if fmt == "text" else tiling_to_json)(tiling, 0) == text


def test_word_writer_matches_cell_lines(flagship_alphabet):
    word = BrickWall(flagship_alphabet, "P", (1, 2)).materialize(Box((-13, -7), (9, 11)))
    word.grid[2:4, 5:9] = -1  # unassigned cells are skipped
    body = "".join(
        f"{' '.join(map(str, cell))} {sym.tile} {' '.join(map(str, sym.offset))}\n"
        for cell, sym in iter_cells(word)
    )
    assert serialize_word(word, seed=4).split("\n", 5)[5] == body


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
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_bodies_match_line_walk(name):
    text = MALFORMED[name]
    assert outcome(parse_tiling, text) == outcome(parse_by_lines, text)


def test_uneven_lines_are_not_counted_as_tokens():
    text = MALFORMED["uneven_lines_even_token_count"]
    assert outcome(parse_tiling, text) == ("ParseError", "bad placement line '1 0'")


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


def test_load_any_reads_json_after_leading_whitespace(tmp_path):
    tiling = Tiling.from_parts({1: (3, 2), 2: (2, 3)}, [(2, [(4, -1)])], Box((0, -1), (6, 6)))
    path = tmp_path / "t.json"
    path.write_text(" \n\t" + tiling_to_json(tiling, seed=7), encoding="utf-8")
    loaded = load_any(str(path))
    assert loaded.kind == "tiling" and loaded.seed == 7
    assert same_placements(loaded.tiling, tiling) and loaded.tiling.window == tiling.window


def json_outcome(load, doc):
    try:
        loaded = load(doc)
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    return "ok", loaded.kind, snapshot((loaded.tiling, loaded.seed))


@settings(max_examples=300)
@given(tilings())
def test_json_bulk_loader_matches_record_oracle(case):
    tiling, seed = case
    doc = json.loads(tiling_to_json(tiling, seed))
    assert json_outcome(files._from_json_doc, doc) == json_outcome(load_json_doc_by_records, doc)
    if doc["placements"]:  # written files never need the per-record walk
        _, _, fields = files._json_records(doc["placements"], files.TILING, doc["dim"])
        assert all(isinstance(field, np.ndarray) for field in fields)


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
# Integer fields that are JSON floats or bools are refused, not truncated.
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


@pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
def test_malformed_json_matches_record_oracle(name):
    doc = MALFORMED_JSON[name]
    assert json_outcome(files._from_json_doc, doc) == json_outcome(load_json_doc_by_records, doc)


@pytest.mark.parametrize("name", NON_INTEGER_JSON)
def test_json_integer_fields_refuse_floats_and_bools(name):
    outcome = json_outcome(files._from_json_doc, MALFORMED_JSON[name])
    assert outcome[0] == "ParseError" and "is not an integer" in outcome[1]


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


def json_word_outcome(load, doc):
    try:
        loaded = load(doc)
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    return "ok", loaded.kind, word_snapshot((loaded.word, loaded.seed))


@settings(max_examples=300)
@given(words())
def test_word_writers_and_readers_match_cell_oracles(case):
    word, seed = case
    text = serialize_word(word, seed)
    assert text == serialize_word_by_lines(word, seed)
    assert word_to_json(word, seed) == word_to_json_by_cells(word, seed)
    want = word_outcome(parse_word_by_lines, text)
    assert same_word(want, word, seed)
    assert word_outcome(parse_word, text) == want
    # Written files never need the line walk or the per-record walk.
    assert word_outcome(lambda t: parse_bulk_only(t, files.WORD), text) == want
    doc = json.loads(word_to_json(word, seed))
    want = json_word_outcome(load_json_doc_by_records, doc)
    assert want[1] == "word" and same_word((want[0], want[2]), word, seed)
    assert json_word_outcome(files._from_json_doc, doc) == want
    _, _, fields = files._json_records(doc["cells"], files.WORD, doc["dim"])
    assert all(isinstance(field, np.ndarray) for field in fields) or not doc["cells"]


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
    assert word_outcome(parse_word, text) == word_outcome(parse_word_by_lines, text)


def test_word_refusals_name_the_first_record():
    assert word_outcome(parse_word, MALFORMED_WORDS["twice_then_unknown_tile"]) == (
        "ParseError",
        "cell (0, 0) listed twice",
    )
    assert word_outcome(parse_word, MALFORMED_WORDS["cell_past_int64_then_twice"]) == (
        "ParseError",
        f"cell ({PAST_INT64}, 0) outside window",
    )
    assert word_outcome(parse_word, MALFORMED_WORDS["first_of_three_twice"]) == (
        "ParseError",
        "cell (3, 3) listed twice",
    )


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
MALFORMED_JSON_WORDS = {
    "well_formed": json_word_doc(GOOD_CELL, ([11, 11], "P", [5, 5])),
    "missing_cell": {**json_word_doc(), "cells": [{"tile": 1, "offset": [0, 0]}]},
    "missing_tile": {**json_word_doc(), "cells": [{"cell": [0, 0], "offset": [0, 0]}]},
    "missing_offset": {**json_word_doc(), "cells": [{"cell": [0, 0], "tile": 1}]},
    "record_not_object": {**json_word_doc(), "cells": [[[0, 0], 1, [0, 0]]]},
    "cells_not_list": {**json_word_doc(), "cells": {"cell": [0, 0], "tile": 1, "offset": [0, 0]}},
    "no_cells": json_word_doc(),
    "nested_cell": json_word_doc(([[0], [0]], 1, [0, 0])),
    "float_cell": json_word_doc(GOOD_CELL, ([1.5, 0], 1, [0, 0])),
    "integral_float_offset": json_word_doc(([0, 0], 1, [0.0, 0])),
    "bool_cell": json_word_doc(([True, False], 1, [0, 0])),
    "bool_offset": json_word_doc(GOOD_CELL, ([4, 4], 1, [False, True])),
    "string_cell": json_word_doc((["3", 0], 1, [0, 0])),
    "string_cell_value": json_word_doc(("00", 1, [0, 0])),
    "bad_string_cell": json_word_doc((["x", 0], 1, [0, 0])),
    "null_offset": json_word_doc(([0, 0], 1, [None, 0])),
    "cell_past_int64": json_word_doc(([2**63, 0], 1, [0, 0])),
    "cell_past_negative_int64": json_word_doc(([0, -(2**63) - 1], 1, [0, 0])),
    "offset_past_int64": json_word_doc(GOOD_CELL, ([1, 1], 1, [2**63, 0])),
    "unknown_tile": json_word_doc(GOOD_CELL, ([3, 0], 9, [0, 0])),
    "unknown_tile_label": json_word_doc(([0, 0], "Q", [0, 0])),
    "string_tile_ids": json_word_doc(([0, 0], "1", [0, 0]), ([3, 0], 2, [0, 0])),
    "bool_tile": json_word_doc(([0, 0], True, [0, 0])),
    "float_tile": json_word_doc(([0, 0], 1.0, [0, 0])),
    "null_tile": json_word_doc(([0, 0], None, [0, 0])),
    "no_window": {**json_word_doc(GOOD_CELL), "window": None},
    "tile_listed_twice_in_shapes": {
        **json_word_doc(GOOD_CELL),
        "shapes": {"1": [3, 2], "01": [2, 3], "P": [6, 6]},
    },
    "cell_outside": json_word_doc(GOOD_CELL, ([0, 12], 1, [0, 0])),
    "cell_listed_twice": json_word_doc(GOOD_CELL, ([0, 0], 2, [0, 0])),
    "offset_outside_tile": json_word_doc(([0, 0], 2, [2, 0])),
    "twice_then_unknown_tile": json_word_doc(GOOD_CELL, GOOD_CELL, ([5, 5], "Q", [0, 0])),
    "unknown_tile_and_outside_cell": json_word_doc(([99, 99], "Q", [0, 0])),
    "bad_offset_then_outside": json_word_doc(([0, 0], 1, [7, 7]), ([99, 0], 1, [0, 0])),
    "outside_then_cell_past_int64": json_word_doc(([12, 0], 1, [0, 0]), ([2**63, 0], 1, [0, 0])),
    "unknown_tile_and_short_cell": json_word_doc(([0], "Q", [0, 0])),
    # Declared changes, each listed in DECLARED_JSON_WORDS.
    "short_cell": json_word_doc(([0], 1, [0, 0])),
    "long_offset": json_word_doc(GOOD_CELL, ([1, 1], 1, [0, 0, 0])),
    "unknown_tile_then_float_cell": json_word_doc(([0, 0], "Q", [0, 0]), ([1.5, 0], 1, [0, 0])),
    "twice_then_missing_offset": {
        **json_word_doc(),
        "cells": json_word_doc(GOOD_CELL, GOOD_CELL)["cells"] + [{"cell": [1, 1], "tile": 1}],
    },
    "no_window_and_float_cell": {**json_word_doc(([1.5, 0], 1, [0, 0])), "window": None},
}
# Where the reader departs from the record oracle on purpose, and what it says:
# a cell or offset of other than ``dim`` coordinates gets the message that
# anchors get, and a JSON word's records are all read before any is checked,
# as text files and JSON tilings always were, so a malformed field is named
# before an earlier record's defect or a missing window.
DECLARED_JSON_WORDS = {
    "short_cell": "every cell needs 2 int64 coordinates",
    "long_offset": "every offset needs 2 int64 coordinates",
    "unknown_tile_then_float_cell": "bad JSON field: 1.5 is not an integer",
    "twice_then_missing_offset": "bad JSON field: 'offset'",
    "no_window_and_float_cell": "bad JSON field: 1.5 is not an integer",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_JSON_WORDS))
def test_malformed_json_words_match_record_oracle(name):
    doc = MALFORMED_JSON_WORDS[name]
    got = json_word_outcome(files._from_json_doc, doc)
    want = json_word_outcome(load_json_doc_by_records, doc)
    if name in DECLARED_JSON_WORDS:
        assert got == ("ParseError", DECLARED_JSON_WORDS[name]) != want
    else:
        assert got == want


DUPLICATED_SHAPES = {"1": [3, 2], "01": [2, 3], "P": [6, 6]}
TILE_LISTED_TWICE = {
    "text_tiling": HEADER.replace("2:2x3", "1:2x3") + "1 0 0\n1 2 0\n",
    "text_tiling_leading_zero": HEADER.replace("2:2x3", "01:2x3") + "1 0 0\n1 2 0\n",
    "text_word": WORD_HEADER.replace("2:2x3", "1:2x3") + "0 0 1 0 0\n",
    "json_tiling": {**json_doc((1, [0, 0]), (1, [2, 0])), "shapes": DUPLICATED_SHAPES},
    "json_word": {**json_word_doc(GOOD_CELL), "shapes": DUPLICATED_SHAPES},
}


@pytest.mark.parametrize("name", sorted(TILE_LISTED_TWICE))
def test_tile_listed_twice_in_shapes_is_refused(tmp_path, capsys, name):
    """Two header entries that read as one tile are a one-line user error,
    not a file in which the last shape wins."""
    content = TILE_LISTED_TWICE[name]
    if isinstance(content, dict):
        assert json_outcome(load_json_doc_by_records, content)[1] == "tile 1 listed twice in shapes"
        content = json.dumps(content)
    path = tmp_path / "dup.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError, match=r"^tile 1 listed twice in shapes$"):
        load_any(str(path))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == "error: tile 1 listed twice in shapes\n"


@pytest.mark.parametrize("kind", ["tiling", "word"])
@pytest.mark.parametrize("anchor, shape", [([0, 0, 0], [6, 6, 6]), ([0, 0, 0], [6]), ([0], [6, 6])])
def test_json_window_of_other_dimension_is_refused(tmp_path, capsys, kind, anchor, shape):
    """A JSON window needs ``dim`` anchor and shape coordinates, as the text
    header needs ``2 * dim`` integers; a 3-D window on a 2-D tiling verified
    ``OK`` and counted 216 window cells."""
    doc = json_doc((1, [0, 0])) if kind == "tiling" else json_word_doc(GOOD_CELL)
    doc["window"] = {"anchor": anchor, "shape": shape}
    message = "window anchor and shape need 2 coordinates each"
    assert json_outcome(load_json_doc_by_records, doc) == ("ParseError", message)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_any(str(path))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
