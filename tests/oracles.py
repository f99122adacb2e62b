"""Brute-force reference implementations the library is checked against.

Everything here trades speed for obviousness and stays independent of the
package internals: representability by bitset closure, tie-breaks by
exhaustive descent, tiling counts by first-free-cell backtracking, word
validation by a per-cell mask over every pair, word decoding by per-cell
grouping, tiling files written and read line by line,
JSON built and read record by record, bands filled once per block, block
domains decoded from the stage's whole word, tilings verified by row-wise
reductions over the ``(n, dim)`` anchor array.  The file oracles share only
the header helpers and the records-to-object steps with the package.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from dominofill.cli.files import (
    TILING_MAGIC,
    LoadedFile,
    ParseError,
    _fields_of,
    _fmt_shapes,
    _parse_tile,
    _read_header,
    _tiling_from_records,
    _window_line,
    _word_from_records,
)
from dominofill.brickfill import BrickWall, fill_between
from dominofill.geometry import Box, interior
from dominofill.sft import (
    InvalidWord,
    Placement,
    SymbolicWord,
    Tiling,
    Violation,
    allowed_neighbor,
    decode,
    validate_word,
)
from dominofill.tower import FrequencyReport, TowerBlock


def representable_bits(heights, limit):
    """Bitmask over [0, limit]: bit r set iff r is a sum of the heights."""
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for h in heights:
        while True:
            grown = (reach | (reach << h)) & mask
            if grown == reach:
                break
            reach = grown
    return reach


def threshold_by_scan(heights):
    """Least R with everything >= R representable, by direct scan.

    Once min(heights) consecutive values are all representable, adding the
    smallest height reaches every later value, so the earliest such run
    starts exactly at the threshold.
    """
    h_min = min(heights)
    if h_min == 1:
        return 0
    limit = 2 * max(heights) * h_min + h_min
    while True:
        reach = representable_bits(heights, limit)
        run = 0
        for r in range(limit + 1):
            run = run + 1 if (reach >> r) & 1 else 0
            if run == h_min:
                return r - h_min + 1
        limit *= 2


def lex_greatest_by_descent(r, heights):
    """Lexicographically greatest coefficient vector for r, or None.

    Descending coefficient loops visit vectors in decreasing lex order, so
    the first exact match wins.
    """
    k = len(heights)

    def walk(idx, remaining, prefix):
        if idx == k:
            return tuple(prefix) if remaining == 0 else None
        for a in range(remaining // heights[idx], -1, -1):
            hit = walk(idx + 1, remaining - a * heights[idx], prefix + [a])
            if hit is not None:
                return hit
        return None

    return walk(0, r, [])


def count_exact_tilings(width, height, tiles):
    """Number of exact tilings of a width x height box by the given tiles.

    Backtracking anchored at the first free cell in scan order; the tile
    covering that cell must have its anchor there, so each tiling is counted
    exactly once.
    """
    free = [[True] * height for _ in range(width)]

    def fits(x, y, tw, th):
        if x + tw > width or y + th > height:
            return False
        return all(free[i][j] for i in range(x, x + tw) for j in range(y, y + th))

    def mark(x, y, tw, th, value):
        for i in range(x, x + tw):
            for j in range(y, y + th):
                free[i][j] = value

    def walk():
        spot = next(
            ((x, y) for x in range(width) for y in range(height) if free[x][y]),
            None,
        )
        if spot is None:
            return 1
        x, y = spot
        found = 0
        for tw, th in tiles:
            if fits(x, y, tw, th):
                mark(x, y, tw, th, False)
                found += walk()
                mark(x, y, tw, th, True)
        return found

    return walk()


def enumerate_boundary_complete_words(alphabet, width, height, sample=None):
    """Count full symbol grids obeying the one-step rule with no cut tiles.

    Cells are assigned in scan order; a candidate symbol must continue its
    left and lower neighbors and may not let a tile cross the box boundary
    (offset pinned to 0 at low faces and to the far side at high faces).
    When ``sample`` is given, every sample-th completed grid is appended to
    it as a {cell: symbol} dict for external re-checking.
    """
    symbols = list(alphabet.symbols)
    grid = {}
    counted = 0

    def candidates(x, y):
        for s in symbols:
            sw, sh = alphabet.shape(s.tile)
            if x == 0 and s.offset[0] != 0:
                continue
            if x == width - 1 and s.offset[0] != sw - 1:
                continue
            if y == 0 and s.offset[1] != 0:
                continue
            if y == height - 1 and s.offset[1] != sh - 1:
                continue
            if x > 0 and not allowed_neighbor(alphabet, grid[(x - 1, y)], 0, s):
                continue
            if y > 0 and not allowed_neighbor(alphabet, grid[(x, y - 1)], 1, s):
                continue
            yield s

    def walk(position):
        nonlocal counted
        if position == width * height:
            counted += 1
            if sample is not None and counted % sample.rate == 0:
                sample.words.append(dict(grid))
            return
        x, y = divmod(position, height)
        for s in candidates(x, y):
            grid[(x, y)] = s
            walk(position + 1)
        grid.pop((x, y), None)

    walk(0)
    return counted


class WordSample:
    """Collects every rate-th enumerated word for independent re-validation."""

    def __init__(self, rate):
        self.rate = rate
        self.words = []


def validate_word_by_mask(word):
    """All one-step violations, from a per-cell mask built on every call.

    Per axis, every assigned pair is looked up in the 2-d transition table
    and the failures are listed in ``np.argwhere`` order, axis by axis.
    """
    out = []
    grid = word.grid
    alphabet = word.alphabet
    for axis in range(alphabet.dim):
        lo = [slice(None)] * alphabet.dim
        hi = [slice(None)] * alphabet.dim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        a = grid[tuple(lo)]
        b = grid[tuple(hi)]
        both = (a >= 0) & (b >= 0)
        if not np.any(both):
            continue
        table = alphabet.transition(axis)
        bad = np.zeros(a.shape, dtype=bool)
        bad[both] = ~table[a[both], b[both]]
        for rel in np.argwhere(bad):
            cell = tuple(int(x + y) for x, y in zip(word.box.anchor, rel))
            sym = alphabet.symbol(int(a[tuple(rel)]))
            nb = alphabet.symbol(int(b[tuple(rel)]))
            out.append(Violation(cell, axis, sym, nb))
    return out


def decode_by_cells(word):
    """(whole placements, partials, partial cells) of a word, cell by cell.

    Each assigned cell votes for the placement (tile, cell - offset); a
    placement is whole iff it collected its tile's full volume.  Whole
    placements come back as a set, partials in (tile order, anchor) order.
    """
    alphabet = word.alphabet
    groups = {}
    for cell, sym in word.iter_cells():
        key = Placement(sym.tile, tuple(c - o for c, o in zip(cell, sym.offset)))
        groups[key] = groups.get(key, 0) + 1
    whole = set()
    partials = []
    partial_cells = 0
    for key, count in groups.items():
        if count == math.prod(alphabet.shape(key.tile)):
            whole.add(key)
        else:
            partials.append(key)
            partial_cells += count
    partials.sort(key=lambda p: (alphabet.tiles.index(p.tile), p.anchor))
    return whole, partials, partial_cells


def serialize_by_lines(tiling, seed=0):
    """Tiling file text, one f-string per placement line."""
    canon = tiling.sorted_canonical()
    lines = [
        TILING_MAGIC,
        f"dim {canon.dim}",
        f"shapes {_fmt_shapes(canon.tile_shapes)}",
        _window_line(canon.window),
        f"seed {seed}",
    ]
    order = canon.tile_order
    for code, anchor in zip(canon.codes, canon.anchors):
        coords = " ".join(str(int(x)) for x in anchor)
        lines.append(f"{order[int(code)]} {coords}")
    return "\n".join(lines) + "\n"


@_fields_of("tiling")
def parse_by_lines(text):
    """(tiling, seed) of a tiling file, one ``str.split`` and ``int`` per line.

    Non-blank lines come from ``str.splitlines``; placements are grouped by
    tile and sorted into canonical order at the end.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim, shapes, window, seed, idx = _read_header(lines, TILING_MAGIC)
    tiles = []
    anchors = []
    for ln in lines[idx:]:
        parts = ln.split()
        if len(parts) != dim + 1:
            raise ParseError(f"bad placement line {ln!r}")
        tiles.append(_parse_tile(parts[0]))
        anchors.append([int(x) for x in parts[1:]])
    if any(len(s) != dim or min(s) < 1 for s in shapes.values()):
        raise ParseError(f"every tile shape needs {dim} positive extents")
    index = {tile: i for i, tile in enumerate(shapes)}
    try:
        rows_tile = np.array([index[t] for t in tiles], dtype=np.intp)
    except KeyError as exc:
        raise ParseError(f"unknown tile {exc.args[0]!r}") from None
    try:
        rows = np.array(anchors, dtype=np.int64).reshape(len(tiles), dim)
    except (OverflowError, ValueError) as exc:
        raise ParseError(f"every anchor needs {dim} int64 coordinates") from exc
    parts = [(tile, rows[rows_tile == i]) for tile, i in index.items()]
    return Tiling.from_parts(shapes, parts, window).sorted_canonical(), seed


def tiling_to_json_by_rows(tiling, seed=0):
    """JSON tiling file text from one dict per placement and one ``json.dumps``."""
    canon = tiling.sorted_canonical()
    doc = {
        "format": "dominofill tiling",
        "version": 1,
        "dim": canon.dim,
        "shapes": {str(t): list(s) for t, s in canon.tile_shapes.items()},
        "window": None
        if canon.window is None
        else {"anchor": list(canon.window.anchor), "shape": list(canon.window.shape)},
        "seed": seed,
        "placements": [
            {"tile": canon.tile_order[int(c)], "anchor": [int(x) for x in a]}
            for c, a in zip(canon.codes, canon.anchors)
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@_fields_of("JSON")
def load_json_doc_by_records(doc):
    """LoadedFile of a parsed JSON document, one ``_parse_tile`` and ``int`` per field."""
    fmt = doc.get("format", "")
    dim = int(doc["dim"])
    shapes = {_parse_tile(t): tuple(int(x) for x in s) for t, s in doc["shapes"].items()}
    win = doc.get("window")
    window = None if win is None else Box(tuple(win["anchor"]), tuple(win["shape"]))
    seed = int(doc.get("seed", 0))
    if fmt == "dominofill tiling":
        placements = doc["placements"]
        tiles = [_parse_tile(str(rec["tile"])) for rec in placements]
        anchors = [[int(x) for x in rec["anchor"]] for rec in placements]
        tiling = _tiling_from_records(shapes, dim, window, tiles, anchors)
        return LoadedFile("tiling", tiling, None, seed)
    if fmt == "dominofill word":
        records = (
            (
                tuple(int(x) for x in rec["cell"]),
                _parse_tile(str(rec["tile"])),
                tuple(int(x) for x in rec["offset"]),
            )
            for rec in doc["cells"]
        )
        return LoadedFile("word", None, _word_from_records(shapes, dim, window, records), seed)
    raise ParseError(f"unknown JSON format {fmt!r}")


class StageWord(NamedTuple):
    """A stage as a word over the whole window and a list of ``TowerBlock``s."""

    word: SymbolicWord
    blocks: list


def build_stage_per_block(state, towers, wall, plan, tails=None):
    """One construction stage with a wall drawn per tower and a band filled per block.

    ``state`` is the previous stage: its ``blocks`` are read as ``TowerBlock``s
    and its ``word`` on their domains.

    Tower k is a pure wall tower at stage 1 or where the boolean ``tails``
    mask is set.  A tower keeps each previous block whose anchor lies in the
    tower shrunk by the block's collar plus the previous tower side plus 2
    on every face.
    """
    spec, base = plan.stages[towers.stage - 1], plan.base
    word = SymbolicWord(wall.alphabet, towers.window)
    blocks = []
    if state is not None and state.blocks:
        prev_anchors = np.array([blk.box.anchor for blk in state.blocks])
        prev_depth = np.array([blk.collar + 2 + blk.box.shape[0] for blk in state.blocks])[:, None]
    for k, row in enumerate(towers.anchors):
        anchor = tuple(int(x) for x in row)
        tower_box = Box(anchor, (spec.side,) * towers.window.dim)
        pure = towers.stage == 1 or (tails is not None and bool(tails[k]))
        tile = plan.brick_id(towers.stage) if pure else wall.tile
        collar = spec.collar if pure else base.fill_length
        translate = [t + a for t, a in zip(wall.translate, anchor)]
        tower_wall = BrickWall(wall.alphabet, tile, translate)
        domain = interior(tower_box, collar + 1)
        word.paste(domain, tower_wall.pattern_over(domain))
        if not pure and state is not None and state.blocks:
            lo = np.array(anchor) + prev_depth
            hi = np.array(anchor) + spec.side - prev_depth
            inside = np.all((lo <= prev_anchors) & (prev_anchors < hi), axis=1)
            for i in np.flatnonzero(inside):
                blk = state.blocks[i]
                fill = fill_between(blk.wall, blk.domain, tower_wall, base, blk.collar)
                band = interior(blk.box, 1)
                word.paste(band, fill.materialize(band).grid)
                word.paste(blk.domain, state.word.subgrid(blk.domain))
        blocks.append(TowerBlock(tower_box, collar, tower_wall, domain))
    return StageWord(word, blocks)


def finalize_by_decode(state, plan):
    """(tiling, report) of a stage, read back from its whole word.

    The word over the window is validated once, then each kind's block
    domains are decoded by their corners in stacked batches of up to 2^16
    cells, and the whole placements of all blocks merged and sorted.
    """
    blocks = state.blocks
    word = state.word
    violations = validate_word(word)
    if violations:
        raise InvalidWord(f"stage {blocks.towers.stage} word is invalid: {violations[0]}")
    results = []
    for k in np.unique(blocks.kind).tolist():
        domain = blocks.domain(k)
        corners = blocks.towers.anchors[blocks.kind == k] + domain.anchor
        per_call = max(1, (1 << 16) // domain.volume)
        for lo in range(0, len(corners), per_call):
            results.append(decode(word, corners[lo : lo + per_call], domain.shape))
    partial_cells = sum(r.partial_cells for r in results)
    tiling = Tiling(
        word.alphabet.tile_shapes,
        np.concatenate([r.tiling.codes for r in results]),
        np.concatenate([r.tiling.anchors for r in results]),
        blocks.towers.window,
    ).sorted_canonical()
    report = FrequencyReport.of_tiling(tiling, plan.targets, partial_cells)
    collar_bound = plan.collar_mass_bound()
    report.notes["small_fraction_below_min_target"] = bool(
        report.small_tile_fraction() < plan.min_small_target()
    )
    report.notes["large_fraction_above_collar_bound"] = bool(
        report.large_fraction() > 1 - collar_bound
    )
    report.notes["collar_mass_bound"] = collar_bound
    report.notes["predicted_error_budget"] = plan.predicted_error_budget()
    return tiling, report


MAX_PAINT_CELLS_BY_ROWS = 300_000_000
PAINT_CHUNK = 1 << 16


def verify_tiling_by_rows(tiling, window=None, max_reported=50):
    """Containment and overlap problems of a tiling, from reductions along
    the rows of the ``(n, dim)`` anchor and end arrays.

    Tile ends are formed in int64, so anchors must stay well inside int64.
    """
    problems = []
    if len(tiling) == 0:
        return problems
    window = window if window is not None else tiling.window
    table = tiling.shape_table()
    anchors = tiling.anchors
    ends = anchors + table[tiling.codes]
    if window is not None:
        lo = np.array(window.anchor, dtype=np.int64)
        hi = np.array(window.end, dtype=np.int64)
        outside = np.any(anchors < lo, axis=1) | np.any(ends > hi, axis=1)
        for idx in np.flatnonzero(outside)[:max_reported]:
            tile = tiling.tile_order[int(tiling.codes[idx])]
            problems.append(
                f"placement {tile} at {tuple(int(x) for x in anchors[idx])} leaves the window"
            )
        if int(outside.sum()) > max_reported:
            problems.append(f"... and {int(outside.sum()) - max_reported} more outside")
    base = np.min(anchors, axis=0)
    extent = tuple(int(e) for e in np.max(ends, axis=0) - base)
    volume = math.prod(extent)
    if volume > MAX_PAINT_CELLS_BY_ROWS:
        problems.append(f"bounding box of {volume} cells is too large to paint; not checked")
        return problems
    painted = np.zeros(volume, dtype=bool)
    for cells in _painted_cells_by_rows(anchors - base, tiling.codes, table, extent):
        painted[cells] = True
    if np.count_nonzero(painted) == int(np.prod(table, axis=1)[tiling.codes].sum()):
        return problems
    cells, counts = np.unique(
        np.concatenate(list(_painted_cells_by_rows(anchors - base, tiling.codes, table, extent))),
        return_counts=True,
    )
    over = counts > 1
    for flat, count in zip(cells[over][:max_reported], counts[over]):
        cell = tuple(int(x + y) for x, y in zip(base, np.unravel_index(flat, extent)))
        cell_arr = np.array(cell, dtype=np.int64)
        inside = np.all(anchors <= cell_arr, axis=1) & np.all(ends > cell_arr, axis=1)
        owners = [
            (tiling.tile_order[int(tiling.codes[i])], tuple(int(x) for x in anchors[i]))
            for i in np.flatnonzero(inside)[:4]
        ]
        problems.append(f"cell {cell} covered {int(count)} times by {owners}")
    if int(over.sum()) > max_reported:
        problems.append(f"... and {int(over.sum()) - max_reported} more overlapping cells")
    return problems


def _painted_cells_by_rows(rel, codes, table, extent):
    """Flat indices of the cells each tile's placements cover, ``PAINT_CHUNK``
    placements at a time, one broadcast of anchors against tile offsets."""
    strides = np.cumprod((extent[1:] + (1,))[::-1])[::-1]
    for code, shape in enumerate(table):
        start = rel[codes == code] @ strides
        offs = np.indices(tuple(shape)).reshape(len(shape), -1).T @ strides
        for lo in range(0, len(start), PAINT_CHUNK):
            yield (start[lo : lo + PAINT_CHUNK, None] + offs[None, :]).ravel()
