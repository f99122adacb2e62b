"""Brute-force reference implementations the library is checked against.

Everything here trades speed for obviousness and stays independent of the
package internals: representability by bitset closure, tie-breaks by
exhaustive descent, tiling counts by first-free-cell backtracking, word
decoding by per-cell grouping.
"""

import math

from dominofill.sft import Placement, allowed_neighbor


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
