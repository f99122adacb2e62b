"""Alphabet, one-step rules, word validation, and the word/tiling codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Placement,
    WordSample,
    allowed_neighbor,
    count_exact_tilings,
    decode_by_cells,
    encode,
    enumerate_boundary_complete_words,
    equals_on,
    placements,
    same_placements,
    set_cell,
    tiling_from_parts,
    validate_word_by_mask,
)

from dominofill import Box, BrickWall, build_alphabet, validate_family
from dominofill.brickfill import FilledWord
from dominofill.geometry import grid_rows
from dominofill.sft import (
    Alphabet,
    Symbol,
    SymbolicWord,
    Tiling,
    Violation,
    decode,
    validate_word,
)


class TestAlphabet:
    def test_sizes(self, flagship, flagship_alphabet, line_alphabet):
        assert len(flagship_alphabet.symbols) == 48  # 6 + 6 + 36
        small_only = build_alphabet(flagship, large={})
        assert len(small_only.symbols) == 12
        assert len(line_alphabet.symbols) == 11  # 2 + 3 + 6

    def test_symbol_index_round_trip(self, flagship_alphabet):
        for i, s in enumerate(flagship_alphabet.symbols):
            assert flagship_alphabet.symbols.index(s) == i
            assert flagship_alphabet.tile_codes[i] == flagship_alphabet.code_of[s.tile]

    def test_offsets_inside_tile(self, flagship_alphabet):
        for s in flagship_alphabet.symbols:
            shape = flagship_alphabet.shape(s.tile)
            assert all(0 <= o < w for o, w in zip(s.offset, shape))

    @given(st.data())
    def test_paint_is_the_grid_of_symbol_indices(self, data):
        """Painting one tile at the origin of a grid of its shape gives the
        grid of ``index(Symbol(tile, offset))``; a wall's grid is int32."""
        dim = data.draw(st.integers(1, 3))
        side = st.integers(1, 4)
        shapes = data.draw(st.lists(st.tuples(*[side] * dim), min_size=1, max_size=3))
        tile_shapes = {j + 1: s for j, s in enumerate(shapes)}
        tile_shapes.update(data.draw(st.dictionaries(
            st.sampled_from(["P", "P1", "P2"]), st.tuples(*[side] * dim), max_size=2
        )))
        alphabet = Alphabet(dim, tile_shapes)
        origin = data.draw(st.tuples(*[st.integers(-9, 9)] * dim))
        for code, tile in enumerate(alphabet.tiles):
            shape = tile_shapes[tile]
            want = np.empty(shape, dtype=np.int64)
            for offset in np.ndindex(shape):
                want[offset] = alphabet.symbols.index(Symbol(tile, offset))
            grid = np.full(shape, -1, dtype=np.int64)
            codes, anchors = np.array([code]), np.array([origin], dtype=np.int64)
            for symbol, cells in alphabet.paint(codes, anchors, origin, shape):
                grid.ravel()[cells] = symbol
            assert np.array_equal(grid, want)
            pattern = BrickWall(alphabet, tile, origin).pattern_over(Box(origin, shape))
            assert pattern.dtype == np.int32 and np.array_equal(pattern, want)


class TestAllowedNeighbor:
    def test_interior_continuation(self, flagship_alphabet):
        a = flagship_alphabet
        assert allowed_neighbor(a, Symbol(1, (0, 0)), 0, Symbol(1, (1, 0)))
        assert not allowed_neighbor(a, Symbol(1, (0, 0)), 0, Symbol(2, (0, 0)))

    def test_face_admits_any_starter(self, flagship_alphabet):
        a = flagship_alphabet
        # right edge of the (3,2) tile
        assert allowed_neighbor(a, Symbol(1, (2, 0)), 0, Symbol(2, (0, 2)))
        assert allowed_neighbor(a, Symbol(1, (2, 0)), 0, Symbol("P", (0, 4)))
        assert not allowed_neighbor(a, Symbol(1, (2, 0)), 0, Symbol(2, (1, 2)))

    @given(st.data())
    def test_matches_two_cell_validation(self, flagship_alphabet, data):
        a = flagship_alphabet
        s = data.draw(st.sampled_from(a.symbols))
        t = data.draw(st.sampled_from(a.symbols))
        axis = data.draw(st.integers(0, 1))
        step = (1, 0) if axis == 0 else (0, 1)
        # lay the pair along the chosen axis only
        word = SymbolicWord(a, Box((0, 0), (2, 1) if axis == 0 else (1, 2)))
        set_cell(word, (0, 0), s)
        set_cell(word, step, t)
        assert (validate_word(word) == []) == allowed_neighbor(a, s, axis, t)


class TestValidateWord:
    def test_wall_restriction_passes(self, flagship_alphabet):
        wall = BrickWall(flagship_alphabet, "P", (2, 5))
        word = FilledWord.pure_wall(wall).materialize(Box((-7, 3), (20, 17)))
        assert validate_word(word) == []

    def test_single_cell_passes(self, flagship_alphabet):
        word = SymbolicWord(flagship_alphabet, Box((4, 4), (1, 1)))
        set_cell(word, (4, 4), Symbol("P", (3, 3)))
        assert validate_word(word) == []

    def test_broken_continuation(self, flagship_alphabet):
        word = SymbolicWord(flagship_alphabet, Box((0, 0), (2, 1)))
        set_cell(word, (0, 0), Symbol(1, (0, 0)))
        set_cell(word, (1, 0), Symbol(2, (0, 0)))
        problems = validate_word(word)
        assert len(problems) == 1
        v = problems[0]
        assert v.cell == (0, 0) and v.axis == 0
        assert v.symbol == Symbol(1, (0, 0)) and v.neighbor == Symbol(2, (0, 0))

    def test_violation_found_in_one_domain(self, flagship_alphabet):
        word = SymbolicWord(flagship_alphabet, Box((0, 0), (6, 1)))
        set_cell(word, (0, 0), Symbol(1, (0, 0)))
        set_cell(word, (1, 0), Symbol(1, (1, 0)))
        set_cell(word, (4, 0), Symbol(1, (0, 0)))
        set_cell(word, (5, 0), Symbol(2, (0, 0)))
        assert validate_word(word.restrict(Box((0, 0), (2, 1)))) == []
        ok = decode(word.restrict(Box((0, 0), (2, 1))))
        assert ok.partial_cells == 2
        broken = Violation((4, 0), 0, Symbol(1, (0, 0)), Symbol(2, (0, 0)))
        assert validate_word(word.restrict(Box((4, 0), (2, 1)))) == [broken]
        assert validate_word(word) == [broken]

    def test_gaps_are_ignored(self, flagship_alphabet):
        word = SymbolicWord(flagship_alphabet, Box((0, 0), (3, 1)))
        set_cell(word, (0, 0), Symbol(1, (0, 0)))
        set_cell(word, (2, 0), Symbol(2, (0, 0)))
        assert validate_word(word) == []

    @given(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    )
    def test_wall_invariance(self, flagship_alphabet, translate, corner):
        wall = BrickWall(flagship_alphabet, "P", translate)
        word = FilledWord.pure_wall(wall).materialize(Box(corner, (9, 8)))
        assert validate_word(word) == []


def random_disjoint_tiling(alphabet, rng, box_side=20, attempts=60):
    """Scatter non-overlapping placements of random tiles inside a cube."""
    taken = np.zeros((box_side,) * alphabet.dim, dtype=bool)
    parts = []
    for _ in range(attempts):
        tile = alphabet.tiles[rng.integers(len(alphabet.tiles))]
        shape = alphabet.shape(tile)
        anchor = tuple(int(rng.integers(0, box_side - e + 1)) for e in shape)
        spot = tuple(slice(a, a + e) for a, e in zip(anchor, shape))
        if taken[spot].any():
            continue
        taken[spot] = True
        parts.append((tile, [anchor]))
    return tiling_from_parts(
        {t: alphabet.shape(t) for t in alphabet.tiles},
        parts,
        Box((0,) * alphabet.dim, (box_side,) * alphabet.dim),
    )


def full_wall_word(alphabet, rng, box_side):
    """A word with every cell of a cube assigned: the wall of a random brick
    at a random translate, about half of its bricks split into one small tile
    that divides them, restricted to the cube."""
    dim = alphabet.dim
    brick = rng.choice([t for t in alphabet.tiles if not isinstance(t, int)])
    period = alphabet.shape(brick)
    small = [
        t for t in alphabet.tiles
        if isinstance(t, int) and all(p % e == 0 for p, e in zip(period, alphabet.shape(t)))
    ]
    start = [-int(rng.integers(0, p)) for p in period]
    bricks = grid_rows([np.arange(a, box_side, p) for a, p in zip(start, period)])
    split = rng.random(len(bricks)) < 0.5
    parts = [(brick, bricks[~split])]
    for row in bricks[split]:
        tile = small[rng.integers(len(small))]
        shape = alphabet.shape(tile)
        offsets = grid_rows([np.arange(0, p, e) for p, e in zip(period, shape)])
        parts.append((tile, row + offsets))
    shapes = {t: alphabet.shape(t) for t in alphabet.tiles}
    return encode(tiling_from_parts(shapes, parts), alphabet, Box((0,) * dim, (box_side,) * dim))


# (alphabet, cube side) per dimension; the line carries bricks P2 and P10 so
# that partials must order stage numbers numerically.
DECODE_CASES = {
    1: (lambda: Alphabet(1, {1: (2,), 2: (3,), "P": (6,), "P2": (12,), "P10": (18,)}), 60),
    2: (lambda: build_alphabet(validate_family([(3, 2), (2, 3)])), 20),
    3: (lambda: build_alphabet(validate_family([(2, 1, 1), (1, 2, 1), (1, 1, 2)])), 8),
}


class TestAgainstOracles:
    @pytest.mark.parametrize("dim", sorted(DECODE_CASES))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_validate_word_matches_mask_oracle(self, dim, seed):
        make_alphabet, side = DECODE_CASES[dim]
        alphabet = make_alphabet()
        rng = np.random.default_rng(seed)
        word = encode(random_disjoint_tiling(alphabet, rng, side), alphabet)
        word.grid[rng.random(word.grid.shape) < rng.random() / 4] = -1
        breaches = rng.random(word.grid.shape) < rng.random() / 10
        word.grid[breaches] = rng.integers(0, alphabet.size, int(breaches.sum()))
        shift = tuple(int(x) for x in rng.integers(-9, 9, dim))
        moved = SymbolicWord(alphabet, word.box.translate(shift), word.grid)
        for w in (word, moved):
            assert validate_word(w) == validate_word_by_mask(w)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "span", [3, 1000, 2**40, 2**61], ids=["span3", "span1000", "span2^40", "span2^61"]
    )
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_sorted_canonical_matches_lexsort(self, dim, span, seed):
        rng = np.random.default_rng(seed)
        shapes = {1: (1,) * dim, 2: (2,) * dim, "P": (4,) * dim}
        n = int(rng.integers(0, 40))
        pool_codes = rng.integers(0, 3, n + 1)
        pool_anchors = rng.integers(-span // 2, span - span // 2, (n + 1, dim))
        pick = rng.integers(0, n + 1, n)  # repeats give duplicate rows
        tiling = Tiling(shapes, pool_codes[pick], pool_anchors[pick])
        order = np.lexsort([tiling.codes] + [tiling.anchors[:, a] for a in range(dim)][::-1])
        canon = tiling.sorted_canonical()
        assert np.array_equal(canon.codes, tiling.codes[order])
        assert np.array_equal(canon.anchors, tiling.anchors[order])
        assert canon.sorted_canonical() is canon

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sorted_canonical_builds_read_only_columns(self, dim):
        """A sort gives int32 codes and int64 anchors held one contiguous
        column per axis, both read-only."""
        rng = np.random.default_rng(dim)
        shapes = {1: (1,) * dim, 2: (2,) * dim, "P": (4,) * dim}
        tiling = Tiling(shapes, rng.integers(0, 3, 60), rng.integers(-20, 20, (60, dim)))
        canon = tiling.sorted_canonical()
        assert canon is not tiling
        assert canon.codes.dtype == np.int32 and canon.anchors.dtype == np.int64
        assert all(canon.anchors[:, a].flags.c_contiguous for a in range(dim))
        assert not canon.codes.flags.writeable and not canon.anchors.flags.writeable

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("short, packed", [(1, True), (0, False)], ids=["below", "at"])
    def test_sorted_canonical_at_the_62_bit_limit(self, monkeypatch, dim, short, packed):
        """Four tiles and anchor spans of 2^(60 / dim), the last one less
        ``short``: a key just under 62 bits is packed, one of 62 bits falls
        back to ``np.lexsort``, and both give the lexsort order."""
        rng = np.random.default_rng(dim + 2 * short)
        shapes = {1: (1,) * dim, 2: (2,) * dim, "P": (4,) * dim, "P2": (8,) * dim}
        spans = [2 ** (60 // dim)] * dim
        spans[-1] -= short
        lows = [-(2**58), 3][:dim]
        columns = []
        for lo, span in zip(lows, spans):
            column = lo + rng.integers(0, span, 40)
            column[:2] = lo, lo + span - 1  # the span is reached exactly
            columns.append(rng.permutation(column))
        tiling = Tiling(shapes, rng.integers(0, 4, 40), np.stack(columns, axis=1))
        order = np.lexsort([tiling.codes] + columns[::-1])
        real_lexsort, calls = np.lexsort, []
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real_lexsort(keys))
        canon = tiling.sorted_canonical()
        assert bool(calls) is not packed
        assert np.array_equal(canon.codes, tiling.codes[order])
        assert np.array_equal(canon.anchors, tiling.anchors[order])

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]], ids=["in_order", "reversed"])
    def test_canonical_tiling_is_read_only(self, order):
        anchors = np.array([[0, 0], [3, 0]])[order]
        canon = Tiling({1: (3, 2)}, [0, 0], anchors).sorted_canonical()
        with pytest.raises(ValueError, match="read-only"):
            canon.codes[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            canon.anchors[0, 0] = 3

    def test_cell_counts_follow_codes_edited_before_the_mark(self):
        """A tiling counted, edited in place, then marked canonical as it is
        counts the cells its codes hold now."""
        t = Tiling({1: (1, 1), 2: (1, 2)}, [0, 0], [[0, 0], [1, 0]])
        assert t.tile_cell_counts() == {1: 2, 2: 0}
        t.codes[1] = 1
        assert t.sorted_canonical() is t
        placed = np.bincount(t.codes, minlength=2) * np.array([1, 2])
        assert t.tile_cell_counts() == dict(zip(t.tile_order, placed.tolist())) == {1: 1, 2: 2}

    def test_tiling_needs_one_anchor_row_per_code(self):
        with pytest.raises(ValueError, match="anchors of shape"):
            Tiling({1: (2,)}, [0, 0], np.array([3, 5]))
        with pytest.raises(ValueError, match="anchors of shape"):
            Tiling({1: (2,)}, [], [])
        with pytest.raises(ValueError, match="anchors of shape"):
            Tiling({1: (2,)}, [0], np.zeros((2, 1), dtype=np.int64))
        assert len(Tiling({1: (2,)}, [], np.zeros((0, 1), dtype=np.int64))) == 0


class TestCodec:
    def test_encode_single_placement(self, flagship_alphabet):
        t = tiling_from_parts({1: (3, 2)}, [(1, [(0, 0)])], Box((0, 0), (3, 2)))
        word = encode(t, flagship_alphabet)
        assert np.count_nonzero(word.grid >= 0) == 6
        assert word.cell((2, 1)) == Symbol(1, (2, 1))
        assert word.cell((0, 1)) == Symbol(1, (0, 1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_round_trip_on_random_tilings(self, flagship_alphabet, seed):
        rng = np.random.default_rng(seed)
        t = random_disjoint_tiling(flagship_alphabet, rng)
        out = decode(encode(t, flagship_alphabet))
        assert list(placements(out.partials)) == []
        assert same_placements(out.tiling, t)

    def test_word_round_trip_on_aligned_wall(self, flagship_alphabet):
        wall = BrickWall(flagship_alphabet, "P", (0, 0))
        box = Box((-6, 6), (18, 12))
        word = FilledWord.pure_wall(wall).materialize(box)
        result = decode(word)
        assert list(placements(result.partials)) == []
        back = encode(result.tiling, flagship_alphabet, box)
        assert equals_on(back, word, box)

    def test_wall_decode_reports_cut_tiles(self, flagship_alphabet):
        wall = BrickWall(flagship_alphabet, "P", (2, 2))
        result = decode(FilledWord.pure_wall(wall).materialize(Box((0, 0), (9, 9))))
        complete = list(placements(result.tiling))
        assert complete == [Placement("P", (2, 2))]
        assert len(result.partials) == 8
        assert result.partial_cells == 81 - 36

    def test_mixed_cut_tiles(self):
        alphabet = Alphabet(1, {1: (2,), 2: (3,), "P": (6,)})
        word = SymbolicWord(alphabet, Box((0,), (4,)))
        set_cell(word, (0,), Symbol(1, (1,)))
        set_cell(word, (3,), Symbol("P", (0,)))
        result = decode(word)
        assert len(result.tiling) == 0
        assert result.partial_cells == 2
        assert list(placements(result.partials)) == [Placement(1, (-1,)), Placement("P", (3,))]

    @pytest.mark.parametrize("dim", sorted(DECODE_CASES))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_matches_per_cell_grouping(self, dim, seed):
        make_alphabet, side = DECODE_CASES[dim]
        alphabet = make_alphabet()
        rng = np.random.default_rng(seed)
        word = encode(random_disjoint_tiling(alphabet, rng, side), alphabet)
        word.grid[rng.random(word.grid.shape) < rng.random() / 4] = -1
        lo = tuple(int(x) for x in rng.integers(0, side // 2, dim))
        hi = tuple(int(x) for x in rng.integers(side // 2, side + 1, dim))
        word = word.restrict(Box(lo, tuple(h - l for l, h in zip(lo, hi))))
        whole, partials, partial_cells = decode_by_cells(word)
        result = decode(word)
        assert set(placements(result.tiling)) == whole
        assert len(result.tiling) == len(whole)
        assert list(placements(result.partials)) == partials
        assert result.partial_cells == partial_cells

    @pytest.mark.parametrize("dim", sorted(DECODE_CASES))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_restricted_boxes_match_whole_word_decode(self, dim, seed):
        """With holes, a box's decode holds exactly the whole-word decode's
        whole placements that lie inside the box."""
        make_alphabet, side = DECODE_CASES[dim]
        alphabet = make_alphabet()
        rng = np.random.default_rng(seed)
        word = encode(random_disjoint_tiling(alphabet, rng, side), alphabet)
        word.grid[rng.random(word.grid.shape) < rng.random() / 4] = -1
        whole = decode(word).tiling
        ends = whole.anchors + whole.shape_table[whole.codes]
        for _ in range(int(rng.integers(1, 6))):
            shape = tuple(int(x) for x in rng.integers(1, side + 1, dim))
            box = Box(tuple(int(rng.integers(0, side - e + 1)) for e in shape), shape)
            inside = np.all(whole.anchors >= box.anchor, axis=1)
            inside &= np.all(ends <= box.end, axis=1)
            result = decode(word.restrict(box))
            assert result.tiling.window == box
            assert np.array_equal(result.tiling.codes, whole.codes[inside])
            assert np.array_equal(result.tiling.anchors, whole.anchors[inside])

    @pytest.mark.parametrize("dim", sorted(DECODE_CASES))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_fully_assigned_words_match_per_cell_grouping(self, dim, seed):
        """Words without holes decode as the per-cell grouping does."""
        make_alphabet, side = DECODE_CASES[dim]
        alphabet = make_alphabet()
        rng = np.random.default_rng(seed)
        word = full_wall_word(alphabet, rng, side)
        assert validate_word(word) == [] and np.all(word.grid >= 0)
        shape = tuple(int(x) for x in rng.integers(1, side + 1, dim))
        boxes = [
            Box(tuple(int(rng.integers(0, side - e + 1)) for e in shape), shape)
            for _ in range(int(rng.integers(1, 4)))
        ]
        per_box = [decode(word.restrict(box)) for box in boxes]
        for box, result in zip(boxes, per_box):
            whole, partials, partial_cells = decode_by_cells(word.restrict(box))
            assert set(placements(result.tiling)) == whole
            assert len(result.tiling) == len(whole)
            assert list(placements(result.partials)) == partials
            assert result.partial_cells == partial_cells

    def test_unassigned_word_decodes_nothing(self, flagship_alphabet):
        word = SymbolicWord(flagship_alphabet, Box((0, 0), (12, 12)))
        result = decode(word)
        assert len(result.tiling) == len(result.partials) == result.partial_cells == 0
        assert result.tiling.window == word.box
        assert result.tiling.anchors.shape == result.partials.anchors.shape == (0, 2)

    @pytest.mark.parametrize(
        "corner", [(-1, 0), (0, 7), (7, 0)], ids=["below", "past_y", "past_x"]
    )
    def test_restrict_must_keep_domains_inside(self, flagship_alphabet, corner):
        wall = BrickWall(flagship_alphabet, "P", (0, 0))
        word = FilledWord.pure_wall(wall).materialize(Box((0, 0), (12, 12)))
        with pytest.raises(ValueError, match="leaves the word's box"):
            word.restrict(Box(corner, (6, 6)))

    def test_decode_rejects_invalid(self, flagship_alphabet):
        # decode trusts its word; an invalid one is refused by validate_word
        # before decoding, as finalize does.
        word = SymbolicWord(flagship_alphabet, Box((0, 0), (2, 1)))
        set_cell(word, (0, 0), Symbol(1, (0, 0)))
        set_cell(word, (1, 0), Symbol(2, (0, 0)))
        broken = Violation((0, 0), 0, Symbol(1, (0, 0)), Symbol(2, (0, 0)))
        assert validate_word(word) == [broken]


class TestTranslateWord:
    @given(st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
    def test_round_trip(self, flagship_alphabet, v):
        wall = BrickWall(flagship_alphabet, "P", (1, 3))
        word = FilledWord.pure_wall(wall).materialize(Box((0, 0), (8, 8)))
        moved = SymbolicWord(word.alphabet, word.box.translate(v), word.grid)
        assert moved.box == word.box.translate(v)
        assert validate_word(moved) == []
        back = SymbolicWord(moved.alphabet, moved.box.translate(tuple(-x for x in v)), moved.grid)
        assert equals_on(back, word, word.box)

    def test_zero_is_identity(self, flagship_alphabet):
        wall = BrickWall(flagship_alphabet, "P", (0, 0))
        word = FilledWord.pure_wall(wall).materialize(Box((2, 2), (5, 5)))
        moved = SymbolicWord(word.alphabet, word.box.translate((0, 0)), word.grid)
        assert equals_on(moved, word, word.box)


class TestLocalGlobalEquivalence:
    """Word enumeration with pinned faces matches exact-cover counts."""

    @pytest.mark.parametrize(
        "width, height, expected",
        [(1, 1, 0), (2, 2, 2), (2, 3, 3), (3, 4, 11)],
    )
    def test_domino_counts(self, width, height, expected):
        f = validate_family([(2, 1), (1, 2)])
        alphabet = build_alphabet(f, large={})
        assert count_exact_tilings(width, height, f.shapes) == expected
        sample = WordSample(rate=1)
        n = enumerate_boundary_complete_words(alphabet, width, height, sample)
        assert n == expected
        for grid in sample.words:
            word = SymbolicWord(alphabet, Box((0, 0), (width, height)))
            for cell, sym in grid.items():
                set_cell(word, cell, sym)
            assert validate_word(word) == []
            result = decode(word)
            assert list(placements(result.partials)) == []
