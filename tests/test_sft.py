"""Alphabet, one-step rules, word validation, and the word/tiling codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    WordSample,
    count_exact_tilings,
    decode_by_cells,
    enumerate_boundary_complete_words,
)

from dominofill import Box, BrickWall, build_alphabet, validate_family
from dominofill.sft import (
    Alphabet,
    InvalidWord,
    Placement,
    Symbol,
    SymbolicWord,
    Tiling,
    allowed_neighbor,
    decode,
    encode,
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
            assert flagship_alphabet.index(s) == i
            assert flagship_alphabet.symbol(i) == s

    def test_offsets_inside_tile(self, flagship_alphabet):
        for s in flagship_alphabet.symbols:
            shape = flagship_alphabet.shape(s.tile)
            assert all(0 <= o < w for o, w in zip(s.offset, shape))


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
        word.set_cell((0, 0), s)
        word.set_cell(step, t)
        assert (validate_word(word) == []) == allowed_neighbor(a, s, axis, t)


class TestValidateWord:
    def test_wall_restriction_passes(self, flagship_alphabet):
        wall = BrickWall(flagship_alphabet, "P", (2, 5))
        word = wall.materialize(Box((-7, 3), (20, 17)))
        assert validate_word(word) == []

    def test_single_cell_passes(self, flagship_alphabet):
        word = SymbolicWord(flagship_alphabet, Box((4, 4), (1, 1)))
        word.set_cell((4, 4), Symbol("P", (3, 3)))
        assert validate_word(word) == []

    def test_broken_continuation(self, flagship_alphabet):
        word = SymbolicWord(flagship_alphabet, Box((0, 0), (2, 1)))
        word.set_cell((0, 0), Symbol(1, (0, 0)))
        word.set_cell((1, 0), Symbol(2, (0, 0)))
        problems = validate_word(word)
        assert len(problems) == 1
        v = problems[0]
        assert v.cell == (0, 0) and v.axis == 0
        assert v.symbol == Symbol(1, (0, 0)) and v.neighbor == Symbol(2, (0, 0))

    def test_gaps_are_ignored(self, flagship_alphabet):
        word = SymbolicWord(flagship_alphabet, Box((0, 0), (3, 1)))
        word.set_cell((0, 0), Symbol(1, (0, 0)))
        word.set_cell((2, 0), Symbol(2, (0, 0)))
        assert validate_word(word) == []

    @given(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    )
    def test_wall_invariance(self, flagship_alphabet, translate, corner):
        wall = BrickWall(flagship_alphabet, "P", translate)
        assert validate_word(wall.materialize(Box(corner, (9, 8)))) == []


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
    return Tiling.from_parts(
        {t: alphabet.shape(t) for t in alphabet.tiles},
        parts,
        Box((0,) * alphabet.dim, (box_side,) * alphabet.dim),
    )


# (alphabet, cube side) per dimension; the line carries bricks P2 and P10 so
# that partials must order stage numbers numerically.
DECODE_CASES = {
    1: (lambda: Alphabet(1, {1: (2,), 2: (3,), "P": (6,), "P2": (12,), "P10": (18,)}), 60),
    2: (lambda: build_alphabet(validate_family([(3, 2), (2, 3)])), 20),
    3: (lambda: build_alphabet(validate_family([(2, 1, 1), (1, 2, 1), (1, 1, 2)])), 8),
}


class TestCodec:
    def test_encode_single_placement(self, flagship_alphabet):
        t = Tiling.from_parts({1: (3, 2)}, [(1, [(0, 0)])], Box((0, 0), (3, 2)))
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
        assert out.partials == []
        assert out.tiling.same_placements(t)

    def test_word_round_trip_on_aligned_wall(self, flagship_alphabet):
        wall = BrickWall(flagship_alphabet, "P", (0, 0))
        box = Box((-6, 6), (18, 12))
        word = wall.materialize(box)
        result = decode(word)
        assert result.partials == []
        back = encode(result.tiling, flagship_alphabet, box)
        assert back.equals_on(word, box)

    def test_wall_decode_reports_cut_tiles(self, flagship_alphabet):
        wall = BrickWall(flagship_alphabet, "P", (2, 2))
        result = decode(wall.materialize(Box((0, 0), (9, 9))))
        complete = list(result.tiling.placements())
        assert complete == [Placement("P", (2, 2))]
        assert len(result.partials) == 8
        assert result.partial_cells == 81 - 36

    def test_mixed_cut_tiles(self):
        alphabet = Alphabet(1, {1: (2,), 2: (3,), "P": (6,)})
        word = SymbolicWord(alphabet, Box((0,), (4,)))
        word.set_cell((0,), Symbol(1, (1,)))
        word.set_cell((3,), Symbol("P", (0,)))
        result = decode(word)
        assert len(result.tiling) == 0
        assert result.partial_cells == 2
        assert result.partials == [Placement(1, (-1,)), Placement("P", (3,))]

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
        assert set(result.tiling.placements()) == whole
        assert len(result.tiling) == len(whole)
        assert result.partials == partials
        assert result.partial_cells == partial_cells

    def test_decode_rejects_invalid(self, flagship_alphabet):
        word = SymbolicWord(flagship_alphabet, Box((0, 0), (2, 1)))
        word.set_cell((0, 0), Symbol(1, (0, 0)))
        word.set_cell((1, 0), Symbol(2, (0, 0)))
        with pytest.raises(InvalidWord):
            decode(word)


class TestTranslateWord:
    @given(st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
    def test_round_trip(self, flagship_alphabet, v):
        wall = BrickWall(flagship_alphabet, "P", (1, 3))
        word = wall.materialize(Box((0, 0), (8, 8)))
        moved = SymbolicWord(word.alphabet, word.box.translate(v), word.grid)
        assert moved.box == word.box.translate(v)
        assert validate_word(moved) == []
        back = SymbolicWord(moved.alphabet, moved.box.translate(tuple(-x for x in v)), moved.grid)
        assert back.equals_on(word, word.box)

    def test_zero_is_identity(self, flagship_alphabet):
        wall = BrickWall(flagship_alphabet, "P", (0, 0))
        word = wall.materialize(Box((2, 2), (5, 5)))
        moved = SymbolicWord(word.alphabet, word.box.translate((0, 0)), word.grid)
        assert moved.equals_on(word, word.box)


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
                word.set_cell(cell, sym)
            assert validate_word(word) == []
            result = decode(word)
            assert result.partials == []
