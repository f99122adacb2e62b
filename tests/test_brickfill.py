"""Brick walls, tile completion, strip tiling, the uniform filler, and glue."""

import copy
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    check_partition_by_slices,
    complete_partial_tiles_by_direction,
    equals_on,
    fill_word_by_pastes,
    iter_cells,
    placements_by_parts,
    same_placements,
    set_cell,
    strip_run_anchors,
    tiles_meeting_by_parts,
    wall_pattern_by_roll,
)
from test_sft import DECODE_CASES

from dominofill import Box, BrickWall, build_alphabet, expand, fill_between, validate_family
from dominofill.brickfill import (
    FilledWord,
    GapTooNarrow,
    InwardEmpty,
    NoMatchingTranslate,
    NonMultipleExtent,
    PartitionBroken,
    collar_width,
    glue,
    placements_of,
    strip_runs,
)
from dominofill.cli.verify import verify_word
from dominofill.numerics import NotRepresentable
from dominofill.sft import InvalidWord, Symbol, decode, validate_word

translates_2d = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


class TestBrickWall:
    def test_symbol_queries(self, flagship_alphabet):
        wall = BrickWall(flagship_alphabet, "P", (0, 0))
        assert wall.symbol_at((0, 0)) == Symbol("P", (0, 0))
        assert wall.symbol_at((7, 3)) == Symbol("P", (1, 3))
        shifted = BrickWall(flagship_alphabet, "P", (2, 0))
        assert shifted.symbol_at((2, 0)) == Symbol("P", (0, 0))

    def test_translate_stored_modulo_period(self, flagship_alphabet):
        assert BrickWall(flagship_alphabet, "P", (8, -5)).translate == (2, 1)

    @given(translates_2d, translates_2d)
    @settings(max_examples=30)
    def test_restrictions_are_valid(self, flagship_alphabet, translate, corner):
        wall = BrickWall(flagship_alphabet, "P", translate)
        assert validate_word(wall.materialize(Box(corner, (13, 9)))) == []

    @pytest.mark.parametrize("dim", sorted(DECODE_CASES))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_pattern_over_is_the_rolled_brick(self, dim, data):
        """A wall's word over a box, painted from its bricks, is one brick's
        symbol grid rolled to the box's phase and tiled over it, for any
        tile, translate and box (the line's alphabet carries bricks P2 and
        P10)."""
        alphabet = DECODE_CASES[dim][0]()
        tile = data.draw(st.sampled_from(alphabet.tiles))
        translate = data.draw(st.tuples(*[st.integers(-40, 40)] * dim))
        anchor = data.draw(st.tuples(*[st.integers(-40, 40)] * dim))
        shape = data.draw(st.tuples(*[st.integers(1, {1: 80, 2: 30, 3: 12}[dim])] * dim))
        wall, box = BrickWall(alphabet, tile, translate), Box(anchor, shape)
        got = wall.pattern_over(box)
        assert got.dtype == np.int32 and np.array_equal(got, wall_pattern_by_roll(wall, box))


class TestCompletePartialTiles:
    """``BrickWall.outward`` grows a box to whole bricks, ``inward`` shrinks it."""

    def test_line_examples(self, line_alphabet):
        wall = BrickWall(line_alphabet, "P", (0,))
        assert wall.outward(Box((0,), (10,))) == Box((0,), (12,))
        aligned = Box((0,), (12,))
        assert wall.outward(aligned) == aligned
        assert wall.inward(aligned) == aligned
        with pytest.raises(InwardEmpty):
            wall.inward(Box((1,), (4,)))

    @given(translates_2d, translates_2d, st.tuples(st.integers(1, 25), st.integers(1, 25)))
    @settings(max_examples=50)
    def test_face_movement_below_period(self, flagship_alphabet, translate, corner, shape):
        wall = BrickWall(flagship_alphabet, "P", translate)
        box = Box(corner, shape)
        out = wall.outward(box)
        assert out.contains_box(box)
        for axis in range(2):
            period = wall.period[axis]
            assert box.anchor[axis] - out.anchor[axis] < period
            assert out.end[axis] - box.end[axis] < period
            assert (out.anchor[axis] - wall.translate[axis]) % period == 0
            assert out.shape[axis] % period == 0

    @pytest.mark.parametrize("dim", sorted(DECODE_CASES))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_match_the_direction_flag(self, dim, data):
        """Both agree with ``complete_partial_tiles_by_direction``, its
        InwardEmpty included, on any brick, translate and box."""
        alphabet = DECODE_CASES[dim][0]()
        tile = data.draw(st.sampled_from([t for t in alphabet.tiles if not isinstance(t, int)]))
        wall = BrickWall(alphabet, tile, data.draw(st.tuples(*[st.integers(-40, 40)] * dim)))
        box = Box(
            data.draw(st.tuples(*[st.integers(-40, 40)] * dim)),
            data.draw(st.tuples(*[st.integers(1, 40)] * dim)),
        )
        assert wall.outward(box) == complete_partial_tiles_by_direction(box, wall, "outward")
        try:
            want = complete_partial_tiles_by_direction(box, wall, "inward")
        except InwardEmpty as exc:
            with pytest.raises(InwardEmpty, match=re.escape(str(exc))):
                wall.inward(box)
        else:
            assert wall.inward(box) == want


class TestStripTile:
    """`strip_runs` tiles a box exactly by strips of family tiles along one axis."""

    @staticmethod
    def placements(runs):
        return [(run.tile, tuple(a)) for run in runs for a in strip_run_anchors(run).tolist()]

    def test_line_segment(self, line_family):
        runs = strip_runs(Box((0,), (15,)), line_family, 0)
        assert self.placements(runs) == [
            (1, (0,)), (1, (2,)), (1, (4,)), (1, (6,)), (1, (8,)), (1, (10,)),
            (2, (12,)),
        ]

    def test_plane_strip(self, flagship):
        runs = strip_runs(Box((0, 0), (6, 12)), flagship, 0)
        got = self.placements(runs)
        assert set(tile for tile, _ in got) == {1}
        assert len(got) == 12
        assert sum(math.prod(flagship.shapes[tile - 1]) for tile, _ in got) == 72

    def test_rejections(self, flagship):
        with pytest.raises(NotRepresentable):
            strip_runs(Box((0, 0), (1, 12)), flagship, 0)
        with pytest.raises(NonMultipleExtent):
            strip_runs(Box((0, 0), (6, 7)), flagship, 0)


def assert_fill_contract(fill, inner_wall, box, outer_wall, width, probe_margin=3):
    """Checks both agreement regions cell-for-cell plus one-step validity."""
    window = expand(box, width + probe_margin)
    word = fill.materialize(window)
    assert np.array_equal(word.grid, fill_word_by_pastes(fill, window))
    assert validate_word(word) == []
    inner_view = inner_wall.materialize(box)
    assert equals_on(word, inner_view, box)
    footprint = expand(box, width)
    outer_view = outer_wall.materialize(window)
    for cell, sym in iter_cells(outer_view):
        if not footprint.contains_cell(cell):
            assert word.cell(cell) == sym
    # decode partitions the window: complete tiles + boundary cuts, no overlap
    result = decode(word)
    assert result.tiling.covered_cells() + result.partial_cells == window.volume
    assert same_placements(fill.placements(window), result.tiling)


def collar_tiles(fill):
    """The fill's placements in its collar: wholly inside the outer core and
    not wholly inside the inner core.  A sound fill puts only family tiles
    there."""
    placed = fill.placements(fill.footprint)
    boxes = [(p, Box(p.anchor, placed.tile_shapes[p.tile])) for p in placed.placements()]
    return [
        p for p, box in boxes
        if fill.outer_core.contains_box(box) and not fill.inner_core.contains_box(box)
    ]


class TestUniformFill:
    def test_aligned_walls_identity(self, flagship_alphabet, flagship):
        wall = BrickWall(flagship_alphabet, "P", (4, 1))
        same = BrickWall(flagship_alphabet, "P", (10, 7))  # same translate mod period
        fill = fill_between(wall, Box((3, 3), (10, 10)), same, flagship)
        probe = Box((-20, -20), (50, 50))
        assert equals_on(fill.materialize(probe), wall.materialize(probe), probe)

    def test_line_worked_example(self, line_alphabet, line_family):
        inner = BrickWall(line_alphabet, "P", (0,))
        outer = BrickWall(line_alphabet, "P", (3,))
        box = Box((0,), (10,))
        fill = fill_between(inner, box, outer, line_family)
        assert fill.inner_core == Box((0,), (12,))
        assert fill.outer_core == Box((-9,), (30,))
        assert fill.footprint == Box((-14,), (38,))
        got = sorted((p.anchor, p.tile) for p in collar_tiles(fill))
        assert got == [
            ((-9,), 1), ((-7,), 1), ((-5,), 1), ((-3,), 2),
            ((12,), 1), ((14,), 1), ((16,), 1), ((18,), 2),
        ]
        assert_fill_contract(fill, inner, box, outer, line_family.fill_length)

    def test_placements_refuse_a_hole_or_an_overlap(self, line_alphabet, line_family):
        """The worked example's fill with its first run dropped leaves a hole;
        with that run moved one cell down it overlaps its neighbour as well,
        and as many cells stay uncovered, which a cell count would pass."""
        fill = fill_between(
            BrickWall(line_alphabet, "P", (0,)), Box((0,), (10,)),
            BrickWall(line_alphabet, "P", (3,)), line_family,
        )
        run = fill.runs[0]
        moved = dataclasses.replace(run, box=run.box.translate((-1,)))
        for runs, cell, times in ((fill.runs[1:], -9, 0), ([moved, *fill.runs[1:]], -10, 2)):
            broken = copy.copy(fill)
            broken.runs = runs
            with pytest.raises(InvalidWord, match=rf"cell \({cell},\) {times} times"):
                broken.placements(fill.footprint)
        bare = copy.copy(fill)
        bare.runs = fill.runs[1:]
        with pytest.raises(InvalidWord, match=r"cell \(-9,\) 0 times"):
            bare.placements(run.box)  # no tile of the fill meets this box at all

    @given(
        st.integers(-30, 30), st.integers(-30, 30),
        st.integers(-15, 15), st.integers(1, 30),
    )
    @settings(max_examples=40)
    def test_line_contract(self, line_alphabet, line_family, t_in, t_out, corner, extent):
        inner = BrickWall(line_alphabet, "P", (t_in,))
        outer = BrickWall(line_alphabet, "P", (t_out,))
        box = Box((corner,), (extent,))
        fill = fill_between(inner, box, outer, line_family)
        assert_fill_contract(fill, inner, box, outer, line_family.fill_length)

    @given(
        translates_2d, translates_2d,
        st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
        st.tuples(st.integers(1, 25), st.integers(1, 25)),
    )
    @settings(max_examples=25)
    def test_plane_contract(self, flagship_alphabet, flagship, t_in, t_out, corner, shape):
        inner = BrickWall(flagship_alphabet, "P", t_in)
        outer = BrickWall(flagship_alphabet, "P", t_out)
        box = Box(corner, shape)
        fill = fill_between(inner, box, outer, flagship)
        assert_fill_contract(fill, inner, box, outer, flagship.fill_length)

    def test_collar_uses_only_small_tiles(self, flagship_alphabet, flagship):
        inner = BrickWall(flagship_alphabet, "P", (1, 4))
        outer = BrickWall(flagship_alphabet, "P", (3, 0))
        fill = fill_between(inner, Box((0, 0), (14, 9)), outer, flagship)
        tiles = set(p.tile for p in collar_tiles(fill))
        assert tiles and tiles <= {1, 2}


class TestNarrowCollar:
    def test_every_narrow_width_names_the_first_face(self, flagship_alphabet, flagship):
        """Below the 12 cells this pair needs, every width is refused as a
        gap at the low face of axis 0: at widths 0 to 5 the outer core no
        longer holds the inner one, and the gap there is negative."""
        inner = BrickWall(flagship_alphabet, "P", (1, 2))
        outer = BrickWall(flagship_alphabet, "P", (0, 0))
        box = Box((0, 0), (12, 12))
        for width in range(12):
            gap = -5 if width < 6 else 1
            with pytest.raises(GapTooNarrow, match=rf"^collar gap {gap} at the low face") as got:
                fill_between(inner, box, outer, flagship, width)
            assert got.value.face == (0, 0)
        assert fill_between(inner, box, outer, flagship, 12).footprint == expand(box, 12)


COLLAR_FAMILIES = {
    "line_2_3": (lambda: build_alphabet(validate_family([(2,), (3,)])), True, 216),
    "line_2_5": (lambda: build_alphabet(validate_family([(2,), (5,)])), True, 1000),
    "dominoes_3d": (DECODE_CASES[3][0], False, 512),
}


@pytest.mark.parametrize("name", sorted(COLLAR_FAMILIES))
def test_collar_contract_over_every_residue(name):
    """``fill_between`` commutes with translation, so a box at the origin,
    every inner and outer wall translate and every box extent modulo the
    brick cover all its cases at the family's own collar width.  The fill's
    tiles partition a window around the footprint; on the line its word
    there also passes the independent verifier, is the inner wall on the box
    and the outer wall outside the footprint."""
    make_alphabet, check_word, cases = COLLAR_FAMILIES[name]
    alphabet = make_alphabet()
    base = validate_family([alphabet.shape(t) for t in alphabet.tiles if isinstance(t, int)])
    period = alphabet.shape("P")
    translates = list(itertools.product(*map(range, period)))
    extents = list(itertools.product(*(range(1, p + 1) for p in period)))
    assert len(translates) ** 2 * len(extents) == cases
    for t_in, t_out, shape in itertools.product(translates, translates, extents):
        inner, outer = BrickWall(alphabet, "P", t_in), BrickWall(alphabet, "P", t_out)
        box = Box((0,) * base.dim, shape)
        fill = fill_between(inner, box, outer, base)
        window = expand(box, base.fill_length + max(period))
        fill.placements(window)
        if check_word:
            word = fill.materialize(window)
            assert verify_word(word) == [], (t_in, t_out, shape)
            assert np.array_equal(word.subgrid(box), inner.pattern_over(box))
            outside = np.ones(window.shape, dtype=bool)
            outside[word.slices_for(expand(box, base.fill_length))] = False
            assert np.array_equal(word.grid[outside], outer.pattern_over(window)[outside])


def assert_placements_are_each_fills_own(fills, box):
    """``placements_of`` over ``fills`` at once, split by fill index, is each
    fill's ``placements_by_parts``, tile for tile and in order."""
    codes, anchors, which = placements_of(fills, box)
    assert np.array_equal(which, np.sort(which))
    for f, fill in enumerate(fills):
        want = placements_by_parts(fill, box)
        assert np.array_equal(codes[which == f], want.codes)
        assert np.array_equal(anchors[which == f], want.anchors)


class TestBatchedPlacements:
    @pytest.mark.parametrize("dim", sorted(DECODE_CASES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_is_each_fills_own(self, dim, data):
        """One to five fills at once, pure walls among them, between walls of
        any brick at random translates, over a box near a strip run of the
        last fill, which the box often cuts (the line's alphabet carries
        bricks P, P2 and P10)."""
        alphabet = DECODE_CASES[dim][0]()
        base = validate_family([alphabet.shape(t) for t in alphabet.tiles if isinstance(t, int)])
        bricks = st.sampled_from([t for t in alphabet.tiles if not isinstance(t, int)])
        points = st.tuples(*[st.integers(-30, 30)] * dim)
        side = {1: 40, 2: 20, 3: 8}[dim]
        fills = []
        for _ in range(data.draw(st.integers(1, 5))):
            outer = BrickWall(alphabet, data.draw(bricks), data.draw(points))
            if data.draw(st.booleans()):
                fills.append(FilledWord.pure_wall(outer))
                continue
            inner = BrickWall(alphabet, data.draw(bricks), data.draw(points))
            inner_box = Box(data.draw(points), data.draw(st.tuples(*[st.integers(1, side)] * dim)))
            fills.append(fill_between(inner, inner_box, outer, base))
        runs = fills[-1].runs
        near = data.draw(st.sampled_from(runs)).box.anchor if runs else (0,) * dim
        anchor = np.add(near, data.draw(st.tuples(*[st.integers(-side, side)] * dim)))
        box = Box(tuple(anchor.tolist()), data.draw(st.tuples(*[st.integers(1, 2 * side)] * dim)))
        assert_placements_are_each_fills_own(fills, box)

    def test_first_broken_fill_is_named(self, line_alphabet, line_family):
        """Among three fills, the second with its first strip run dropped is
        refused by its index, with the cell and count that the reference
        check finds; the others are their own placements all the same."""
        fills = [
            fill_between(
                BrickWall(line_alphabet, "P", (t_in,)), Box((0,), (10,)),
                BrickWall(line_alphabet, "P", (t_out,)), line_family,
            )
            for t_in, t_out in ((0, 3), (1, 4), (2, 0))
        ]
        broken = copy.copy(fills[1])
        broken.runs = fills[1].runs[1:]
        box = fills[1].footprint
        with pytest.raises(InvalidWord) as want:
            check_partition_by_slices(tiles_meeting_by_parts(broken, box), box)
        with pytest.raises(PartitionBroken) as got:
            placements_of([fills[0], broken, fills[2]], box)
        assert got.value.fill == 1 and str(got.value) == str(want.value)
        assert_placements_are_each_fills_own([fills[0], fills[2]], box)


class TestRestrictedFill:
    def test_coarse_inner_wall(self):
        f = validate_family([(2,), (3,), (5,)])
        base = validate_family([(2,), (3,)])
        alphabet = build_alphabet(f, large={"P1": (6,), "P2": (30,)})
        inner = BrickWall(alphabet, "P2", (4,))
        outer = BrickWall(alphabet, "P1", (1,))
        box = Box((-7,), (40,))
        width = collar_width(inner, outer, base)
        assert width == base.collar(inner.period, outer.period)
        fill = fill_between(inner, box, outer, base)
        window = expand(box, width + 4)
        word = fill.materialize(window)
        assert validate_word(word) == []
        assert equals_on(word, inner.materialize(box), box)
        tiles = set(p.tile for p in collar_tiles(fill))
        assert tiles and tiles <= {1, 2}

    def test_single_period_matches_uniform(self, line_alphabet, line_family):
        inner = BrickWall(line_alphabet, "P", (2,))
        outer = BrickWall(line_alphabet, "P", (5,))
        box = Box((0,), (9,))
        a = fill_between(inner, box, outer, line_family)
        b = fill_between(inner, box, outer, line_family, line_family.fill_length)
        probe = expand(box, line_family.fill_length + 6)
        assert equals_on(a.materialize(probe), b.materialize(probe), probe)

    def test_incompatible_period_rejected(self, flagship):
        f = validate_family([(2,), (3,), (5,)])
        alphabet = build_alphabet(f, large={"P1": (6,), "P2": (30,)})
        base = validate_family([(2,), (5,)])  # 3 does not divide 30? it does; use 4
        base = validate_family([(4,), (3,)])
        inner = BrickWall(alphabet, "P2", (0,))
        outer = BrickWall(alphabet, "P1", (1,))
        with pytest.raises(NonMultipleExtent):
            fill_between(inner, Box((0,), (12,)), outer, base)


class TestGlue:
    def test_wall_restriction_is_fixed_point(self, flagship_alphabet, flagship):
        wall = BrickWall(flagship_alphabet, "P", (2, 3))
        box = Box((1, 1), (12, 10))
        glued = glue(wall.materialize(box), wall, flagship)
        probe = expand(box, flagship.fill_length + 4)
        assert equals_on(glued.materialize(probe), wall.materialize(probe), probe)

    @given(translates_2d, translates_2d)
    @settings(max_examples=20)
    def test_block_glues_into_any_wall(self, flagship_alphabet, flagship, t_in, t_out):
        inner = BrickWall(flagship_alphabet, "P", t_in)
        block_box = Box((0, 0), (17, 11))
        block = inner.materialize(block_box)
        ambient = BrickWall(flagship_alphabet, "P", t_out)
        glued = glue(block, ambient, flagship)
        window = expand(block_box, flagship.fill_length + 3)
        word = glued.materialize(window)
        assert validate_word(word) == []
        assert equals_on(word, block, block_box)
        footprint = expand(block_box, flagship.fill_length)
        ambient_view = ambient.materialize(window)
        for cell, sym in iter_cells(ambient_view):
            if not footprint.contains_cell(cell):
                assert word.cell(cell) == sym

    def test_corrupted_rim_rejected(self, flagship_alphabet, flagship):
        wall = BrickWall(flagship_alphabet, "P", (0, 0))
        box = Box((0, 0), (12, 12))
        block = wall.materialize(box)
        set_cell(block, (0, 5), Symbol(1, (0, 0)))
        with pytest.raises(NoMatchingTranslate):
            glue(block, wall, flagship)


class TestCollarWidth:
    def test_matches_family_fill_length(self, flagship_alphabet, flagship):
        a = BrickWall(flagship_alphabet, "P", (0, 0))
        b = BrickWall(flagship_alphabet, "P", (3, 3))
        assert collar_width(a, b, flagship) == flagship.fill_length
        assert collar_width(a, b, flagship) == flagship.collar(a.period, b.period)

    def test_grows_with_coarser_periods(self, flagship):
        f = validate_family([(2,), (3,), (5,)])
        base = validate_family([(2,), (3,)])
        alphabet = build_alphabet(f, large={"P1": (6,), "P2": (30,)})
        inner = BrickWall(alphabet, "P2", (0,))
        outer = BrickWall(alphabet, "P1", (0,))
        assert collar_width(inner, outer, base) == base.threshold + 30 + 6
        assert collar_width(inner, outer, base) == base.collar(inner.period, outer.period)
