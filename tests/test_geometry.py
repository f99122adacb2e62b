"""Boxes and the collar decomposition, against cell enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dominofill import Box, expand
from dominofill.brickfill import GapTooNarrow, decompose_collar
from dominofill.geometry import grid_rows, interior


def enumerate_cells(box):
    """Every lattice cell of the box, lexicographically."""
    if box is None:
        return set()
    ranges = [range(a, a + s) for a, s in zip(box.anchor, box.shape)]
    out = {()}
    for r in ranges:
        out = {c + (v,) for c in out for v in r}
    return out


@st.composite
def boxes(draw, max_dim=3, max_side=7, span=20):
    dim = draw(st.integers(1, max_dim))
    anchor = tuple(draw(st.integers(-span, span)) for _ in range(dim))
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(dim))
    return Box(anchor, shape)


class TestBox:
    def test_basic_queries(self):
        b = Box((2, -1), (3, 2))
        assert b.dim == 2
        assert b.volume == 6
        assert b.end == (5, 1)
        assert b.contains_cell((4, 0))
        assert not b.contains_cell((5, 0))
        assert b.contains_box(Box((2, 0), (2, 1)))
        assert b.translate((1, 1)) == Box((3, 0), (3, 2))

    def test_intersect(self):
        a = Box((0, 0), (4, 4))
        assert a.intersect(Box((2, 2), (4, 4))) == Box((2, 2), (2, 2))
        assert a.intersect(Box((4, 0), (2, 2))) is None

    @given(boxes())
    def test_cells_match_enumeration(self, b):
        assert set(b.cells()) == enumerate_cells(b)
        assert b.volume == math.prod(b.shape)
        assert min(b.cells()) == b.anchor


class TestExpandInterior:
    def test_known_values(self):
        assert expand(Box((0, 0), (3, 2)), 1) == Box((-1, -1), (5, 4))
        assert expand(Box((5,), (10,)), 14) == Box((-9,), (38,))
        assert interior(Box((0, 0), (6, 6)), 1) == Box((1, 1), (4, 4))
        assert interior(Box((0, 0), (6, 6)), 3) is None

    @given(boxes())
    def test_zero_is_identity(self, b):
        assert expand(b, 0) == b
        assert interior(b, 0) == b

    @given(boxes(), st.integers(0, 5))
    def test_expand_then_interior(self, b, s):
        assert interior(expand(b, s), s) == b


class TestDecomposeCollar:
    def test_line_segments(self):
        pieces = decompose_collar(Box((0,), (12,)), Box((-15,), (42,)), 2)
        assert [(p.box, p.axis) for p in pieces] == [
            (Box((-15,), (15,)), 0),
            (Box((12,), (15,)), 0),
        ]

    def test_identity_and_narrow(self):
        b = Box((0, 0), (12, 12))
        assert decompose_collar(b, b, 2) == []
        with pytest.raises(GapTooNarrow):
            decompose_collar(Box((0,), (12,)), Box((-2,), (16,)), 2)

    def test_pinwheel_partition(self, flagship):
        # concentric 6-aligned squares, uniform gap 12 per face
        inner = Box((0, 0), (12, 12))
        outer = Box((-12, -12), (36, 36))
        pieces = decompose_collar(inner, outer, flagship.threshold)
        assert len(pieces) == 4
        union = set()
        for p in pieces:
            cells = enumerate_cells(p.box)
            assert not union & cells
            union |= cells
            # one representable extent; every other axis a multiple of the period
            assert p.box.shape[p.axis] > flagship.threshold
            for axis in range(2):
                if axis != p.axis:
                    assert p.box.shape[axis] % flagship.large_shape[axis] == 0
        assert union == enumerate_cells(outer) - enumerate_cells(inner)

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 3), st.integers(1, 3))
    def test_random_aligned_rings(self, ax, ay, wx, wy):
        inner = Box((6 * ax, 6 * ay), (6 * wx, 6 * wy))
        outer = expand(inner, 12)
        pieces = decompose_collar(inner, outer, 2)
        union = set()
        for p in pieces:
            cells = enumerate_cells(p.box)
            assert not union & cells
            union |= cells
        assert union == enumerate_cells(outer) - enumerate_cells(inner)


@pytest.mark.parametrize(
    "extents",
    [(4,), (0,), (3, 5), (3, 0), (0, 5), (2, 3, 4), (2, 0, 4), (1, 1, 1)],
    ids=str,
)
def test_grid_rows_is_the_meshgrid_product(extents):
    """One row per point of the per-axis product, in C order and with the
    axes' int64 dtype, as ``meshgrid`` and ``stack`` give it, empty axes
    included."""
    axes = [np.arange(-2, 3 * e - 2, 3, dtype=np.int64) + 10 * a for a, e in enumerate(extents)]
    mesh = np.meshgrid(*axes, indexing="ij")
    want = np.stack([m.ravel() for m in mesh], axis=1)
    got = grid_rows(axes)
    assert got.dtype == np.int64 and got.shape == (math.prod(extents), len(extents))
    assert np.array_equal(got, want)
