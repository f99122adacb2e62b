"""Integer boxes and the expansion and interior operators."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned cell box: anchor is the lexicographically least cell."""

    anchor: tuple[int, ...]
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.anchor) != len(self.shape):
            raise ValueError("anchor and shape dimensions differ")
        if any(e < 1 for e in self.shape):
            raise ValueError(f"box extents must be >= 1, got {self.shape}")

    @property
    def dim(self) -> int:
        return len(self.anchor)

    @property
    def end(self) -> tuple[int, ...]:
        """Exclusive upper corner."""
        return tuple(a + e for a, e in zip(self.anchor, self.shape))

    @property
    def volume(self) -> int:
        return math.prod(self.shape)

    def cells(self) -> Iterator[tuple[int, ...]]:
        """All cells in lexicographic order."""
        ranges = [range(a, a + e) for a, e in zip(self.anchor, self.shape)]
        return iter(itertools.product(*ranges))

    def contains_cell(self, v: tuple[int, ...]) -> bool:
        return all(a <= x < a + e for x, a, e in zip(v, self.anchor, self.shape))

    def contains_box(self, other: "Box") -> bool:
        return all(
            sa <= oa and oa + oe <= sa + se
            for sa, se, oa, oe in zip(self.anchor, self.shape, other.anchor, other.shape)
        )

    def intersect(self, other: "Box") -> "Box | None":
        lo = tuple(max(a, b) for a, b in zip(self.anchor, other.anchor))
        hi = tuple(min(a, b) for a, b in zip(self.end, other.end))
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Box(lo, tuple(h - l for l, h in zip(lo, hi)))

    def translate(self, v: tuple[int, ...]) -> "Box":
        return Box(tuple(a + x for a, x in zip(self.anchor, v)), self.shape)


def expand(b: Box, s: int) -> Box:
    """Grow ``b`` by ``s`` cells on every face."""
    if s < 0:
        raise ValueError("expansion step must be >= 0")
    return Box(tuple(a - s for a in b.anchor), tuple(e + 2 * s for e in b.shape))


def interior(b: Box, s: int) -> Box | None:
    """Shrink ``b`` by ``s`` on every face; None when nothing is left."""
    if s < 0:
        raise ValueError("interior step must be >= 0")
    shape = tuple(e - 2 * s for e in b.shape)
    if any(e < 1 for e in shape):
        return None
    return Box(tuple(a + s for a in b.anchor), shape)


def within(anchors: np.ndarray, sizes, lo, hi) -> np.ndarray:
    """Mask of the boxes at ``anchors`` (rows) of extents ``sizes`` inside ``[lo, hi)``,
    one axis a pass (``sizes[a]``, ``lo[a]``, ``hi[a]``: numbers or columns)."""
    inside = np.ones(len(anchors), dtype=bool)
    for a in range(anchors.shape[1]):
        inside &= (anchors[:, a] >= lo[a]) & (anchors[:, a] + sizes[a] <= hi[a])
    return inside


def grid_rows(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every point of the product of per-axis coordinates, one row each, in C order."""
    dim = len(axes)
    rows = np.empty([len(a) for a in axes] + [dim], dtype=np.result_type(*axes))
    for d, a in enumerate(axes):
        rows[..., d] = np.reshape(a, (-1,) + (1,) * (dim - d - 1))
    return rows.reshape(-1, dim)
