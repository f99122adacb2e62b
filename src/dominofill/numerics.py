"""Coprime rectangle families and the coin arithmetic behind strip tiling.

A family is a list of k >= 2 integer box shapes whose sides along each axis
have gcd 1.  Coprimality buys a representability threshold per axis: beyond
it every integer is a nonnegative combination of the sides, which is what
lets a collar strip of arbitrary (large enough) width be tiled exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


class FamilyError(ValueError):
    """A shape list that does not form a valid tile family."""


class FewerThanTwoShapes(FamilyError):
    pass


class NonPositiveEntry(FamilyError):
    pass


class SharedAxisDivisor(FamilyError):
    """All shapes share a divisor > 1 along one axis (0-based ``axis``)."""

    def __init__(self, axis: int, divisor: int) -> None:
        super().__init__(f"sides along axis {axis} share the divisor {divisor}")
        self.axis = axis
        self.divisor = divisor


class GcdNotOne(ValueError):
    pass


class NotRepresentable(ValueError):
    pass


@dataclass(frozen=True)
class RectFamily:
    """Validated tile shapes plus the derived filling numbers.

    ``large_shape`` is the per-axis product of all sides: the one box shape
    every family tile subdivides exactly.  ``threshold`` is the least R such
    that every integer >= R is representable along every axis.  ``collar``
    is the one collar rule, and ``fill_length`` is
    ``collar(large_shape, large_shape)``: the width the uniform filler needs
    between two misaligned walls of the family brick.
    """

    dim: int
    shapes: tuple[tuple[int, ...], ...]
    large_shape: tuple[int, ...]
    threshold: int
    axis_thresholds: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.shapes)

    def collar(self, inner_period: Sequence[int], outer_period: Sequence[int]) -> int:
        """Collar width that completes an inner and an outer wall of these
        periods and leaves representable gaps: R + sum of both periods."""
        return self.threshold + sum(inner_period) + sum(outer_period)

    @property
    def fill_length(self) -> int:
        return self.collar(self.large_shape, self.large_shape)

    def axis_sides(self, axis: int) -> tuple[int, ...]:
        return tuple(s[axis] for s in self.shapes)


def validate_family(shapes: Sequence[Sequence[int]], dim: int | None = None) -> RectFamily:
    """Check shape-list admissibility and derive the filling numbers.

    ``dim`` defaults to the length of the first shape.
    """
    if len(shapes) < 2:
        raise FewerThanTwoShapes(f"need at least two shapes, got {len(shapes)}")
    if dim is None:
        dim = len(tuple(shapes[0]))
    boxes = []
    for s in shapes:
        vec = tuple(int(x) for x in s)
        if len(vec) != dim:
            raise FamilyError(f"shape {vec} does not have {dim} entries")
        if any(x < 1 for x in vec):
            raise NonPositiveEntry(f"shape {vec} has an entry < 1")
        boxes.append(vec)
    for axis in range(dim):
        g = math.gcd(*(b[axis] for b in boxes))
        if g != 1:
            raise SharedAxisDivisor(axis, g)
    large = tuple(math.prod(b[axis] for b in boxes) for axis in range(dim))
    per_axis = tuple(axis_threshold([b[axis] for b in boxes]) for axis in range(dim))
    return RectFamily(
        dim=dim,
        shapes=tuple(boxes),
        large_shape=large,
        threshold=max(per_axis),
        axis_thresholds=per_axis,
    )


def axis_threshold(heights: Iterable[int]) -> int:
    """Least R such that every r >= R is a nonnegative combination of heights.

    Dynamic programming over residues modulo the smallest height: for each
    residue class find the least representable member (shortest path in the
    residue graph); the threshold is one past the largest of those, shifted
    down by one period.
    """
    hs = sorted({int(h) for h in heights})
    if not hs or hs[0] < 1:
        raise GcdNotOne("heights must be positive integers")
    if math.gcd(*hs) != 1:
        raise GcdNotOne(f"heights {hs} have gcd {math.gcd(*hs)}")
    if hs[0] == 1:
        return 0
    m = hs[0]
    least = [None] * m
    least[0] = 0
    heap = [(0, 0)]
    while heap:
        value, residue = heapq.heappop(heap)
        if least[residue] is not None and value > least[residue]:
            continue
        for h in hs[1:]:
            nxt = value + h
            r = nxt % m
            if least[r] is None or nxt < least[r]:
                least[r] = nxt
                heapq.heappush(heap, (nxt, r))
    worst = max(least)
    return max(worst - m + 1, 0)


@lru_cache(maxsize=4096)
def _suffix_tables(heights: tuple[int, ...], r: int) -> list[bytearray]:
    """tables[j][x] == 1 iff x is representable using heights[j:]."""
    k = len(heights)
    tables = [bytearray(r + 1) for _ in range(k + 1)]
    tables[k][0] = 1
    for j in range(k - 1, -1, -1):
        h = heights[j]
        row = bytearray(tables[j + 1])
        for x in range(h, r + 1):
            if row[x - h]:
                row[x] = 1
        tables[j] = row
    return tables


def represent(r: int, heights: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically greatest coefficients with sum(a_j * h_j) == r."""
    hs = tuple(int(h) for h in heights)
    if r < 0 or any(h < 1 for h in hs):
        raise NotRepresentable(f"{r} over {hs}")
    tables = _suffix_tables(hs, r)
    if not tables[0][r]:
        raise NotRepresentable(f"{r} is not representable over {hs}")
    coeffs = []
    rest = r
    for j, h in enumerate(hs):
        a = rest // h
        while not tables[j + 1][rest - a * h]:
            a -= 1
        coeffs.append(a)
        rest -= a * h
    return tuple(coeffs)
