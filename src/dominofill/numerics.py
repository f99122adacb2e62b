"""Coprime rectangle families and the coin arithmetic behind strip tiling.

A family is a list of k >= 2 integer box shapes whose sides along each axis
have gcd 1.  Coprimality buys a representability threshold per axis: beyond
it every integer is a nonnegative combination of the sides, which is what
lets a collar strip of arbitrary (large enough) width be tiled exactly.
One table per heights tuple, the least value each suffix of the heights
represents in each residue class, gives both the threshold and
``represent``'s test of a rest against the remaining heights, a lookup each.
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

    Every value from a residue class's least member on is representable, so
    the threshold is one past the largest of those (``_least_tables``),
    shifted down by one smallest height.
    """
    hs = sorted({int(h) for h in heights})
    if not hs or hs[0] < 1:
        raise GcdNotOne("heights must be positive integers")
    if math.gcd(*hs) != 1:
        raise GcdNotOne(f"heights {hs} have gcd {math.gcd(*hs)}")
    m, least = _least_tables(tuple(hs))[0]
    return max(max(least) - m + 1, 0)


@lru_cache(maxsize=4096)
def _least_tables(heights: tuple[int, ...]) -> tuple[tuple[int, tuple], ...]:
    """Per suffix ``heights[j:]``: its smallest height m and, per residue
    modulo m, the least value it represents (``inf``: none), by Dijkstra
    over the residues.  It represents x iff ``x >= least[x % m]``."""
    tables = []
    for j in range(len(heights)):
        m = min(heights[j:])
        least = [0] + [math.inf] * (m - 1)
        heap = [0]
        while heap:
            value = heapq.heappop(heap)
            if value > least[value % m]:
                continue
            for nxt in (value + h for h in heights[j:]):
                if nxt < least[nxt % m]:
                    least[nxt % m] = nxt
                    heapq.heappush(heap, nxt)
        tables.append((m, tuple(least)))
    return tuple(tables)


def represent(r: int, heights: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically greatest coefficients with sum(a_j * h_j) == r:
    greedily the largest a_j whose rest the later heights represent (a
    lookup in their least table); the last height divides the rest."""
    hs = tuple(int(h) for h in heights)
    if r < 0 or not hs or min(hs) < 1:
        raise NotRepresentable(f"{r} over {hs}")
    tables = _least_tables(hs)
    m, least = tables[0]
    if r < least[r % m]:
        raise NotRepresentable(f"{r} is not representable over {hs}")
    coeffs = []
    rest = r
    for h, (m, least) in zip(hs, tables[1:]):
        a = rest // h
        while rest - a * h < least[(rest - a * h) % m]:
            a -= 1
        coeffs.append(a)
        rest -= a * h
    return (*coeffs, rest // hs[-1])
