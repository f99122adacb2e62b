"""Staged tower construction: fill a window at prescribed tile frequencies.

Each stage samples a sublattice of disjoint cubical towers.  Stage 1 writes a
brick wall on every tower interior.  Stage i pastes the surviving stage-(i-1)
blocks into larger towers, surrounds them with the ambient wall, and bridges
the gap with filling collars.  Because almost all area ends up inside large
bricks, a final redistribution pass relabels and subdivides those bricks to
hit any target frequency vector up to placement quantisation.

Towers are simulated Rohlin towers: a randomly offset sublattice intersected
with the window, with the uncovered remainder reported as the error set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .brickfill import BrickWall, fill_between
from .geometry import Box, interior
from .numerics import RectFamily, SharedAxisDivisor, validate_family
from .rng import SplitMix64
from .sft import Alphabet, InvalidWord, SymbolicWord, Tiling, build_alphabet, validate_word

LARGE_FINITE = "P"


class NonpositiveTarget(ValueError):
    pass


class InvalidTargets(ValueError):
    pass


class Infeasible(ValueError):
    def __init__(self, constraint: str, detail: str = "") -> None:
        super().__init__(f"plan constraint {constraint!r} cannot be met: {detail}".rstrip(": "))
        self.constraint = constraint


class WindowTooSmall(ValueError):
    pass


class TargetsInfeasible(ValueError):
    pass


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class TargetDistribution:
    """Exact rational tile frequencies; probs plus tail_mass must sum to 1."""

    probs: tuple[Fraction, ...]
    tail_mass: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not self.probs or any(p <= 0 for p in self.probs):
            raise NonpositiveTarget(f"targets must be positive, got {self.probs}")
        if self.tail_mass < 0:
            raise NonpositiveTarget("tail mass must be >= 0")
        total = sum(self.probs, start=Fraction(0)) + self.tail_mass
        if total != 1:
            raise InvalidTargets(f"targets sum to {total}, expected 1")

    @classmethod
    def of(cls, values: Sequence, tail_mass=0) -> "TargetDistribution":
        return cls(tuple(_as_fraction(v) for v in values), _as_fraction(tail_mass))

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class StageSpec:
    """One stage's tower side, collar width, and reporting budget."""

    side: int
    collar: int
    error_budget: Fraction
    gap: int = 0
    cutoff: int | None = None
    tail_mass: Fraction = Fraction(0)

    @property
    def step(self) -> int:
        return self.side + self.gap


@dataclass(frozen=True)
class StagePlan:
    """Validated stage schedule for a (possibly truncated countable) run."""

    family: RectFamily
    base: RectFamily
    targets: TargetDistribution
    mode: str
    stages: tuple[StageSpec, ...]
    cutoffs: tuple[int, ...] | None = None

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def countable(self) -> bool:
        return self.cutoffs is not None

    def brick_id(self, stage: int) -> int | str:
        return f"P{stage}" if self.countable else LARGE_FINITE

    def brick_shape(self, stage: int) -> tuple[int, ...]:
        if not self.countable:
            return self.family.large_shape
        cutoff = self.stages[stage - 1].cutoff
        return tuple(
            math.prod(s[a] for s in self.family.shapes[:cutoff])
            for a in range(self.family.dim)
        )

    def large_shapes(self) -> dict[int | str, tuple[int, ...]]:
        if not self.countable:
            return {LARGE_FINITE: self.family.large_shape}
        return {self.brick_id(i): self.brick_shape(i) for i in range(1, self.stage_count + 1)}

    def alphabet(self) -> Alphabet:
        return build_alphabet(self.family, self.large_shapes())

    def predicted_uncovered_bound(self, window_shape: Sequence[int]) -> Fraction:
        """Worst-case uncovered fraction over sublattice offsets.

        Counts the fewest whole top-stage towers any offset leaves in the
        window and credits each with only the cells that whole bricks of the
        coarsest period can occupy inside its deepest interior.
        """
        top = self.stages[-1]
        period = self.brick_shape(self.stage_count)
        inner = top.side - 2 * (top.collar + 1)
        content = [max(inner - 2 * (p - 1), 0) for p in period]
        if 0 in content:
            return Fraction(1)
        towers = 1
        for extent in window_shape:
            worst = (extent - top.side - top.step + 1) // top.step + 1
            towers *= max(worst, 0)
        covered = towers * math.prod(content)
        total = math.prod(int(e) for e in window_shape)
        return 1 - Fraction(min(covered, total), total)

    def predicted_error_budget(self) -> Fraction:
        """Sum of the per-stage sublattice error budgets."""
        return sum((s.error_budget for s in self.stages), start=Fraction(0))

    def collar_mass_bound(self) -> Fraction:
        """Sum over stages of 2d * collar / side: the collars' share of the cells."""
        d = self.family.dim
        return sum((Fraction(2 * d * s.collar, s.side) for s in self.stages), start=Fraction(0))

    def min_small_target(self) -> Fraction:
        """Smallest target among the base tiles (all tiles without cut points)."""
        limit = self.cutoffs[0] if self.cutoffs else len(self.targets.probs)
        return min(self.targets.probs[:limit])


def plan_stages(
    f: RectFamily,
    targets: TargetDistribution,
    count: int | None = None,
    mode: str = "strict",
    *,
    sides: Sequence[int] | None = None,
    error_budgets: Sequence | None = None,
    gaps: Sequence[int] | None = None,
    cutoffs: Sequence[int] | None = None,
    side_cap: int = 10**7,
) -> StagePlan:
    """Build and validate a stage schedule.

    Strict mode enforces the geometric-decay inequalities exactly in rational
    arithmetic and, when ``sides`` is omitted, picks each side minimal by
    scanning upward.  Relaxed mode only requires every stage to fit its
    blocks (side >= 2 * (collar + 2) + previous side + 1) and records the
    supplied budgets for reporting rather than enforcing decay.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"unknown mode {mode!r}")
    base, cuts = _resolve_base(f, targets, cutoffs, count, sides)
    n_stages = len(cuts) if cuts else _resolve_count(count, sides)
    budgets = _resolve_budgets(error_budgets, n_stages, mode)
    gap_list = list(gaps) if gaps is not None else [0] * n_stages
    if len(gap_list) != n_stages or any(g < 0 for g in gap_list):
        raise Infeasible("stage_side", f"need {n_stages} nonnegative gaps")
    collars = _stage_collars(f, base, cuts, n_stages)
    if cuts is not None and mode == "strict":
        _check_tail_schedule(targets, cuts)
    chosen = _choose_sides(f.dim, mode, sides, collars, n_stages, side_cap)
    specs = []
    for i in range(n_stages):
        specs.append(
            StageSpec(
                side=chosen[i],
                collar=collars[i],
                error_budget=budgets[i],
                gap=gap_list[i],
                cutoff=cuts[i] if cuts else None,
                tail_mass=_tail_mass(targets, cuts, i),
            )
        )
    plan = StagePlan(
        family=f,
        base=base,
        targets=targets,
        mode=mode,
        stages=tuple(specs),
        cutoffs=tuple(cuts) if cuts else None,
    )
    bound = plan.collar_mass_bound()
    if mode == "strict" and bound >= plan.min_small_target():
        raise Infeasible(
            "small_tile_budget", f"collar mass bound {bound} not below the smallest base target"
        )
    return plan


def _resolve_count(count: int | None, sides: Sequence[int] | None) -> int:
    if sides is not None:
        return len(sides)
    if count is None or count < 1:
        raise Infeasible("stage_side", "need a stage count or explicit sides")
    return count


def _resolve_base(f, targets, cutoffs, count, sides):
    if len(targets.probs) != f.count:
        raise InvalidTargets(f"{f.count} tiles but {len(targets.probs)} targets")
    if cutoffs is None:
        if targets.tail_mass != 0:
            raise InvalidTargets("a tail mass needs cut points")
        return f, None
    cut = [int(c) for c in cutoffs]
    if any(c2 <= c1 for c1, c2 in zip(cut, cut[1:])) or cut[0] < 2 or cut[-1] > f.count:
        raise Infeasible("cutoffs", f"cut points {cut} must increase within 2..{f.count}")
    if count is not None or sides is not None:
        n = _resolve_count(count, sides)
        if n != len(cut):
            raise Infeasible("cutoffs", f"{len(cut)} cut points for {n} stages")
    try:
        base = validate_family(f.shapes[: cut[0]], f.dim)
    except SharedAxisDivisor as exc:
        raise Infeasible("base_gcd", str(exc)) from exc
    return base, cut


def _resolve_budgets(error_budgets, n_stages, mode):
    if error_budgets is None:
        if mode == "strict":
            return [Fraction(1, 2 * 4**i) for i in range(1, n_stages + 1)]
        return [Fraction(1, 4)] * n_stages
    budgets = [_as_fraction(b) for b in error_budgets]
    if len(budgets) != n_stages:
        raise Infeasible("error_budget", f"need {n_stages} budgets")
    if mode == "strict":
        for i, b in enumerate(budgets, start=1):
            if not 0 < b < Fraction(1, 4**i):
                raise Infeasible("error_budget", f"stage {i} budget {b} not below 1/4^{i}")
    return budgets


def _stage_collars(f, base, cuts, n_stages):
    if cuts is None:
        return [f.fill_length] * n_stages
    base_period = tuple(
        math.prod(s[a] for s in f.shapes[: cuts[0]]) for a in range(f.dim)
    )
    collars = []
    for i in range(n_stages):
        period = tuple(
            math.prod(s[a] for s in f.shapes[: cuts[i]]) for a in range(f.dim)
        )
        collars.append(base.threshold + sum(period) + sum(base_period))
    return collars


def _check_tail_schedule(targets, cuts):
    """Decay and ordering of the per-stage tail masses."""
    probs = targets.probs

    def tail_beyond(c: int) -> Fraction:
        return sum(probs[c:], start=Fraction(0)) + targets.tail_mass

    for k, c in enumerate(cuts, start=1):
        if tail_beyond(c) >= Fraction(1, 8**k):
            raise Infeasible("tail_decay", f"mass beyond cut {c} is not < 1/8^{k}")
    for k in range(len(cuts) - 1):
        block = sum(probs[cuts[k] - 1 : cuts[k + 1]], start=Fraction(0))
        if block <= tail_beyond(cuts[k + 1]):
            raise Infeasible("tail_order", f"stage {k + 1} block mass too small")


def _choose_sides(dim, mode, sides, collars, n_stages, side_cap):
    chosen = []
    prev = 0
    for i in range(1, n_stages + 1):
        collar = collars[i - 1]
        if mode == "strict":
            bound = Fraction(1, 4**i)
            need = 2 * dim * (collar + 2 + prev)
            if sides is not None:
                n = int(sides[i - 1])
                if Fraction(need, n) >= bound:
                    raise Infeasible(
                        "collar_fraction",
                        f"stage {i}: 2d(collar+2+prev)/{n} not below 1/4^{i}",
                    )
            else:
                n = prev + 1
                while n <= side_cap and Fraction(need, n) >= bound:
                    n += 1
                if n > side_cap:
                    raise Infeasible("collar_fraction", f"stage {i} side exceeds cap {side_cap}")
        else:
            minimum = 2 * (collar + 2) + prev + 1
            n = int(sides[i - 1]) if sides is not None else minimum
            if n < minimum:
                raise Infeasible("stage_side", f"stage {i} side {n} below minimum {minimum}")
        if n <= prev:
            raise Infeasible("stage_side", f"stage {i} side {n} not above previous {prev}")
        chosen.append(n)
        prev = n
    return chosen


def _tail_mass(targets, cuts, stage_index) -> Fraction:
    """Cell-mass share reserved for stage i's coarser-brick towers.

    Stage i's brick is the first that can be carved into tiles past the
    previous cut point; reserving exactly their mass keeps every brick pool
    consumable in index order during redistribution.
    """
    if cuts is None or stage_index == 0:
        return Fraction(0)
    lo = cuts[stage_index - 1]
    hi = cuts[stage_index]
    return sum(targets.probs[lo:hi], start=Fraction(0))


@dataclass(frozen=True)
class StageTowers:
    """Anchors of one stage's disjoint towers inside the window.

    The towers sit on the lattice ``window.anchor + offset + step * i``,
    ``0 <= i < counts`` per axis; ``anchors`` lists them in C order of ``i``.
    """

    stage: int
    side: int
    step: int
    offset: tuple[int, ...]
    anchors: np.ndarray
    window: Box
    counts: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.anchors)

    @property
    def error_cells(self) -> int:
        return self.window.volume - self.count * self.side ** self.window.dim

    @property
    def error_fraction(self) -> Fraction:
        return Fraction(self.error_cells, self.window.volume)

    def lattice_view(
        self, grid: np.ndarray, offset: Sequence[int], shape: Sequence[int]
    ) -> np.ndarray:
        """Writeable view of a window grid at every tower, lattice axes first.

        Entry ``[i..., c...]`` is cell ``c`` of the ``shape`` box anchored at
        tower ``i``'s anchor plus ``offset``.  A box that leaves the grid at
        any tower raises ValueError.
        """
        if grid.shape != self.window.shape:
            raise ValueError(f"grid {grid.shape} does not match window {self.window.shape}")
        start = [o + x for o, x in zip(self.offset, offset)]
        if min(start) < 0:
            raise ValueError(f"box at tower offset {tuple(offset)} leaves the grid")
        windows = sliding_window_view(
            grid[tuple(slice(s, None) for s in start)], tuple(shape), writeable=True
        )
        view = windows[tuple(slice(0, n * self.step, self.step) for n in self.counts)]
        if view.shape[: grid.ndim] != self.counts:
            raise ValueError(f"box {tuple(shape)} at tower offset {tuple(offset)} leaves the grid")
        return view


def sample_towers(
    plan: StagePlan,
    window: Box,
    stage: int,
    seed: int,
    offset: Sequence[int] | None = None,
) -> StageTowers:
    """Towers on the offset sublattice (side + gap) Z^d, wholly inside window.

    The offset is drawn uniformly per axis (axis order 0..d-1) from the
    seeded stream; pass ``offset`` to pin it instead.
    """
    spec = plan.stages[stage - 1]
    if any(e < spec.side for e in window.shape):
        raise WindowTooSmall(f"window {window.shape} cannot hold side {spec.side}")
    step = spec.step
    if offset is None:
        rng = SplitMix64(seed)
        offset = tuple(rng.below(step) for _ in range(window.dim))
    else:
        offset = tuple(int(o) % step for o in offset)
    axes = []
    for a in range(window.dim):
        start = window.anchor[a] + offset[a]
        stop = window.end[a] - spec.side
        axes.append(np.arange(start, stop + 1, step, dtype=np.int64))
    mesh = np.meshgrid(*axes, indexing="ij")
    anchors = np.stack([m.ravel() for m in mesh], axis=1)
    counts = tuple(len(ax) for ax in axes)
    return StageTowers(stage, spec.side, step, offset, anchors, window, counts)


@dataclass
class TowerBlock:
    """A finished block: its tower box, glue collar, and boundary wall.

    The block's word agrees with ``wall`` on the outermost ring of
    ``domain``, which is what lets a later stage glue it into any ambient
    wall with a filling collar of width ``collar``.
    """

    box: Box
    collar: int
    wall: BrickWall
    domain: Box


@dataclass(frozen=True, eq=False)
class StageBlocks(Sequence):
    """One stage's finished blocks, one per tower, held as arrays.

    Tower k's block has the (tile, collar) kind ``kinds[kind[k]]``; its
    boundary wall is that tile's wall at ``wall.translate`` plus the tower
    anchor.  Indexing builds ``TowerBlock``s on demand.
    """

    towers: StageTowers
    wall: BrickWall
    kinds: list[tuple[int | str, int]]
    kind: np.ndarray

    def __len__(self) -> int:
        return self.towers.count

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, range):
            return [self._block(k) for k in picked]
        return self._block(picked)

    def collars(self) -> np.ndarray:
        """Each block's collar, in tower order."""
        return np.array([collar for _, collar in self.kinds], dtype=np.int64)[self.kind]

    def _block(self, k: int) -> TowerBlock:
        anchor = tuple(int(x) for x in self.towers.anchors[k])
        tile, collar = self.kinds[self.kind[k]]
        box = Box(anchor, (self.towers.side,) * len(anchor))
        wall = BrickWall(self.wall.alphabet, tile, _add(self.wall.translate, anchor))
        return TowerBlock(box, collar, wall, interior(box, collar + 1))


@dataclass
class ConstructionState:
    """Word and blocks after one stage."""

    stage: int
    word: SymbolicWord
    blocks: StageBlocks
    tower_side: int
    window: Box


def build_stage(
    state: ConstructionState | None,
    towers: StageTowers,
    wall: BrickWall,
    base: RectFamily,
    plan: StagePlan,
    tails: np.ndarray | None = None,
) -> ConstructionState:
    """Run one construction stage on a fresh word.

    Every tower lays a wall over its interior.  A pure wall block (always at
    stage 1; later, where the boolean ``tails`` mask over ``towers.anchors``
    is set, with that stage's coarser brick) stops there.  A composite lays
    the ambient wall, pastes back verbatim the previous-stage blocks that
    landed deep enough, and bridges each to the ambient wall with a filling
    band.  Previous blocks not wholly inside a good position are dropped.

    Towers are disjoint and each kept block lies inside its tower, so the
    stage writes all walls, then all bands, then all kept domains, each
    group as strided assignments over a tower lattice.
    """
    alphabet = wall.alphabet
    spec = plan.stages[towers.stage - 1]
    dim = towers.window.dim
    word = SymbolicWord(alphabet, towers.window)
    pure = np.full(towers.count, towers.stage == 1)
    if tails is not None:
        pure |= tails
    composite, brick = (wall.tile, base.fill_length), (plan.brick_id(towers.stage), spec.collar)
    kinds = list(dict.fromkeys([composite, brick]))
    kind = np.where(pure, kinds.index(brick), kinds.index(composite))
    # A tower's wall translate moves with its anchor, so the wall reads the
    # same over every interior of one (tile, collar) kind: draw it once.
    for k, (tile, collar) in enumerate(kinds):
        mask = (kind == k).reshape(towers.counts)
        if not mask.any():
            continue
        extent = spec.side - 2 * (collar + 1)
        if extent < 1:
            raise Infeasible("stage_side", f"side {spec.side} below 2*({collar}+1)+1")
        domain = Box((collar + 1,) * dim, (extent,) * dim)
        pattern = BrickWall(alphabet, tile, wall.translate).pattern_over(domain)
        towers.lattice_view(word.grid, domain.anchor, domain.shape)[mask] = pattern
    blocks = StageBlocks(towers, wall, kinds, kind)
    if state is not None:
        _paste_kept(word, state, towers, wall, base, pure)
    return ConstructionState(towers.stage, word, blocks, spec.side, towers.window)


def _paste_kept(
    word: SymbolicWord,
    state: ConstructionState,
    towers: StageTowers,
    wall: BrickWall,
    base: RectFamily,
    pure: np.ndarray,
) -> None:
    """Paste the previous blocks composite towers keep, each in its band.

    A band depends only on the block's kind and where the tower's wall sits
    relative to the block, so every block with one such key gets the same
    band: it is filled once per key and written with one masked assignment
    over the previous stage's tower lattice.
    """
    prev = state.blocks
    kept, owners = _kept_blocks(prev, towers)
    keep = ~pure[owners]
    kept, owners = kept[keep], owners[keep]
    if not len(kept):
        return
    shift = towers.anchors[owners] - prev.towers.anchors[kept]
    phase = np.mod(shift + wall.translate, wall.alphabet.shape(wall.tile))
    keys = np.column_stack([prev.kind[kept], phase])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    lattice = prev.towers
    slot = np.full(lattice.count, -1, dtype=np.intp)
    slot[kept] = inverse.ravel()
    slot = slot.reshape(lattice.counts)
    dim = lattice.window.dim
    bands = lattice.lattice_view(word.grid, (1,) * dim, (lattice.side - 2,) * dim)
    for g, i in enumerate(first):
        blk = prev[int(kept[i])]
        outer = BrickWall(wall.alphabet, wall.tile, _add(wall.translate, towers.anchors[owners[i]]))
        fill = fill_between(blk.wall, blk.domain, outer, base, blk.collar)
        bands[slot == g] = fill.materialize(interior(blk.box, 1)).grid
    prev_kind = prev.kind.reshape(lattice.counts)
    for k, (_, collar) in enumerate(prev.kinds):
        mask = (slot >= 0) & (prev_kind == k)
        if not mask.any():
            continue
        corner, shape = (collar + 1,) * dim, (lattice.side - 2 * (collar + 1),) * dim
        source = lattice.lattice_view(state.word.grid, corner, shape)
        lattice.lattice_view(word.grid, corner, shape)[mask] = source[mask]


def _add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(int(x) + int(y) for x, y in zip(a, b))


def _kept_blocks(prev: StageBlocks, towers: StageTowers) -> tuple[np.ndarray, np.ndarray]:
    """(kept, owners): the previous blocks the towers keep and each one's tower.

    A tower keeps a block whose anchor lies in the tower shrunk by the
    block's collar plus the previous tower side plus 2 on every face.  One
    array query finds each block's lattice cell and tests that depth; blocks
    come in increasing index order.
    """
    start = np.add(towers.window.anchor, towers.offset)
    depth = prev.collars()[:, None] + 2 + prev.towers.side
    cell, rel = np.divmod(prev.towers.anchors - start, towers.step)
    deep = (cell >= 0) & (cell < towers.counts) & (rel >= depth) & (rel < towers.side - depth)
    kept = np.flatnonzero(deep.all(axis=1))
    owners = np.ravel_multi_index(tuple(cell[kept].T), towers.counts)
    return kept, owners


@dataclass
class FrequencyReport:
    """Cell accounting of a tiling against a window and optional targets."""

    window_cells: int
    covered_cells: int
    tile_cells: dict
    targets: TargetDistribution | None = None
    partial_cells: int = 0
    notes: dict = field(default_factory=dict)

    @classmethod
    def of_tiling(
        cls,
        tiling: Tiling,
        targets: TargetDistribution | None = None,
        partial_cells: int = 0,
        notes: Mapping | None = None,
    ) -> "FrequencyReport":
        """Cell accounting of ``tiling`` against its own window.

        A tiling without a window is measured against the cells it covers.
        """
        counts = tiling.tile_cell_counts()
        covered = sum(counts.values())
        window_cells = tiling.window.volume if tiling.window is not None else covered
        return cls(window_cells, covered, counts, targets, partial_cells, dict(notes or {}))

    @property
    def uncovered_fraction(self) -> Fraction:
        if self.window_cells == 0:
            return Fraction(0)
        return Fraction(self.window_cells - self.covered_cells, self.window_cells)

    def frequency(self, tile) -> Fraction:
        """Covered-cell fraction carried by ``tile``."""
        if self.covered_cells == 0:
            return Fraction(0)
        return Fraction(self.tile_cells.get(tile, 0), self.covered_cells)

    def small_tile_cells(self) -> int:
        return sum(c for t, c in self.tile_cells.items() if isinstance(t, int))

    def small_tile_fraction(self) -> Fraction:
        if self.covered_cells == 0:
            return Fraction(0)
        return Fraction(self.small_tile_cells(), self.covered_cells)

    def large_fraction(self) -> Fraction:
        return 1 - self.small_tile_fraction() if self.covered_cells else Fraction(0)

    def deltas(self) -> dict:
        """Per-small-tile gap between covered frequency and target."""
        if self.targets is None:
            return {}
        return {
            j + 1: self.frequency(j + 1) - p for j, p in enumerate(self.targets.probs)
        }

    def to_dict(self) -> dict:
        def plain(v):
            return float(v) if isinstance(v, Fraction) else v

        return {
            "window_cells": self.window_cells,
            "covered_cells": self.covered_cells,
            "uncovered_fraction": float(self.uncovered_fraction),
            "partial_cells": self.partial_cells,
            "tile_cells": {
                str(t): c for t, c in sorted(self.tile_cells.items(), key=lambda kv: str(kv[0]))
            },
            "frequencies": {
                str(t): float(self.frequency(t)) for t in sorted(self.tile_cells, key=str)
            },
            "deltas": {str(t): float(d) for t, d in self.deltas().items()},
            "notes": {k: plain(v) for k, v in self.notes.items()},
        }


_DECODE_BATCH_CELLS = 1 << 16


def finalize(
    state: ConstructionState | None,
    window: Box | None,
    plan: StagePlan | None = None,
) -> tuple[Tiling, FrequencyReport]:
    """Decode the top-stage interiors into whole placements and account cells.

    The word is validated once; block domains of one shape are decoded by
    their corners in stacked batches of up to ``_DECODE_BATCH_CELLS`` cells
    (one domain a call when it is larger), and the whole placements of all
    blocks are merged in one concatenation.
    Uncovered cells are the sublattice error set, the towers' own unfilled
    boundary collars, and tiles cut by domain edges; those are excluded from
    the covered count, never errors.
    """
    from .sft import decode  # looked up per call: the benchmark hooks dominofill.sft.decode

    targets = plan.targets if plan is not None else None
    if state is None or not state.blocks or window is None:
        shapes = {} if state is None else state.word.alphabet.tile_shapes
        cells = 0 if window is None else window.volume
        return Tiling.from_parts(shapes, [], window), FrequencyReport(cells, 0, {}, targets)
    violations = validate_word(state.word)
    if violations:
        raise InvalidWord(f"stage {state.stage} word is invalid: {violations[0]}")
    blocks = state.blocks
    collars = blocks.collars()
    results = []
    for collar in np.unique(collars).tolist():
        shape = (blocks.towers.side - 2 * (collar + 1),) * blocks.towers.window.dim
        corners = blocks.towers.anchors[collars == collar] + (collar + 1)
        per_call = max(1, _DECODE_BATCH_CELLS // math.prod(shape))
        for lo in range(0, len(corners), per_call):
            results.append(decode(state.word, corners[lo : lo + per_call], shape))
    partial_cells = sum(r.partial_cells for r in results)
    tiling = Tiling(
        state.word.alphabet.tile_shapes,
        np.concatenate([r.tiling.codes for r in results]),
        np.concatenate([r.tiling.anchors for r in results]),
        window,
    ).sorted_canonical()
    report = FrequencyReport.of_tiling(tiling, targets, partial_cells)
    if plan is not None:
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


def _largest_remainder(quotas: list[Fraction], total: int, rng: SplitMix64) -> list[int]:
    """Integer counts summing to ``total``, proportional to exact quotas.

    Floors first, then hands out what is missing by largest fractional part;
    ties are broken by a seeded shuffle of the indices.
    """
    floors = [int(q) for q in quotas]
    remainders = [q - f for q, f in zip(quotas, floors)]
    missing = total - sum(floors)
    order = list(range(len(quotas)))
    rng.shuffle(order)
    position = {j: k for k, j in enumerate(order)}
    rank = sorted(order, key=lambda j: (-remainders[j], position[j]))
    counts = list(floors)
    for j in rank[:missing]:
        counts[j] += 1
    return counts


def redistribute(
    tiling: Tiling,
    targets: TargetDistribution,
    report: FrequencyReport,
    seed: int,
    tile_shapes: Mapping[int | str, tuple[int, ...]] | None = None,
) -> Tiling:
    """Relabel and subdivide large bricks so small-tile frequencies hit targets.

    Brick pools are processed from coarsest to finest.  A pool first serves
    the tiles only it (among the remaining pools) can produce, then spreads
    the rest over the other tiles its period admits, proportionally to their
    remaining deficits; bricks left with no label stay in place, which is how
    any reserved tail mass survives.  Placement counts come from largest-
    remainder rounding and a seeded shuffle picks which placements get which
    label.
    """
    shapes = dict(tile_shapes) if tile_shapes is not None else dict(tiling.tile_shapes)
    small_tiles = sorted(t for t in shapes if isinstance(t, int))
    large_tiles = sorted(
        (t for t in shapes if not isinstance(t, int)),
        key=lambda t: math.prod(shapes[t]),
        reverse=True,
    )
    if len(small_tiles) != len(targets.probs):
        raise InvalidTargets(f"{len(small_tiles)} small tiles, {len(targets.probs)} targets")
    covered = report.covered_cells
    if covered == 0:
        return tiling
    deficits: dict[int, Fraction] = {}
    for j in small_tiles:
        measured = Fraction(report.tile_cells.get(j, 0), covered)
        p = targets.probs[j - 1]
        if measured > p:
            raise TargetsInfeasible(f"tile {j} already carries {measured}, above target {p}")
        deficits[j] = (p - measured) * covered
    rng = SplitMix64(seed)
    code_of = {t: i for i, t in enumerate(tiling.tile_order)}
    parts: list[tuple[int | str, np.ndarray]] = []
    for j in small_tiles:
        if j in code_of:
            sel = tiling.codes == code_of[j]
            if np.any(sel):
                parts.append((j, tiling.anchors[sel]))
    for rank, pool_tile in enumerate(large_tiles):
        if pool_tile not in code_of:
            continue
        pool_anchors = tiling.anchors[tiling.codes == code_of[pool_tile]]
        n_pool = len(pool_anchors)
        if n_pool == 0:
            continue
        period = shapes[pool_tile]
        area = math.prod(period)
        eligible = [j for j in small_tiles if _divides(shapes[j], period)]
        finer = set()
        for other in large_tiles[rank + 1 :]:
            finer.update(j for j in small_tiles if _divides(shapes[j], shapes[other]))
        exclusive = [j for j in eligible if j not in finer]
        keep = targets.tail_mass * covered if rank == 0 else Fraction(0)
        alloc = _pool_allocation(deficits, eligible, exclusive, Fraction(n_pool * area) - keep)
        shared = [j for j in eligible if j not in exclusive]
        # Exclusive demand rounds up to whole bricks: no later pool can serve
        # it, and a stranded fraction would surface as unlabeled bricks once
        # the finer pools run out of eligible demand.
        quotas_ex = [alloc.get(j, Fraction(0)) / area for j in exclusive]
        n_ex = min(n_pool, math.ceil(sum(quotas_ex, start=Fraction(0))))
        counts_ex = _largest_remainder(quotas_ex, n_ex, rng.fork(10 + rank))
        quotas_sh = [alloc.get(j, Fraction(0)) / area for j in shared]
        quotas_sh.append(n_pool - n_ex - sum(quotas_sh, start=Fraction(0)))
        counts_sh = _largest_remainder(quotas_sh, n_pool - n_ex, rng.fork(30 + rank))
        counts = counts_ex + counts_sh
        shuffled = list(range(n_pool))
        rng.fork(20 + rank).shuffle(shuffled)
        perm = np.array(shuffled, dtype=np.int64)
        pos = 0
        for label, cnt in zip(exclusive + shared + [None], counts):
            chosen = pool_anchors[perm[pos : pos + cnt]]
            pos += cnt
            if cnt == 0:
                continue
            if label is None:
                parts.append((pool_tile, chosen))
            else:
                parts.append((label, _subdivide(chosen, period, shapes[label])))
                deficits[label] = max(deficits[label] - Fraction(cnt * area), Fraction(0))
    return Tiling.from_parts(shapes, parts, tiling.window).sorted_canonical()


def _divides(small: tuple[int, ...], period: tuple[int, ...]) -> bool:
    return all(p % s == 0 for s, p in zip(small, period))


def _pool_allocation(
    deficits: dict[int, Fraction],
    eligible: list[int],
    exclusive: list[int],
    pool_cells: Fraction,
) -> dict[int, Fraction]:
    """Split a pool's cell mass: exclusive tiles first, the rest pro rata."""
    alloc: dict[int, Fraction] = {}
    remaining = max(pool_cells, Fraction(0))
    need_exclusive = sum((deficits[j] for j in exclusive), start=Fraction(0))
    if need_exclusive > 0:
        scale = min(Fraction(1), remaining / need_exclusive)
        for j in exclusive:
            alloc[j] = deficits[j] * scale
        remaining -= need_exclusive * scale
    others = [j for j in eligible if j not in exclusive]
    need_rest = sum((deficits[j] for j in others), start=Fraction(0))
    if remaining > 0 and need_rest > 0:
        scale = min(Fraction(1), remaining / need_rest)
        for j in others:
            alloc[j] = deficits[j] * scale
    return alloc


def _subdivide(
    anchors: np.ndarray, period: tuple[int, ...], tile_shape: tuple[int, ...]
) -> np.ndarray:
    """Anchors of the tile grid refining each brick placement."""
    axes = [np.arange(0, p, s, dtype=np.int64) for p, s in zip(period, tile_shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=1)
    return (anchors[:, None, :] + offsets[None, :, :]).reshape(-1, anchors.shape[1])


@dataclass
class PipelineResult:
    """Everything one seeded run produces."""

    plan: StagePlan
    state: ConstructionState
    pre_tiling: Tiling
    pre_report: FrequencyReport
    tiling: Tiling
    report: FrequencyReport
    seed: int


def run_pipeline(plan: StagePlan, window: Box, seed: int) -> PipelineResult:
    """Sample towers, build every stage, finalize, and redistribute."""
    alphabet = plan.alphabet()
    root = SplitMix64(seed)
    wall = BrickWall(alphabet, plan.brick_id(1), (0,) * window.dim)
    state: ConstructionState | None = None
    for stage in range(1, plan.stage_count + 1):
        towers = sample_towers(plan, window, stage, root.fork(stage).seed)
        tails = None
        if plan.countable and stage >= 2:
            tails = _select_tails(plan, towers, root.fork(1000 + stage))
        state = build_stage(state, towers, wall, plan.base, plan, tails)
    pre_tiling, pre_report = finalize(state, window, plan)
    final = redistribute(
        pre_tiling, plan.targets, pre_report, root.fork(2000).seed, alphabet.tile_shapes
    )
    report = FrequencyReport.of_tiling(
        final, plan.targets, pre_report.partial_cells, pre_report.notes
    )
    return PipelineResult(plan, state, pre_tiling, pre_report, final, report, seed)


def _select_tails(plan: StagePlan, towers: StageTowers, rng: SplitMix64) -> np.ndarray:
    """Pick how many towers carry this stage's coarser brick, and which.

    The count matches the stage's reserved tail mass against the whole-brick
    content cells one tower's interior actually holds, rounded to nearest.
    Returns a boolean mask over ``towers.anchors``.
    """
    spec = plan.stages[towers.stage - 1]
    tails = np.zeros(towers.count, dtype=bool)
    if spec.tail_mass == 0 or towers.count == 0:
        return tails
    period = plan.brick_shape(towers.stage)
    extent = spec.side - 2 * (spec.collar + 1)
    content = 1
    for a in range(towers.window.dim):
        lead = (-(spec.collar + 1)) % period[a]
        content *= max((extent - lead) // period[a], 0) * period[a]
    if content <= 0:
        raise Infeasible("stage_side", f"stage {towers.stage} tail towers hold no whole brick")
    want = spec.tail_mass * towers.window.volume / content
    count = min(int(want + Fraction(1, 2)), towers.count)
    idx = list(range(towers.count))
    rng.shuffle(idx)
    tails[idx[:count]] = True
    return tails
