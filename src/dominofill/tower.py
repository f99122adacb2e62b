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

from .brickfill import BrickWall, FilledWord, PartitionBroken, fill_between, placements_of
from .geometry import Box, grid_rows, interior, within
from .numerics import RectFamily, SharedAxisDivisor, validate_family
from .rng import SplitMix64
from .sft import (
    Alphabet,
    InvalidWord,
    SymbolicWord,
    Tiling,
    build_alphabet,
    canonical_tiling,
    tile_sort_key,
    validate_word,  # not called by the build; perfbench/layers.py traces this name
)

LARGE_FINITE = "P"
# Strict planning refuses a stage whose minimal side would exceed this.
SIDE_CAP = 10**7


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
        return _brick_period(self.family, self.stages[stage - 1].cutoff)

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
        domain = block_domain(top.side, top.collar, len(window_shape))
        if domain is None:
            return Fraction(1)
        content = [max(e - 2 * (p - 1), 0) for e, p in zip(domain.shape, period)]
        if 0 in content:
            return Fraction(1)
        towers = 1
        for extent in window_shape:
            worst = (extent - top.side - top.step + 1) // top.step + 1
            towers *= max(worst, 0)
        covered = towers * math.prod(content)
        total = math.prod(int(e) for e in window_shape)
        return 1 - Fraction(min(covered, total), total)

    def tail_content(self, stage: int) -> int:
        """Cells of whole stage-``stage`` bricks, aligned to the tower anchor,
        in one tower's block domain: what a tail tower of that stage holds."""
        spec = self.stages[stage - 1]
        domain = block_domain(spec.side, spec.collar, self.family.dim)
        if domain is None:
            return 0
        period = self.brick_shape(stage)
        return math.prod(
            max((e - (-a) % p) // p, 0) * p for a, e, p in zip(domain.anchor, domain.shape, period)
        )

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


def block_domain(side: int, collar: int, dim: int) -> Box | None:
    """The block domain rule: a tower of side ``side`` shrunk by ``collar``
    plus 1 on every face, relative to the tower anchor; None when nothing is
    left."""
    return interior(Box((0,) * dim, (side,) * dim), collar + 1)


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
) -> StagePlan:
    """Build and validate a stage schedule.

    Strict mode enforces the geometric-decay inequalities exactly in rational
    arithmetic: stage i needs 2d * (collar + 2 + previous side) / side below
    1/4^i.  When ``sides`` is omitted it takes each side minimal, which in
    closed form is 2d * (collar + 2 + previous side) * 4^i + 1, and refuses a
    side above ``SIDE_CAP``.  Relaxed mode only requires every stage to fit
    its blocks (side >= 2 * (collar + 2) + previous side + 1) and records the
    supplied budgets for reporting rather than enforcing decay.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"unknown mode {mode!r}")
    base, cuts = _resolve_base(f, targets, cutoffs)
    n_stages = _stage_count(count, sides, cuts)
    budgets = _resolve_budgets(error_budgets, n_stages, mode)
    gap_list = list(gaps) if gaps is not None else [0] * n_stages
    if len(gap_list) != n_stages or any(g < 0 for g in gap_list):
        raise Infeasible("stage_side", f"need {n_stages} nonnegative gaps")
    collars = _stage_collars(f, base, cuts, n_stages)
    if cuts is not None and mode == "strict":
        _check_tail_schedule(targets, cuts)
    chosen = _choose_sides(f.dim, mode, sides, collars, n_stages)
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
    for stage, spec in enumerate(plan.stages, start=1):
        if spec.tail_mass and plan.tail_content(stage) == 0:
            raise Infeasible("stage_side", f"stage {stage} tail towers hold no whole brick")
    bound = plan.collar_mass_bound()
    if mode == "strict" and bound >= plan.min_small_target():
        raise Infeasible(
            "small_tile_budget", f"collar mass bound {bound} not below the smallest base target"
        )
    return plan


def _stage_count(count: int | None, sides: Sequence[int] | None, cuts: list[int] | None) -> int:
    """The stage count: one per cut point, else one per side, else ``count``.
    A count that disagrees with the sides is refused (``stage_side``), as is
    a count or side list that disagrees with the cut points (``cutoffs``)."""
    n = count if sides is None else len(sides)
    if count is not None and count != n:
        listed = ",".join(str(s) for s in sides)
        raise Infeasible("stage_side", f"count {count} disagrees with sides {listed}")
    if cuts is not None and n is None:
        return len(cuts)
    if n is None or n < 1:
        raise Infeasible("stage_side", "need a stage count or explicit sides")
    if cuts is not None and n != len(cuts):
        raise Infeasible("cutoffs", f"{len(cuts)} cut points for {n} stages")
    return n


def _resolve_base(f, targets, cutoffs):
    if len(targets.probs) != f.count:
        raise InvalidTargets(f"{f.count} tiles but {len(targets.probs)} targets")
    if cutoffs is None:
        if targets.tail_mass != 0:
            raise InvalidTargets("a tail mass needs cut points")
        return f, None
    cut = [int(c) for c in cutoffs]
    if any(c2 <= c1 for c1, c2 in zip(cut, cut[1:])) or cut[0] < 2 or cut[-1] > f.count:
        raise Infeasible("cutoffs", f"cut points {cut} must increase within 2..{f.count}")
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


def _brick_period(f: RectFamily, cut: int) -> tuple[int, ...]:
    """Per-axis product of the first ``cut`` tiles' sides: the brick they all divide."""
    return tuple(math.prod(s[a] for s in f.shapes[:cut]) for a in range(f.dim))


def _stage_collars(f, base, cuts, n_stages):
    if cuts is None:
        return [f.fill_length] * n_stages
    return [base.collar(_brick_period(f, cut), base.large_shape) for cut in cuts]


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


def _choose_sides(dim, mode, sides, collars, n_stages):
    chosen = []
    prev = 0
    for i in range(1, n_stages + 1):
        collar = collars[i - 1]
        if mode == "strict":
            need = 2 * dim * (collar + 2 + prev)
            if sides is not None:
                n = int(sides[i - 1])
                if n < 1:
                    raise Infeasible("stage_side", f"stage {i} side {n} below 1")
                if Fraction(need, n) >= Fraction(1, 4**i):
                    raise Infeasible(
                        "collar_fraction",
                        f"stage {i}: 2d(collar+2+prev)/{n} not below 1/4^{i}",
                    )
            else:
                n = need * 4**i + 1  # the least n with need / n < 1 / 4^i
                if n > SIDE_CAP:
                    raise Infeasible("collar_fraction", f"stage {i} side exceeds cap {SIDE_CAP}")
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

    def locate(self, points: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """(cell, inside): each point's C-order index on the tower lattice (by floor
        division per axis, so index -1 just below it), and whether it lies in a
        tower at an offset in ``[lo[a], hi[a])`` (numbers or columns) on every axis."""
        cell, inside = np.zeros(len(points), dtype=np.int64), np.ones(len(points), dtype=bool)
        for a, count in enumerate(self.counts):
            rel = points[:, a] - (self.window.anchor[a] + self.offset[a])
            index = rel // self.step
            rel -= index * self.step
            inside &= (index >= 0) & (index < count) & (rel >= lo[a]) & (rel < hi[a])
            cell = cell * count + index
        return cell, inside


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
    counts = tuple(len(ax) for ax in axes)
    return StageTowers(stage, spec.side, step, offset, grid_rows(axes), window, counts)


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

    def domain(self, k: int) -> Box:
        """Kind ``k``'s block domain relative to its tower anchor: the tower
        shrunk by the kind's collar plus 1 on every face."""
        dim, side, collar = self.towers.window.dim, self.towers.side, self.kinds[k][1]
        domain = block_domain(side, collar, dim)
        if domain is None:
            raise Infeasible("stage_side", f"side {side} below 2*({collar}+1)+1")
        return domain

    def _block(self, k: int) -> TowerBlock:
        anchor = tuple(int(x) for x in self.towers.anchors[k])
        tile, collar = self.kinds[self.kind[k]]
        box = Box(anchor, (self.towers.side,) * len(anchor))
        wall = BrickWall(self.wall.alphabet, tile, np.add(self.wall.translate, anchor))
        return TowerBlock(box, collar, wall, self.domain(self.kind[k]).translate(anchor))


@dataclass(frozen=True, eq=False)
class KeptBlocks:
    """The previous-stage blocks a stage's composite towers keep, and their bands.

    Block ``index[j]`` of ``state`` (increasing) is kept by tower ``owner[j]``
    and sits in the band of key ``key[j]``.  Key g's band is filled from the
    previous kind ``kinds[g]`` and a wall phase: ``fills[g]`` is its fill, in
    the block's own frame, and its band is that fill over ``band``, the
    previous tower shrunk by 1.  No band is drawn: ``finalize`` reads the
    tiles of all the keys in use from one ``placements_of(fills, band)``.
    """

    state: "ConstructionState"
    index: np.ndarray
    owner: np.ndarray
    key: np.ndarray
    kinds: list[int]
    band: Box
    fills: list[FilledWord]


@dataclass(eq=False)
class ConstructionState:
    """One stage's blocks and the bands their domains are made of.

    A block's domain is its kind's wall, which ``blocks`` determines;
    ``kept`` holds the previous blocks the composite towers paste back, with
    their band fills.  ``word``, the stage's word over the window, is
    painted from these on first read, each band materialized from its fill
    there: the build path never reads it.
    """

    blocks: StageBlocks
    kept: KeptBlocks | None = None
    _word: SymbolicWord | None = field(default=None, init=False, repr=False)

    @property
    def word(self) -> SymbolicWord:
        if self._word is None:
            alphabet, window = self.blocks.wall.alphabet, self.blocks.towers.window
            self._word = SymbolicWord(alphabet, window, _paint(self))
        return self._word


def _paint(state: ConstructionState) -> np.ndarray:
    """The stage's word grid, pasted block by block: each block's kind wall
    over its domain (drawn once per kind), then each kept block's band
    (materialized once per key) and, inside the band, that block's domain
    copied from the previous stage's grid."""
    blocks, window = state.blocks, state.blocks.towers.window
    grid = np.full(window.shape, -1, dtype=np.int32)
    wall = blocks.wall
    walls = {
        k: BrickWall(wall.alphabet, tile, wall.translate).pattern_over(blocks.domain(k))
        for k, (tile, _) in enumerate(blocks.kinds)
        if np.any(blocks.kind == k)
    }
    for anchor, k in zip((blocks.towers.anchors - window.anchor).tolist(), blocks.kind.tolist()):
        grid[_cells(anchor, blocks.domain(k))] = walls[k]
    if state.kept is not None:
        kept, prev = state.kept, state.kept.state
        source = prev._word.grid if prev._word is not None else _paint(prev)
        bands = [fill.materialize(kept.band).grid for fill in kept.fills]
        anchors = (prev.blocks.towers.anchors[kept.index] - window.anchor).tolist()
        for anchor, g in zip(anchors, kept.key.tolist()):
            grid[_cells(anchor, kept.band)] = bands[g]
            inner = _cells(anchor, prev.blocks.domain(kept.kinds[g]))
            grid[inner] = source[inner]
    return grid


def _cells(anchor: list[int], box: Box) -> tuple[slice, ...]:
    """The index of ``box`` moved by ``anchor`` in a grid."""
    return tuple(slice(a + x, a + x + e) for a, x, e in zip(anchor, box.anchor, box.shape))


def build_stage(
    state: ConstructionState | None,
    towers: StageTowers,
    wall: BrickWall,
    plan: StagePlan,
    tails: np.ndarray | None = None,
) -> ConstructionState:
    """Run one construction stage: pick each tower's kind and fill its bands.

    Every tower lays a wall over its interior.  A pure wall block (always at
    stage 1; later, where the boolean ``tails`` mask over ``towers.anchors``
    is set, with that stage's coarser brick) stops there.  A composite lays
    the ambient wall, pastes back verbatim the previous-stage blocks that
    landed deep enough, and bridges each to the ambient wall with a filling
    band.  Previous blocks not wholly inside a good position are dropped.

    A tower's wall translate moves with its anchor, so the wall reads the
    same over every domain of one (tile, collar) kind; it is not drawn here,
    since its bricks are a lattice (see ``_wall_placements``).  A band is
    filled once per band key, and kept as its ``FilledWord``: strip runs
    between two wall lattices, never drawn.  No word is written; see
    ``ConstructionState``.
    """
    spec = plan.stages[towers.stage - 1]
    pure = np.full(towers.count, towers.stage == 1)
    if tails is not None:
        pure |= tails
    composite = (wall.tile, plan.base.fill_length)
    brick = (plan.brick_id(towers.stage), spec.collar)
    kinds = list(dict.fromkeys([composite, brick]))
    kind = np.where(pure, kinds.index(brick), kinds.index(composite))
    blocks = StageBlocks(towers, wall, kinds, kind)
    kept = _keep_blocks(state, towers, wall, plan.base, pure) if state is not None else None
    return ConstructionState(blocks, kept)


def _keep_blocks(
    state: ConstructionState,
    towers: StageTowers,
    wall: BrickWall,
    base: RectFamily,
    pure: np.ndarray,
) -> KeptBlocks | None:
    """The previous blocks composite towers keep, with one band per key.

    A band depends only on its key: the block's kind and the phase of the
    tower's wall relative to the block's anchor.  It is filled once per key
    in the block's own frame (the block's tower anchored at the origin).
    """
    prev = state.blocks
    kept, owners = _kept_blocks(prev, towers)
    keep = ~pure[owners]
    kept, owners = kept[keep], owners[keep]
    if not len(kept):
        return None
    shift = towers.anchors[owners] - prev.towers.anchors[kept]
    phase = np.mod(shift + wall.translate, wall.period)
    shape = (len(prev.kinds), *wall.period)  # phases lie in [0, period): keys sort as rows
    packed = np.ravel_multi_index((prev.kind[kept], *phase.T), shape)
    keys, inverse = np.unique(packed, return_inverse=True)
    keys = np.column_stack(np.unravel_index(keys, shape)).tolist()
    dim = towers.window.dim
    band = interior(Box((0,) * dim, (prev.towers.side,) * dim), 1)
    fills = []
    for k, *key_phase in keys:
        (tile, collar), domain = prev.kinds[k], prev.domain(k)
        inner = BrickWall(wall.alphabet, tile, prev.wall.translate)
        outer = BrickWall(wall.alphabet, wall.tile, key_phase)
        fills.append(fill_between(inner, domain, outer, base, collar))
    return KeptBlocks(state, kept, owners, inverse, [k for k, *_ in keys], band, fills)


def _kept_blocks(prev: StageBlocks, towers: StageTowers) -> tuple[np.ndarray, np.ndarray]:
    """(kept, owners): the previous blocks the towers keep and each one's tower.

    A tower keeps a block whose anchor lies in the tower shrunk by the
    block's collar plus the previous tower side plus 2 on every face.  One
    lattice lookup (``StageTowers.locate``) finds each block's tower and tests
    that depth; blocks come in increasing index order.
    """
    depth = np.array([c for _, c in prev.kinds], dtype=np.int64)[prev.kind] + 2 + prev.towers.side
    lo, hi = ([bound] * towers.window.dim for bound in (depth, towers.side - depth))
    owners, deep = towers.locate(prev.towers.anchors, lo, hi)
    return np.flatnonzero(deep), owners[deep]


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


def finalize(state: ConstructionState, plan: StagePlan) -> tuple[Tiling, FrequencyReport]:
    """Assemble the whole placements of the top-stage block domains and account cells.

    The window is the top stage's.  No word is written, validated or
    decoded.  Each kind's wall bricks are a lattice by construction
    (``_wall_placements``).  The band tiles of all keys of a stage, down the
    stages that reach the top, come from their fills in closed form
    (``placements_of``), which refuses a fill that does not cover the band
    exactly once; that refusal is raised as ``InvalidWord`` naming the stage
    and the key.  Each part's placements are translated to every block that
    uses it (see ``_assemble``).  The result must pass ``_check_placements``,
    which reads the cell count of the canonical tiling, counted once.
    Uncovered cells are the sublattice error set, the towers' own unfilled
    boundary collars, and tiles cut by domain edges (``partial_cells``);
    those are excluded from the covered count, never errors.  The state
    holds at least one block: ``run_pipeline`` refuses a top stage with
    none (``WindowTooSmall``).
    """
    blocks = state.blocks
    codes, anchors, owner = _assemble(state, np.arange(len(blocks)))
    tiling = Tiling(blocks.wall.alphabet.tile_shapes, codes, anchors, blocks.towers.window)
    canonical = tiling.sorted_canonical()
    covered = canonical.covered_cells()  # counted once: canonical tilings keep their counts
    _check_placements(blocks, tiling, owner, covered)
    domain_cells = sum(
        blocks.domain(k).volume * int(np.count_nonzero(blocks.kind == k))
        for k in np.unique(blocks.kind).tolist()
    )
    report = FrequencyReport.of_tiling(canonical, plan.targets, domain_cells - covered)
    collar_bound = plan.collar_mass_bound()
    report.notes["small_fraction_below_min_target"] = bool(
        report.small_tile_fraction() < plan.min_small_target()
    )
    report.notes["large_fraction_above_collar_bound"] = bool(
        report.large_fraction() > 1 - collar_bound
    )
    report.notes["collar_mass_bound"] = collar_bound
    report.notes["predicted_error_budget"] = plan.predicted_error_budget()
    return canonical, report


def _wall_placements(alphabet: Alphabet, tile, translate, box: Box):
    """(codes, anchors) of the whole bricks of ``tile``'s wall at ``translate``
    inside ``box``, in C order: the aligned anchors whose brick fits."""
    anchors = BrickWall(alphabet, tile, translate).bricks(box)
    return np.full(len(anchors), alphabet.tiles.index(tile), dtype=np.int32), anchors


def _assemble(
    state: ConstructionState, chosen: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, anchors, owner): the whole placements in the domains of blocks ``chosen``.

    ``owner`` is each placement's position in ``chosen``.  A block's domain
    holds its kind's wall bricks, less those wholly inside a kept block's
    band (see ``_under_bands``); each such band's placements, less those
    wholly inside the kept block's domain; and the kept block's own
    placements, assembled the same way one stage down.  A kind's bricks are
    one broadcast add.  The band tiles of every key in use come from one
    ``placements_of`` call (one expansion, and one check that refuses a fill
    that is not an exact partition of the band), less those inside each
    key's kind's domain (one ``within``), and one gather moves them to every
    kept block.  A band that leaves its tower's domain (no plan from
    ``plan_stages`` has one: a kept block's collar is never below the
    composite collar) gives only the placements wholly inside the domain,
    as a decode of the domain would.
    """
    blocks, towers, kept = state.blocks, state.blocks.towers, state.kept
    alphabet = blocks.wall.alphabet
    origin, kind = towers.anchors[chosen], blocks.kind[chosen]
    lo, hi = np.empty_like(origin), np.empty_like(origin)
    parts = []
    for k in np.unique(kind).tolist():
        domain, tile = blocks.domain(k), blocks.kinds[k][0]
        codes, rel = _wall_placements(alphabet, tile, blocks.wall.translate, domain)
        which = np.flatnonzero(kind == k)
        lo[which] = origin[which] + domain.anchor
        hi[which] = lo[which] + domain.shape
        part = _translate(codes, rel, origin[which], which)
        if kept is not None:
            free = ~_under_bands(part[1], alphabet.shape(tile), kept)
            part = tuple(column[free] for column in part)
        parts.append(part)
    if kept is not None:
        prev = kept.state.blocks
        position = np.full(len(blocks), -1, dtype=np.intp)
        position[chosen] = np.arange(len(chosen))
        mine = position[kept.owner] >= 0
        index, owner, key = kept.index[mine], position[kept.owner[mine]], kept.key[mine]
    if kept is None or not len(index):
        return tuple(np.concatenate(column) for column in zip(*parts))
    shapes = alphabet.shape_table
    used, use = np.unique(key, return_inverse=True)
    try:
        codes, rel, which = placements_of([kept.fills[g] for g in used.tolist()], kept.band)
    except PartitionBroken as err:
        raise InvalidWord(f"stage {towers.stage} band {used[err.fill]} is refused: {err}") from None
    inner = [prev.domain(kept.kinds[g]) for g in used.tolist()]
    lo_hi = (np.array([getattr(b, end) for b in inner]).T for end in ("anchor", "end"))
    bounds = (bound.take(which, axis=1) for bound in lo_hi)  # each tile's key's inner domain
    band = np.flatnonzero(~within(rel, shapes.T.take(codes, axis=1), *bounds))
    # One gather: kept block j takes the band tiles of its key, use[j], at its
    # tower anchor; each key's tiles are contiguous, keys in order.
    per_key = np.bincount(which[band], minlength=len(used))
    size = per_key[use]
    take = band[np.arange(size.sum()) + np.repeat(np.cumsum(per_key)[use] - np.cumsum(size), size)]
    corner = prev.towers.anchors.take(index, axis=0)
    anchors = rel.take(take, axis=0) + np.repeat(corner, size, axis=0)
    inner_parts = [(codes.take(take), anchors, np.repeat(owner, size))]
    codes, anchors, below = _assemble(kept.state, index)
    inner_parts.append((codes, anchors, owner[below]))
    codes, anchors, placed = (np.concatenate(column) for column in zip(*inner_parts))
    band_lo = corner + kept.band.anchor
    if np.any(band_lo < lo[owner]) or np.any(band_lo + kept.band.shape > hi[owner]):
        inside = within(anchors, shapes.T.take(codes, axis=1), lo[placed].T, hi[placed].T)
        codes, anchors, placed = codes[inside], anchors[inside], placed[inside]
    parts.append((codes, anchors, placed))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _translate(codes, rel, origin, owner):
    """(codes, anchors, owner) of template placements ``rel`` at every ``origin``."""
    anchors = origin[:, None, :] + rel[None, :, :]
    codes = np.broadcast_to(codes, anchors.shape[:2])
    owner = np.broadcast_to(owner[:, None], anchors.shape[:2])
    return codes.ravel(), anchors.reshape(-1, anchors.shape[2]), owner.ravel()


def _under_bands(anchors: np.ndarray, period, kept: KeptBlocks) -> np.ndarray:
    """Mask of the bricks of shape ``period`` at ``anchors`` wholly inside a kept band.

    A band lies in its block's tower, one cell of the previous stage's tower
    lattice: ``StageTowers.locate`` finds the only tower a brick can be
    under, and the brick is under its band iff that tower is kept and the
    brick's offset in it lies in ``band.anchor .. band.end - period``.
    Towers are disjoint, so a brick is only ever under a band its own block keeps.
    """
    prev = kept.state.blocks.towers
    cell, under = prev.locate(anchors, kept.band.anchor, np.subtract(kept.band.end, period) + 1)
    is_kept = np.bincount(kept.index, minlength=prev.count) > 0
    under[under] = is_kept[cell[under]]
    return under


def _check_placements(blocks: StageBlocks, tiling: Tiling, owner: np.ndarray, covered: int) -> None:
    """Refuse placements that leave their own block's domain, or overlap.

    Placement j belongs to block ``owner[j]``, and each anchor column must
    keep its tile inside that block's domain, one axis at a time: the
    block's bounds and the tile's extent on that axis are gathered per
    placement.  Domains lie in their towers and towers in the
    window, so every placement then sets each of its cells
    (``Alphabet.paint``) in a window-sized bool grid, one tile cell at a
    time: a scatter with no gather.  A placement's own cells are distinct,
    so the distinct painted cells number the placements' summed volumes,
    ``covered``, iff no two placements share a cell.
    """
    towers, stage, alphabet = blocks.towers, blocks.towers.stage, blocks.wall.alphabet
    window, table = towers.window, alphabet.shape_table
    lo, hi = np.zeros((2, len(blocks.kinds), window.dim), dtype=np.int64)
    for k in np.unique(blocks.kind).tolist():
        lo[k], hi[k] = blocks.domain(k).anchor, blocks.domain(k).end
    lo, hi = (towers.anchors + b[blocks.kind] for b in (lo, hi))  # per block
    inside = np.ones(len(tiling), dtype=bool)
    for a in range(window.dim):
        column = tiling.anchors[:, a]
        inside &= column >= lo[:, a].take(owner)
        inside &= column + table[:, a].take(tiling.codes) <= hi[:, a].take(owner)
    if not inside.all():
        raise InvalidWord(f"stage {stage} placements leave their block domains")
    painted = np.zeros(window.volume, dtype=bool)
    for _, cells in alphabet.paint(tiling.codes, tiling.anchors, window.anchor, window.shape):
        painted[cells] = True
    if np.count_nonzero(painted) != covered:
        raise InvalidWord(f"stage {stage} placements overlap")


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
    rank = sorted(order, key=lambda j: -remainders[j])  # stable: ties keep the shuffled order
    counts = list(floors)
    for j in rank[:missing]:
        counts[j] += 1
    return counts


def redistribute(
    tiling: Tiling,
    targets: TargetDistribution,
    seed: int,
    tile_shapes: Mapping[int | str, tuple[int, ...]] | None = None,
) -> Tiling:
    """Relabel and subdivide large bricks so small-tile frequencies hit targets.

    Each small tile's deficit is measured on ``tiling``'s own cell counts.
    Brick pools are processed from coarsest to finest.  A pool first serves
    the tiles only it (among the remaining pools) can produce, then spreads
    the rest over the other tiles its period admits, proportionally to their
    remaining deficits; bricks left with no label stay in place, which is how
    any reserved tail mass survives.  Placement counts come from largest-
    remainder rounding and a seeded shuffle picks which placements of a pool,
    taken in the input's order, get which label.  The output is kept as
    groups of input rows with subdivision offsets and is put in canonical
    order by ``canonical_tiling`` in key space, without forming the rows.
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
    tile_cells = tiling.tile_cell_counts()
    covered = sum(tile_cells.values())
    if covered == 0:
        return tiling
    deficits: dict[int, Fraction] = {}
    for j in small_tiles:
        measured = Fraction(tile_cells.get(j, 0), covered)
        p = targets.probs[j - 1]
        if measured > p:
            raise TargetsInfeasible(f"tile {j} already carries {measured}, above target {p}")
        deficits[j] = (p - measured) * covered
    rng = SplitMix64(seed)
    code_of = {t: i for i, t in enumerate(tiling.tile_order)}
    out_code = {t: i for i, t in enumerate(sorted(shapes, key=tile_sort_key))}
    groups = [
        (np.flatnonzero(tiling.codes == code_of[j]), None, out_code[j])
        for j in small_tiles
        if j in code_of
    ]
    for rank, pool_tile in enumerate(large_tiles):
        if pool_tile not in code_of:
            continue
        pool = np.flatnonzero(tiling.codes == code_of[pool_tile])
        n_pool = len(pool)
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
        perm = np.arange(n_pool)
        rng.fork(20 + rank).shuffle(perm)
        pos = 0
        for label, cnt in zip(exclusive + shared + [None], counts):
            chosen = pool[perm[pos : pos + cnt]]
            pos += cnt
            if cnt == 0:
                continue
            if label is None:
                groups.append((chosen, None, out_code[pool_tile]))
            else:
                steps = [np.arange(0, p, e, dtype=np.int64) for p, e in zip(period, shapes[label])]
                groups.append((chosen, grid_rows(steps), out_code[label]))
                deficits[label] = max(deficits[label] - Fraction(cnt * area), Fraction(0))
    return canonical_tiling(shapes, tiling.anchors, groups, tiling.window)


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
    """Sample towers, build every stage, finalize, and redistribute.

    A top stage that samples no tower in the window raises WindowTooSmall."""
    alphabet = plan.alphabet()
    root = SplitMix64(seed)
    wall = BrickWall(alphabet, plan.brick_id(1), (0,) * window.dim)
    state: ConstructionState | None = None
    for stage in range(1, plan.stage_count + 1):
        towers = sample_towers(plan, window, stage, root.fork(stage).seed)
        if stage == plan.stage_count and towers.count == 0:
            raise WindowTooSmall(
                f"window {window.shape} holds no whole stage {stage} tower"
                f" of side {towers.side} at offset {towers.offset}"
            )
        tails = None
        if plan.countable and stage >= 2:
            tails = _select_tails(plan, towers, root.fork(1000 + stage))
        state = build_stage(state, towers, wall, plan, tails)
    pre_tiling, pre_report = finalize(state, plan)
    final = redistribute(pre_tiling, plan.targets, root.fork(2000).seed, alphabet.tile_shapes)
    report = FrequencyReport.of_tiling(
        final, plan.targets, pre_report.partial_cells, pre_report.notes
    )
    return PipelineResult(plan, state, pre_tiling, pre_report, final, report, seed)


def _select_tails(plan: StagePlan, towers: StageTowers, rng: SplitMix64) -> np.ndarray:
    """Pick how many towers carry this stage's coarser brick, and which.

    The count matches the stage's reserved tail mass against the whole-brick
    content cells one tower's interior actually holds (``StagePlan.tail_content``,
    which ``plan_stages`` refuses to leave at 0), rounded to nearest.
    Returns a boolean mask over ``towers.anchors``.
    """
    spec = plan.stages[towers.stage - 1]
    tails = np.zeros(towers.count, dtype=bool)
    if spec.tail_mass == 0 or towers.count == 0:
        return tails
    want = spec.tail_mass * towers.window.volume / plan.tail_content(towers.stage)
    count = min(int(want + Fraction(1, 2)), towers.count)
    idx = np.arange(towers.count)
    rng.shuffle(idx)
    tails[idx[:count]] = True
    return tails
