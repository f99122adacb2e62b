"""Stage planning, tower sampling, staged construction, and redistribution."""

import copy
import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    build_stage_per_block,
    check_partition_by_slices,
    finalize_by_decode,
    locate_by_points,
    redistribute_by_rows,
    same_placements,
    tiles_meeting_by_parts,
    tiling_from_parts,
)
from test_cli import (
    GOLDEN_BUILDS,
    LINE_INI,
    THREE_D_INI,
    THREE_STAGE_INI,
    TWO_STAGE_INI,
    sha256_of,
)
from test_brickfill import assert_placements_are_each_fills_own
from test_sft import DECODE_CASES

from dominofill import (
    Box,
    BrickWall,
    TargetDistribution,
    plan_stages,
    run_pipeline,
    validate_family,
)
from dominofill import sft, tower
from dominofill.brickfill import FilledWord, placements_of
from dominofill.cli.config import parse_config
from dominofill.cli.main import _family_and_plan, main
from dominofill.cli.verify import verify_tiling
from dominofill.geometry import grid_rows, interior
from dominofill.rng import SplitMix64
from dominofill.sft import InvalidWord, SymbolicWord, Tiling, validate_word
from dominofill.tower import (
    ConstructionState,
    FrequencyReport,
    Infeasible,
    InvalidTargets,
    NonpositiveTarget,
    StagePlan,
    StageSpec,
    StageTowers,
    TargetsInfeasible,
    WindowTooSmall,
    build_stage,
    finalize,
    redistribute,
    sample_towers,
)

FLAGSHIP_TARGETS = TargetDistribution.of([Fraction(2, 5), Fraction(3, 5)])

REPO = Path(__file__).resolve().parent.parent
sys.path.append(str(REPO / "perfbench"))
try:
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(REPO / "perfbench"))


class TestTargetDistribution:
    def test_accepts_mixed_notations(self):
        t = TargetDistribution.of(["2/5", 0.6])
        assert t.probs == (Fraction(2, 5), Fraction(3, 5))
        assert t.tail_mass == 0

    def test_sum_must_be_one(self):
        with pytest.raises(InvalidTargets):
            TargetDistribution.of(["1/2", "1/3"])
        with pytest.raises(NonpositiveTarget):
            TargetDistribution.of(["1/2", "1/2", 0])

    def test_negative_tail_mass(self):
        with pytest.raises(NonpositiveTarget, match="tail mass must be >= 0"):
            TargetDistribution.of(["1/2", "1/2"], tail_mass=Fraction(-1, 10))

    def test_tail_mass_counts_toward_sum(self):
        t = TargetDistribution.of(["1/2", "2/5"], tail_mass=Fraction(1, 10))
        assert t.tail_mass == Fraction(1, 10)
        with pytest.raises(InvalidTargets):
            TargetDistribution.of(["1/2", "2/5"], tail_mass=Fraction(1, 5))


class TestPlanStages:
    def test_strict_minimal_sides(self, flagship):
        plan = plan_stages(flagship, FLAGSHIP_TARGETS, count=1)
        assert [s.side for s in plan.stages] == [449]
        two = plan_stages(flagship, FLAGSHIP_TARGETS, count=2)
        assert [s.side for s in two.stages] == [449, 30529]
        assert [s.collar for s in two.stages] == [26, 26]
        assert [s.error_budget for s in two.stages] == [Fraction(1, 8), Fraction(1, 32)]

    def test_strict_sides_are_minimal_in_closed_form(self, flagship):
        three = plan_stages(flagship, FLAGSHIP_TARGETS, count=3)
        assert [s.side for s in three.stages] == [449, 30529, 7822593]
        with pytest.raises(Infeasible, match="stage 4 side exceeds cap 10000000") as info:
            plan_stages(flagship, FLAGSHIP_TARGETS, count=4)
        assert info.value.constraint == "collar_fraction"
        families = [
            (validate_family([(2,), (3,)]), ["1/2", "1/2"]),
            (flagship, ["2/5", "3/5"]),
            (validate_family([(2, 1, 1), (1, 2, 1), (1, 1, 2)]), ["1/3", "1/3", "1/3"]),
        ]
        for family, probs in families:
            targets = TargetDistribution.of(probs)
            sides = [s.side for s in plan_stages(family, targets, count=2).stages]
            for i in range(2):
                smaller = sides[:i] + [sides[i] - 1] + sides[i + 1 :]
                with pytest.raises(Infeasible, match=f"stage {i + 1}: 2d") as info:
                    plan_stages(family, targets, sides=smaller)
                assert info.value.constraint == "collar_fraction"

    def test_strict_validates_explicit_sides(self, flagship):
        accepted = plan_stages(flagship, FLAGSHIP_TARGETS, sides=(449,))
        assert accepted.stages[0].side == 449
        with pytest.raises(Infeasible) as info:
            plan_stages(flagship, FLAGSHIP_TARGETS, sides=(448,))
        assert info.value.constraint == "collar_fraction"
        with pytest.raises(Infeasible) as info:
            plan_stages(flagship, FLAGSHIP_TARGETS, sides=(449, 30528))
        assert info.value.constraint == "collar_fraction"
        assert plan_stages(flagship, FLAGSHIP_TARGETS, sides=(449, 30529)).stage_count == 2

    def test_strict_error_budget_bounds(self, flagship):
        with pytest.raises(Infeasible) as info:
            plan_stages(flagship, FLAGSHIP_TARGETS, count=1, error_budgets=[Fraction(1, 4)])
        assert info.value.constraint == "error_budget"
        ok = plan_stages(flagship, FLAGSHIP_TARGETS, count=1, error_budgets=[Fraction(1, 5)])
        assert ok.stages[0].error_budget == Fraction(1, 5)

    def test_strict_small_tile_budget(self, flagship):
        # collar cells must stay below the smallest target: 2*2*26/n < 1/5
        skewed = TargetDistribution.of(["1/5", "4/5"])
        with pytest.raises(Infeasible) as info:
            plan_stages(flagship, skewed, sides=(520,))
        assert info.value.constraint == "small_tile_budget"
        assert plan_stages(flagship, skewed, sides=(521,)).stages[0].side == 521

    def test_relaxed_minimum_side(self, flagship):
        assert plan_stages(flagship, FLAGSHIP_TARGETS, mode="relaxed", sides=(57,))
        with pytest.raises(Infeasible) as info:
            plan_stages(flagship, FLAGSHIP_TARGETS, mode="relaxed", sides=(56,))
        assert info.value.constraint == "stage_side"
        assert plan_stages(flagship, FLAGSHIP_TARGETS, mode="relaxed", sides=(64, 512))

    def test_stage_count_must_agree(self, flagship):
        """The cut points, else the sides, set the stage count; a count or a
        side list that disagrees with them is refused, not ignored."""
        relaxed = dict(mode="relaxed", sides=(64, 512))
        assert plan_stages(flagship, FLAGSHIP_TARGETS, count=2, **relaxed).stage_count == 2
        for count in (0, 1, 3):
            with pytest.raises(Infeasible, match=f"count {count} disagrees with sides 64,512") as e:
                plan_stages(flagship, FLAGSHIP_TARGETS, count=count, **relaxed)
            assert e.value.constraint == "stage_side"
        f3 = validate_family([(2,), (3,), (5,)])
        t3 = TargetDistribution.of(["1/2", "2/5", "1/10"])
        countable = dict(mode="relaxed", cutoffs=(2, 3))
        assert plan_stages(f3, t3, count=2, sides=(33, 200), **countable).stage_count == 2
        refusals = [
            (dict(count=3), "cutoffs", "2 cut points for 3 stages"),
            (dict(sides=(33,)), "cutoffs", "2 cut points for 1 stages"),
            (dict(count=2, sides=(33,)), "stage_side", "count 2 disagrees with sides 33"),
        ]
        for kwargs, constraint, message in refusals:
            with pytest.raises(Infeasible, match=message) as e:
                plan_stages(f3, t3, **countable, **kwargs)
            assert e.value.constraint == constraint

    def test_tail_towers_must_hold_a_brick(self):
        """A countable stage with a tail mass is refused when its tail towers'
        block domain holds no whole brick of the stage: with collar 38 the
        stage-2 domain is [39, side - 39), and the first 30-brick in it starts
        at 60, so a side below 129 holds none.  The relaxed minimum, 114, is
        such a side."""
        f3 = validate_family([(2,), (3,), (5,)])
        t3 = TargetDistribution.of(["1/2", "2/5", "1/10"])
        countable = dict(mode="relaxed", cutoffs=(2, 3))
        for kwargs in (dict(count=2), dict(sides=(33, 114)), dict(sides=(33, 128))):
            with pytest.raises(Infeasible, match="stage 2 tail towers hold no whole brick") as e:
                plan_stages(f3, t3, **countable, **kwargs)
            assert e.value.constraint == "stage_side"
        for side, content in ((129, 30), (200, 90)):
            plan = plan_stages(f3, t3, **countable, sides=(33, side))
            assert plan.tail_content(2) == content

    @pytest.mark.parametrize(
        "family, probs, tail_mass, kwargs, error, message",
        [
            ("flagship", ["2/5", "3/5"], 0, dict(mode="strict"),
             "stage_side", "need a stage count or explicit sides"),
            ("flagship", ["2/5", "1/2"], "1/10", dict(count=1),
             InvalidTargets, "a tail mass needs cut points"),
            ("line3", ["1/2", "2/5", "1/10"], 0, dict(mode="relaxed", cutoffs=(3, 2)),
             "cutoffs", r"cut points \[3, 2\] must increase within 2..3"),
            ("flagship", ["2/5", "3/5"], 0, dict(count=1, mode="lax"),
             ValueError, "unknown mode 'lax'"),
            ("flagship", ["2/5", "3/5"], 0, dict(sides=(449,), gaps=(1, 2)),
             "stage_side", "need 1 nonnegative gaps"),
            ("flagship", ["2/5", "3/5"], 0, dict(count=2, error_budgets=["1/8"]),
             "error_budget", "need 2 budgets"),
            # Every tail decays fast enough, but stage 2's block, tiles 3 and
            # 4, holds 1/2048: no more than the 1/1024 tail mass past the last cut.
            ("line4", ["2045/4096", "2045/4096", "1/4096", "1/4096"], "1/1024",
             dict(cutoffs=(2, 3, 4)), "tail_order", "stage 2 block mass too small"),
        ],
        ids=["no_count_or_sides", "tail_without_cutoffs", "cutoffs_not_increasing",
             "unknown_mode", "gaps_of_wrong_length", "budgets_of_wrong_length", "tail_order"],
    )
    def test_planner_refusals(self, flagship, family, probs, tail_mass, kwargs, error, message):
        """Each refusal raises its exception; an ``Infeasible`` names its
        constraint (``error`` is then the constraint's name)."""
        families = {
            "flagship": flagship,
            "line3": validate_family([(2,), (3,), (5,)]),
            "line4": validate_family([(2,), (3,), (5,), (7,)]),
        }
        targets = TargetDistribution.of(probs, tail_mass)
        expected = Infeasible if isinstance(error, str) else error
        with pytest.raises(expected, match=message) as e:
            plan_stages(families[family], targets, **kwargs)
        if expected is Infeasible:
            assert e.value.constraint == error

    def test_target_count_must_match_family(self, flagship):
        with pytest.raises(InvalidTargets):
            plan_stages(flagship, TargetDistribution.of(["1/2", "1/4", "1/4"]), count=1)

    def test_countable_strict_schedule(self):
        f3 = validate_family([(2,), (3,), (5,)])
        t3 = TargetDistribution.of(["1/2", "2/5", "1/10"])
        plan = plan_stages(f3, t3, mode="strict", cutoffs=(2, 3))
        assert [s.side for s in plan.stages] == [129, 5409]
        assert [s.collar for s in plan.stages] == [14, 38]
        for i, spec in enumerate(plan.stages, start=1):
            assert spec.collar == plan.base.collar(plan.brick_shape(i), plan.base.large_shape)
        assert [s.tail_mass for s in plan.stages] == [0, Fraction(1, 10)]
        assert plan.brick_id(1) == "P1" and plan.brick_id(2) == "P2"
        assert plan.brick_shape(1) == (6,) and plan.brick_shape(2) == (30,)
        assert len(plan.alphabet().symbols) == 46  # 2+3+5 small, 6+30 brick

    def test_countable_tail_decay(self):
        f3 = validate_family([(2,), (3,), (5,)])
        heavy_tail = TargetDistribution.of(["1/2", "3/8", "1/8"])
        with pytest.raises(Infeasible) as info:
            plan_stages(f3, heavy_tail, mode="strict", cutoffs=(2, 3))
        assert info.value.constraint == "tail_decay"

    def test_countable_base_must_validate(self):
        f3 = validate_family([(2,), (4,), (5,)])
        t3 = TargetDistribution.of(["1/2", "2/5", "1/10"])
        with pytest.raises(Infeasible) as info:
            plan_stages(f3, t3, mode="relaxed", cutoffs=(2, 3), sides=(40, 200))
        assert info.value.constraint == "base_gcd"


def toy_plan(family, side, gap=0):
    """A bare one-stage plan for lattice-arithmetic tests."""
    spec = StageSpec(
        side=side,
        collar=family.fill_length,
        error_budget=Fraction(1, 4),
        gap=gap,
        cutoff=None,
        tail_mass=Fraction(0),
    )
    return StagePlan(
        family=family,
        base=family,
        targets=FLAGSHIP_TARGETS,
        mode="relaxed",
        stages=(spec,),
        cutoffs=None,
    )


class TestSampleTowers:
    def test_exact_grid(self, flagship):
        window = Box((0, 0), (12, 12))
        towers = sample_towers(toy_plan(flagship, 6), window, 1, seed=0, offset=(0, 0))
        assert towers.count == 4
        assert window.volume - towers.count * towers.side**window.dim == 0

    def test_gap_counting(self, flagship):
        window = Box((0, 0), (100, 100))
        towers = sample_towers(toy_plan(flagship, 6, gap=2), window, 1, seed=0, offset=(0, 0))
        assert towers.count == 144
        error_cells = window.volume - towers.count * towers.side**window.dim
        assert Fraction(error_cells, window.volume) == Fraction(4816, 10000)

    def test_seed_determinism(self, flagship):
        plan = toy_plan(flagship, 6, gap=2)
        window = Box((0, 0), (100, 100))
        a = sample_towers(plan, window, 1, seed=99)
        b = sample_towers(plan, window, 1, seed=99)
        assert a.offset == b.offset
        assert np.array_equal(a.anchors, b.anchors)

    def test_towers_disjoint_inside_window(self, flagship):
        plan = toy_plan(flagship, 6, gap=1)
        window = Box((3, -4), (40, 31))
        towers = sample_towers(plan, window, 1, seed=7)
        seen = set()
        for row in towers.anchors:
            box = Box(tuple(int(x) for x in row), (6, 6))
            assert window.contains_box(box)
            cells = set(box.cells())
            assert not cells & seen
            seen |= cells
        assert window.volume - towers.count * towers.side**window.dim == window.volume - len(seen)

    def test_window_too_small(self, flagship):
        with pytest.raises(WindowTooSmall):
            sample_towers(toy_plan(flagship, 6), Box((0, 0), (5, 12)), 1, seed=0)


@pytest.fixture(scope="module")
def two_stage_state(flagship, flagship_alphabet):
    """A pinned-offset 600x600 run where every stage-2 tower keeps one block."""
    plan = plan_stages(flagship, FLAGSHIP_TARGETS, mode="relaxed", sides=(57, 200))
    window = Box((0, 0), (600, 600))
    wall = BrickWall(flagship_alphabet, "P", (0, 0))
    towers1 = sample_towers(plan, window, 1, seed=0, offset=(0, 0))
    state1 = build_stage(None, towers1, wall, plan)
    towers2 = sample_towers(plan, window, 2, seed=0, offset=(0, 0))
    state2 = build_stage(state1, towers2, wall, plan)
    return plan, window, state1, state2


class TestBuildStage:
    def test_stage_one_blocks_are_wall_restrictions(self, two_stage_state, flagship_alphabet):
        _, _, state1, _ = two_stage_state
        assert state1.blocks.towers.stage == 1 and len(state1.blocks) == 100
        blk = state1.blocks[3]
        assert blk.domain == interior(blk.box, blk.collar + 1)
        shifted = BrickWall(flagship_alphabet, "P", blk.box.anchor)
        assert np.array_equal(
            state1.word.subgrid(blk.domain), shifted.pattern_over(blk.domain)
        )

    def test_stage_words_validate(self, two_stage_state):
        _, _, state1, state2 = two_stage_state
        assert validate_word(state1.word) == []
        assert validate_word(state2.word) == []

    def test_preserved_blocks_bit_identical(self, two_stage_state):
        _, _, state1, state2 = two_stage_state
        assert len(state2.blocks) == 9
        preserved = 0
        for big in state2.blocks:
            for prev in state1.blocks:
                core = interior(big.box, prev.collar + 2 + state1.blocks.towers.side)
                if core is not None and core.contains_cell(prev.box.anchor):
                    assert np.array_equal(
                        state1.word.subgrid(prev.domain), state2.word.subgrid(prev.domain)
                    )
                    preserved += 1
        assert preserved == 9  # one good block per stage-2 tower at these offsets

    def test_ambient_ring_carries_wall(self, two_stage_state):
        _, _, _, state2 = two_stage_state
        for blk in state2.blocks:
            ring = np.ones(blk.domain.shape, dtype=bool)
            ring[(slice(1, -1),) * ring.ndim] = False
            grid = state2.word.subgrid(blk.domain)
            assert np.array_equal(grid[ring], blk.wall.pattern_over(blk.domain)[ring])


def block_record(blk):
    return blk.box, blk.collar, blk.wall.tile, blk.wall.translate, blk.domain


def with_plan(ini, **fields):
    """``ini`` with ``[run]``/``[plan]`` fields added or replaced."""
    for key, value in fields.items():
        lines = [ln for ln in ini.splitlines() if not ln.startswith(f"{key} =")]
        section = "[plan]" if key in ("gaps", "sides", "cutoffs") else "[run]"
        at = lines.index(section) + 1
        ini = "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"
    return ini


# The line family without its cut points: a 399-cell countable window would
# make its one stage-2 tower a tail tower, which keeps no blocks.
PAIR_LINE_INI = (
    LINE_INI.replace("shapes = 2 3 5", "shapes = 2 3")
    .replace("probs = 2/5 2/5 1/5", "probs = 1/2 1/2")
    .replace("cutoffs = 2,3\n", "")
)

# (config, stage-2 towers per axis or None); the edge windows put the top
# stage's single tower flush with both window ends (stage-2 offset 0 at seed
# 86) or leave the most slack after it (extent side + step - 1).
ORACLE_RUNS = {
    "countable_line": (LINE_INI, None),
    "two_stage_1024": (TWO_STAGE_INI, None),
    "three_d_two_stage": (THREE_D_INI, None),
    "countable_line_gaps": (with_plan(LINE_INI, gaps="1,4", window_anchor="-1000"), None),
    "two_stage_gaps": (with_plan(TWO_STAGE_INI, gaps="3,7", window_anchor="-17,5"), None),
    "three_d_gaps": (with_plan(THREE_D_INI, gaps="2,5", window_anchor="3,-4,9"), None),
    "line_window_is_side": (with_plan(LINE_INI, window="200", seed="86"), (1,)),
    "line_most_end_slack": (with_plan(PAIR_LINE_INI, window="399"), (1,)),
    "two_stage_most_end_slack": (with_plan(TWO_STAGE_INI, window="1023,1023"), (1, 1)),
}


@pytest.mark.parametrize("name", ORACLE_RUNS)
def test_build_stage_matches_band_per_block_oracle(name, monkeypatch):
    """Every stage of a seeded run equals the build that fills each band anew."""
    ini, top_counts = ORACLE_RUNS[name]
    cfg = parse_config(ini)
    _, _, plan = _family_and_plan(cfg)
    real_build, real_fill = tower.build_stage, tower.fill_between
    stages, fills = [], []

    def checked(state, towers, wall, plan, tails=None):
        got = real_build(state, towers, wall, plan, tails)
        want = build_stage_per_block(state, towers, wall, plan, tails)
        assert np.array_equal(got.word.grid, want.word.grid)
        assert [block_record(b) for b in got.blocks] == [block_record(b) for b in want.blocks]
        stages.append(towers.stage)
        if towers.stage == 2 and top_counts is not None:
            assert towers.counts == top_counts
        return got

    def counted(*args):
        fills.append(args)
        return real_fill(*args)

    monkeypatch.setattr(tower, "build_stage", checked)
    monkeypatch.setattr(tower, "fill_between", counted)
    tower.run_pipeline(plan, Box(cfg.window_anchor, cfg.window_shape), cfg.seed)
    assert stages == [1, 2] and fills  # stage 2 kept blocks and filled their bands


def three_stage_run(monkeypatch, check=None):
    """Run ``THREE_STAGE_INI`` and return each stage's (input state, towers);
    ``check(state, towers, wall, plan, tails, got)`` sees every stage built."""
    cfg = parse_config(THREE_STAGE_INI)
    _, _, plan = _family_and_plan(cfg)
    real_build = tower.build_stage
    runs = {}

    def spy(state, towers, wall, plan, tails=None):
        got = real_build(state, towers, wall, plan, tails)
        if check is not None:
            check(state, towers, wall, plan, tails, got)
        runs[towers.stage] = (state, towers)
        return got

    monkeypatch.setattr(tower, "build_stage", spy)
    tower.run_pipeline(plan, Box(cfg.window_anchor, cfg.window_shape), cfg.seed)
    return runs


def test_three_stage_run_keeps_a_composite_block(monkeypatch):
    """A stage-3 tower keeps a stage-2 block that itself kept stage-1 blocks,
    so the top stage pastes a block with bands of its own."""
    runs = three_stage_run(monkeypatch)
    assert sorted(runs) == [1, 2, 3]
    (state1, towers2), (state2, towers3) = runs[2], runs[3]
    _, composite = tower._kept_blocks(state1.blocks, towers2)
    kept, _ = tower._kept_blocks(state2.blocks, towers3)
    assert len(kept) and np.isin(kept, composite).any()


def test_three_stage_build_matches_band_per_block_oracle(monkeypatch):
    """Each of three stages equals the build that fills each band anew."""
    stages = []

    def check(state, towers, wall, plan, tails, got):
        want = build_stage_per_block(state, towers, wall, plan, tails)
        assert np.array_equal(got.word.grid, want.word.grid)
        assert [block_record(b) for b in got.blocks] == [block_record(b) for b in want.blocks]
        stages.append(towers.stage)

    three_stage_run(monkeypatch, check)
    assert stages == [1, 2, 3]


@pytest.fixture(scope="module")
def countable_stages():
    """Stage 2 of the countable line plan, with tail and composite towers."""
    plan = _family_and_plan(parse_config(LINE_INI))[2]
    window = Box((0,), (20_000,))
    wall = BrickWall(plan.alphabet(), plan.brick_id(1), (0,))
    towers1 = sample_towers(plan, window, 1, seed=3)
    state1 = build_stage(None, towers1, wall, plan)
    towers2 = sample_towers(plan, window, 2, seed=5)
    tails = tower._select_tails(plan, towers2, SplitMix64(7))
    state2 = build_stage(state1, towers2, wall, plan, tails)
    want = build_stage_per_block(state1, towers2, wall, plan, tails)
    return plan, window, state2, [block_record(b) for b in want.blocks], tails


def test_stage_blocks_behave_as_the_oracle_list(countable_stages):
    _, _, state, records, tails = countable_stages
    blocks = state.blocks
    assert 0 < tails.sum() < len(tails)  # both kinds of tower
    n = len(records)
    assert len(blocks) == n > 10
    assert block_record(blocks[0]) == records[0]
    assert block_record(blocks[5]) == records[5]
    assert block_record(blocks[-1]) == records[-1]
    assert block_record(blocks[-n]) == records[0]
    assert block_record(blocks[np.int64(3)]) == records[3]
    for cut in (slice(None, 4), slice(3, 17, 4), slice(-6, None), slice(None, None, -5)):
        assert [block_record(b) for b in blocks[cut]] == records[cut]
    assert [block_record(b) for b in blocks] == records
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            blocks[index]


def test_finalize_reads_block_arrays(countable_stages, monkeypatch):
    plan, window, state, _, _ = countable_stages
    want, _ = finalize(state, plan)

    def refuse(*args):
        raise AssertionError("finalize built a TowerBlock")

    monkeypatch.setattr(tower, "TowerBlock", refuse)
    got, report = finalize(state, plan)
    assert len(got) and same_placements(got, want)
    with pytest.raises(AssertionError):
        state.blocks[0]


def test_build_path_builds_no_tower_block(monkeypatch):
    """A two-stage countable build, kept blocks and bands included, reads
    only block arrays: bands are filled from their key in the block's frame."""
    cfg = parse_config(LINE_INI)
    _, _, plan = _family_and_plan(cfg)
    window = Box(cfg.window_anchor, cfg.window_shape)
    want = run_pipeline(plan, window, cfg.seed)
    fills = []

    def refuse(*args):
        raise AssertionError("the build built a TowerBlock")

    def counted(*args):
        fills.append(args)
        return real_fill(*args)

    real_fill = tower.fill_between
    monkeypatch.setattr(tower, "TowerBlock", refuse)
    monkeypatch.setattr(tower, "fill_between", counted)
    got = run_pipeline(plan, window, cfg.seed)
    assert fills  # stage 2 kept blocks and filled their bands
    assert np.array_equal(got.state.word.grid, want.state.word.grid)
    assert same_placements(got.tiling, want.tiling)


WORD_PATH_RUNS = {
    **{name: ini for name, (ini, _) in ORACLE_RUNS.items()},
    "three_stage": THREE_STAGE_INI,
    **{f"perfbench_{name}": w.config_text(1, "out") for name, w in WORKLOADS.items()},
}


@pytest.mark.parametrize("name", WORD_PATH_RUNS)
def test_finalize_matches_word_path_oracle(name):
    """The placements assembled from templates are those a decode of the
    whole top-stage word finds, with the same cut cells and report."""
    cfg = parse_config(WORD_PATH_RUNS[name])
    _, _, plan = _family_and_plan(cfg)
    result = run_pipeline(plan, Box(cfg.window_anchor, cfg.window_shape), cfg.seed)
    want, want_report = finalize_by_decode(result.state, plan)
    got, report = result.pre_tiling, result.pre_report
    assert got.tile_order == want.tile_order and got.window == want.window
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.anchors, want.anchors)
    assert report.partial_cells == want_report.partial_cells
    assert report == want_report
    assert report.to_dict() == want_report.to_dict()


BAND_RUNS = {
    "two_stage": TWO_STAGE_INI,
    "three_stage": THREE_STAGE_INI,
    "line": LINE_INI,
    "three_d": THREE_D_INI,
}


def run_config(ini):
    cfg = parse_config(ini)
    _, _, plan = _family_and_plan(cfg)
    return run_pipeline(plan, Box(cfg.window_anchor, cfg.window_shape), cfg.seed)


@pytest.mark.parametrize("ini", BAND_RUNS.values(), ids=BAND_RUNS)
def test_build_takes_no_word_path(ini, monkeypatch):
    """The build decodes, validates and materializes no word: bands come
    from their fills in closed form, and the outputs are unchanged."""
    want = run_config(ini)

    def refuse(*args, **kwargs):
        raise AssertionError("the build took the word path")

    monkeypatch.setattr(sft, "decode", refuse)
    monkeypatch.setattr(sft, "validate_word", refuse)
    monkeypatch.setattr(tower, "validate_word", refuse)
    monkeypatch.setattr(FilledWord, "materialize", refuse)
    got = run_config(ini)
    assert got.state.kept is not None  # the top stage kept blocks in bands
    assert same_placements(got.pre_tiling, want.pre_tiling)
    assert same_placements(got.tiling, want.tiling)


def collar_13_run():
    """A hand-made flagship plan whose stage-1 collar is 13, below the
    26-collar of the stage-2 domains."""
    flagship = validate_family([(3, 2), (2, 3)])
    stages = (StageSpec(64, 13, Fraction(1, 4)), StageSpec(512, 26, Fraction(1, 4)))
    plan = StagePlan(flagship, flagship, FLAGSHIP_TARGETS, "relaxed", stages)
    return plan, run_pipeline(plan, Box((0, 0), (1100, 1100)), seed=1)


@pytest.mark.parametrize("name", [*BAND_RUNS, "collar_13"])
def test_band_placements_match_word_path(name):
    """Every band key's closed-form placements, at every stage of a build,
    are what a decode of its band, materialized and validated, finds."""
    result = collar_13_run()[1] if name == "collar_13" else run_config(BAND_RUNS[name])
    state, stages = result.state, []
    while state.kept is not None:
        kept = state.kept
        for fill in kept.fills:
            word = fill.materialize(kept.band)
            assert validate_word(word) == []
            codes, anchors, _ = placements_of([fill], kept.band)
            placed = Tiling(fill.alphabet.tile_shapes, codes, anchors)
            assert same_placements(placed, sft.decode(word).tiling)
        stages.append(state.blocks.towers.stage)
        state = kept.state
    assert stages == ([3, 2] if name == "three_stage" else [2])


def test_bands_leaving_the_domain_match_word_path():
    """A hand-made plan whose stage-1 collar is 13 lets kept bands cross the
    26-collar stage-2 domains; only the placements inside a domain count,
    as a decode of the whole word finds them."""
    plan, result = collar_13_run()
    state = result.state
    prev, kept = state.kept.state.blocks, state.kept
    band_lo = prev.towers.anchors[kept.index] + kept.band.anchor
    domain = state.blocks.domain(0)
    lo = state.blocks.towers.anchors[kept.owner] + domain.anchor
    leaving = np.any(band_lo + kept.band.shape > lo + domain.shape, axis=1)
    assert leaving.any() and not np.any(band_lo < lo)
    want, want_report = finalize_by_decode(state, plan)
    assert same_placements(result.pre_tiling, want)
    assert result.pre_report == want_report


def assert_wall_lattice_is_its_decode(alphabet, tile, translate, box):
    codes, anchors = tower._wall_placements(alphabet, tile, translate, box)
    lattice = Tiling(alphabet.tile_shapes, codes, anchors, box)
    canon = lattice.sorted_canonical()
    wall = FilledWord.pure_wall(BrickWall(alphabet, tile, translate))
    decoded = sft.decode(wall.materialize(box))
    want = decoded.tiling.sorted_canonical()
    assert np.array_equal(canon.codes, want.codes)
    assert np.array_equal(canon.anchors, want.anchors)
    assert np.array_equal(anchors, canon.anchors)  # already in C order
    return anchors


@pytest.mark.parametrize("dim", sorted(DECODE_CASES))
@given(data=st.data())
@settings(max_examples=60)
def test_wall_lattice_equals_its_decode(dim, data):
    """The lattice of a wall's whole bricks in a box is what a decode of the
    wall over that box finds, for any tile, translate and box (the line's
    alphabet carries bricks P2 and P10)."""
    alphabet = DECODE_CASES[dim][0]()
    tile = data.draw(st.sampled_from(alphabet.tiles))
    translate = data.draw(st.tuples(*[st.integers(-40, 40)] * dim))
    anchor = data.draw(st.tuples(*[st.integers(-40, 40)] * dim))
    shape = data.draw(st.tuples(*[st.integers(1, {1: 80, 2: 30, 3: 12}[dim])] * dim))
    assert_wall_lattice_is_its_decode(alphabet, tile, translate, Box(anchor, shape))


@st.composite
def lattice_queries(draw):
    """A tower lattice shaped like ``sample_towers``' (offset below the step,
    side up to the step, any count per axis), points on its towers, between
    them, below its start and beyond its end, and offset bounds per axis, as
    numbers or as one value per point."""
    dim = draw(st.integers(1, 3))
    step = draw(st.integers(1, 12))
    side = draw(st.integers(1, step))
    offset = tuple(draw(st.integers(0, step - 1)) for _ in range(dim))
    counts = tuple(draw(st.integers(0, 4)) for _ in range(dim))
    anchor = tuple(draw(st.integers(-30, 30)) for _ in range(dim))
    shape = tuple(o + max(c * step, 1) + draw(st.integers(0, 3)) for o, c in zip(offset, counts))
    window = Box(anchor, shape)
    axes = [np.arange(a + o, a + o + c * step, step) for a, o, c in zip(anchor, offset, counts)]
    towers = StageTowers(1, side, step, offset, grid_rows(axes), window, counts)
    start = [a + o for a, o in zip(anchor, offset)]
    rows = st.tuples(*[st.integers(x - 2 * step, x + (c + 2) * step) for x, c in zip(start, counts)])
    points = np.array(draw(st.lists(rows, min_size=1, max_size=40)), dtype=np.int64)
    value = st.integers(-1, step + 1)
    column = st.lists(value, min_size=len(points), max_size=len(points)).map(np.array)
    lo, hi = ([draw(value | column) for _ in range(dim)] for _ in range(2))
    return towers, points, lo, hi


@given(lattice_queries())
@settings(max_examples=200)
def test_locate_matches_a_divmod_per_point(case):
    """``StageTowers.locate``, one column at a time, gives each point the flat
    index and inside mask that a per-point Python ``divmod`` gives."""
    towers, points, lo, hi = case
    cell, inside = towers.locate(points, lo, hi)
    want_cell, want_inside = locate_by_points(towers, points, lo, hi)
    assert np.array_equal(cell, want_cell)
    assert np.array_equal(inside, want_inside)


def test_locate_floors_below_the_start():
    """A point one cell below the lattice start is in lattice index -1, not 0."""
    window = Box((5,), (40,))
    towers = StageTowers(1, 6, 10, (3,), np.array([[8], [18], [28]]), window, (3,))
    cell, inside = towers.locate(np.array([[7], [8], [37]]), [0], [6])
    assert cell.tolist() == [-1, 0, 2] and inside.tolist() == [False, True, False]


@pytest.mark.parametrize("dim", sorted(DECODE_CASES))
def test_wall_lattice_in_a_box_below_one_period_is_empty(dim):
    """A box with a negative anchor and one axis narrower than the period
    holds no whole brick, while the same box made wide enough holds some."""
    alphabet = DECODE_CASES[dim][0]()
    tile = alphabet.tiles[-1]
    period = alphabet.shape(tile)
    anchor, translate = (-7,) * dim, (-5,) * dim
    narrow = Box(anchor, (period[0] - 1, *(3 * p for p in period[1:])))
    anchors = assert_wall_lattice_is_its_decode(alphabet, tile, translate, narrow)
    assert anchors.shape == (0, dim)
    wide = Box(anchor, tuple(3 * p for p in period))
    anchors = assert_wall_lattice_is_its_decode(alphabet, tile, translate, wide)
    assert len(anchors) >= 2**dim and np.all(anchors < 0, axis=1).any()


def test_build_reads_no_window_word(tmp_path, monkeypatch, capsys):
    """A two-stage `dominofill build` paints no stage word and makes no
    window-sized word, and still writes the golden bytes."""
    ini, digests = GOLDEN_BUILDS["two_stage_1024"]
    real_word = tower.SymbolicWord

    def unpaintable(state):
        raise AssertionError("the build painted a stage word")

    def small_word(alphabet, box, grid=None):
        assert box.volume < 1024 * 1024, f"a word over {box}"
        return real_word(alphabet, box, grid)

    monkeypatch.setattr(tower, "_paint", unpaintable)
    monkeypatch.setattr(tower, "SymbolicWord", small_word)
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(ini, encoding="utf-8")
    assert main(["build", "--config", "run.ini", "--out", "out"]) == 0
    capsys.readouterr()
    assert {f: sha256_of(Path("out") / f) for f in digests} == digests


class TestFinalize:
    def test_single_stage_is_pure_bricks(self, flagship, flagship_alphabet):
        plan = plan_stages(flagship, FLAGSHIP_TARGETS, mode="relaxed", sides=(64,))
        window = Box((0, 0), (300, 300))
        towers = sample_towers(plan, window, 1, seed=0, offset=(0, 0))
        state = build_stage(None, towers, BrickWall(flagship_alphabet, "P", (0, 0)), plan)
        tiling, report = finalize(state, plan)
        # each 10x10 block domain holds exactly one whole 6x6 brick
        assert towers.count == 16
        assert set(p.tile for p in tiling.placements()) == {"P"}
        assert report.covered_cells == 16 * 36 == tiling.covered_cells()
        assert report.frequency("P") == 1
        assert report.partial_cells == 16 * (100 - 36)
        assert report.uncovered_fraction == Fraction(90_000 - 576, 90_000)

    def test_invalid_word_is_refused(self, two_stage_state):
        """A band fill with a hole (its first strip run dropped) or an
        overlap (that run shifted one cell down axis 0, which leaves a hole
        of the same size, so a cell count would pass) is refused."""
        plan, _, _, state2 = two_stage_state
        fills = state2.kept.fills
        g = next(g for g, fill in enumerate(fills) if fill.runs)
        run = fills[g].runs[0]
        shifted = dataclasses.replace(run, box=run.box.translate((-1, 0)))
        for runs, times in ((fills[g].runs[1:], 0), ([shifted, *fills[g].runs[1:]], 2)):
            broken_fill = copy.copy(fills[g])
            broken_fill.runs = runs
            kept = dataclasses.replace(state2.kept, fills=[*fills[:g], broken_fill, *fills[g + 1:]])
            broken = ConstructionState(state2.blocks, kept)
            with pytest.raises(InvalidWord, match=f"stage 2 band {g} .* {times} times"):
                finalize(broken, plan)
        assert len(finalize(state2, plan)[0])

    def test_broken_band_key_is_named(self):
        """Of the nine band keys of a 1024x1024 flagship build, the first
        after key 0 that has strip runs, with its first run dropped, is
        refused by its own number, with the cell and count that the reference
        check finds; the other keys' placements are their reference ones."""
        result = run_config(TWO_STAGE_INI)
        state, kept = result.state, result.state.kept
        fills, band = kept.fills, kept.band
        assert len(fills) == 9 and set(kept.key.tolist()) == set(range(9))
        g = next(g for g in range(1, len(fills)) if fills[g].runs)
        broken_fill = copy.copy(fills[g])
        broken_fill.runs = fills[g].runs[1:]
        with pytest.raises(InvalidWord) as want:
            check_partition_by_slices(tiles_meeting_by_parts(broken_fill, band), band)
        kept = dataclasses.replace(kept, fills=[*fills[:g], broken_fill, *fills[g + 1:]])
        with pytest.raises(InvalidWord) as got:
            finalize(ConstructionState(state.blocks, kept), result.plan)
        assert str(got.value) == f"stage 2 band {g} is refused: {want.value}"
        assert_placements_are_each_fills_own([f for h, f in enumerate(fills) if h != g], band)

    def test_misplaced_wall_brick_is_refused(self, two_stage_state, monkeypatch):
        """A kind wall's first brick, moved one cell toward its neighbour
        along axis 0, overlaps it and fails the placement check."""
        plan, _, _, state2 = two_stage_state
        real = tower._wall_placements
        walls_moved = []

        def moved(alphabet, tile, translate, box):
            codes, anchors = real(alphabet, tile, translate, box)
            if len(anchors) and (anchors == anchors[0] + (alphabet.shape(tile)[0], 0)).all(1).any():
                anchors = anchors.copy()
                anchors[0, 0] += 1
                walls_moved.append(tile)
            return codes, anchors

        want, _ = finalize(state2, plan)
        monkeypatch.setattr(tower, "_wall_placements", moved)
        with pytest.raises(InvalidWord, match="stage 2 placements"):
            finalize(state2, plan)
        monkeypatch.undo()
        assert walls_moved
        assert same_placements(finalize(state2, plan)[0], want)

    @pytest.mark.parametrize("step", ["onto", "halfway"])
    def test_overlapping_placement_is_refused(self, two_stage_state, monkeypatch, step):
        """The first placement, moved onto its neighbour along axis 0 or
        halfway there, overlaps it and fails the paint check."""
        plan, _, _, state2 = two_stage_state
        real = tower._assemble

        def moved(state, chosen):
            codes, anchors, owner = real(state, chosen)
            if state is state2:
                side = plan.alphabet().shape(plan.alphabet().tiles[codes[0]])[0]
                neighbour = anchors[0] + (side, 0)
                assert any((anchors == neighbour).all(axis=1) & (codes == codes[0]))
                anchors = anchors.copy()
                anchors[0, 0] += side if step == "onto" else side // 2
            return codes, anchors, owner

        want, _ = finalize(state2, plan)
        monkeypatch.setattr(tower, "_assemble", moved)
        with pytest.raises(InvalidWord, match="stage 2 placements"):
            finalize(state2, plan)
        monkeypatch.undo()
        assert same_placements(finalize(state2, plan)[0], want)

    def test_placement_of_another_block_is_refused(self, two_stage_state, monkeypatch):
        """The first placement, handed to the block of another tower, still
        lies in a block domain, but not in its own block's."""
        plan, _, _, state2 = two_stage_state
        real = tower._assemble

        def handed_on(state, chosen):
            codes, anchors, owner = real(state, chosen)
            if state is state2:
                owner = owner.copy()
                owner[0] = (owner[0] + 1) % len(chosen)
            return codes, anchors, owner

        assert len(state2.blocks) > 1
        monkeypatch.setattr(tower, "_assemble", handed_on)
        with pytest.raises(InvalidWord, match="stage 2 placements leave their block domains"):
            finalize(state2, plan)

    def test_two_stage_report(self, two_stage_state):
        plan, window, _, state2 = two_stage_state
        tiling, report = finalize(state2, plan)
        assert set(report.tile_cells) == {1, 2, "P"}
        assert report.small_tile_fraction() < Fraction(2, 5)
        assert report.notes["small_fraction_below_min_target"] is True
        assert report.notes["predicted_error_budget"] == Fraction(1, 2)
        assert sum(report.tile_cells.values()) == report.covered_cells


def block_grid_tiling(assignments, alphabet):
    """A 60x60 window as a 10x10 grid of 6x6 blocks.

    ``assignments`` maps grid index -> small tile id; every other block is one
    large brick.  Small tiles subdivide their block exactly.
    """
    parts = []
    for gx in range(10):
        for gy in range(10):
            base = (6 * gx, 6 * gy)
            tile = assignments.get((gx, gy), "P")
            if tile == "P":
                parts.append(("P", [base]))
                continue
            w, h = alphabet.shape(tile)
            for dx in range(0, 6, w):
                for dy in range(0, 6, h):
                    parts.append((tile, [(base[0] + dx, base[1] + dy)]))
    return tiling_from_parts(
        dict(alphabet.tile_shapes), parts, Box((0, 0), (60, 60))
    )


class TestRedistribute:
    def test_largest_remainder_split(self, flagship_alphabet):
        # 5 blocks of tile 1 (180 cells), 4 of tile 2 (144 cells), 91 bricks;
        # deficits are 1260 and 2016 cells, i.e. exactly 35 and 56 bricks
        assignments = {(0, i): 1 for i in range(5)}
        assignments.update({(1, i): 2 for i in range(4)})
        tiling = block_grid_tiling(assignments, flagship_alphabet)
        out = redistribute(tiling, FLAGSHIP_TARGETS, seed=5)
        counts = out.tile_cell_counts()
        assert counts[1] == 1440 and counts[2] == 2160
        assert counts.get("P", 0) == 0
        assert len(out) == 30 + 35 * 6 + 24 + 56 * 6

    def test_partition_preserved(self, flagship_alphabet):
        assignments = {(0, i): 1 for i in range(5)}
        assignments.update({(1, i): 2 for i in range(4)})
        tiling = block_grid_tiling(assignments, flagship_alphabet)
        out = redistribute(tiling, FLAGSHIP_TARGETS, seed=5)
        cover = np.zeros((60, 60), dtype=np.int32)
        for p in out.placements():
            w, h = out.tile_shapes[p.tile]
            cover[p.anchor[0] : p.anchor[0] + w, p.anchor[1] : p.anchor[1] + h] += 1
        assert cover.min() == 1 and cover.max() == 1

    def test_determinism(self, flagship_alphabet):
        assignments = {(0, 0): 1, (2, 2): 2}
        tiling = block_grid_tiling(assignments, flagship_alphabet)
        a = redistribute(tiling, FLAGSHIP_TARGETS, seed=1)
        b = redistribute(tiling, FLAGSHIP_TARGETS, seed=1)
        assert same_placements(a, b)

    def test_identity_when_exact(self, flagship_alphabet):
        # 2:3 cell ratio with no bricks at all leaves the tiling untouched
        assignments = {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2, (1, 2): 2}
        parts = []
        for (gx, gy), tile in assignments.items():
            w, h = flagship_alphabet.shape(tile)
            for dx in range(0, 6, w):
                for dy in range(0, 6, h):
                    parts.append((tile, [(6 * gx + dx, 6 * gy + dy)]))
        t = tiling_from_parts(dict(flagship_alphabet.tile_shapes), parts, Box((0, 0), (60, 60)))
        out = redistribute(t, FLAGSHIP_TARGETS, seed=3)
        assert same_placements(out, t)

    def test_rejects_overfull_tile(self, flagship_alphabet):
        assignments = {(gx, gy): 1 for gx in range(5) for gy in range(10)}
        tiling = block_grid_tiling(assignments, flagship_alphabet)
        with pytest.raises(TargetsInfeasible):
            redistribute(tiling, FLAGSHIP_TARGETS, seed=0)


@pytest.mark.parametrize("name", WORD_PATH_RUNS)
def test_redistribute_matches_row_oracle(name):
    """The key-space redistribution of a seeded run equals the one that forms
    every subdivided anchor row and lexsorts them."""
    cfg = parse_config(WORD_PATH_RUNS[name])
    _, _, plan = _family_and_plan(cfg)
    result = run_pipeline(plan, Box(cfg.window_anchor, cfg.window_shape), cfg.seed)
    seed = SplitMix64(cfg.seed).fork(2000).seed
    shapes = plan.alphabet().tile_shapes
    want = redistribute_by_rows(result.pre_tiling, plan.targets, result.pre_report, seed, shapes)
    got = result.tiling
    assert got.tile_order == want.tile_order and got.window == want.window
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.anchors, want.anchors)


def random_pools(dim, rng, wide):
    """(tiling, tile_shapes, targets) for ``redistribute``: tiles 1 and 2 and
    bricks P1 and P2 placed in a shuffled order, overlaps allowed, while the
    tile shapes passed also hold tile 3 and brick P3, which the tiling lacks.
    ``wide`` spreads the anchors over 2^61, past the 62-bit key."""
    small = {1: (1,) * dim, 2: (2,) + (1,) * (dim - 1), 3: (1,) * (dim - 1) + (2,)}
    large = {"P1": (2,) * dim, "P2": (4,) * dim, "P3": (8,) * dim}
    present = [1, 2, "P1", "P2"]
    counts = [int(rng.integers(0, 3)), int(rng.integers(0, 3))]
    counts += [int(rng.integers(10, 40)), int(rng.integers(0, 30))]
    span = 2**61 if wide else 40
    parts = [(t, rng.integers(-span, span, (n, dim))) for t, n in zip(present, counts)]
    tiling = tiling_from_parts({t: (small | large)[t] for t in present}, parts, None)
    order = rng.permutation(len(tiling))
    tiling = Tiling(tiling.tile_shapes, tiling.codes[order], tiling.anchors[order])
    targets = TargetDistribution.of(["3/8", "1/4", "1/4"], tail_mass=Fraction(1, 8))
    return tiling, small | large, targets


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("wide", [False, True], ids=["packed", "wide"])
@given(seed=st.integers(0, 2**32 - 1))
def test_redistribute_matches_row_oracle_on_random_pools(dim, wide, seed):
    """Unsorted input, extra tiles in the tile shapes and reserved tail mass:
    the same placements as the row oracle, in canonical order; anchors spread
    past the 62-bit key take the ``np.lexsort`` fallback."""
    rng = np.random.default_rng(seed)
    tiling, shapes, targets = random_pools(dim, rng, wide)
    report = FrequencyReport.of_tiling(tiling, targets)
    want = redistribute_by_rows(tiling, targets, report, seed, shapes)
    real_lexsort, calls = np.lexsort, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "lexsort", lambda keys: calls.append(1) or real_lexsort(keys))
        got = redistribute(tiling, targets, seed, shapes)
    assert bool(calls) is wide
    assert got.tile_order == want.tile_order == sorted(shapes, key=sft.tile_sort_key)
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.anchors, want.anchors)
    assert got.sorted_canonical() is got
    assert not got.codes.flags.writeable and not got.anchors.flags.writeable


@pytest.fixture(scope="module")
def small_run(flagship):
    plan = plan_stages(flagship, FLAGSHIP_TARGETS, mode="relaxed", sides=(57, 200))
    return plan, run_pipeline(plan, Box((0, 0), (600, 600)), seed=11)


class TestRunPipeline:
    def test_final_tiling_is_small_tiles_only(self, small_run):
        _, result = small_run
        assert result.report.tile_cells.get("P", 0) == 0
        assert set(p.tile for p in result.tiling.placements()) <= {1, 2}

    def test_frequencies_near_targets(self, small_run):
        _, result = small_run
        for delta in result.report.deltas().values():
            assert abs(delta) < Fraction(1, 100)

    def test_uncovered_within_predicted_bound(self, small_run):
        plan, result = small_run
        assert result.report.uncovered_fraction <= plan.predicted_uncovered_bound((600, 600))

    def test_pre_report_keeps_brick_mass(self, small_run):
        _, result = small_run
        pre = result.pre_report
        assert pre.tile_cells["P"] > pre.small_tile_cells()
        assert pre.covered_cells == result.report.covered_cells

    def test_determinism(self, small_run):
        plan, result = small_run
        again = run_pipeline(plan, Box((0, 0), (600, 600)), seed=11)
        other = run_pipeline(plan, Box((0, 0), (600, 600)), seed=12)
        assert same_placements(result.tiling, again.tiling)
        assert not same_placements(result.tiling, other.tiling)


# Strict plans (the paper's schedule, minimal sides) of the 2,3 line and the
# flagship family, each run on a window of twice its top side.
STRICT_PLANS = {
    "line_1_stage": ([(2,), (3,)], (129,)),
    "line_2_stages": ([(2,), (3,)], (129, 4641)),
    "line_3_stages": ([(2,), (3,)], (129, 4641, 596097)),
    "flagship_1_stage": ([(3, 2), (2, 3)], (449,)),
}
GRANULARITY = pytest.mark.xfail(
    strict=True,
    reason="granularity defect: the one tower's domain holds 16 six-cell bricks, so"
    " tile 1's share moves in steps of 1/16 and misses 2/5 by 1/40; the planner"
    " accepts the plan all the same",
)


@pytest.fixture(scope="module")
def strict_runs():
    """(plan, window, result) of a strict plan at a seed, built on first use."""
    runs = {}

    def get(name, seed):
        if (name, seed) not in runs:
            shapes, sides = STRICT_PLANS[name]
            family = validate_family(shapes)
            plan = plan_stages(family, FLAGSHIP_TARGETS, len(sides), mode="strict")
            assert tuple(spec.side for spec in plan.stages) == sides
            window = Box((0,) * family.dim, (2 * sides[-1],) * family.dim)
            runs[name, seed] = plan, window, run_pipeline(plan, window, seed)
        return runs[name, seed]

    return get


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", STRICT_PLANS)
def test_strict_plan_builds_what_the_word_path_decodes(strict_runs, name, seed):
    """A strict plan's build verifies clean, equals the word-path oracle, and
    keeps its small tiles below the plan's collar mass bound."""
    plan, window, result = strict_runs(name, seed)
    assert verify_tiling(result.tiling, window) == []
    want, want_report = finalize_by_decode(result.state, plan)
    assert same_placements(result.pre_tiling, want)
    assert result.pre_report == want_report
    assert result.pre_report.small_tile_fraction() <= plan.collar_mass_bound()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "name",
    [pytest.param(n, marks=GRANULARITY) if n == "line_1_stage" else n for n in STRICT_PLANS],
)
def test_strict_plan_meets_the_tolerance(strict_runs, name, seed):
    _, _, result = strict_runs(name, seed)
    assert max(abs(d) for d in result.report.deltas().values()) <= Fraction(1, 50)


@pytest.fixture(scope="module")
def line_run():
    f3 = validate_family([(2,), (3,), (5,)])
    targets = TargetDistribution.of(["2/5", "2/5", "1/5"])
    plan = plan_stages(f3, targets, mode="relaxed", cutoffs=(2, 3), sides=(33, 200))
    result = run_pipeline(plan, Box((0,), (100_000,)), seed=4)
    return f3, plan, result.tiling, result.report


class TestCountableBuild:
    def test_final_tiles_from_truncated_list(self, line_run):
        _, _, tiling, report = line_run
        assert set(p.tile for p in tiling.placements()) <= {1, 2, 3}
        for brick in ("P1", "P2"):
            assert report.tile_cells.get(brick, 0) == 0

    def test_frequencies(self, line_run):
        _, _, _, report = line_run
        for delta in report.deltas().values():
            assert abs(delta) <= Fraction(2, 100)
