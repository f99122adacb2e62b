"""Tests of the benchmark's own arithmetic.  Run: python3 -m pytest perfbench -q"""

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from layers import FROM_SUMMARY, layer_metrics
from ops import (
    ERROR,
    OK,
    REFUSED,
    WRONG,
    OpResult,
    compare_digests,
    count_tile_cells,
    end_to_end,
    escalate_faults,
    percentile,
    run_op,
    tail_percentile,
    tally,
)
from reference import Reference
from run import UNGATED
from spans import Span, Tracer, self_times, summarize

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


class TestPercentiles:
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        assert tail_percentile(40) == 75
        assert tail_percentile(39) == 50
        assert tail_percentile(20) == 50
        assert tail_percentile(19) is None
        assert tail_percentile(1) is None
        assert tail_percentile(100) == 90
        assert tail_percentile(1000) == 99

    def test_nearest_rank(self):
        values = list(range(40, 0, -1))
        assert percentile(values, 75) == 30
        assert percentile(values, 50) == 20
        assert percentile([7.0], 75) == 7.0

    def test_timings_cover_succeeded_ops_only(self):
        ok = [OpResult(s, OK, build_s=float(s), check_s=0.5 + s % 2 * 0.2, cells=10,
                       build_ref_s=0.5 + s % 2, check_ref_s=0.1) for s in range(1, 38)]
        failed = [OpResult(s, REFUSED, build_s=0.01) for s in range(38, 41)]
        e2e = end_to_end(ok + failed, [0.2, 0.1, 0.3], 50.0)
        assert e2e["build_s"] == 19.0
        assert e2e["build_s_p75"] == 28.0
        assert e2e["check_s"] == 0.7
        assert e2e["setup_s"] == 0.2
        assert e2e["cells_per_s"] == pytest.approx(370 / (sum(range(1, 38)) + 18 * 0.5 + 19 * 0.7))
        # Ratios of sums: 703 s of builds over 18 * 0.5 + 19 * 1.5 s of reference.
        assert e2e["build_ref"] == pytest.approx(703 / 37.5)
        assert e2e["check_ref"] == pytest.approx((18 * 0.5 + 19 * 0.7) / 3.7)
        assert e2e["cells_per_ref"] == pytest.approx(10 / (e2e["build_ref"] + e2e["check_ref"]))
        assert tally(ok + failed) == (40, 3, True)


class TestSelfTime:
    def test_nested_spans(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        outer = tracer.begin("outer")
        a = tracer.begin("a")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(a)
        b = tracer.begin("b")
        tracer.end(b)
        tracer.end(outer)
        assert [s.parent for s in tracer.spans] == [None, outer.id, a.id, outer.id]
        assert self_times(tracer.spans) == [6.0, 2.0, 1.0, 1.0]
        summary = summarize(tracer.spans)
        assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}

    def test_overlapping_children_are_counted_once(self):
        spans = [
            Span(0, "p", 0.0, 10.0, None, None),
            Span(1, "c", 1.0, 5.0, 0, None),
            Span(2, "c", 3.0, 7.0, 0, None),
            Span(3, "c", 4.0, 6.0, 0, None),
        ]
        assert self_times(spans)[0] == 4.0

    def test_wrap_records_parents_counts_and_restores(self):
        calls = []

        class Owner:
            def leaf(self, n):
                calls.append(n)
                return [0] * n

        ns = SimpleNamespace()
        ns.outer = lambda n: Owner().leaf(n) + Owner().leaf(1)
        original = Owner.leaf
        tracer = Tracer()
        tracer.op = 3
        tracer.wrap(Owner, "leaf", "leaf", lambda tr, sp, args, res: {"items": len(res)})
        tracer.wrap(ns, "outer", "outer")
        assert ns.outer(4) == [0] * 5
        tracer.uninstall()
        assert Owner.leaf is original
        names = [(s.name, s.parent, s.op, s.counts) for s in tracer.spans]
        assert names == [("outer", None, 3, {}), ("leaf", 0, 3, {"items": 4}),
                         ("leaf", 0, 3, {"items": 1})]
        assert summarize(tracer.spans)["leaf"]["items"] == 5


class Refusal(ValueError):
    """Stands in for an expected refusal such as ``TargetsInfeasible``."""


def write_tiling(path, tile1, tile2, window=100):
    """A d=1 text tiling: ``tile1`` and ``tile2`` cells of the 2-cell tiles 1 and 2."""
    lines = ["dominofill tiling v1", "dim 1", "shapes 1:2 2:2 P:6", f"window 0 {window}",
             "seed 1"]
    lines += ["1 0"] * (tile1 // 2) + ["2 0"] * (tile2 // 2)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def fake_cli(out_dir, *, fault=None, verify_err="", tile1=40, reported1=None):
    """A stand-in for ``dominofill.cli.main``: its ``main`` reports every
    ``ValueError`` as a user error and exits 1, as the real CLI does."""
    cli = SimpleNamespace(verify_calls=0)

    def cmd_build():
        if fault is not None:
            raise fault
        os.makedirs(out_dir, exist_ok=True)
        write_tiling(os.path.join(out_dir, "tiling.txt"), tile1, 80 - tile1)
        write_tiling(os.path.join(out_dir, "tiling_pre.txt"), 40, 40)
        shown = tile1 if reported1 is None else reported1
        post = {"covered_cells": 80, "window_cells": 100,
                "tile_cells": {"1": shown, "2": 80 - tile1, "P": 0}}
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump({"post": post}, fh)
        return 0

    def main(argv):
        try:
            if argv[0] == "build":
                return cli.cmd_build()
            cli.verify_calls += 1
            if verify_err:
                print(verify_err, file=sys.stderr)
                return 1
            return 0
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    cli.cmd_build = cmd_build
    cli.main = main
    escalate_faults(cli, "cmd_build", (Refusal,))
    return cli


def op(tmp_path, seed=1, **kw):
    out_dir = str(tmp_path / f"op-{seed}")
    targets = [Fraction(1, 2), Fraction(1, 2)]
    cli = fake_cli(out_dir, **kw)
    result = run_op(cli.main, seed, "cfg.ini", out_dir, targets, 100, Fraction(1, 50),
                    iter([0.5, 1.5, 2.5]).__next__)
    result.verify_calls = cli.verify_calls
    return result


class TestFailedShare:
    def test_each_outcome(self, tmp_path):
        good = op(tmp_path, 1)
        assert good.status == OK and good.check_s > 0
        assert (good.build_ref_s, good.check_ref_s) == (1.0, 2.0)
        assert good.uncovered == 0.2 and good.max_abs_delta == 0.0
        assert set(good.digests) == {"tiling.txt", "tiling_pre.txt", "report.json"}
        assert not os.path.exists(tmp_path / "op-1")
        assert op(tmp_path, 2, fault=KeyError("internal")).status == ERROR
        refused = op(tmp_path, 3, fault=Refusal("targets infeasible"))
        assert refused.status == REFUSED and refused.reason == "error: targets infeasible"
        assert op(tmp_path, 4, verify_err="cell overlap").status == WRONG
        off = op(tmp_path, 5, tile1=42)
        assert off.status == WRONG and off.max_abs_delta == pytest.approx(0.025)

    def test_a_user_error_that_is_no_refusal_is_an_internal_fault(self, tmp_path):
        fault = op(tmp_path, 1, fault=ValueError("tilings use different tile tables"))
        assert fault.status == ERROR
        assert fault.reason == "ops.InternalFault: ValueError: tilings use different tile tables"

    def test_frequencies_come_from_the_tiling_not_the_report(self, tmp_path):
        lying = op(tmp_path, 1, tile1=42, reported1=40)
        assert lying.status == WRONG and lying.reason.startswith("report cell counts")
        assert op(tmp_path, 2, tile1=38, reported1=38).status == WRONG

    def test_verify_runs_once_per_op(self, tmp_path):
        assert op(tmp_path, 1).verify_calls == 1
        assert op(tmp_path, 2, fault=Refusal("no")).verify_calls == 0

    def test_count_tile_cells(self, tmp_path):
        path = str(tmp_path / "t.txt")
        write_tiling(path, 10, 4, window=50)
        assert count_tile_cells(path) == (50, {"1": 10, "2": 4})
        with open(path, "w") as fh:
            fh.write("dominofill word v1\n")
        with pytest.raises(ValueError):
            count_tile_cells(path)

    def test_a_raising_op_fails_without_making_the_run_incorrect(self, tmp_path):
        results = [op(tmp_path, 1), op(tmp_path, 2, fault=KeyError("internal")), op(tmp_path, 3)]
        assert results[1].reason == "ops.InternalFault: KeyError: 'internal'"
        assert tally(results) == (3, 1, True)

    def test_wrong_output_fails_and_makes_the_run_incorrect(self, tmp_path):
        results = [op(tmp_path, 1), op(tmp_path, 2, fault=Refusal("no")),
                   op(tmp_path, 3, tile1=50)]
        assert tally(results) == (3, 2, False)

    def test_digests_must_repeat_per_seed(self):
        reference = {}
        first = [OpResult(1, OK, digests={"a": "x"}), OpResult(2, REFUSED)]
        again = [OpResult(1, OK, digests={"a": "y"}), OpResult(2, OK, digests={"a": "z"})]
        compare_digests(first, reference)
        compare_digests(again, reference)
        assert [r.status for r in again] == [WRONG, OK]
        assert tally(first + again) == (4, 2, False)


def test_reference_work_is_fixed():
    first, second = Reference(), Reference()
    assert first.pairs == second.pairs and (first.keys == second.keys).all()
    assert first.time() > 0


def test_metric_names_match_benchmark_json():
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = end_to_end([OpResult(1, OK, build_s=1.0, check_s=1.0, cells=1, build_ref_s=1.0,
                               check_ref_s=1.0)], [0.1], 1.0)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e) - set(UNGATED)
    values, _ = layer_metrics(Tracer(), 0.0)
    assert sorted(values) == sorted(m["name"] for m in spec["per_layer"])
    assert len(values) == len(FROM_SUMMARY) + 2
