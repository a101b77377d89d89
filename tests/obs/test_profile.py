"""Guest profiling: self-time math, merge algebra, end-to-end collapse.

The FunctionProfiler unit tests drive enter/exit by hand; the
integration test runs a real WASI module under ``run_wasi`` with
profiling on and checks the collapsed output accounts for every
executed instruction (the interpreter's deterministic clock).
"""

import pytest

from repro.obs import profile
from repro.obs.profile import (
    WASI_BASE_COST_NS,
    WASI_BYTE_COST_NS,
    WASI_DEFAULT_COST_NS,
    FunctionProfiler,
    wasi_modeled_ns,
    wasi_report,
)


class TestFunctionProfiler:
    def test_nested_call_splits_self_from_children(self):
        p = FunctionProfiler()
        p.enter("a")
        p.enter("b")
        p.exit(10)  # b: 10 inclusive, no children
        p.exit(25)  # a: 25 inclusive, 10 spent in b -> 15 self
        assert p.stacks == {("a", "b"): 10, ("a",): 15}

    def test_sibling_calls_accumulate_into_parent(self):
        p = FunctionProfiler()
        p.enter("a")
        for _ in range(2):
            p.enter("b")
            p.exit(4)
        p.exit(20)
        assert p.stacks == {("a", "b"): 8, ("a",): 12}

    def test_repeat_top_level_calls_accumulate(self):
        p = FunctionProfiler()
        for n in (3, 7):
            p.enter("f")
            p.exit(n)
        assert p.stacks == {("f",): 10}

    def test_merge_is_order_independent_addition(self):
        left = {("a",): 5, ("a", "b"): 2}
        right = {("a",): 1, ("c",): 4}
        p1, p2 = FunctionProfiler(), FunctionProfiler()
        p1.merge(left)
        p1.merge(right)
        p2.merge(right)
        p2.merge(left)
        assert p1.stacks == p2.stacks == {("a",): 6, ("a", "b"): 2, ("c",): 4}

    def test_delta_since_skips_unchanged_stacks(self, telemetry):
        prof = profile._profiler
        prof.merge({("warm",): 5})
        base = telemetry.state()
        prof.merge({("warm",): 0, ("fresh",): 3})
        delta = telemetry.delta_since(base)
        assert delta.stacks == {("fresh",): 3}
        telemetry.merge_delta(delta)
        assert prof.stacks == {("warm",): 5, ("fresh",): 6}

    def test_collapsed_sorted_with_zero_suppression(self):
        profile.reset()
        profile._profiler.merge({("b",): 2, ("a", "x"): 1, ("zero",): 0})
        try:
            assert profile.collapsed() == "a;x 1\nb 2\n"
        finally:
            profile.reset()
        assert profile.collapsed() == ""


class TestInterpreterIntegration:
    def test_run_wasi_profile_accounts_for_every_instruction(self):
        from repro.wasm import assemble_wat
        from repro.wasm.embed import run_wasi

        blob = assemble_wat(
            """
            (module
              (func $leaf (result i32)
                (i32.add (i32.const 1) (i32.const 2)))
              (func (export "_start")
                (drop (call $leaf))
                (drop (call $leaf)))
            )
            """
        )
        profile.reset()
        profile.set_profiling(True)
        try:
            result = run_wasi(blob, zygote=False)
            stacks = dict(profile._profiler.stacks)
            text = profile.collapsed()
        finally:
            profile.set_profiling(False)
            profile.reset()
        assert result.exit_code == 0
        # Export-name backfill: the entry frame reads `_start`, not
        # `<anonymous>`; the internal helper has no name to surface.
        assert any(path[0] == "_start" for path in stacks)
        assert any(len(path) == 2 for path in stacks)  # _start -> leaf
        # Self-times partition the inclusive count: summed, they equal
        # the interpreter's full instruction tally for the run.
        assert sum(stacks.values()) == result.instructions > 0
        assert text.startswith("_start")

    def test_call_indirect_activation_is_profiled(self):
        # The call_indirect cell's fast path skips `_call_wasm`, where the
        # profiler's hooks are; with a profiler attached every activation
        # takes the generic path, so $leaf shows under _start on each of
        # the three calls (the first fills the cell, the others hit it).
        from repro.wasm import assemble_wat
        from repro.wasm.embed import run_wasi

        blob = assemble_wat(
            """
            (module
              (type $t (func (result i32)))
              (table 1 funcref) (elem (i32.const 0) $leaf)
              (func $leaf (result i32)
                (i32.add (i32.const 1) (i32.const 2)))
              (func (export "_start")
                (drop (call_indirect (type $t) (i32.const 0)))
                (drop (call_indirect (type $t) (i32.const 0)))
                (drop (call_indirect (type $t) (i32.const 0))))
            )
            """
        )
        profile.reset()
        profile.set_profiling(True)
        try:
            result = run_wasi(blob, zygote=False)
            stacks = dict(profile._profiler.stacks)
        finally:
            profile.set_profiling(False)
            profile.reset()
        assert result.exit_code == 0
        leaf = [path for path in stacks if len(path) == 2]
        assert len(leaf) == 1 and leaf[0][0] == "_start"
        assert stacks[leaf[0]] == 3 * 3  # three activations of 3 each
        assert sum(stacks.values()) == result.instructions

    def test_profiling_off_leaves_no_trace(self):
        from repro.wasm import assemble_wat
        from repro.wasm.embed import run_wasi

        blob = assemble_wat(
            '(module (func (export "_start") (drop (i32.const 1))))'
        )
        profile.reset()
        assert profile.active_profiler() is None
        run_wasi(blob, zygote=False)
        assert profile._profiler.stacks == {}


class TestWasiModel:
    def test_modeled_ns_base_plus_bytes(self):
        assert wasi_modeled_ns("fd_write", 10, 100) == pytest.approx(
            10 * WASI_BASE_COST_NS["fd_write"] + 100 * WASI_BYTE_COST_NS
        )
        assert wasi_modeled_ns("not_a_real_call", 2) == pytest.approx(
            2 * WASI_DEFAULT_COST_NS
        )

    def test_report_rows_and_shares(self):
        families = {
            "repro_wasi_calls_total": {("fd_write",): 4.0, ("clock_time_get",): 2.0},
            "repro_wasi_bytes_total": {
                ("fd_write", "out"): 64.0,
                ("fd_write", "in"): 16.0,
            },
        }
        rows = {r["func"]: r for r in wasi_report(families)}
        fw = rows["fd_write"]
        # Bytes sum over the direction label before costing.
        assert fw["bytes"] == 80.0
        assert fw["total_ns"] == pytest.approx(wasi_modeled_ns("fd_write", 4, 80))
        assert fw["mean_ns"] == pytest.approx(fw["total_ns"] / 4)
        assert sum(r["share"] for r in rows.values()) == pytest.approx(1.0)

    def test_report_empty_families(self):
        assert wasi_report({}) == []
