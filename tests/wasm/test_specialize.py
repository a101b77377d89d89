"""Unit tests for the specialization tier (`wasm/runtime/specialize`).

The tier compiles prepared flat code to exec'd Python closures and never
rewrites the flat code itself. These tests pin its mechanics at the
closure level: which memory accesses the bounds proof lets the closure
emit unchecked (read from ``__specialized_source__``), the per-site
``call_indirect`` cache, exact instruction accounting, that the
unmetered emission is unchanged by metering, that a metered call hands
only the segment its fuel runs out in to the prepared code object
itself, which code the runs counter says a run dispatched to, and that a call
from one closure to another goes through neither ``_call_wasm`` nor a
``Frame`` and carries its call depth exactly. The
differential suites (`tests/wasm/test_differential.py`, the hypothesis
property) cover end-to-end equivalence against the reference
interpreter.
"""

import hashlib

import pytest
from test_differential import MODULES, check

from repro import obs
from repro.engines.cache import reset_caches
from repro.errors import ExhaustionError, WasmTrap
from repro.wasm import assemble_wat, decode_module, parse_wat, validate_module
from repro.wasm.embed import run_wasi
from repro.wasm.runtime import compile as flat
from repro.wasm.runtime import interpreter
from repro.wasm.runtime import (
    Interpreter,
    SpecializedFunction,
    Store,
    instantiate,
    prepare_module,
    specialize_module,
)
from repro.wasm.runtime.specialize import (
    METERED_DEOPT,
    SpecializeReport,
    specialize_counts,
)
from repro.workloads.memhog import build_memhog_wasm
from repro.workloads.microservice import build_microservice_wasm
from repro.workloads.microservice_c import build_c_microservice_wasm

_OOB_CHECK = "raise WT('out of bounds memory access')"


def _specialized(src):
    module = validate_module(parse_wat(src))
    prepare_module(module)
    report = SpecializeReport()
    specialize_module(module, report=report).attach(module)
    return module, report


def _run(module, func="run", args=(), fuel=None):
    store = Store()
    inst = instantiate(store, module)
    interp = Interpreter(store, fuel=fuel)
    return interp.invoke_export(inst, func, list(args))


def _source(module, fi=0):
    compiled = module.funcs[fi].prepared.compiled
    assert compiled is not None, "function was not compiled to a closure"
    return compiled.__specialized_source__


def _trap(module, args):
    """(trap message, instructions retired) of one unmetered run."""
    store = Store()
    inst = instantiate(store, module)
    interp = Interpreter(store)
    with pytest.raises(WasmTrap) as err:
        interp.invoke_export(inst, "run", list(args))
    return str(err.value), interp.instructions_executed


def _traps_like_flat(src, args):
    """The closure traps exactly like the prepared flat code."""
    module, _ = _specialized(src)
    flat_module = validate_module(parse_wat(src))
    prepare_module(flat_module)
    assert _trap(module, args) == _trap(flat_module, args)


class TestBoundsElision:
    MASKED = """
        (module (memory 1)
          (func (export "run") (param i32) (result i32)
            (i32.store (i32.and (local.get 0) (i32.const 0xfffc))
                       (i32.const 7))
            (i32.load (i32.and (local.get 0) (i32.const 0xfffc)))))
    """

    UNBOUNDED = """
        (module (memory 1) (func (export "run") (param i32) (result i32)
          (i32.load (local.get 0))))
    """
    OVER_MINIMUM = """
        (module (memory 1) (func (export "run") (param i32) (result i32)
          (i32.load (i32.and (local.get 0) (i32.const 0x1ffff)))))
    """

    def test_masked_access_uses_unchecked_handlers(self):
        # Both accesses compile to bare struct calls on the memory.
        module, report = _specialized(self.MASKED)
        assert report.elided == 2
        source = _source(module)
        assert _OOB_CHECK not in source
        assert "ST32(data, " in source and "LD32(data, " in source
        assert _run(module, args=(123456,)) == [7]

    def test_unbounded_access_stays_checked(self):
        module, report = _specialized(self.UNBOUNDED)
        assert report.elided == 0
        assert _OOB_CHECK in _source(module)
        _traps_like_flat(self.UNBOUNDED, (70000,))

    def test_mask_exceeding_minimum_stays_checked(self):
        # 0x1ffff + 4 > one page: the proof must fail even though the
        # address is masked.
        module, report = _specialized(self.OVER_MINIMUM)
        assert report.elided == 0
        assert _OOB_CHECK in _source(module)
        _traps_like_flat(self.OVER_MINIMUM, (0x1FFFC,))


class TestInlineCaches:
    TABLE = """
        (module (type $t (func (param i32) (result i32)))
          (table 3 funcref) (elem (i32.const 0) $sq $dbl)
          (func $sq (type $t) (i32.mul (local.get 0) (local.get 0)))
          (func $dbl (type $t) (i32.add (local.get 0) (local.get 0)))
          (func (export "run") (param i32 i32) (result i32)
            (call_indirect (type $t) (local.get 1) (local.get 0))))
    """

    def test_ic_installed_and_counts_misses(self):
        # The closure's per-site cell: one miss while the site stays
        # monomorphic, one more per switch of its target.
        module, _ = _specialized(self.TABLE)
        assert "MISS()" in _source(module, fi=2)
        before = specialize_counts()["deopts_ic_miss"]
        store = Store()
        inst = instantiate(store, module)
        interp = Interpreter(store)
        # First call misses and fills the cell; the repeat hits.
        assert interp.invoke_export(inst, "run", [0, 6]) == [36]
        assert interp.invoke_export(inst, "run", [0, 7]) == [49]
        mono = specialize_counts()["deopts_ic_miss"] - before
        assert mono == 1
        # Flipping the target invalidates the cell each time.
        assert interp.invoke_export(inst, "run", [1, 6]) == [12]
        assert interp.invoke_export(inst, "run", [0, 6]) == [36]
        assert specialize_counts()["deopts_ic_miss"] - before == 3

    def test_ic_traps_match_generic_path(self):
        for args, message in (((9, 1), "undefined element"),
                              ((2, 1), "uninitialized element")):
            module, _ = _specialized(self.TABLE)
            with pytest.raises(WasmTrap, match=message):
                _run(module, args=args)
            _traps_like_flat(self.TABLE, args)

    def test_ic_type_mismatch_message(self):
        src = """(module (type $t (func (result i64)))
            (table 1 funcref) (elem (i32.const 0) $f)
            (func $f (result i32) (i32.const 1))
            (func (export "run") (result i64)
              (call_indirect (type $t) (i32.const 0))))"""
        module, _ = _specialized(src)
        assert module.funcs[1].prepared.compiled is not None
        with pytest.raises(WasmTrap, match="indirect call type mismatch"):
            _run(module)


class TestClosureTier:
    LOOP = """
        (module (func (export "run") (param i32) (result i32)
          (local $acc i32)
          (block $out (loop $top
            (br_if $out (i32.eqz (local.get 0)))
            (local.set $acc (i32.add (local.get $acc) (local.get 0)))
            (local.set 0 (i32.sub (local.get 0) (i32.const 1)))
            (br $top)))
          (local.get $acc)))
    """

    def test_on_mode_compiles_closure(self):
        module, report = _specialized(self.LOOP)
        sf = module.funcs[0].prepared
        assert report.compiled == 1
        assert sf.compiled is not None
        assert "while True:" in sf.compiled.__specialized_source__
        assert _run(module, args=(10,)) == [55]

    def test_metered_run_deopts_only_where_fuel_runs_out(self, monkeypatch):
        # With enough fuel the metered closure runs the whole call. When
        # the fuel runs out, the segment it runs out in, and only that,
        # goes to the prepared code object itself, from its first pc.
        module = validate_module(parse_wat(self.LOOP))
        prepared = prepare_module(module).functions[0].code
        specialize_module(module).attach(module)
        ran = []
        run_flat = Interpreter._run

        def spy(interp, code, frame, stack, pc=0):
            ran.append((code, pc))
            return run_flat(interp, code, frame, stack, pc)

        monkeypatch.setattr(Interpreter, "_run", spy)
        before = METERED_DEOPT.value
        assert _run(module, args=(10,), fuel=10_000) == [55]
        assert ran == [] and METERED_DEOPT.value == before
        # Fuel for the block and loop headers and the first loop test,
        # plus one: the loop body's segment after the br_if runs out.
        body = 1 + next(
            pc for pc, entry in enumerate(prepared) if entry[0] is flat.h_br_if
        )
        fuel = 1 + sum(weight for _h, _a, weight in prepared[:body])
        with pytest.raises(ExhaustionError):
            _run(module, args=(10,), fuel=fuel)
        assert ran == [(prepared, body)] and ran[0][0] is prepared
        assert METERED_DEOPT.value == before + 1

    @staticmethod
    def _nested(levels):
        """``levels`` nested ifs, each then arm returning below its child."""
        body = "(return (i32.const 1000))"
        for i in reversed(range(levels)):
            body = (
                f"(if (i32.gt_u (local.get 0) (i32.const {i})) (then {body}"
                f" (return (i32.const {i}))))"
            )
        return f'(module (func (export "run") (param i32) (result i32) {body} (i32.const 7)))'

    def test_single_entry_blocks_in_place_until_the_indent_limit(self):
        # Each then arm has one entry, so each nests one level deeper;
        # past the limit the rest become dispatch arms of a loop, and the
        # source stays within CPython's 100 indentation levels.
        shallow, _ = _specialized(self._nested(10))
        assert "while True:" not in _source(shallow)
        src = self._nested(120)
        module, report = _specialized(src)
        source = _source(module)
        assert report.compiled == 1 and "while True:" in source
        deepest = max(len(line) - len(line.lstrip()) for line in source.splitlines())
        assert 90 * 4 <= deepest < 100 * 4
        for arg in (0, 1, 50, 95, 119, 120, 500):
            check(src, args=(arg,))

    def test_a_long_expression_is_assigned_in_pieces(self):
        # 200 chained adds fold into one slot; past the nesting limit the
        # slot is assigned and folding goes on from its variable.
        adds = "(i32.add (i32.const 3))" * 200
        src = f'(module (func (export "run") (param i32) (result i32) (local.get 0) {adds}))'
        module, report = _specialized(src)
        assert report.compiled == 1 and "s0 = " in _source(module)
        check(src, args=(5,))

    def test_unmetered_counts_exact_instructions(self):
        module, _ = _specialized(self.LOOP)
        flat_module = validate_module(parse_wat(self.LOOP))
        store = Store()
        inst = instantiate(store, flat_module)
        flat = Interpreter(store)
        flat.invoke_export(inst, "run", [10])
        store2 = Store()
        inst2 = instantiate(store2, module)
        spec = Interpreter(store2)
        spec.invoke_export(inst2, "run", [10])
        assert spec.instructions_executed == flat.instructions_executed


class TestCallPath:
    """Closure-to-closure calls: the depth is an argument, no frames."""

    DEPTH = """
        (module (type $t (func (param i32) (result i32)))
          (table 2 funcref) (elem (i32.const 0) $spin $down)
          (func $spin (export "spin") (type $t)
            (call_indirect (type $t) (local.get 0) (i32.const 0)))
          (func $down (export "down") (type $t)
            (if (result i32) (local.get 0)
              (then (i32.add (i32.const 1)
                (call_indirect (type $t)
                  (i32.sub (local.get 0) (i32.const 1)) (i32.const 1))))
              (else (i32.const 0)))))
    """

    @pytest.mark.parametrize("fuel", [None, 10**9])
    def test_no_depth_leaks_after_call_stack_exhaustion(self, fuel):
        # `down(n)` runs n + 1 activations deep, so n = max_call_depth - 1
        # is the deepest call that fits — before and after `spin` has
        # exhausted the stack on the same interpreter.
        module, _ = _specialized(self.DEPTH)
        store = Store()
        inst = instantiate(store, module)
        interp = Interpreter(store, fuel=fuel, max_call_depth=50)
        assert interp.invoke_export(inst, "down", [49]) == [49]
        with pytest.raises(ExhaustionError, match="call stack exhausted"):
            interp.invoke_export(inst, "spin", [0])
        assert interp._depth == 0
        assert interp.invoke_export(inst, "down", [49]) == [49]
        with pytest.raises(ExhaustionError, match="call stack exhausted"):
            interp.invoke_export(inst, "down", [50])
        assert interp._depth == 0

    @pytest.mark.parametrize("name, args", [
        ("fib_recursive", (12,)),
        ("indirect", (0, 6)),
    ])
    def test_unmetered_run_enters_call_wasm_once(self, monkeypatch, name, args):
        # Each run enters `_call_wasm` from the export call only: the
        # first run fills every call cell, the second hits them.
        module, _ = _specialized(MODULES[name])
        entered, frames = [], []
        call_wasm = Interpreter._call_wasm
        frame_init = interpreter.Frame.__init__

        def counting_call(interp, fi, cargs):
            entered.append(fi)
            return call_wasm(interp, fi, cargs)

        def counting_frame(frame, *a):
            frames.append(frame)
            frame_init(frame, *a)

        monkeypatch.setattr(Interpreter, "_call_wasm", counting_call)
        monkeypatch.setattr(interpreter.Frame, "__init__", counting_frame)
        store = Store()
        inst = instantiate(store, module)
        interp = Interpreter(store)
        first = interp.invoke_export(inst, "run", list(args))
        assert interp.invoke_export(inst, "run", list(args)) == first
        assert len(entered) == 2 and frames == []

    def test_unnamed_functions_compile_to_distinct_code_names(self):
        # A decoded module carries no names: each closure is named after
        # its index in the function index space, imports first.
        blob = assemble_wat("""
            (module (import "env" "h" (func))
              (func (export "a") (result i32) (i32.const 1))
              (func (export "b") (result i32) (i32.const 2)))
        """)
        module = validate_module(decode_module(blob))
        prepare_module(module)
        specialize_module(module).attach(module)
        assert [f.name for f in module.funcs] == [None, None]
        names = [
            (f.prepared.compiled.__code__.co_filename,
             f.prepared.metered.__code__.co_filename)
            for f in module.funcs
        ]
        assert names == [
            ("<specialized:func1>", "<metered:func1>"),
            ("<specialized:func2>", "<metered:func2>"),
        ]


class TestUnmeteredEmission:
    """Metering adds a second emission; the unmetered one must not move.

    Digests of every function's unmetered closure source per corpus
    program. The metered emission must leave them as they are; only a
    deliberate change to the unmetered emission may update them.
    """

    PINNED = {
        "br_table_dispatch": "53b5da533704a292",
        "branch_stack_repair": "6a378b5b64a3c0d7",
        "cmp_brif_stack_repair": "7bc0ba8ff45d2579",
        "fib_recursive": "b99bf87dc563aa91",
        "float_mix": "81bec4568bb81ef2",
        "fused_cmp_brif": "db06207c611c12ac",
        "globals": "e3f7cbf1b87a40df",
        "indirect": "0e8e417e76b9d94b",
        "loop_sum": "452ce8c5f9b8ca9e",
        "loop_with_result": "cb8c04a2c7817f4f",
        "memory_churn": "75db7863ae90fb6d",
        "multivalue_block": "85072dcc8912e8f4",
        "narrow_memory": "07129de1a421996e",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_unmetered_source_is_pinned(self, name):
        module, _ = _specialized(MODULES[name])
        digest = hashlib.sha256()
        for func in module.funcs:
            digest.update(func.prepared.compiled.__specialized_source__.encode())
        assert digest.hexdigest()[:16] == self.PINNED[name]

    def test_a_leaf_that_cannot_trap_is_straight_line(self):
        # No loop, no try, no `_n`: the count is added once and the
        # result returned bare.
        module, _ = _specialized(MODULES["indirect"])
        assert _source(module, fi=0).splitlines()[1:] == [
            "    interp.instructions_executed += 3",
            "    return (l0 * l0) & 0xFFFFFFFF",
        ]

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_only_the_metered_source_touches_fuel(self, name):
        module, _ = _specialized(MODULES[name])
        for func in module.funcs:
            unmetered = func.prepared.compiled.__specialized_source__
            metered = func.prepared.metered.__specialized_source__
            assert "fuel" not in unmetered and "DEOPT" not in unmetered
            assert "_f = interp.fuel" in metered


class TestRunsLabel:
    """``repro_specialize_runs_total{mode}`` names the code a run ran."""

    @pytest.fixture(autouse=True)
    def telemetry(self):
        was = obs.enabled()
        obs.set_enabled(True)
        obs.reset()
        reset_caches()
        yield
        reset_caches()
        obs.reset()
        obs.set_enabled(was)

    def _modes(self, body):
        blob = assemble_wat(f'(module (func (export "_start") {body}))')
        run_wasi(blob, fuel=1_000_000)
        family = obs.default_registry().get("repro_specialize_runs_total")
        return {labels[0]: c.value for labels, c in family.samples() if c.value}

    def test_metered_run_on_the_tier_is_compiled(self):
        assert self._modes("nop") == {"compiled": 1}

    def test_declined_function_is_bytecode(self):
        # Past the closure compiler's size limit: flat code in both modes.
        assert self._modes("nop " * 4001) == {"bytecode": 1}

    def test_tier_off_is_off(self, flat_tier):
        # The whole pass declined: no specialized code attached at all.
        with flat_tier() as specialized:
            assert self._modes("nop") == {"off": 1}
            assert specialized() == 0


class TestDriver:
    def test_specialized_function_keeps_baseline_fallback(self):
        module, _ = _specialized(TestClosureTier.LOOP)
        sf = module.funcs[0].prepared
        assert isinstance(sf, SpecializedFunction)
        assert type(sf.fallback) is not SpecializedFunction
        assert sf.code is sf.fallback.code

    def test_respecialize_is_idempotent(self):
        module, _ = _specialized(TestClosureTier.LOOP)
        first_fallback = module.funcs[0].prepared.fallback
        specialize_module(module).attach(module)
        sf = module.funcs[0].prepared
        assert sf.fallback is first_fallback  # never stacks tiers
        assert _run(module, args=(4,)) == [10]

    @pytest.mark.parametrize(
        "build",
        [build_microservice_wasm, build_c_microservice_wasm, build_memhog_wasm],
        ids=lambda build: build.__name__,
    )
    def test_every_shipped_function_compiles_to_closures(self, build):
        # What keeps the flat loop off every workload's path: it runs
        # only the functions the closure compiler declines.
        module = validate_module(decode_module(build()))
        report = SpecializeReport()
        specialize_module(module, report=report)
        assert report.bytecode == 0
        assert report.compiled == len(module.funcs)

    def test_counts_exposes_all_keys(self):
        counts = specialize_counts()
        assert set(counts) == {
            "functions_compiled",
            "functions_bytecode",
            "functions_failed",
            "deopts_ic_miss",
            "deopts_metered",
        }

    def test_pass_duration_observed(self):
        fam = obs.histogram(
            "repro_specialize_pass_seconds",
            "wall time of the specialization pass per module",
            always=True,
        )
        before = fam.labels().count
        _specialized(TestClosureTier.LOOP)
        assert fam.labels().count == before + 1
