"""Differential testing: prepared and specialized code vs the reference.

Every case executes the same module through the reference tree-walker,
the prepared flat interpreter, and the specialization tier (exec'd
Python closures where compilable) and asserts identical observable
behaviour: result values (including float bit patterns), trap type and
message, fuel accounting, total ``instructions_executed``, and final
linear-memory contents. Unmetered runs exercise the unmetered closures;
metered runs (``fuel`` set) exercise the metered closures, including
their deopt to the prepared flat code in the segment where the fuel
runs out, which every corpus program meets at every budget it has.
"""

import pytest

from repro.engines.cache import reset_caches
from repro.errors import ExhaustionError, WasmTrap
from repro.wasm import parse_wat, validate_module
from repro.wasm.embed import run_wasi
from repro.wasm.runtime import (
    Interpreter,
    ReferenceInterpreter,
    Store,
    instantiate,
    prepare_module,
    specialize_module,
)
from repro.wasm.runtime.host import HostModule, sig
from repro.wasm.runtime.specialize import METERED_DEOPT
from repro.wasm.wasi import WasiEnv
from repro.workloads.microservice import build_microservice_wasm

INTERPS = (Interpreter, ReferenceInterpreter)


def _observe(cls, src, func, args, fuel, specialize=False):
    """Run one interpreter; capture (outcome, instr count, fuel left, memory)."""
    module = validate_module(parse_wat(src))
    if specialize:
        prepare_module(module)
        specialize_module(module).attach(module)
    return _execute(cls, module, func, args, fuel)


def _execute(cls, module, func, args, fuel):
    """One run of an already-built module on a fresh store."""
    store = Store()
    inst = instantiate(store, module)
    interp = cls(store, fuel=fuel)
    try:
        outcome = ("ok", interp.invoke_export(inst, func, list(args)))
    except ExhaustionError as e:  # subclass of WasmTrap: catch first
        outcome = ("exhausted", str(e))
    except WasmTrap as e:
        outcome = ("trap", str(e))
    mem = bytes(store.mems[inst.mem_addrs[0]].data) if inst.mem_addrs else b""
    return outcome, interp.instructions_executed, interp.fuel, mem


def check(src, func="run", args=(), fuel=None):
    ref = _observe(ReferenceInterpreter, src, func, args, fuel)
    flat = _observe(Interpreter, src, func, args, fuel)
    assert flat == ref, f"\nflat: {flat}\nref : {ref}"
    spec = _observe(Interpreter, src, func, args, fuel, specialize=True)
    assert spec == ref, f"\nspec: {spec}\nref : {ref}"
    return flat[0]


MODULES = {
    "fib_recursive": """
        (module (func $f (export "run") (param i32) (result i32)
          (if (result i32) (i32.lt_u (local.get 0) (i32.const 2))
            (then (local.get 0))
            (else (i32.add
              (call $f (i32.sub (local.get 0) (i32.const 1)))
              (call $f (i32.sub (local.get 0) (i32.const 2))))))))
    """,
    "loop_sum": """
        (module (func (export "run") (param i32) (result i32)
          (local $acc i32)
          (block $out
            (loop $top
              (br_if $out (i32.eqz (local.get 0)))
              (local.set $acc (i32.add (local.get $acc) (local.get 0)))
              (local.set 0 (i32.sub (local.get 0) (i32.const 1)))
              (br $top)))
          (local.get $acc)))
    """,
    "branch_stack_repair": """
        (module (func (export "run") (param i32) (result i32)
          (block $a (result i32)
            (i32.const 7)
            (i32.const 8)
            (i32.const 30)
            (br_if $a (i32.lt_u (local.get 0) (i32.const 2)))
            (drop) (drop) (drop)
            (i32.const 40))))
    """,
    "fused_cmp_brif": """
        (module (func (export "run") (param i32) (result i32)
          (local $i i32)
          (block $out
            (loop $top
              (local.set $i (i32.add (local.get $i) (i32.const 1)))
              (br_if $out (i32.ge_u (i32.add (local.get $i) (i32.const 0))
                                    (local.get 0)))
              (br $top)))
          (local.get $i)))
    """,
    "cmp_brif_stack_repair": """
        (module (func (export "run") (param i32) (result i32)
          (block $a (result i32)
            (i32.const 5)
            (i32.const 6)
            (br_if $a (i32.lt_u (i32.add (local.get 0) (i32.const 1))
                                (local.get 0)))
            (i32.add))))
    """,
    "br_table_dispatch": """
        (module (func (export "run") (param i32) (result i32)
          (block $c (block $b (block $a
            (br_table $a $b $c (local.get 0))
            ) (return (i32.const 100))
            ) (return (i32.const 200)))
          (i32.const 300)))
    """,
    "memory_churn": """
        (module (memory 1)
          (func (export "run") (param i32) (result i32)
            (local $i i32) (local $sum i32)
            (block $out (loop $top
              (br_if $out (i32.ge_u (local.get $i) (local.get 0)))
              (i32.store (i32.and (i32.mul (local.get $i) (i32.const 40))
                                  (i32.const 0xffff))
                         (local.get $i))
              (local.set $sum (i32.add (local.get $sum)
                (i32.load (i32.and (i32.mul (local.get $i) (i32.const 40))
                                   (i32.const 0xffff)))))
              (local.set $i (i32.add (local.get $i) (i32.const 1)))
              (br $top)))
            (local.get $sum)))
    """,
    "narrow_memory": """
        (module (memory 1)
          (func (export "run") (result i32)
            (i32.store8 (i32.const 0) (i32.const 0x80))
            (i32.store16 (i32.const 8) (i32.const 0xbeef))
            (i64.store32 (i32.const 16) (i64.const 0xdeadbeef))
            (i32.add
              (i32.add (i32.load8_s (i32.const 0)) (i32.load16_u (i32.const 8)))
              (i32.wrap_i64 (i64.load32_u (i32.const 16))))))
    """,
    "float_mix": """
        (module (func (export "run") (param f64) (result f64)
          (f64.add (f64.sqrt (local.get 0))
                   (f64.mul (f64.const 1.5) (f64.floor (local.get 0))))))
    """,
    "globals": """
        (module (global $g (mut i32) (i32.const 7))
          (func (export "run") (param i32) (result i32)
            (global.set $g (i32.add (global.get $g) (local.get 0)))
            (global.get $g)))
    """,
    "indirect": """
        (module (type $t (func (param i32) (result i32)))
          (table 2 funcref) (elem (i32.const 0) $sq $dbl)
          (func $sq (type $t) (i32.mul (local.get 0) (local.get 0)))
          (func $dbl (type $t) (i32.add (local.get 0) (local.get 0)))
          (func (export "run") (param i32 i32) (result i32)
            (call_indirect (type $t) (local.get 1) (local.get 0))))
    """,
    "multivalue_block": """
        (module (func (export "run") (result i32)
          (block (result i32 i32) (i32.const 3) (i32.const 4))
          (i32.add)))
    """,
    "loop_with_result": """
        (module (func (export "run") (param i32) (result i32)
          (loop $l (result i32) (local.get 0))))
    """,
    # Shift counts at and past the operand width, through every flat
    # form a shift takes: local.get pairs, a constant count, a plain binop.
    "shifts": """
        (module (func (export "run") (param i32) (result i64)
          (local $x i64) (local $k i64)
          (local.set $x (i64.const 0x8000000000000001))
          (local.set $k (i64.extend_i32_u (i32.add (local.get 0) (i32.const 60))))
          (i64.add
            (i64.add (i64.shl (local.get $x) (local.get $k))
                     (i64.shr_u (local.get $x) (local.get $k)))
            (i64.extend_i32_u
              (i32.xor (i32.shl (local.get 0) (i32.const 33))
                       (i32.shr_u (i32.const -1)
                                  (i32.add (local.get 0) (i32.const 30))))))))
    """,
    # One program per place a folded closure must assign a slot before a
    # later instruction changes what its expression reads.
    "load_across_store": """
        (module (memory 1)
          (func (export "run") (param i32) (result i32)
            (i32.store (i32.const 8) (local.get 0))
            (i32.load (i32.const 8))
            (i32.store (i32.const 8) (i32.add (local.get 0) (i32.const 5)))
            (i32.load (i32.const 8))
            (i32.sub)))
    """,
    "local_across_set_and_tee": """
        (module (func (export "run") (param i32) (result i32)
          (local $x i32)
          (local.set $x (local.get 0))
          (local.get $x)
          (local.set $x (i32.add (local.get $x) (i32.const 3)))
          (local.get $x)
          (local.tee $x (i32.mul (local.get $x) (i32.const 2)))
          (drop)
          (i32.sub)
          (local.get $x)
          (i32.add)))
    """,
    "across_a_writing_call": """
        (module (memory 1) (global $g (mut i32) (i32.const 5))
          (func $w (param i32) (result i32)
            (i32.store (i32.const 16) (local.get 0))
            (global.set $g (local.get 0))
            (i32.const 1))
          (func (export "run") (param i32) (result i32)
            (i32.store (i32.const 16) (i32.const 7))
            (i32.load (i32.const 16))
            (global.get $g)
            (call $w (local.get 0))
            (i32.add)
            (i32.mul (i32.const 100))
            (i32.add)
            (i32.load (i32.const 16))
            (i32.add)
            (global.get $g)
            (i32.add)))
    """,
    "global_across_set": """
        (module (global $g (mut i32) (i32.const 11))
          (func (export "run") (param i32) (result i32)
            (global.get $g)
            (global.set $g (i32.add (global.get $g) (local.get 0)))
            (global.get $g)
            (i32.sub)))
    """,
    "size_across_grow": """
        (module (memory 1 4)
          (func (export "run") (param i32) (result i32)
            (memory.size)
            (drop (memory.grow (i32.and (local.get 0) (i32.const 1))))
            (memory.size)
            (i32.mul (i32.const 100))
            (i32.add)))
    """,
    "trap_after_store": """
        (module (memory 1)
          (func (export "run") (param i32) (result i32)
            (i32.store (i32.const 0) (i32.const 9))
            (i32.div_u (i32.const 100) (i32.and (local.get 0) (i32.const 1)))
            (i32.store (i32.const 4) (i32.const 10))
            (i32.rem_s (i32.const 7) (i32.sub (local.get 0) (i32.const 1)))
            (i32.add)))
    """,
}


def _args(src, arg):
    """The corpus calling convention: one or two i32s, one f64, or none."""
    if "param i32 i32" in src:
        return (arg, arg % 2)
    if "(param f64)" in src:
        return (float(arg),)
    if "(param" in src.split("func", 2)[-1]:
        return (arg,)
    return ()


def _variants(src):
    """Reference, flat and specialized builds of one program, made once."""
    ref = validate_module(parse_wat(src))
    flat = validate_module(parse_wat(src))
    prepare_module(flat)
    spec = validate_module(parse_wat(src))
    prepare_module(spec)
    specialize_module(spec).attach(spec)
    return (ReferenceInterpreter, ref), (Interpreter, flat), (Interpreter, spec)


def sweep(src, func="run", args=(), cap=200, upto=None):
    """Check every fuel budget from 0 to cost+1, or to ``upto`` if later,
    against the reference.

    A program costing more than ``2 * cap`` instructions is checked at
    its first and last ``cap`` budgets. Returns ``{fuel: observation}``.
    """
    variants = _variants(src)
    cost = _execute(ReferenceInterpreter, variants[0][1], func, args, None)[1]
    end = max(cost + 2, (upto or 0) + 1)
    budgets = sorted(set(range(min(end, cap))) | set(range(max(0, end - cap), end)))
    seen = {}
    for fuel in budgets:
        ref, flat, spec = (
            _execute(cls, module, func, args, fuel) for cls, module in variants
        )
        assert flat == ref, f"fuel={fuel}\nflat: {flat}\nref : {ref}"
        assert spec == ref, f"fuel={fuel}\nspec: {spec}\nref : {ref}"
        seen[fuel] = ref
    assert seen[cost + 1][0][0] != "exhausted"
    return seen


@pytest.mark.parametrize("name", sorted(MODULES))
@pytest.mark.parametrize("arg", [0, 1, 2, 7, 13])
def test_corpus_agrees(name, arg):
    src = MODULES[name]
    check(src, args=_args(src, arg))


@pytest.mark.parametrize("name", sorted(MODULES))
def test_corpus_agrees_at_every_fuel_budget(name):
    src = MODULES[name]
    sweep(src, args=_args(src, 7))


class TestTrapsAgree:
    def test_div_by_zero(self):
        assert check(
            "(module (func (export \"run\") (result i32)"
            " (i32.div_s (i32.const 1) (i32.const 0))))"
        )[0] == "trap"

    def test_unreachable(self):
        assert check('(module (func (export "run") (unreachable)))')[0] == "trap"

    def test_oob_load(self):
        src = """(module (memory 1) (func (export "run") (result i32)
            (i32.load (i32.const 65536))))"""
        assert check(src)[0] == "trap"

    def test_oob_store(self):
        src = """(module (memory 1) (func (export "run")
            (i64.store (i32.const 65533) (i64.const 1))))"""
        assert check(src)[0] == "trap"

    def test_fused_load_oob(self):
        # A load from a local's address, one expression in a closure,
        # must trap identically.
        src = """(module (memory 1) (func (export "run") (param i32) (result i32)
            (i32.load (local.get 0))))"""
        assert check(src, args=(70000,))[0] == "trap"

    def test_indirect_type_mismatch(self):
        src = """(module (type $t (func (result i64)))
            (table 1 funcref) (elem (i32.const 0) $f)
            (func $f (result i32) (i32.const 1))
            (func (export "run") (result i64)
              (call_indirect (type $t) (i32.const 0))))"""
        assert check(src)[0] == "trap"

    def test_undefined_element(self):
        src = """(module (type $t (func))
            (table 4 funcref)
            (func (export "run") (call_indirect (type $t) (i32.const 2))))"""
        assert check(src)[0] == "trap"

    def test_stack_exhaustion(self):
        src = """(module (func $f (export "run") (call $f)))"""
        assert check(src)[0] == "exhausted"

    @pytest.mark.parametrize("fuel", [None, 301, 10**6])
    def test_stack_exhaustion_through_call_indirect(self, fuel):
        # Every call after the first hits the site's filled cell; the
        # closure tier counts depth in an argument, the others in
        # `_depth`. 301 runs out of fuel on the way down.
        src = """(module (type $t (func))
            (table 1 funcref) (elem (i32.const 0) $f)
            (func $f (export "run") (call_indirect (type $t) (i32.const 0))))"""
        outcome = check(src, fuel=fuel)
        assert outcome == (
            ("exhausted", "fuel exhausted") if fuel == 301
            else ("exhausted", "call stack exhausted")
        )

    def test_trunc_invalid(self):
        src = """(module (func (export "run") (result i32)
            (i32.trunc_f64_s (f64.const nan))))"""
        assert check(src)[0] == "trap"


class TestFuelAgrees:
    SRC = MODULES["fib_recursive"]

    def _count(self, arg):
        outcome, n, _, _ = _observe(Interpreter, self.SRC, "run", (arg,), None)
        assert outcome[0] == "ok"
        return n

    @pytest.mark.parametrize("arg", [0, 1, 5, 10])
    def test_exact_instruction_count(self, arg):
        check(self.SRC, args=(arg,))

    def test_every_fuel_boundary_near_exhaustion(self):
        # Sweep fuel values around the exact cost: both interpreters must
        # flip from exhausted to ok at the same budget and agree on the
        # partial count when exhausted — this pins down per-instruction
        # debiting through calls, block headers and the free jump over an
        # else arm.
        cost = self._count(7)
        for fuel in [0, 1, 2, 3, cost - 2, cost - 1, cost, cost + 1]:
            check(self.SRC, args=(7,), fuel=fuel)

    def test_fuel_boundary_in_memory_loop(self):
        src = MODULES["memory_churn"]
        _, cost, _, _ = _observe(Interpreter, src, "run", (50,), None)
        for fuel in [cost // 2, cost - 1, cost, cost + 3]:
            check(src, args=(50,), fuel=fuel)


class TestMeteredClosures:
    """Fuel running out at the places a metered closure hands over.

    Each program is swept over every budget; the spot checks pin where
    the budget named in the test runs out, from the reference's count of
    source instructions (block and loop headers count one).
    """

    CALLS = """
        (module (memory 1)
          (func $g (param i32) (result i32)
            (i32.store (i32.const 0) (local.get 0))
            (i32.add (local.get 0) (i32.const 3)))
          (func (export "run") (param i32) (result i32)
            (local $acc i32)
            (block $out (loop $top
              (br_if $out (i32.eqz (local.get 0)))
              (local.set $acc (call $g (local.get $acc)))
              (local.set 0 (i32.sub (local.get 0) (i32.const 1)))
              (br $top)))
            (local.get $acc)))
    """

    def test_inside_a_callee_through_its_call_cell(self):
        # Every loop iteration after the first reaches $g through the
        # call site's filled cell; the sweep runs out inside each one.
        _, _, (_, spec) = _variants(self.CALLS)
        caller = spec.funcs[1].prepared.metered
        _execute(Interpreter, spec, "run", (4,), 10**6)
        (cell,) = [d for d in caller.__defaults__ if isinstance(d, list)]
        assert cell[2] is spec.funcs[0].prepared.metered
        seen = sweep(self.CALLS, args=(4,))
        # 2 headers, then per iteration: loop test (3), local.get + call
        # (2), $g (6), the rest of the body (6). The second iteration's
        # $g runs instructions 25-30 and stores acc = 3 at the 27th.
        assert seen[26][0][0] == "exhausted" and seen[26][3][:4] == bytes(4)
        assert seen[27][0][0] == "exhausted"
        assert seen[27][3][:4] == (3).to_bytes(4, "little")

    def test_on_the_first_instruction_after_a_call(self):
        src = """
            (module (memory 1)
              (func $g (param i32) (result i32)
                (i32.store (i32.const 0) (local.get 0))
                (local.get 0))
              (func (export "run") (param i32) (result i32)
                (i32.store (i32.const 4) (call $g (local.get 0)))
                (i32.load (i32.const 4))))
        """
        seen = sweep(src, args=(9,))
        # i32.const, local.get, call, then $g's 4: the caller's store is
        # the 8th instruction, so budget 7 runs out right after the return.
        nine = (9).to_bytes(4, "little")
        assert seen[7][0] == ("exhausted", "fuel exhausted")
        assert seen[7][3][:8] == nine + bytes(4)
        assert seen[8][3][:8] == nine + nine

    def test_inside_a_call_indirect_target(self):
        src = """
            (module (memory 1)
              (type $t (func (param i32) (result i32)))
              (table 2 funcref) (elem (i32.const 0) $inc $dbl)
              (func $inc (type $t)
                (i32.store (i32.const 0) (local.get 0))
                (i32.add (local.get 0) (i32.const 1)))
              (func $dbl (type $t)
                (i32.store (i32.const 4) (local.get 0))
                (i32.add (local.get 0) (local.get 0)))
              (func (export "run") (param i32) (result i32)
                (local $acc i32)
                (block $out (loop $top
                  (br_if $out (i32.eqz (local.get 0)))
                  (local.set $acc
                    (call_indirect (type $t) (local.get $acc)
                      (i32.and (local.get 0) (i32.const 1))))
                  (local.set 0 (i32.sub (local.get 0) (i32.const 1)))
                  (br $top)))
                (local.get $acc)))
        """
        seen = sweep(src, args=(5,))
        assert sum(obs[0][0] == "exhausted" for obs in seen.values()) > 40

    def test_across_a_fused_entry(self):
        src = """
            (module (memory 1)
              (func (export "run") (param i32) (result i32)
                (i32.store (i32.const 0) (i32.add (local.get 0) (local.get 0)))
                (i32.load (local.get 0))))
        """
        seen = sweep(src, args=(8,))
        # `local.get local.get i32.add` after the i32.const is one
        # expression in the metered closure: budgets 2 and 3 stop inside
        # it, and nothing is stored.
        for fuel in (1, 2, 3):
            assert seen[fuel][:3] == (("exhausted", "fuel exhausted"), fuel, -1)
            assert seen[fuel][3][:4] == bytes(4)

    def test_a_trap_before_the_exhaustion_point_in_the_same_segment(self):
        src = """
            (module (memory 1)
              (func (export "run") (param i32 i32) (result i32)
                (i32.store (i32.const 0) (i32.const 7))
                (drop (i32.div_u (local.get 0) (local.get 1)))
                (i32.store (i32.const 4) (i32.const 8))
                (i32.store (i32.const 8) (i32.const 9))
                (i32.load (i32.const 4))))
        """
        # One straight-line segment of weight 15: from budget 6 (the
        # division) to 14 the closure hands it over and the flat loop
        # traps; from 15 the closure runs it and traps itself.
        seen = sweep(src, args=(9, 0), upto=16)
        assert seen[5][0][0] == "exhausted"
        for fuel in range(6, 17):
            assert seen[fuel][0] == ("trap", "integer divide by zero")
            assert seen[fuel][1:3] == (6, fuel - 6)


class TestCallsLeavingTheClosureTier:
    """Calls whose callee is not a closure of the caller's instance.

    A closure calls another closure directly, with its call depth as an
    argument; every other callee must see the depth and the memory it
    would see on flat code. Each case runs linked instances of the
    reference, flat and specialized builds (``_variants``) and compares
    them.
    """

    CHAIN = """
        (module
          (import "env" "h" (func $h (param i32) (result i32)))
          (func $a (export "a") (param i32) (result i32)
            (i32.add (call $b (i32.add (local.get 0) (i32.const 1)))
                     (i32.const 1)))
          (func $b (param i32) (result i32)
            NOPS
            (call $h (local.get 0))))
    """.replace("NOPS", "nop " * 4001)

    @pytest.mark.parametrize("fuel", [None, 10**7])
    def test_mixed_chain_exhausts_at_the_flat_depth(self, fuel):
        # $a is a closure, the pass declines $b (past the closure size
        # limit), and the host function $h calls $a again: the chain
        # recurses until the call stack runs out, at one depth on every
        # tier. $h records the depth it is called at.
        variants = _variants(self.CHAIN)
        spec = variants[2][1]
        assert spec.funcs[0].prepared.compiled is not None
        assert spec.funcs[1].prepared.compiled is None
        seen = []
        for cls, module in variants:
            store = Store()
            depths = []

            def h(n):
                depths.append(interp._depth)
                return interp.invoke(a, [n])

            host = HostModule(store, "env")
            host.func("h", sig("i", "i"), h)
            inst = instantiate(store, module, imports=host.import_map())
            interp = cls(store, fuel=fuel, max_call_depth=24)
            a = inst.export_addr("a", "func")
            with pytest.raises(ExhaustionError, match="call stack exhausted"):
                interp.invoke(a, [0])
            seen.append((depths, interp.instructions_executed, interp.fuel))
        assert seen[0] == seen[1] == seen[2]
        assert seen[2][0] == list(range(2, 25, 2))

    PROVIDER = """
        (module
          (memory (export "mem") 1)
          (data (i32.const 0) "\\6f")
          (table (export "tab") 1 funcref)
          (elem (i32.const 0) $peek)
          (func $peek (param i32) (result i32)
            (i32.add (local.get 0) (i32.load8_u (i32.const 0)))))
    """
    CONSUMER = """
        (module
          (import "x" "tab" (table 1 funcref))
          (memory 1)
          (data (i32.const 0) "\\de")
          (type $t (func (param i32) (result i32)))
          (func (export "run") (param i32) (result i32)
            (call_indirect (type $t) (local.get 0) (i32.const 0))))
    """

    @pytest.mark.parametrize("fuel", [None, 10**6])
    def test_call_indirect_through_an_imported_table(self, fuel):
        # The first call fills the site's cell and the second hits it;
        # both read the provider's memory (0x6f), not the caller's (0xde).
        seen = []
        for (cls, provider), (_, consumer) in zip(
            _variants(self.PROVIDER), _variants(self.CONSUMER)
        ):
            store = Store()
            exports = instantiate(store, provider).exports
            inst = instantiate(store, consumer, imports={"x": exports})
            interp = cls(store, fuel=fuel)
            results = [interp.invoke_export(inst, "run", [k]) for k in (1, 2)]
            seen.append((results, interp.instructions_executed, interp.fuel))
        assert seen[0] == seen[1] == seen[2]
        assert seen[2][0] == [[0x70], [0x71]]

    HOST_TABLE = """
        (module
          (import "env" "h" (func $h (param i32) (result i32)))
          (type $t (func (param i32) (result i32)))
          (table 1 funcref) (elem (i32.const 0) $h)
          (func (export "run") (param i32) (result i32)
            (call_indirect (type $t) (local.get 0) (i32.const 0))))
    """

    @pytest.mark.parametrize("fuel", [None, 10**6])
    def test_host_function_in_a_table(self, fuel):
        # The site's cell keeps the host function and no closure, and
        # each call stores the caller's depth before calling it.
        variants = _variants(self.HOST_TABLE)
        seen = []
        for cls, module in variants:
            store = Store()
            calls = []

            def h(n):
                calls.append((n, interp._depth))
                return [n * 3]

            host = HostModule(store, "env")
            host.func("h", sig("i", "i"), h)
            inst = instantiate(store, module, imports=host.import_map())
            interp = cls(store, fuel=fuel)
            results = [interp.invoke_export(inst, "run", [k]) for k in (5, 7)]
            seen.append((results, calls, interp.instructions_executed, interp.fuel))
        assert seen[0] == seen[1] == seen[2]
        assert seen[2][:2] == ([[15], [21]], [(5, 1), (7, 1)])
        pf = variants[2][1].funcs[0].prepared
        closure = pf.compiled if fuel is None else pf.metered
        (cell,) = [d for d in closure.__defaults__ if isinstance(d, list)]
        assert cell[2].host_fn is not None and cell[3] is None


class TestResultsAcrossTheTierBoundary:
    """Zero, one and two results crossing between closures and the rest.

    A closure returns ``None``, its bare result or a list; everything
    else (``invoke``, ``_call_wasm``, flat code, host functions and every
    call of a profiled run) hands over result lists. Each case runs the
    reference, flat and specialized builds and compares what they return,
    retire and leave in memory.
    """

    SRC = """
        (module
          (import "env" "h0" (func $h0 (param i32)))
          (import "env" "h1" (func $h1 (param i32) (result i32)))
          (import "env" "h2" (func $h2 (param i32) (result i32 i32)))
          (memory 1)
          (func $c0 (export "c0") (param i32)
            (i32.store (i32.const 0) (local.get 0)))
          (func $c1 (export "c1") (param i32) (result i32)
            (i32.add (local.get 0) (i32.const 1)))
          (func $c2 (export "c2") (param i32) (result i32 i32)
            (local.get 0) (i32.mul (local.get 0) (i32.const 3)))
          (func $f0 (param i32)
            NOPS (i32.store (i32.const 4) (local.get 0)))
          (func $f1 (param i32) (result i32)
            NOPS (i32.sub (local.get 0) (i32.const 1)))
          (func $f2 (param i32) (result i32 i32)
            NOPS (i32.const 7) (local.get 0))
          (func (export "from_flat") (param i32) (result i32)
            NOPS
            (call $c0 (local.get 0))
            (call $c2 (local.get 0)) (i32.sub)
            (call $c1 (local.get 0)) (i32.add))
          (func (export "from_closure") (param i32) (result i32)
            (call $f0 (local.get 0))
            (call $h0 (local.get 0))
            (call $f2 (local.get 0)) (i32.sub)
            (call $f1 (local.get 0)) (i32.add)
            (call $h2 (local.get 0)) (i32.xor) (i32.add)
            (call $h1 (local.get 0)) (i32.add)))
    """.replace("NOPS", "nop " * 4001)

    @pytest.fixture(scope="class")
    def variants(self):
        return _variants(self.SRC)

    @pytest.fixture()
    def runs(self, variants):
        return lambda *a, **k: self._runs(variants, *a, **k)

    def _runs(self, variants, func, args, fuel, profiled=False):
        from repro.obs.profile import FunctionProfiler

        spec = variants[2][1]
        compiled = [f.prepared.compiled is not None for f in spec.funcs]
        assert compiled == [True, True, True, False, False, False, False, True]
        seen = []
        for cls, module in variants:
            store = Store()
            host = HostModule(store, "env")
            host.func("h0", sig("i"), lambda n: store.mems[0].data.__setitem__(8, n & 0xFF))
            host.func("h1", sig("i", "i"), lambda n: [n * 5])
            host.func("h2", sig("i", "ii"), lambda n: [n + 2, n ^ 6])
            inst = instantiate(store, module, imports=host.import_map())
            interp = cls(store, fuel=fuel)
            if profiled and cls is Interpreter:
                interp.profiler = FunctionProfiler()
            result = interp.invoke_export(inst, func, list(args))
            mem = bytes(store.mems[inst.mem_addrs[0]].data[:16])
            seen.append((result, interp.instructions_executed, interp.fuel, mem))
        assert seen[1] == seen[0], f"\nflat: {seen[1]}\nref : {seen[0]}"
        assert seen[2] == seen[0], f"\nspec: {seen[2]}\nref : {seen[0]}"
        return seen[0][0]

    @pytest.mark.parametrize("fuel", [None, 10**6])
    def test_invoke_returns_result_lists(self, runs, fuel):
        assert runs("c0", (9,), fuel) == []
        assert runs("c1", (9,), fuel) == [10]
        assert runs("c2", (9,), fuel) == [9, 27]

    @pytest.mark.parametrize("fuel", [None, 10**6])
    def test_flat_code_calling_closures(self, runs, fuel):
        # 9 - 27 + 10, wrapped
        assert runs("from_flat", (9,), fuel) == [(9 - 27 + 10) & 0xFFFFFFFF]

    @pytest.mark.parametrize("fuel", [None, 10**6])
    def test_closure_calling_flat_code_and_host_functions(self, runs, fuel):
        assert runs("from_closure", (9,), fuel) == [
            (7 - 9 + 8 + (11 ^ 15) + 45) & 0xFFFFFFFF
        ]

    @pytest.mark.parametrize("fuel", [None, 10**6])
    @pytest.mark.parametrize("func", ["c1", "c2", "from_flat", "from_closure"])
    def test_under_a_profiler(self, runs, func, fuel):
        # A profiled run takes the generic call path at every call site.
        runs(func, (9,), fuel, profiled=True)


class TestMicroserviceFuel:
    """The full-WASI microservice run out of fuel around each ``fd_write``."""

    def _observe(self, monkeypatch, cls, fuel):
        interps, writes = [], []

        class Recording(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                interps.append(self)

        def fd_write(env, *args):
            writes.append(interps[-1].instructions_executed)
            return original(env, *args)

        original = WasiEnv.fd_write
        monkeypatch.setattr(WasiEnv, "fd_write", fd_write)
        try:
            r = run_wasi(
                build_microservice_wasm(),
                args=["svc"],
                env={"REQUESTS": "3"},
                fuel=fuel,
                interpreter_cls=Recording,
                zygote=False,
            )
            outcome = ("ok", r.exit_code, r.stdout)
        except ExhaustionError as e:
            outcome = ("exhausted", str(e))
        finally:
            monkeypatch.setattr(WasiEnv, "fd_write", original)
        interp = interps[-1]
        return outcome, writes, interp.instructions_executed, interp.fuel

    def test_budgets_around_each_write(self, monkeypatch, flat_tier):
        reset_caches()
        try:
            writes = self._observe(monkeypatch, ReferenceInterpreter, None)[1]
            assert len(writes) == 4
            for k in writes:
                # k - 1 runs out on the call itself, k right after it
                for fuel in (k - 2, k - 1, k, k + 1):
                    ref = self._observe(monkeypatch, ReferenceInterpreter, fuel)
                    assert ref[0][0] == "exhausted"
                    with flat_tier() as specialized:
                        got = self._observe(monkeypatch, Interpreter, fuel)
                        assert got == ref, f"flat fuel={fuel}"
                        assert specialized() == 0
                    # On the tier every function has a metered closure,
                    # and exactly the segment the fuel ran out in deopts.
                    deopts = METERED_DEOPT.value
                    got = self._observe(monkeypatch, Interpreter, fuel)
                    assert got == ref, f"specialized fuel={fuel}"
                    assert METERED_DEOPT.value - deopts == 1
        finally:
            reset_caches()


def _microservice_runs(fuel):
    """The microservice's observable result under each interpreter."""
    results = []
    for cls in INTERPS:
        r = run_wasi(
            build_microservice_wasm(),
            args=["svc"],
            env={"REQUESTS": "3"},
            fuel=fuel,
            interpreter_cls=cls,
        )
        results.append((r.exit_code, r.stdout, r.stderr, r.instructions, r.memory_bytes))
    return results


@pytest.mark.parametrize("fuel", [None, 5_000_000])
@pytest.mark.parametrize("tier", ["off", "on"])
def test_full_wasi_microservice_agrees(tier, fuel, flat_tier):
    # The reference walks the AST and ignores specialization entirely, so
    # it is a fixed oracle for both tiers; the flat interpreter runs
    # whatever the digest cache attached: the closures (``on``), or flat
    # code when the pass declines (``off``).
    reset_caches()
    try:
        if tier == "on":
            results = _microservice_runs(fuel)
        else:
            with flat_tier() as specialized:
                results = _microservice_runs(fuel)
                assert specialized() == 0
        assert results[0] == results[1]
    finally:
        reset_caches()
