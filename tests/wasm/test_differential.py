"""Differential testing: prepared and specialized code vs the reference.

Every case executes the same module through the reference tree-walker,
the prepared flat interpreter, and the specialization tier (exec'd
Python closures where compilable) and asserts identical observable
behaviour: result values (including float bit patterns), trap type and
message, fuel accounting, total ``instructions_executed``, and final
linear-memory contents. Metered runs (``fuel`` set) exercise the
prepared flat code through the metered-deopt path; unmetered runs
exercise the compiled closures.
"""

import pytest

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
from repro.workloads.microservice import build_microservice_wasm

INTERPS = (Interpreter, ReferenceInterpreter)


def _observe(cls, src, func, args, fuel, specialize=False):
    """Run one interpreter; capture (outcome, instr count, fuel left, memory)."""
    module = validate_module(parse_wat(src))
    if specialize:
        prepare_module(module)
        specialize_module(module).attach(module)
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
}


@pytest.mark.parametrize("name", sorted(MODULES))
@pytest.mark.parametrize("arg", [0, 1, 2, 7, 13])
def test_corpus_agrees(name, arg):
    src = MODULES[name]
    if "param i32 i32" in src:
        args = (arg, arg % 2)
    elif "(param f64)" in src:
        args = (float(arg),)
    elif "(param" in src.split("func", 2)[-1]:
        args = (arg,)
    else:
        args = ()
    check(src, args=args)


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
        # The `local.get i32.load` superinstruction must trap identically.
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
        # debiting through fused superinstructions and block headers.
        cost = self._count(7)
        for fuel in [0, 1, 2, 3, cost - 2, cost - 1, cost, cost + 1]:
            check(self.SRC, args=(7,), fuel=fuel)

    def test_fuel_boundary_in_memory_loop(self):
        src = MODULES["memory_churn"]
        _, cost, _, _ = _observe(Interpreter, src, "run", (50,), None)
        for fuel in [cost // 2, cost - 1, cost, cost + 3]:
            check(src, args=(50,), fuel=fuel)


@pytest.mark.parametrize("fuel", [None, 5_000_000])
@pytest.mark.parametrize("spec_mode", ["off", "on"])
def test_full_wasi_microservice_agrees(spec_mode, fuel, monkeypatch):
    # The reference walks the AST and ignores specialization entirely, so
    # it is a fixed oracle across both modes; the flat interpreter
    # picks up whatever the digest cache attached for the current mode.
    from repro.engines.cache import reset_caches

    monkeypatch.setenv("REPRO_SPECIALIZE", spec_mode)
    reset_caches()
    try:
        blob = build_microservice_wasm()
        results = []
        for cls in INTERPS:
            r = run_wasi(
                blob,
                args=["svc"],
                env={"REQUESTS": "3"},
                fuel=fuel,
                interpreter_cls=cls,
            )
            results.append(
                (r.exit_code, r.stdout, r.stderr, r.instructions, r.memory_bytes)
            )
        assert results[0] == results[1]
    finally:
        reset_caches()
