"""Unit tests for the AST → flat-code lowering pass (runtime/compile.py)."""

import pytest

from repro.wasm import parse_wat, validate_module
from repro.wasm.runtime import (
    Interpreter,
    Store,
    instantiate,
    prepare_function,
    prepare_module,
)
from repro.wasm.runtime import compile as rtc


def prepare(src: str, index: int = 0):
    module = validate_module(parse_wat(src))
    return module, prepare_function(module, module.funcs[index])


def handlers(pf):
    return [entry[0] for entry in pf.code]


def count_instrs(body):
    """AST instructions in ``body``, counted as the reference walker
    counts them."""
    n = 0
    for ins in body:
        n += 1
        if ins.op in ("block", "loop", "if"):
            n += count_instrs(ins.body) + count_instrs(ins.else_body or [])
    return n


class TestLowering:
    def test_terminal_entry(self):
        _, pf = prepare('(module (func (export "run")))')
        assert pf.code[-1][0] is rtc.h_end
        assert pf.code[-1][2] == 0  # the implicit end is free

    def test_branch_targets_resolved_to_pcs(self):
        src = """(module (func (export "run") (result i32)
            (block $b (result i32)
              (i32.const 1)
              (br $b))))"""
        _, pf = prepare(src)
        for handler, args, _ in pf.code:
            if handler is rtc.h_goto:
                assert isinstance(args, int) and 0 <= args <= len(pf.code)
                return
        pytest.fail("no goto emitted for br")

    def test_loop_backedge_points_after_header(self):
        # The loop header no-op is charged once on entry; the backward
        # branch must re-enter *after* it or iterations would re-pay it.
        src = """(module (func (export "run") (param i32)
            (loop $l (br_if $l (local.get 0)))))"""
        _, pf = prepare(src)
        hs = handlers(pf)
        header_pc = hs.index(rtc.h_nop)
        branch_pc = next(
            i for i, h in enumerate(hs) if h in (rtc.h_br_if, rtc.h_br_if_adjust)
        )
        target = pf.code[branch_pc][1]
        if isinstance(target, tuple):
            target = target[0]
        assert target == header_pc + 1

    def test_weights_total_source_instructions(self):
        # Sum of weights == number of AST instructions the body contains,
        # counted the way the reference walker counts them.
        src = """(module (func (export "run") (param i32) (result i32)
            (block $b (result i32)
              (i32.add (local.get 0) (i32.const 2)))))"""
        module, pf = prepare(src)
        assert pf.source_instrs == count_instrs(module.funcs[0].body)

    def test_one_entry_per_instruction(self):
        # Every entry weighs 0 or 1, so the metered loop always stops
        # between two entries, exactly where the reference's fuel runs out.
        src = """(module (memory 1)
          (func (export "run") (param i32 i32) (result i32)
            (local $i i32)
            (block $out
              (loop $top
                (local.set $i (i32.add (local.get $i) (i32.const 1)))
                (br_if $out (i32.ge_u (local.get $i) (local.get 0)))
                (br $top)))
            (if (result i32) (i32.lt_s (local.get 0) (local.get 1))
              (then (i32.load (local.get 0)))
              (else (i32.mul (i32.add (local.get 0) (local.get 1))
                             (i32.sub (local.get 0) (i32.const 41)))))))"""
        module, pf = prepare(src)
        weights = [entry[2] for entry in pf.code]
        assert set(weights) == {0, 1}
        assert sum(weights) == pf.source_instrs == count_instrs(module.funcs[0].body)

    def test_unknown_op_rejected(self):
        from repro.errors import WasmTrap
        from repro.wasm.ast import Function, Instr, Module
        from repro.wasm.types import FuncType

        module = Module(types=[FuncType((), ())])
        func = Function(type_idx=0, body=[Instr("bogus.op")])
        module.funcs.append(func)
        with pytest.raises(WasmTrap, match="unknown instruction"):
            prepare_function(module, func)


class TestFusion:
    """A nested expression over locals runs as one flat entry per
    instruction and computes the expected value."""

    def test_fused_semantics(self):
        src = """(module (func (export "run") (param i32 i32) (result i32)
            (i32.mul (i32.add (local.get 0) (local.get 1))
                     (i32.sub (local.get 0) (local.get 1)))))"""
        module = validate_module(parse_wat(src))
        store = Store()
        inst = instantiate(store, module)
        assert Interpreter(store).invoke_export(inst, "run", [10, 3]) == [
            (13 * 7) & 0xFFFFFFFF
        ]


class TestPreparedCaching:
    SRC = """(module (func (export "run") (result i32) (i32.const 5)))"""

    def test_attached_once_per_function_object(self):
        module = validate_module(parse_wat(self.SRC))
        pm1 = prepare_module(module)
        pm2 = prepare_module(module)
        assert pm1.functions[0] is pm2.functions[0]
        assert module.funcs[0].prepared is pm1.functions[0]

    def test_attach_shares_code_across_decodes(self):
        m1 = validate_module(parse_wat(self.SRC))
        m2 = validate_module(parse_wat(self.SRC))
        pm = prepare_module(m1)
        pm.attach(m2)
        assert m2.funcs[0].prepared is m1.funcs[0].prepared

    def test_lazy_prepare_on_first_call(self):
        module = validate_module(parse_wat(self.SRC))
        assert module.funcs[0].prepared is None
        store = Store()
        inst = instantiate(store, module)
        assert Interpreter(store).invoke_export(inst, "run") == [5]
        assert module.funcs[0].prepared is not None
