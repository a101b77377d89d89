"""Type-checking module validator.

Implements the algorithm from the spec appendix ("Validation Algorithm"):
an operand stack of known/unknown value types and a control stack tracking
label types and unreachability, plus the module-level checks (index bounds,
constant expressions, single memory/table, export uniqueness, alignment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.errors import InvalidModule
from repro.wasm.ast import Expr, Function, Instr, Module
from repro.wasm.opcodes import Imm, OPCODES
from repro.wasm.types import FuncType, GlobalType, MemoryType, TableType, ValType

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64

# Operand-stack entries: a concrete ValType or None = unknown (polymorphic).
StackType = Optional[ValType]

# Simple (inputs -> outputs) signatures for the non-polymorphic ops.
_SIGS: dict[str, Tuple[Tuple[ValType, ...], Tuple[ValType, ...]]] = {}


def _sig(names: str, ins: Tuple[ValType, ...], outs: Tuple[ValType, ...]) -> None:
    for name in names.split():
        _SIGS[name] = (ins, outs)


# Comparisons
_sig("i32.eqz", (I32,), (I32,))
_sig("i64.eqz", (I64,), (I32,))
_sig(
    "i32.eq i32.ne i32.lt_s i32.lt_u i32.gt_s i32.gt_u i32.le_s i32.le_u "
    "i32.ge_s i32.ge_u",
    (I32, I32),
    (I32,),
)
_sig(
    "i64.eq i64.ne i64.lt_s i64.lt_u i64.gt_s i64.gt_u i64.le_s i64.le_u "
    "i64.ge_s i64.ge_u",
    (I64, I64),
    (I32,),
)
_sig("f32.eq f32.ne f32.lt f32.gt f32.le f32.ge", (F32, F32), (I32,))
_sig("f64.eq f64.ne f64.lt f64.gt f64.le f64.ge", (F64, F64), (I32,))
# Integer arithmetic
_sig("i32.clz i32.ctz i32.popcnt i32.extend8_s i32.extend16_s", (I32,), (I32,))
_sig(
    "i64.clz i64.ctz i64.popcnt i64.extend8_s i64.extend16_s i64.extend32_s",
    (I64,),
    (I64,),
)
_sig(
    "i32.add i32.sub i32.mul i32.div_s i32.div_u i32.rem_s i32.rem_u i32.and "
    "i32.or i32.xor i32.shl i32.shr_s i32.shr_u i32.rotl i32.rotr",
    (I32, I32),
    (I32,),
)
_sig(
    "i64.add i64.sub i64.mul i64.div_s i64.div_u i64.rem_s i64.rem_u i64.and "
    "i64.or i64.xor i64.shl i64.shr_s i64.shr_u i64.rotl i64.rotr",
    (I64, I64),
    (I64,),
)
# Float arithmetic
_sig("f32.abs f32.neg f32.ceil f32.floor f32.trunc f32.nearest f32.sqrt", (F32,), (F32,))
_sig("f64.abs f64.neg f64.ceil f64.floor f64.trunc f64.nearest f64.sqrt", (F64,), (F64,))
_sig("f32.add f32.sub f32.mul f32.div f32.min f32.max f32.copysign", (F32, F32), (F32,))
_sig("f64.add f64.sub f64.mul f64.div f64.min f64.max f64.copysign", (F64, F64), (F64,))
# Conversions
_sig("i32.wrap_i64", (I64,), (I32,))
_sig(
    "i32.trunc_f32_s i32.trunc_f32_u i32.trunc_sat_f32_s i32.trunc_sat_f32_u "
    "i32.reinterpret_f32",
    (F32,),
    (I32,),
)
_sig("i32.trunc_f64_s i32.trunc_f64_u i32.trunc_sat_f64_s i32.trunc_sat_f64_u", (F64,), (I32,))
_sig("i64.extend_i32_s i64.extend_i32_u", (I32,), (I64,))
_sig("i64.trunc_f32_s i64.trunc_f32_u i64.trunc_sat_f32_s i64.trunc_sat_f32_u", (F32,), (I64,))
_sig(
    "i64.trunc_f64_s i64.trunc_f64_u i64.trunc_sat_f64_s i64.trunc_sat_f64_u "
    "i64.reinterpret_f64",
    (F64,),
    (I64,),
)
_sig("f32.convert_i32_s f32.convert_i32_u f32.reinterpret_i32", (I32,), (F32,))
_sig("f32.convert_i64_s f32.convert_i64_u", (I64,), (F32,))
_sig("f32.demote_f64", (F64,), (F32,))
_sig("f64.convert_i32_s f64.convert_i32_u", (I32,), (F64,))
_sig("f64.convert_i64_s f64.convert_i64_u f64.reinterpret_i64", (I64,), (F64,))
_sig("f64.promote_f32", (F32,), (F64,))
# Constants
_sig("i32.const", (), (I32,))
_sig("i64.const", (), (I64,))
_sig("f32.const", (), (F32,))
_sig("f64.const", (), (F64,))
# Memory access
_LOAD_TYPE = {
    "i32.load": I32, "i64.load": I64, "f32.load": F32, "f64.load": F64,
    "i32.load8_s": I32, "i32.load8_u": I32, "i32.load16_s": I32, "i32.load16_u": I32,
    "i64.load8_s": I64, "i64.load8_u": I64, "i64.load16_s": I64, "i64.load16_u": I64,
    "i64.load32_s": I64, "i64.load32_u": I64,
}
_STORE_TYPE = {
    "i32.store": I32, "i64.store": I64, "f32.store": F32, "f64.store": F64,
    "i32.store8": I32, "i32.store16": I32,
    "i64.store8": I64, "i64.store16": I64, "i64.store32": I64,
}
_ACCESS_WIDTH = {  # bytes touched — bounds the allowed alignment
    "i32.load": 4, "i64.load": 8, "f32.load": 4, "f64.load": 8,
    "i32.load8_s": 1, "i32.load8_u": 1, "i32.load16_s": 2, "i32.load16_u": 2,
    "i64.load8_s": 1, "i64.load8_u": 1, "i64.load16_s": 2, "i64.load16_u": 2,
    "i64.load32_s": 4, "i64.load32_u": 4,
    "i32.store": 4, "i64.store": 8, "f32.store": 4, "f64.store": 8,
    "i32.store8": 1, "i32.store16": 2,
    "i64.store8": 1, "i64.store16": 2, "i64.store32": 4,
}


@dataclass
class _Ctrl:
    op: str
    start_types: Tuple[ValType, ...]
    end_types: Tuple[ValType, ...]
    height: int
    unreachable: bool = False


@dataclass
class _FuncContext:
    module: Module
    locals: List[ValType]
    return_types: Tuple[ValType, ...]
    stack: List[StackType] = field(default_factory=list)
    ctrls: List[_Ctrl] = field(default_factory=list)

    # -- stack ops (spec appendix) -----------------------------------------

    def push(self, t: StackType) -> None:
        self.stack.append(t)

    def pop(self, expect: StackType = None) -> StackType:
        ctrl = self.ctrls[-1]
        if len(self.stack) == ctrl.height:
            if ctrl.unreachable:
                return expect
            raise InvalidModule(f"stack underflow in {ctrl.op}")
        actual = self.stack.pop()
        if expect is not None and actual is not None and actual != expect:
            raise InvalidModule(f"type mismatch: expected {expect!r}, got {actual!r}")
        return actual if actual is not None else expect

    def push_many(self, types: Tuple[ValType, ...]) -> None:
        for t in types:
            self.push(t)

    def pop_many(self, types: Tuple[ValType, ...]) -> None:
        for t in reversed(types):
            self.pop(t)

    def push_ctrl(self, op: str, start: Tuple[ValType, ...], end: Tuple[ValType, ...]) -> None:
        self.ctrls.append(_Ctrl(op, start, end, len(self.stack)))
        self.push_many(start)

    def pop_ctrl(self) -> _Ctrl:
        if not self.ctrls:
            raise InvalidModule("control stack underflow")
        ctrl = self.ctrls[-1]
        self.pop_many(ctrl.end_types)
        if len(self.stack) != ctrl.height:
            raise InvalidModule(f"values left on stack at end of {ctrl.op}")
        return self.ctrls.pop()

    def set_unreachable(self) -> None:
        ctrl = self.ctrls[-1]
        del self.stack[ctrl.height :]
        ctrl.unreachable = True

    def label_types(self, depth: int) -> Tuple[ValType, ...]:
        if depth >= len(self.ctrls):
            raise InvalidModule(f"branch depth {depth} exceeds nesting {len(self.ctrls)}")
        ctrl = self.ctrls[-1 - depth]
        # Branches to a loop re-enter with its *start* types.
        return ctrl.start_types if ctrl.op == "loop" else ctrl.end_types


def _block_signature(module: Module, bt) -> FuncType:
    if bt is None:
        return FuncType()
    if isinstance(bt, ValType):
        return FuncType((), (bt,))
    if isinstance(bt, int):
        if bt >= len(module.types):
            raise InvalidModule(f"block type index {bt} out of range")
        return module.types[bt]
    raise InvalidModule(f"bad block type {bt!r}")


class _Validator:
    def __init__(self, module: Module) -> None:
        self.module = module
        # Precompute joint index spaces.
        self.func_types: List[FuncType] = []
        self.global_types: List[GlobalType] = []
        self.table_types: List[TableType] = []
        self.mem_types: List[MemoryType] = []
        self.num_imported_globals = 0
        for imp in module.imports:
            if imp.kind == "func":
                if not isinstance(imp.desc, int) or imp.desc >= len(module.types):
                    raise InvalidModule(f"import {imp.module}.{imp.name}: bad type index")
                self.func_types.append(module.types[imp.desc])
            elif imp.kind == "global":
                self.global_types.append(imp.desc)  # type: ignore[arg-type]
                self.num_imported_globals += 1
            elif imp.kind == "table":
                self.table_types.append(imp.desc)  # type: ignore[arg-type]
            elif imp.kind == "mem":
                self.mem_types.append(imp.desc)  # type: ignore[arg-type]
        for func in module.funcs:
            if func.type_idx >= len(module.types):
                raise InvalidModule(f"function type index {func.type_idx} out of range")
            self.func_types.append(module.types[func.type_idx])
        self.global_types.extend(g.type for g in module.globals)
        self.table_types.extend(module.tables)
        self.mem_types.extend(module.mems)

    # -- module-level ---------------------------------------------------------

    def validate(self) -> None:
        m = self.module
        if len(self.mem_types) > 1:
            raise InvalidModule("multiple memories are not allowed (MVP)")
        if len(self.table_types) > 1:
            raise InvalidModule("multiple tables are not allowed (MVP)")

        for i, g in enumerate(m.globals):
            self._check_const_expr(g.init, g.type.valtype, f"global {i}")

        for i, seg in enumerate(m.elems):
            if seg.table_idx >= len(self.table_types):
                raise InvalidModule(f"elem segment {i}: no table {seg.table_idx}")
            self._check_const_expr(seg.offset, I32, f"elem segment {i} offset")
            for f in seg.func_indices:
                if f >= len(self.func_types):
                    raise InvalidModule(f"elem segment {i}: no function {f}")

        for i, seg in enumerate(m.datas):
            if seg.passive:
                continue  # passive segments have no offset to check
            if seg.mem_idx >= len(self.mem_types):
                raise InvalidModule(f"data segment {i}: no memory {seg.mem_idx}")
            self._check_const_expr(seg.offset, I32, f"data segment {i} offset")

        seen_exports: set = set()
        limits = {
            "func": len(self.func_types),
            "table": len(self.table_types),
            "mem": len(self.mem_types),
            "global": len(self.global_types),
        }
        for ex in m.exports:
            if ex.name in seen_exports:
                raise InvalidModule(f"duplicate export name {ex.name!r}")
            seen_exports.add(ex.name)
            if ex.kind not in limits:
                raise InvalidModule(f"bad export kind {ex.kind!r}")
            if ex.index >= limits[ex.kind]:
                raise InvalidModule(
                    f"export {ex.name!r}: {ex.kind} index {ex.index} out of range"
                )

        if m.start is not None:
            if m.start >= len(self.func_types):
                raise InvalidModule(f"start function {m.start} out of range")
            st = self.func_types[m.start]
            if st.params or st.results:
                raise InvalidModule(f"start function must be [] -> [], got {st}")

        n_imported = m.num_imported_funcs()
        for i, func in enumerate(m.funcs):
            self._validate_func(func, self.func_types[n_imported + i])

    def _check_const_expr(self, expr: Expr, expect: ValType, what: str) -> None:
        if len(expr) != 1:
            raise InvalidModule(f"{what}: constant expression must be one instruction")
        ins = expr[0]
        const_types = {
            "i32.const": I32,
            "i64.const": I64,
            "f32.const": F32,
            "f64.const": F64,
        }
        if ins.op in const_types:
            got = const_types[ins.op]
        elif ins.op == "global.get":
            idx = ins.args[0]
            if idx >= self.num_imported_globals:
                raise InvalidModule(f"{what}: global.get must reference an imported global")
            gt = self.global_types[idx]
            if gt.mutable:
                raise InvalidModule(f"{what}: constant global.get must be immutable")
            got = gt.valtype
        else:
            raise InvalidModule(f"{what}: non-constant instruction {ins.op}")
        if got != expect:
            raise InvalidModule(f"{what}: expected {expect!r}, got {got!r}")

    # -- function bodies -----------------------------------------------------------

    def _validate_func(self, func: Function, sig: FuncType) -> None:
        ctx = _FuncContext(
            module=self.module,
            locals=list(sig.params) + list(func.locals),
            return_types=sig.results,
        )
        ctx.push_ctrl("func", (), sig.results)
        self._seq(ctx, func.body)
        ctx.pop_ctrl()
        if ctx.stack:
            raise InvalidModule("operand stack not empty at function end")

    def _seq(self, ctx: _FuncContext, body: Expr) -> None:
        for ins in body:
            self._instr(ctx, ins)

    def _instr(self, ctx: _FuncContext, ins: Instr) -> None:
        op = ins.op
        sig = _SIGS.get(op)
        if sig is not None:
            ctx.pop_many(sig[0])
            ctx.push_many(sig[1])
            if op in _ACCESS_WIDTH:  # consts share _SIGS; loads/stores don't
                pass
            return

        if op == "nop":
            return
        if op == "unreachable":
            ctx.set_unreachable()
            return
        if op in ("block", "loop", "if"):
            bsig = _block_signature(ctx.module, ins.blocktype)
            if op == "if":
                ctx.pop(I32)
            ctx.pop_many(bsig.params)
            ctx.push_ctrl(op, bsig.params, bsig.results)
            self._seq(ctx, ins.body)
            inner = ctx.pop_ctrl()
            if op == "if":
                if ins.else_body or bsig.params or bsig.results:
                    if not ins.else_body and bsig.params != bsig.results:
                        raise InvalidModule("if without else must have matching types")
                if ins.else_body:
                    ctx.push_ctrl("else", inner.start_types, inner.end_types)
                    # Re-run with fresh stack for else arm.
                    self._seq(ctx, ins.else_body)
                    ctx.pop_ctrl()
            ctx.push_many(bsig.results)
            return
        if op == "br":
            depth = ins.args[0]
            ctx.pop_many(ctx.label_types(depth))
            ctx.set_unreachable()
            return
        if op == "br_if":
            depth = ins.args[0]
            ctx.pop(I32)
            types = ctx.label_types(depth)
            ctx.pop_many(types)
            ctx.push_many(types)
            return
        if op == "br_table":
            labels, default = ins.args
            ctx.pop(I32)
            default_types = ctx.label_types(default)
            for l in labels:
                if ctx.label_types(l) != default_types:
                    raise InvalidModule("br_table label type mismatch")
            ctx.pop_many(default_types)
            ctx.set_unreachable()
            return
        if op == "return":
            ctx.pop_many(ctx.return_types)
            ctx.set_unreachable()
            return
        if op == "call":
            idx = ins.args[0]
            if idx >= len(self.func_types):
                raise InvalidModule(f"call to unknown function {idx}")
            fsig = self.func_types[idx]
            ctx.pop_many(fsig.params)
            ctx.push_many(fsig.results)
            return
        if op == "call_indirect":
            if not self.table_types:
                raise InvalidModule("call_indirect requires a table")
            type_idx = ins.args[0]
            if type_idx >= len(ctx.module.types):
                raise InvalidModule(f"call_indirect: type {type_idx} out of range")
            fsig = ctx.module.types[type_idx]
            ctx.pop(I32)
            ctx.pop_many(fsig.params)
            ctx.push_many(fsig.results)
            return
        if op == "drop":
            ctx.pop()
            return
        if op == "select":
            ctx.pop(I32)
            t1 = ctx.pop()
            t2 = ctx.pop(t1)
            ctx.push(t2 if t2 is not None else t1)
            return
        if op in ("local.get", "local.set", "local.tee"):
            idx = ins.args[0]
            if idx >= len(ctx.locals):
                raise InvalidModule(f"{op}: local {idx} out of range")
            lt = ctx.locals[idx]
            if op == "local.get":
                ctx.push(lt)
            elif op == "local.set":
                ctx.pop(lt)
            else:
                ctx.pop(lt)
                ctx.push(lt)
            return
        if op in ("global.get", "global.set"):
            idx = ins.args[0]
            if idx >= len(self.global_types):
                raise InvalidModule(f"{op}: global {idx} out of range")
            gt = self.global_types[idx]
            if op == "global.get":
                ctx.push(gt.valtype)
            else:
                if not gt.mutable:
                    raise InvalidModule(f"global.set on immutable global {idx}")
                ctx.pop(gt.valtype)
            return
        if op in _LOAD_TYPE:
            self._check_mem(ins, op)
            ctx.pop(I32)
            ctx.push(_LOAD_TYPE[op])
            return
        if op in _STORE_TYPE:
            self._check_mem(ins, op)
            ctx.pop(_STORE_TYPE[op])
            ctx.pop(I32)
            return
        if op in ("memory.size", "memory.grow"):
            self._require_mem(op)
            if op == "memory.grow":
                ctx.pop(I32)
            ctx.push(I32)
            return
        if op == "memory.fill":
            self._require_mem(op)
            ctx.pop(I32)
            ctx.pop(I32)
            ctx.pop(I32)
            return
        if op == "memory.copy":
            self._require_mem(op)
            ctx.pop(I32)
            ctx.pop(I32)
            ctx.pop(I32)
            return
        if op == "memory.init":
            self._require_mem(op)
            if ins.args[0] >= len(ctx.module.datas):
                raise InvalidModule(f"memory.init: no data segment {ins.args[0]}")
            ctx.pop(I32)
            ctx.pop(I32)
            ctx.pop(I32)
            return
        if op == "data.drop":
            if ins.args[0] >= len(ctx.module.datas):
                raise InvalidModule(f"data.drop: no data segment {ins.args[0]}")
            return
        raise InvalidModule(f"validator: unhandled instruction {op!r}")

    def _require_mem(self, op: str) -> None:
        if not self.mem_types:
            raise InvalidModule(f"{op} requires a memory")

    def _check_mem(self, ins: Instr, op: str) -> None:
        self._require_mem(op)
        align = ins.args[0]
        width = _ACCESS_WIDTH[op]
        if (1 << align) > width:
            raise InvalidModule(
                f"{op}: alignment 2**{align} exceeds access width {width}"
            )


def validate_module(module: Module) -> Module:
    """Validate ``module``; returns it, marked ``validated``, on success.

    Raises:
        InvalidModule: on any type or index-space violation.
    """
    _Validator(module).validate()
    module.validated = True
    return module
