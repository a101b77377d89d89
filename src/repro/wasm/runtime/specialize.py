"""Specialization tier: digest-keyed closure compilation with a bounds proof.

The flat interpreter (``compile.py``) pays one Python call per flat entry
and re-checks every memory access against the memory's current size.
This module is a second stage over finished :class:`PreparedFunction`
code: it compiles each function to a real Python closure
(``exec``-generated, one ``while`` dispatch loop over basic blocks with
stack slots and locals held in Python local variables). It never
rewrites the flat code. A :class:`SpecializedFunction` shares the
prepared ``code`` tuple and adds only closures, attached as
``PreparedFunction.compiled`` and ``PreparedFunction.metered``.

One analysis, two emissions: every compiled function gets an
unmetered closure (``compiled``) and a metered one (``metered``), and
``Interpreter._call_wasm`` runs the one matching whether the run has
fuel. Both accumulate retired-instruction weights in a local and flush
in a ``finally``, adding pending weights before every trap-capable
statement — ``instructions_executed`` is exact under traps, exactly
like the flat loop. The metered closure also checks the fuel once per
straight-line segment and flushes count and fuel before every call; a
segment the remaining fuel cannot cover deopts to the prepared flat
code from that segment's pc (counted as
``repro_specialize_deopts_total{reason="metered"}``), which exhausts or
traps at exactly the instruction it always would. Functions whose shape
the compiler does not handle (conflicting static stack heights,
``br_table`` entries lowered without a static height, oversized bodies)
silently stay on prepared code (outcome ``bytecode``) in both modes.

The bounds proof feeds both emissions. A per-basic-block abstract
interpretation (:func:`_proven_in_bounds`) tracks unsigned upper bounds
on stack values (constants, ``x & mask`` results, comparison results)
and returns the pcs of loads and stores whose address is provably below
the declared memory *minimum* — a lower bound on the memory's size for
its whole lifetime, since ``grow`` only extends. The closure emits those
accesses without their bounds check.

A call from one closure to another is a plain Python call: the callee's
parameters arrive as positional arguments after its instance, memory and
call depth, and no :class:`~repro.wasm.runtime.interpreter.Frame` is
built. Each call site keeps a cell with the callee's closure of the
caller's kind: a direct call's cell is guarded on the caller's instance,
a ``call_indirect`` cell on ``(table identity, slot address)``. A
``call_indirect`` miss (counted as ``reason="ic_miss"``) checks the
callee's type, with the generic path's exact trap messages, then refills
the cell. Host functions, callees left on flat code and profiled runs
go through ``Interpreter._call_wasm`` or the host function instead.

Every blob the engine caches decode runs this tier's code, or prepared
code where the pass declines. ``engines/cache.py`` keys the result by
content digest (the ``specialize`` layer) so compilation runs once per
blob across N-hundred-pod experiments, and the ReferenceInterpreter
remains the differential oracle for all of it
(``tests/wasm/test_differential.py``).
"""

from __future__ import annotations

import struct
import time
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import ExhaustionError, WasmTrap
from repro.wasm.ast import Function, Module
from repro.wasm.runtime import compile as flat
from repro.wasm.runtime import values as V
from repro.wasm.runtime.compile import (
    PreparedFunction,
    PreparedModule,
    _func_signatures,
    prepare_function,
)
from repro.wasm.runtime.interpreter import Frame
from repro.wasm.runtime.ops import BINOPS, CMPOPS, UNOPS
from repro.wasm.types import PAGE_SIZE

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

# always=True: tests and `repro inspect` consume these functionally.
_FUNCS_TOTAL = obs.counter(
    "repro_specialize_functions_total",
    "functions processed by the specialization tier, by outcome",
    ("outcome",),
    always=True,
)
_DEOPTS_TOTAL = obs.counter(
    "repro_specialize_deopts_total",
    "specialized-code guard failures falling back to a generic path",
    ("reason",),
    always=True,
)
#: real passes are sub-millisecond for the paper workloads; the default
#: request-scale buckets would collapse them into one bin
_PASS_BUCKETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0)
_PASS_SECONDS = obs.histogram(
    "repro_specialize_pass_seconds",
    "wall-clock latency of one specialize_module pass",
    buckets=_PASS_BUCKETS,
    always=True,
)

#: pre-bound children: the metered deopt fires per segment the fuel runs
#: out in, the IC miss per megamorphic call site — neither can afford a
#: labels() lookup.
METERED_DEOPT = _DEOPTS_TOTAL.labels("metered")
_IC_MISS = _DEOPTS_TOTAL.labels("ic_miss")
#: every deopt series a guest run can increment
DEOPT_COUNTERS = (METERED_DEOPT, _IC_MISS)


class SpecializedFunction(PreparedFunction):
    """Prepared code plus its unmetered and metered closures.

    Shares ``code`` with ``fallback``, the unspecialized
    :class:`PreparedFunction`, so a metered closure's deopt runs exactly
    the code a declined function runs. ``fallback`` is kept so a
    corrupt-entry rebuild can always restore baseline code, and so
    re-specializing an already-attached module never stacks tiers.
    ``compiled`` and ``metered`` are both ``None`` when the closure
    compiler declined the function.
    """

    __slots__ = ("fallback",)

    def __init__(self, fallback: PreparedFunction, compiled, metered) -> None:
        super().__init__(
            code=fallback.code,
            n_results=fallback.n_results,
            local_defaults=fallback.local_defaults,
            source_instrs=fallback.source_instrs,
            name=fallback.name,
        )
        self.compiled = compiled
        self.metered = metered
        self.fallback = fallback


# ---------------------------------------------------------------------------
# Bounds proof
# ---------------------------------------------------------------------------


def _memory_min_bytes(module: Module) -> Optional[int]:
    """Declared minimum of memory 0 in bytes — a lifetime lower bound.

    ``MemoryInstance`` starts at the minimum and ``grow`` only extends,
    so an access proven below this line can never go out of bounds, for
    defined and imported memories alike (import limits are checked at
    link time).
    """
    for imp in module.imports:
        if imp.kind == "mem":
            return imp.desc.limits.minimum * PAGE_SIZE
    if module.mems:
        return module.mems[0].limits.minimum * PAGE_SIZE
    return None


_AND32 = BINOPS["i32.and"]
_AND64 = BINOPS["i64.and"]
_EQZ32 = UNOPS["i32.eqz"]
_EQZ64 = UNOPS["i64.eqz"]

#: checked flat memory handler -> (access width, struct packer bind name)
_LOADS = {
    flat.h_i32_load: (4, "LD32"),
    flat.h_i64_load: (8, "LD64"),
    flat.h_f32_load: (4, "LF32"),
    flat.h_f64_load: (8, "LF64"),
}
_STORES = {
    flat.h_i32_store: (4, "ST32"),
    flat.h_i64_store: (8, "ST64"),
    flat.h_f32_store: (4, "SF32"),
    flat.h_f64_store: (8, "SF64"),
}

#: handlers ending a basic block; abstract state dies with the block
_BLOCK_ENDERS = (
    flat.h_goto,
    flat.h_br_adjust,
    flat.h_br_table,
    flat.h_end,
    flat.h_return,
    flat.h_unreachable,
)


def _branch_targets(code) -> Set[int]:
    """Every pc that some branch can land on."""
    targets: Set[int] = set()
    for handler, args, _w in code:
        if handler is flat.h_goto or handler is flat.h_if or handler is flat.h_br_if:
            targets.add(args)
        elif handler is flat.h_br_adjust or handler is flat.h_br_if_adjust:
            targets.add(args[0])
        elif handler is flat.h_cmp_br_if:
            targets.add(args[1])
        elif handler is flat.h_br_table:
            table, default = args
            for t, _want, _arity in table:
                targets.add(t)
            targets.add(default[0])
    return targets


def _proven_in_bounds(module: Module, code, mem_min: Optional[int]) -> Set[int]:
    """The pcs of loads/stores whose address an unsigned upper bound
    proves satisfies ``addr + offset + width <= minimum``.

    The abstract state is a suffix of the operand stack: each slot holds
    an upper bound (values are unsigned by representation, so a bound is
    also a proof of non-negativity) or ``None``. It resets at branch
    targets and block enders; conditional branches only pop. Pops on an
    empty abstract stack model unknown deeper values.
    """
    safe: Set[int] = set()
    if mem_min is None or mem_min <= 0:
        return safe
    targets = _branch_targets(code)
    st: List[Optional[int]] = []

    def pop():
        return st.pop() if st else None

    for pc, (handler, args, _w) in enumerate(code):
        if pc in targets:
            st.clear()
        if handler is flat.h_const:
            st.append(args if isinstance(args, int) else None)
        elif handler is flat.h_local_get or handler is flat.h_global_get:
            st.append(None)
        elif handler is flat.h_memory_size:
            st.append(None)
        elif handler is flat.h_local_set or handler is flat.h_global_set:
            pop()
        elif handler is flat.h_drop:
            pop()
        elif handler is flat.h_local_tee or handler is flat.h_nop:
            pass
        elif handler is flat.h_data_drop:
            pass
        elif handler is flat.h_select:
            pop()
            v2 = pop()
            v1 = pop()
            st.append(None if v1 is None or v2 is None else max(v1, v2))
        elif handler is flat.h_binop:
            b = pop()
            a = pop()
            if args is _AND32 or args is _AND64:
                if a is None:
                    st.append(b)
                elif b is None:
                    st.append(a)
                else:
                    st.append(min(a, b))
            else:
                st.append(None)
        elif handler is flat.h_cmp:
            pop()
            pop()
            st.append(1)
        elif handler is flat.h_unop:
            pop()
            st.append(1 if (args is _EQZ32 or args is _EQZ64) else None)
        elif handler is flat.h_lgg_binop:
            st.append(None)
        elif handler is flat.h_lgg_cmp:
            st.append(1)
        elif handler is flat.h_const_binop:
            c, f = args
            a = pop()
            if (f is _AND32 or f is _AND64) and isinstance(c, int):
                st.append(c if a is None else min(a, c))
            else:
                st.append(None)
        elif handler is flat.h_const_cmp:
            pop()
            st.append(1)
        elif handler is flat.h_lg_i32_load or handler is flat.h_lg_load:
            st.append(None)
        elif handler in _LOADS or handler is flat.h_loadn:
            off, width = (args, _LOADS[handler][0]) if handler in _LOADS else args[:2]
            bound = st[-1] if st else None
            if bound is not None and bound + off + width <= mem_min:
                safe.add(pc)
            pop()
            st.append(None)
        elif handler in _STORES or handler is flat.h_storen:
            off, width = (args, _STORES[handler][0]) if handler in _STORES else args
            bound = st[-2] if len(st) >= 2 else None
            if bound is not None and bound + off + width <= mem_min:
                safe.add(pc)
            pop()
            pop()
        elif handler is flat.h_memory_grow:
            pop()
            st.append(None)
        elif (
            handler is flat.h_memory_fill
            or handler is flat.h_memory_copy
            or handler is flat.h_memory_init
        ):
            pop()
            pop()
            pop()
        elif handler is flat.h_call:
            idx, n_args = args
            for _ in range(n_args):
                pop()
            for _ in range(len(_func_signatures(module)[idx].results)):
                st.append(None)
        elif handler is flat.h_call_indirect:
            ft = args[0]
            for _ in range(len(ft.params) + 1):
                pop()
            for _ in range(len(ft.results)):
                st.append(None)
        elif (
            handler is flat.h_if
            or handler is flat.h_br_if
            or handler is flat.h_br_if_adjust
        ):
            pop()  # condition; fallthrough keeps the rest untouched
        elif handler is flat.h_cmp_br_if:
            pop()
            pop()
        elif handler in _BLOCK_ENDERS:
            st.clear()
        else:  # pragma: no cover - future handlers: be conservative
            st.clear()
    return safe


# ---------------------------------------------------------------------------
# Closure compilation
# ---------------------------------------------------------------------------


class _Unsupported(Exception):
    """Function shape the closure compiler does not handle (stays flat)."""


#: stack-height deltas for every non-control handler the compiler knows
_SIMPLE_DELTAS = {
    flat.h_nop: 0,
    flat.h_local_get: 1,
    flat.h_local_set: -1,
    flat.h_local_tee: 0,
    flat.h_const: 1,
    flat.h_drop: -1,
    flat.h_select: -2,
    flat.h_binop: -1,
    flat.h_cmp: -1,
    flat.h_unop: 0,
    flat.h_global_get: 1,
    flat.h_global_set: -1,
    flat.h_lgg_binop: 1,
    flat.h_lgg_cmp: 1,
    flat.h_const_binop: 0,
    flat.h_const_cmp: 0,
    flat.h_lg_i32_load: 1,
    flat.h_lg_load: 1,
    flat.h_i32_load: 0,
    flat.h_i64_load: 0,
    flat.h_f32_load: 0,
    flat.h_f64_load: 0,
    flat.h_loadn: 0,
    flat.h_i32_store: -2,
    flat.h_i64_store: -2,
    flat.h_f32_store: -2,
    flat.h_f64_store: -2,
    flat.h_storen: -2,
    flat.h_memory_size: 1,
    flat.h_memory_grow: 0,
    flat.h_memory_fill: -3,
    flat.h_memory_copy: -3,
    flat.h_memory_init: -3,
    flat.h_data_drop: 0,
}

_CONTROL = frozenset(
    (
        flat.h_goto,
        flat.h_if,
        flat.h_br_if,
        flat.h_br_adjust,
        flat.h_br_if_adjust,
        flat.h_cmp_br_if,
        flat.h_br_table,
        flat.h_end,
        flat.h_return,
        flat.h_unreachable,
    )
)

_MEMORY_HANDLERS = frozenset(_LOADS) | frozenset(_STORES) | frozenset(
    (
        flat.h_lg_i32_load,
        flat.h_lg_load,
        flat.h_loadn,
        flat.h_storen,
        flat.h_memory_size,
        flat.h_memory_grow,
        flat.h_memory_fill,
        flat.h_memory_copy,
        flat.h_memory_init,
    )
)

#: operator name -> Python expression template (a/b are operand exprs).
#: Everything here is exactly equivalent to the table callable: unsigned
#: representation in, unsigned out (so ``& 31`` on a shift count is the
#: callable's ``% 32``).
_INLINE_BINOPS = {
    "i32.add": "({a} + {b}) & 0xFFFFFFFF",
    "i32.sub": "({a} - {b}) & 0xFFFFFFFF",
    "i32.mul": "({a} * {b}) & 0xFFFFFFFF",
    "i32.and": "{a} & {b}",
    "i32.or": "{a} | {b}",
    "i32.xor": "{a} ^ {b}",
    "i32.shl": "({a} << ({b} & 31)) & 0xFFFFFFFF",
    "i32.shr_u": "{a} >> ({b} & 31)",
    "i64.add": "({a} + {b}) & 0xFFFFFFFFFFFFFFFF",
    "i64.sub": "({a} - {b}) & 0xFFFFFFFFFFFFFFFF",
    "i64.mul": "({a} * {b}) & 0xFFFFFFFFFFFFFFFF",
    "i64.and": "{a} & {b}",
    "i64.or": "{a} | {b}",
    "i64.xor": "{a} ^ {b}",
    "i64.shl": "({a} << ({b} & 63)) & 0xFFFFFFFFFFFFFFFF",
    "i64.shr_u": "{a} >> ({b} & 63)",
    "f64.add": "{a} + {b}",
    "f64.sub": "{a} - {b}",
    "f64.mul": "{a} * {b}",
}

_INLINE_CMPS = {
    "i32.eq": "{a} == {b}",
    "i32.ne": "{a} != {b}",
    "i32.lt_u": "{a} < {b}",
    "i32.gt_u": "{a} > {b}",
    "i32.le_u": "{a} <= {b}",
    "i32.ge_u": "{a} >= {b}",
    "i32.lt_s": "S32({a}) < S32({b})",
    "i32.gt_s": "S32({a}) > S32({b})",
    "i32.le_s": "S32({a}) <= S32({b})",
    "i32.ge_s": "S32({a}) >= S32({b})",
    "i64.eq": "{a} == {b}",
    "i64.ne": "{a} != {b}",
    "i64.lt_u": "{a} < {b}",
    "i64.gt_u": "{a} > {b}",
    "i64.le_u": "{a} <= {b}",
    "i64.ge_u": "{a} >= {b}",
    "i64.lt_s": "S64({a}) < S64({b})",
    "i64.gt_s": "S64({a}) > S64({b})",
    "i64.le_s": "S64({a}) <= S64({b})",
    "i64.ge_s": "S64({a}) >= S64({b})",
    "f32.eq": "{a} == {b}",
    "f32.ne": "{a} != {b}",
    "f32.lt": "{a} < {b}",
    "f32.gt": "{a} > {b}",
    "f32.le": "{a} <= {b}",
    "f32.ge": "{a} >= {b}",
    "f64.eq": "{a} == {b}",
    "f64.ne": "{a} != {b}",
    "f64.lt": "{a} < {b}",
    "f64.gt": "{a} > {b}",
    "f64.le": "{a} <= {b}",
    "f64.ge": "{a} >= {b}",
}

_INLINE_UNOPS = {
    "i32.eqz": "(1 if {a} == 0 else 0)",
    "i64.eqz": "(1 if {a} == 0 else 0)",
    "i32.wrap_i64": "{a} & 0xFFFFFFFF",
    "i64.extend_i32_u": "{a} & 0xFFFFFFFF",
}

_TRAPPING_BINOPS = frozenset(
    (
        "i32.div_s",
        "i32.div_u",
        "i32.rem_s",
        "i32.rem_u",
        "i64.div_s",
        "i64.div_u",
        "i64.rem_s",
        "i64.rem_u",
    )
)


def _trapping_unop(name: Optional[str]) -> bool:
    # Non-saturating float→int truncation traps on NaN / out-of-range.
    return name is None or ("trunc_f" in name and "sat" not in name)


#: callable identity -> opcode name (shared callables share semantics)
_BINOP_NAMES: Dict[object, str] = {}
for _name, _fn in BINOPS.items():
    _BINOP_NAMES.setdefault(_fn, _name)
_CMP_NAMES: Dict[object, str] = {}
for _name, _fn in CMPOPS.items():
    _CMP_NAMES.setdefault(_fn, _name)
_UNOP_NAMES: Dict[object, str] = {}
for _name, _fn in UNOPS.items():
    _UNOP_NAMES.setdefault(_fn, _name)

#: bail out of closure compilation above this many flat entries — the
#: generated if/elif dispatch chain would stop paying for itself
_MAX_CLOSURE_ENTRIES = 4000

_OOB = "out of bounds memory access"

#: the calls that end a metered segment
_CALLS = (flat.h_call, flat.h_call_indirect)

#: metered closure: hand the pending count and its fuel to the interpreter
_FLUSH = (
    "interp.instructions_executed += _n",
    "interp.fuel -= _n",
    "_n = 0",
)


def _ic_type_mismatch(expected, actual):
    raise WasmTrap(
        f"indirect call type mismatch: expected {expected}, got {actual}"
    )


def _deopter(code, name: str):
    """The metered closure's exit to flat code for a segment the fuel
    cannot cover.

    The closure has flushed its count and fuel; this stores its call
    depth in ``interp._depth``, builds a :class:`Frame` from the locals
    it hands over and runs ``code`` from the segment's ``pc`` with the
    operand stack the closure held there. The segment is straight-line
    and costs more than the fuel left, so the flat loop must raise inside
    it: exhaustion, or a trap that comes first. A return is a compiler
    bug, not an exhaustion.
    """

    def deopt(interp, inst, mem, depth, pc, stack, locals_):
        METERED_DEOPT.inc()
        interp._depth = depth
        interp._run(code, Frame(locals_, inst, mem), stack, pc)
        raise RuntimeError(
            f"metered deopt of {name} at pc {pc} returned instead of "
            "exhausting its fuel"
        )

    return deopt


def _cell_filler(kind: str):
    """A call cell's miss handler for closures of ``kind`` (``compiled``
    or ``metered``).

    ``fill(interp, cell, at, fi)`` points ``cell[at:at + 4]`` at ``fi``:
    the function instance, its closure of ``kind`` (``None`` for a host
    function or a function left on flat code), its instance and that
    instance's memory. The caller writes the cell's guard afterwards.
    """

    def fill(interp, cell, at, fi):
        closure = inst = mem = None
        if fi.host_fn is None:
            prepared = fi.code.prepared
            if prepared is not None:
                closure = getattr(prepared, kind)
            inst = fi.module
            mem = inst.mem0
            if mem is None and inst.mem_addrs:
                mem = inst.mem0 = interp.store.mems[inst.mem_addrs[0]]
        cell[at:at + 4] = (fi, closure, inst, mem)

    return fill


_FILL = {False: _cell_filler("compiled"), True: _cell_filler("metered")}

#: helpers a closure may call, each bound as a positional default of the
#: closures whose emission used it
_HELPERS = {
    "WT": WasmTrap,
    "EE": ExhaustionError,
    "SE": V.sign_extend,
    "S32": V.signed32,
    "S64": V.signed64,
    "LD32": _U32.unpack_from,
    "LD64": _U64.unpack_from,
    "LF32": _F32.unpack_from,
    "LF64": _F64.unpack_from,
    "ST32": _U32.pack_into,
    "ST64": _U64.pack_into,
    "SF32": _F32.pack_into,
    "SF64": _F64.pack_into,
    "MISS": _IC_MISS.inc,
    "TMISS": _ic_type_mismatch,
}


class _ClosureCompiler:
    """Compile one prepared flat function to two exec'd Python closures.

    :meth:`compile` analyzes the function once and emits it twice: an
    unmetered closure that never touches fuel, and a metered one. For a
    function with k parameters each closure's signature is
    ``_spec(interp, inst, mem, depth, l0, ..., l{k-1}, <bound helpers>)``:
    ``inst`` and ``mem`` are the function's instance and default memory,
    ``depth`` the activation's call depth, and the helpers positional
    defaults, bound only where the emission used them. The return value is
    the activation's result list. Stack slots live in Python locals
    ``s0..sN`` addressed by *absolute static height* (heights are
    propagated from pc 0 and must be consistent at every join — a
    conflict aborts compilation, keeping the function on prepared code).
    Locals live in ``l0..lK``; the prologue starts the non-parameter ones
    from their defaults, and only a metered deopt hands them on, to the
    :class:`Frame` it builds. Control flow is a ``while True`` loop over
    an ``if pc ==`` chain of basic blocks.

    Instruction accounting matches the flat loop exactly: weights
    accumulate into a local ``_n`` (flushed by ``finally``), and the
    pending count is added *before* any statement that can raise — the
    trapping instruction is charged, later ones are not, same as the
    reference.

    Fuel, in the metered closure: a *segment* runs from a block leader,
    or from the entry after a call, up to and including the next call,
    the block's control entry or the entry before the next leader. With
    ``_f`` the fuel left at the last flush, each segment of weight W
    starts with ``if _n + W > _f:``, which flushes and deopts to the
    flat code at the segment's pc (see :func:`_deopter`). Before each
    call the closure flushes ``_n`` into ``instructions_executed`` and
    ``fuel`` and re-reads ``_f`` after it returns; its ``finally``
    debits only a non-zero ``_n``, so the ``-1`` a callee's exhaustion
    stores stays.

    Loads and stores at the pcs in ``safe`` (see
    :func:`_proven_in_bounds`) are emitted without their bounds check.
    Each call site carries a cell: ``[instance, fi, closure, callee
    instance, callee memory]`` for a direct call, guarded on the caller's
    instance, and ``[table, slot_addr, fi, closure, callee instance,
    callee memory]`` for a ``call_indirect``, guarded on table identity
    and slot address. A miss fills it (:func:`_cell_filler`); a hit on a
    callee with a closure of the caller's kind checks ``depth`` against
    ``interp.max_call_depth`` and calls that closure with ``depth + 1``,
    without going through ``_call_wasm``. Every other call stores
    ``depth`` in ``interp._depth`` first: a host function, a callee on
    flat code and every call of a profiled run.
    """

    def __init__(
        self,
        module: Module,
        func: Function,
        pf: PreparedFunction,
        safe: Set[int],
        name: str,
    ):
        self.code = pf.code
        self.safe = safe
        self.n_results = pf.n_results
        self.sigs = _func_signatures(module)
        self.n_params = len(module.types[func.type_idx].params)
        self.local_defaults = pf.local_defaults
        self.n_locals = self.n_params + len(pf.local_defaults)
        self.name = name
        self.end_pc = len(pf.code) - 1
        if not pf.code or pf.code[self.end_pc][0] is not flat.h_end:
            raise _Unsupported("no terminal h_end")
        if len(pf.code) > _MAX_CLOSURE_ENTRIES:
            raise _Unsupported("function too large")
        self.binds: Dict[str, object] = {}
        self._bind_ids: Dict[int, str] = {}
        self.heights: Dict[int, int] = {}
        self.leaders: Set[int] = set()
        self.uses_memory = False
        self.metered = False  # the emission in progress
        self.uses_store = False  # the emission in progress reads interp.store

    # -- binding ------------------------------------------------------------

    def _bind(self, obj, prefix: str) -> str:
        key = id(obj)
        name = self._bind_ids.get(key)
        if name is None:
            name = f"{prefix}{len(self.binds)}"
            self._bind_ids[key] = name
            self.binds[name] = obj
        return name

    def _helper(self, name: str) -> str:
        """Bind the shared helper ``name`` (see ``_HELPERS``) into the
        closure being emitted; a closure binds only the helpers it uses."""
        if name not in self.binds:
            self.binds[name] = _HELPERS[name]
        return name

    def _fill(self) -> str:
        """Bind the cell filler of this emission's kind."""
        if "FILL" not in self.binds:
            self.binds["FILL"] = _FILL[self.metered]
        return "FILL"

    def _lit(self, value) -> str:
        if isinstance(value, int):
            return repr(value)
        return self._bind(value, "K")  # floats: nan/inf have no literal

    # -- CFG ----------------------------------------------------------------

    def _delta(self, handler, args) -> int:
        delta = _SIMPLE_DELTAS.get(handler)
        if delta is not None:
            return delta
        if handler is flat.h_call:
            idx, n = args
            return len(self.sigs[idx].results) - n
        if handler is flat.h_call_indirect:
            ft = args[0]
            return len(ft.results) - len(ft.params) - 1
        raise _Unsupported(
            f"handler {getattr(handler, '__name__', handler)!r}"
        )

    def _succ(self, pc: int, h: int):
        handler, args, _w = self.code[pc]
        if (
            handler is flat.h_end
            or handler is flat.h_return
            or handler is flat.h_unreachable
        ):
            return []
        if handler is flat.h_goto:
            return [(args, h)]
        if handler is flat.h_if or handler is flat.h_br_if:
            return [(args, h - 1), (pc + 1, h - 1)]
        if handler is flat.h_br_adjust:
            return [(args[0], args[1])]
        if handler is flat.h_br_if_adjust:
            return [(args[0], args[1]), (pc + 1, h - 1)]
        if handler is flat.h_cmp_br_if:
            return [(args[1], h - 2), (pc + 1, h - 2)]
        if handler is flat.h_br_table:
            table, default = args
            out = []
            for target, want, _arity in table + (default,):
                if want < 0:
                    raise _Unsupported("br_table without static height")
                out.append((target, want))
            return out
        return [(pc + 1, h + self._delta(handler, args))]

    def _analyze(self) -> None:
        self.heights[0] = 0
        reachable: Set[int] = set()
        work = [0]
        while work:
            pc = work.pop()
            if pc in reachable:
                continue
            reachable.add(pc)
            handler = self.code[pc][0]
            if handler in _MEMORY_HANDLERS:
                self.uses_memory = True
            for target, th in self._succ(pc, self.heights[pc]):
                if th < 0:
                    raise _Unsupported("negative stack height")
                if target == self.end_pc:
                    continue  # return edges are emitted inline
                known = self.heights.get(target)
                if known is None:
                    self.heights[target] = th
                    work.append(target)
                elif known != th:
                    raise _Unsupported("conflicting stack heights at join")
        self.leaders = {0}
        for pc in reachable:
            if self.code[pc][0] in _CONTROL:
                for target, _th in self._succ(pc, self.heights[pc]):
                    if target != self.end_pc:
                        self.leaders.add(target)

    # -- expression helpers --------------------------------------------------

    def _binop_expr(self, f, a: str, b: str) -> Tuple[str, bool]:
        name = _BINOP_NAMES.get(f)
        template = _INLINE_BINOPS.get(name)
        if template is not None:
            return template.format(a=a, b=b), False
        return (
            f"{self._bind(f, 'F')}({a}, {b})",
            name is None or name in _TRAPPING_BINOPS,
        )

    def _cmp_expr(self, f, a: str, b: str) -> str:
        name = _CMP_NAMES.get(f)
        template = _INLINE_CMPS.get(name)
        if template is not None:
            if template.startswith("S"):  # signed: S32(a) < S32(b)
                self._helper(template[:3])
            return template.format(a=a, b=b)
        return f"{self._bind(f, 'F')}({a}, {b})"

    def _unop_expr(self, f, a: str) -> Tuple[str, bool]:
        name = _UNOP_NAMES.get(f)
        template = _INLINE_UNOPS.get(name)
        if template is not None:
            return template.format(a=a), False
        return f"{self._bind(f, 'F')}({a})", _trapping_unop(name)

    def _ret(self, h: int) -> str:
        r = self.n_results
        if r == 0:
            return "return []"
        values = ", ".join(f"s{h - r + k}" for k in range(r))
        return f"return [{values}]"

    # -- memory helpers ------------------------------------------------------

    def _load_stmts(self, addr: str, off: int, width: int, packer: Optional[str],
                    signed: bool, bits: int, dst: str, checked: bool):
        """Emit one load. ``packer`` is LD32/LD64/LF32/LF64 or ``None``
        for the narrow int path."""
        expr = f"{addr} + {off}" if off else addr
        if checked:
            stmts = [f"_a = {expr}"]
            stmts.append(
                f"if _a < 0 or _a + {width} > len(data):"
                f" raise {self._helper('WT')}({_OOB!r})"
            )
            expr = "_a"
        else:
            stmts = []
        if packer is not None:
            stmts.append(f"{dst} = {self._helper(packer)}(data, {expr})[0]")
            return stmts
        if not checked:
            stmts.append(f"_a = {expr}")
        stmts.append(f"_v = int.from_bytes(data[_a:_a + {width}], 'little')")
        if signed:
            stmts.append(f"{dst} = {self._helper('SE')}(_v, {width * 8}, {bits})")
        else:
            stmts.append(f"{dst} = _v")
        return stmts

    def _store_stmts(self, addr: str, off: int, width: int,
                     packer: Optional[str], value: str, checked: bool):
        expr = f"{addr} + {off}" if off else addr
        stmts = []
        if checked:
            stmts.append(f"_a = {expr}")
            stmts.append(
                f"if _a < 0 or _a + {width} > len(data):"
                f" raise {self._helper('WT')}({_OOB!r})"
            )
            expr = "_a"
        if packer is not None:
            self._helper(packer)
        if packer == "ST32":
            stmts.append(f"ST32(data, {expr}, {value} & 0xFFFFFFFF)")
        elif packer == "ST64":
            stmts.append(f"ST64(data, {expr}, {value} & 0xFFFFFFFFFFFFFFFF)")
        elif packer is not None:  # SF32 / SF64
            stmts.append(f"{packer}(data, {expr}, {value})")
        else:
            if not checked:
                stmts.append(f"_a = {expr}")
            mask = (1 << (width * 8)) - 1
            stmts.append(
                f"data[_a:_a + {width}] = ({value} & {mask})"
                f".to_bytes({width}, 'little')"
            )
        return stmts

    def _call_stmts(self, idx: int, n: int, h: int):
        """Direct ``call`` through this site's cell, guarded on the
        caller's instance: its function index space is fixed, so a hit
        cannot go stale."""
        base = h - n
        results = len(self.sigs[idx].results)
        cell = self._bind([None] * 5, "D")
        stmts = [
            f"_c = {cell}",
            "if _c[0] is not inst:",
            f"    {self._fill()}(interp, _c, 1,"
            f" interp.store.funcs[inst.func_addrs[{idx}]])",
            "    _c[0] = inst",
        ]
        stmts += self._invoke_stmts(1, base, n, results)
        return stmts, base + results

    def _call_indirect_stmts(self, expected, n: int, h: int):
        """``call_indirect`` through this site's monomorphic cell.

        The guard is table *identity* plus slot address: store function
        lists are append-only and ``FuncInstance`` objects are never
        rebound to a different address, so a hit cannot go stale. The
        element checks run on every call and a miss checks the type, so
        the traps and their order are the flat handler's; then it counts
        the miss and refills the cell.
        """
        base = h - 1 - n
        results = len(expected.results)
        wt = self._helper("WT")
        et = self._bind(expected, "ET")
        cell = self._bind([None] * 6, "C")
        self.uses_store = True
        stmts = [
            "_t = store.tables[inst.table_addrs[0]]",
            "_e = _t.elements",
            f"_i = s{h - 1}",
            f"if _i < 0 or _i >= len(_e): raise {wt}('undefined element')",
            "_a = _e[_i]",
            f"if _a is None: raise {wt}('uninitialized element')",
            f"_c = {cell}",
            "if _c[0] is not _t or _c[1] != _a:",
            "    _fi = store.funcs[_a]",
            f"    if _fi.type != {et}: {self._helper('TMISS')}({et}, _fi.type)",
            f"    {self._helper('MISS')}()",
            f"    {self._fill()}(interp, _c, 2, _fi)",
            "    _c[0] = _t",
            "    _c[1] = _a",
        ]
        stmts += self._invoke_stmts(2, base, n, results)
        return stmts, base + results

    def _invoke_stmts(self, at: int, base: int, n: int, results: int):
        """The call through a filled cell ``_c``, for both call kinds.

        ``_c[at]`` is the callee's ``FuncInstance``, then come its
        closure of this emission's kind, its instance and its memory. A
        closure is called directly with the call depth as an argument;
        anything else stores the depth for ``_call_wasm`` or the host
        function first. A profiled run always takes that generic path,
        where the profiler's hooks are.
        """
        args = ", ".join(f"s{base + k}" for k in range(n))
        stmts = [
            f"if _c[{at + 1}] is not None and interp.profiler is None:",
            "    if depth >= interp.max_call_depth:"
            f" raise {self._helper('EE')}('call stack exhausted')",
            f"    _r = _c[{at + 1}](interp, _c[{at + 2}], _c[{at + 3}],"
            f" depth + 1{', ' if args else ''}{args})",
            "else:",
            "    interp._depth = depth",
            f"    _fi = _c[{at}]",
            "    if _fi.host_fn is None:",
            f"        _r = interp._call_wasm(_fi, [{args}])",
            "    else:",
            f"        _r = _fi.host_fn({args})",
        ]
        for k in range(results):
            stmts.append(f"s{base + k} = _r[{k}]")
        return stmts

    # -- per-entry emission --------------------------------------------------

    def _emit_simple(self, pc: int, handler, args, h: int):
        """Return ``(trapping, stmts, new_height)`` for a non-control entry."""
        if handler is flat.h_nop:
            return False, [], h
        if handler is flat.h_local_get:
            return False, [f"s{h} = l{args}"], h + 1
        if handler is flat.h_local_set:
            return False, [f"l{args} = s{h - 1}"], h - 1
        if handler is flat.h_local_tee:
            return False, [f"l{args} = s{h - 1}"], h
        if handler is flat.h_const:
            return False, [f"s{h} = {self._lit(args)}"], h + 1
        if handler is flat.h_drop:
            return False, [], h - 1
        if handler is flat.h_select:
            return False, [f"if not s{h - 1}: s{h - 3} = s{h - 2}"], h - 2
        if handler is flat.h_binop:
            expr, trapping = self._binop_expr(args, f"s{h - 2}", f"s{h - 1}")
            return trapping, [f"s{h - 2} = {expr}"], h - 1
        if handler is flat.h_cmp:
            cond = self._cmp_expr(args, f"s{h - 2}", f"s{h - 1}")
            return False, [f"s{h - 2} = 1 if {cond} else 0"], h - 1
        if handler is flat.h_unop:
            expr, trapping = self._unop_expr(args, f"s{h - 1}")
            return trapping, [f"s{h - 1} = {expr}"], h
        if handler is flat.h_global_get:
            self.uses_store = True
            return (
                False,
                [f"s{h} = store.globals[inst.global_addrs[{args}]].value"],
                h + 1,
            )
        if handler is flat.h_global_set:
            self.uses_store = True
            return (
                True,  # traps on immutable globals
                [f"store.globals[inst.global_addrs[{args}]].set(s{h - 1})"],
                h - 1,
            )
        if handler is flat.h_lgg_binop:
            i, j, f = args
            expr, trapping = self._binop_expr(f, f"l{i}", f"l{j}")
            return trapping, [f"s{h} = {expr}"], h + 1
        if handler is flat.h_lgg_cmp:
            i, j, f = args
            cond = self._cmp_expr(f, f"l{i}", f"l{j}")
            return False, [f"s{h} = 1 if {cond} else 0"], h + 1
        if handler is flat.h_const_binop:
            c, f = args
            expr, trapping = self._binop_expr(f, f"s{h - 1}", self._lit(c))
            return trapping, [f"s{h - 1} = {expr}"], h
        if handler is flat.h_const_cmp:
            c, f = args
            cond = self._cmp_expr(f, f"s{h - 1}", self._lit(c))
            return False, [f"s{h - 1} = 1 if {cond} else 0"], h
        if handler is flat.h_lg_i32_load:
            i, off = args
            return (
                True,
                self._load_stmts(f"l{i}", off, 4, "LD32", False, 32,
                                 f"s{h}", True),
                h + 1,
            )
        if handler is flat.h_lg_load:
            i, off, width, signed, bits, isfloat = args
            packer = (
                ("LF32" if bits == 32 else "LF64") if isfloat else None
            )
            return (
                True,
                self._load_stmts(f"l{i}", off, width, packer, signed, bits,
                                 f"s{h}", True),
                h + 1,
            )
        if handler in _LOADS or handler is flat.h_loadn:
            if handler is flat.h_loadn:
                off, width, signed, bits = args
                packer = None
            else:
                width, packer = _LOADS[handler]
                off, signed, bits = args, False, 0
            checked = pc not in self.safe
            return (
                checked,
                self._load_stmts(f"s{h - 1}", off, width, packer, signed, bits,
                                 f"s{h - 1}", checked),
                h,
            )
        if handler in _STORES or handler is flat.h_storen:
            if handler is flat.h_storen:
                off, width = args
                packer = None
            else:
                width, packer = _STORES[handler]
                off = args
            checked = pc not in self.safe
            return (
                checked,
                self._store_stmts(f"s{h - 2}", off, width, packer,
                                  f"s{h - 1}", checked),
                h - 2,
            )
        if handler is flat.h_memory_size:
            return False, [f"s{h} = len(data) // {PAGE_SIZE}"], h + 1
        if handler is flat.h_memory_grow:
            return (
                False,
                [f"s{h - 1} = mem.grow(s{h - 1}) & 0xFFFFFFFF"],
                h,
            )
        if handler is flat.h_memory_fill:
            self._helper("WT")
            return (
                True,
                [
                    f"_c = s{h - 1}",
                    f"if s{h - 3} + _c > len(data): raise WT({_OOB!r})",
                    f"data[s{h - 3}:s{h - 3} + _c] ="
                    f" bytes([s{h - 2} & 0xFF]) * _c",
                ],
                h - 3,
            )
        if handler is flat.h_memory_copy:
            self._helper("WT")
            return (
                True,
                [
                    f"_c = s{h - 1}",
                    f"if s{h - 2} + _c > len(data) or s{h - 3} + _c >"
                    f" len(data): raise WT({_OOB!r})",
                    f"data[s{h - 3}:s{h - 3} + _c] ="
                    f" data[s{h - 2}:s{h - 2} + _c]",
                ],
                h - 3,
            )
        if handler is flat.h_memory_init:
            self._helper("WT")
            self.uses_store = True
            return (
                True,
                [
                    f"_p = store.datas[inst.data_addrs[{args}]]",
                    "if _p is None:",
                    f"    if s{h - 1} or s{h - 2}: raise WT({_OOB!r})",
                    "    _p = b''",
                    f"if s{h - 2} + s{h - 1} > len(_p) or s{h - 3} +"
                    f" s{h - 1} > len(data): raise WT({_OOB!r})",
                    f"data[s{h - 3}:s{h - 3} + s{h - 1}] ="
                    f" _p[s{h - 2}:s{h - 2} + s{h - 1}]",
                ],
                h - 3,
            )
        if handler is flat.h_data_drop:
            self.uses_store = True
            return (
                False,
                [f"store.datas[inst.data_addrs[{args}]] = None"],
                h,
            )
        if handler is flat.h_call:
            idx, n = args
            stmts, new_h = self._call_stmts(idx, n, h)
            return True, stmts, new_h
        if handler is flat.h_call_indirect:
            expected, n = args
            stmts, new_h = self._call_indirect_stmts(expected, n, h)
            return True, stmts, new_h
        raise _Unsupported(
            f"handler {getattr(handler, '__name__', handler)!r}"
        )

    # -- control emission ----------------------------------------------------

    def _jump(self, target: int, h: int, emit, indent: int) -> None:
        if target == self.end_pc:
            emit(self._ret(h), indent)
        else:
            emit(f"pc = {target}", indent)
            emit("continue", indent)

    def _moves(self, h: int, want: int, arity: int, emit, indent: int) -> None:
        """Register moves implementing the branch stack repair: slide the
        ``arity`` carried values down to the target height."""
        if h == want:
            return
        for k in range(arity):
            emit(f"s{want - arity + k} = s{h - arity + k}", indent)

    def _emit_control(self, pc, handler, args, h, emit) -> Optional[int]:
        """Emit a control entry; returns the fallthrough height, or
        ``None`` for terminal control."""
        if handler is flat.h_end or handler is flat.h_return:
            emit(self._ret(h), 0)
            return None
        if handler is flat.h_unreachable:
            emit(f"raise {self._helper('WT')}('unreachable executed')", 0)
            return None
        if handler is flat.h_goto:
            self._jump(args, h, emit, 0)
            return None
        if handler is flat.h_if:
            emit(f"if not s{h - 1}:", 0)
            self._jump(args, h - 1, emit, 1)
            return h - 1
        if handler is flat.h_br_if:
            emit(f"if s{h - 1}:", 0)
            self._jump(args, h - 1, emit, 1)
            return h - 1
        if handler is flat.h_cmp_br_if:
            f, target = args
            cond = self._cmp_expr(f, f"s{h - 2}", f"s{h - 1}")
            emit(f"if {cond}:", 0)
            self._jump(target, h - 2, emit, 1)
            return h - 2
        if handler is flat.h_br_adjust:
            target, want, arity = args
            self._moves(h, want, arity, emit, 0)
            self._jump(target, want, emit, 0)
            return None
        if handler is flat.h_br_if_adjust:
            target, want, arity = args
            emit(f"if s{h - 1}:", 0)
            self._moves(h - 1, want, arity, emit, 1)
            self._jump(target, want, emit, 1)
            return h - 1
        if handler is flat.h_br_table:
            table, default = args
            emit(f"_i = s{h - 1}", 0)
            for ci, (target, want, arity) in enumerate(table):
                emit(f"{'if' if ci == 0 else 'elif'} _i == {ci}:", 0)
                self._moves(h - 1, want, arity, emit, 1)
                self._jump(target, want, emit, 1)
            target, want, arity = default
            if table:
                emit("else:", 0)
                self._moves(h - 1, want, arity, emit, 1)
                self._jump(target, want, emit, 1)
            else:
                self._moves(h - 1, want, arity, emit, 0)
                self._jump(target, want, emit, 0)
            return None
        raise _Unsupported(
            f"control {getattr(handler, '__name__', handler)!r}"
        )

    def _segment_weight(self, pc: int) -> int:
        """Summed weight of the metered segment starting at ``pc``."""
        total = 0
        while True:
            handler, _args, weight = self.code[pc]
            total += weight
            if handler in _CONTROL or handler in _CALLS:
                return total
            pc += 1
            if pc in self.leaders:
                return total

    def _fuel_check(self, pc: int, h: int, emit) -> None:
        """Metered segment guard: deopt when the fuel left cannot cover
        the segment starting at ``pc`` (stack height ``h``)."""
        weight = self._segment_weight(pc)
        if not weight:
            return
        stack = ", ".join(f"s{k}" for k in range(h))
        locals_ = ", ".join(f"l{i}" for i in range(self.n_locals))
        emit(f"if _n + {weight} > _f:")
        for stmt in _FLUSH:
            emit(stmt, 1)
        if "DEOPT" not in self.binds:
            self.binds["DEOPT"] = _deopter(self.code, self.name)
        emit(f"DEOPT(interp, inst, mem, depth, {pc}, [{stack}], [{locals_}])", 1)

    def _emit_block(self, leader: int, out: List[str]) -> None:
        pc = leader
        h = self.heights[leader]
        pending = 0
        metered = self.metered

        def emit(stmt: str, extra: int = 0) -> None:
            out.append(" " * (16 + 4 * extra) + stmt)

        if metered:
            self._fuel_check(pc, h, emit)
        while True:
            handler, args, weight = self.code[pc]
            call = False
            if handler in _CONTROL:
                total = pending + weight
                if total:
                    emit(f"_n += {total}")
                pending = 0
                h_after = self._emit_control(pc, handler, args, h, emit)
                if h_after is None:
                    return
                h = h_after
            else:
                trapping, stmts, h_after = self._emit_simple(pc, handler, args, h)
                if trapping:
                    total = pending + weight
                    if total:
                        emit(f"_n += {total}")
                    pending = 0
                else:
                    pending += weight
                call = metered and handler in _CALLS
                if call:
                    for stmt in _FLUSH:
                        emit(stmt)
                for stmt in stmts:
                    emit(stmt)
                if call:
                    emit("_f = interp.fuel")
                h = h_after
            pc += 1
            if pc in self.leaders:
                if pending:
                    emit(f"_n += {pending}")
                emit(f"pc = {pc}")
                emit("continue")
                return
            if call:
                self._fuel_check(pc, h, emit)

    # -- top level -----------------------------------------------------------

    def compile(self):
        """``(unmetered, metered)`` closures from one analysis."""
        self._analyze()
        return self._emit(metered=False), self._emit(metered=True)

    def _emit(self, metered: bool):
        self.metered = metered
        self.uses_store = False
        self.binds = {}
        self._bind_ids = {}
        body: List[str] = []
        for bi, leader in enumerate(sorted(self.leaders)):
            body.append(
                f"            {'if' if bi == 0 else 'elif'} pc == {leader}:"
            )
            self._emit_block(leader, body)
        # Bound objects ride in as positional defaults so lookups inside
        # the closure are LOAD_FAST, not module-global dict probes.
        params = "".join(f", l{i}" for i in range(self.n_params))
        params += "".join(f", {k}={k}" for k in self.binds)
        lines = [f"def _spec(interp, inst, mem, depth{params}):"]
        for i, value in enumerate(self.local_defaults, self.n_params):
            lines.append(f"    l{i} = {value!r}")
        if self.uses_store:
            lines.append("    store = interp.store")
        if self.uses_memory:
            lines.append("    data = mem.data")
        lines.append("    _n = 0")
        if metered:
            lines.append("    _f = interp.fuel")
        lines.append("    try:")
        lines.append("        pc = 0")
        lines.append("        while True:")
        lines.extend(body)
        lines.append("    finally:")
        if metered:
            lines.append("        if _n:")
            lines.append("            interp.instructions_executed += _n")
            lines.append("            interp.fuel -= _n")
        else:
            lines.append("        interp.instructions_executed += _n")
        source = "\n".join(lines)
        namespace = dict(self.binds)
        kind = "metered" if metered else "specialized"
        exec(compile(source, f"<{kind}:{self.name}>", "exec"), namespace)
        fn = namespace["_spec"]
        fn.__specialized_source__ = source  # introspection / tests
        return fn


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class SpecializeReport:
    """Per-module pass statistics (tests and `repro inspect`)."""

    __slots__ = ("elided", "compiled", "bytecode")

    def __init__(self) -> None:
        self.elided = 0
        self.compiled = 0
        self.bytecode = 0


def specialize_module(
    module: Module, report: Optional[SpecializeReport] = None
) -> PreparedModule:
    """Specialize every defined function of ``module``.

    Returns a digest-cacheable :class:`PreparedModule` of
    :class:`SpecializedFunction`\\ s; call ``.attach(module)`` to
    activate it.
    Already-specialized attachments are unwrapped through ``fallback``
    first, so re-specializing is idempotent, and any per-function
    failure falls back to the unspecialized prepared code (counted as
    outcome ``failed``) — specialization can lose performance, never
    correctness.
    """
    started = time.perf_counter()
    if report is None:
        report = SpecializeReport()
    mem_min = _memory_min_bytes(module)
    n_imported = len(_func_signatures(module)) - len(module.funcs)
    functions: List[PreparedFunction] = []
    for index, func in enumerate(module.funcs, n_imported):
        pf = func.prepared
        base = getattr(pf, "fallback", None)
        if base is not None:
            pf = base
        if pf is None:
            pf = prepare_function(module, func)
            func.prepared = pf
        try:
            safe = _proven_in_bounds(module, pf.code, mem_min)
            try:
                # Closures are named after their function (its index
                # when the module carries no names), so profilers and
                # tracebacks tell them apart.
                name = pf.name or f"func{index}"
                compiler = _ClosureCompiler(module, func, pf, safe, name)
                compiled, metered = compiler.compile()
            except _Unsupported:
                compiled = metered = None
        except Exception:
            _FUNCS_TOTAL.labels("failed").inc()
            functions.append(pf)
            continue
        if compiled is not None:
            report.compiled += 1
            report.elided += len(safe)
            _FUNCS_TOTAL.labels("compiled").inc()
        else:
            report.bytecode += 1
            _FUNCS_TOTAL.labels("bytecode").inc()
        functions.append(SpecializedFunction(pf, compiled, metered))
    _PASS_SECONDS.observe(time.perf_counter() - started)
    return PreparedModule(functions)


def specialize_counts() -> Dict[str, int]:
    """Functional read of the tier's counters (tests, `repro inspect`)."""
    return {
        "functions_compiled": int(_FUNCS_TOTAL.labels("compiled").value),
        "functions_bytecode": int(_FUNCS_TOTAL.labels("bytecode").value),
        "functions_failed": int(_FUNCS_TOTAL.labels("failed").value),
        "deopts_ic_miss": int(_IC_MISS.value),
        "deopts_metered": int(METERED_DEOPT.value),
    }
