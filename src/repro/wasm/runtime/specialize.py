"""Specialization tier: digest-keyed closure compilation with a bounds proof.

The flat interpreter (``compile.py``) pays one Python call per flat entry
and re-checks every memory access against the memory's current size.
This module is a second stage over finished :class:`PreparedFunction`
code: it compiles each function (``closures.py``) to a real Python
closure (``exec``-generated straight-line source: operand-stack slots
folded into the expressions that consume them, locals in Python local
variables, single-entry basic blocks emitted in place at their jump,
and a ``while`` loop only for the blocks entered from more than one
place). It never rewrites the flat code. A :class:`SpecializedFunction` shares the
prepared ``code`` tuple and adds only closures, attached as
``PreparedFunction.compiled`` and ``PreparedFunction.metered``.

One analysis, two emissions: every compiled function gets an
unmetered closure (``compiled``) and a metered one (``metered``), and
``Interpreter._call_wasm`` runs the one matching whether the run has
fuel. Both count retired-instruction weights at compile time and add
the pending count to ``instructions_executed`` before every statement
that can trap (a ``finally`` flushes it) or, in a closure where nothing
can trap, once per return — ``instructions_executed`` is exact under
traps, exactly like the flat loop. The metered closure also checks the
fuel once per straight-line segment and flushes count and fuel before
every call; a segment the remaining fuel cannot cover deopts to the
prepared flat code from that segment's pc (counted as
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
call depth, no :class:`~repro.wasm.runtime.interpreter.Frame` is built,
and the callee returns ``None``, its one result bare, or a list of
several. Each call site keeps a cell with the callee's closure of the
caller's kind: a direct call's cell is guarded on the caller's instance,
a ``call_indirect`` cell on ``(table identity, slot address)``. A
``call_indirect`` miss (counted as ``reason="ic_miss"``) checks the
callee's type, with the generic path's exact trap messages, then refills
the cell. Host functions, callees left on flat code and profiled runs
go through ``Interpreter._call_wasm`` or the host function instead, and
hand back result lists.

Every blob the engine caches decode runs this tier's code, or prepared
code where the pass declines. ``engines/cache.py`` keys the result by
content digest (the ``specialize`` layer) so compilation runs once per
blob across N-hundred-pod experiments, and the ReferenceInterpreter
remains the differential oracle for all of it
(``tests/wasm/test_differential.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from repro import obs
from repro.wasm.ast import Module
from repro.wasm.runtime import compile as flat
from repro.wasm.runtime.closures import (
    _IC_MISS,
    _LOADS,
    _STORES,
    METERED_DEOPT,
    _ClosureCompiler,
    _Unsupported,
)
from repro.wasm.runtime.compile import (
    PreparedFunction,
    PreparedModule,
    _func_signatures,
    prepare_function,
)
from repro.wasm.runtime.ops import BINOPS, UNOPS
from repro.wasm.types import PAGE_SIZE

# always=True: tests and `repro inspect` consume these functionally.
_FUNCS_TOTAL = obs.counter(
    "repro_specialize_functions_total",
    "functions processed by the specialization tier, by outcome",
    ("outcome",),
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
        elif handler in _BLOCK_ENDERS:
            st.clear()
        else:  # pragma: no cover - future handlers: be conservative
            st.clear()
    return safe


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
