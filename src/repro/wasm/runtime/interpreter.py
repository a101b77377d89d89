"""Flat-code Wasm interpreter: a pc loop over prepared linear code.

Function bodies are lowered once by :mod:`repro.wasm.runtime.compile`
into tuples of ``(handler, args, weight)`` triples with branch targets
resolved to pc values; execution is then a tight loop of

    handler, args, weight = code[pc]
    pc = handler(self, frame, stack, args, pc)

with no per-step opcode comparison and no exception-driven control flow.
The public API is byte-compatible with the original tree-walker (kept as
:class:`~repro.wasm.runtime.reference.ReferenceInterpreter`): ``invoke``
/ ``invoke_export`` signatures, fuel semantics (debited per source
instruction *before* it executes; ``ExhaustionError("fuel exhausted")``
with the exhausting instruction not counted), ``instructions_executed``
(counts source AST instructions: a flat entry weighs 1, or 0 for a jump
the reference does not count), and all trap messages.

Fuel bookkeeping is hoisted out of the common path: when ``fuel`` is
``None`` the loop accumulates the count in a local and flushes it once
per activation (a ``try/finally`` keeps the count exact across traps),
so the unmetered configuration pays no per-instruction conditional.

Most guest code never reaches this loop: ``_call_wasm`` runs a
function's compiled closure (``specialize.py``) instead, the unmetered
one when ``fuel`` is ``None`` and the metered one otherwise, with the
arguments as positional parameters and the call depth as one more. The
loop is the exact fallback for functions the closure compiler declines,
modules that never pass through the engine caches, and the segment of a
metered run in which the fuel runs out. A closure returns ``None``, its
one result or a list of several, and ``_call_wasm`` turns that back
into the result list it always returns. A closure calls another closure
directly, so a guest run enters ``_call_wasm`` once, from the export
call, and builds no :class:`Frame`; ``_depth`` holds the depth only
where an activation leaves the closures (a flat activation, a host
function, a deopt), and ``_call_wasm`` restores the depth it saved on
entry whatever happened below it. The metered closure checks fuel once
per straight-line segment and hands a segment the remaining fuel cannot
cover back to this loop (``_run`` from that segment's ``pc``), which
then exhausts or traps at exactly the instruction it always would.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence

from repro.errors import ExhaustionError, WasmTrap
from repro.wasm.runtime.compile import prepare_function
from repro.wasm.runtime.store import FuncInstance, ModuleInstance, Store


class Frame:
    """Activation record of the flat loop: locals, owning instance, and
    its default memory.

    Compiled closures keep their locals in Python locals and build none;
    a metered closure's deopt builds one from the locals it hands over.
    The memory is resolved once per call (and cached on the instance):
    ``MemoryInstance.grow`` extends the bytearray in place, so a cached
    reference stays valid across ``memory.grow``.
    """

    __slots__ = ("locals", "instance", "mem")

    def __init__(self, locals_: List[object], instance: ModuleInstance, mem) -> None:
        self.locals = locals_
        self.instance = instance
        self.mem = mem


class Interpreter:
    """Executes functions from a :class:`Store` by running prepared flat code."""

    def __init__(
        self,
        store: Store,
        fuel: Optional[int] = None,
        max_call_depth: int = 400,
    ) -> None:
        # A guest call costs 3 Python frames in the flat scheme (the call
        # handler -> _call_wasm -> _run) and 1 from closure to closure;
        # budget 6 per guest frame for headroom (host functions,
        # instantiation nesting) plus a 1000 frame base for the embedder.
        # The limit is raised, never lowered or restored: it is
        # process-global and other live interpreters may depend on it.
        needed = 1000 + max_call_depth * 6
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        self.store = store
        self.fuel = fuel
        self.max_call_depth = max_call_depth
        self._depth = 0
        self.instructions_executed = 0
        #: attached FunctionProfiler (obs.profile) or None; the None
        #: check is the whole disabled-path cost
        self.profiler = None

    # -- public ----------------------------------------------------------------

    def invoke(self, func_addr: int, args: Sequence[object] = ()) -> List[object]:
        """Call a function by store address with Python-level arguments."""
        fi = self.store.funcs[func_addr]
        if len(args) != len(fi.type.params):
            raise WasmTrap(
                f"bad argument count for {fi.name or func_addr}: "
                f"expected {len(fi.type.params)}, got {len(args)}"
            )
        if fi.is_host:
            result = fi.host_fn(*args)  # type: ignore[misc]
            return list(result) if result is not None else []
        return self._call_wasm(fi, list(args))

    def invoke_export(self, instance: ModuleInstance, name: str, args: Sequence[object] = ()):
        return self.invoke(instance.export_addr(name, "func"), args)

    # -- function activation ---------------------------------------------------

    def _call_wasm(self, fi: FuncInstance, args: List[object]) -> List[object]:
        depth = self._depth
        if depth >= self.max_call_depth:
            raise ExhaustionError("call stack exhausted")
        code_obj = fi.code
        prepared = code_obj.prepared
        if prepared is None:
            # Lazy prepare for instances outside the engine cache; the
            # result is keyed to the Function object so it happens once.
            prepared = prepare_function(fi.module.module, code_obj)
            code_obj.prepared = prepared
        inst = fi.module
        mem = inst.mem0
        if mem is None and inst.mem_addrs:
            mem = inst.mem0 = self.store.mems[inst.mem_addrs[0]]
        compiled = prepared.compiled if self.fuel is None else prepared.metered
        prof = self.profiler
        if prof is not None:
            # Inner activations flush their counts before they return,
            # so the delta seen here is inclusive.
            prof.enter(fi.name or "<anonymous>")
            base = self.instructions_executed
        # The finally restores the depth saved on entry rather than
        # decrementing: a closure carries its depth as an argument and
        # stores it here only before leaving the closure tier, so what an
        # activation leaves behind is not its entry depth.
        try:
            if compiled is not None:
                # The exec'd closure of the run's kind takes the
                # parameters as positional arguments, flushes its own
                # retired-instruction count (and fuel, when metered) and
                # raises the same traps as the flat code.
                result = compiled(self, inst, mem, depth + 1, *args)
            else:
                if prepared.local_defaults:
                    args.extend(prepared.local_defaults)  # `args` is a fresh list
                stack: List[object] = []
                self._depth = depth + 1
                self._run(prepared.code, Frame(args, inst, mem), stack)
        finally:
            self._depth = depth
            if prof is not None:
                prof.exit(self.instructions_executed - base)
        n = prepared.n_results
        if compiled is None:
            # A branch to the function label leaves garbage below its
            # carried values; the epilogue discards it (spec return).
            return stack if len(stack) == n else stack[len(stack) - n:]
        # A closure returns None, its one result or a list of several.
        if n == 1:
            return [result]
        return result if n else []

    # -- dispatch loop ---------------------------------------------------------

    def _run(self, code, frame: Frame, stack: List[object], pc: int = 0) -> None:
        """Execute ``code`` from ``pc`` until the activation returns.

        A metered closure's deopt enters mid-function: ``pc`` is the
        segment it hands over and ``stack`` the operands it held there.
        """
        if self.fuel is None:
            # Unmetered: count in a local, flush once. The finally keeps
            # `instructions_executed` exact when a handler traps (the
            # trapping instruction is charged, as in the reference), and
            # the deltas commute across the nested activations.
            n_exec = 0
            try:
                while pc >= 0:
                    handler, args, weight = code[pc]
                    n_exec += weight
                    pc = handler(self, frame, stack, args, pc)
            finally:
                self.instructions_executed += n_exec
        else:
            while pc >= 0:
                handler, args, weight = code[pc]
                left = self.fuel - weight
                if left < 0:
                    # Entries weigh 0 or 1: the one that exhausts is not
                    # counted, as in the reference.
                    self.fuel = -1
                    raise ExhaustionError("fuel exhausted")
                self.fuel = left
                self.instructions_executed += weight
                pc = handler(self, frame, stack, args, pc)
