"""Closure compilation: prepared flat code to exec'd straight-line Python.

The specialization tier (``specialize.py``) hands each function's
prepared flat code and its bounds proof to :class:`_ClosureCompiler`,
which analyzes it once and emits two closures from that analysis, an
unmetered and a metered one. This module also holds what the emitted
code binds and calls at run time: the struct packers, the metered
deopt into the flat loop, the call cells' fillers and the deopt
counters.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set

from repro import obs
from repro.errors import ExhaustionError, WasmTrap
from repro.wasm.ast import Function, Module
from repro.wasm.runtime import compile as flat
from repro.wasm.runtime import values as V
from repro.wasm.runtime.compile import PreparedFunction, _func_signatures
from repro.wasm.runtime.interpreter import Frame
from repro.wasm.runtime.ops import BINOPS, CMPOPS, UNOPS
from repro.wasm.types import PAGE_SIZE

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

# always=True: tests and `repro inspect` consume these functionally.
_DEOPTS_TOTAL = obs.counter(
    "repro_specialize_deopts_total",
    "specialized-code guard failures falling back to a generic path",
    ("reason",),
    always=True,
)
#: pre-bound children: the metered deopt fires per segment the fuel runs
#: out in, the IC miss per megamorphic call site — neither can afford a
#: labels() lookup.
METERED_DEOPT = _DEOPTS_TOTAL.labels("metered")
_IC_MISS = _DEOPTS_TOTAL.labels("ic_miss")
#: every deopt series a guest run can increment
DEOPT_COUNTERS = (METERED_DEOPT, _IC_MISS)

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
        flat.h_br_table,
        flat.h_end,
        flat.h_return,
        flat.h_unreachable,
    )
)

_MEMORY_HANDLERS = frozenset(_LOADS) | frozenset(_STORES) | frozenset(
    (
        flat.h_loadn,
        flat.h_storen,
        flat.h_memory_size,
        flat.h_memory_grow,
        flat.h_memory_fill,
        flat.h_memory_copy,
        flat.h_memory_init,
    )
)

#: Python operator precedence, loosest first. A folded slot's source is
#: parenthesized where its consumer binds tighter.
_COND, _CMP, _BOR, _BXOR, _BAND, _SHIFT, _ADD, _MUL, _ATOM = range(1, 10)

_BITS = {"i32": 32, "i64": 64}
_MASK_TEXT = {32: "0xFFFFFFFF", 64: "0xFFFFFFFFFFFFFFFF"}
_ARITH = {"add": ("+", _ADD), "sub": ("-", _ADD), "mul": ("*", _MUL)}
_BITWISE = {"and": ("&", _BAND), "or": ("|", _BOR), "xor": ("^", _BXOR)}
_CMP_OPS = {"eq": "==", "ne": "!=", "lt": "<", "gt": ">", "le": "<=", "ge": ">="}

#: operators emitted as Python expressions; every other one calls its
#: table callable. Each is exactly equivalent to the callable: unsigned
#: representation in, unsigned out (so ``& 31`` on a shift count is the
#: callable's ``% 32``).
_INLINE_BINOPS = frozenset(
    [f"{t}.{op}" for t in _BITS for op in (*_ARITH, *_BITWISE, "shl", "shr_u")]
    + [f"f64.{op}" for op in _ARITH]
)
_INLINE_CMPS = frozenset(
    [f"{t}.{op}" for t in _BITS for op in ("eq", "ne")]
    + [f"{t}.{op}_{s}" for t in _BITS for op in ("lt", "gt", "le", "ge") for s in "su"]
    + [f"{t}.{op}" for t in ("f32", "f64") for op in _CMP_OPS]
)
_INLINE_UNOPS = frozenset(("i32.eqz", "i64.eqz", "i32.wrap_i64", "i64.extend_i32_u"))

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

#: bail out of closure compilation above this many flat entries: the
#: source of such a body costs more to generate and compile than its
#: runs save, and its multi-entry blocks make a long ``if pc ==`` chain
_MAX_CLOSURE_ENTRIES = 4000

#: deepest indentation level at which a single-entry block is still
#: emitted in place; deeper ones become dispatch arms. CPython's
#: tokenizer stops at 100 levels, and a block nests a few of its own.
_MAX_INDENT = 90

#: indentation by level, up to the deepest any emission reaches
_PAD = tuple("    " * level for level in range(_MAX_INDENT + 8))

#: a folded expression nested deeper than this is assigned to its slot
#: (CPython's parser stops at 200 nested parentheses)
_MAX_EXPR_DEPTH = 24

_OOB = "out of bounds memory access"

#: the calls that end a metered segment
_CALLS = (flat.h_call, flat.h_call_indirect)

#: handlers whose statement can always raise
_ALWAYS_TRAPS = frozenset(
    (
        flat.h_call,
        flat.h_call_indirect,
        flat.h_global_set,  # immutable globals
        flat.h_memory_fill,
        flat.h_memory_copy,
        flat.h_memory_init,
        flat.h_unreachable,
    )
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


class _Expr:
    """A folded operand-stack slot: the Python source of its value.

    ``reads`` names the variables the source reads (locals ``lK`` and
    slots ``sK``), ``state`` marks a read of memory or globals, ``cond``
    is a comparison's bare test for a branch or ``select`` consuming it,
    ``ring`` is ``(bits, unmasked)`` for a masked add, sub, mul or shl
    (a consumer that masks anyway can drop the mask), ``const`` is an
    integer literal's value and ``depth`` the source's nesting.
    """

    __slots__ = ("text", "prec", "reads", "state", "cond", "ring", "const", "depth")

    def __init__(self, text, prec=_ATOM, reads=frozenset(), state=False,
                 cond=None, ring=None, const=None, depth=0):
        self.text = text
        self.prec = prec
        self.reads = reads
        self.state = state
        self.cond = cond
        self.ring = ring
        self.const = const
        self.depth = depth


def _var(name: str) -> _Expr:
    return _Expr(name, reads=frozenset((name,)))


def _join(text: str, prec: int, *parts: _Expr, state=False, cond=None) -> _Expr:
    """An expression over ``parts``: it reads what they read."""
    first = parts[0]
    reads, depth = first.reads, first.depth
    state = state or first.state
    for p in parts[1:]:
        reads = reads | p.reads
        depth = max(depth, p.depth)
        state = state or p.state
    return _Expr(text, prec, reads, state, cond, depth=depth + 1)


def _par(e: _Expr, prec: int) -> str:
    return e.text if e.prec >= prec else f"({e.text})"


def _bitpar(e: _Expr, prec: int, right: bool = False) -> str:
    # Bitwise operands are parenthesized unless atoms or the same
    # operator on the left: `(a + b) & m`, not `a + b & m`.
    if e.prec == _ATOM or (e.prec == prec and not right):
        return e.text
    return f"({e.text})"


def _cmppar(e: _Expr) -> str:
    return e.text if e.prec >= _ADD else f"({e.text})"


def _test(e: _Expr) -> str:
    """``e`` as the test of an ``if``."""
    return e.cond if e.cond is not None else _par(e, _CMP)


def _unring(e: _Expr, bits: int) -> _Expr:
    """``e`` without its mask, for a consumer masking to ``bits`` or fewer."""
    return e.ring[1] if e.ring is not None and e.ring[0] >= bits else e


def _arith(a: _Expr, sym: str, prec: int, b: _Expr) -> _Expr:
    return _join(f"{_par(a, prec)} {sym} {_par(b, prec + 1)}", prec, a, b)


def _masked(inner: _Expr, bits: int) -> _Expr:
    e = _join(f"{_bitpar(inner, _BAND)} & {_MASK_TEXT[bits]}", _BAND, inner)
    e.ring = (bits, inner)
    return e


class _TooDeep(Exception):
    """A block would be emitted in place past ``_MAX_INDENT``."""

    def __init__(self, leader: int) -> None:
        super().__init__(leader)
        self.leader = leader


class _ClosureCompiler:
    """Compile one prepared flat function to two exec'd Python closures.

    :meth:`compile` analyzes the function once and emits it twice: an
    unmetered closure that never touches fuel, and a metered one. For a
    function with k parameters each closure's signature is
    ``_spec(interp, inst, mem, depth, l0, ..., l{k-1}, <bound helpers>)``:
    ``inst`` and ``mem`` are the function's instance and default memory,
    ``depth`` the activation's call depth, and the helpers positional
    defaults, bound only where the emission used them. It returns
    ``None`` for no result, the bare value for one and a list for more.
    Locals live in ``l0..lK``; the prologue starts the non-parameter ones
    from their defaults, and only a metered deopt hands them on, to the
    :class:`Frame` it builds.

    Operand-stack slots are *folded*: within a straight-line run each
    slot is the Python expression of its value (:class:`_Expr`), placed
    into its one consumer, so ``local.get local.get i32.add local.set``
    is one assignment. A slot is assigned to its variable ``sN``
    (*absolute static height*; heights are propagated from pc 0 and must
    agree at every join, or the function stays on prepared code) before
    anything its expression depends on changes: before a write of a
    local or slot it reads, and, when it reads memory or globals, before
    a store, call, ``global.set``, ``memory.grow`` or bulk-memory op.
    Expressions that can trap are assigned where they occur, so every
    trap keeps its place. At a branch every live slot is in its variable.

    Control flow: a basic block with exactly one incoming edge (every
    ``br_table`` entry counts as one) is emitted in place at its jump,
    down to ``_MAX_INDENT``; the entry block runs before any loop when
    nothing jumps back to it. The remaining blocks are *dispatch arms*:
    one becomes the body of a ``while True`` whose jumps back to it are
    ``continue``; several become an ``if pc ==`` chain inside it. A
    function left with no arm has no loop.

    Instruction accounting matches the flat loop exactly: weights
    accumulate in a compile-time *pending* count, which a conditional
    branch carries into both of its paths. It is added to the local
    ``_n`` before every statement that can raise (the trapping
    instruction is charged, later ones are not) and before a jump to a
    dispatch arm, and ``interp.instructions_executed`` receives ``_n`` in
    a ``finally``. A closure with no statement that can raise has no
    ``try``: each return adds its count itself, and a loop-free one has
    no ``_n`` at all.

    Fuel, in the metered closure: a *segment* runs from a block leader,
    or from the entry after a call, up to and including the next call,
    the block's control entry or the entry before the next leader. With
    ``_f`` the fuel left at the last flush, each segment of weight W
    starts with ``if _n + pending + W > _f:``, which flushes and deopts
    to the flat code at the segment's pc (see :func:`_deopter`) with the
    slots, all in their variables there, as its operand stack. Before
    each call the closure flushes its count into
    ``instructions_executed`` and ``fuel`` and re-reads ``_f`` after it
    returns; its ``finally`` debits only a non-zero ``_n``, so the ``-1``
    a callee's exhaustion stores stays.

    Loads and stores at the pcs in ``safe`` (see
    :func:`_proven_in_bounds`) are emitted without their bounds check.
    Each call site carries a cell: ``[instance, fi, closure, callee
    instance, callee memory]`` for a direct call, guarded on the caller's
    instance, and ``[table, slot_addr, fi, closure, callee instance,
    callee memory]`` for a ``call_indirect``, guarded on table identity
    and slot address. A miss fills it (:func:`_cell_filler`); a hit on a
    callee with a closure of the caller's kind checks ``depth`` against
    ``interp.max_call_depth`` and calls that closure with ``depth + 1``,
    assigning its result straight to the slot or to the local a
    following ``local.set`` names. Every other call stores ``depth`` in
    ``interp._depth`` first and takes the result list of
    ``_call_wasm`` or the host function: a host function, a callee on
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
        self.arms: Set[int] = set()  # blocks with more than one entry
        self.traps = False  # some reachable statement can raise
        self.uses_memory = False
        # the emission in progress
        self.metered = False
        self.uses_store = False  # reads interp.store
        self.dispatch: Set[int] = set()  # its dispatch arms
        self.use_n = False  # keeps a runtime count `_n`
        self.in_loop = False  # emitting inside `while True`
        self.pending = 0  # weights retired but not yet added to `_n`
        self.stack: List[Optional[_Expr]] = []  # None: the slot's variable
        self.out: List[str] = []

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

    def _lit(self, value) -> _Expr:
        if isinstance(value, int):
            return _Expr(repr(value), const=value)
        return _Expr(self._bind(value, "K"))  # floats: nan/inf have no literal

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
        if handler is flat.h_br_table:
            table, default = args
            out = []
            for target, want, _arity in table + (default,):
                if want < 0:
                    raise _Unsupported("br_table without static height")
                out.append((target, want))
            return out
        return [(pc + 1, h + self._delta(handler, args))]

    def _can_trap(self, pc: int) -> bool:
        """Whether the statement emitted for ``pc`` can raise."""
        handler, args, _w = self.code[pc]
        if handler in _ALWAYS_TRAPS:
            return True
        if handler in _LOADS or handler in _STORES:
            return pc not in self.safe
        if handler is flat.h_loadn or handler is flat.h_storen:
            return pc not in self.safe
        if handler is flat.h_unop:
            name = _UNOP_NAMES.get(args)
            return name not in _INLINE_UNOPS and _trapping_unop(name)
        if handler is not flat.h_binop:
            return False
        name = _BINOP_NAMES.get(args)
        return name not in _INLINE_BINOPS and (
            name is None or name in _TRAPPING_BINOPS
        )

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
        # Incoming edges per block: the function entry, every branch
        # edge (one per br_table entry) and every fall-through.
        edges = dict.fromkeys(self.leaders, 0)
        edges[0] = 1
        for pc in reachable:
            if self._can_trap(pc):
                self.traps = True
            if self.code[pc][0] in _CONTROL:
                for target, _th in self._succ(pc, self.heights[pc]):
                    if target != self.end_pc:
                        edges[target] += 1
            elif pc + 1 in edges:
                edges[pc + 1] += 1
        self.arms = {leader for leader, n in edges.items() if n > 1}

    # -- the symbolic stack ----------------------------------------------------

    def _line(self, stmt: str, indent: int) -> None:
        self.out.append(_PAD[indent] + stmt)

    def _pop(self) -> _Expr:
        e = self.stack.pop()
        return _var(f"s{len(self.stack)}") if e is None else e

    def _text(self, k: int) -> str:
        e = self.stack[k]
        return f"s{k}" if e is None else e.text

    def _push(self, e: _Expr, indent: int, trap: bool = False) -> None:
        """Push ``e``; one that can trap is assigned where it occurs, its
        pending count charged first."""
        self.stack.append(e)
        if trap:
            self._charge(indent)
            self._materialize(len(self.stack) - 1, indent)
        elif e.depth > _MAX_EXPR_DEPTH:
            self._materialize(len(self.stack) - 1, indent)

    def _materialize(self, k: int, indent: int) -> None:
        """Assign slot ``k``'s expression to its variable ``sk``."""
        e = self.stack[k]
        if e is None:
            return
        name = f"s{k}"
        self._write_var(name, indent, skip=k)
        self.stack[k] = None
        self._line(f"{name} = {e.text}", indent)

    def _write_var(self, name: str, indent: int, skip: int = -1) -> None:
        """Assign every other slot reading ``name`` before it changes."""
        for k, e in enumerate(self.stack):
            if e is not None and k != skip and name in e.reads:
                self._materialize(k, indent)

    def _barrier(self, indent: int) -> None:
        """Assign every slot reading memory or globals before a
        statement that can change them."""
        for k, e in enumerate(self.stack):
            if e is not None and e.state:
                self._materialize(k, indent)

    def _settle(self, indent: int) -> None:
        """Every live slot into its variable (a block boundary)."""
        for k in range(len(self.stack)):
            self._materialize(k, indent)

    def _assign(self, name: str, value: _Expr, indent: int) -> None:
        self._write_var(name, indent)
        self._line(f"{name} = {value.text}", indent)

    # -- counts ---------------------------------------------------------------

    def _amount(self) -> str:
        """Source of the count retired since the last flush."""
        if self.use_n:
            return f"_n + {self.pending}" if self.pending else "_n"
        return str(self.pending) if self.pending else ""

    def _charge(self, indent: int) -> None:
        if self.pending:
            self._line(f"_n += {self.pending}", indent)
            self.pending = 0

    def _flush(self, indent: int) -> None:
        """Metered: hand the count retired so far and its fuel to the
        interpreter (before a call or a deopt)."""
        amount = self._amount()
        if amount:
            self._line(f"interp.instructions_executed += {amount}", indent)
            self._line(f"interp.fuel -= {amount}", indent)
        if self.use_n:
            self._line("_n = 0", indent)

    # -- expressions ------------------------------------------------------------

    def _binop(self, f, a: _Expr, b: _Expr) -> _Expr:
        name = _BINOP_NAMES.get(f)
        if name not in _INLINE_BINOPS:
            return _join(f"{self._bind(f, 'F')}({a.text}, {b.text})", _ATOM, a, b)
        ty, op = name.split(".")
        if op in _ARITH:
            sym, prec = _ARITH[op]
            if ty == "f64":
                return _arith(a, sym, prec, b)
            bits = _BITS[ty]
            return _masked(_arith(_unring(a, bits), sym, prec, _unring(b, bits)), bits)
        if op in _BITWISE:
            sym, prec = _BITWISE[op]
            if op == "and":
                # `x & y` keeps only bits y has: one operand's mask can go.
                if b.ring is not None:
                    b = _unring(b, _BITS[ty])
                else:
                    a = _unring(a, _BITS[ty])
            return _join(f"{_bitpar(a, prec)} {sym} {_bitpar(b, prec, True)}", prec, a, b)
        bits = _BITS[ty]
        if b.const is not None:
            count = self._lit(b.const & (bits - 1))
        else:
            b = _unring(b, bits)
            count = _join(f"{_bitpar(b, _BAND)} & {bits - 1}", _BAND, b)
        if op == "shl":
            left = _unring(a, bits)
            return _masked(
                _join(f"{_bitpar(left, _SHIFT)} << {_bitpar(count, _SHIFT, True)}",
                      _SHIFT, left, count),
                bits,
            )
        return _join(f"{_bitpar(a, _SHIFT)} >> {_bitpar(count, _SHIFT, True)}",
                     _SHIFT, a, count)

    def _cmp(self, f, a: _Expr, b: _Expr) -> _Expr:
        name = _CMP_NAMES.get(f)
        if name in _INLINE_CMPS:
            ty, op = name.split(".")
            base, _, sign = op.partition("_")
            sym = _CMP_OPS[base]
            if sign == "s":
                wrap = self._helper("S32" if ty == "i32" else "S64")
                cond = f"{wrap}({a.text}) {sym} {wrap}({b.text})"
            else:
                cond = f"{_cmppar(a)} {sym} {_cmppar(b)}"
        else:
            cond = f"{self._bind(f, 'F')}({a.text}, {b.text})"
        return _join(f"1 if {cond} else 0", _COND, a, b, cond=cond)

    def _unop(self, f, a: _Expr) -> _Expr:
        name = _UNOP_NAMES.get(f)
        if name == "i32.eqz" or name == "i64.eqz":
            cond = f"{_cmppar(a)} == 0"
            return _join(f"1 if {cond} else 0", _COND, a, cond=cond)
        if name == "i32.wrap_i64":
            return _masked(_unring(a, 64), 32)
        if name == "i64.extend_i32_u":
            return _join(f"{_bitpar(a, _BAND)} & 0xFFFFFFFF", _BAND, a)
        return _join(f"{self._bind(f, 'F')}({a.text})", _ATOM, a)

    # -- memory -------------------------------------------------------------------

    def _load(self, addr: _Expr, off: int, width: int,
              packer: Optional[str], signed: bool, bits: int, checked: bool,
              indent: int) -> None:
        """One load. ``packer`` is LD32/LD64/LF32/LF64, or ``None`` for the
        narrow int path. An unchecked packer load folds like any read of
        memory; the others are statements."""
        at = f"{_par(addr, _ADD)} + {off}" if off else addr.text
        if packer is not None and not checked:
            self._push(
                _join(f"{self._helper(packer)}(data, {at})[0]", _ATOM, addr,
                      state=True),
                indent,
            )
            return
        if checked:
            self._charge(indent)
        dst = f"s{len(self.stack)}"
        self._write_var(dst, indent)
        self._line(f"_a = {at}", indent)
        if checked:
            self._line(
                f"if _a < 0 or _a + {width} > len(data):"
                f" raise {self._helper('WT')}({_OOB!r})",
                indent,
            )
        if packer is not None:
            self._line(f"{dst} = {self._helper(packer)}(data, _a)[0]", indent)
        else:
            value = f"int.from_bytes(data[_a:_a + {width}], 'little')"
            if signed:
                value = f"{self._helper('SE')}({value}, {width * 8}, {bits})"
            self._line(f"{dst} = {value}", indent)
        self.stack.append(None)

    def _store(self, pc: int, addr: _Expr, value: _Expr, off: int, width: int,
               packer: Optional[str], indent: int) -> None:
        checked = pc not in self.safe
        self._barrier(indent)
        if checked:
            self._charge(indent)
        at = f"{_par(addr, _ADD)} + {off}" if off else addr.text
        if checked or packer is None:
            self._line(f"_a = {at}", indent)
            at = "_a"
        if checked:
            self._line(
                f"if _a < 0 or _a + {width} > len(data):"
                f" raise {self._helper('WT')}({_OOB!r})",
                indent,
            )
        if packer == "SF32" or packer == "SF64":
            self._line(f"{self._helper(packer)}(data, {at}, {value.text})", indent)
            return
        mask = (1 << (width * 8)) - 1
        if value.const is not None:
            v = repr(value.const & mask)
        else:
            v = f"{_bitpar(_unring(value, width * 8), _BAND)} & 0x{mask:X}"
        if packer is not None:  # ST32 / ST64
            self._line(f"{self._helper(packer)}(data, {at}, {v})", indent)
        else:
            self._line(
                f"data[_a:_a + {width}] = ({v}).to_bytes({width}, 'little')",
                indent,
            )

    def _operand_vars(self, n: int, indent: int) -> List[str]:
        """Pop the top ``n`` slots as variables, for statements that read
        an operand more than once."""
        h = len(self.stack)
        for k in range(h - n, h):
            self._materialize(k, indent)
        del self.stack[h - n:]
        return [f"s{k}" for k in range(h - n, h)]

    # -- calls ----------------------------------------------------------------------

    def _call(self, pc: int, handler, args, indent: int) -> int:
        """A direct ``call`` or a ``call_indirect`` through its site's
        cell; returns the next pc.

        A direct call's cell is guarded on the caller's instance: its
        function index space is fixed, so a hit cannot go stale. A
        ``call_indirect`` cell is guarded on table *identity* plus slot
        address: store function lists are append-only and
        ``FuncInstance`` objects are never rebound to a different
        address, so a hit cannot go stale either. Its element checks run
        on every call and a miss checks the type, so the traps and their
        order are the flat handler's; then it counts the miss and refills
        the cell.
        """
        if handler is flat.h_call:
            idx, n = args
            results = len(self.sigs[idx].results)
            index = None
        else:
            expected, n = args
            results = len(expected.results)
            index = self._pop()
        argv = [self._pop() for _ in range(n)][::-1]
        base = len(self.stack)
        nxt = pc + 1
        dest = f"s{base}"
        kept = None  # the local a forwarded result was assigned to
        forwarded = 0
        if results == 1 and not self.metered and nxt not in self.leaders:
            after, local, weight = self.code[nxt]
            if after is flat.h_local_set or after is flat.h_local_tee:
                dest = f"l{local}"
                kept = dest if after is flat.h_local_tee else None
                forwarded = weight
                nxt += 1
        if self.metered:
            self._settle(indent)  # a segment starts after the call
        else:
            self._barrier(indent)
        if forwarded:
            self._write_var(dest, indent)
        else:
            for k in range(results):
                self._write_var(f"s{base + k}", indent)
        if self.metered:
            self._flush(indent)
            self.pending = 0
        else:
            self._charge(indent)
        out = self.out
        pad, pad1, pad2 = _PAD[indent], _PAD[indent + 1], _PAD[indent + 2]

        def line(stmt: str, extra: str = "") -> None:
            out.append((extra or pad) + stmt)

        if index is None:
            line(f"_c = {self._bind([None] * 5, 'D')}")
            line("if _c[0] is not inst:")
            line(f"{self._fill()}(interp, _c, 1,"
                 f" interp.store.funcs[inst.func_addrs[{idx}]])", pad1)
            line("_c[0] = inst", pad1)
            at = 1
        else:
            wt = self._helper("WT")
            et = self._bind(expected, "ET")
            self.uses_store = True
            line("_t = store.tables[inst.table_addrs[0]]")
            line("_e = _t.elements")
            line(f"_i = {index.text}")
            line(f"if _i >= len(_e): raise {wt}('undefined element')")
            line("_a = _e[_i]")
            line(f"if _a is None: raise {wt}('uninitialized element')")
            line(f"_c = {self._bind([None] * 6, 'C')}")
            line("if _c[0] is not _t or _c[1] != _a:")
            line("_fi = store.funcs[_a]", pad1)
            line(f"if _fi.type != {et}: {self._helper('TMISS')}({et}, _fi.type)", pad1)
            line(f"{self._helper('MISS')}()", pad1)
            line(f"{self._fill()}(interp, _c, 2, _fi)", pad1)
            line("_c[0] = _t", pad1)
            line("_c[1] = _a", pad1)
            at = 2
        # The closure returns its bare result; _call_wasm and host
        # functions return the result list.
        assign = "" if not results else f"{dest} = " if results == 1 else "_r = "
        first = "[0]" if results == 1 else ""
        values = ", ".join(e.text for e in argv)
        line(f"if _c[{at + 1}] is not None and interp.profiler is None:")
        line("if depth >= interp.max_call_depth:"
             f" raise {self._helper('EE')}('call stack exhausted')", pad1)
        line(f"{assign}_c[{at + 1}](interp, _c[{at + 2}], _c[{at + 3}],"
             f" depth + 1{', ' if values else ''}{values})", pad1)
        line("else:")
        line("interp._depth = depth", pad1)
        line(f"_fi = _c[{at}]", pad1)
        line("if _fi.host_fn is None:", pad1)
        line(f"{assign}interp._call_wasm(_fi, [{values}]){first}", pad2)
        line("else:", pad1)
        line(f"{assign}_fi.host_fn({values}){first}", pad2)
        if results > 1:
            for k in range(results):
                line(f"s{base + k} = _r[{k}]")
        if forwarded:
            self.pending += forwarded
            if kept is not None:
                self.stack.append(_var(kept))
        else:
            self.stack.extend([None] * results)
        if self.metered:
            line("_f = interp.fuel")
        return nxt

    # -- per-entry emission --------------------------------------------------

    def _simple(self, pc: int, handler, args, weight: int, indent: int) -> int:
        """Emit a non-control entry; returns the next pc."""
        self.pending += weight
        if handler is flat.h_nop:
            pass
        elif handler is flat.h_local_get:
            self._push(_var(f"l{args}"), indent)
        elif handler is flat.h_local_set:
            self._assign(f"l{args}", self._pop(), indent)
        elif handler is flat.h_local_tee:
            name = f"l{args}"
            if self.stack[-1] is None:  # keep the slot in its variable
                self._assign(name, _var(f"s{len(self.stack) - 1}"), indent)
            else:
                self._assign(name, self._pop(), indent)
                self.stack.append(_var(name))
        elif handler is flat.h_const:
            self._push(self._lit(args), indent)
        elif handler is flat.h_drop:
            self._pop()
        elif handler is flat.h_select:
            c = self._pop()
            v2 = self._pop()
            v1 = self._pop()
            self._push(
                _join(f"{_par(v1, _CMP)} if {_test(c)} else {_par(v2, _CMP)}",
                      _COND, v1, v2, c),
                indent,
            )
        elif handler is flat.h_binop:
            b = self._pop()
            a = self._pop()
            self._push(self._binop(args, a, b), indent, self._can_trap(pc))
        elif handler is flat.h_cmp:
            b = self._pop()
            a = self._pop()
            self._push(self._cmp(args, a, b), indent)
        elif handler is flat.h_unop:
            a = self._pop()
            self._push(self._unop(args, a), indent, self._can_trap(pc))
        elif handler is flat.h_global_get:
            self.uses_store = True
            self._push(
                _Expr(f"store.globals[inst.global_addrs[{args}]].value",
                      state=True),
                indent,
            )
        elif handler is flat.h_global_set:
            self.uses_store = True
            value = self._pop()
            self._barrier(indent)
            self._charge(indent)
            self._line(
                f"store.globals[inst.global_addrs[{args}]].set({value.text})",
                indent,
            )
        elif handler in _LOADS or handler is flat.h_loadn:
            if handler is flat.h_loadn:
                off, width, signed, bits = args
                packer = None
            else:
                width, packer = _LOADS[handler]
                off, signed, bits = args, False, 0
            addr = self._pop()
            self._load(addr, off, width, packer, signed, bits,
                       pc not in self.safe, indent)
        elif handler in _STORES or handler is flat.h_storen:
            if handler is flat.h_storen:
                off, width = args
                packer = None
            else:
                width, packer = _STORES[handler]
                off = args
            value = self._pop()
            addr = self._pop()
            self._store(pc, addr, value, off, width, packer, indent)
        elif handler is flat.h_memory_size:
            self._push(
                _Expr(f"len(data) // {PAGE_SIZE}", _MUL, state=True), indent
            )
        elif handler is flat.h_memory_grow:
            value = self._pop()
            self._barrier(indent)
            self._assign(
                f"s{len(self.stack)}",
                _Expr(f"mem.grow({value.text}) & 0xFFFFFFFF"),
                indent,
            )
            self.stack.append(None)
        elif handler in (flat.h_memory_fill, flat.h_memory_copy,
                         flat.h_memory_init):
            dst, src, n = self._operand_vars(3, indent)
            self._barrier(indent)
            self._charge(indent)
            oob = f"raise {self._helper('WT')}({_OOB!r})"
            if handler is flat.h_memory_fill:
                self._line(f"if {dst} + {n} > len(data): {oob}", indent)
                self._line(
                    f"data[{dst}:{dst} + {n}] = bytes([{src} & 0xFF]) * {n}",
                    indent,
                )
            elif handler is flat.h_memory_copy:
                self._line(
                    f"if {src} + {n} > len(data) or {dst} + {n} > len(data):"
                    f" {oob}",
                    indent,
                )
                self._line(
                    f"data[{dst}:{dst} + {n}] = data[{src}:{src} + {n}]", indent
                )
            else:
                self.uses_store = True
                self._line(f"_p = store.datas[inst.data_addrs[{args}]]", indent)
                self._line("if _p is None:", indent)
                self._line(f"if {n} or {src}: {oob}", indent + 1)
                self._line("_p = b''", indent + 1)
                self._line(
                    f"if {src} + {n} > len(_p) or {dst} + {n} > len(data):"
                    f" {oob}",
                    indent,
                )
                self._line(
                    f"data[{dst}:{dst} + {n}] = _p[{src}:{src} + {n}]", indent
                )
        elif handler is flat.h_data_drop:
            self.uses_store = True
            self._barrier(indent)
            self._line(f"store.datas[inst.data_addrs[{args}]] = None", indent)
        elif handler in _CALLS:
            return self._call(pc, handler, args, indent)
        else:
            raise _Unsupported(
                f"handler {getattr(handler, '__name__', handler)!r}"
            )
        return pc + 1

    # -- control emission ----------------------------------------------------

    def _return(self, indent: int) -> None:
        r = self.n_results
        h = len(self.stack)
        values = [self._text(k) for k in range(h - r, h)]
        if self.traps:
            self._charge(indent)  # the finally adds `_n`
        else:
            amount = self._amount()
            if amount:
                self._line(f"interp.instructions_executed += {amount}", indent)
                if self.metered:
                    self._line(f"interp.fuel -= {amount}", indent)
        self.pending = 0
        if r == 0:
            self._line("return", indent)
        elif r == 1:
            self._line(f"return {values[0]}", indent)
        else:
            self._line(f"return [{', '.join(values)}]", indent)

    def _goto(self, target: int, indent: int) -> bool:
        """Emit the jump to ``target``, with every live slot in its
        variable unless ``target`` is the return. True when the emitted
        code ends in ``return``, ``raise`` or ``continue``; a jump to a
        dispatch arm from before the loop falls out to it instead."""
        if target == self.end_pc:
            self._return(indent)
            return True
        if target in self.dispatch:
            self._charge(indent)
            if len(self.dispatch) > 1:
                self._line(f"pc = {target}", indent)
            if self.in_loop:
                self._line("continue", indent)
                return True
            return False
        if indent > _MAX_INDENT:
            raise _TooDeep(target)
        return self._block(target, indent)

    def _moves(self, want: int, arity: int, indent: int) -> None:
        """Register moves implementing the branch stack repair: slide the
        ``arity`` carried values down to the target height."""
        h = len(self.stack)
        if h == want:
            return
        for k in range(arity):
            self._line(f"s{want - arity + k} = s{h - arity + k}", indent)

    def _arm(self, head: str, target: int, moves, indent: int) -> bool:
        """``head`` (an ``if``, ``elif`` or ``else``) and the jump under
        it; restores the stack and pending count for what follows."""
        saved = list(self.stack), self.pending
        self._line(head, indent)
        mark = len(self.out)
        if moves is not None:
            self._moves(*moves, indent + 1)
        terminal = self._goto(target, indent + 1)
        if len(self.out) == mark:
            self._line("pass", indent + 1)
        self.stack, self.pending = saved
        return terminal

    def _branch(self, test: str, taken: int, fall: int, indent: int,
                moves=None) -> bool:
        """A two-way branch: the pending count goes down both paths."""
        if self._arm(f"if {test}:", taken, moves, indent):
            return self._goto(fall, indent)
        # Before the loop a jump to an arm falls out: keep the other path apart.
        self._line("else:", indent)
        self._goto(fall, indent + 1)
        return False

    def _control(self, pc: int, handler, args, weight: int, indent: int) -> bool:
        """Emit a control entry, which ends its block."""
        self.pending += weight
        if handler is flat.h_end or handler is flat.h_return:
            self._return(indent)
            return True
        if handler is flat.h_unreachable:
            self._charge(indent)
            self._line(f"raise {self._helper('WT')}('unreachable executed')", indent)
            return True
        if handler is flat.h_goto:
            if args != self.end_pc:
                self._settle(indent)
            return self._goto(args, indent)
        if handler is flat.h_br_adjust:
            target, want, arity = args
            self._settle(indent)
            self._moves(want, arity, indent)
            return self._goto(target, indent)
        if handler is flat.h_br_table:
            table, default = args
            index = self._pop()
            self._settle(indent)
            if not table:
                target, want, arity = default
                self._moves(want, arity, indent)
                return self._goto(target, indent)
            self._line(f"_i = {index.text}", indent)
            terminal = True
            for ci, (target, want, arity) in enumerate(table + (default,)):
                head = (
                    "else:" if ci == len(table)
                    else f"{'if' if ci == 0 else 'elif'} _i == {ci}:"
                )
                terminal = self._arm(head, target, (want, arity), indent) and terminal
            return terminal
        test = _test(self._pop())
        self._settle(indent)
        if handler is flat.h_if:  # true: the then arm at pc + 1
            return self._branch(test, pc + 1, args, indent)
        if handler is flat.h_br_if:
            return self._branch(test, args, pc + 1, indent)
        if handler is flat.h_br_if_adjust:
            target, want, arity = args
            return self._branch(test, target, pc + 1, indent, (want, arity))
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

    def _fuel_check(self, pc: int, indent: int) -> None:
        """Metered segment guard: deopt when the fuel left cannot cover
        the pending count and the segment starting at ``pc``."""
        weight = self._segment_weight(pc)
        if not weight:
            return
        total = self.pending + weight
        self._line(f"if {'_n + ' if self.use_n else ''}{total} > _f:", indent)
        self._flush(indent + 1)
        if "DEOPT" not in self.binds:
            self.binds["DEOPT"] = _deopter(self.code, self.name)
        stack = ", ".join(f"s{k}" for k in range(len(self.stack)))
        locals_ = ", ".join(f"l{i}" for i in range(self.n_locals))
        self._line(
            f"DEOPT(interp, inst, mem, depth, {pc}, [{stack}], [{locals_}])",
            indent + 1,
        )

    def _block(self, leader: int, indent: int) -> bool:
        """Emit the block at ``leader`` and every single-entry block it
        reaches; see :meth:`_goto` for the result."""
        self.stack = [None] * self.heights[leader]
        pc = leader
        if self.metered:
            self._fuel_check(pc, indent)
        while True:
            handler, args, weight = self.code[pc]
            if handler in _CONTROL:
                return self._control(pc, handler, args, weight, indent)
            nxt = self._simple(pc, handler, args, weight, indent)
            if nxt in self.leaders:
                self._settle(indent)
                return self._goto(nxt, indent)
            if self.metered and handler in _CALLS:
                self._fuel_check(nxt, indent)
            pc = nxt

    # -- top level -----------------------------------------------------------

    def compile(self):
        """``(unmetered, metered)`` closures from one analysis."""
        self._analyze()
        return self._emit(metered=False), self._emit(metered=True)

    def _emit(self, metered: bool):
        self.metered = metered
        dispatch = set(self.arms)
        while True:
            try:
                source = self._source(dispatch)
                break
            except _TooDeep as deep:
                dispatch.add(deep.leader)
        namespace = dict(self.binds)
        kind = "metered" if metered else "specialized"
        exec(compile(source, f"<{kind}:{self.name}>", "exec"), namespace)
        fn = namespace["_spec"]
        fn.__specialized_source__ = source  # introspection / tests
        return fn

    def _source(self, dispatch: Set[int]) -> str:
        self.binds = {}
        self._bind_ids = {}
        self.uses_store = False
        self.dispatch = dispatch
        self.use_n = self.traps or bool(dispatch)
        self.out = []
        base = 2 if self.traps else 1
        if 0 not in dispatch:
            self.in_loop = False
            self.pending = 0
            self._block(0, base)
        elif len(dispatch) > 1:
            self._line("pc = 0", base)
        if dispatch:
            self.in_loop = True
            self._line("while True:", base)
            for ai, leader in enumerate(sorted(dispatch)):
                indent = base + 1
                if len(dispatch) > 1:
                    self._line(f"{'if' if ai == 0 else 'elif'} pc == {leader}:", indent)
                    indent += 1
                self.pending = 0
                self._block(leader, indent)
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
        if self.use_n:
            lines.append("    _n = 0")
        if self.metered:
            lines.append("    _f = interp.fuel")
        if not self.traps:
            lines.extend(self.out)
            return "\n".join(lines)
        lines.append("    try:")
        lines.extend(self.out)
        lines.append("    finally:")
        if self.metered:
            lines.append("        if _n:")
            lines.append("            interp.instructions_executed += _n")
            lines.append("            interp.fuel -= _n")
        else:
            lines.append("        interp.instructions_executed += _n")
        return "\n".join(lines)
