"""Module AST shared by the WAT assembler, binary codec, and interpreter.

Instructions are structured: ``block``/``loop``/``if`` carry nested bodies
rather than relying on ``end`` delimiters, which keeps the validator and
interpreter free of label-matching bookkeeping. The binary encoder emits the
flat form, and the decoder rebuilds the structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.wasm.types import FuncType, GlobalType, MemoryType, TableType, ValType

# A block type is: None (empty), a single result ValType, or a type index
# (multi-value via the type section).
BlockType = Union[None, ValType, int]


@dataclass
class Instr:
    """One instruction.

    ``args`` holds immediates in a canonical shape per immediate kind:
      * ``IDX`` → ``(index,)``
      * ``MEMARG`` → ``(align, offset)``
      * ``BR_TABLE`` → ``(labels_tuple, default)``
      * ``CALL_INDIRECT`` → ``(type_index,)``
      * const → ``(value,)``
    """

    op: str
    args: Tuple = ()
    blocktype: BlockType = None
    body: List["Instr"] = field(default_factory=list)
    else_body: List["Instr"] = field(default_factory=list)

    def __repr__(self) -> str:
        parts = [self.op]
        if self.args:
            parts.append(repr(self.args))
        if self.body:
            parts.append(f"body[{len(self.body)}]")
        if self.else_body:
            parts.append(f"else[{len(self.else_body)}]")
        return f"Instr({' '.join(parts)})"


Expr = List[Instr]


@dataclass
class Function:
    """A defined (non-imported) function."""

    type_idx: int
    locals: List[ValType] = field(default_factory=list)
    body: Expr = field(default_factory=list)
    name: Optional[str] = None  # debug name, kept in the custom name section
    # Flat executable form (runtime/compile.py), attached lazily on first
    # call and keyed to this exact object — clear it if `body` is mutated
    # after execution.
    prepared: Optional[object] = field(default=None, repr=False, compare=False)


@dataclass
class Import:
    module: str
    name: str
    kind: str  # "func" | "table" | "mem" | "global"
    desc: Union[int, TableType, MemoryType, GlobalType]  # func: type index


@dataclass
class Export:
    name: str
    kind: str  # "func" | "table" | "mem" | "global"
    index: int


@dataclass
class Global:
    type: GlobalType
    init: Expr = field(default_factory=list)


@dataclass
class ElemSegment:
    """Active element segment seeding a funcref table."""

    table_idx: int
    offset: Expr
    func_indices: List[int] = field(default_factory=list)


@dataclass
class DataSegment:
    """A data segment.

    *Active* segments (``passive=False``) are copied into linear memory
    at instantiation; *passive* segments (bulk-memory extension) sit in
    the store until ``memory.init`` copies from them or ``data.drop``
    releases them.
    """

    mem_idx: int
    offset: Expr
    data: bytes = b""
    passive: bool = False


@dataclass
class CustomSection:
    name: str
    payload: bytes


@dataclass
class Module:
    """A decoded/parsed module, mirroring the section structure."""

    types: List[FuncType] = field(default_factory=list)
    imports: List[Import] = field(default_factory=list)
    funcs: List[Function] = field(default_factory=list)
    tables: List[TableType] = field(default_factory=list)
    mems: List[MemoryType] = field(default_factory=list)
    globals: List[Global] = field(default_factory=list)
    exports: List[Export] = field(default_factory=list)
    start: Optional[int] = None
    elems: List[ElemSegment] = field(default_factory=list)
    datas: List[DataSegment] = field(default_factory=list)
    customs: List[CustomSection] = field(default_factory=list)
    name: Optional[str] = None
    #: set by ``validate_module`` once the module has passed, so an
    #: embedder handed this object does not validate it again
    validated: bool = field(default=False, init=False, repr=False, compare=False)

    # -- index-space helpers (imports precede definitions) -------------------

    def imported(self, kind: str) -> List[Import]:
        return [imp for imp in self.imports if imp.kind == kind]

    def num_imported_funcs(self) -> int:
        return sum(1 for imp in self.imports if imp.kind == "func")

    def func_type(self, func_idx: int) -> FuncType:
        """Signature of function ``func_idx`` in the joint index space."""
        n_imp = 0
        for imp in self.imports:
            if imp.kind == "func":
                if n_imp == func_idx:
                    return self.types[imp.desc]  # type: ignore[index]
                n_imp += 1
        return self.types[self.funcs[func_idx - n_imp].type_idx]

    def total_funcs(self) -> int:
        return self.num_imported_funcs() + len(self.funcs)

    def add_type(self, ft: FuncType) -> int:
        """Intern a function type, returning its index."""
        for i, existing in enumerate(self.types):
            if existing == ft:
                return i
        self.types.append(ft)
        return len(self.types) - 1

    def code_size(self) -> int:
        """Instruction count across all bodies — a proxy for code size used
        by engine resource models (JIT output scales with it)."""

        def count(body: Expr) -> int:
            n = 0
            for ins in body:
                n += 1 + count(ins.body) + count(ins.else_body)
            return n

        return sum(count(f.body) for f in self.funcs)
