"""Runtime store and instance structures.

A :class:`Store` owns every runtime object (functions, tables, memories,
globals); instances refer to them by *address* (index into the store's
lists), mirroring the spec's store/instance split. Host functions live in
the same function address space as wasm functions, so ``call`` and
``call_indirect`` need no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import WasmTrap
from repro.wasm.ast import Function, Module
from repro.wasm.types import (
    FuncType,
    GlobalType,
    MemoryType,
    TableType,
    ValType,
    MAX_PAGES,
    PAGE_SIZE,
)


@dataclass
class FuncInstance:
    """Either a wasm function (code + defining instance) or a host function."""

    type: FuncType
    module: Optional["ModuleInstance"] = None
    code: Optional[Function] = None
    host_fn: Optional[Callable[..., List[object]]] = None
    name: str = ""

    @property
    def is_host(self) -> bool:
        return self.host_fn is not None


@dataclass
class TableInstance:
    type: TableType
    elements: List[Optional[int]] = field(default_factory=list)  # func addresses

    def __post_init__(self) -> None:
        if not self.elements:
            self.elements = [None] * self.type.limits.minimum

    def get(self, idx: int) -> int:
        if idx >= len(self.elements) or idx < 0:
            raise WasmTrap("undefined element")
        addr = self.elements[idx]
        if addr is None:
            raise WasmTrap("uninitialized element")
        return addr


class MemoryInstance:
    """Linear memory backed by a bytearray."""

    __slots__ = ("type", "data")

    def __init__(self, mem_type: MemoryType) -> None:
        self.type = mem_type
        self.data = bytearray(mem_type.limits.minimum * PAGE_SIZE)

    @classmethod
    def from_snapshot(cls, mem_type: MemoryType, data: bytes) -> "MemoryInstance":
        """Clone a memory from captured bytes without zero-fill + copy-in.

        The zygote restore path: the snapshot already contains the fully
        initialized (possibly grown) contents, so the spec's minimum-size
        zero allocation would be wasted work.
        """
        mem = cls.__new__(cls)
        mem.type = mem_type
        mem.data = bytearray(data)
        return mem

    @property
    def pages(self) -> int:
        return len(self.data) // PAGE_SIZE

    def grow(self, delta: int) -> int:
        """Grow by ``delta`` pages; returns old page count or -1 on failure."""
        old = self.pages
        new = old + delta
        maximum = self.type.limits.maximum
        if new > MAX_PAGES or (maximum is not None and new > maximum):
            return -1
        self.data.extend(bytes(delta * PAGE_SIZE))
        return old

    # -- raw access with trap-on-OOB -------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        if addr < 0 or addr + size > len(self.data):
            raise WasmTrap("out of bounds memory access")
        return bytes(self.data[addr : addr + size])

    def write(self, addr: int, payload: bytes) -> None:
        if addr < 0 or addr + len(payload) > len(self.data):
            raise WasmTrap("out of bounds memory access")
        self.data[addr : addr + len(payload)] = payload

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little")

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))


@dataclass
class GlobalInstance:
    type: GlobalType
    value: object = 0

    def set(self, value: object) -> None:
        if not self.type.mutable:
            raise WasmTrap("set of immutable global")
        self.value = value


@dataclass
class ModuleInstance:
    """Instantiated module: address maps into the store + export table."""

    module: Module
    func_addrs: List[int] = field(default_factory=list)
    table_addrs: List[int] = field(default_factory=list)
    mem_addrs: List[int] = field(default_factory=list)
    global_addrs: List[int] = field(default_factory=list)
    data_addrs: List[int] = field(default_factory=list)  # bulk-memory segments
    exports: Dict[str, Tuple[str, int]] = field(default_factory=dict)  # name -> (kind, addr)
    # Cached default memory (mem_addrs[0]); resolved by instantiate() or on
    # first call. Safe to cache: MemoryInstance.grow mutates in place.
    mem0: Optional[MemoryInstance] = field(default=None, repr=False, compare=False)

    def export_addr(self, name: str, kind: str) -> int:
        entry = self.exports.get(name)
        if entry is None or entry[0] != kind:
            raise KeyError(f"no {kind} export named {name!r}")
        return entry[1]


class Store:
    """Owner of all runtime objects, addressed by index."""

    def __init__(self) -> None:
        self.funcs: List[FuncInstance] = []
        self.tables: List[TableInstance] = []
        self.mems: List[MemoryInstance] = []
        self.globals: List[GlobalInstance] = []
        # Data segment instances: payload bytes, or None once dropped.
        self.datas: List[Optional[bytes]] = []

    def alloc_func(self, inst: FuncInstance) -> int:
        self.funcs.append(inst)
        return len(self.funcs) - 1

    def alloc_table(self, inst: TableInstance) -> int:
        self.tables.append(inst)
        return len(self.tables) - 1

    def alloc_mem(self, inst: MemoryInstance) -> int:
        self.mems.append(inst)
        return len(self.mems) - 1

    def alloc_global(self, inst: GlobalInstance) -> int:
        self.globals.append(inst)
        return len(self.globals) - 1

    def alloc_data(self, payload: Optional[bytes]) -> int:
        self.datas.append(payload)
        return len(self.datas) - 1

    def alloc_host_func(
        self, func_type: FuncType, fn: Callable[..., List[object]], name: str = ""
    ) -> int:
        return self.alloc_func(FuncInstance(type=func_type, host_fn=fn, name=name))

    def total_memory_bytes(self) -> int:
        """Resident linear memory across all instances (resource models)."""
        return sum(len(m.data) for m in self.mems)
