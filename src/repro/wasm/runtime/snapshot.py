"""Zygote instance snapshots: instantiate once, clone cheaply.

The startup experiments deploy hundreds of containers of one image; with
decode/validate/prepare already memoized (``engines/cache.py``), the full
two-phase instantiation — allocate memories, evaluate global
initializers, copy data segments, run the start prologue — is the last
per-instance cost paid N times for identical state. This module is the
Wizer-style answer: :func:`capture_snapshot` freezes a just-initialized
:class:`~repro.wasm.runtime.store.ModuleInstance` into immutable data and
:func:`restore_instance` clones a fresh instance from it in O(state) —
no segment evaluation, no start run, no zero-fill-then-copy.

Snapshots are *host-world free* by construction: import addresses are
re-resolved per store, and a snapshot is only taken post-``start`` when
the start function made no host calls (otherwise the pre-``start`` state
is captured and the start section re-runs on every restore, preserving
its side effects). Table entries are stored as module-local function
indices so they can be rebound to the clone's fresh function addresses;
an entry pointing outside the instance makes the module unsnapshottable
(:func:`capture_snapshot` returns ``None``).

The process-wide snapshot-per-digest cache lives in
:mod:`repro.engines.cache` (the fourth layer). Whether a run uses it is
the caller's choice: zygote runtime configs always warm-start, and
``run_wasi(zygote=False)`` runs one guest cold.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.wasm.ast import Module
from repro.wasm.runtime.instantiate import ImportMap, build_exports, resolve_imports
from repro.wasm.runtime.store import (
    FuncInstance,
    GlobalInstance,
    MemoryInstance,
    ModuleInstance,
    Store,
    TableInstance,
)
from repro.wasm.types import GlobalType, MemoryType, TableType

#: page granularity for the dirty-memory diff (Linux small-page size)
COW_PAGE = 4096


def _imported_counts(module: Module) -> Dict[str, int]:
    counts = {"func": 0, "table": 0, "mem": 0, "global": 0}
    for imp in module.imports:
        counts[imp.kind] += 1
    return counts


@dataclass(frozen=True)
class InstanceSnapshot:
    """Immutable image of one instantiated module's mutable state.

    Only module-*defined* entities are captured; imported ones are
    host-world state resolved anew by :func:`restore_instance`. Table
    entries hold module-local function indices (position in
    ``instance.func_addrs``), not store addresses.
    """

    module: Module
    digest: Optional[str]
    memories: Tuple[Tuple[MemoryType, bytes], ...]
    tables: Tuple[Tuple[TableType, Tuple[Optional[int], ...]], ...]
    globals: Tuple[Tuple[GlobalType, object], ...]
    datas: Tuple[Optional[bytes], ...]
    #: True when the snapshot predates the start section (impure start:
    #: restore must re-run it to reproduce its host side effects).
    start_rerun: bool
    #: instructions the snapshotted start run retired (pure start only);
    #: credited to restored runs so metering matches a cold run exactly.
    start_instructions: int = 0
    #: sha256 over the captured state (see :func:`snapshot_checksum`);
    #: verified on restore — a mismatch means the cached snapshot was
    #: corrupted and the run must fall back to cold instantiation.
    checksum: str = ""

    @property
    def memory_bytes(self) -> int:
        return sum(len(data) for _, data in self.memories)


def snapshot_checksum(
    memories: Tuple[Tuple[MemoryType, bytes], ...],
    tables: Tuple[Tuple[TableType, Tuple[Optional[int], ...]], ...],
    globals_: Tuple[Tuple[GlobalType, object], ...],
    datas: Tuple[Optional[bytes], ...],
) -> str:
    """Content checksum of a snapshot's mutable state.

    Covers exactly the state :func:`restore_instance` copies into clones:
    memory bytes, table function indices, global values, and data-segment
    payloads. Types and the shared module are excluded — they are
    structural, not mutable, and the module object is compared by
    identity anyway.
    """
    h = hashlib.sha256()
    for _, data in memories:
        h.update(struct.pack("<Q", len(data)))
        h.update(data)
    for _, elems in tables:
        h.update(struct.pack("<Q", len(elems)))
        for e in elems:
            h.update(struct.pack("<q", -1 if e is None else e))
    for _, value in globals_:
        h.update(repr(value).encode())
        h.update(b"\x00")
    for payload in datas:
        if payload is None:
            h.update(b"\xff")
        else:
            h.update(struct.pack("<Q", len(payload)))
            h.update(payload)
    return h.hexdigest()


def verify_snapshot(snapshot: InstanceSnapshot) -> bool:
    """Recompute the checksum; False means the snapshot bytes diverged
    from what :func:`capture_snapshot` recorded (corruption)."""
    return snapshot.checksum == snapshot_checksum(
        snapshot.memories, snapshot.tables, snapshot.globals, snapshot.datas
    )


def capture_snapshot(
    store: Store,
    instance: ModuleInstance,
    digest: Optional[str] = None,
    start_rerun: bool = False,
    start_instructions: int = 0,
) -> Optional[InstanceSnapshot]:
    """Freeze ``instance``'s defined state; ``None`` if unsnapshottable.

    The only unsnapshottable case is a table entry referencing a function
    outside the instance's address list (can't be rebound in a clone).
    """
    module = instance.module
    n = _imported_counts(module)

    addr_to_local: Dict[int, int] = {}
    for local_idx, addr in enumerate(instance.func_addrs):
        addr_to_local.setdefault(addr, local_idx)

    tables = []
    for t_addr in instance.table_addrs[n["table"] :]:
        table = store.tables[t_addr]
        elems = []
        for addr in table.elements:
            if addr is None:
                elems.append(None)
            elif addr in addr_to_local:
                elems.append(addr_to_local[addr])
            else:
                return None
        tables.append((table.type, tuple(elems)))

    memories = tuple(
        (store.mems[a].type, bytes(store.mems[a].data))
        for a in instance.mem_addrs[n["mem"] :]
    )
    globals_ = tuple(
        (store.globals[a].type, store.globals[a].value)
        for a in instance.global_addrs[n["global"] :]
    )
    datas = tuple(store.datas[a] for a in instance.data_addrs)

    frozen_tables = tuple(tables)
    return InstanceSnapshot(
        module=module,
        digest=digest,
        memories=memories,
        tables=frozen_tables,
        globals=globals_,
        datas=datas,
        start_rerun=start_rerun,
        start_instructions=start_instructions,
        checksum=snapshot_checksum(memories, frozen_tables, globals_, datas),
    )


def restore_instance(
    store: Store, snapshot: InstanceSnapshot, imports: Optional[ImportMap] = None
) -> ModuleInstance:
    """Clone a fresh :class:`ModuleInstance` from ``snapshot`` into ``store``.

    Skips decode, validation, import type-checking beyond link resolution,
    global-initializer evaluation, element/data segment copying, and (for
    pure-start snapshots) the start function itself. The prepared flat
    code hangs off the shared :class:`Module`, so clones execute the same
    lowered bytecode.
    """
    module = snapshot.module
    instance = ModuleInstance(module=module)
    resolve_imports(store, module, imports or {}, instance)

    for func in module.funcs:
        instance.func_addrs.append(
            store.alloc_func(
                FuncInstance(
                    type=module.types[func.type_idx],
                    module=instance,
                    code=func,
                    name=func.name or "",
                )
            )
        )
    for table_type, elems in snapshot.tables:
        table = TableInstance(table_type)
        table.elements = [
            None if e is None else instance.func_addrs[e] for e in elems
        ]
        instance.table_addrs.append(store.alloc_table(table))
    for mem_type, data in snapshot.memories:
        instance.mem_addrs.append(
            store.alloc_mem(MemoryInstance.from_snapshot(mem_type, data))
        )
    for global_type, value in snapshot.globals:
        instance.global_addrs.append(
            store.alloc_global(GlobalInstance(global_type, value))
        )
    for payload in snapshot.datas:
        instance.data_addrs.append(store.alloc_data(payload))

    build_exports(module, instance, store)
    return instance


def dirty_memory_bytes(
    snapshot: InstanceSnapshot,
    store: Store,
    instance: ModuleInstance,
    page: int = COW_PAGE,
) -> int:
    """Bytes of ``instance``'s linear memory diverging from ``snapshot``,
    at page granularity — the COW split a clone of this run would cost.

    Pages past the snapshot extent (memory.grow during the run) are fully
    dirty; within the common extent, a page counts once if any byte
    differs.
    """
    n_mem = _imported_counts(instance.module)["mem"]
    dirty = 0
    for (_, snap_data), addr in zip(
        snapshot.memories, instance.mem_addrs[n_mem:]
    ):
        data = store.mems[addr].data
        common = min(len(snap_data), len(data))
        # Slices of bytes-like objects compare with memcmp; memoryview
        # slices compare element by element, about 20x slower.
        for off in range(0, common, page):
            end = min(off + page, common)
            if data[off:end] != snap_data[off:end]:
                dirty += end - off
        if len(data) > len(snap_data):
            dirty += len(data) - len(snap_data)
    return dirty
