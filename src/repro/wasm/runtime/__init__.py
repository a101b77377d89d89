"""Execution engine: store, instances, interpreter, instantiation.

Two interpreters share one store model: the production
:class:`Interpreter` runs flat pre-compiled code (see ``compile.py``),
while :class:`ReferenceInterpreter` walks the AST and serves as the
executable specification for differential testing. A third tier
(``specialize.py``, its compiler in ``closures.py``) compiles prepared
code to straight-line Python closures per module digest, dropping the
bounds checks a static proof shows are redundant:
an unmetered and a metered closure per function, the metered one
handing only the segment where its fuel runs out back to the prepared
code.
"""

from repro.wasm.runtime.store import (
    FuncInstance,
    GlobalInstance,
    MemoryInstance,
    ModuleInstance,
    Store,
    TableInstance,
)
from repro.wasm.runtime.compile import (
    PreparedFunction,
    PreparedModule,
    prepare_function,
    prepare_module,
)
from repro.wasm.runtime.interpreter import Interpreter
from repro.wasm.runtime.reference import ReferenceInterpreter
from repro.wasm.runtime.specialize import (
    SpecializedFunction,
    specialize_module,
)
from repro.wasm.runtime.instantiate import instantiate
from repro.wasm.runtime.snapshot import (
    InstanceSnapshot,
    capture_snapshot,
    dirty_memory_bytes,
    restore_instance,
    verify_snapshot,
)

__all__ = [
    "InstanceSnapshot",
    "capture_snapshot",
    "dirty_memory_bytes",
    "restore_instance",
    "verify_snapshot",
    "Store",
    "ModuleInstance",
    "FuncInstance",
    "TableInstance",
    "MemoryInstance",
    "GlobalInstance",
    "Interpreter",
    "ReferenceInterpreter",
    "PreparedFunction",
    "PreparedModule",
    "prepare_function",
    "prepare_module",
    "SpecializedFunction",
    "specialize_module",
    "instantiate",
]
