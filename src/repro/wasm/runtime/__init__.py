"""Execution engine: store, instances, interpreter, instantiation.

Two interpreters share one store model: the production
:class:`Interpreter`, and :class:`ReferenceInterpreter`, which walks the
AST and serves as the executable specification for differential
testing. The production interpreter runs compiled closures: the
specialization tier (``specialize.py``, its compiler in ``closures.py``)
compiles each function's prepared flat code (``compile.py``) to
straight-line Python per module digest, an unmetered and a metered
closure per function, dropping the bounds checks a static proof shows
are redundant. The flat loop over the prepared code, one plain entry
per Wasm instruction, is the exact fallback: it runs the functions the
closure compiler declines, modules outside the engine caches, and the
segment of a metered run in which the fuel runs out.
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
