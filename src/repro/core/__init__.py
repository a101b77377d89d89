"""The paper's contribution: WAMR embedded in crun.

Three mechanisms from §III-C, each implemented here:

1. **Dynamic library loading** (:mod:`repro.core.dynlib`) — ``libiwasm``
   is ``dlopen``\\ ed on first wasm container, so nodes that never run
   Wasm pay nothing and concurrent wasm containers share one mapped text.
2. **WASI argument handling** (:mod:`repro.core.wamr_handler`) — OCI
   ``process.args``/``process.env`` and bind mounts are translated into
   WASI argv/environ/preopens, so existing Kubernetes manifests work
   unchanged.
3. **Sandboxed execution** — the module runs in-process inside the
   container's namespaces/cgroup with WAMR's own sandbox on top; no
   ``exec`` into a separate engine binary, which is where the memory win
   comes from.

:func:`repro.core.integration.build_runtime` makes any configuration's
runtime or shim from its :class:`~repro.core.integration.RuntimeConfig`
row; for ``crun-wamr`` that is a crun with our handler.
"""

from repro.core.dynlib import DynamicLibraryLoader
from repro.core.wamr_handler import WamrCrunHandler
from repro.core.integration import CONFIGS, CRUN_WAMR_CONFIG, build_runtime

__all__ = [
    "DynamicLibraryLoader",
    "WamrCrunHandler",
    "build_runtime",
    "CONFIGS",
    "CRUN_WAMR_CONFIG",
]
