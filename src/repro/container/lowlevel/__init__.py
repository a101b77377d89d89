"""Low-level OCI runtimes: one runtime class for runC, crun and youki, and
crun's upstream wasm handler."""

from repro.container.lowlevel.base import (
    HOSTS,
    HostRuntime,
    OCIRuntime,
    WasmHandler,
    kill_and_delete,
)
from repro.container.lowlevel.crun import EmbeddedEngineHandler

__all__ = [
    "HOSTS",
    "HostRuntime",
    "OCIRuntime",
    "WasmHandler",
    "kill_and_delete",
    "EmbeddedEngineHandler",
]
