"""The runtime-configuration table and the one builder of its runtimes.

A configuration id (Table II reconstruction, plus the ablations) names a
row that states everything the id decides: the low-level runtime or
shim, the engine, zygote warm start and library sharing. Every layer
(kubelet RuntimeClass, containerd dispatch, figure generators) shares
this vocabulary, and :func:`build_runtime` makes a config's runtime from
its row — for ``crun-wamr``, the artifact the paper ships: a crun whose
wasm handler is WAMR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.container.lowlevel.base import HOSTS, OCIRuntime
from repro.container.lowlevel.crun import EmbeddedEngineHandler
from repro.core.dynlib import DynamicLibraryLoader
from repro.core.wamr_handler import WamrCrunHandler
from repro.engines.registry import get_engine
from repro.sim.memory import SystemMemoryModel

#: our configuration's id, used throughout figures and RuntimeClasses
CRUN_WAMR_CONFIG = "crun-wamr"


@dataclass(frozen=True)
class RuntimeConfig:
    """One row of the evaluation matrix."""

    config_id: str  # e.g. "crun-wamr"
    family: str  # "crun" | "runc" | "youki" | "runwasi"
    #: the engine that runs a wasm image, in the runtime's handler or
    #: linked into the runwasi shim; None: no handler (runC)
    engine: Optional[str]
    workload: str  # "wasm" | "python"
    is_ours: bool = False
    #: zygote warm-start: 2nd..Nth container of an image clones the
    #: first's instance snapshot (COW memory, warm startup profile)
    zygote: bool = False
    #: False: a statically linked WAMR, each container paying for the
    #: engine text privately instead of sharing one dlopen-ed mapping
    share_library: bool = True


#: The nine benchmarked configurations (paper Table II + §IV).
RUNTIME_CONFIGS: Dict[str, RuntimeConfig] = {
    c.config_id: c
    for c in (
        RuntimeConfig("crun-wamr", "crun", "wamr", "wasm", is_ours=True),
        RuntimeConfig("crun-wasmtime", "crun", "wasmtime", "wasm"),
        RuntimeConfig("crun-wasmer", "crun", "wasmer", "wasm"),
        RuntimeConfig("crun-wasmedge", "crun", "wasmedge", "wasm"),
        RuntimeConfig("shim-wasmtime", "runwasi", "wasmtime", "wasm"),
        RuntimeConfig("shim-wasmer", "runwasi", "wasmer", "wasm"),
        RuntimeConfig("shim-wasmedge", "runwasi", "wasmedge", "wasm"),
        # The paper's modified crun: a wasm image under it runs on WAMR.
        RuntimeConfig("crun-python", "crun", "wamr", "python"),
        RuntimeConfig("runc-python", "runc", None, "python"),
    )
}

#: Extension configurations for the ablation study (DESIGN.md §7):
#: WAMR in AOT mode, and our handler with library sharing disabled.
ABLATION_CONFIGS: Dict[str, RuntimeConfig] = {
    c.config_id: c
    for c in (
        RuntimeConfig("crun-wamr-aot", "crun", "wamr-aot", "wasm"),
        RuntimeConfig("crun-wamr-static", "crun", "wamr", "wasm", share_library=False),
        # Handler portability: the same WAMR handler hosted by youki.
        RuntimeConfig("youki-wamr", "youki", "wamr", "wasm"),
        # Zygote warm-start: snapshot-and-clone instantiation (DESIGN.md).
        RuntimeConfig("crun-wamr-zygote", "crun", "wamr", "wasm", zygote=True),
    )
}

#: Every configuration a node runs: the one lookup for an id.
CONFIGS: Dict[str, RuntimeConfig] = {**RUNTIME_CONFIGS, **ABLATION_CONFIGS}

WASM_CONFIGS = [c for c in RUNTIME_CONFIGS if RUNTIME_CONFIGS[c].workload == "wasm"]
CRUN_WASM_CONFIGS = [
    c
    for c, cfg in RUNTIME_CONFIGS.items()
    if cfg.family == "crun" and cfg.workload == "wasm"
]
RUNWASI_CONFIGS = [c for c, cfg in RUNTIME_CONFIGS.items() if cfg.family == "runwasi"]
PYTHON_CONFIGS = [c for c, cfg in RUNTIME_CONFIGS.items() if cfg.workload == "python"]

#: Engines the paper's handler runs; crun embeds every other one eagerly.
WAMR_ENGINES = frozenset({"wamr", "wamr-aot"})


def build_runtime(config: RuntimeConfig, memory: SystemMemoryModel):
    """The low-level runtime or runwasi shim that runs ``config`` on the
    node whose memory is ``memory``; each WAMR handler gets its own loader.
    """
    if config.family == "runwasi":
        # Deferred: the high-level package imports containerd, which
        # imports this module.
        from repro.container.highlevel.runwasi import RunwasiShim

        return RunwasiShim(get_engine(config.engine))
    if config.engine is None:
        return OCIRuntime(config.family)
    host = HOSTS[config.family]
    engine = get_engine(config.engine)
    if config.engine in WAMR_ENGINES:
        handler = WamrCrunHandler(
            config.config_id,
            engine,
            host,
            DynamicLibraryLoader(memory),
            share_library=config.share_library,
            zygote=config.zygote,
        )
    else:
        handler = EmbeddedEngineHandler(config.config_id, engine, host)
    return OCIRuntime(host.name, handler)
