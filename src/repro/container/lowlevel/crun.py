"""crun's upstream wasm handler: an engine embedded eagerly.

crun's upstream wasm support links an engine's embedder API into the
container process; :class:`EmbeddedEngineHandler` models that path for
Wasmtime, Wasmer, and WasmEdge: the library is loaded *eagerly* at
container creation and the full engine is built per container. The
paper's contribution (:mod:`repro.core.wamr_handler`) replaces this with
a lazily-loaded WAMR.
"""

from __future__ import annotations

from repro.container import constants as C
from repro.container.lifecycle import Container
from repro.container.lowlevel.base import HostRuntime
from repro.container.nodeenv import NodeEnv
from repro.engines.base import WasmEngine
from repro.engines.cache import run_cached
from repro.oci.bundle import Bundle
from repro.sim.process import SimProcess


class EmbeddedEngineHandler:
    """Upstream-style crun wasm handler: eager engine embedding."""

    def __init__(self, name: str, engine: WasmEngine, host: HostRuntime) -> None:
        self.name = name
        self.engine = engine
        self.host = host

    def execute(
        self, env: NodeEnv, container: Container, bundle: Bundle, proc: SimProcess
    ) -> float:
        blob = bundle.read_file(bundle.spec.process.args[0])
        compiled, result = run_cached(
            self.engine,
            blob,
            args=bundle.spec.process.args,
            env=bundle.spec.process.env,
        )

        # Memory: the runtime process stays alive hosting the engine.
        host = self.host
        private = host.child_private + self.engine.embedded_private_bytes(
            compiled, result.linear_memory_bytes
        )
        private += int(env.jitter(f"wasmmem/{container.container_id}", C.MEMORY_JITTER))
        env.memory.map_private(proc, private, label=f"{self.name}-rss")
        env.memory.map_file(
            proc, host.text_file, host.text_size, label=f"{host.name}-text"
        )
        env.memory.map_file(
            proc, self.engine.profile.lib_file, self.engine.profile.lib_text,
            label=f"{self.engine.name}-lib",
        )

        container.stdout = result.stdout
        container.stderr = result.stderr
        container.exit_code = result.exit_code
        container.facts["engine"] = self.engine.name
        container.facts["instructions"] = result.instructions
        container.facts["linear_memory"] = result.linear_memory_bytes
        return result.exec_seconds
