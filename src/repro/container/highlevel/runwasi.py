"""runwasi shims: Wasm containers directly under containerd.

A runwasi shim (``containerd-shim-wasmtime-v1`` etc.) replaces the
shim→low-level-runtime chain: the shim parent handles the task API and
forks a worker child that joins the pod cgroup and runs the module with
the linked-in engine. Memory consequences (paper Fig 5):

* no crun process and no engine *library* — the engine is static-linked
  into the shim binary, whose text is shared node-wide;
* the worker child's private footprint is the engine's shim-path RSS
  (see ``EngineProfile.shim_child_rss`` for why it differs per engine);
* the parent stays outside the pod cgroup → metrics server misses it,
  ``free`` doesn't.
"""

from __future__ import annotations

from repro.container import constants as C
from repro.container.lifecycle import Container, ContainerState
from repro.container.nodeenv import NodeEnv
from repro.engines.base import WasmEngine
from repro.engines.cache import run_cached
from repro.errors import ContainerError
from repro.oci.annotations import is_wasm_image
from repro.oci.bundle import Bundle


class RunwasiShim:
    """One shim implementation (wasmtime/wasmer/wasmedge flavor)."""

    def __init__(self, engine: WasmEngine) -> None:
        self.engine = engine
        self.name = f"containerd-shim-{engine.name}-v1"
        self.binary_file = f"bin/{self.name}"

    def create_and_exec(
        self, env: NodeEnv, container: Container, bundle: Bundle
    ) -> float:
        """Spawn parent + worker child, run the module; returns exec secs."""
        if not is_wasm_image(bundle.image):
            raise ContainerError(f"{self.name}: not a wasm image: {bundle.image.reference}")

        # Register each process on the container as soon as it exists, so
        # a failure mid-setup (e.g. OOM on the worker's mapping) lets the
        # caller release everything already spawned.
        parent = env.memory.spawn(
            f"{self.name}:{container.pod_uid[:8]}",
            cgroup="/system.slice/containerd",
            start_time=env.kernel.now,
        )
        container.processes.append(parent)
        env.memory.map_private(
            parent, self.engine.profile.shim_parent_rss, label="shim-parent-heap"
        )
        env.memory.map_file(
            parent, self.binary_file, C.RUNWASI_SHIM_TEXT, label="shim-binary"
        )

        blob = bundle.read_file(bundle.spec.process.args[0])
        compiled, result = run_cached(
            self.engine, blob, args=bundle.spec.process.args, env=bundle.spec.process.env
        )

        child = env.memory.spawn(
            f"{self.name}-worker:{container.container_id[:12]}",
            cgroup=container.cgroup,
            start_time=env.kernel.now,
        )
        container.processes.append(child)
        private = self.engine.shim_child_private_bytes(
            compiled, result.linear_memory_bytes
        )
        private += int(env.jitter(f"shimmem/{container.container_id}", C.MEMORY_JITTER))
        env.memory.map_private(child, private, label="shim-worker-rss")
        env.memory.map_file(child, self.binary_file, C.RUNWASI_SHIM_TEXT, label="shim-binary")

        container.transition(ContainerState.CREATED)
        container.transition(ContainerState.RUNNING)
        container.stdout = result.stdout
        container.stderr = result.stderr
        container.exit_code = result.exit_code
        container.facts["engine"] = self.engine.name
        container.facts["shim"] = self.name
        container.facts["instructions"] = result.instructions
        return result.exec_seconds
