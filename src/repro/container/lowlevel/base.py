"""The low-level OCI runtime, as one runtime configuration uses it.

A low-level runtime receives a bundle from the containerd shim, creates
the container process, and either ``exec``s the native entrypoint (the
Python baseline) or hands the bundle to its **wasm handler**, which runs
the module inside the container process (crun's handler mechanism, which
the paper's WAMR integration plugs into). runC, crun and youki differ
here only in their name and, for a handler, in the host record it maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.container import constants as C
from repro.container.lifecycle import Container, ContainerState
from repro.container.nodeenv import NodeEnv
from repro.errors import ContainerError
from repro.oci.annotations import is_wasm_image
from repro.oci.bundle import Bundle
from repro.sim.process import SimProcess
from repro.workloads.python_app import PYTHON_RUNTIME


@dataclass(frozen=True)
class HostRuntime:
    """The runtime binary whose container process a wasm handler runs in."""

    name: str
    text_file: str
    text_size: int
    child_private: int  # private RSS the runtime process keeps post-setup


#: The runtimes that host a wasm handler, by name.
HOSTS = {
    host.name: host
    for host in (
        HostRuntime("crun", C.CRUN_TEXT_FILE, C.CRUN_TEXT, C.CRUN_CHILD_PRIVATE),
        HostRuntime("youki", C.YOUKI_TEXT_FILE, C.YOUKI_TEXT, C.YOUKI_CHILD_PRIVATE),
    )
}


class WasmHandler(Protocol):
    """crun-style pluggable wasm execution backend."""

    name: str

    def execute(
        self, env: NodeEnv, container: Container, bundle: Bundle, proc: SimProcess
    ) -> float:
        """Run the module in ``proc``; returns guest exec seconds."""
        ...


class OCIRuntime:
    """runC, crun or youki, with the wasm handler fixed when it is built
    (None: a wasm image fails, as under runC)."""

    def __init__(self, name: str, handler: Optional[WasmHandler] = None) -> None:
        self.name = name
        self.handler = handler

    def create_and_exec(
        self, env: NodeEnv, container: Container, bundle: Bundle
    ) -> float:
        """Create the container process and start the workload.

        Returns the guest-side execution time (seconds) the caller should
        account on the simulated clock after ``exec_started_at``.
        """
        proc = env.memory.spawn(
            f"{self.name}:{container.container_id[:12]}",
            cgroup=container.cgroup,
            start_time=env.kernel.now,
        )
        container.processes.append(proc)
        container.transition(ContainerState.CREATED)

        wasm = is_wasm_image(bundle.image)
        if wasm and self.handler is None:
            env.memory.exit(proc)
            raise ContainerError(
                f"{self.name}: no wasm handler for image {bundle.image.reference}"
            )

        container.transition(ContainerState.RUNNING)
        if wasm:
            return self.handler.execute(env, container, bundle, proc)
        return self._exec_native(env, container, bundle, proc)

    def _exec_native(
        self, env: NodeEnv, container: Container, bundle: Bundle, proc: SimProcess
    ) -> float:
        """``exec`` the native entrypoint (the Python baseline path).

        The runtime process is *replaced* by the workload: its segments
        are whatever the app needs, not runtime overhead.
        """
        args = bundle.spec.process.args
        if not args:
            raise ContainerError(f"{container.container_id}: empty entrypoint")
        if not args[0].endswith("python3"):
            raise ContainerError(
                f"{self.name}: no native runtime model for {args[0]!r}"
            )
        # Verify the app is actually in the rootfs (bundles are real).
        bundle.read_file("app/main.py")

        model = PYTHON_RUNTIME
        private = model.private_rss
        if self.name == "runc":
            private += model.runc_extra_private
        private += int(env.jitter(f"pymem/{container.container_id}", C.MEMORY_JITTER))
        env.memory.map_private(proc, private, label="cpython-heap")
        env.memory.map_file(proc, model.lib_file, model.lib_text, label="libpython")

        # Importing the stdlib pages file content into the page cache —
        # once per node, visible only to the `free` channel.
        env.memory.touch_page_cache("python-stdlib-runtime", model.stdlib_cache_bytes)

        stdout = model.simulated_stdout(bundle.spec.process.env)
        container.stdout = stdout
        container.exit_code = 0
        container.facts["runtime_model"] = "cpython"
        # Boot time is accounted in the startup profile's parallel phase;
        # steady-state service work is idle.
        return 0.0


def kill_and_delete(env: NodeEnv, container: Container) -> None:
    """OCI kill + delete: stop the container and release its processes.

    The same for every runtime and shim, so containerd calls it directly.
    """
    if container.state in (ContainerState.RUNNING, ContainerState.CREATED):
        container.transition(ContainerState.STOPPED)
        container.stopped_at = env.kernel.now
    for proc in container.processes:
        env.memory.exit(proc)
    container.processes.clear()
    container.transition(ContainerState.DELETED)
