"""containerd: the high-level runtime driving shims and OCI runtimes.

Owns pod sandboxes and container tasks on one node; the kubelet calls
``run_pod_sandbox``, ``create_container`` and ``remove_pod_sandbox``
directly. The ``create_container`` activity realizes the startup
decomposition from :mod:`repro.container.startup`: a node-global
serialized phase, a CPU-bound parallel phase on the 20-way run queue
(scaled by memory pressure), then the dispatch to the config's one
runtime or shim, which spawns the real process/memory state and runs
the workload through the interpreter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro import obs
from repro.container.highlevel.runwasi import RunwasiShim
from repro.container.highlevel.shim import spawn_pause, spawn_runc_shim
from repro.container.lifecycle import Container
from repro.container.lowlevel.base import OCIRuntime, kill_and_delete
from repro.container.nodeenv import NodeEnv
from repro.container.startup import startup_profile
from repro.core.integration import CONFIGS, build_runtime
from repro.errors import ContainerError
from repro.oci.bundle import build_bundle
from repro.sim.faults import FaultPoint
from repro.sim.kernel import Acquire, Release, Timeout
from repro.sim.process import SimProcess


@dataclass
class PodHandle:
    """containerd's view of one pod sandbox."""

    pod_uid: str
    cgroup: str
    pause: Optional[SimProcess] = None
    shim: Optional[SimProcess] = None
    containers: List[Container] = field(default_factory=list)


class Containerd:
    """One containerd daemon per node."""

    def __init__(self, env: NodeEnv) -> None:
        self.env = env
        self._counter = itertools.count(1)
        self.pods: Dict[str, PodHandle] = {}
        self._m_tasks = obs.counter(
            "repro_containerd_tasks_total",
            "containerd sandbox/container lifecycle events",
            ("event",),
        )
        self._m_zygote = obs.counter(
            "repro_zygote_containers_total",
            "containers created by zygote warm-start mode",
            ("mode",),
        )
        #: config id → its runtime or shim, built from the config's row
        #: when its first container arrives on this node
        self._runtimes: Dict[str, Union[OCIRuntime, RunwasiShim]] = {}

    # -- sandboxes -------------------------------------------------------------

    def run_pod_sandbox(self, pod_uid: str) -> PodHandle:
        """Create the pod sandbox: cgroup, pause process, per-pod overhead."""
        if pod_uid in self.pods:
            raise ContainerError(f"sandbox for pod {pod_uid} already exists")
        self.env.inject(FaultPoint.SANDBOX_SETUP, pod_uid)
        cgroup = f"/kubepods/pod{pod_uid}"
        handle = PodHandle(pod_uid=pod_uid, cgroup=cgroup)
        handle.pause = spawn_pause(self.env, pod_uid, cgroup)
        self.env.note_pod_created()
        self.pods[pod_uid] = handle
        self._m_tasks.labels("sandbox_created").inc()
        return handle

    def remove_pod_sandbox(self, pod_uid: str) -> None:
        handle = self.pods.pop(pod_uid, None)
        if handle is None:
            return
        for container in list(handle.containers):
            self._teardown_container(handle, container)
        if handle.pause is not None:
            self.env.memory.exit(handle.pause)
        if handle.shim is not None:
            self.env.memory.exit(handle.shim)
        self.env.note_pod_removed()
        self._m_tasks.labels("sandbox_removed").inc()

    def _teardown_container(self, handle: PodHandle, container: Container) -> None:
        kill_and_delete(self.env, container)
        if container in handle.containers:
            handle.containers.remove(container)
        self._m_tasks.labels("container_removed").inc()

    # -- container creation (simulated activity) ----------------------------------

    def create_container(
        self,
        pod_uid: str,
        config_id: str,
        image_ref: str,
        command: Optional[List[str]] = None,
        env_vars: Optional[Dict[str, str]] = None,
    ):
        """Activity: create + start one container; returns the Container."""
        env = self.env
        config = CONFIGS.get(config_id)
        if config is None:
            raise ContainerError(f"unknown runtime config {config_id!r}")
        handle = self.pods.get(pod_uid)
        if handle is None:
            raise ContainerError(f"no sandbox for pod {pod_uid}")
        profile = startup_profile(config_id)
        runtime = self._runtimes.get(config_id)
        if runtime is None:
            runtime = self._runtimes[config_id] = build_runtime(config, env.memory)

        # Image pull (warm after the first pod of a deployment). The
        # injection point models registry/transport flakes, which occur
        # even when the content would be cache-warm.
        env.inject(FaultPoint.IMAGE_PULL, pod_uid)
        t0 = env.kernel.now
        pull = env.images.pull(image_ref)
        if pull.seconds:
            yield Timeout(pull.seconds)
        env.tracer.record("startup.pull", image_ref, t0, env.kernel.now, config=config_id)

        container_id = f"{config_id}-{next(self._counter):05d}"
        bundle = build_bundle(
            container_id,
            pull.image,
            args_override=command,
            env_override=env_vars,
            cgroups_path=handle.cgroup,
        )
        container = Container(
            container_id=container_id,
            pod_uid=pod_uid,
            runtime_config=config_id,
            cgroup=handle.cgroup,
            created_at=env.kernel.now,
        )

        # Phase 1 — serialized (cgroup/loader/daemon-global locks). Hold
        # time grows with the containers already resident (see startup.py).
        t0 = env.kernel.now
        yield Acquire(env.serial_lock)
        # Zygote warm start: decided under the lock, once we know whether
        # an earlier container of this image finished instantiation and
        # left a snapshot — the serialized loader work and two-phase
        # instantiation then collapse into a restore. The first containers
        # through the lock race the pioneer's dispatch and start cold.
        warm = config.zygote and env.zygote_warm(config_id, image_ref)
        if warm and profile.warm is not None:
            profile = profile.warm
        if config.zygote:
            container.facts["zygote_warm"] = warm
        yield Timeout(profile.serial_hold(env.containers_created))
        env.containers_created += 1
        yield Release(env.serial_lock)
        env.tracer.record(
            "startup.serialized", container_id, t0, env.kernel.now, config=config_id
        )

        # Phase 2 — CPU-bound work on the 20-way run queue under pressure.
        t0 = env.kernel.now
        yield Acquire(env.cpu_queue)
        work = profile.parallel_s * env.pressure()
        work += env.jitter(f"startup/{container_id}", profile.jitter_s)
        yield Timeout(work)
        env.tracer.record(
            "startup.parallel", container_id, t0, env.kernel.now, config=config_id
        )

        # Phase 3 — dispatch: spawn processes, run workload functionally.
        # A failure here (injected or organic, e.g. OOM mid-spawn) must
        # release every process already spawned for this container, or
        # failed attempts would leak memory the node never gets back.
        try:
            env.inject(FaultPoint.SHIM_SPAWN, pod_uid)
            if config.workload == "wasm":
                env.inject(FaultPoint.ENGINE_COMPILE, pod_uid)
                env.inject(FaultPoint.ENGINE_INSTANTIATE, pod_uid)
            # Guest dispatch runs under the pod's fault scope so the
            # runtime injection points (guest trap/exhaust, WASI syscall,
            # zygote/cache corruption) deep in the wasm layers see the
            # node's plan. create_and_exec is synchronous — no kernel
            # yields inside the scope — so the ambient context never
            # interleaves across pods.
            with env.fault_scope(pod_uid):
                if config.family != "runwasi" and handle.shim is None:
                    handle.shim = spawn_runc_shim(
                        env, pod_uid, for_runc=(config.family == "runc")
                    )
                exec_seconds = runtime.create_and_exec(env, container, bundle)
            env.inject(FaultPoint.MAIN_EXEC, pod_uid)
        except BaseException:
            for proc in container.processes:
                env.memory.exit(proc)
            container.processes.clear()
            raise
        finally:
            yield Release(env.cpu_queue)

        container.started_at = env.kernel.now
        container.exec_started_at = env.kernel.now  # first guest instruction
        handle.containers.append(container)
        self._m_tasks.labels("container_started").inc()
        if config.zygote:
            env.note_zygote(config_id, image_ref)
            self._m_zygote.labels("warm" if warm else "cold").inc()
        if exec_seconds:
            yield Timeout(exec_seconds)
        env.tracer.record(
            "startup.exec",
            container_id,
            container.exec_started_at,
            env.kernel.now,
            config=config_id,
        )
        return container
