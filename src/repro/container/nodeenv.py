"""Shared per-node environment handed to every runtime component."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Set, Tuple

from repro import obs
from repro.oci.store import ImageStore
from repro.sim.cpu import CpuModel
from repro.sim.faults import FaultPlan, FaultPoint
from repro.sim.faults import fault_scope as sim_fault_scope
from repro.sim.kernel import Kernel, Resource
from repro.sim.memory import SystemMemoryModel
from repro.sim.process import SimProcess
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.container import constants as C


@dataclass
class NodeEnv:
    """Everything container runtimes need from "the machine".

    One instance per worker node; built by
    :func:`repro.k8s.cluster.build_cluster`.
    """

    kernel: Kernel
    memory: SystemMemoryModel
    cpu: CpuModel
    cpu_queue: Resource
    serial_lock: Resource
    rng: RngStreams
    images: ImageStore
    containers_created: int = 0
    containerd_proc: Optional[SimProcess] = None
    tracer: Tracer = None  # type: ignore[assignment]  # set in create()
    #: armed fault plan (None = no injection, zero overhead)
    faults: Optional[FaultPlan] = None
    #: (config_id, image_ref) pairs with a resident zygote snapshot on
    #: *this node* — per-node deliberately, not the process-wide snapshot
    #: cache, so warm/cold decisions are deterministic per experiment
    #: regardless of what ran earlier in the process.
    zygote_ready: Set[Tuple[str, str]] = field(default_factory=set)
    _containerd_heap_key: Optional[str] = None
    #: called when ``zygote_ready`` gains a pair (see :meth:`watch_zygotes`)
    _zygote_watcher: Optional[Callable[[], None]] = None

    @classmethod
    def create(
        cls,
        kernel: Kernel,
        memory: SystemMemoryModel,
        cpu: Optional[CpuModel] = None,
        rng: Optional[RngStreams] = None,
        images: Optional[ImageStore] = None,
        faults: Optional[FaultPlan] = None,
    ) -> "NodeEnv":
        cpu = cpu or CpuModel()
        env = cls(
            kernel=kernel,
            memory=memory,
            cpu=cpu,
            cpu_queue=cpu.make_run_queue(),
            serial_lock=Resource(1, name="node-serial"),
            rng=rng or RngStreams(0),
            images=images or ImageStore(memory=memory),
            # With telemetry on, the node tracer mirrors every span into
            # the process-wide trace (tagged with the current context).
            tracer=Tracer(sink=obs.span_sink() if obs.enabled() else None),
            faults=faults,
        )
        env._boot_daemons()
        return env

    def _boot_daemons(self) -> None:
        """Bring up the node's resident daemons (containerd)."""
        proc = self.memory.spawn("containerd", cgroup="/system.slice/containerd")
        self.memory.map_private(proc, C.CONTAINERD_BASE, label="containerd-heap")
        self.memory.map_file(
            proc, C.CONTAINERD_TEXT_FILE, C.CONTAINERD_TEXT, label="containerd-text"
        )
        kubelet = self.memory.spawn("kubelet", cgroup="/system.slice/kubelet")
        self.memory.map_private(kubelet, C.KUBELET_BASE, label="kubelet-heap")
        self.containerd_proc = proc
        self._containerd_heap_key = self.memory.map_private(
            proc, 0, label="containerd-growth"
        )

    # -- per-pod bookkeeping -------------------------------------------------

    def note_pod_created(self) -> None:
        """Apply per-pod daemon + kernel growth (the `free`-only costs)."""
        self.memory.add_kernel_overhead(C.KERNEL_PER_POD)
        assert self.containerd_proc is not None and self._containerd_heap_key
        seg = self.containerd_proc.segments[self._containerd_heap_key]
        self.containerd_proc.resize_segment(
            self._containerd_heap_key, seg.size + C.CONTAINERD_GROWTH_PER_POD
        )

    def note_pod_removed(self) -> None:
        self.memory.remove_kernel_overhead(C.KERNEL_PER_POD)
        assert self.containerd_proc is not None and self._containerd_heap_key
        seg = self.containerd_proc.segments[self._containerd_heap_key]
        self.containerd_proc.resize_segment(
            self._containerd_heap_key, max(0, seg.size - C.CONTAINERD_GROWTH_PER_POD)
        )

    def zygote_warm(self, config_id: str, image_ref: str) -> bool:
        """Can the next container of this (config, image) clone a zygote?"""
        return (config_id, image_ref) in self.zygote_ready

    def note_zygote(self, config_id: str, image_ref: str) -> None:
        """Record that a cold container left a restorable snapshot behind."""
        key = (config_id, image_ref)
        if key not in self.zygote_ready:
            self.zygote_ready.add(key)
            if self._zygote_watcher is not None:
                self._zygote_watcher()

    def watch_zygotes(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` whenever this node gains a zygote snapshot.

        The scheduler's locality term reads :meth:`zygote_warm`; this is
        how it learns that the answer changed.
        """
        self._zygote_watcher = fn

    def inject(self, point: FaultPoint, key: str) -> None:
        """Fault-injection hook: raises ``FaultInjected`` when armed & firing."""
        if self.faults is not None:
            self.faults.raise_if_fires(point, key)

    def fault_scope(self, key: str):
        """Arm this node's plan as the ambient fault context for ``key``.

        Brackets guest dispatch so the runtime injection points deep in
        the wasm/engine layers (which hold no node reference) see the
        plan. With no plan armed this is a no-op context manager.
        """
        return sim_fault_scope(self.faults, key)

    def pressure(self) -> float:
        """Current startup-work pressure multiplier (O(1) on the ledger)."""
        return self.cpu.pressure_factor(
            self.memory.process_count(), self.memory.node_working_set()
        )

    def clock_ns(self) -> int:
        return int(self.kernel.now * 1e9)

    def jitter(self, stream: str, scale: float) -> float:
        return self.rng.jitter(stream, scale)
