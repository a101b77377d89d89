"""Container Runtime Interface (CRI) — the kubelet↔containerd contract.

A thin, typed facade mirroring the RPCs Kubernetes actually uses
(RunPodSandbox, CreateContainer+StartContainer fused here as containerd's
task start, StopPodSandbox/RemovePodSandbox). Keeping the kubelet on this
interface means a different high-level runtime could be swapped in, as
the CRI intends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.container.highlevel.containerd import Containerd, PodHandle
from repro.sim.faults import FaultPoint


@dataclass
class ContainerConfig:
    """CRI container config subset."""

    image_ref: str
    command: Optional[List[str]] = None
    env: Dict[str, str] = field(default_factory=dict)


@dataclass
class PodSandboxConfig:
    pod_uid: str
    name: str
    runtime_handler: str  # RuntimeClass → handler (e.g. "crun-wamr")


class CRIService:
    """The gRPC surface, as plain method calls / activities."""

    def __init__(self, containerd: Containerd) -> None:
        self._containerd = containerd

    def run_pod_sandbox(self, config: PodSandboxConfig) -> PodHandle:
        self._containerd.env.inject(
            FaultPoint.CRI_RPC, f"RunPodSandbox/{config.pod_uid}"
        )
        return self._containerd.run_pod_sandbox(config.pod_uid)

    def create_and_start_container(
        self, sandbox: PodSandboxConfig, container: ContainerConfig
    ):
        """Activity returning the started :class:`Container`."""
        self._containerd.env.inject(
            FaultPoint.CRI_RPC, f"CreateContainer/{sandbox.pod_uid}"
        )
        return self._containerd.create_container(
            sandbox.pod_uid,
            sandbox.runtime_handler,
            container.image_ref,
            command=container.command,
            env_vars=container.env,
        )

    def remove_pod_sandbox(self, pod_uid: str) -> None:
        self._containerd.remove_pod_sandbox(pod_uid)
