"""High-level container runtime: containerd, its shims and the runwasi shims.

The kubelet calls :class:`Containerd` directly; containerd dispatches
each container to its config's one low-level runtime or runwasi shim.
"""

from repro.container.highlevel.shim import spawn_runc_shim, spawn_pause
from repro.container.highlevel.runwasi import RunwasiShim
from repro.container.highlevel.containerd import Containerd, PodHandle

__all__ = [
    "spawn_runc_shim",
    "spawn_pause",
    "RunwasiShim",
    "Containerd",
    "PodHandle",
]
