"""Container runtimes: OCI lifecycle, low-level runtimes, containerd.

Layers (top to bottom, as in the paper's Figure 1):

* :mod:`repro.container.highlevel` — containerd, which the kubelet calls
  directly, with its shim architecture (``containerd-shim-runc-v2`` for
  OCI runtimes, runwasi shims for direct Wasm execution);
* :mod:`repro.container.lowlevel` — one OCI runtime class for runC, crun
  and youki, each built with at most one wasm handler, and crun's
  upstream engine handler;
* :mod:`repro.container.lifecycle` — the OCI state machine shared by all
  of them;
* :mod:`repro.container.startup` — calibrated startup-latency profiles
  per runtime configuration (see the module docstring for provenance).
"""

from repro.container.lifecycle import Container, ContainerState
from repro.container.startup import StartupProfile, startup_profile

__all__ = ["Container", "ContainerState", "StartupProfile", "startup_profile"]
