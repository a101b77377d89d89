"""Node-level memory constants shared by the container runtimes.

Each constant is a mechanism in the per-pod memory story (DESIGN.md §5):
the metrics-server channel sees only what lives in pod cgroups (pause +
container processes), the ``free`` channel additionally sees shim
processes, containerd daemon growth, and per-pod kernel structures.
"""

from __future__ import annotations

from repro.sim.memory import MIB

# -- pod sandbox ------------------------------------------------------------

#: Private RSS of the pause process (one per pod, inside the pod cgroup).
PAUSE_PRIVATE = int(0.30 * MIB)
#: Shared text of the pause binary (one copy node-wide).
PAUSE_TEXT = int(0.70 * MIB)
PAUSE_TEXT_FILE = "bin/pause"

# -- shims ----------------------------------------------------------------------

#: containerd-shim-runc-v2, one per pod for crun/runC paths. Lives in the
#: containerd cgroup: invisible to the metrics server, visible to `free`.
RUNC_SHIM_PRIVATE = int(1.15 * MIB)
#: runC's shim carries extra bookkeeping state for runC's fifo protocol.
RUNC_SHIM_PRIVATE_RUNC = int(1.25 * MIB)
RUNC_SHIM_TEXT = int(4.0 * MIB)
RUNC_SHIM_TEXT_FILE = "bin/containerd-shim-runc-v2"

#: Resident text of a runwasi shim binary (the touched subset of the
#: ~30 MiB static binary; engine linked in).
RUNWASI_SHIM_TEXT = int(8.0 * MIB)

# -- low-level runtimes ---------------------------------------------------------------

#: Private RSS the crun container process keeps after setup (the wasm
#: handlers run in this process; for exec workloads it is replaced).
CRUN_CHILD_PRIVATE = int(0.80 * MIB)
CRUN_TEXT = int(1.0 * MIB)
CRUN_TEXT_FILE = "bin/crun"
#: youki, the Rust runtime: a larger binary and a slightly heavier
#: retained process than crun's when it hosts the same wasm handler.
YOUKI_CHILD_PRIVATE = int(1.1 * MIB)
YOUKI_TEXT = int(5.0 * MIB)
YOUKI_TEXT_FILE = "bin/youki"

# -- per-pod node overhead ---------------------------------------------------------------

#: Kernel structures per pod: network namespace, veth pair, conntrack,
#: cgroup objects. Counted by `free`, never charged to the pod cgroup.
KERNEL_PER_POD = int(0.35 * MIB)
#: containerd daemon heap growth per managed pod (task + sandbox records).
CONTAINERD_GROWTH_PER_POD = int(0.15 * MIB)
#: containerd daemon baseline.
CONTAINERD_BASE = int(45.0 * MIB)
CONTAINERD_TEXT = int(35.0 * MIB)
CONTAINERD_TEXT_FILE = "bin/containerd"

#: kubelet baseline (present on every node; constant across experiments).
KUBELET_BASE = int(70.0 * MIB)

#: Std-dev of per-container private-memory jitter (allocator slack). The
#: paper reports < 0.1 MB deviation across identical containers (§IV-A).
MEMORY_JITTER = int(0.02 * MIB)

#: Engine-structure bytes a zygote clone dirties regardless of guest
#: writes: operand/call stacks, instance handles, import tables touched
#: during the restore itself (floor on the COW split per clone).
ZYGOTE_DIRTY_FLOOR = int(0.09 * MIB)
