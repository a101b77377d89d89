"""Exception hierarchy shared across the repro library.

Every layer of the stack (wasm, OCI, container runtimes, Kubernetes) raises
subclasses of :class:`ReproError` so callers can catch at whatever altitude
they operate: a kubelet failing a pod catches :class:`ContainerError`, a
container runtime surfacing a guest fault catches :class:`WasmTrap`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Misuse of the discrete-event kernel (e.g. scheduling in the past)."""


class OutOfMemory(ReproError):
    """A node's physical memory is exhausted (the OOM killer would fire)."""


# --------------------------------------------------------------------------
# WebAssembly
# --------------------------------------------------------------------------


class WasmError(ReproError):
    """Base class for WebAssembly format/validation/runtime errors."""


class MalformedModule(WasmError):
    """The binary does not decode (bad magic, truncated section, ...)."""


class InvalidModule(WasmError):
    """The module decoded but failed validation (type errors, bad indices)."""


class WatSyntaxError(WasmError):
    """The WebAssembly text source failed to parse."""


class WasmTrap(WasmError):
    """A trap raised during execution (unreachable, OOB access, div by 0)."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class ExhaustionError(WasmTrap):
    """Call-stack or fuel exhaustion while executing a module."""


class LinkError(WasmError):
    """Instantiation failed to resolve an import or mismatch its type."""


class WasiExit(WasmError):
    """Raised by ``proc_exit`` to unwind the interpreter with an exit code."""

    def __init__(self, code: int) -> None:
        super().__init__(f"proc_exit({code})")
        self.code = code


# --------------------------------------------------------------------------
# Mini-C compiler
# --------------------------------------------------------------------------


class CompileError(ReproError):
    """A mini-C source program failed to lex/parse/type-check/compile."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        location = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.col = col


# --------------------------------------------------------------------------
# OCI / containers
# --------------------------------------------------------------------------


class OCIError(ReproError):
    """Malformed OCI artifact (image, bundle, runtime spec)."""


class ImageNotFound(OCIError):
    """The requested image reference is not in the local store."""


class ContainerError(ReproError):
    """Container lifecycle violation or runtime failure."""


class InvalidTransition(ContainerError):
    """An OCI lifecycle operation was applied in the wrong state."""


class EngineError(ReproError):
    """A Wasm engine failed to compile/instantiate/run a module."""


class FaultInjected(ContainerError):
    """A failure injected by :class:`repro.sim.faults.FaultPlan`.

    Subclasses :class:`ContainerError` so every layer that already treats
    container-runtime failures as operational (kubelet pod-sync, containerd)
    handles injected faults through the same paths as organic ones.
    ``transient`` drives the kubelet's restart decision: transient faults
    are retried under the pod's restart policy, permanent ones fail the
    pod immediately.

    ``point``/``key``/``occurrence`` carry the structured injection
    context (which point fired, for which pod/digest, and the 1-based
    per-point attempt number) so chaos runs are debuggable from the
    exception alone.
    """

    def __init__(
        self,
        message: str,
        point: str,
        transient: bool = True,
        key: str = "",
        occurrence: int = 0,
    ) -> None:
        super().__init__(message)
        self.point = point
        self.transient = transient
        self.key = key
        self.occurrence = occurrence


class AdmissionRejected(ContainerError):
    """Kubelet admission load-shedding: the node refused to start a pod
    while memory pressure sits past the eviction threshold. Always
    transient — the pod backs off (MemoryPressure) and retries once
    evictions/teardowns relieve the node."""


# --------------------------------------------------------------------------
# Measurement / campaign engine
# --------------------------------------------------------------------------


class SeriesError(ReproError):
    """A campaign on fewer than one node, or a campaign-engine failure:
    a dead worker pool, or a worker error that cannot travel back."""


# --------------------------------------------------------------------------
# Telemetry files
# --------------------------------------------------------------------------


class FormatError(ReproError, ValueError):
    """A file read back by ``repro inspect`` or ``repro monitor`` is not
    the format its reader expects (a trace, Prometheus exposition text,
    a time-series stream)."""


# --------------------------------------------------------------------------
# Kubernetes
# --------------------------------------------------------------------------


class KubernetesError(ReproError):
    """API-server/scheduler/kubelet level failure."""


class SchedulingError(KubernetesError):
    """No node can host the pod (capacity, runtime class, pressure)."""
