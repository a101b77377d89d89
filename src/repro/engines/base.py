"""Engine interface: compile/instantiate/run with resource accounting.

The functional half executes modules for real through the interpreter
substrate; the resource half turns profile constants plus observed run
facts (module size, linear memory pages, executed instructions) into the
memory segments and latencies the container/node models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.errors import EngineError, WasmError, WasmTrap
from repro.engines.profiles import EngineProfile
from repro.wasm.ast import Module
from repro.wasm.embed import WasiRunResult, run_wasi
from repro.wasm.wasi.fs import InMemoryFilesystem


@dataclass
class CompiledModule:
    """A module prepared for execution by a specific engine."""

    engine: str
    module: Module
    module_size: int  # binary bytes
    artifact_bytes: int  # resident executable artifact (JIT code / in-place)
    compile_seconds: float
    #: content digest; keys the zygote and run layers (None = a module
    #: the caches never saw: every run is cold and executes)
    digest: Optional[str] = None


#: Instruction budget per container run. Real runtimes rely on the pod's
#: CPU limits; the simulated node needs a hard stop so a runaway guest
#: (infinite loop in the image) fails the container instead of hanging
#: the harness. Two orders of magnitude above the microservice's needs.
DEFAULT_FUEL = 5_000_000


@dataclass
class EngineRunResult:
    """Functional + resource outcome of one guest execution."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    instructions: int
    linear_memory_bytes: int
    exec_seconds: float
    #: linear-memory bytes diverging from the zygote snapshot (page
    #: granularity) — the COW split a clone of this run costs. Equals
    #: ``linear_memory_bytes`` when no snapshot exists (all private).
    dirty_memory_bytes: int = 0


class WasmEngine:
    """One engine = interpreter substrate + an :class:`EngineProfile`."""

    def __init__(self, profile: EngineProfile) -> None:
        self.profile = profile

    @property
    def name(self) -> str:
        return self.profile.name

    # -- functional path ---------------------------------------------------

    def compile(self, blob: bytes) -> CompiledModule:
        """Decode + validate (+ model the compile phase), through the
        engine caches' shared decode entry."""
        # Deferred: engines.cache imports this module.
        from repro.engines.cache import compile_cached

        return compile_cached(self, blob)

    def run(
        self,
        compiled: CompiledModule,
        args: Sequence[str] = ("main.wasm",),
        env: Optional[Dict[str, str]] = None,
        preopens: Optional[Dict[str, str]] = None,
        fs: Optional[InMemoryFilesystem] = None,
        stdin: bytes = b"",
        fuel: Optional[int] = DEFAULT_FUEL,
    ) -> EngineRunResult:
        """Execute the module under WASI and meter the run.

        ``fuel`` bounds executed instructions (pass ``None`` to disable);
        exhaustion surfaces as :class:`EngineError`, which the kubelet
        turns into a Failed pod.
        """
        try:
            result: WasiRunResult = run_wasi(
                compiled.module,
                args=args,
                env=env,
                preopens=preopens,
                fs=fs,
                stdin=stdin,
                fuel=fuel,
                digest=compiled.digest,
            )
        except WasmTrap as trap:
            raise EngineError(f"{self.name}: trap: {trap}") from trap
        except WasmError as exc:
            raise EngineError(f"{self.name}: {exc}") from exc
        # Positional, in field order: this runs once per container.
        return EngineRunResult(
            result.exit_code,
            result.stdout,
            result.stderr,
            result.instructions,
            result.memory_bytes,  # linear_memory_bytes
            self.profile.exec_seconds(result.instructions),
            result.dirty_memory_bytes,
        )

    # -- resource path -------------------------------------------------------

    def embedded_private_bytes(self, compiled: CompiledModule, linear_memory: int) -> int:
        """Private RSS contribution when embedded in a container runtime
        process (the crun handler path): engine structures + instance +
        executable artifact + the guest's linear memory."""
        p = self.profile
        return p.base_rss + p.per_instance + compiled.artifact_bytes + linear_memory

    def shim_child_private_bytes(self, compiled: CompiledModule, linear_memory: int) -> int:
        """Private RSS of a runwasi shim's worker child for this engine."""
        return self.profile.shim_child_rss + linear_memory

    def warm_startup_seconds(self) -> float:
        """Engine-side warm path: clone from the zygote snapshot — no
        create, no compile, no two-phase instantiation."""
        return self.profile.restore_latency_s
