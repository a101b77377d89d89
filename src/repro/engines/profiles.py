"""Calibrated engine resource profiles.

Each constant models a mechanism, not a measurement target:

* ``lib_text`` — the engine's shared-library text. Resident **once per
  node** no matter how many containers map it (WAMR's ``libiwasm`` is tiny;
  the Rust engines ship multi-MiB relocatable libraries).
* ``base_rss`` — private engine data structures built at
  ``engine_create()``: stores, signal handlers, code caches, compiler
  contexts. This is the dominant per-container cost for tiny workloads and
  the quantity the paper's WAMR-in-crun integration attacks.
* ``per_instance`` — per-instantiation private memory: value/call stacks,
  instance metadata, import tables.
* ``code_multiplier`` — executable artifact bytes per module byte.
  Interpreters execute the decoded module in place (≈1×); Cranelift-style
  JITs emit 4–8× the module size as native code plus relocation tables.
* ``shim_child_rss`` — private memory of the worker process a **runwasi
  shim** forks for the container. Differs from ``base_rss`` because the
  shims initialize differently than a crun-embedded engine: wasmtime's
  shim shares a pre-serialized (AOT) artifact with its children and
  initializes lazily; wasmer's shim eagerly builds its full Cranelift
  store per child.
* latency constants — compile throughput, the warm-start restore
  latency, and an interpreter speed used to convert the executed
  instruction count of the real workload run into simulated seconds.

Absolute values are order-of-magnitude realistic for the versions in
Table I; the benchmark suite asserts the paper's *relative* claims, which
emerge from these mechanisms rather than being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.memory import KIB, MIB

#: Software versions from the paper's Table I.
STACK_VERSIONS = {
    "Linux": "5.4.0-187-generic",
    "Kubernetes": "1.27.0",
    "containerd": "1.1.1",
    "runC": "1.6.31",
    "WAMR": "2.1.0",
    "WasmEdge": "0.14.0",
    "Wasmer": "4.3.5",
    "Wasmtime": "23.0.1",
}


@dataclass(frozen=True)
class EngineProfile:
    """Resource and latency model for one engine."""

    name: str
    version: str
    compile_mode: str  # "interp" | "jit" | "aot"
    lib_file: str  # shared-text file key
    lib_text: int  # bytes of shared library text
    base_rss: int  # private engine-create footprint (embedded in crun)
    per_instance: int  # private per-instantiation footprint
    code_multiplier: float  # artifact bytes per module byte
    shim_child_rss: int  # private footprint of a runwasi shim worker child
    shim_parent_rss: int  # private footprint of the runwasi shim parent
    # Latency model (seconds / rates):
    compile_bps: float  # module bytes compiled per second
    interp_ips: float  # guest instructions per simulated second
    #: warm-start cost: cloning an instance from a zygote snapshot instead
    #: of create + compile + instantiate (copying captured state only)
    restore_latency_s: float = 0.001

    def artifact_bytes(self, module_size: int) -> int:
        """Executable artifact resident alongside the module."""
        return int(module_size * self.code_multiplier)

    def compile_seconds(self, module_size: int) -> float:
        return module_size / self.compile_bps

    def exec_seconds(self, instructions: int) -> float:
        return instructions / self.interp_ips


WAMR = EngineProfile(
    name="wamr",
    version=STACK_VERSIONS["WAMR"],
    compile_mode="interp",  # fast-interpreter: executes decoded module in place
    lib_file="lib/libiwasm.so",
    lib_text=int(1.4 * MIB),
    base_rss=int(2.40 * MIB),
    per_instance=int(0.35 * MIB),
    code_multiplier=1.0,
    # WAMR is not shipped as a runwasi shim; fields kept for symmetry.
    shim_child_rss=int(1.3 * MIB),
    shim_parent_rss=int(0.5 * MIB),
    compile_bps=40 * MIB,  # "compile" = loader pass over the module
    interp_ips=60e6,
    # Tiny snapshots (in-place module + one-page memories) clone fast.
    restore_latency_s=0.0008,
)

WASMTIME = EngineProfile(
    name="wasmtime",
    version=STACK_VERSIONS["Wasmtime"],
    compile_mode="jit",  # Cranelift
    lib_file="lib/libwasmtime.so",
    lib_text=int(22 * MIB),
    base_rss=int(11.04 * MIB),
    per_instance=int(1.30 * MIB),
    code_multiplier=6.0,
    # runwasi wasmtime shim: parent compiles once (AOT-style serialized
    # artifact), children map it shared and initialize lazily.
    shim_child_rss=int(5.10 * MIB),
    shim_parent_rss=int(0.36 * MIB),
    compile_bps=6 * MIB,
    interp_ips=400e6,  # JIT-compiled code runs much faster
)

WASMER = EngineProfile(
    name="wasmer",
    version=STACK_VERSIONS["Wasmer"],
    compile_mode="jit",  # Cranelift backend (default)
    lib_file="lib/libwasmer.so",
    lib_text=int(28 * MIB),
    base_rss=int(15.34 * MIB),
    per_instance=int(1.30 * MIB),
    code_multiplier=7.0,
    # wasmer's shim eagerly builds a full store + engine per child.
    shim_child_rss=int(22.15 * MIB),
    shim_parent_rss=int(1.10 * MIB),
    compile_bps=5 * MIB,
    interp_ips=380e6,
)

WASMEDGE = EngineProfile(
    name="wasmedge",
    version=STACK_VERSIONS["WasmEdge"],
    compile_mode="interp",  # default interpreter mode (AOT is opt-in)
    lib_file="lib/libwasmedge.so",
    lib_text=int(18 * MIB),
    base_rss=int(6.14 * MIB),
    per_instance=int(0.90 * MIB),
    code_multiplier=1.0,
    shim_child_rss=int(5.85 * MIB),
    shim_parent_rss=int(0.80 * MIB),
    compile_bps=25 * MIB,
    interp_ips=45e6,
)

WAMR_AOT = EngineProfile(
    name="wamr-aot",
    version=STACK_VERSIONS["WAMR"],
    compile_mode="aot",  # wamrc-style ahead-of-time compilation
    lib_file="lib/libiwasm.so",
    lib_text=int(1.4 * MIB),
    base_rss=int(2.55 * MIB),
    per_instance=int(0.35 * MIB),
    code_multiplier=3.0,  # native code, leaner than Cranelift output
    shim_child_rss=int(1.5 * MIB),
    shim_parent_rss=int(0.5 * MIB),
    compile_bps=4 * MIB,  # AOT compilation is the expensive step
    interp_ips=500e6,  # near-native execution
    restore_latency_s=0.0008,
)

#: The paper's four engines (Table I).
ALL_PROFILES = {p.name: p for p in (WAMR, WASMTIME, WASMER, WASMEDGE)}

#: Extension profiles used by the ablation benchmarks (DESIGN.md §7);
#: not part of the paper's evaluation matrix.
EXTENSION_PROFILES = {WAMR_AOT.name: WAMR_AOT}
