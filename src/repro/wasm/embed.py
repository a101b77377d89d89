"""Embedder convenience API: run a WASI command module in one call.

This is the code path every engine model exercises: decode → validate →
link WASI imports → instantiate → attach exported memory → call
``_start`` → collect exit code and captured output.

Repeated runs of one blob are collapsed through the engine caches: the
bytes are decoded/validated once per digest (``decode`` layer), the
**specialization tier** compiles the prepared code to Python closures
once per digest (``specialize`` layer — an unmetered and a metered
closure per function, with statically proven bounds checks dropped;
disable with ``REPRO_SPECIALIZE=off``), and
the **zygote warm-start** path instantiates once per digest, captures an
:class:`~repro.wasm.runtime.snapshot.InstanceSnapshot`, and clones every
subsequent instance from it (``zygote`` layer) — observably identical to
a cold instantiation, including instruction and fuel metering. Disable
with ``REPRO_ZYGOTE=off``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.errors import ExhaustionError, WasiExit, WasmError
from repro.obs import profile
from repro.sim import faults
from repro.wasm.ast import Module
from repro.wasm.decoder import decode_module
from repro.wasm.runtime import Interpreter, ModuleInstance, Store, instantiate
from repro.wasm.runtime.snapshot import (
    InstanceSnapshot,
    capture_snapshot,
    dirty_memory_bytes,
    restore_instance,
    verify_snapshot,
    zygote_enabled,
)
from repro.wasm.validation import validate_module
from repro.wasm.wasi import InMemoryFilesystem, WasiEnv

#: buckets for the restore-latency histogram: real restores are tens of
#: microseconds; the default (request-scale) buckets would collapse them
_RESTORE_BUCKETS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2)


@dataclass
class WasiRunResult:
    """Outcome of one guest run."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    instructions: int
    memory_bytes: int  # linear memory resident at exit
    instance: ModuleInstance
    store: Store
    #: True when the instance was cloned from a zygote snapshot
    restored: bool = False
    #: digest keying the zygote layer (None = zygote not considered)
    zygote_digest: Optional[str] = None
    #: bytes of linear memory diverging from the snapshot at exit (page
    #: granularity); equals ``memory_bytes`` when no snapshot exists
    dirty_memory_bytes: int = 0


class _HostCallCounter:
    """Temporarily wraps every host function to count invocations.

    Decides snapshot placement: a start section that never calls the host
    is pure state initialization, so the *post*-start state can be
    captured and the start skipped on restore. Any host call means side
    effects outside the instance — snapshot pre-start and re-run it.
    """

    def __init__(self, store: Store) -> None:
        self._store = store
        self.count = 0
        self._saved: List[Tuple[object, Callable]] = []

    def __enter__(self) -> "_HostCallCounter":
        for func in self._store.funcs:
            if func.is_host:
                self._saved.append((func, func.host_fn))
                func.host_fn = self._wrap(func.host_fn)
        return self

    def _wrap(self, fn: Callable) -> Callable:
        def counted(*args):
            self.count += 1
            return fn(*args)

        return counted

    def __exit__(self, *exc) -> None:
        for func, fn in self._saved:
            func.host_fn = fn


def _credit_start_cost(interp, credited: int) -> None:
    """Meter the skipped start section as if it had executed.

    Mirrors the interpreter's exhaustion protocol exactly: a budget too
    small for the start section fails the same way a cold run would.
    """
    fuel = getattr(interp, "fuel", None)
    if fuel is None or fuel < 0:
        return
    if credited > fuel:
        interp.instructions_executed += fuel
        interp.fuel = -1
        raise ExhaustionError("fuel exhausted")
    interp.fuel = fuel - credited


def _capture_zygote(
    cache, store: Store, instance: ModuleInstance, interp, digest: str
) -> Optional[InstanceSnapshot]:
    """First run of a digest: run the start section (if any) and record
    the best restorable snapshot in the zygote layer. Returns it, or
    ``None`` when the module is unsnapshottable (digest poisoned).

    Raises whatever the start section raises — after saving the
    pre-start snapshot, so later runs still warm-start and reproduce the
    failure by re-running the start.
    """
    module = instance.module
    if module.start is None:
        snapshot = capture_snapshot(store, instance, digest, start_rerun=False)
        cache.zygote_put(digest, snapshot)
        return snapshot

    pre = capture_snapshot(store, instance, digest, start_rerun=True)
    before = interp.instructions_executed
    counter = _HostCallCounter(store)
    try:
        with counter:
            interp.invoke(instance.func_addrs[module.start])
    except BaseException:
        cache.zygote_put(digest, pre)
        raise
    if counter.count:
        cache.zygote_put(digest, pre)
        return pre
    snapshot = capture_snapshot(
        store,
        instance,
        digest,
        start_rerun=False,
        start_instructions=interp.instructions_executed - before,
    )
    if snapshot is None:
        # Post-start state not restorable (e.g. table entry rebound to a
        # host function); fall back to re-running the start every time.
        snapshot = pre
    cache.zygote_put(digest, snapshot)
    return snapshot


def run_wasi(
    module: Union[bytes, Module],
    args: Sequence[str] = ("main.wasm",),
    env: Optional[Dict[str, str]] = None,
    preopens: Optional[Dict[str, str]] = None,
    fs: Optional[InMemoryFilesystem] = None,
    stdin: bytes = b"",
    fuel: Optional[int] = None,
    clock_ns: Optional[Callable[[], int]] = None,
    entrypoint: str = "_start",
    interpreter_cls: type = Interpreter,
    zygote: Optional[bool] = None,
    digest: Optional[str] = None,
) -> WasiRunResult:
    """Execute a WASI command module to completion.

    Args:
        module: binary bytes or an already-decoded :class:`Module`
            (validated here unless ``validate_module`` already passed it).
        args: argv (``args[0]`` is the program name).
        env: environment variables.
        preopens: guest path → host-fs path preopened directories.
        fs: filesystem to mount (fresh empty one if omitted).
        stdin: bytes readable on fd 0.
        fuel: optional instruction budget (``ExhaustionError`` beyond it).
        clock_ns: deterministic nanosecond clock for ``clock_time_get``.
        entrypoint: exported function to call (``_start`` for commands).
        interpreter_cls: interpreter implementation (the differential
            tests pass ``ReferenceInterpreter`` here).
        zygote: force zygote warm-start on/off for this run (default:
            the ``REPRO_ZYGOTE`` environment toggle).
        digest: content digest of ``module`` if the caller knows it
            (derived automatically for ``bytes`` input); keys the zygote
            snapshot layer. Without a digest the run is always cold.

    Returns:
        :class:`WasiRunResult`. ``exit_code`` is 0 when the entrypoint
        returns normally, otherwise the ``proc_exit`` code.
    """
    # Deferred: engines.cache imports engines.base, which imports us.
    from repro.engines import cache as engine_cache

    if isinstance(module, (bytes, bytearray)):
        module, digest = engine_cache.decode_cached(bytes(module), digest)
    elif not module.validated:
        # Once per module object: WasmEngine.compile already validated
        # every module the engines run.
        validate_module(module)

    use_zygote = zygote_enabled() if zygote is None else bool(zygote)
    snapshot: Optional[InstanceSnapshot] = None
    capture = False
    if use_zygote and digest is not None:
        snapshot = engine_cache.zygote_get(digest)
        if snapshot is not None:
            ctx = faults.ambient()
            # Injected corruption (chaos plan) or organic checksum
            # mismatch both quarantine the digest: the snapshot is
            # dropped, never re-captured, and this run — like every
            # later one — takes the cold two-phase path. Verification
            # is amortized to once per digest on the happy path, but
            # runs every time under an armed fault scope (the plan may
            # corrupt the entry on any restore).
            corrupt = (
                ctx is not None
                and ctx[0].check(faults.FaultPoint.ZYGOTE_CORRUPT, ctx[1])
                is not None
            )
            if not corrupt and (
                ctx is not None or not engine_cache.zygote_verified(digest)
            ):
                if verify_snapshot(snapshot):
                    engine_cache.zygote_mark_verified(digest)
                else:
                    corrupt = True
            if corrupt:
                engine_cache.zygote_quarantine(digest)
                snapshot = None
        # Quarantined digests stay zygote_known, so capture stays False.
        capture = snapshot is None and not engine_cache.zygote_known(digest)

    store = Store()
    wasi = WasiEnv(
        args=args,
        env=env,
        preopens=preopens,
        fs=fs,
        stdin=stdin,
        clock_ns=clock_ns,
    )
    host = wasi.register(store, module)
    interp = interpreter_cls(store, fuel=fuel)
    prof = profile.active_profiler()
    if prof is not None:
        interp.profiler = prof

    restored = snapshot is not None
    restore_elapsed = 0.0
    if restored:
        t_restore = time.perf_counter()
        instance = restore_instance(store, snapshot, imports=host.import_map())
        restore_elapsed = time.perf_counter() - t_restore
        engine_cache.zygote_stats.hit()
    else:
        instance = instantiate(
            store, module, imports=host.import_map(), run_start=False
        )
    if instance.mem_addrs:
        wasi.attach_memory(store.mems[instance.mem_addrs[0]])

    credited = 0
    exit_code = 0
    try:
        if restored:
            if module.start is not None and snapshot.start_rerun:
                interp.invoke(instance.func_addrs[module.start])
            elif snapshot.start_instructions:
                credited = snapshot.start_instructions
                _credit_start_cost(interp, credited)
        elif capture:
            engine_cache.zygote_stats.miss()
            snapshot = _capture_zygote(engine_cache, store, instance, interp, digest)
        elif module.start is not None:
            interp.invoke(instance.func_addrs[module.start])

        ctx = faults.ambient()
        if ctx is not None:
            # Mid-run guest failures: a trap (unreachable, OOB) or
            # fuel/OOM exhaustion between start and entrypoint. Raised
            # as FaultInjected (a ContainerError), so they pass through
            # the engine's WasmTrap→EngineError conversion untouched
            # and reach the kubelet as pod-visible transient crashes.
            plan, pod_key = ctx
            plan.raise_if_fires(faults.FaultPoint.GUEST_TRAP, pod_key)
            plan.raise_if_fires(faults.FaultPoint.GUEST_EXHAUST, pod_key)

        entry = instance.exports.get(entrypoint)
        if entry is not None:
            if entry[0] != "func":
                raise WasmError(
                    f"export {entrypoint!r} is a {entry[0]}, not a function"
                )
            interp.invoke(entry[1])
        elif module.start is None:
            raise WasmError(f"module has no {entrypoint!r} export and no start section")
    except WasiExit as stop:
        exit_code = stop.code

    instructions = interp.instructions_executed + credited
    memory_bytes = store.total_memory_bytes()
    if snapshot is not None:
        dirty = dirty_memory_bytes(snapshot, store, instance)
    else:
        dirty = memory_bytes

    if obs.enabled():
        obs.counter(
            "repro_wasm_instructions_total",
            "guest instructions retired across all interpreter runs",
        ).inc(instructions)
        remaining = getattr(interp, "fuel", None)
        if fuel is not None and remaining is not None:
            obs.counter(
                "repro_wasm_fuel_consumed_total",
                "fuel consumed by fuel-limited guest runs",
            ).inc(fuel - max(remaining, 0))
        mode = "restore" if restored else ("capture" if capture else "cold")
        obs.counter(
            "repro_zygote_runs_total",
            "guest runs by zygote warm-start path",
            ("mode",),
        ).labels(mode).inc()
        pf = module.funcs[0].prepared if module.funcs else None
        if getattr(pf, "fallback", None) is not None:
            closure = pf.compiled if fuel is None else pf.metered
            spec_mode = "compiled" if closure is not None else "bytecode"
        else:
            spec_mode = "off"
        obs.counter(
            "repro_specialize_runs_total",
            "guest runs by the specialization-tier code they dispatch to",
            ("mode",),
        ).labels(spec_mode).inc()
        if restored:
            obs.histogram(
                "repro_zygote_restore_seconds",
                "wall-clock latency of cloning an instance from its zygote snapshot",
                buckets=_RESTORE_BUCKETS,
            ).observe(restore_elapsed)

    return WasiRunResult(
        exit_code=exit_code,
        stdout=bytes(wasi.stdout),
        stderr=bytes(wasi.stderr),
        instructions=instructions,
        memory_bytes=memory_bytes,
        instance=instance,
        store=store,
        restored=restored,
        zygote_digest=digest if use_zygote else None,
        dirty_memory_bytes=dirty,
    )
