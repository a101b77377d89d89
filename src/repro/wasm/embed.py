"""Embedder convenience API: run a WASI command module in one call.

This is the code path every engine model exercises: decode → validate →
link WASI imports → instantiate → attach exported memory → call
``_start`` → collect exit code and captured output.

Repeated runs of one blob are collapsed through the engine caches
(:mod:`repro.engines.cache`): the bytes are decoded/validated once per
digest for every engine and embed caller (``decode`` layer), the
**specialization tier** compiles the prepared code to Python closures
once per digest (``specialize`` layer — an unmetered and a metered
closure per function, with statically proven bounds checks dropped;
a function the pass declines keeps its prepared flat code), and
the **zygote warm-start** path instantiates once per digest, captures an
:class:`~repro.wasm.runtime.snapshot.InstanceSnapshot`, and clones every
subsequent instance from it (``zygote`` layer) — observably identical to
a cold instantiation, including instruction and fuel metering. Pass
``zygote=False`` to run one guest cold.

The **run** layer serves every run of one input after the first that
returned, armed fault plan or not: that run records the checks it
reached and the counter increments between them (:class:`RunLog`), and
later runs walk the log against their own fault draws instead of
executing the guest again. Every run still counts its host calls, bytes
and instructions. Zygote captures and runs in a caller-chosen host world
(fs, preopens, clock, interpreter, profiler) always execute.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.errors import ExhaustionError, WasiExit, WasmError
from repro.obs import profile
from repro.sim import faults
from repro.wasm.ast import Module
from repro.wasm.runtime import Interpreter, ModuleInstance, Store, instantiate
from repro.wasm.runtime.snapshot import (
    InstanceSnapshot,
    capture_snapshot,
    dirty_memory_bytes,
    restore_instance,
    verify_snapshot,
)
from repro.wasm.runtime.closures import DEOPT_COUNTERS
from repro.wasm.validation import validate_module
from repro.wasm.wasi import InMemoryFilesystem, WasiEnv
from repro.wasm.wasi.preview1 import calls_counter

#: buckets for the restore-latency histogram: real restores are tens of
#: microseconds; the default (request-scale) buckets would collapse them
_RESTORE_BUCKETS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2)

_ZYGOTE_CORRUPT = (faults.FaultPoint.ZYGOTE_CORRUPT,)
_NONE_ARMED: frozenset = frozenset()

#: :mod:`repro.engines.cache`, bound by the first :func:`run_wasi`
_engine_cache = None


@dataclass
class WasiRunResult:
    """Outcome of one guest run.

    ``instance`` and ``store`` are ``None`` when the run layer served the
    run: any repeat run in the default host world (see :func:`run_wasi`)
    instantiates nothing. A caller that needs the instance must pass a
    host world of its own, e.g. an ``fs``. Every run a log serves gets
    the same result object, so callers treat results as read-only.
    """

    exit_code: int
    stdout: bytes
    stderr: bytes
    instructions: int
    memory_bytes: int  # linear memory resident at exit
    instance: Optional[ModuleInstance]
    store: Optional[Store]
    #: True when the instance was cloned from a zygote snapshot
    restored: bool = False
    #: digest keying the zygote layer (None = zygote not considered)
    zygote_digest: Optional[str] = None
    #: bytes of linear memory diverging from the snapshot at exit (page
    #: granularity); equals ``memory_bytes`` when no snapshot exists
    dirty_memory_bytes: int = 0


#: ``(counter, amount)`` registry increments, in the order they happened
Increments = Tuple[Tuple[object, float], ...]


@dataclass(frozen=True)
class RunLog:
    """A run that returned, as the run layer serves it to later runs.

    ``steps`` lists each guest-runtime check the run reached, in order,
    as ``(point, call, increments)``: the two pre-entrypoint checks under
    a fault scope, and each WASI call while a guest-runtime point is
    armed or telemetry is on. ``increments`` are the registry increments
    the guest made since the previous check. ``call`` is the
    ``repro_wasi_calls_total`` series a WASI call counts before its
    check (``None`` for the pre-entrypoint checks, and with telemetry
    off). ``tail`` holds the increments after the last check. ``result``
    is what every serving returns: the run's results, without its
    instance and store.
    """

    steps: Tuple[Tuple[faults.FaultPoint, object, Increments], ...]
    tail: Increments
    fuel_used: Optional[int]
    result: WasiRunResult


class _Recorder:
    """Logs a real run's checks and the increments between them."""

    def __init__(self, counters: Sequence) -> None:
        self._counters = tuple(counters)
        self._seen = [c.value for c in self._counters]
        self.steps: List[Tuple[faults.FaultPoint, object, Increments]] = []

    def increments(self) -> Increments:
        """The counters that moved since the last call, with the amount."""
        moved = []
        for i, counter in enumerate(self._counters):
            value = counter.value
            if value != self._seen[i]:
                moved.append((counter, value - self._seen[i]))
                self._seen[i] = value
        return tuple(moved)

    def mark(self, point: faults.FaultPoint, call: object = None) -> None:
        """Log that the run is about to make the check at ``point``."""
        self.steps.append((point, call, self.increments()))

    def watch_wasi(self, store: Store, host) -> None:
        """Mark each WASI call before its counting and fault wrappers run."""
        calls = calls_counter()
        for name, (_, addr) in host.externs().items():
            func = store.funcs[addr]
            call = calls.labels(name) if calls is not None else None
            func.host_fn = self._marked(func.host_fn, call)

    def _marked(self, fn: Callable, call: object) -> Callable:
        def marked(*args):
            self.mark(faults.FaultPoint.WASI_SYSCALL, call)
            return fn(*args)

        return marked


def _replay(log: RunLog, ctx: Optional[Tuple[faults.FaultPlan, str]]) -> None:
    """Repeat ``log``'s increments and checks in the order the run made them.

    Under a fault scope every check draws from this pod's streams, so a
    fire raises the :class:`~repro.errors.FaultInjected` the real run
    would have raised, at the same point and with the counters the real
    run would have left.
    """
    for point, call, increments in log.steps:
        for counter, amount in increments:
            counter.inc(amount)
        if call is not None:
            call.inc()
        if ctx is not None:
            ctx[0].raise_if_fires(point, ctx[1])
    for counter, amount in log.tail:
        counter.inc(amount)


def _code_tier(module: Module, fuel: Optional[int]) -> str:
    """The specialization-tier code a run of ``module`` dispatches to:
    ``off`` when it carries no specialized code (the pass declined, or
    the caller decoded the module itself)."""
    pf = module.funcs[0].prepared if module.funcs else None
    if getattr(pf, "fallback", None) is None:
        return "off"
    closure = pf.compiled if fuel is None else pf.metered
    return "compiled" if closure is not None else "bytecode"


def _count_run(
    instructions: int, fuel_used: Optional[int], mode: str, tier: str
) -> None:
    """The end-of-run counters, for a real run and a replay alike."""
    obs.counter(
        "repro_wasm_instructions_total",
        "guest instructions retired across all interpreter runs",
    ).inc(instructions)
    if fuel_used is not None:
        obs.counter(
            "repro_wasm_fuel_consumed_total",
            "fuel consumed by fuel-limited guest runs",
        ).inc(fuel_used)
    obs.counter(
        "repro_zygote_runs_total",
        "guest runs by zygote warm-start path",
        ("mode",),
    ).labels(mode).inc()
    obs.counter(
        "repro_specialize_runs_total",
        "guest runs by the specialization-tier code they dispatch to",
        ("mode",),
    ).labels(tier).inc()


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
    zygote: bool = True,
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
        zygote: use the zygote warm-start layer (``False``: a cold
            two-phase instantiation that neither reads nor captures a
            snapshot).
        digest: content digest of ``module`` if the caller knows it
            (derived automatically for ``bytes`` input); keys the zygote
            and run layers. Without a digest the run is always cold and
            always executes.

    Returns:
        :class:`WasiRunResult`. ``exit_code`` is 0 when the entrypoint
        returns normally, otherwise the ``proc_exit`` code.
    """
    global _engine_cache
    if _engine_cache is None:
        # Bound on first use: engines.cache imports engines.base, which
        # imports us.
        from repro.engines import cache as _engine_cache
    engine_cache = _engine_cache

    if isinstance(module, (bytes, bytearray)):
        module, digest = engine_cache.decode_cached(bytes(module), digest)
    elif not module.validated:
        # Once per module object: the decode layer validated every
        # module the engines run.
        validate_module(module)

    ctx = faults.ambient()
    snapshot: Optional[InstanceSnapshot] = None
    capture = False
    if zygote and digest is not None:
        snapshot = engine_cache.zygote_get(digest)
        if snapshot is not None:
            # Injected corruption (chaos plan) or organic checksum
            # mismatch both quarantine the digest: the snapshot is
            # dropped, never re-captured, and this run — like every
            # later one — takes the cold two-phase path. Verification
            # is amortized to once per digest, but runs on every
            # restore while the plan arms ``zygote.corrupt`` (it may
            # corrupt the entry on any restore).
            every_restore = ctx is not None and ctx[0].arms_any(_ZYGOTE_CORRUPT)
            corrupt = (
                every_restore
                and ctx[0].check(faults.FaultPoint.ZYGOTE_CORRUPT, ctx[1])
                is not None
            )
            if not corrupt and (
                every_restore or not engine_cache.zygote_verified(digest)
            ):
                if verify_snapshot(snapshot):
                    engine_cache.zygote_mark_verified(digest)
                else:
                    corrupt = True
            if corrupt:
                engine_cache.zygote_quarantine(digest)
                snapshot = None
            else:
                engine_cache.zygote_stats.hit()
        # Quarantined digests stay zygote_known, so capture stays False.
        capture = snapshot is None and not engine_cache.zygote_known(digest)
    restored = snapshot is not None

    # The run layer: in the default host world a run's only inputs are
    # its arguments and, under a fault scope, its draws. Runs whose host
    # world the caller chose (fs, preopens, clock, interpreter,
    # profiler) and zygote captures always execute.
    prof = profile.active_profiler()
    run_key = None
    if (
        digest is not None
        and not capture
        and prof is None
        and fs is None
        and preopens is None
        and clock_ns is None
        and interpreter_cls is Interpreter
    ):
        # The armed set is part of the key: the wasi.syscall wrapper
        # exists only while that point is armed. So are telemetry (the
        # call counters) and the code tier (the deopt increments), and
        # the zygote path and switch, which the served result reports.
        armed = (
            ctx[0].armed(faults.GUEST_RUNTIME_POINTS) if ctx is not None else _NONE_ARMED
        )
        telemetry = obs.enabled()
        tier = _code_tier(module, fuel)
        run_key = (
            digest,
            tuple(args),
            tuple(sorted(env.items())) if env else (),
            stdin,
            fuel,
            entrypoint,
            restored,
            zygote,
            telemetry,
            armed,
            tier,
        )
        log = engine_cache.run_get(run_key)
        if log is not None:
            _replay(log, ctx)
            if telemetry:
                mode = "restore" if restored else "cold"
                _count_run(log.result.instructions, log.fuel_used, mode, tier)
            return log.result

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
    recorder = None
    if run_key is not None:
        recorder = _Recorder(wasi.byte_counters + DEOPT_COUNTERS)
        if armed or telemetry:
            # A replay needs the WASI marks only to draw wasi.syscall
            # or to count the calls.
            recorder.watch_wasi(store, host)
    interp = interpreter_cls(store, fuel=fuel)
    if prof is not None:
        interp.profiler = prof

    restore_elapsed = 0.0
    if restored:
        t_restore = time.perf_counter()
        instance = restore_instance(store, snapshot, imports=host.import_map())
        restore_elapsed = time.perf_counter() - t_restore
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

        if ctx is not None:
            # Mid-run guest failures: a trap (unreachable, OOB) or
            # fuel/OOM exhaustion between start and entrypoint. Raised
            # as FaultInjected (a ContainerError), so they pass through
            # the engine's WasmTrap→EngineError conversion untouched
            # and reach the kubelet as pod-visible transient crashes.
            plan, pod_key = ctx
            for point in (
                faults.FaultPoint.GUEST_TRAP,
                faults.FaultPoint.GUEST_EXHAUST,
            ):
                if recorder is not None:
                    recorder.mark(point)
                plan.raise_if_fires(point, pod_key)

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
    remaining = getattr(interp, "fuel", None)
    fuel_used = (
        fuel - max(remaining, 0) if fuel is not None and remaining is not None else None
    )
    memory_bytes = store.total_memory_bytes()
    if snapshot is not None:
        dirty = dirty_memory_bytes(snapshot, store, instance)
    else:
        dirty = memory_bytes

    if obs.enabled():
        mode = "restore" if restored else ("capture" if capture else "cold")
        _count_run(instructions, fuel_used, mode, _code_tier(module, fuel))
        if restored:
            obs.histogram(
                "repro_zygote_restore_seconds",
                "wall-clock latency of cloning an instance from its zygote snapshot",
                buckets=_RESTORE_BUCKETS,
            ).observe(restore_elapsed)

    result = WasiRunResult(
        exit_code=exit_code,
        stdout=bytes(wasi.stdout),
        stderr=bytes(wasi.stderr),
        instructions=instructions,
        memory_bytes=memory_bytes,
        instance=instance,
        store=store,
        restored=restored,
        zygote_digest=digest if zygote else None,
        dirty_memory_bytes=dirty,
    )
    if recorder is not None:
        engine_cache.run_put(
            run_key,
            RunLog(
                steps=tuple(recorder.steps),
                tail=recorder.increments(),
                fuel_used=fuel_used,
                result=dataclasses.replace(result, instance=None, store=None),
            ),
        )
    return result
