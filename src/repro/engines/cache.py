"""Memoization of deterministic guest work: decodes, prepared code, runs.

The guest is a pure function of (module, argv, environ, stdin, preopens):
the interpreter has no ambient inputs — WASI clocks and randomness are
injected and default to constants. Experiments that deploy the same image
hundreds of times therefore re-run identical computations; these caches
collapse them to one real execution per distinct input while every
container still gets its own memory accounting and its own counters.

Five layers, all keyed by content digest so the blob is hashed once per
entry point:

* **decode** — one decoded + validated :class:`~repro.wasm.ast.Module`
  per digest, shared by every engine and by direct embed callers
  (``run_wasi`` on ``bytes``). An engine's :class:`CompiledModule` is
  this module plus the ``artifact_bytes`` and ``compile_seconds`` its
  profile prices for the blob (:func:`compile_cached`);
* **prepare** — flat executable code (``runtime/compile.py``) per
  digest. Prepared functions are instance-independent, so one prepared
  module serves every instantiation and is re-attached to fresh decodes
  of the same blob;
* **specialize** — the optimization tier's code per digest: a
  :class:`~repro.wasm.runtime.compile.PreparedModule` of
  :class:`~repro.wasm.runtime.specialize.SpecializedFunction`\\ s.
  The compiled closures are instance-independent like prepared code —
  they reach every instance through the executing frame and guard their
  call caches at run time — so they attach to every decode of the blob.
  A failed pass leaves the unspecialized prepared code attached
  (performance lost, correctness kept). Code is attached to the decode
  entry after a decode or rebuild and under a fault scope; any other
  lookup finds it attached already;
* **zygote** — one :class:`~repro.wasm.runtime.snapshot.InstanceSnapshot`
  per digest: the post-initialization instance state the warm-start path
  clones instead of re-running two-phase instantiation. A ``None`` entry
  marks a digest probed and found unsnapshottable, so it is not re-tried;
* **run** — one :class:`~repro.wasm.embed.RunLog` per run input, for
  every engine. ``embed.run_wasi`` looks it up after the zygote
  decision, which stays real on every run. A miss executes the guest
  and, if the run returns, stores the checks it reached and the counter
  increments between them. A hit walks that log against the pod's own
  fault plan (if any), so every pod makes every draw, a fire raises
  where the real run would have, and every container's guest counters
  count. The key is (digest, argv, env, stdin, fuel, entrypoint,
  restore or cold, zygote on/off, telemetry on/off, armed guest-runtime
  points, code tier); the engine is not part of it, since a run's only
  engine-specific figure is ``exec_seconds``, which
  :meth:`WasmEngine.run` prices from the profile. Captures, profiled
  runs and runs with a caller-chosen fs, preopens, clock or interpreter
  always execute.

Each layer keeps hit/miss counters (:class:`CacheStats`, backed by the
``repro_engine_cache_requests_total`` registry family so they appear in
Prometheus exports) and :func:`reset_caches` clears state + counters so
seeded experiments and tests cannot leak across runs. The counters are
registered ``always=True``: they collect even with telemetry disabled,
because experiment metadata and tests consume them functionally.

Chaos hardening: under an ambient fault scope
(:func:`repro.sim.faults.fault_scope`) the decode, prepare and
specialize entries can be told they are corrupt (``cache.corrupt``); a
corrupt hit is invalidated and rebuilt through the normal miss path, at
most :data:`MAX_REBUILDS_PER_ENTRY` times per entry so a hostile plan
cannot rebuild forever. An engine lookup draws for the decode entry as
``compile/{engine}/{digest}`` and records its rebuild under layer
``compile``. The zygote layer adds a **quarantine**: a digest whose
snapshot failed checksum verification is dropped and marked poisoned —
:func:`zygote_get` stops serving it and :func:`zygote_known` keeps
reporting it probed, so the embed layer neither restores from it nor
re-captures it until :func:`reset_caches`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro import obs
from repro.engines.base import CompiledModule, EngineRunResult, WasmEngine
from repro.errors import EngineError, WasmError
from repro.oci.digest import sha256_digest
from repro.sim import faults
from repro.wasm.ast import Module
from repro.wasm.decoder import decode_module
from repro.wasm.embed import RunLog
from repro.wasm.runtime.compile import PreparedModule, prepare_module
from repro.wasm.runtime.snapshot import InstanceSnapshot
from repro.wasm.runtime.specialize import specialize_module
from repro.wasm.validation import validate_module

_DECODE_CACHE: Dict[str, Module] = {}
_PREPARED_CACHE: Dict[str, PreparedModule] = {}
_SPECIALIZED_CACHE: Dict[str, PreparedModule] = {}
_ZYGOTE_CACHE: Dict[str, Optional[InstanceSnapshot]] = {}
_RUN_CACHE: Dict[Tuple, RunLog] = {}

#: digests whose snapshot was found corrupt; never served or re-captured
#: until :func:`reset_caches`.
_ZYGOTE_QUARANTINE: Set[str] = set()

#: digests whose snapshot passed checksum verification once already —
#: amortizes the sha256 so the happy path verifies each digest one time.
_ZYGOTE_VERIFIED: Set[str] = set()

#: per-(layer, digest) rebuild count for corrupt cache entries.
_REBUILDS: Dict[Tuple[str, str], int] = {}

#: a corrupt entry is rebuilt at most this many times; past the cap the
#: entry is trusted as-is (capped retry — no infinite rebuild storms).
MAX_REBUILDS_PER_ENTRY = 1

_CACHE_REQUESTS = obs.counter(
    "repro_engine_cache_requests_total",
    "guest-work cache lookups by layer and outcome",
    ("layer", "outcome"),
    always=True,
)

# always=True: the chaos campaign's counter-balance invariants and the
# zygote-fallback tests consume these functionally.
_ZYGOTE_FALLBACKS = obs.counter(
    "repro_zygote_fallbacks_total",
    "zygote restores abandoned for cold instantiation, by reason",
    ("reason",),
    always=True,
)


class CacheStats:
    """Hit/miss counters for one cache layer (registry-backed)."""

    __slots__ = ("_hits", "_misses")

    def __init__(self, layer: str) -> None:
        self._hits = _CACHE_REQUESTS.labels(layer, "hit")
        self._misses = _CACHE_REQUESTS.labels(layer, "miss")

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def total(self) -> int:
        return self.hits + self.misses

    def hit(self) -> None:
        self._hits.inc()

    def miss(self) -> None:
        self._misses.inc()

    def reset(self) -> None:
        self._hits.reset()
        self._misses.reset()


decode_stats = CacheStats("decode")
prepare_stats = CacheStats("prepare")
specialize_stats = CacheStats("specialize")
zygote_stats = CacheStats("zygote")
run_stats = CacheStats("run")


def _corrupt_hit(layer: str, digest: str) -> bool:
    """Did the ambient fault plan corrupt this cache hit?

    One module-global read when no fault scope is armed. A corrupt hit is
    counted as a ``rebuild`` outcome and capped per entry: once a given
    ``(layer, digest)`` has been rebuilt :data:`MAX_REBUILDS_PER_ENTRY`
    times, further corruption draws are skipped and the rebuilt entry is
    trusted — the retry is bounded by construction.
    """
    ctx = faults.ambient()
    if ctx is None:
        return False
    plan, _pod_key = ctx
    entry = (layer, digest)
    if _REBUILDS.get(entry, 0) >= MAX_REBUILDS_PER_ENTRY:
        return False
    fault = plan.check(faults.FaultPoint.CACHE_CORRUPT, f"{layer}/{digest}")
    if fault is None:
        return False
    _REBUILDS[entry] = _REBUILDS.get(entry, 0) + 1
    _CACHE_REQUESTS.labels(layer, "rebuild").inc()
    return True


def cache_rebuilds() -> Dict[Tuple[str, str], int]:
    """Per-(layer, digest) corrupt-entry rebuild counts (copy)."""
    return dict(_REBUILDS)


def _decoded(blob: bytes, digest: str, layer: str, prefix: str = "") -> Module:
    """The decode entry for ``digest``, decoding ``blob`` on a miss.

    The one place a blob is decoded and validated, for every engine and
    every embed run. A hit outside a fault scope returns the entry as it
    is. Under a scope a hit may be found corrupt (drawn as
    ``{layer}/{prefix}{digest}``) and is then decoded afresh.
    """
    module = _DECODE_CACHE.get(digest)
    if module is not None:
        if faults.ambient() is None:
            decode_stats.hit()
            return module
        if _corrupt_hit(layer, prefix + digest):
            module = None
    if module is None:
        decode_stats.miss()
        module = decode_module(bytes(blob))
        validate_module(module)
        _DECODE_CACHE[digest] = module
    else:
        decode_stats.hit()
    # A decode attaches the digest's code. Under a fault scope every
    # lookup re-attaches it, making the prepare and specialize draws, so
    # a corrupt entry is rebuilt here.
    prepare_cached(module, digest)
    specialize_cached(module, digest)
    return module


def decode_cached(
    blob: bytes, digest: Optional[str] = None
) -> Tuple[Module, str]:
    """Decode + validate ``blob`` once per digest (flat code attached).

    The direct-embed entry point: ``run_wasi`` on ``bytes`` routes here.
    Returns the module together with its digest so callers can key the
    zygote and run layers without re-hashing.
    """
    if digest is None:
        digest = sha256_digest(blob)
    return _decoded(blob, digest, "decode"), digest


def compile_cached(
    engine: WasmEngine, blob: bytes, digest: Optional[str] = None
) -> CompiledModule:
    """``blob`` as ``engine`` runs it: the shared decode entry, priced by
    the engine's profile. A module the decoder or validator rejects
    raises :class:`EngineError` naming the engine."""
    if digest is None:
        digest = sha256_digest(blob)
    profile = engine.profile
    name = profile.name
    try:
        module = _decoded(blob, digest, "compile", name + "/")
    except WasmError as exc:
        raise EngineError(f"{name}: module rejected: {exc}") from exc
    size = len(blob)
    # Positional, in field order: this runs once per container.
    return CompiledModule(
        name,
        module,
        size,
        profile.artifact_bytes(size),
        profile.compile_seconds(size),
        digest,
    )


# -- zygote layer (no get-or-create: capture happens mid-run in embed.py) --


def zygote_get(digest: str) -> Optional[InstanceSnapshot]:
    """The snapshot for ``digest``, or ``None`` (not captured yet, probed
    and unsnapshottable, or quarantined — disambiguate with
    :func:`zygote_known` / :func:`zygote_quarantined`)."""
    if digest in _ZYGOTE_QUARANTINE:
        return None
    return _ZYGOTE_CACHE.get(digest)


def zygote_known(digest: str) -> bool:
    """Has this digest been probed (successfully or not)? Quarantined
    digests stay "known" so the embed layer never re-captures them."""
    return digest in _ZYGOTE_CACHE or digest in _ZYGOTE_QUARANTINE


def zygote_put(digest: str, snapshot: Optional[InstanceSnapshot]) -> None:
    """Record a capture outcome; ``None`` poisons the digest (don't retry)."""
    _ZYGOTE_CACHE[digest] = snapshot
    _ZYGOTE_VERIFIED.discard(digest)


def zygote_quarantine(digest: str, reason: str = "corrupt") -> None:
    """Drop ``digest``'s snapshot and poison it until :func:`reset_caches`.

    Called when a restore-time checksum check fails (organic or injected
    corruption). The digest stays :func:`zygote_known` so every later run
    of the blob takes the cold two-phase path — a poisoned zygote is
    never retried, never re-captured, and never served again.
    """
    _ZYGOTE_CACHE.pop(digest, None)
    _ZYGOTE_VERIFIED.discard(digest)
    _ZYGOTE_QUARANTINE.add(digest)
    _ZYGOTE_FALLBACKS.labels(reason).inc()


def zygote_quarantined(digest: str) -> bool:
    """Is ``digest`` quarantined (snapshot found corrupt)?"""
    return digest in _ZYGOTE_QUARANTINE


def zygote_fallback_count(reason: str = "corrupt") -> int:
    """Cold fallbacks recorded for ``reason`` (functional counter read)."""
    return int(_ZYGOTE_FALLBACKS.labels(reason).value)


def zygote_verified(digest: str) -> bool:
    """Did ``digest``'s snapshot already pass checksum verification?"""
    return digest in _ZYGOTE_VERIFIED


def zygote_mark_verified(digest: str) -> None:
    """Record a successful checksum verification (amortizes re-checks)."""
    _ZYGOTE_VERIFIED.add(digest)


def prepare_cached(module, digest: str) -> PreparedModule:
    """Memoize flat code per (module digest, func index).

    A hit re-attaches the already-lowered functions to ``module`` so a
    fresh decode of a known blob skips the lowering pass entirely.
    """
    pm = _PREPARED_CACHE.get(digest)
    if pm is not None and _corrupt_hit("prepare", digest):
        _PREPARED_CACHE.pop(digest, None)
        pm = None
    if pm is None:
        prepare_stats.miss()
        pm = prepare_module(module)
        _PREPARED_CACHE[digest] = pm
    else:
        prepare_stats.hit()
        pm.attach(module)
    return pm


def specialize_cached(module, digest: str) -> Optional[PreparedModule]:
    """Memoize the specialization tier's output per digest.

    Runs after :func:`prepare_cached`, so the unspecialized prepared code
    is always attached first — every failure path below simply leaves it
    in place. Returns ``None`` when the pass failed for the whole module;
    otherwise attaches the specialized functions and returns the cache
    entry.

    A corrupt hit under the chaos plan is dropped and re-specialized at
    most :data:`MAX_REBUILDS_PER_ENTRY` times, exactly like the other
    layers.
    """
    sm = _SPECIALIZED_CACHE.get(digest)
    if sm is not None and _corrupt_hit("specialize", digest):
        _SPECIALIZED_CACHE.pop(digest, None)
        sm = None
    if sm is None:
        specialize_stats.miss()
        try:
            sm = specialize_module(module)
        except Exception:
            # Whole-module pass failure: stay on prepared code.
            return None
        _SPECIALIZED_CACHE[digest] = sm
    else:
        specialize_stats.hit()
    sm.attach(module)
    return sm


def run_get(key: Tuple) -> Optional[RunLog]:
    """The recorded run for ``key`` (see ``embed.run_wasi``), or ``None``."""
    log = _RUN_CACHE.get(key)
    if log is None:
        run_stats.miss()
    else:
        run_stats.hit()
    return log


def run_put(key: Tuple, log: RunLog) -> None:
    """Store the log of a run that returned."""
    _RUN_CACHE[key] = log


def run_cached(
    engine: WasmEngine,
    blob: bytes,
    args: Sequence[str],
    env: Optional[Dict[str, str]] = None,
    stdin: bytes = b"",
) -> Tuple[CompiledModule, EngineRunResult]:
    """Compile and run ``blob`` on ``engine``: the container runtimes'
    entry point. The run layer serves every run of one input after the
    first that returned, whichever engine asks."""
    compiled = compile_cached(engine, blob, digest=sha256_digest(blob))
    return compiled, engine.run(compiled, args=args, env=env, stdin=stdin)


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Machine-readable snapshot of all layers (for experiment metadata)."""
    stats = {
        name: {"hits": s.hits, "misses": s.misses, "entries": len(store)}
        for name, s, store in (
            ("decode", decode_stats, _DECODE_CACHE),
            ("prepare", prepare_stats, _PREPARED_CACHE),
            ("specialize", specialize_stats, _SPECIALIZED_CACHE),
            ("zygote", zygote_stats, _ZYGOTE_CACHE),
            ("run", run_stats, _RUN_CACHE),
        )
    }
    stats["zygote"]["quarantined"] = len(_ZYGOTE_QUARANTINE)
    stats["zygote"]["fallbacks"] = zygote_fallback_count()
    return stats


def clear_cache_state() -> None:
    """Drop all cached state, keeping the hit/miss counters monotonic.

    The per-cell determinism primitive: telemetry-enabled experiments
    clear state at cell start so every cell does the same cold-cache
    work regardless of process history, while the counters stay
    cumulative — the delta/merge protocol in :mod:`repro.measure.pool`
    and the time-series sampler both assume counters never decrease.
    """
    _DECODE_CACHE.clear()
    _PREPARED_CACHE.clear()
    _SPECIALIZED_CACHE.clear()
    _ZYGOTE_CACHE.clear()
    _RUN_CACHE.clear()
    _ZYGOTE_QUARANTINE.clear()
    _ZYGOTE_VERIFIED.clear()
    _REBUILDS.clear()


def reset_caches() -> None:
    """Drop all cached state and zero the counters.

    Also clears the zygote quarantine/verified markers and the
    corrupt-entry rebuild ledger: a digest poisoned by one experiment's
    fault plan must restore cleanly in the next (no cross-experiment
    contamination of the measurement cache).
    """
    clear_cache_state()
    decode_stats.reset()
    prepare_stats.reset()
    specialize_stats.reset()
    zygote_stats.reset()
    run_stats.reset()
    _ZYGOTE_FALLBACKS.reset()
