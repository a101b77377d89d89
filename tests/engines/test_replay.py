"""The run layer: every distinct guest input executes once.

``embed.run_wasi`` serves a repeat run from the log of a real one: the
checks it reached, in order, and the counter increments between them.
These tests hold every replay to the real run it stands for: the same
fault at the same point, the same counters, the same results, and an
entry only for a run that returned.
"""

import pytest

from repro import obs
from repro.engines import cache as engine_cache
from repro.engines import get_engine
from repro.engines.cache import (
    cache_stats,
    clear_cache_state,
    reset_caches,
    run_cached,
    zygote_quarantine,
)
from repro.errors import FaultInjected
from repro.measure import chaos
from repro.obs.timeseries import WALLCLOCK_FAMILIES
from repro.sim.faults import FaultPlan, FaultPoint, FaultSpec, fault_scope
from repro.wasm import assemble_wat
from repro.wasm.embed import run_wasi
from repro.workloads.microservice import build_microservice_wasm

# One call_indirect site (a specialization-tier IC miss per fresh
# instance) and one fd_write.
INDIRECT_WAT = r"""
(module
  (import "wasi_snapshot_preview1" "fd_write"
    (func $fd_write (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (data (i32.const 64) "replayed\n")
  (table 1 funcref)
  (elem (i32.const 0) $nine)
  (func $nine (result i32) (i32.const 9))
  (func (export "_start")
    (i32.store (i32.const 16) (i32.const 64))
    (i32.store (i32.const 20) (call_indirect (result i32) (i32.const 0)))
    (drop (call $fd_write (i32.const 1) (i32.const 16) (i32.const 1) (i32.const 32)))))
"""


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_caches()
    yield
    reset_caches()


@pytest.fixture()
def telemetry():
    was = obs.enabled()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(was)


@pytest.fixture()
def telemetry_off():
    was = obs.enabled()
    obs.set_enabled(False)
    yield
    obs.set_enabled(was)


def _armed(*points):
    """A plan arming ``points`` whose spent budgets never let one fire."""
    return FaultPlan(
        [FaultSpec(p, probability=1.0, max_occurrences=0) for p in points]
    )


class _FireAt(FaultPlan):
    """Arms ``wasi.syscall`` and fires it only at the ``n``-th WASI check
    of each key (``n=0``: never)."""

    def __init__(self, n):
        super().__init__([FaultSpec(FaultPoint.WASI_SYSCALL, probability=1.0)])
        self.n = n
        self.seen = {}

    def check(self, point, key):
        if point is FaultPoint.WASI_SYSCALL:
            self.seen[key] = self.seen.get(key, 0) + 1
            if self.seen[key] != self.n:
                return None
        return super().check(point, key)


def _replay_stats():
    return cache_stats()["run"]


def _series(*names):
    """Current value of every series of the ``names`` families."""
    reg = obs.default_registry()
    return {
        (name, labels): child.value
        for name in names
        if (fam := reg.get(name)) is not None
        for labels, child in fam.samples()
    }


def _observe(r):
    return (
        r.exit_code, r.stdout, r.stderr, r.instructions,
        r.memory_bytes, r.dirty_memory_bytes,
    )


def _never_replay(monkeypatch):
    monkeypatch.setattr(engine_cache, "run_get", lambda key: None)


class TestWasiFaultInReplay:
    @pytest.mark.parametrize("which", ["first", "last"])
    def test_fire_matches_real_run(self, which, monkeypatch, telemetry):
        blob = build_microservice_wasm()
        engine = get_engine("wamr")
        run_cached(engine, blob, args=("m",))  # no scope: zygote capture
        recording = _FireAt(0)
        with fault_scope(recording, "pod-0"):
            run_cached(engine, blob, args=("m",))
        wasi_calls = recording.seen["pod-0"]
        assert wasi_calls == 7  # one call to each of the seven imports
        n = 1 if which == "first" else wasi_calls

        def crash():
            plan = _FireAt(n)
            names = ("repro_wasi_calls_total", "repro_wasi_bytes_total")
            before = _series(*names)
            with fault_scope(plan, "pod-1"), pytest.raises(FaultInjected) as info:
                run_cached(engine, blob, args=("m",))
            after = _series(*names)
            exc = info.value
            moved = {k: v - before.get(k, 0.0) for k, v in after.items()}
            return (str(exc), exc.point, exc.key, exc.occurrence), plan.checks, moved

        replayed = crash()
        assert _replay_stats()["hits"] == 1
        _never_replay(monkeypatch)
        real = crash()
        assert replayed == real
        assert real[0][1:] == ("wasi.syscall", "pod-1", 1)


class TestRecording:
    def test_raising_run_stores_nothing_and_next_pod_records(self):
        blob = build_microservice_wasm()
        engine = get_engine("wamr")
        run_cached(engine, blob, args=("m",))  # no scope: zygote capture
        plan = FaultPlan(
            [FaultSpec(FaultPoint.GUEST_TRAP, probability=1.0, max_occurrences=1)]
        )
        with fault_scope(plan, "pod-1"), pytest.raises(FaultInjected):
            run_cached(engine, blob, args=("m",))
        assert _replay_stats() == {"hits": 0, "misses": 1, "entries": 0}
        with fault_scope(plan, "pod-2"):  # budget spent: returns, records
            run_cached(engine, blob, args=("m",))
        assert _replay_stats() == {"hits": 0, "misses": 2, "entries": 1}
        with fault_scope(plan, "pod-3"):
            run_cached(engine, blob, args=("m",))
        assert _replay_stats() == {"hits": 1, "misses": 2, "entries": 1}

    def test_capture_executes_and_paths_key_apart(self):
        blob = assemble_wat(INDIRECT_WAT)
        plan = _armed(FaultPoint.GUEST_TRAP)

        def run(key):
            with fault_scope(plan, key):
                return run_wasi(blob)

        capture = run("pod-1")
        assert capture.instance is not None
        assert _replay_stats() == {"hits": 0, "misses": 0, "entries": 0}
        recorded = run("pod-2")
        warm = run("pod-3")
        assert recorded.restored and recorded.instance is not None
        assert warm.restored and warm.instance is None and warm.store is None
        assert _replay_stats() == {"hits": 1, "misses": 1, "entries": 1}

        zygote_quarantine(capture.zygote_digest)
        cold_recorded = run("pod-4")
        cold = run("pod-5")
        assert not cold_recorded.restored and cold_recorded.instance is not None
        assert not cold.restored and cold.instance is None
        assert _replay_stats() == {"hits": 2, "misses": 2, "entries": 2}
        assert _observe(warm) == _observe(recorded)
        assert _observe(cold) == _observe(cold_recorded)

    def test_replay_reapplies_deopts_with_telemetry_off(self, telemetry_off):
        blob = assemble_wat(INDIRECT_WAT)
        ic_miss = obs.default_registry().get(
            "repro_specialize_deopts_total"
        ).labels("ic_miss")
        plan = _armed(FaultPoint.GUEST_TRAP)
        moved = []
        for key in ("pod-1", "pod-2"):
            before = ic_miss.value
            with fault_scope(plan, key):
                run_wasi(blob, zygote=False)
            moved.append(ic_miss.value - before)
        assert _replay_stats()["hits"] == 1
        assert moved[0] == moved[1] == 1


BASE = dict(args=("m",), env={"A": "1"}, stdin=b"", fuel=None)


class TestKey:
    @pytest.mark.parametrize(
        "change",
        [
            {"args": ("m", "x")},
            {"env": {"A": "2"}},
            {"stdin": b"in"},
            {"fuel": 10**6},
            {"plan": (FaultPoint.GUEST_TRAP, FaultPoint.WASI_SYSCALL)},
        ],
        ids=["argv", "env", "stdin", "fuel", "armed"],
    )
    def test_other_input_misses(self, change):
        blob = build_microservice_wasm()

        def run(key, plan=(FaultPoint.GUEST_TRAP,), **kwargs):
            with fault_scope(_armed(*plan), key):
                return run_wasi(blob, zygote=False, **kwargs)

        assert run("pod-1", **BASE).instance is not None  # recorded
        assert run("pod-2", **BASE).instance is None  # served
        assert _replay_stats() == {"hits": 1, "misses": 1, "entries": 1}
        variant = run("pod-3", **{**BASE, **change})
        assert variant.instance is not None  # executed, not served
        assert _replay_stats() == {"hits": 1, "misses": 2, "entries": 2}

    def test_clear_and_reset_empty_the_layer(self):
        blob = build_microservice_wasm()
        plan = _armed(FaultPoint.GUEST_TRAP)

        def run(key):
            with fault_scope(plan, key):
                return run_wasi(blob, zygote=False)

        run("pod-1")
        run("pod-2")
        assert _replay_stats() == {"hits": 1, "misses": 1, "entries": 1}
        clear_cache_state()
        assert _replay_stats() == {"hits": 1, "misses": 1, "entries": 0}
        assert run("pod-3").instance is not None
        assert _replay_stats() == {"hits": 1, "misses": 2, "entries": 1}
        reset_caches()
        assert _replay_stats() == {"hits": 0, "misses": 0, "entries": 0}


# -- differential: chaos with replay against chaos executing every run ------


def _registry_series():
    """Every registry series except wall-clock ones and the run layer's
    own lookups."""
    out = {}
    for name, fam in obs.default_registry().state()["families"].items():
        if name in WALLCLOCK_FAMILIES:
            continue
        for labels, value in fam["children"].items():
            if name == "repro_engine_cache_requests_total" and labels[0] == "run":
                continue
            out[(name, labels)] = value
    return out


def _chaos(monkeypatch, config, seed, replay):
    plans = []
    full_lifecycle_plan = chaos.full_lifecycle_plan

    def keep(*args, **kwargs):
        plans.append(full_lifecycle_plan(*args, **kwargs))
        return plans[-1]

    with monkeypatch.context() as m:
        m.setattr(chaos, "full_lifecycle_plan", keep)
        if not replay:
            _never_replay(m)
        obs.reset()
        reset_caches()
        result = chaos.run_chaos(config=config, count=60, seed=seed)
    (plan,) = plans
    hits = _replay_stats()["hits"]
    return (result.to_dict(), plan.fired, plan.checks, _registry_series()), hits


@pytest.mark.parametrize("seed", [1, 3, 11])
@pytest.mark.parametrize("config", ["crun-wamr", "crun-wamr-zygote", "shim-wasmtime"])
def test_chaos_replay_matches_executing_every_run(monkeypatch, config, seed):
    try:
        shipped, hits = _chaos(monkeypatch, config, seed, replay=True)
        executed, no_hits = _chaos(monkeypatch, config, seed, replay=False)
    finally:
        obs.reset()
    assert hits > 0 and no_hits == 0
    assert shipped[0] == executed[0]  # to_dict()
    assert shipped[1] == executed[1]  # every fault fired, in order
    assert shipped[2] == executed[2]  # every check made
    assert shipped[3] == executed[3]  # registry series
