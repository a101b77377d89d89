"""Chaos acceptance — 400 pods converge under full-lifecycle faults.

Writes ``benchmarks/output/BENCH_chaos.json`` (CI artifact): the chaos
campaign at two seeds, each with its convergence invariants, per-point
fault counts, and recovery-time percentiles.

Three contracts are asserted:

* **convergence** — a 400-replica crun-wamr deployment with every
  lifecycle stage armed at 25% per attempt (startup, guest runtime,
  WASI, zygote/cache corruption, probes, scrape loss) ends with every
  replica Ready or terminally backed off, accounting verified, nothing
  leaked — and bit-identically per seed;
* **figure isolation** — with every fault toggle off, Fig 9 regenerates
  byte-identical to the committed output: the chaos layer cannot move a
  published number;
* **disabled-path overhead** — the ambient-context guards the runtime
  fault points added to the hot path cost, projected as (guard calls ×
  measured per-call cost), stay ≤ 3% of the 400-pod wall time (the
  BENCH_obs ceiling). Guard calls are counted by wrapping
  ``repro.sim.faults.ambient``, the attribute every caller reads.
"""

import json
import time

from conftest import OUTPUT_DIR, SEED, emit

from repro.engines.cache import reset_caches
from repro.measure.chaos import render_chaos, run_chaos
from repro.measure.experiment import ExperimentRunner
from repro.measure.figures import fig9_startup_400
from repro.measure.report import render_series
from repro.sim import faults

COUNT = 400
RATE = 0.25

#: contract: ambient fault guards may cost the fault-free path at most this
GUARD_OVERHEAD_CEILING_PCT = 3.0


def _run(seed: int):
    return run_chaos(config="crun-wamr", count=COUNT, seed=seed, rate=RATE)


def test_bench_chaos(benchmark):
    m1 = benchmark.pedantic(_run, args=(SEED,), rounds=1, iterations=1)
    emit("chaos", render_chaos(m1))

    # Every invariant holds: all Ready or terminally backed off,
    # accounting verified, counters balanced, nothing leaked.
    assert m1.all_hold(), [c.name for c in m1.invariants if not c.passed]
    assert m1.converged and m1.ready_pods == COUNT

    # Chaos was real: ≥20% of the fleet drew at least one fault, with
    # both startup and runtime stages firing.
    total_faults = sum(m1.faults_by_point.values())
    assert total_faults >= 0.20 * COUNT, total_faults
    assert m1.faults_by_point.get("image.pull", 0) > 0
    assert m1.faults_by_point.get("guest.trap", 0) > 0
    assert m1.faults_by_point.get("probe.liveness", 0) > 0

    # Determinism: the identical campaign is bit-identical.
    again = _run(SEED)
    assert again.to_dict() == m1.to_dict()

    # A different seed converges too, along a different timeline.
    m2 = _run(SEED + 1)
    assert m2.all_hold(), [c.name for c in m2.invariants if not c.passed]
    assert (
        m2.to_dict()["timeline_fingerprint"]
        != m1.to_dict()["timeline_fingerprint"]
    )

    report = {
        "experiment": f"chaos crun-wamr x{COUNT} @ rate {RATE}",
        "seeds": {str(SEED): m1.to_dict(), str(SEED + 1): m2.to_dict()},
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_chaos.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )


def test_faults_off_fig9_byte_identical():
    """With no plan armed, the chaos layer must not move a published
    figure: Fig 9 regenerates byte-identical to the committed output."""
    committed = (OUTPUT_DIR / "fig9.txt").read_text()
    regenerated = render_series(fig9_startup_400(seed=SEED)) + "\n"
    assert regenerated == committed


def _timed_400pod_counting_guards(monkeypatch):
    calls = 0
    ambient = faults.ambient

    def counting_ambient():
        nonlocal calls
        calls += 1
        return ambient()

    reset_caches()
    with monkeypatch.context() as patch:
        patch.setattr(faults, "ambient", counting_ambient)
        t0 = time.perf_counter()
        m = ExperimentRunner(seed=SEED).run("crun-wamr", 400)
        seconds = time.perf_counter() - t0
    assert m.count == 400 and m.ready_fraction == 1.0
    return seconds, calls


def _guard_call_cost(calls: int = 200_000) -> float:
    """Mean seconds per ambient() call on the disabled (no-scope) path."""
    ambient = faults.ambient
    t0 = time.perf_counter()
    for _ in range(calls):
        ambient()
    return (time.perf_counter() - t0) / calls


def test_disabled_guard_overhead_within_ceiling(monkeypatch):
    try:
        wall_s, guard_calls = _timed_400pod_counting_guards(monkeypatch)
    finally:
        reset_caches()
    per_call = _guard_call_cost()
    projected_pct = 100.0 * (guard_calls * per_call) / wall_s

    report = {
        "experiment": "crun-wamr x400, no fault plan",
        "wall_seconds": round(wall_s, 4),
        "guard_calls": guard_calls,
        "guard_call_cost_ns": round(per_call * 1e9, 2),
        "projected_overhead_pct": round(projected_pct, 3),
        "ceiling_pct": GUARD_OVERHEAD_CEILING_PCT,
    }
    emit("chaos_guard_overhead", json.dumps(report, indent=2, sort_keys=True))
    assert guard_calls > 0  # the guards are actually on the hot path
    assert projected_pct <= GUARD_OVERHEAD_CEILING_PCT, report
