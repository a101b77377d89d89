"""Telemetry overhead contract: zero-cost when disabled, cheap when on.

Writes ``benchmarks/output/BENCH_obs.json`` (CI artifact) from the
400-pod crun-wamr startup experiment, run in pairs:

* with telemetry **off** (the default every figure/benchmark runs
  under);
* with telemetry **on**, plus how many metric observations and spans it
  recorded;
* the **projected disabled-path cost**: with telemetry off every
  instrumentation site is a bound ``NULL_METRIC`` no-op call, so the
  upper bound on what instrumentation adds to the default path is
  (observations recorded when on) × (measured null-call cost). The
  contract asserted here: that projection stays ≤ 3% of the
  telemetry-off wall time.

The enabled-path overhead is recorded for trajectory context but not
asserted — it is the price of opting in, not a regression gate. One
0.2 s run is too short to time alone on a busy host, so the pairs are
interleaved, their order alternates, and the overhead is the median of
the per-pair on/off ratios, reported with their interquartile range.
"""

import gc
import json
import statistics
import time

from conftest import OUTPUT_DIR, SEED, emit

from repro import obs
from repro.engines.cache import reset_caches
from repro.measure.experiment import ExperimentRunner
from repro.obs.registry import NULL_METRIC

#: contract: instrumentation may cost the telemetry-off path at most this
OFF_OVERHEAD_CEILING_PCT = 3.0
#: off/on pairs timed; the recorded overhead is their median ratio
PAIRS = 15


def _timed_400pod(telemetry: bool) -> float:
    obs.set_enabled(telemetry)
    obs.reset()
    reset_caches()
    gc.collect()
    t0 = time.perf_counter()
    m = ExperimentRunner(seed=SEED).run("crun-wamr", 400)
    seconds = time.perf_counter() - t0
    assert m.count == 400 and m.ready_fraction == 1.0
    return seconds


def _null_call_cost(calls: int = 200_000) -> float:
    """Mean seconds per NULL_METRIC method call (the disabled-path unit)."""
    null = NULL_METRIC
    t0 = time.perf_counter()
    for _ in range(calls):
        null.inc()
    return (time.perf_counter() - t0) / calls


def test_bench_obs_overhead():
    was_enabled = obs.enabled()
    off_times, on_times = [], []
    try:
        _timed_400pod(False)  # warm engine/measurement-independent state
        for pair in range(PAIRS):
            for telemetry in (pair % 2 == 1, pair % 2 == 0):
                if telemetry:
                    on_times.append(_timed_400pod(True))
                    events = obs.default_registry().events
                    spans = len(obs.tagged_spans())
                else:
                    off_times.append(_timed_400pod(False))
    finally:
        obs.reset()
        obs.set_enabled(was_enabled)
        reset_caches()

    ratios = [on / off for on, off in zip(on_times, off_times)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    on_pct = 100.0 * (statistics.median(ratios) - 1.0)
    off_s = statistics.median(off_times)
    on_s = statistics.median(on_times)
    per_call = _null_call_cost()
    projected_off_s = events * per_call
    projected_off_pct = 100.0 * projected_off_s / off_s

    report = {
        "experiment": "crun-wamr x400",
        "pairs": PAIRS,
        "telemetry_off_seconds": round(off_s, 4),
        "telemetry_on_seconds": round(on_s, 4),
        "overhead_on_pct": round(on_pct, 2),
        "overhead_on_iqr_pct": [
            round(100.0 * (q1 - 1.0), 2), round(100.0 * (q3 - 1.0), 2)
        ],
        "metric_events_recorded": events,
        "spans_recorded": spans,
        "null_call_seconds": per_call,
        "projected_off_overhead_seconds": round(projected_off_s, 6),
        "projected_off_overhead_pct": round(projected_off_pct, 3),
        "off_overhead_ceiling_pct": OFF_OVERHEAD_CEILING_PCT,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_obs.json").write_text(json.dumps(report, indent=2) + "\n")

    emit(
        "obs_overhead",
        "\n".join(
            [
                f"[obs] 400-pod startup, median of {PAIRS} pairs: {off_s:.3f} s "
                f"off vs {on_s:.3f} s on ({on_pct:+.1f}% with telemetry, paired "
                f"IQR {100.0 * (q1 - 1.0):+.1f}% to {100.0 * (q3 - 1.0):+.1f}%)",
                f"[obs] enabled run recorded {events} metric events, {spans} spans",
                f"[obs] disabled-path projection: {events} null calls x "
                f"{per_call * 1e9:.0f} ns = {projected_off_s * 1000:.2f} ms "
                f"({projected_off_pct:.2f}% of off wall time)",
            ]
        ),
    )

    # ~15 metric events per pod (guest-work caching collapses the rest).
    assert events > 2_000, "enabled run barely recorded anything"
    assert spans > 1000, "tracer sink did not mirror spans"
    assert projected_off_pct <= OFF_OVERHEAD_CEILING_PCT, (
        f"disabled-path instrumentation cost projects to "
        f"{projected_off_pct:.2f}% of the 400-pod experiment "
        f"(ceiling {OFF_OVERHEAD_CEILING_PCT}%)"
    )
