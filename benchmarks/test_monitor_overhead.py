"""Monitoring overhead contract: bounded when sampling.

Writes ``benchmarks/output/BENCH_monitor.json`` (CI artifact) from the
400-pod crun-wamr startup experiment, run in pairs:

* with telemetry on but sampling off (the ``--metrics-out``/``--trace-out``
  price, measured by the obs bench);
* with **sampling on** — monitor gauges scraped, TSDB appends, rule
  evaluation at every period boundary.

Contract: the median over the pairs of sampled/telemetry wall time adds
≤ 10%. One 0.1 s run is too short to time alone on a busy host, so the
pairs are interleaved, their order alternates, and the median of the
per-pair ratios absorbs the host's drift. With sampling off no sampler
exists; the kernel's check for daemon entries is all that is left, and
the ``bench/`` deployment workloads time it.
"""

import gc
import json
import statistics
import time

from conftest import OUTPUT_DIR, SEED, emit

from repro import obs
from repro.engines.cache import reset_caches
from repro.measure.experiment import ExperimentRunner
from repro.obs import timeseries

#: contract: turning sampling on may add at most this much on top of
#: plain telemetry (metrics + spans, no sampler)
SAMPLING_OVERHEAD_CEILING_PCT = 10.0
#: telemetry/sampled pairs timed; the ceiling applies to their median
PAIRS = 15


def _timed_400pod(sampling: bool) -> float:
    obs.reset()
    timeseries.set_sampling(sampling, timeseries.DEFAULT_PERIOD)
    try:
        reset_caches()
        gc.collect()
        t0 = time.perf_counter()
        m = ExperimentRunner(seed=SEED).run("crun-wamr", 400)
        seconds = time.perf_counter() - t0
    finally:
        timeseries.set_sampling(False)
    assert m.count == 400 and m.ready_fraction == 1.0
    return seconds


def test_bench_monitor_overhead():
    was_enabled = obs.enabled()
    obs.set_enabled(True)
    telemetry_times, sampled_times = [], []
    try:
        _timed_400pod(True)  # warm engine/measurement-independent state
        for pair in range(PAIRS):
            for sampling in (pair % 2 == 1, pair % 2 == 0):
                if sampling:
                    sampled_times.append(_timed_400pod(True))
                    entries = timeseries.default_db().tagged_entries()
                else:
                    telemetry_times.append(_timed_400pod(False))
    finally:
        obs.reset()
        obs.set_enabled(was_enabled)
        reset_caches()

    ratios = [s / t for s, t in zip(sampled_times, telemetry_times)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    sampling_pct = 100.0 * (statistics.median(ratios) - 1.0)
    telemetry_s = statistics.median(telemetry_times)
    sampled_s = statistics.median(sampled_times)
    # ``entries`` is the last sampled run's TSDB (each run resets it).
    scrapes = len({e[3] for _, e in entries if e[0] == "sample"})
    samples = sum(1 for _, e in entries if e[0] == "sample")
    alerts = sum(1 for _, e in entries if e[0] == "alert")

    report = {
        "experiment": "crun-wamr x400",
        "pairs": PAIRS,
        "telemetry_only_seconds": round(telemetry_s, 4),
        "sampling_on_seconds": round(sampled_s, 4),
        "sampling_overhead_pct": round(sampling_pct, 2),
        "sampling_overhead_iqr_pct": [
            round(100.0 * (q1 - 1.0), 2), round(100.0 * (q3 - 1.0), 2)
        ],
        "sampling_overhead_ceiling_pct": SAMPLING_OVERHEAD_CEILING_PCT,
        "scrapes_per_run": scrapes,
        "samples_recorded": samples,
        "alert_transitions_recorded": alerts,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_monitor.json").write_text(json.dumps(report, indent=2) + "\n")

    emit(
        "monitor_overhead",
        "\n".join(
            [
                f"[monitor] 400-pod startup, median of {PAIRS} pairs: "
                f"{telemetry_s:.3f} s telemetry, {sampled_s:.3f} s sampled "
                f"({sampling_pct:+.1f}% for the sampler, paired IQR "
                f"{100.0 * (q1 - 1.0):+.1f}% to {100.0 * (q3 - 1.0):+.1f}%)",
                f"[monitor] sampled run: {scrapes} scrapes, {samples} samples, "
                f"{alerts} alert transitions",
            ]
        ),
    )

    assert samples > 400, "sampled run recorded almost nothing"
    assert alerts >= 2, "no alert lifecycle during the deploy (canary gone?)"
    assert sampling_pct <= SAMPLING_OVERHEAD_CEILING_PCT, (
        f"sampling adds {sampling_pct:.1f}% over plain telemetry, median of "
        f"{PAIRS} paired ratios (ceiling {SAMPLING_OVERHEAD_CEILING_PCT}%)"
    )
