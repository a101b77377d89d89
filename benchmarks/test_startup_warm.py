"""Zygote warm-start benchmark: cold vs snapshot-clone 400-pod startup.

Writes ``benchmarks/output/BENCH_zygote.json`` (uploaded by CI alongside
the other trajectory artifacts):

* the 400-pod deployment makespan under plain ``crun-wamr`` (every
  container pays full instantiation) vs ``crun-wamr-zygote`` (clones
  restore the image's instance snapshot), asserted against a ≥2× floor —
  both are simulated-time measurements of the same seed, so the ratio is
  machine-independent;
* per-container memory through both channels for the two runs;
* the pinned pre-PR cold baseline for trajectory context.
"""

import json

from conftest import OUTPUT_DIR, SEED, emit

from repro.measure.zygote import run_zygote_experiment

#: Cold-path reference measured at the seed of this PR (commit 7feca1f):
#: the 400-pod crun-wamr startup makespan before any warm path existed.
#: Simulated seconds, so exact across machines at this seed.
PINNED_BASELINE = {
    "commit": "7feca1f",
    "cold_400pod_startup_seconds": 10.92,
    "note": "simulated makespan at seed=1; the zygote run must beat the "
    "cold path by the floor below on the same seed",
}

#: Acceptance floor: warm 400-pod startup at least this much faster.
STARTUP_SPEEDUP_FLOOR = 2.0


def test_bench_zygote_json():
    """Emit BENCH_zygote.json and hold the warm-start speedup floor."""
    comp = run_zygote_experiment(seed=SEED, count=400)

    report = {
        "pinned_baseline": PINNED_BASELINE,
        "count": comp.count,
        "seed": comp.seed,
        "startup": {
            "cold_seconds": round(comp.cold.startup_seconds, 4),
            "warm_seconds": round(comp.warm.startup_seconds, 4),
            "speedup": round(comp.startup_speedup, 3),
            "speedup_vs_pinned_baseline": round(
                PINNED_BASELINE["cold_400pod_startup_seconds"]
                / comp.warm.startup_seconds,
                3,
            ),
        },
        "memory_mib_per_container": {
            "cold_metrics": round(comp.cold.metrics_mib, 3),
            "warm_metrics": round(comp.warm.metrics_mib, 3),
            "cold_free": round(comp.cold.free_mib, 3),
            "warm_free": round(comp.warm.free_mib, 3),
            "ratio_metrics": round(comp.memory_ratio, 3),
        },
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_zygote.json").write_text(json.dumps(report, indent=2) + "\n")

    s, m = report["startup"], report["memory_mib_per_container"]
    emit(
        "startup_warm",
        "\n".join(
            [
                f"[zygote] 400-pod startup: {s['cold_seconds']:.2f} s cold vs "
                f"{s['warm_seconds']:.2f} s warm ({s['speedup']:.2f}x)",
                f"[zygote] memory/container: {m['cold_metrics']:.2f} MiB cold vs "
                f"{m['warm_metrics']:.2f} MiB warm ({m['ratio_metrics']:.2f}x)",
            ]
        ),
    )

    assert comp.cold.ready_fraction == 1.0 and comp.warm.ready_fraction == 1.0
    assert comp.startup_speedup >= STARTUP_SPEEDUP_FLOOR, (
        f"warm-start speedup {comp.startup_speedup:.2f}x below the "
        f"{STARTUP_SPEEDUP_FLOOR}x floor"
    )
    assert comp.warm.metrics_mib < comp.cold.metrics_mib
    assert comp.warm.free_mib < comp.cold.free_mib
