"""Campaign engine v2: the warm-worker pool against a pinned baseline.

Writes ``benchmarks/output/BENCH_campaign2.json`` (CI uploads it, following
the ``BENCH_campaign.json`` precedent):

* the full 27-cell figure campaign, cold measurement cache, at
  ``--jobs 4`` through the campaign engine's persistent warm-worker pool
  (best-of-2) and at ``--jobs 1``;
* the engine's wall time against the **recorded baseline** of the
  original throwaway-pool runner (the cold campaign wall time pinned in
  ``BENCH_campaign.json`` at commit 286a99a), asserted against a ≥2×
  floor — the compounding of the warm pool, LPT scheduling, memoized
  workload images, and the simulation speedups landed since;
* the correctness contract: summaries byte-identical to ``--jobs 1``,
  telemetry merged at ``--jobs 4``, resume re-running only unfinished
  cells.
"""

import json
import os
import time

from conftest import OUTPUT_DIR, SEED, emit

from repro import obs
from repro.measure.cache import MeasurementCache
from repro.measure.campaign import render_campaign, run_campaign
from repro.measure.experiment import ExperimentRunner
from repro.measure.series import Cell, execute_cells, expand_series, run_series
from repro.obs.export import chrome_trace

#: The throwaway-pool runner's cold-cache campaign wall time as recorded
#: in ``BENCH_campaign.json`` at commit 286a99a (one-CPU container). The
#: tracked floor: the engine must stay ≥2× under it.
PINNED_BASELINE = {
    "commit": "286a99a",
    "campaign_cold_seconds": 10.7,
    "note": "wall times are machine-dependent; speedup ratios are the "
    "tracked quantity",
}

ENGINE_SPEEDUP_FLOOR = 2.0
JOBS = 4

#: Metric families that track per-process warmth (engine-cache hits,
#: specialization/deopt state); they differ even between two successive
#: --jobs 1 runs in one process, so the telemetry-equality check scopes
#: to the simulation-driven remainder.
_WARMTH_PREFIXES = ("repro_engine_cache", "repro_specialize", "repro_zygote")


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _best_of_two(fn):
    first, first_s = _timed(fn)
    _, second_s = _timed(fn)
    return first, min(first_s, second_s)


def _deterministic_counters():
    out = {}
    for family in obs.default_registry().collect():
        if family.kind != "counter" or family.name.startswith(_WARMTH_PREFIXES):
            continue
        out[family.name] = {k: c.value for k, c in family.samples()}
    return out


def _telemetry_matches_sequential() -> bool:
    """Merged --jobs 4 counters + trace == a --jobs 1 run's, exactly."""
    cells = [
        Cell(series="matrix", kind="deploy", config=config, count=10, seed=SEED)
        for config in ("crun-wamr", "crun-python")
    ]
    was = obs.enabled()
    obs.set_enabled(True)
    try:
        obs.reset()
        seq, _ = execute_cells(cells, jobs=1, cache=None)
        seq_counters = _deterministic_counters()
        seq_trace = json.dumps(
            chrome_trace(obs.tagged_spans(), obs.context_labels()), sort_keys=True
        )
        obs.reset()
        par, _ = execute_cells(cells, jobs=JOBS, cache=None)
        par_counters = _deterministic_counters()
        par_trace = json.dumps(
            chrome_trace(obs.tagged_spans(), obs.context_labels()), sort_keys=True
        )
        return par == seq and par_counters == seq_counters and par_trace == seq_trace
    finally:
        obs.reset()
        obs.set_enabled(was)


def _resume_reruns_remainder_only(tmp_root) -> dict:
    """Interrupt a 4-cell series after 2 cells; resuming re-runs only 2."""
    spec = {
        "name": "bench-resume",
        "matrix": {"config": ["crun-wamr", "crun-python"], "count": [10, 25]},
    }
    cache = MeasurementCache(tmp_root / "cache")
    manifest = tmp_root / "series.json"

    class Interrupted(RuntimeError):
        pass

    done = []

    def interrupt(cell, _m):
        done.append(cell.key)
        if len(done) == 2:
            raise Interrupted

    try:
        run_series(spec, jobs=1, cache=cache, manifest=manifest, on_cell=interrupt)
    except Interrupted:
        pass

    reruns = []
    original = ExperimentRunner.run
    ExperimentRunner.run = lambda self, c, n, **kw: (
        reruns.append((c, n)) or original(self, c, n, **kw)
    )
    try:
        resumed = run_series(spec, jobs=1, cache=cache, manifest=manifest)
    finally:
        ExperimentRunner.run = original
    return {
        "cells": 4,
        "interrupted_after": len(done),
        "rerun_on_resume": len(reruns),
        "resumed_from_cache": len(resumed.resumed),
        "ok": len(reruns) == 2 and sorted(resumed.resumed) == sorted(done),
    }


def test_bench_campaign2_json(tmp_path):
    """Emit BENCH_campaign2.json and hold the engine-speedup floor."""
    pairs = [(c.config, c.count) for c in expand_series("figures")]
    assert len(pairs) == 27

    engine, engine_s = _best_of_two(
        lambda: run_campaign(seed=SEED, jobs=JOBS, cache=None)
    )
    sequential, sequential_s = _timed(
        lambda: run_campaign(seed=SEED, jobs=1, cache=None)
    )

    render_identical = render_campaign(engine) == render_campaign(sequential)
    telemetry_ok = _telemetry_matches_sequential()
    resume = _resume_reruns_remainder_only(tmp_path)

    vs_pinned = PINNED_BASELINE["campaign_cold_seconds"] / engine_s

    report = {
        "pinned_baseline": PINNED_BASELINE,
        "jobs": JOBS,
        "cpus": os.cpu_count(),
        "campaign_cold": {
            "engine_seconds": round(engine_s, 4),
            "sequential_seconds": round(sequential_s, 4),
            "speedup_vs_pinned_baseline": round(vs_pinned, 3),
        },
        "correctness": {
            "render_identical_to_jobs1": render_identical,
            "telemetry_merged_at_jobs4": telemetry_ok,
            "resume": resume,
        },
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_campaign2.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    c = report["campaign_cold"]
    emit(
        "campaign2",
        "\n".join(
            [
                f"[campaign2] figure campaign cold @ --jobs {JOBS}: "
                f"{c['engine_seconds']:.3f} s engine, "
                f"{c['sequential_seconds']:.3f} s at --jobs 1 "
                f"({os.cpu_count()} cpu)",
                f"[campaign2] vs recorded throwaway-pool baseline "
                f"({PINNED_BASELINE['campaign_cold_seconds']} s): "
                f"{c['speedup_vs_pinned_baseline']:.2f}x",
                f"[campaign2] summaries byte-identical: {render_identical}, "
                f"telemetry merged @ jobs={JOBS}: {telemetry_ok}, "
                f"resume re-ran {resume['rerun_on_resume']}/{resume['cells']}",
            ]
        ),
    )

    assert engine.all_hold() and sequential.all_hold()
    assert render_identical, "engine campaign summary drifted from --jobs 1"
    assert telemetry_ok, "merged --jobs 4 telemetry drifted from --jobs 1"
    assert resume["ok"], f"resume re-ran the wrong cells: {resume}"
    assert vs_pinned >= ENGINE_SPEEDUP_FLOOR, (
        f"campaign engine lost its ≥{ENGINE_SPEEDUP_FLOOR}x floor over the "
        f"recorded baseline: {vs_pinned:.2f}x"
    )
