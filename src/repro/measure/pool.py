"""Persistent warm-worker pool for the campaign engine.

A throwaway ``ProcessPoolExecutor`` per campaign would spawn workers
that cold-start the digest-keyed engine caches
(decode/prepare/specialize/zygote) and rebuild the workload OCI images
from scratch. This pool keeps **long-lived worker processes** instead:

* Workers are forked (where the platform allows) *after* the parent has
  pre-warmed the process-global caches — memoized workload images and
  the decoded/prepared microservice module — so every worker starts with
  those caches hot via copy-on-write, and keeps its own caches warm
  across all the cells it runs.
* Scheduling is **dynamic longest-expected-cost-first**: the parent
  sorts the task queue by descending per-cell cost estimate (wall-clock
  seconds recorded in the measurement cache by prior runs, or a density
  heuristic) and idle workers pull from the front — the classic LPT
  heuristic that keeps the makespan near the optimum without static
  sharding.
* Each completed cell travels back with its **telemetry delta**: the
  worker's span groups (:func:`repro.obs.span_groups_since`) and
  registry delta (:meth:`~repro.obs.registry.MetricsRegistry.delta_since`)
  for just that cell, so the parent can merge cells in sequential order
  and reproduce the exact ``--jobs 1`` telemetry at any worker count.

The pool is deliberately ignorant of *what* a cell is: it ships opaque
picklable tasks to :func:`repro.measure.series.run_cell`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.errors import SeriesError


def _pool_context():
    """Prefer fork (workers inherit pre-warmed caches); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def prewarm_process_caches() -> None:
    """Warm the process-global caches a forked worker should inherit.

    Builds the memoized workload images (the Python image joins a
    7.4 MiB stdlib layer — a measurable per-cluster cost) and runs the
    microservice module through the digest-keyed decode/prepare path.
    That decode entry serves every engine, so every forked worker starts
    with hot engine caches instead of paying the cold start once per
    worker.
    """
    from repro.workloads.images import build_python_image, build_wasm_image

    build_wasm_image()
    build_python_image()
    try:
        from repro.engines.cache import decode_cached
        from repro.workloads.microservice import build_microservice_wasm

        decode_cached(build_microservice_wasm())
    except Exception:
        pass  # pre-warming is an optimization, never a hard requirement


@dataclass(frozen=True)
class TelemetrySettings:
    """Which telemetry layers a worker (or the parent) collects.

    ``capture()`` snapshots the parent's ambient toggles so forked
    workers reproduce them exactly.
    """

    metrics: bool = False
    sampling: bool = False
    sampling_period: float = 1.0  # timeseries.DEFAULT_PERIOD
    profiling: bool = False

    @property
    def any(self) -> bool:
        return self.metrics or self.sampling or self.profiling

    @classmethod
    def capture(cls) -> "TelemetrySettings":
        from repro import obs
        from repro.obs import profile, timeseries

        return cls(
            metrics=obs.enabled(),
            sampling=timeseries.sampling_enabled(),
            sampling_period=timeseries.sampling_period(),
            profiling=profile.profiling_enabled(),
        )

    def apply(self) -> None:
        from repro import obs
        from repro.obs import profile, timeseries

        if self.metrics:
            obs.set_enabled(True)
        timeseries.set_sampling(self.sampling, self.sampling_period)
        profile.set_profiling(self.profiling)


@dataclass
class CellOutcome:
    """What one cell execution sends back from a worker."""

    index: int
    result: Any
    span_groups: Optional[list]
    registry_delta: Optional[dict]
    sample_groups: Optional[list]
    profile_delta: Optional[dict]
    wall_seconds: float


def _worker_main(
    tasks, results, settings: TelemetrySettings = TelemetrySettings()
) -> None:
    """Worker loop: pull the longest remaining task, run it, ship results."""
    from repro import obs
    from repro.obs import profile, timeseries

    settings.apply()
    from repro.measure.series import run_cell  # deferred: cheap under fork

    collect = settings.any
    while True:
        item = tasks.get()
        if item is None:
            return
        index, cell = item
        t0 = time.perf_counter()
        try:
            if collect:
                span_mark = obs.span_watermark()
                registry_base = obs.default_registry().state()
                ts_mark = timeseries.watermark()
                prof_base = profile.state()
            result = run_cell(cell)
            wall = time.perf_counter() - t0
            groups = delta = ts_groups = prof_delta = None
            if collect:
                groups = obs.span_groups_since(span_mark)
                delta = obs.default_registry().delta_since(registry_base)
                ts_groups = timeseries.sample_groups_since(ts_mark)
                prof_delta = profile.delta_since(prof_base)
            results.put(
                ("ok", index, result, groups, delta, ts_groups, prof_delta, wall)
            )
        except BaseException as exc:  # ship the failure, keep the loop alive
            try:
                pickle.dumps(exc)
                payload: BaseException = exc
            except Exception:
                payload = SeriesError(f"{type(exc).__name__}: {exc}")
            results.put(("err", index, payload, None, None, None, None, 0.0))


class WorkerPool:
    """Long-lived worker processes fed through one LPT-ordered queue."""

    def __init__(
        self, jobs: int, telemetry: TelemetrySettings = TelemetrySettings()
    ) -> None:
        if jobs < 1:
            raise SeriesError(f"worker pool needs jobs >= 1, got {jobs}")
        prewarm_process_caches()
        ctx = _pool_context()
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results, telemetry),
                daemon=True,
            )
            for _ in range(jobs)
        ]
        for proc in self._procs:
            proc.start()

    def run(
        self,
        cells: Sequence[Any],
        costs: Sequence[float],
        on_outcome: Callable[[CellOutcome], None],
    ) -> Dict[int, CellOutcome]:
        """Run ``cells``; returns outcomes keyed by position in ``cells``.

        ``costs`` aligns with ``cells``; tasks enter the shared queue in
        descending cost order (longest-expected first), and whichever
        worker goes idle takes the next longest — dynamic LPT.
        ``on_outcome`` fires per completion, in completion order (for
        progress/checkpointing). The first worker error is re-raised
        after the pool is torn down.
        """
        for i in sorted(range(len(cells)), key=lambda i: -costs[i]):
            self._tasks.put((i, cells[i]))

        outcomes: Dict[int, CellOutcome] = {}
        while len(outcomes) < len(cells):
            try:
                msg = self._results.get(timeout=1.0)
            except queue.Empty:
                if not any(p.is_alive() for p in self._procs):
                    self.close()
                    raise SeriesError(
                        "worker pool died before completing the series"
                    )
                continue
            kind, index, payload, groups, delta, ts_groups, prof_delta, wall = msg
            if kind == "err":
                self.close()
                raise payload
            outcome = CellOutcome(
                index=index,
                result=payload,
                span_groups=groups,
                registry_delta=delta,
                sample_groups=ts_groups,
                profile_delta=prof_delta,
                wall_seconds=wall,
            )
            outcomes[index] = outcome
            on_outcome(outcome)
        return outcomes

    def close(self) -> None:
        """Stop the workers. Queued sentinels first, terminate stragglers."""
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except Exception:
                break
        for proc in self._procs:
            proc.join(timeout=1.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "CellOutcome",
    "TelemetrySettings",
    "WorkerPool",
    "prewarm_process_caches",
]
