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
* With telemetry on, each completed cell travels back with what it
  recorded, as one :class:`repro.obs.TelemetryDelta`, so the parent
  can merge cells in sequential order and reproduce the exact
  ``--jobs 1`` telemetry at any worker count. Workers record what the
  parent's switches (:class:`repro.obs.TelemetrySettings`) say, as they
  stood when the pool started.

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

from repro import obs
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


@dataclass
class CellOutcome:
    """What one cell execution sends back from a worker."""

    index: int
    result: Any
    #: what the cell recorded; None with every telemetry switch off
    telemetry: Optional[obs.TelemetryDelta]
    wall_seconds: float


def _worker_main(tasks, results, settings: obs.TelemetrySettings) -> None:
    """Worker loop: pull the longest remaining task, run it, ship results."""
    settings.apply()
    from repro.measure.series import run_cell  # deferred: cheap under fork

    while True:
        item = tasks.get()
        if item is None:
            return
        index, cell = item
        t0 = time.perf_counter()
        try:
            base = obs.state() if settings.any else None
            result = run_cell(cell)
            wall = time.perf_counter() - t0
            telemetry = None if base is None else obs.delta_since(base)
            results.put(CellOutcome(index, result, telemetry, wall))
        except BaseException as exc:  # ship the failure, keep the loop alive
            try:
                pickle.dumps(exc)
                payload: BaseException = exc
            except Exception:
                payload = SeriesError(f"{type(exc).__name__}: {exc}")
            results.put(payload)


class WorkerPool:
    """Long-lived worker processes fed through one LPT-ordered queue."""

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise SeriesError(f"worker pool needs jobs >= 1, got {jobs}")
        prewarm_process_caches()
        ctx = _pool_context()
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        settings = obs.TelemetrySettings.capture()
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results, settings),
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
                        "worker pool died before completing its cells"
                    )
                continue
            if isinstance(msg, BaseException):
                self.close()
                raise msg
            outcomes[msg.index] = msg
            on_outcome(msg)
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
    "WorkerPool",
    "prewarm_process_caches",
]
