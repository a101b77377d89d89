"""The campaign engine: deploy cells in, measurements out.

A :class:`Cell` is one deployment measurement. Callers build their own
cells (:func:`~repro.measure.campaign.run_campaign` its 27,
:func:`~repro.measure.experiment.measure` one, each figure generator the
bars it plots) and hand them to :func:`execute_cells`.

:func:`execute_cells` is the one place a measurement is fetched. It
serves a cell from the in-process memo or the measurement cache
(:mod:`repro.measure.cache`) when it can, runs the rest in the given
order (``jobs == 1``) or over a persistent warm-worker pool with
longest-expected-cost-first ordering (``jobs > 1``), and merges worker
telemetry back in cell order, so results and exports are byte-identical
at any worker count.

Resume: every finished single-node cell is stored in the measurement
cache as soon as it completes, so an interrupted run re-run against the
same cache serves the finished cells from it and re-runs only the
remainder; summaries are byte-identical because cache hits round-trip
exactly. Fleet cells (``nodes > 1``) are outside the cache's key space
and re-run; they are deterministic per seed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.measure.cache import MeasurementCache, default_cache
from repro.measure.experiment import DeploymentMeasurement, ExperimentRunner

#: sentinel: "use the ambient default cache" (an explicit None disables)
DEFAULT_CACHE = object()

#: deploy measurements of this process, keyed by cell; only
#: :data:`DEFAULT_CACHE` runs read and fill it, so figures sharing bars
#: simulate each bar once
_MEMO: Dict["Cell", DeploymentMeasurement] = {}


def auto_jobs() -> int:
    """Worker count when the caller asks for auto-detection."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Cell:
    """One deployment: ``count`` pods of ``config`` at ``seed`` on
    ``nodes`` simulated nodes."""

    config: str
    count: int
    seed: int
    nodes: int = 1

    @property
    def cacheable(self) -> bool:
        """Single-node cells map 1:1 onto the measurement-cache key space."""
        return self.nodes == 1


def run_cell(cell: Cell) -> DeploymentMeasurement:
    """Run one cell's deployment."""
    return ExperimentRunner(seed=cell.seed).run(
        cell.config, cell.count, nodes=cell.nodes
    )


def _cost_estimate(store: Optional[MeasurementCache], cell: Cell) -> float:
    """Expected wall-seconds for LPT scheduling (cache-informed)."""
    if store is not None and cell.cacheable:
        wall = store.cost_estimate(cell.seed, cell.config, cell.count)
        if wall is not None:
            return wall
    return float(cell.count)


def execute_cells(
    cells: Sequence[Cell], jobs: int = 1, cache=DEFAULT_CACHE
) -> Dict[Cell, DeploymentMeasurement]:
    """Run cells (sequential order = the given order); results by cell.

    The only reader and writer of the memo and the measurement cache. A
    cacheable cell found in either is served from it; every other cell
    runs, and a cacheable one is stored as soon as it finishes.
    ``cache=DEFAULT_CACHE`` uses the memo and the ambient cache;
    ``cache=None`` or an explicit :class:`MeasurementCache` bypasses the
    memo.
    """
    if jobs <= 0:
        jobs = auto_jobs()
    # A caller that chose its own cache, or none, gets a memo of its own.
    memo = _MEMO if cache is DEFAULT_CACHE else {}
    store: Optional[MeasurementCache] = (
        default_cache() if cache is DEFAULT_CACHE else cache
    )

    results: Dict[Cell, DeploymentMeasurement] = {}
    pending: List[Cell] = []
    for cell in cells:
        hit = None
        if cell.cacheable:
            hit = memo.get(cell)
            if hit is None and store is not None:
                hit = store.get(cell.seed, cell.config, cell.count)
        if hit is None:
            pending.append(cell)
        else:
            memo[cell] = results[cell] = hit

    def finish(cell: Cell, result: DeploymentMeasurement, wall: float) -> None:
        results[cell] = result
        if cell.cacheable:
            memo[cell] = result
            if store is not None:
                store.put(cell.seed, cell.config, cell.count, result, wall_seconds=wall)

    workers = min(jobs, len(pending))
    if workers <= 1:
        for cell in pending:
            t0 = time.perf_counter()
            result = run_cell(cell)
            finish(cell, result, time.perf_counter() - t0)
        return results

    from repro.measure.pool import WorkerPool

    with WorkerPool(workers) as pool:
        outcomes = pool.run(
            pending,
            costs=[_cost_estimate(store, cell) for cell in pending],
            on_outcome=lambda o: finish(pending[o.index], o.result, o.wall_seconds),
        )
    # Worker telemetry merges in sequential cell order, which rebuilds
    # exactly what a --jobs 1 run records.
    for i in range(len(pending)):
        obs.merge_delta(outcomes[i].telemetry)

    return results


__all__ = [
    "Cell",
    "DEFAULT_CACHE",
    "auto_jobs",
    "execute_cells",
    "run_cell",
]
