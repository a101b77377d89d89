"""Experiment series: the campaign engine.

A series is a named list of :class:`Cell`\\ s. :data:`SHIPPED_SERIES`
maps each shipped name to its description and a ``seed → cells``
builder; ``repro series list|validate|run`` reads it. Callers with cells
of their own (``run_campaign(nodes=N)``, :func:`measure`, the figure
generators) hand them to :func:`execute_cells` directly.

:func:`execute_cells` is the one place a measurement is fetched. It
serves a deploy cell from the in-process memo or the measurement cache
(:mod:`repro.measure.cache`) when it can, runs the rest in the given
order (``jobs == 1``) or over a persistent warm-worker pool with
longest-expected-cost-first ordering (``jobs > 1``), and merges worker
telemetry back in cell order, so results and exports are byte-identical
at any worker count.

Resume: every finished deploy cell is stored in the measurement cache as
soon as it completes, so an interrupted series re-run against the same
cache serves the finished cells from it and re-runs only the remainder;
summaries are byte-identical because cache hits round-trip exactly.
Cells outside the cache's key space (recovery, chaos, fleet shards)
re-run; they are deterministic per seed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.core.integration import CRUN_WASM_CONFIGS, RUNTIME_CONFIGS
from repro.errors import SeriesError
from repro.measure.cache import MeasurementCache, default_cache
from repro.measure.experiment import DENSITIES, ExperimentRunner

#: sentinel: "use the ambient default cache" (an explicit None disables)
DEFAULT_CACHE = object()

#: deploy measurements of this process, keyed ``(seed, config, count)``;
#: only :data:`DEFAULT_CACHE` runs read and fill it, so figures sharing
#: bars simulate each bar once
_MEMO: Dict[Tuple[int, str, int], Any] = {}


def auto_jobs() -> int:
    """Worker count when the caller asks for auto-detection."""
    return os.cpu_count() or 1


# -- cells ---------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One experiment in a series: (kind, config, count, seed, params).

    ``kind`` is ``deploy``, ``recovery`` or ``chaos``. ``nodes`` is the
    fleet-size shard axis (deploy cells only); it is absent from the key
    whenever it is 1, so single-node cell keys predate the fleet axis.
    """

    series: str
    kind: str
    config: str
    count: int
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()
    nodes: int = 1

    @property
    def key(self) -> str:
        """Stable identity used for dedup and result lookup."""
        parts = [self.kind, self.config, f"n{self.count}", f"s{self.seed}"]
        if self.nodes != 1:
            parts.append(f"nodes{self.nodes}")
        parts += [f"{k}={v}" for k, v in self.params]
        return ":".join(parts)

    @property
    def cacheable(self) -> bool:
        """Deploy cells map 1:1 onto the measurement-cache key space.

        Fleet cells (nodes > 1) are outside that key space and always
        re-run (they are deterministic per seed).
        """
        return self.kind == "deploy" and not self.params and self.nodes == 1


# -- shipped series ------------------------------------------------------------


class Series(NamedTuple):
    """A shipped series: what ``repro series list`` prints, and its cells."""

    description: str
    cells: Callable[[int], List[Cell]]


def _grid(
    name: str,
    kind: str,
    configs: Sequence[str],
    counts: Sequence[int],
    nodes: Sequence[int] = (1,),
    params: Tuple[Tuple[str, Any], ...] = (),
) -> Callable[[int], List[Cell]]:
    """A builder of ``configs × counts × nodes`` cells, in that order."""

    def cells(seed: int) -> List[Cell]:
        return [
            Cell(name, kind, config, count, seed, params, n)
            for config in configs
            for count in counts
            for n in nodes
        ]

    return cells


#: Every experiment family the repo ships. Cells come in config-name
#: order, which is the order ``--jobs 1`` runs them and the order results
#: and telemetry merge back in.
SHIPPED_SERIES: Dict[str, Series] = {
    "campaign": Series(
        "paper §IV matrix: every runtime config × density",
        _grid("campaign", "deploy", sorted(RUNTIME_CONFIGS), DENSITIES),
    ),
    "figures": Series(
        "cells behind Figs 3-10 (inherits the campaign matrix)",
        _grid("figures", "deploy", sorted(RUNTIME_CONFIGS), DENSITIES),
    ),
    "crun-memory": Series(
        "Figs 3-4 slice: Wasm runtimes embedded in crun",
        _grid("crun-memory", "deploy", sorted(CRUN_WASM_CONFIGS), DENSITIES),
    ),
    "zygote": Series(
        "cold crun-wamr baseline, then snapshot-clone warm run",
        _grid("zygote", "deploy", ["crun-wamr", "crun-wamr-zygote"], [400]),
    ),
    "recovery": Series(
        "self-healing under ≥30% transient startup faults",
        _grid("recovery", "recovery", ["crun-wamr"], [100]),
    ),
    "chaos": Series(
        "full-lifecycle fault injection with invariant checks",
        _grid("chaos", "chaos", ["crun-wamr"], [400], params=(("rate", 0.25),)),
    ),
    "fleet": Series(
        "cross-node fan-out: fixed density swept over fleet sizes",
        _grid(
            "fleet", "deploy", ["crun-wamr", "crun-wamr-zygote"], [400], nodes=(1, 4, 8)
        ),
    ),
}


def series_cells(name: str, seed: int = 1) -> List[Cell]:
    """The cells of shipped series ``name`` at ``seed``."""
    if name not in SHIPPED_SERIES:
        raise SeriesError(f"unknown series {name!r} (have {sorted(SHIPPED_SERIES)})")
    return SHIPPED_SERIES[name].cells(seed)


def run_cell(cell: Cell) -> Any:
    """Execute one cell; returns its kind's measurement object."""
    params = dict(cell.params)
    if cell.kind == "deploy":
        return ExperimentRunner(seed=cell.seed).run(
            cell.config, cell.count, nodes=cell.nodes
        )
    if cell.kind == "recovery":
        from repro.measure.recovery import run_recovery

        return run_recovery(
            config=cell.config, count=cell.count, seed=cell.seed, **params
        )
    if cell.kind == "chaos":
        from repro.measure.chaos import run_chaos

        return run_chaos(
            config=cell.config, count=cell.count, seed=cell.seed, **params
        )
    raise SeriesError(f"unknown cell kind {cell.kind!r}")


# -- execution -----------------------------------------------------------------


@dataclass
class SeriesResult:
    """Everything one series run yields, keyed by cell."""

    series: str
    cells: List[Cell]
    results: Dict[str, Any] = field(default_factory=dict)
    #: cells served from the memo or the measurement cache (not re-run)
    resumed: List[str] = field(default_factory=list)


def _cost_estimate(store: Optional[MeasurementCache], cell: Cell) -> float:
    """Expected wall-seconds for LPT scheduling (cache-informed)."""
    if store is not None and cell.cacheable:
        wall = store.cost_estimate(cell.seed, cell.config, cell.count)
        if wall is not None:
            return wall
    weight = {"deploy": 1.0, "recovery": 3.0, "chaos": 8.0}[cell.kind]
    return float(cell.count) * weight


def execute_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    cache=DEFAULT_CACHE,
    on_cell: Optional[Callable[[Cell, Any], None]] = None,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run cells (sequential order = the given order); returns results.

    The only reader and writer of the memo and the measurement cache. A
    cacheable cell found in either is served from it (resumed); every
    other cell runs, and a cacheable one is stored as soon as it
    finishes. ``cache=DEFAULT_CACHE`` uses the memo and the ambient
    cache; ``cache=None`` or an explicit :class:`MeasurementCache`
    bypasses the memo. ``on_cell`` fires after each cell that ran.
    Returns ``(results by cell key, resumed cell keys)``.
    """
    cells = list(cells)
    if jobs <= 0:
        jobs = auto_jobs()
    # A caller that chose its own cache, or none, gets a memo of its own.
    memo = _MEMO if cache is DEFAULT_CACHE else {}
    store: Optional[MeasurementCache] = (
        default_cache() if cache is DEFAULT_CACHE else cache
    )

    results: Dict[str, Any] = {}
    resumed: List[str] = []
    pending: List[Cell] = []
    for cell in cells:
        hit = None
        if cell.cacheable:
            ident = (cell.seed, cell.config, cell.count)
            hit = memo.get(ident)
            if hit is None and store is not None:
                hit = store.get(*ident)
        if hit is None:
            pending.append(cell)
        else:
            memo[ident] = results[cell.key] = hit
            resumed.append(cell.key)

    def finish(cell: Cell, result: Any, wall: float) -> None:
        results[cell.key] = result
        if cell.cacheable:
            memo[(cell.seed, cell.config, cell.count)] = result
            if store is not None:
                store.put(cell.seed, cell.config, cell.count, result, wall_seconds=wall)
        if on_cell is not None:
            on_cell(cell, result)

    workers = min(jobs, len(pending))
    if workers <= 1:
        for cell in pending:
            t0 = time.perf_counter()
            result = run_cell(cell)
            finish(cell, result, time.perf_counter() - t0)
        return results, resumed

    from repro.measure.pool import TelemetrySettings, WorkerPool

    settings = TelemetrySettings.capture()
    with WorkerPool(workers, telemetry=settings) as pool:
        outcomes = pool.run(
            pending,
            costs=[_cost_estimate(store, cell) for cell in pending],
            on_outcome=lambda o: finish(pending[o.index], o.result, o.wall_seconds),
        )

    if settings.any:
        # Merge worker telemetry in sequential cell order: counters and
        # histograms add, gauges apply last-writer-wins, span groups and
        # time-series samples replay through fresh parent contexts (one
        # shared context per cell label keeps counter tracks aligned with
        # span tracks), and profiler stacks add — reproducing the exact
        # registry, trace, TSDB, and collapsed stacks a --jobs 1 run
        # would have built.
        from repro.obs import profile

        registry = obs.default_registry()
        for i in range(len(pending)):
            outcome = outcomes[i]
            if outcome.registry_delta is not None:
                registry.merge_delta(outcome.registry_delta)
            if outcome.span_groups or outcome.sample_groups:
                obs.adopt_telemetry_groups(
                    outcome.span_groups or [], outcome.sample_groups or []
                )
            if outcome.profile_delta:
                profile.merge_delta(outcome.profile_delta)

    return results, resumed


def run_series(
    name: str,
    seed: int = 1,
    jobs: int = 1,
    cache=DEFAULT_CACHE,
    on_cell: Optional[Callable[[Cell, Any], None]] = None,
) -> SeriesResult:
    """Execute shipped series ``name`` at ``seed``.

    A re-run against the same ``cache`` resumes: deploy cells an earlier
    (possibly interrupted) run finished are served from the cache, and
    only the rest simulate. ``on_cell`` fires after each cell that ran
    (progress/interruption).
    """
    cells = series_cells(name, seed)
    results, resumed = execute_cells(cells, jobs=jobs, cache=cache, on_cell=on_cell)
    return SeriesResult(series=name, cells=cells, results=results, resumed=resumed)


__all__ = [
    "Cell",
    "DEFAULT_CACHE",
    "SHIPPED_SERIES",
    "Series",
    "SeriesResult",
    "auto_jobs",
    "execute_cells",
    "run_cell",
    "run_series",
    "series_cells",
]
