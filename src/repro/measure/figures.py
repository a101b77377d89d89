"""One generator per table/figure of the paper's evaluation.

Each ``figN_*`` function hands the deployments behind that figure, and
no others, to the campaign engine
(:func:`~repro.measure.series.execute_cells`, which serves the ones this
process or the measurement cache already holds) and returns a
:class:`FigureSeries` with the same rows/bars the paper plots.
``repro.measure.report`` renders them as text tables; the benchmark
suite asserts the paper's relations on the returned numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.integration import (
    CRUN_WAMR_CONFIG,
    CRUN_WASM_CONFIGS,
    PYTHON_CONFIGS,
    RUNTIME_CONFIGS,
    RUNWASI_CONFIGS,
)
from repro.engines.profiles import STACK_VERSIONS
from repro.measure.experiment import DENSITIES, DeploymentMeasurement
from repro.measure.series import Cell, execute_cells


@dataclass
class FigureSeries:
    """Data behind one figure: config → density → value."""

    figure_id: str
    title: str
    unit: str
    densities: Tuple[int, ...]
    values: Dict[str, Dict[int, float]]
    ours: str = CRUN_WAMR_CONFIG

    def value(self, config: str, density: int) -> float:
        return self.values[config][density]

    def averaged(self, config: str) -> float:
        per = self.values[config]
        return sum(per.values()) / len(per)

    def configs(self) -> List[str]:
        return list(self.values)

    def best_other(self, density: int) -> Tuple[str, float]:
        """Lowest value among non-ours configs at a density."""
        others = {
            c: per[density] for c, per in self.values.items() if c != self.ours
        }
        best = min(others, key=others.get)  # type: ignore[arg-type]
        return best, others[best]


def _measurements(
    configs: Sequence[str], densities: Sequence[int], seed: int, jobs: int
) -> Dict[Tuple[str, int], DeploymentMeasurement]:
    """The figure's own deploy cells, fetched through the campaign engine:
    ``(config, count) -> measurement``."""
    cells = [
        Cell("figures", "deploy", config, n, seed)
        for config in configs
        for n in densities
    ]
    results, _ = execute_cells(cells, jobs=jobs)
    return {(cell.config, cell.count): results[cell.key] for cell in cells}


def _memory_series(
    figure_id: str,
    title: str,
    configs: Sequence[str],
    channel: str,
    seed: int,
    jobs: int,
) -> FigureSeries:
    values: Dict[str, Dict[int, float]] = {}
    for (config, n), m in _measurements(configs, DENSITIES, seed, jobs).items():
        values.setdefault(config, {})[n] = (
            m.metrics_mib if channel == "metrics" else m.free_mib
        )
    return FigureSeries(
        figure_id=figure_id,
        title=title,
        unit="MiB/container",
        densities=DENSITIES,
        values=values,
    )


def _startup_series(
    figure_id: str, title: str, density: int, seed: int, jobs: int
) -> FigureSeries:
    measured = _measurements(RUNTIME_CONFIGS, (density,), seed, jobs)
    values = {
        config: {density: measured[config, density].startup_seconds}
        for config in RUNTIME_CONFIGS
    }
    return FigureSeries(
        figure_id=figure_id,
        title=title,
        unit="seconds",
        densities=(density,),
        values=values,
    )


# -- memory figures ------------------------------------------------------------


def fig3_crun_memory_metrics(seed: int = 1, jobs: int = 1) -> FigureSeries:
    """Fig 3: Wasm runtimes in crun, per-container memory (metrics server)."""
    return _memory_series(
        "fig3",
        "Average memory usage per container for different Wasm runtimes in "
        "crun, measured by Kubernetes",
        CRUN_WASM_CONFIGS,
        channel="metrics",
        seed=seed,
        jobs=jobs,
    )


def fig4_crun_memory_free(seed: int = 1, jobs: int = 1) -> FigureSeries:
    """Fig 4: same deployments, measured by the OS (`free`)."""
    return _memory_series(
        "fig4",
        "Average memory usage per container for different Wasm runtimes in "
        "crun, measured by the OS",
        CRUN_WASM_CONFIGS,
        channel="free",
        seed=seed,
        jobs=jobs,
    )


def fig5_runwasi_memory_free(seed: int = 1, jobs: int = 1) -> FigureSeries:
    """Fig 5: ours vs the runwasi shims (`free`)."""
    return _memory_series(
        "fig5",
        "Average memory usage per container for different Wasm shims, "
        "measured by the OS",
        [CRUN_WAMR_CONFIG, *RUNWASI_CONFIGS],
        channel="free",
        seed=seed,
        jobs=jobs,
    )


def fig6_python_memory_metrics(seed: int = 1, jobs: int = 1) -> FigureSeries:
    """Fig 6: ours vs Python containers (metrics server).

    Includes shim-wasmtime, which §IV-D singles out as the second-most
    memory-efficient Wasm runtime.
    """
    return _memory_series(
        "fig6",
        "Average memory usage per container by our work compared with "
        "Python containers, measured by Kubernetes",
        [CRUN_WAMR_CONFIG, "shim-wasmtime", *PYTHON_CONFIGS],
        channel="metrics",
        seed=seed,
        jobs=jobs,
    )


def fig7_python_memory_free(seed: int = 1, jobs: int = 1) -> FigureSeries:
    """Fig 7: ours vs Python containers (`free`)."""
    return _memory_series(
        "fig7",
        "Average memory usage per container by our work compared with "
        "Python containers, measured by the OS",
        [CRUN_WAMR_CONFIG, "shim-wasmtime", *PYTHON_CONFIGS],
        channel="free",
        seed=seed,
        jobs=jobs,
    )


# -- startup figures ------------------------------------------------------------------


def fig8_startup_10(seed: int = 1, jobs: int = 1) -> FigureSeries:
    """Fig 8: time to start 10 concurrent containers' workloads."""
    return _startup_series(
        "fig8",
        "Time to start 10 concurrent containers' workload executions",
        10,
        seed,
        jobs,
    )


def fig9_startup_400(seed: int = 1, jobs: int = 1) -> FigureSeries:
    """Fig 9: time to start 400 concurrent containers' workloads."""
    return _startup_series(
        "fig9",
        "Time to start 400 concurrent containers' workload executions",
        400,
        seed,
        jobs,
    )


# -- overview -----------------------------------------------------------------------------


def fig10_overview(seed: int = 1, jobs: int = 1) -> FigureSeries:
    """Fig 10: memory per container, all runtimes, averaged over densities."""
    series = _memory_series(
        "fig10",
        "Memory usage per container by our work compared with other "
        "container runtimes, averaged over all deployment sizes",
        list(RUNTIME_CONFIGS),
        channel="free",
        seed=seed,
        jobs=jobs,
    )
    return series


# -- tables -----------------------------------------------------------------------------------


def table1_software_stack() -> Dict[str, str]:
    """Table I: the software stack of the evaluation."""
    return dict(STACK_VERSIONS)


def table2_experiments_overview() -> List[Dict[str, str]]:
    """Table II: the experiment matrix (sections, metrics, runtimes)."""
    return [
        {
            "section": "IV-B",
            "metric": "Memory",
            "container_runtime": "crun",
            "language_runtime": "WAMR, WasmEdge, Wasmer, Wasmtime",
            "figures": "3, 4",
        },
        {
            "section": "IV-C",
            "metric": "Memory",
            "container_runtime": "crun, containerd (runwasi)",
            "language_runtime": "WAMR, WasmEdge, Wasmer, Wasmtime",
            "figures": "5",
        },
        {
            "section": "IV-D",
            "metric": "Memory",
            "container_runtime": "crun, runC",
            "language_runtime": "WAMR, Python",
            "figures": "6, 7",
        },
        {
            "section": "IV-E",
            "metric": "Latency",
            "container_runtime": "crun, runC, containerd (runwasi)",
            "language_runtime": "WAMR, WasmEdge, Wasmer, Wasmtime, Python",
            "figures": "8, 9",
        },
    ]
