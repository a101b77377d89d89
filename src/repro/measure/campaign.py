"""Full benchmark campaign: the paper's §IV in one call.

Runs every runtime configuration at every density, derives the headline
claims (§IV-F's summary percentages) from the measurements, and renders
a combined report. This is what `repro campaign` prints and what
EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.integration import (
    CRUN_WAMR_CONFIG,
    CRUN_WASM_CONFIGS,
    PYTHON_CONFIGS,
    RUNTIME_CONFIGS,
    RUNWASI_CONFIGS,
)
from repro.errors import SeriesError
from repro.measure.experiment import DENSITIES, DeploymentMeasurement
from repro.measure.series import DEFAULT_CACHE, Cell, execute_cells
from repro.measure.stats import percent_lower


@dataclass
class Claim:
    """One derived headline claim, paper value vs measured."""

    claim_id: str
    description: str
    paper: str
    measured: str
    holds: bool


@dataclass
class CampaignResult:
    measurements: Dict[Tuple[str, int], DeploymentMeasurement]
    claims: List[Claim] = field(default_factory=list)

    def get(self, config: str, density: int) -> DeploymentMeasurement:
        return self.measurements[(config, density)]

    def averaged_free(self, config: str) -> float:
        return sum(self.get(config, n).free_mib for n in DENSITIES) / len(DENSITIES)

    def averaged_metrics(self, config: str) -> float:
        return sum(self.get(config, n).metrics_mib for n in DENSITIES) / len(DENSITIES)

    def all_hold(self) -> bool:
        return all(c.holds for c in self.claims)


def run_campaign(
    seed: int = 1, jobs: int = 1, cache=DEFAULT_CACHE, nodes: int = 1
) -> CampaignResult:
    """Execute the full matrix and evaluate the §IV-F headline claims.

    Runs one deploy cell per runtime configuration × density, in
    config-name order, through the campaign engine: that is the order
    ``jobs=1`` runs them in and the order telemetry merges in. ``jobs``
    > 1 fans the 27 independent experiments out over a persistent
    warm-worker pool (0 = auto-detect); results and telemetry merge
    deterministically, so the summary is byte-identical at any worker
    count. ``cache=None`` bypasses the persistent measurement cache;
    with a cache, each cell is stored as it finishes, so an interrupted
    campaign re-run against the same cache resumes where it stopped.

    ``nodes`` > 1 fans every cell's deployment out across a simulated
    N-node fleet (cross-node sharding on top of the worker processes).
    The paper's claim thresholds are calibrated for the single-node
    testbed, so fleet campaigns report claims informationally — expect
    startup claims to over-perform and memory claims to hold unchanged.
    """
    if nodes < 1:
        raise SeriesError(f"campaign: nodes must be a positive int, got {nodes}")
    cells = [
        Cell(config, count, seed, nodes)
        for config in sorted(RUNTIME_CONFIGS)
        for count in DENSITIES
    ]
    results = execute_cells(cells, jobs=jobs, cache=cache)
    result = CampaignResult(
        measurements={(cell.config, cell.count): results[cell] for cell in cells}
    )
    ours = CRUN_WAMR_CONFIG

    def add(claim_id, description, paper, measured_value, holds):
        result.claims.append(
            Claim(claim_id, description, paper, measured_value, holds)
        )

    # §IV-F: >= 40% less than any crun Wasm runtime (free channel).
    worst_margin = min(
        percent_lower(result.averaged_free(ours), result.averaged_free(c))
        for c in CRUN_WASM_CONFIGS
        if c != ours
    )
    add(
        "crun-family",
        "memory vs crun-embedded Wasm runtimes (free)",
        ">= 40.0% less",
        f"{worst_margin:.1f}% less (worst case)",
        worst_margin >= 40.0,
    )

    # §IV-F: 10.87%..77.53% less than the runwasi shims.
    shim_margins = {
        c: percent_lower(result.averaged_free(ours), result.averaged_free(c))
        for c in RUNWASI_CONFIGS
    }
    add(
        "runwasi",
        "memory vs runwasi shims (free)",
        "10.87% .. 77.53% less",
        f"{min(shim_margins.values()):.1f}% .. {max(shim_margins.values()):.1f}% less",
        min(shim_margins.values()) >= 10.0 and max(shim_margins.values()) >= 70.0,
    )

    # §IV-F: >= 16.38% less than Python containers.
    py_margin = min(
        percent_lower(result.averaged_free(ours), result.averaged_free(c))
        for c in PYTHON_CONFIGS
    )
    add(
        "python",
        "memory vs Python containers (free)",
        ">= 16.38% less",
        f"{py_margin:.1f}% less (worst case)",
        py_margin >= 16.0,
    )

    # §IV-E small deployments: under 3.24 s for 10 containers.
    t10 = result.get(ours, 10).startup_seconds
    add(
        "startup-10",
        "time to start 10 containers",
        "< 3.24 s",
        f"{t10:.2f} s",
        t10 < 3.24,
    )

    # §IV-E large deployments: beats shims, trails crun-wasmtime slightly.
    t400 = result.get(ours, 400).startup_seconds
    shim_edge = percent_lower(t400, result.get("shim-wasmtime", 400).startup_seconds)
    wt_deficit = 100.0 * (
        t400 / result.get("crun-wasmtime", 400).startup_seconds - 1.0
    )
    add(
        "startup-400",
        "time to start 400 containers vs shim-wasmtime / crun-wasmtime",
        "28.38% faster / 6.93% slower",
        f"{shim_edge:.1f}% faster / {wt_deficit:.1f}% slower",
        shim_edge >= 25.0 and 0.0 < wt_deficit <= 12.0,
    )

    # Fig 10 ordering.
    order = sorted(RUNTIME_CONFIGS, key=result.averaged_free)
    expected = [
        "crun-wamr",
        "shim-wasmtime",
        "crun-python",
        "runc-python",
        "shim-wasmedge",
        "crun-wasmedge",
        "crun-wasmtime",
        "crun-wasmer",
        "shim-wasmer",
    ]
    add(
        "fig10-order",
        "overall memory ordering (Fig 10)",
        " < ".join(expected),
        " < ".join(order),
        order == expected,
    )

    return result


def render_campaign(result: CampaignResult) -> str:
    lines = ["=== campaign summary (paper §IV-F claims) ==="]
    for claim in result.claims:
        status = "OK  " if claim.holds else "FAIL"
        lines.append(f"[{status}] {claim.description}")
        lines.append(f"       paper:    {claim.paper}")
        lines.append(f"       measured: {claim.measured}")
    lines.append("")
    lines.append("per-config averages over densities (MiB/container):")
    lines.append(f"{'config':16s}{'metrics':>10s}{'free':>10s}{'t10 (s)':>10s}{'t400 (s)':>10s}")
    for config in sorted(RUNTIME_CONFIGS, key=result.averaged_free):
        lines.append(
            f"{config:16s}"
            f"{result.averaged_metrics(config):>10.2f}"
            f"{result.averaged_free(config):>10.2f}"
            f"{result.get(config, 10).startup_seconds:>10.2f}"
            f"{result.get(config, 400).startup_seconds:>10.2f}"
        )
    return "\n".join(lines)
