"""Fleet experiments: startup-throughput scaling and snapshot locality.

The paper's testbed is a single 20-core node; every per-node cost the
reproduction models (the serialized sandbox phase growing with
``containers_created``, the memory-pressure multiplier) is *node-local*,
so sharding one deployment across an N-node fleet attacks the superlinear
terms directly. Two experiments quantify that:

* :func:`run_fleet` — the scaling sweep: one fixed-size deployment
  repeated across fleet sizes, reporting startup throughput (pods per
  simulated second) and the speedup over the 1-node baseline. The
  serialized phase is quadratic in per-node container count, so the
  expected scaling is *super*-linear at high density — the benchmark
  floor (8 nodes ≥ 3× 1 node) is deliberately conservative.
* :func:`run_locality_ablation` — the same campaign scheduled twice,
  with and without the scheduler's zygote-snapshot locality bonus. A
  completed seed pod plants a snapshot on one node; locality-aware
  scoring then packs warm-capable pods onto that node (until the
  balance penalty overtakes the bonus) while locality-blind spreading
  pays a cold start per fresh node. The warm-start fractions come from
  the same container facts the kubelet's warm/cold counters use.

Both are deterministic per seed, like everything in :mod:`repro.measure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.measure.experiment import DeploymentMeasurement, ExperimentRunner
from repro.measure.experiment import open_run, zygote_starts

#: fleet sizes the shipped scaling sweep visits
DEFAULT_FLEETS = (1, 2, 4, 8)


@dataclass(frozen=True)
class FleetPoint:
    """One fleet size's measurement in a scaling sweep."""

    nodes: int
    measurement: DeploymentMeasurement

    @property
    def throughput(self) -> float:
        return self.measurement.throughput

    @property
    def warm_fraction(self) -> Optional[float]:
        return self.measurement.warm_fraction


@dataclass(frozen=True)
class FleetScaling:
    """Startup-throughput scaling of one config/density over fleet sizes."""

    config: str
    count: int
    seed: int
    points: Tuple[FleetPoint, ...]

    def point(self, nodes: int) -> FleetPoint:
        for p in self.points:
            if p.nodes == nodes:
                return p
        raise KeyError(f"no fleet point for nodes={nodes}")

    def speedup(self, nodes: int) -> float:
        """Throughput at ``nodes`` over the 1-node baseline."""
        return self.point(nodes).throughput / self.point(1).throughput


def run_fleet(
    config: str = "crun-wamr",
    count: int = 400,
    fleets: Tuple[int, ...] = DEFAULT_FLEETS,
    seed: int = 1,
) -> FleetScaling:
    """Deploy ``count`` pods of ``config`` at every fleet size in ``fleets``.

    Each point is a fresh cluster; ``max_pods`` is raised to ``count``
    when a single node could not otherwise hold the deployment (the
    1-node baseline of a 10k-pod sweep), matching the paper's 500-pod
    extension in spirit. ``fleets`` must include the 1-node baseline and
    name each size once.
    """
    if 1 not in fleets or min(fleets) < 1:
        raise ReproError(
            f"fleet sizes {list(fleets)} must include 1 and be positive"
        )
    repeated = sorted({n for n in fleets if fleets.count(n) > 1})
    if repeated:
        raise ReproError(f"fleet sizes {list(fleets)} repeat {repeated}")
    runner = ExperimentRunner(seed=seed)
    points = []
    for nodes in fleets:
        per_node_cap = max(500, -(-count // nodes))  # ceil division
        points.append(
            FleetPoint(
                nodes=nodes,
                measurement=runner.run(
                    config, count, nodes=nodes, max_pods=per_node_cap
                ),
            )
        )
    return FleetScaling(
        config=config, count=count, seed=seed, points=tuple(points)
    )


@dataclass(frozen=True)
class LocalityAblation:
    """Warm-start fraction with vs without locality-aware placement."""

    config: str
    count: int
    nodes: int
    seed: int
    locality_weight: float
    warm_fraction_with: float
    warm_fraction_without: float
    #: pods per node with the bonus on / off (name-sorted)
    placement_with: Dict[str, int]
    placement_without: Dict[str, int]

    @property
    def warm_gain(self) -> float:
        return self.warm_fraction_with - self.warm_fraction_without


def _warm_wave(
    config: str, count: int, nodes: int, seed: int, locality_weight: float
) -> Tuple[float, Dict[str, int]]:
    """One locality trial: seed pod plants a snapshot, wave measures.

    Returns ``(warm fraction of the wave, pods per node)``. The seed pod
    runs to completion first so exactly one node holds a snapshot before
    any wave pod is scheduled — the decision the locality bonus exists
    to exploit.
    """
    cluster = open_run(
        f"locality {config} n={count} weight={locality_weight}",
        count,
        seed=seed,
        node_count=nodes,
        locality_weight=locality_weight,
    )
    cluster.deploy_and_wait(config, 1)
    wave = cluster.deploy_and_wait(config, count)
    placement: Dict[str, int] = {name: 0 for name in sorted(cluster.nodes)}
    for pod in wave:
        placement[pod.node_name] += 1
    warm, cold = zygote_starts(cluster.containers(wave))
    total = warm + cold
    return (warm / total if total else 0.0), placement


def run_locality_ablation(
    config: str = "crun-wamr-zygote",
    count: int = 96,
    nodes: int = 4,
    seed: int = 1,
    locality_weight: float = 0.3,
) -> LocalityAblation:
    """Measure the warm-start fraction with the locality bonus on vs off.

    The default ``count`` keeps the balance penalty (count / max_pods)
    under the bonus, so a locality-aware scheduler can keep the whole
    wave on the snapshot node; the locality-blind run spreads the wave
    and pays at least one cold start per fresh node.
    """
    warm_with, place_with = _warm_wave(config, count, nodes, seed, locality_weight)
    warm_without, place_without = _warm_wave(config, count, nodes, seed, 0.0)
    return LocalityAblation(
        config=config,
        count=count,
        nodes=nodes,
        seed=seed,
        locality_weight=locality_weight,
        warm_fraction_with=warm_with,
        warm_fraction_without=warm_without,
        placement_with=place_with,
        placement_without=place_without,
    )


def render_fleet(scaling: FleetScaling) -> str:
    """Human-readable scaling table."""
    lines = [
        f"fleet scaling  (config={scaling.config}, n={scaling.count}, "
        f"seed={scaling.seed})",
        "",
        f"{'nodes':>6s}{'makespan (s)':>14s}{'pods/s':>10s}{'speedup':>10s}"
        f"{'warm':>8s}",
    ]
    for p in scaling.points:
        warm = f"{p.warm_fraction:.0%}" if p.warm_fraction is not None else "-"
        lines.append(
            f"{p.nodes:>6d}"
            f"{p.measurement.startup_seconds:>14.2f}"
            f"{p.throughput:>10.1f}"
            f"{scaling.speedup(p.nodes):>9.2f}x"
            f"{warm:>8s}"
        )
    return "\n".join(lines)


def render_locality(ablation: LocalityAblation) -> str:
    """Human-readable locality-ablation summary."""
    lines = [
        f"zygote locality ablation  (config={ablation.config}, "
        f"n={ablation.count}, nodes={ablation.nodes}, seed={ablation.seed})",
        "",
        f"{'':24s}{'locality on':>14s}{'locality off':>14s}",
        f"{'warm-start fraction':24s}{ablation.warm_fraction_with:>14.1%}"
        f"{ablation.warm_fraction_without:>14.1%}",
    ]
    for name in ablation.placement_with:
        lines.append(
            f"{'pods on ' + name:24s}{ablation.placement_with[name]:>14d}"
            f"{ablation.placement_without.get(name, 0):>14d}"
        )
    lines.append("")
    lines.append(f"warm-start gain from locality: {ablation.warm_gain:+.1%}")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_FLEETS",
    "FleetPoint",
    "FleetScaling",
    "LocalityAblation",
    "render_fleet",
    "render_locality",
    "run_fleet",
    "run_locality_ablation",
]
