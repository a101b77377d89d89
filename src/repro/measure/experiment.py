"""The §IV experiment shape: deploy N identical pods, measure, tear down.

One :class:`ExperimentRunner` call = one bar of a memory figure or one
row of a startup figure: a fresh cluster, N single-container pods of one
runtime configuration, both memory channels sampled at steady state, and
the startup makespan (pod creation → last container's first guest
instruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.engines import cache as engine_cache
from repro.errors import ReproError
from repro.k8s.cluster import Cluster, build_cluster
from repro.measure.free import FreeSampler
from repro.measure.stats import summarize, Summary
from repro.sim.memory import MIB


@dataclass(frozen=True)
class MemorySample:
    """Per-container memory through both channels, in bytes."""

    metrics_server_mean: float  # mean pod working set (metrics-server view)
    metrics_server_std: float
    free_per_container: float  # (Δused + Δbuff/cache) / N (free view)


@dataclass(frozen=True)
class NodeUsage:
    """One fleet node's share of a deployment, at steady state."""

    name: str
    pods: int
    working_set_bytes: int  # full node working set (Fig 4 channel)
    warm_starts: int  # zygote-capable containers that cloned a snapshot
    cold_starts: int  # zygote-capable containers that cold-started


@dataclass(frozen=True)
class DeploymentMeasurement:
    """Everything one deployment experiment yields."""

    config: str
    count: int
    memory: MemorySample
    startup_seconds: float  # deploy → last workload execution start
    per_pod_start: Summary  # distribution of per-pod start times
    exit_codes: Tuple[int, ...]
    ready_fraction: float  # containers whose stdout shows readiness
    #: mean simulated seconds per startup phase ("startup.pipeline",
    #: "startup.serialized", "startup.parallel", "startup.exec", ...)
    phase_means: Dict[str, float] = field(default_factory=dict)
    #: fleet size the deployment ran on (1 = the paper's testbed)
    nodes: int = 1
    #: per-node breakdown, in node-name order
    per_node: Tuple[NodeUsage, ...] = ()

    @property
    def metrics_mib(self) -> float:
        return self.memory.metrics_server_mean / MIB

    @property
    def free_mib(self) -> float:
        return self.memory.free_per_container / MIB

    @property
    def throughput(self) -> float:
        """Pods brought to first guest instruction per simulated second."""
        return self.count / self.startup_seconds if self.startup_seconds else 0.0

    @property
    def warm_fraction(self) -> Optional[float]:
        """Warm share of zygote-capable starts (None for other configs)."""
        warm = sum(u.warm_starts for u in self.per_node)
        total = warm + sum(u.cold_starts for u in self.per_node)
        return warm / total if total else None


def open_run(label: str, count: int, **cluster_args) -> Cluster:
    """Every runner's set-up: check ``count`` and the seed, open
    telemetry, build.

    With telemetry on, the run gets its own trace context named ``label``
    and cold engine caches: runs of one image share decode, zygote and
    run entries, so which guest runs capture, record or replay (and the
    series sampled from them) would otherwise depend on which run came
    first in the process, and differ at ``--jobs N``. Measurements are warmth-independent
    (``test_no_cache_recomputes``). State only: zeroing the counters
    would break the worker delta protocol.
    """
    if count < 1:
        raise ReproError(f"{label}: pod count must be at least 1, got {count}")
    seed = cluster_args.get("seed", 0)
    if seed < 0:
        raise ReproError(f"{label}: seed must be non-negative, got {seed}")
    if obs.enabled():
        engine_cache.clear_cache_state()
        obs.new_context(label)
    return build_cluster(**cluster_args)


def zygote_starts(containers: List) -> Tuple[int, int]:
    """``(warm, cold)`` starts among zygote-capable ``containers``."""
    flags = [c.facts.get("zygote_warm") for c in containers]
    return flags.count(True), flags.count(False)


class ExperimentRunner:
    """Runs deployment experiments on fresh clusters.

    Args:
        seed: determinism seed for the whole cluster.
        extra_images: additional OCI images to publish (and pre-pull) on
            every node — for experiments with non-default workloads.
    """

    def __init__(self, seed: int = 1, extra_images: Tuple = ()) -> None:
        self.seed = seed
        self.extra_images = tuple(extra_images)

    def run(
        self,
        config: str,
        count: int,
        env: Optional[Dict[str, str]] = None,
        image: Optional[str] = None,
        nodes: int = 1,
        max_pods: Optional[int] = None,
    ) -> DeploymentMeasurement:
        cluster = open_run(
            f"deploy {config} n={count}",
            count,
            seed=self.seed,
            node_count=nodes,
            max_pods=max_pods if max_pods is not None else 500,
        )
        workers = list(cluster.nodes.values())
        for extra in self.extra_images:
            for worker in workers:
                worker.env.images.push(extra)
                worker.env.images.pull(extra.reference)
        samplers = [FreeSampler(w.env.memory) for w in workers]
        for sampler in samplers:
            sampler.mark_baseline()
        t0 = cluster.kernel.now

        pods = cluster.deploy_and_wait(config, count, env=env, image=image)
        if cluster.monitor is not None:
            # Close the monitoring window: one final scrape at steady
            # state so gauges reflect convergence and alerts can resolve.
            cluster.monitor.sample_now()

        # Startup probe (paper §IV-E): measurement starts at deployment and
        # ends when the sample application starts executing in the last pod.
        starts = [p.exec_started_at - t0 for p in pods if p.exec_started_at is not None]
        makespan = max(starts)

        # Memory channels at steady state: pod working sets concatenate
        # across the fleet; the free(1) deltas sum (each node has its own
        # baseline, so daemon/kernel baselines cancel per node).
        working_sets = [
            float(w)
            for worker in workers
            for w in worker.metrics.pod_working_sets().values()
        ]
        ws_summary = summarize(working_sets)
        free_total = sum(s.delta().footprint_bytes for s in samplers)

        containers = cluster.containers(pods)
        ready = sum(1 for c in containers if b"ready" in c.stdout)
        if len(workers) == 1:
            phase_means = workers[0].env.tracer.phase_means(config=config)
        else:
            # Exact fleet-wide means: merge per-node (sum, count) pairs.
            sums: Dict[str, float] = {}
            counts: Dict[str, int] = {}
            for worker in workers:
                for cat, (total, n) in worker.env.tracer.phase_stats(
                    config=config
                ).items():
                    sums[cat] = sums.get(cat, 0.0) + total
                    counts[cat] = counts.get(cat, 0) + n
            phase_means = {c: sums[c] / counts[c] for c in sums}
        per_node = []
        for worker in workers:
            mine = [p for p in pods if p.node_name == worker.name]
            warm, cold = zygote_starts(cluster.containers(mine))
            per_node.append(
                NodeUsage(
                    name=worker.name,
                    pods=len(mine),
                    working_set_bytes=worker.env.memory.node_working_set(),
                    warm_starts=warm,
                    cold_starts=cold,
                )
            )
        measurement = DeploymentMeasurement(
            config=config,
            count=count,
            memory=MemorySample(
                metrics_server_mean=ws_summary.mean,
                metrics_server_std=ws_summary.std,
                free_per_container=free_total / count,
            ),
            startup_seconds=makespan,
            per_pod_start=summarize(starts),
            exit_codes=tuple(c.exit_code or 0 for c in containers),
            ready_fraction=ready / len(containers),
            phase_means=phase_means,
            nodes=len(workers),
            per_node=tuple(per_node),
        )
        cluster.teardown(pods)
        return measurement


#: densities used across the paper's memory figures
DENSITIES = (10, 100, 400)


def measure(config: str, count: int, seed: int = 1) -> DeploymentMeasurement:
    """One deployment measurement, fetched through the campaign engine.

    Served from the in-process memo or the persistent measurement cache
    (:mod:`repro.measure.cache`) when either holds it, as the figure
    generators' cells are. Set ``REPRO_MEASURE_CACHE=off`` to skip the
    on-disk cache."""
    from repro.measure.series import Cell, execute_cells  # series imports this module

    cell = Cell(config, count, seed)
    return execute_cells([cell])[cell]
