"""Recovery experiment: deployments that converge under injected faults.

The robustness analogue of :mod:`repro.measure.experiment`: deploy N pods
through the DeploymentController while a seeded
:class:`~repro.sim.faults.FaultPlan` fails pulls/compiles/RPCs along the
way, and measure how the self-healing control plane converges — time to
all-Running, retry counts, backoff phases (from ``sim.trace``), evictions,
and replacement rounds. Everything is deterministic per seed: two runs
with the same (seed, plan) produce identical timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import KubernetesError
from repro.k8s.objects import PodPhase
from repro.measure.experiment import open_run
from repro.sim.faults import FaultPlan, transient_plan


@dataclass(frozen=True)
class BackoffEvent:
    """One backoff period one pod waited out (from the trace layer)."""

    pod_uid: str
    reason: str
    attempt: int
    start: float
    duration: float


@dataclass(frozen=True)
class RecoveryMeasurement:
    """Everything one recovery experiment yields."""

    config: str
    count: int
    seed: int
    converged: bool
    reconcile_rounds: int
    #: deploy start → last replica's Running transition
    time_to_all_running: float
    #: pods that ended FAILED and were never replaced (0 when converged)
    failed_pods: int
    #: pods evicted for memory pressure over the whole run
    evicted_pods: int
    #: kubelet sync retries summed over the final replica set
    restarts_total: int
    restarts_max: int
    #: every backoff period, in simulated-time order
    backoff_events: Tuple[BackoffEvent, ...]
    #: injected-fault firings per point value (e.g. {"image.pull": 31})
    faults_by_point: Dict[str, int]
    #: determinism fingerprint: (pod name, running_at) of the replica set
    timeline: Tuple[Tuple[str, float], ...]

    @property
    def backoff_total_s(self) -> float:
        return sum(e.duration for e in self.backoff_events)

    def backoff_reasons(self) -> Dict[str, int]:
        reasons: Dict[str, int] = {}
        for event in self.backoff_events:
            reasons[event.reason] = reasons.get(event.reason, 0) + 1
        return reasons


def run_recovery(
    config: str = "crun-wamr",
    count: int = 100,
    seed: int = 1,
    plan: Optional[FaultPlan] = None,
    max_rounds: int = 10,
) -> RecoveryMeasurement:
    """Deploy ``count`` pods of ``config`` under a fault plan; converge.

    ``plan`` defaults to :func:`~repro.sim.faults.transient_plan` seeded
    with ``seed`` (≥30% transient pull + compile failures). Reconciling
    up to ``max_rounds`` times (:meth:`~repro.k8s.cluster.Cluster.converge`)
    lets the DeploymentController replace pods that failed permanently
    or were evicted.
    """
    plan = plan if plan is not None else transient_plan(seed=seed)
    cluster = open_run(
        f"recover {config} n={count}", count, seed=seed, fault_plan=plan
    )
    deployment_name = f"recover-{config}"
    t0 = cluster.kernel.now
    rounds, status, replicas = cluster.converge(
        deployment_name, cluster.pod_template(config), count, max_rounds
    )
    running = [p for p in replicas if p.phase is PodPhase.RUNNING]
    if status["ready"] >= count and len(running) != count:
        raise KubernetesError("recovery bookkeeping drift: ready != running")

    tracer = cluster.node.env.tracer
    tracer.record(
        "recovery.converge",
        deployment_name,
        t0,
        cluster.kernel.now,
        config=config,
        converged=str(status["ready"] >= count),
        rounds=str(rounds),
    )
    backoffs = tuple(
        sorted(
            (
                BackoffEvent(
                    pod_uid=span.name,
                    reason=span.attr("reason") or "",
                    attempt=int(span.attr("attempt") or 0),
                    start=span.start,
                    duration=span.duration,
                )
                for span in tracer.by_category("recovery.backoff")
            ),
            key=lambda e: (e.start, e.pod_uid, e.attempt),
        )
    )
    evictions = tracer.by_category("recovery.eviction")

    return RecoveryMeasurement(
        config=config,
        count=count,
        seed=seed,
        converged=status["ready"] >= count,
        reconcile_rounds=rounds,
        time_to_all_running=(
            max((p.running_at - t0 for p in running), default=0.0)
        ),
        failed_pods=sum(
            1 for p in cluster.api.pods.values() if p.phase is PodPhase.FAILED
        ),
        evicted_pods=len(evictions),
        restarts_total=sum(p.restart_count for p in replicas),
        restarts_max=max((p.restart_count for p in replicas), default=0),
        backoff_events=backoffs,
        faults_by_point=plan.summary(),
        timeline=tuple(
            sorted((p.name, p.running_at) for p in running)
        ),
    )


def render_recovery(m: RecoveryMeasurement) -> str:
    """Plain-text report, in the style of ``repro.measure.report``."""
    lines = [
        f"recovery experiment — {m.config}, {m.count} pods, seed {m.seed}",
        f"  converged:            {'yes' if m.converged else 'NO'}"
        f" ({m.reconcile_rounds} reconcile round(s))",
        f"  time to all Running:  {m.time_to_all_running:.2f} s",
        f"  faults injected:      "
        + (
            ", ".join(f"{k}={v}" for k, v in m.faults_by_point.items())
            or "none"
        ),
        f"  kubelet retries:      {m.restarts_total} total,"
        f" max {m.restarts_max}/pod",
        f"  backoff periods:      {len(m.backoff_events)}"
        f" ({m.backoff_total_s:.2f} s waited)"
        + (
            "  [" + ", ".join(f"{k}={v}" for k, v in sorted(m.backoff_reasons().items())) + "]"
            if m.backoff_events
            else ""
        ),
        f"  evicted pods:         {m.evicted_pods}",
        f"  permanently failed:   {m.failed_pods}",
    ]
    return "\n".join(lines)
