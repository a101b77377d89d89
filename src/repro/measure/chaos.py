"""Chaos campaign: full-lifecycle fault injection with invariant checks.

The robustness capstone of the measurement suite: deploy N pods through
the DeploymentController while a seeded
:func:`~repro.sim.faults.full_lifecycle_plan` fires faults along *every*
lifecycle stage — startup (pulls, compiles, instantiation), runtime
(guest traps, fuel exhaustion, WASI syscall errors), the fast paths
(zygote snapshot corruption, engine-cache corruption), the observers
(metrics-scrape loss), and the health probes — with kubelet
liveness/readiness probing and admission load-shedding enabled.

Convergence is not eyeballed; it is asserted as **data-driven
invariants** (:class:`InvariantCheck`): every pod ends Ready or was
terminally backed off and replaced, the memory accountant's ledger
verifies against the reference, teardown leaks no sandboxes, processes,
or working-set bytes, and the fault/recovery counter families in the
``repro.obs`` registry balance against the plan's fired log and the
trace's backoff spans. Everything is deterministic per seed — the
``timeline`` fingerprint is identical across repeated runs.

Recovery-time percentiles (pod creation → Running) come from the
existing histogram stack: observations land in a private
:class:`~repro.obs.registry.MetricsRegistry` histogram and quantiles are
interpolated from its cumulative buckets
(:func:`repro.measure.stats.histogram_quantile`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro import obs
from repro.engines import cache as engine_cache
from repro.errors import SimulationError
from repro.k8s.kubelet import ProbeConfig
from repro.k8s.objects import PodPhase
from repro.measure.experiment import open_run
from repro.measure.stats import histogram_quantile
from repro.obs.registry import MetricsRegistry
from repro.sim.faults import FaultPoint, full_lifecycle_plan

#: recovery-time buckets (seconds): pod creation → Running under faults.
#: Wide tail — a pod can walk several capped 10 s backoffs before landing.
RECOVERY_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)

#: the percentiles BENCH_chaos.json reports
PERCENTILES = (0.50, 0.90, 0.99)


@dataclass(frozen=True)
class InvariantCheck:
    """One convergence invariant, evaluated from campaign data."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ChaosMeasurement:
    """Everything one chaos campaign yields."""

    config: str
    count: int
    seed: int
    rate: float
    converged: bool
    reconcile_rounds: int
    ready_pods: int
    #: pods that ended FAILED across the whole run (terminal backoff;
    #: each was disowned and replaced by the controller)
    terminal_pods: int
    restarts_total: int
    restarts_max: int
    #: injected-fault firings per point value
    faults_by_point: Dict[str, int]
    #: recovery-time percentiles (pod creation → Running), seconds
    recovery_percentiles: Dict[str, float]
    #: recovery-time histogram raw material (bucket upper → count)
    recovery_histogram: Tuple[Tuple[float, int], ...]
    #: cold fallbacks taken for quarantined zygote digests
    zygote_fallbacks: int
    #: corrupt cache entries invalidated and rebuilt, by layer
    cache_rebuilds: Dict[str, int]
    #: metrics-server scrapes lost to injection (stale data served)
    scrapes_lost: int
    #: pods restarted by probe thresholds, by probe
    probe_restarts: Dict[str, int]
    #: admissions refused under memory pressure
    admissions_shed: int
    #: the data-driven convergence invariants
    invariants: Tuple[InvariantCheck, ...]
    #: determinism fingerprint: (pod name, running_at) of the replica set
    timeline: Tuple[Tuple[str, float], ...]

    def all_hold(self) -> bool:
        return all(check.passed for check in self.invariants)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload for BENCH_chaos.json."""
        return {
            "config": self.config,
            "count": self.count,
            "seed": self.seed,
            "rate": self.rate,
            "converged": self.converged,
            "reconcile_rounds": self.reconcile_rounds,
            "ready_pods": self.ready_pods,
            "terminal_pods": self.terminal_pods,
            "restarts_total": self.restarts_total,
            "restarts_max": self.restarts_max,
            "faults_by_point": dict(self.faults_by_point),
            "recovery_percentiles": dict(self.recovery_percentiles),
            "recovery_histogram": [list(b) for b in self.recovery_histogram],
            "zygote_fallbacks": self.zygote_fallbacks,
            "cache_rebuilds": dict(self.cache_rebuilds),
            "scrapes_lost": self.scrapes_lost,
            "probe_restarts": dict(self.probe_restarts),
            "admissions_shed": self.admissions_shed,
            "invariants": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.invariants
            ],
            "timeline_fingerprint": _fingerprint(self.timeline),
        }


def _fingerprint(timeline: Tuple[Tuple[str, float], ...]) -> str:
    """Stable short digest of the (pod, running_at) timeline."""
    import hashlib

    h = hashlib.sha256()
    for name, at in timeline:
        h.update(f"{name}@{at:.9f};".encode())
    return h.hexdigest()[:16]


def _counter_total(name: str) -> float:
    """Sum of one counter family's series in the default registry."""
    family = obs.default_registry().get(name)
    if family is None:
        return 0.0
    return sum(child.value for _, child in family.samples())


def _counter_by_label(name: str, index: int = 0) -> Dict[str, float]:
    family = obs.default_registry().get(name)
    if family is None:
        return {}
    out: Dict[str, float] = {}
    for labels, child in family.samples():
        key = labels[index] if labels else ""
        out[key] = out.get(key, 0.0) + child.value
    return out


def run_chaos(
    config: str = "crun-wamr",
    count: int = 400,
    seed: int = 1,
    rate: float = 0.25,
    max_rounds: int = 15,
) -> ChaosMeasurement:
    """Run the full-lifecycle chaos campaign; returns the measurement.

    The plan is :func:`full_lifecycle_plan` at ``rate`` per attempt
    (finite budgets guarantee convergence once spent); probes and
    admission shedding are on. A run that does not converge within
    ``max_rounds`` returns with its ``converged`` invariant failing.
    Telemetry is forced on for the duration — the counter-balance
    invariants read the registry functionally — and restored afterwards.
    """
    was_enabled = obs.enabled()
    obs.set_enabled(True)
    try:
        plan = full_lifecycle_plan(seed=seed, rate=rate)
        cluster = open_run(
            f"chaos {config} n={count} seed={seed}",
            count,
            seed=seed,
            fault_plan=plan,
            probes=ProbeConfig(enabled=True),
            admission_shedding=True,
        )
        node = cluster.node
        base_backoffs = _counter_total("repro_kubelet_backoffs_total")
        base_fired = _counter_total("repro_faults_fired_total")
        base_fallbacks = _counter_total("repro_zygote_fallbacks_total")
        base_lost = _counter_total("repro_metrics_server_scrapes_lost_total")
        base_shed = _counter_total("repro_kubelet_admission_rejections_total")
        base_probe_restarts = _counter_by_label(
            "repro_kubelet_probe_restarts_total"
        )
        base_fired_log = len(plan.fired)
        base_terminal = _counter_by_label("repro_kubelet_pod_syncs_total").get(
            "failed", 0.0
        )
        base_procs = node.env.memory.process_count()
        base_working_set = node.env.memory.node_working_set()

        deployment_name = f"chaos-{config}"
        rounds, status, replicas = cluster.converge(
            deployment_name, cluster.pod_template(config), count, max_rounds
        )
        running = [p for p in replicas if p.phase is PodPhase.RUNNING]
        ready = [p for p in running if p.ready]
        terminal_pods = int(
            _counter_by_label("repro_kubelet_pod_syncs_total").get("failed", 0.0)
            - base_terminal
        )
        converged = status["ready"] >= count

        # -- recovery-time percentiles from the histogram stack ----------
        reg = MetricsRegistry()
        hist = reg.histogram(
            "repro_chaos_recovery_seconds",
            "pod creation to Running under the chaos plan",
            buckets=RECOVERY_BUCKETS,
        )
        for pod in running:
            if pod.running_at is not None:
                hist.observe(pod.running_at - pod.created_at)
        child = hist.labels()
        # No pod reached Running: no percentile exists, and the run's
        # convergence invariants report the failure.
        percentiles = {
            f"p{int(q * 100)}": histogram_quantile(
                hist.buckets, child.bucket_counts, child.count, q
            )
            for q in PERCENTILES
            if child.count
        }
        histogram_pairs = tuple(
            zip(hist.buckets, tuple(child.bucket_counts))
        )

        backoff_spans = node.env.tracer.by_category("recovery.backoff")
        timeline = tuple(sorted((p.name, p.running_at) for p in running))

        # -- invariants ---------------------------------------------------
        checks = []
        checks.append(
            InvariantCheck(
                "converged",
                converged,
                f"{status['ready']}/{count} ready after {rounds} round(s)",
            )
        )
        stragglers = [
            p for p in replicas if not (p.phase is PodPhase.RUNNING and p.ready)
        ]
        checks.append(
            InvariantCheck(
                "all_ready_or_terminal",
                not stragglers,
                "every owned pod Running+ready; terminal failures were "
                f"disowned and replaced ({len(stragglers)} straggler(s))",
            )
        )
        try:
            for n in cluster.nodes.values():
                n.env.memory.verify_accounting()
            checks.append(
                InvariantCheck(
                    "accounting_verifies",
                    True,
                    "ledger matches the reference accountant on every node",
                )
            )
        except SimulationError as exc:
            checks.append(InvariantCheck("accounting_verifies", False, str(exc)))

        d_backoffs = _counter_total("repro_kubelet_backoffs_total") - base_backoffs
        checks.append(
            InvariantCheck(
                "backoff_counter_balances",
                int(d_backoffs) == len(backoff_spans),
                f"counter Δ{int(d_backoffs)} == {len(backoff_spans)} "
                "recovery.backoff spans",
            )
        )
        d_fired = _counter_total("repro_faults_fired_total") - base_fired
        fired_log = len(plan.fired) - base_fired_log
        checks.append(
            InvariantCheck(
                "fault_counter_balances",
                int(d_fired) == fired_log,
                f"repro_faults_fired_total Δ{int(d_fired)} == "
                f"{fired_log} entries in the plan's fired log",
            )
        )
        d_fallbacks = (
            _counter_total("repro_zygote_fallbacks_total") - base_fallbacks
        )
        corrupt_fired = plan.count(FaultPoint.ZYGOTE_CORRUPT)
        checks.append(
            InvariantCheck(
                "zygote_fallbacks_balance",
                int(d_fallbacks) == corrupt_fired,
                f"fallback counter Δ{int(d_fallbacks)} == "
                f"{corrupt_fired} zygote.corrupt firings",
            )
        )

        # -- teardown and leak checks ------------------------------------
        cluster.delete_deployment(deployment_name)
        leaked_sandboxes = sum(
            len(n.containerd.pods) for n in cluster.nodes.values()
        )
        checks.append(
            InvariantCheck(
                "no_leaked_sandboxes",
                leaked_sandboxes == 0,
                f"{leaked_sandboxes} sandbox(es) left in containerd after "
                "teardown",
            )
        )
        leaked_procs = node.env.memory.process_count() - base_procs
        ws_delta = node.env.memory.node_working_set() - base_working_set
        checks.append(
            InvariantCheck(
                "no_leaked_memory",
                leaked_procs == 0 and ws_delta == 0,
                f"process Δ{leaked_procs}, working-set Δ{ws_delta} B vs "
                "post-build baseline",
            )
        )

        return ChaosMeasurement(
            config=config,
            count=count,
            seed=seed,
            rate=rate,
            converged=converged,
            reconcile_rounds=rounds,
            ready_pods=len(ready),
            terminal_pods=terminal_pods,
            restarts_total=sum(p.restart_count for p in replicas),
            restarts_max=max((p.restart_count for p in replicas), default=0),
            faults_by_point=plan.summary(),
            recovery_percentiles=percentiles,
            recovery_histogram=histogram_pairs,
            zygote_fallbacks=int(d_fallbacks),
            cache_rebuilds=_rebuilds_by_layer(),
            scrapes_lost=int(
                _counter_total("repro_metrics_server_scrapes_lost_total")
                - base_lost
            ),
            probe_restarts={
                k: int(v - base_probe_restarts.get(k, 0.0))
                for k, v in _counter_by_label(
                    "repro_kubelet_probe_restarts_total"
                ).items()
                if v - base_probe_restarts.get(k, 0.0) > 0
            },
            admissions_shed=int(
                _counter_total("repro_kubelet_admission_rejections_total")
                - base_shed
            ),
            invariants=tuple(checks),
            timeline=timeline,
        )
    finally:
        obs.set_enabled(was_enabled)


def _rebuilds_by_layer() -> Dict[str, int]:
    out: Dict[str, int] = {}
    for (layer, _digest), n in engine_cache.cache_rebuilds().items():
        out[layer] = out.get(layer, 0) + n
    return out


def render_chaos(m: ChaosMeasurement) -> str:
    """Plain-text report, in the style of ``repro.measure.report``."""
    lines = [
        f"chaos campaign — {m.config}, {m.count} pods, seed {m.seed}, "
        f"rate {m.rate:.0%}",
        f"  converged:            {'yes' if m.converged else 'NO'}"
        f" ({m.reconcile_rounds} reconcile round(s), {m.ready_pods} ready)",
        f"  faults injected:      "
        + (
            ", ".join(f"{k}={v}" for k, v in m.faults_by_point.items())
            or "none"
        ),
        f"  kubelet retries:      {m.restarts_total} total,"
        f" max {m.restarts_max}/pod",
        f"  recovery time:        "
        + (
            ", ".join(
                f"{name}={value:.2f}s"
                for name, value in m.recovery_percentiles.items()
            )
            or "none"
        ),
        f"  zygote fallbacks:     {m.zygote_fallbacks}",
        f"  cache rebuilds:       "
        + (
            ", ".join(f"{k}={v}" for k, v in sorted(m.cache_rebuilds.items()))
            or "none"
        ),
        f"  scrapes lost:         {m.scrapes_lost}",
        f"  probe restarts:       "
        + (
            ", ".join(f"{k}={v}" for k, v in sorted(m.probe_restarts.items()))
            or "none"
        ),
        f"  admissions shed:      {m.admissions_shed}",
        "  invariants:",
    ]
    for check in m.invariants:
        mark = "ok " if check.passed else "FAIL"
        lines.append(f"    [{mark}] {check.name}: {check.detail}")
    return "\n".join(lines)
