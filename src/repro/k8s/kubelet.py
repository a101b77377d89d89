"""Kubelet: realizes scheduled pods on its node through its containerd.

The pod sync activity models the control-plane pipeline ahead of container
creation (watch delivery, sync-loop pickup, sandbox + CNI setup) as the
runtime config's ``pipeline_s`` latency with small jitter, then makes the
CRI calls on the node's containerd itself: RunPodSandbox, then
CreateContainer/StartContainer per container, each RPC a ``cri.rpc``
fault point.

Pod sync is **self-healing**: a failed attempt tears the sandbox down
(idempotently), classifies the failure, and — under the pod's restart
policy — retries after a capped exponential backoff with seeded jitter
(CrashLoopBackOff / ImagePullBackOff). Memory pressure is handled by
evicting the newest running pods instead of letting the node OOM; only
permanent failures (or an exhausted retry budget) leave a pod FAILED.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.container.highlevel.containerd import Containerd
from repro.container.lifecycle import Container
from repro.container.nodeenv import NodeEnv
from repro.container.startup import startup_profile
from repro.errors import (
    AdmissionRejected,
    ContainerError,
    EngineError,
    FaultInjected,
    KubernetesError,
    OutOfMemory,
)
from repro.k8s.apiserver import APIServer
from repro.k8s.backoff import BackoffPolicy, BackoffTracker
from repro.k8s.objects import (
    Pod,
    PodPhase,
    REASON_CRASH_LOOP_BACKOFF,
    REASON_ERROR,
    REASON_EVICTED,
    REASON_IMAGE_PULL_BACKOFF,
    REASON_MEMORY_PRESSURE,
    REASON_OOM,
    RestartPolicy,
)
from repro.sim.faults import FaultPoint
from repro.sim.kernel import Timeout

#: Buckets for admission-to-ready sync latency, in *simulated* seconds:
#: sub-second warm starts through multi-minute crash-loop recoveries.
_SYNC_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


@dataclass(frozen=True)
class ProbeConfig:
    """Liveness/readiness probe schedule for one kubelet (opt-in).

    After a pod reaches Running, the kubelet probes it ``rounds`` times
    at ``interval_s``. ``liveness_failure_threshold`` *consecutive*
    liveness failures restart the pod through the normal crash-loop
    machinery; readiness failures only flip ``Pod.ready`` (the pod keeps
    running but drops out of the deployment's ready count) until a
    bounded re-probe loop either recovers it or — after
    ``readiness_recovery_rounds`` more failures — restarts it too.
    """

    enabled: bool = False
    interval_s: float = 0.5
    rounds: int = 3
    liveness_failure_threshold: int = 2
    readiness_failure_threshold: int = 2
    readiness_recovery_rounds: int = 3


@dataclass
class Kubelet:
    """One kubelet per worker node."""

    node_name: str
    api: APIServer
    containerd: Containerd
    env: NodeEnv
    #: pod uid → realized containers
    pod_containers: Dict[str, List[Container]] = field(default_factory=dict)
    #: retry schedule shape for CrashLoopBackOff / ImagePullBackOff
    backoff_policy: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: hard cap on sync retries per pod (bounds convergence time)
    max_sync_retries: int = 10
    #: evict when `available` drops below this fraction of node memory
    eviction_threshold_frac: float = 0.01
    #: post-Running health probing (off by default: adds probe Timeouts)
    probes: ProbeConfig = field(default_factory=ProbeConfig)
    #: refuse to admit new pods while the node is past the eviction
    #: threshold (load shedding) instead of evicting running ones
    admission_shedding: bool = False
    _backoffs: Dict[str, BackoffTracker] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._m_syncs = obs.counter(
            "repro_kubelet_pod_syncs_total",
            "pod sync activities finished, by outcome",
            ("result",),
        )
        self._m_backoffs = obs.counter(
            "repro_kubelet_backoffs_total",
            "backoff periods waited out, by reason",
            ("reason",),
        )
        self._m_evictions = obs.counter(
            "repro_kubelet_evictions_total",
            "pods evicted from a node, by node and reason",
            ("node", "reason"),
        )
        self._m_zygote_starts = obs.counter(
            "repro_kubelet_zygote_starts_total",
            "zygote-capable container starts, by node and warm/cold mode",
            ("node", "mode"),
        )
        self._m_probes = obs.counter(
            "repro_kubelet_probe_checks_total",
            "liveness/readiness probe checks, by probe and outcome",
            ("probe", "outcome"),
        )
        self._m_probe_restarts = obs.counter(
            "repro_kubelet_probe_restarts_total",
            "pods restarted after crossing a probe failure threshold",
            ("probe",),
        )
        self._m_admission_rejections = obs.counter(
            "repro_kubelet_admission_rejections_total",
            "pod admissions refused under node memory pressure (shedding)",
        )
        self._m_sync_seconds = obs.histogram(
            "repro_kubelet_pod_sync_seconds",
            "admission-to-ready pod sync latency (simulated seconds)",
            buckets=_SYNC_BUCKETS,
        )

    # -- pod sync (self-healing activity) -----------------------------------

    def sync_pod(self, pod: Pod):
        """Activity: bring one bound pod to Running. Returns the pod.

        Retries transient failures under the pod's restart policy; the
        no-failure path is event-for-event identical to a single attempt.
        """
        if pod.node_name != self.node_name:
            raise KubernetesError(
                f"pod {pod.name} bound to {pod.node_name}, not {self.node_name}"
            )
        handler = self.api.resolve_handler(pod)
        if handler is None:
            raise KubernetesError(
                f"pod {pod.name}: no RuntimeClass; this reproduction requires "
                "an explicit runtime configuration per pod"
            )
        profile = startup_profile(handler)
        t_admit = self.env.kernel.now

        while True:
            # The pod may have been evicted or deleted while backing off.
            if pod.uid not in self.api.pods or pod.phase is PodPhase.FAILED:
                self._m_syncs.labels("abandoned").inc()
                return pod
            try:
                yield from self._sync_attempt(pod, handler, profile)
                if self.probes.enabled:
                    yield from self._probe_window(pod)
                self._backoffs.pop(pod.uid, None)
                self._m_syncs.labels("ok").inc()
                # Zygote configs tag the span warm/cold; other configs'
                # spans carry exactly the attributes they always did.
                extra = {}
                realized = self.pod_containers.get(pod.uid, [])
                if any("zygote_warm" in c.facts for c in realized):
                    all_warm = all(c.facts.get("zygote_warm") for c in realized)
                    extra["zygote"] = "warm" if all_warm else "cold"
                    for c in realized:
                        if "zygote_warm" in c.facts:
                            mode = "warm" if c.facts["zygote_warm"] else "cold"
                            self._m_zygote_starts.labels(
                                self.node_name, mode
                            ).inc()
                self.env.tracer.record(
                    "pod.sync",
                    pod.uid,
                    t_admit,
                    self.env.kernel.now,
                    config=handler,
                    attempts=str(pod.restart_count + 1),
                    **extra,
                )
                self._m_sync_seconds.observe(self.env.kernel.now - t_admit)
                return pod
            except (ContainerError, EngineError, OutOfMemory) as exc:
                self._cleanup_attempt(pod)
                reason = self._failure_action(pod, exc)
                if reason is None:
                    self._m_syncs.labels("failed").inc()
                    self.api.set_phase(
                        pod,
                        PodPhase.FAILED,
                        message=str(exc),
                        reason=self._terminal_reason(exc),
                    )
                    return pod
                yield from self._backoff(pod, handler, reason, exc)

    def _sync_attempt(self, pod: Pod, handler: str, profile):
        """One full sync attempt; raises on any failure along the path."""
        # Control-plane pipeline: watch delivery → sync loop → sandbox/CNI.
        t0 = self.env.kernel.now
        delay = profile.pipeline_s + self.env.jitter(
            f"pipeline/{pod.uid}", profile.jitter_s
        )
        yield Timeout(delay)
        self.env.tracer.record(
            "startup.pipeline", pod.uid, t0, self.env.kernel.now, config=handler
        )

        if self.admission_shedding and self.under_memory_pressure():
            # Load shedding: refuse this admission rather than evicting
            # running pods to make room. The pod backs off under
            # MemoryPressure and retries once the node drains.
            self._m_admission_rejections.inc()
            raise AdmissionRejected(
                f"node {self.node_name} past the eviction threshold: "
                f"admission of pod {pod.name} shed"
            )
        self._relieve_memory_pressure(exclude_uid=pod.uid)

        self.env.inject(FaultPoint.CRI_RPC, f"RunPodSandbox/{pod.uid}")
        self.containerd.run_pod_sandbox(pod.uid)

        containers: List[Container] = []
        for cspec in pod.spec.containers:
            self.env.inject(FaultPoint.CRI_RPC, f"CreateContainer/{pod.uid}")
            container = yield self.containerd.create_container(
                pod.uid,
                handler,
                cspec.image,
                command=cspec.command,
                env_vars=cspec.env,
            )
            containers.append(container)

        self.pod_containers[pod.uid] = containers
        pod.exec_started_at = max(
            (c.exec_started_at for c in containers if c.exec_started_at is not None),
            default=self.env.kernel.now,
        )
        pod.ready = True
        self.api.set_phase(pod, PodPhase.RUNNING)

    def _probe_window(self, pod: Pod):
        """Activity: probe a just-Running pod per :class:`ProbeConfig`.

        Probe outcomes come from the node's fault plan (``probe.liveness``
        / ``probe.readiness`` points); with no plan armed every check
        passes. Crossing the liveness threshold — or exhausting the
        readiness recovery loop — raises the probe fault as a transient
        :class:`FaultInjected`, which the sync loop's normal failure path
        turns into cleanup + CrashLoopBackOff + retry: a wedged Running
        pod transitions back through restarting like any crashed one.
        """
        cfg = self.probes
        plan = self.env.faults
        liveness_fails = 0
        readiness_fails = 0
        for _ in range(cfg.rounds):
            yield Timeout(cfg.interval_s)
            if pod.uid not in self.api.pods or pod.phase is not PodPhase.RUNNING:
                return
            fault = (
                plan.check(FaultPoint.PROBE_LIVENESS, pod.uid)
                if plan is not None
                else None
            )
            if fault is not None:
                liveness_fails += 1
                self._m_probes.labels("liveness", "fail").inc()
                if liveness_fails >= cfg.liveness_failure_threshold:
                    self._m_probe_restarts.labels("liveness").inc()
                    raise FaultInjected(
                        f"liveness probe failed {liveness_fails}x "
                        f"(threshold {cfg.liveness_failure_threshold}): "
                        f"restarting pod {pod.name}",
                        point=FaultPoint.PROBE_LIVENESS.value,
                        transient=True,
                        key=pod.uid,
                        occurrence=fault.occurrence,
                    )
            else:
                liveness_fails = 0
                self._m_probes.labels("liveness", "ok").inc()
            fault = (
                plan.check(FaultPoint.PROBE_READINESS, pod.uid)
                if plan is not None
                else None
            )
            if fault is not None:
                readiness_fails += 1
                self._m_probes.labels("readiness", "fail").inc()
                if readiness_fails >= cfg.readiness_failure_threshold:
                    pod.ready = False
            else:
                readiness_fails = 0
                pod.ready = True
                self._m_probes.labels("readiness", "ok").inc()
        if pod.ready:
            return
        # Bounded recovery loop for a not-ready pod: either a later probe
        # passes (ready again) or the pod is restarted — never parked
        # not-ready forever, which would wedge deployment convergence.
        for _ in range(cfg.readiness_recovery_rounds):
            yield Timeout(cfg.interval_s)
            if pod.uid not in self.api.pods or pod.phase is not PodPhase.RUNNING:
                return
            fault = (
                plan.check(FaultPoint.PROBE_READINESS, pod.uid)
                if plan is not None
                else None
            )
            if fault is None:
                pod.ready = True
                self._m_probes.labels("readiness", "ok").inc()
                return
            self._m_probes.labels("readiness", "fail").inc()
        self._m_probe_restarts.labels("readiness").inc()
        raise FaultInjected(
            f"readiness probe failed through the recovery window: "
            f"restarting pod {pod.name}",
            point=FaultPoint.PROBE_READINESS.value,
            transient=True,
            key=pod.uid,
        )

    def _cleanup_attempt(self, pod: Pod) -> None:
        """Release whatever a failed attempt left on the node (idempotent)."""
        self.containerd.remove_pod_sandbox(pod.uid)
        self.pod_containers.pop(pod.uid, None)

    # -- failure classification ---------------------------------------------

    def _failure_action(self, pod: Pod, exc: Exception) -> Optional[str]:
        """Decide retry (returns the waiting reason) or fail (None).

        * transient image-pull faults retry regardless of restart policy
          (the kubelet always retries pulls) → ImagePullBackOff;
        * other transient faults retry unless restartPolicy=Never
          → CrashLoopBackOff;
        * memory exhaustion evicts the newest running pod and retries
          → MemoryPressure; with nothing left to evict it is terminal;
        * everything else is deterministic in this simulation (a bad
          module traps on every attempt) and fails the pod immediately.
        """
        if pod.restart_count >= self.max_sync_retries:
            return None
        if isinstance(exc, AdmissionRejected):
            return REASON_MEMORY_PRESSURE
        if isinstance(exc, OutOfMemory):
            victim = self._newest_running_pod(exclude_uid=pod.uid)
            if victim is None:
                return None
            self.evict_pod(victim)
            return REASON_MEMORY_PRESSURE
        if isinstance(exc, FaultInjected) and exc.transient:
            if exc.point == FaultPoint.IMAGE_PULL.value:
                return REASON_IMAGE_PULL_BACKOFF
            if pod.spec.restart_policy is RestartPolicy.NEVER:
                return None
            return REASON_CRASH_LOOP_BACKOFF
        return None

    @staticmethod
    def _terminal_reason(exc: Exception) -> str:
        if isinstance(exc, OutOfMemory):
            return REASON_OOM
        return REASON_ERROR

    def _backoff(self, pod: Pod, handler: str, reason: str, exc: Exception):
        """Wait out one backoff period, recording state and a trace span."""
        tracker = self._backoffs.get(pod.uid)
        if tracker is None:
            tracker = BackoffTracker(self.backoff_policy, self.env.rng, pod.uid)
            self._backoffs[pod.uid] = tracker
        delay = tracker.next_delay()
        self._m_backoffs.labels(reason).inc()
        pod.restart_count += 1
        t0 = self.env.kernel.now
        pod.backoff_until = t0 + delay
        self.api.set_phase(pod, PodPhase.PENDING, message=str(exc), reason=reason)
        yield Timeout(delay)
        pod.backoff_until = None
        self.env.tracer.record(
            "recovery.backoff",
            pod.uid,
            t0,
            self.env.kernel.now,
            config=handler,
            reason=reason,
            attempt=str(pod.restart_count),
        )

    # -- memory-pressure eviction -------------------------------------------

    def under_memory_pressure(self) -> bool:
        report = self.env.memory.free_report()
        return report.available < self.eviction_threshold_frac * report.total

    def _newest_running_pod(self, exclude_uid: Optional[str] = None) -> Optional[Pod]:
        """Newest Running pod on this node (eviction order: newest first)."""
        candidates = [
            pod
            for uid in self.pod_containers
            if (pod := self.api.pods.get(uid)) is not None
            and uid != exclude_uid
            and pod.phase is PodPhase.RUNNING
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda p: (p.created_at, p.uid))

    def evict_pod(
        self, pod: Pod, message: str = "", reason: str = REASON_EVICTED
    ) -> None:
        """Eviction: free the pod's resources, mark it FAILED with ``reason``.

        The pod object stays in the API server (like a real evicted pod)
        so controllers observe the failure and reconcile a replacement —
        on whichever node the scheduler now prefers. Node-failure
        drains reuse this path with ``reason=REASON_NODE_FAILURE``.
        """
        self._cleanup_attempt(pod)
        self.api.set_phase(
            pod,
            PodPhase.FAILED,
            message=message
            or "node memory exhausted: evicted newest pod to relieve pressure",
            reason=reason,
        )
        self._m_evictions.labels(self.node_name, reason).inc()
        now = self.env.kernel.now
        self.env.tracer.record(
            "recovery.eviction", pod.uid, now, now, reason=reason
        )

    def _relieve_memory_pressure(self, exclude_uid: Optional[str] = None) -> int:
        """Evict newest pods while the node is under pressure; returns count."""
        evicted = 0
        while self.under_memory_pressure():
            victim = self._newest_running_pod(exclude_uid=exclude_uid)
            if victim is None:
                break
            self.evict_pod(victim)
            evicted += 1
        return evicted

    # -- teardown ------------------------------------------------------------

    def teardown_pod(self, pod: Pod) -> None:
        self._cleanup_attempt(pod)
        self._backoffs.pop(pod.uid, None)
        self.api.delete_pod(pod)
