"""Cluster assembly: one call builds the full simulated testbed.

``build_cluster()`` wires kernel → memory model → NodeEnv → containerd →
CRI → kubelet → API server/scheduler/metrics-server, registers a
RuntimeClass per benchmarked configuration, and publishes the workload
images — the state §IV-A's Continuum deployment would leave behind.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.container.highlevel.containerd import Containerd
from repro.container.highlevel.cri import CRIService
from repro.container.nodeenv import NodeEnv
from repro.container.startup import ablation_configs, known_configs
from repro.core.integration import ABLATION_CONFIGS, RUNTIME_CONFIGS
from repro.errors import KubernetesError, SchedulingError
from repro.k8s.apiserver import APIServer
from repro.k8s.controllers import DeploymentController
from repro.k8s.kubelet import Kubelet, ProbeConfig
from repro.k8s.metrics_server import MetricsServer
from repro.k8s.objects import (
    ContainerSpec,
    NodeInfo,
    Pod,
    PodPhase,
    PodSpec,
    RestartPolicy,
    RuntimeClass,
)
from repro.k8s.objects import REASON_NODE_FAILURE
from repro.k8s.scheduler import NodeSignals, Scheduler
from repro.sim.cpu import CpuModel
from repro.sim.faults import FaultPlan, FaultPoint
from repro.sim.kernel import Kernel
from repro.sim.memory import GIB, SystemMemoryModel
from repro.sim.rng import RngStreams
from repro.workloads.images import (
    PYTHON_IMAGE_REF,
    WASM_IMAGE_REF,
    build_python_image,
    build_wasm_image,
)


@dataclass(frozen=True)
class NodeSpec:
    """Declarative shape of one fleet node (heterogeneous fleets).

    ``build_cluster(node_specs=[...])`` builds exactly these nodes; the
    legacy ``node_count``/``max_pods``/``memory_bytes`` parameters expand
    to a homogeneous spec list (the paper's testbed shape).
    """

    name: str
    cores: int = 20
    memory_bytes: int = 256 * GIB
    max_pods: int = 500
    labels: Dict[str, str] = field(default_factory=dict)


@dataclass
class WorkerNode:
    """One node's full stack."""

    name: str
    env: NodeEnv
    containerd: Containerd
    cri: CRIService
    kubelet: Kubelet
    metrics: MetricsServer
    info: NodeInfo


@dataclass
class Cluster:
    kernel: Kernel
    api: APIServer
    scheduler: Scheduler
    nodes: Dict[str, WorkerNode]
    deployments: "DeploymentController" = None  # type: ignore[assignment]
    #: time-series sampler (``obs.timeseries.Sampler``) when sampling is
    #: on for this cluster; None otherwise
    monitor: Optional[object] = None
    _pod_counter: itertools.count = field(default_factory=lambda: itertools.count(1))

    @property
    def node(self) -> WorkerNode:
        """The single worker node in the paper's testbed topology."""
        if len(self.nodes) != 1:
            raise KubernetesError("cluster has multiple nodes; name one explicitly")
        return next(iter(self.nodes.values()))

    # -- deployment helpers ------------------------------------------------

    def pod_template(
        self,
        runtime_config: str,
        image: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
        restart_policy: RestartPolicy = RestartPolicy.ALWAYS,
    ) -> PodSpec:
        """A single-container PodSpec for a runtime config (image inferred)."""
        if image is None:
            config = RUNTIME_CONFIGS.get(runtime_config) or ABLATION_CONFIGS.get(
                runtime_config
            )
            if config is None:
                raise KubernetesError(f"unknown runtime configuration {runtime_config!r}")
            image = WASM_IMAGE_REF if config.workload == "wasm" else PYTHON_IMAGE_REF
        return PodSpec(
            containers=[
                ContainerSpec(name="app", image=image, env=dict(env or {}))
            ],
            runtime_class_name=runtime_config,
            restart_policy=restart_policy,
        )

    def make_pod(
        self,
        runtime_config: str,
        image: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
        name: Optional[str] = None,
        restart_policy: RestartPolicy = RestartPolicy.ALWAYS,
    ) -> Pod:
        """Create (in the API server) one single-container pod."""
        spec = self.pod_template(
            runtime_config, image=image, env=env, restart_policy=restart_policy
        )
        n = next(self._pod_counter)
        return self.api.create_pod(name or f"{runtime_config}-{n:05d}", spec)

    def deploy_and_wait(
        self,
        runtime_config: str,
        count: int,
        env: Optional[Dict[str, str]] = None,
        image: Optional[str] = None,
    ) -> List[Pod]:
        """Deploy ``count`` identical pods concurrently; run to Running.

        This is the §IV experiment shape: N pods at once, one container
        per pod, identical workload. Raises :class:`SchedulingError`
        (``.reasons`` maps the scheduler's classified reason to a pod
        count) when any pod found no node, before anything runs, and
        :class:`KubernetesError` when a scheduled pod failed to start.
        """
        pods = [
            self.make_pod(runtime_config, image=image, env=env)
            for _ in range(count)
        ]
        unplaced = [p for p in pods if p.node_name is None]
        if unplaced:
            reasons = Counter(self.scheduler.failure_reason(p) for p in unplaced)
            detail = ", ".join(f"{r}: {n}" for r, n in sorted(reasons.items()))
            err = SchedulingError(
                f"{len(unplaced)} of {count} pods were not scheduled ({detail})"
            )
            err.reasons = dict(reasons)
            raise err
        self.kernel.run_all(
            [self.nodes[p.node_name].kubelet.sync_pod(p) for p in pods]
        )
        failed = [p for p in pods if p.phase is not PodPhase.RUNNING]
        if failed:
            raise KubernetesError(
                f"{len(failed)} pods failed: {failed[0].status_message}"
            )
        return pods

    def teardown(self, pods: List[Pod]) -> None:
        for pod in pods:
            if pod.node_name:
                self.nodes[pod.node_name].kubelet.teardown_pod(pod)

    # -- deployment-controller driving ---------------------------------------

    def reconcile_and_wait(self, deployment_name: str) -> Dict[str, int]:
        """Run one reconciliation pass and realize its effects on nodes.

        Created pods are synced to Running; removed pods are torn down.
        Returns the deployment status afterwards.
        """
        actions = self.deployments.reconcile(deployment_name)
        activities = []
        for pod in actions["created"]:
            if pod.node_name is None:
                raise KubernetesError(f"pod {pod.name} was not scheduled")
            activities.append(self.nodes[pod.node_name].kubelet.sync_pod(pod))
        if activities:
            self.kernel.run_all(activities)
        # Surplus pods and disowned FAILED/evicted pods both need their
        # node-side state released, or they'd leak memory forever.
        self.teardown(actions["removed"] + actions["failed"])
        return self.deployments.status(deployment_name)

    def delete_deployment(self, deployment_name: str) -> None:
        """Delete a deployment AND tear down every pod it still owns.

        Callers that used ``deployments.delete()`` directly could leak
        the returned pods' node-side state; this helper closes the loop.
        """
        self.teardown(self.deployments.delete(deployment_name))

    # -- node failure ---------------------------------------------------------

    def fail_node(self, node_name: str) -> List[Pod]:
        """Simulate a whole-node failure: cordon the node, drain its pods.

        Every Pending/Running pod bound to the node is force-evicted
        FAILED with ``reason=NodeFailure`` (the pod object stays in the
        API server, exactly like a pressure eviction), so the next
        DeploymentController reconcile re-places replacements — which
        the scheduler now binds to the surviving, schedulable fleet.
        Returns the drained pods.
        """
        worker = self.nodes[node_name]
        worker.info.unschedulable = True
        drained = []
        for pod in self.api.pods_on_node(node_name):
            if pod.phase in (PodPhase.PENDING, PodPhase.RUNNING):
                worker.kubelet.evict_pod(
                    pod,
                    message=f"node {node_name} failed",
                    reason=REASON_NODE_FAILURE,
                )
                drained.append(pod)
        return drained

    def inject_node_failures(self) -> List[str]:
        """Ask the armed fault plan which nodes fail now (``node.fail``).

        One deterministic draw per schedulable node, keyed by node name;
        firing nodes are cordoned and drained via :meth:`fail_node`.
        Returns the failed node names (empty with no plan armed).
        """
        failed = []
        for name in sorted(self.nodes):
            worker = self.nodes[name]
            plan = worker.env.faults
            if plan is None or worker.info.unschedulable:
                continue
            if plan.check(FaultPoint.NODE_FAIL, name) is not None:
                self.fail_node(name)
                failed.append(name)
        return failed


def build_cluster(
    seed: int = 0,
    node_count: int = 1,
    max_pods: int = 500,
    memory_bytes: int = 256 * GIB,
    fault_plan: Optional[FaultPlan] = None,
    probes: Optional[ProbeConfig] = None,
    admission_shedding: bool = False,
    node_specs: Optional[List[NodeSpec]] = None,
    balance_weight: float = 1.0,
    memory_weight: float = 1.0,
    locality_weight: float = 0.3,
) -> Cluster:
    """Build the simulated testbed (defaults = the paper's single node).

    ``node_specs`` builds a heterogeneous fleet (per-node cores, memory,
    max-pods, labels); without it, ``node_count`` homogeneous nodes of
    the legacy shape are built. The three weights parameterize the
    scheduler's scoring terms (balance/memory bin-packing/zygote
    snapshot locality); they only matter once more than one node is
    feasible, so the paper's single-node figures are untouched.

    ``fault_plan`` arms deterministic fault injection on every node (the
    plan's budgets are shared cluster-wide); None leaves injection off
    with zero overhead. ``probes`` opts every kubelet into post-Running
    liveness/readiness probing; ``admission_shedding`` makes kubelets
    refuse admissions under memory pressure instead of evicting.
    """
    kernel = Kernel()
    api = APIServer(clock=lambda: kernel.now)
    scheduler = Scheduler(
        api,
        balance_weight=balance_weight,
        memory_weight=memory_weight,
        locality_weight=locality_weight,
    )

    for config_id in known_configs() + ablation_configs():
        api.register_runtime_class(RuntimeClass(name=config_id, handler=config_id))

    if node_specs is None:
        node_specs = [
            NodeSpec(
                name=f"node-{i}", max_pods=max_pods, memory_bytes=memory_bytes
            )
            for i in range(node_count)
        ]

    nodes: Dict[str, WorkerNode] = {}
    for i, spec in enumerate(node_specs):
        name = spec.name
        memory = SystemMemoryModel(total_bytes=spec.memory_bytes)
        env = NodeEnv.create(
            kernel=kernel,
            memory=memory,
            cpu=CpuModel(cores=spec.cores),
            rng=RngStreams(seed * 1000 + i),
            faults=fault_plan,
        )
        env.images.push(build_wasm_image())
        env.images.push(build_python_image())
        # Pre-pull, as the paper's repeated campaigns do: image layers sit
        # in the page cache before any measurement baseline is taken.
        env.images.pull(WASM_IMAGE_REF)
        env.images.pull(PYTHON_IMAGE_REF)
        containerd = Containerd(env)
        cri = CRIService(containerd)
        kubelet = Kubelet(
            node_name=name,
            api=api,
            cri=cri,
            env=env,
            probes=probes or ProbeConfig(),
            admission_shedding=admission_shedding,
        )
        info = NodeInfo(
            name=name,
            max_pods=spec.max_pods,
            allocatable_memory=spec.memory_bytes,
            labels=dict(spec.labels),
            runtime_handlers=known_configs() + ablation_configs(),
        )
        api.register_node(info)
        scheduler.attach_node_signals(
            name,
            NodeSignals(
                working_set=memory.node_working_set,
                zygote_warm=env.zygote_warm,
            ),
        )
        nodes[name] = WorkerNode(
            name=name,
            env=env,
            containerd=containerd,
            cri=cri,
            kubelet=kubelet,
            metrics=MetricsServer(
                memory, containerd, faults=fault_plan, node_name=name
            ),
            info=info,
        )

    from repro.obs import timeseries

    monitor = None
    if timeseries.sampling_enabled():
        monitor = _build_monitor(kernel, api, nodes)
        scheduler.sampler = monitor
        for worker in nodes.values():
            worker.kubelet.sampler = monitor

    return Cluster(
        kernel=kernel,
        api=api,
        scheduler=scheduler,
        nodes=nodes,
        deployments=DeploymentController(api),
        monitor=monitor,
    )


def _build_monitor(
    kernel: Kernel, api: APIServer, nodes: Dict[str, WorkerNode]
):
    """Assemble the sampling pipeline: collectors → sampler → rule engine.

    Collector gauges carry the ``repro_monitor_`` prefix — the only
    gauges the sampler records (they are refreshed on every tick, so a
    sample never reads stale cross-cell state). Kubelet/scheduler events
    drive the tick; the rule engine evaluates the shipped SLO set after
    each scrape.
    """
    from repro import obs
    from repro.obs import rules, timeseries

    sampler = timeseries.Sampler(
        obs.default_registry(),
        timeseries.default_db(),
        clock=lambda: kernel.now,
        period=timeseries.sampling_period(),
    )
    g_ready = obs.gauge(
        "repro_monitor_ready_fraction",
        "ready Running pods over active (Pending+Running) pods; 1.0 when idle",
    )
    g_pods = obs.gauge(
        "repro_monitor_pods", "pods known to the API server, by phase", ("phase",)
    )
    g_avail = obs.gauge(
        "repro_monitor_node_available_fraction",
        "minimum available-memory fraction across nodes",
    )
    g_node_ws = obs.gauge(
        "repro_monitor_node_working_set_bytes",
        "full node working set (the Fig 4 view)",
        ("node",),
    )
    g_pod_ws = obs.gauge(
        "repro_monitor_pod_working_set_bytes",
        "sum of pod cgroup working sets via the metrics server (the Fig 3 view)",
        ("node",),
    )

    def collect() -> None:
        # Hand-rolled phase tally: this runs every sample tick over
        # every pod, and enum-keyed dict counting pays a hash per pod
        # that identity tests don't.
        running = pending = other = ready = 0
        for pod in api.pods.values():
            phase = pod.phase
            if phase is PodPhase.RUNNING:
                running += 1
                if pod.ready:
                    ready += 1
            elif phase is PodPhase.PENDING:
                pending += 1
            else:
                other += 1
        counts = {PodPhase.RUNNING: running, PodPhase.PENDING: pending}
        if other:
            for pod in api.pods.values():
                phase = pod.phase
                if phase is not PodPhase.RUNNING and phase is not PodPhase.PENDING:
                    counts[phase] = counts.get(phase, 0) + 1
        for phase in PodPhase:
            g_pods.labels(phase.value).set(counts.get(phase, 0))
        # Availability over *active* pods only: lingering FAILED/evicted
        # pods are the deployment controller's to replace, and counting
        # them would keep the availability alert firing after recovery
        # has converged.
        active = pending + running
        g_ready.set(ready / active if active else 1.0)
        avail = 1.0
        for worker in nodes.values():
            report = worker.env.memory.free_report()
            avail = min(avail, report.available / report.total)
            g_node_ws.labels(worker.name).set(worker.env.memory.node_working_set())
            # Subtree sum, not the per-pod metrics-server scrape: the
            # gauge only needs the node total, and the single-prefix
            # ledger pass is ~an order of magnitude cheaper than the
            # batched per-pod breakdown at 400 pods per sample tick.
            g_pod_ws.labels(worker.name).set(
                worker.env.memory.cgroup_working_set("/kubepods/")
            )
        g_avail.set(avail)

    sampler.collectors.append(collect)
    tracer = next(iter(nodes.values())).env.tracer if nodes else None
    rules.RuleEngine(
        timeseries.default_db(), obs.default_registry(), tracer=tracer
    ).attach(sampler)
    return sampler
