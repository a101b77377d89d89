"""Kubernetes substrate: API server, scheduler, kubelet, metrics, cluster."""

import pytest

from repro.errors import KubernetesError, SchedulingError
from repro.k8s import (
    APIServer,
    ContainerSpec,
    NodeInfo,
    PodPhase,
    PodSpec,
    RuntimeClass,
    Scheduler,
)
from repro.k8s.cluster import NodeSpec, build_cluster
from repro.sim.memory import MIB
from repro.workloads.images import PYTHON_IMAGE_REF, WASM_IMAGE_REF


def pod_spec(runtime: str = "crun-wamr", image: str = WASM_IMAGE_REF) -> PodSpec:
    return PodSpec(
        containers=[ContainerSpec(name="app", image=image)],
        runtime_class_name=runtime,
    )


class TestAPIServer:
    def test_create_pod_assigns_uid(self):
        api = APIServer()
        api.register_runtime_class(RuntimeClass("crun-wamr", "crun-wamr"))
        p1 = api.create_pod("a", pod_spec())
        p2 = api.create_pod("b", pod_spec())
        assert p1.uid != p2.uid
        assert p1.phase is PodPhase.PENDING

    def test_unknown_runtime_class_rejected(self):
        api = APIServer()
        with pytest.raises(KubernetesError, match="runtimeClassName"):
            api.create_pod("a", pod_spec("missing"))

    def test_watchers_notified(self):
        api = APIServer()
        api.register_runtime_class(RuntimeClass("crun-wamr", "crun-wamr"))
        seen = []
        api.watch_pods(lambda p: seen.append(p.phase))
        pod = api.create_pod("a", pod_spec())
        api.set_phase(pod, PodPhase.RUNNING)
        assert seen[-1] is PodPhase.RUNNING

    def test_bind_updates_node(self):
        api = APIServer()
        api.register_runtime_class(RuntimeClass("crun-wamr", "crun-wamr"))
        api.register_node(NodeInfo(name="n0", runtime_handlers=["crun-wamr"]))
        pod = api.create_pod("a", pod_spec())
        api.bind_pod(pod, "n0")
        assert api.nodes["n0"].pod_count == 1
        api.delete_pod(pod)
        assert api.nodes["n0"].pod_count == 0

    def test_terminal_pod_releases_its_slot_once(self):
        api = APIServer()
        api.register_runtime_class(RuntimeClass("crun-wamr", "crun-wamr"))
        api.register_node(NodeInfo(name="n0", runtime_handlers=["crun-wamr"]))
        deltas = []
        api.watch_capacity(lambda node, delta: deltas.append((node, delta)))
        pod = api.create_pod("a", pod_spec())
        api.bind_pod(pod, "n0")
        api.set_phase(pod, PodPhase.RUNNING)
        api.set_phase(pod, PodPhase.FAILED, reason="Evicted")
        assert api.nodes["n0"].pod_count == 0
        api.set_phase(pod, PodPhase.FAILED)
        api.delete_pod(pod)
        assert deltas == [("n0", -1), ("n0", +1)]

    def test_evicted_pods_do_not_hold_slots_their_replacements_need(self):
        """Terminated pods stop counting toward the node's max_pods."""
        cluster = build_cluster(
            seed=1, node_specs=[NodeSpec("n", memory_bytes=800 * MIB, max_pods=6)]
        )
        cluster.deploy_and_wait("crun-wasmtime", 1)
        template = cluster.pod_template("crun-wasmtime")
        cluster.converge("svc", template, 5, max_rounds=3)  # no SchedulingError
        live = [
            p
            for p in cluster.api.pods_on_node("n")
            if p.phase not in (PodPhase.FAILED, PodPhase.SUCCEEDED)
        ]
        assert cluster.api.nodes["n"].pod_count == len(live)
        cluster.node.env.memory.verify_accounting()

    def test_duplicate_node_rejected(self):
        api = APIServer()
        api.register_node(NodeInfo(name="n0"))
        with pytest.raises(KubernetesError, match="already registered"):
            api.register_node(NodeInfo(name="n0"))


class TestScheduler:
    def _api(self, *nodes: NodeInfo) -> APIServer:
        api = APIServer()
        api.register_runtime_class(RuntimeClass("crun-wamr", "crun-wamr"))
        for n in nodes:
            api.register_node(n)
        return api

    def test_schedules_on_create(self):
        api = self._api(NodeInfo(name="n0", runtime_handlers=["crun-wamr"]))
        Scheduler(api)
        pod = api.create_pod("a", pod_spec())
        assert pod.node_name == "n0"

    def test_respects_max_pods(self):
        api = self._api(NodeInfo(name="n0", max_pods=1, runtime_handlers=["crun-wamr"]))
        Scheduler(api)
        api.create_pod("a", pod_spec())
        p2 = api.create_pod("b", pod_spec())
        assert p2.node_name is None  # stays pending

    def test_500_pods_per_node_config(self):
        cluster = build_cluster()
        assert cluster.node.info.max_pods == 500

    def test_respects_runtime_handler_support(self):
        api = self._api(NodeInfo(name="n0", runtime_handlers=["runc-python"]))
        scheduler = Scheduler(api)
        pod = api.create_pod("a", pod_spec("crun-wamr"))
        assert pod.node_name is None
        with pytest.raises(SchedulingError):
            scheduler.schedule(pod)

    def test_spreads_by_least_pods(self):
        api = self._api(
            NodeInfo(name="n0", runtime_handlers=["crun-wamr"]),
            NodeInfo(name="n1", runtime_handlers=["crun-wamr"]),
        )
        Scheduler(api)
        placements = [api.create_pod(f"p{i}", pod_spec()).node_name for i in range(4)]
        assert placements.count("n0") == 2 and placements.count("n1") == 2

    def test_node_selector(self):
        api = self._api(
            NodeInfo(name="n0", runtime_handlers=["crun-wamr"], labels={"zone": "a"}),
            NodeInfo(name="n1", runtime_handlers=["crun-wamr"], labels={"zone": "b"}),
        )
        Scheduler(api)
        spec = pod_spec()
        spec.node_selector = {"zone": "b"}
        pod = api.create_pod("p", spec)
        assert pod.node_name == "n1"

    def test_sweep_retries_pending(self):
        api = self._api(NodeInfo(name="n0", max_pods=1, runtime_handlers=["crun-wamr"]))
        scheduler = Scheduler(api)
        p1 = api.create_pod("a", pod_spec())
        p2 = api.create_pod("b", pod_spec())
        assert p2.node_name is None
        api.delete_pod(p1)
        assert scheduler.sweep() == 1
        assert p2.node_name == "n0"


class TestKubeletAndCluster:
    def test_deploy_single_pod(self, cluster):
        pods = cluster.deploy_and_wait("crun-wamr", 1)
        assert pods[0].phase is PodPhase.RUNNING
        assert pods[0].exec_started_at is not None
        containers = cluster.node.kubelet.pod_containers[pods[0].uid]
        assert b"ready" in containers[0].stdout

    def test_pod_without_runtime_class_fails(self, cluster):
        spec = PodSpec(containers=[ContainerSpec(name="a", image=WASM_IMAGE_REF)])
        pod = cluster.api.create_pod("bare", spec)
        cluster.scheduler.sweep()
        with pytest.raises(KubernetesError, match="RuntimeClass"):
            cluster.kernel.run_all([cluster.node.kubelet.sync_pod(pod)])

    def test_wasm_image_under_runc_fails_pod(self, cluster):
        pod = cluster.make_pod("runc-python", image=WASM_IMAGE_REF)
        cluster.kernel.run_all([cluster.node.kubelet.sync_pod(pod)])
        assert pod.phase is PodPhase.FAILED
        assert "wasm" in pod.status_message

    def test_metrics_server_reports_per_pod(self, cluster):
        pods = cluster.deploy_and_wait("crun-wamr", 3)
        metrics = cluster.node.metrics.pod_working_sets()
        assert len(metrics) == 3
        assert all(v > 2 * MIB for v in metrics.values())

    def test_teardown_restores_node(self, cluster):
        env = cluster.node.env
        before_ws = env.memory.node_working_set()
        before_kernel = env.memory.kernel_bytes
        pods = cluster.deploy_and_wait("shim-wasmedge", 2)
        cluster.teardown(pods)
        assert env.memory.node_working_set() == before_ws
        assert env.memory.kernel_bytes == before_kernel
        assert len(cluster.api.pods) == 0

    def test_hybrid_wasm_and_python_on_one_node(self, cluster):
        """§III-C: pods can run traditional and Wasm containers side by side."""
        wasm_pods = cluster.deploy_and_wait("crun-wamr", 2)
        py_pods = cluster.deploy_and_wait("crun-python", 2)
        assert all(p.phase is PodPhase.RUNNING for p in wasm_pods + py_pods)
        metrics = cluster.node.metrics.pod_working_sets()
        wasm_ws = [metrics[p.uid] for p in wasm_pods]
        py_ws = [metrics[p.uid] for p in py_pods]
        # Mean comparison: the first wasm pod carries the first-touch
        # charge for the shared crun/libiwasm text.
        assert sum(wasm_ws) / 2 < sum(py_ws) / 2

    def test_deterministic_given_seed(self):
        a = build_cluster(seed=3)
        b = build_cluster(seed=3)
        pods_a = a.deploy_and_wait("crun-wamr", 5)
        pods_b = b.deploy_and_wait("crun-wamr", 5)
        t_a = max(p.exec_started_at for p in pods_a)
        t_b = max(p.exec_started_at for p in pods_b)
        assert t_a == t_b
        assert (
            a.node.metrics.total_pod_bytes() == b.node.metrics.total_pod_bytes()
        )

    def test_different_seed_changes_jitter(self):
        a = build_cluster(seed=3)
        b = build_cluster(seed=4)
        t_a = max(p.exec_started_at for p in a.deploy_and_wait("crun-wamr", 5))
        t_b = max(p.exec_started_at for p in b.deploy_and_wait("crun-wamr", 5))
        assert t_a != t_b
