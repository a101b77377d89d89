"""Fault injection across the stack: OOM, bad modules, guest traps,
injected transients, eviction, and teardown hygiene."""

import pytest

from repro.errors import KubernetesError, OutOfMemory
from repro.k8s import ContainerSpec, PodPhase, PodSpec
from repro.k8s.cluster import build_cluster
from repro.k8s.objects import REASON_EVICTED
from repro.oci.annotations import WASM_VARIANT_ANNOTATION, WASM_VARIANT_COMPAT
from repro.oci.image import Image, ImageConfig, Layer
from repro.sim.faults import FaultPlan, FaultPoint, FaultSpec, transient_plan
from repro.sim.memory import GIB, MIB
from repro.wasm import assemble_wat


def _push_image(cluster, reference: str, wasm_bytes: bytes) -> str:
    image = Image(
        reference=reference,
        config=ImageConfig(
            entrypoint=["/app/bad.wasm"],
            annotations={WASM_VARIANT_ANNOTATION: WASM_VARIANT_COMPAT},
        ),
        layers=[Layer.from_files({"app/bad.wasm": wasm_bytes})],
    )
    cluster.node.env.images.push(image)
    cluster.node.env.images.pull(reference)
    return reference


def _deploy_one(cluster, config: str, image: str):
    spec = PodSpec(
        containers=[ContainerSpec(name="app", image=image)],
        runtime_class_name=config,
    )
    pod = cluster.api.create_pod("faulty", spec)
    cluster.kernel.run_all([cluster.node.kubelet.sync_pod(pod)])
    return pod


class TestBadModules:
    def test_corrupt_wasm_fails_pod_not_harness(self):
        cluster = build_cluster(seed=1)
        ref = _push_image(cluster, "registry.local/bad:corrupt", b"\x00asmGARBAGE")
        pod = _deploy_one(cluster, "crun-wamr", ref)
        assert pod.phase is PodPhase.FAILED
        assert "rejected" in pod.status_message
        # Node fully cleaned up after the failure.
        assert len(cluster.node.containerd.pods) == 0

    def test_trapping_module_fails_pod(self):
        cluster = build_cluster(seed=1)
        trap = assemble_wat('(module (func (export "_start") unreachable))')
        ref = _push_image(cluster, "registry.local/bad:trap", trap)
        pod = _deploy_one(cluster, "crun-wamr", ref)
        assert pod.phase is PodPhase.FAILED
        assert "trap" in pod.status_message

    def test_trapping_module_fails_under_runwasi_too(self):
        cluster = build_cluster(seed=1)
        trap = assemble_wat('(module (func (export "_start") (unreachable)))')
        ref = _push_image(cluster, "registry.local/bad:trap2", trap)
        pod = _deploy_one(cluster, "shim-wasmtime", ref)
        assert pod.phase is PodPhase.FAILED

    def test_module_without_entrypoint_fails(self):
        cluster = build_cluster(seed=1)
        empty = assemble_wat("(module (func $noop))")
        ref = _push_image(cluster, "registry.local/bad:noentry", empty)
        pod = _deploy_one(cluster, "crun-wamr", ref)
        assert pod.phase is PodPhase.FAILED

    def test_healthy_pods_unaffected_by_earlier_failure(self):
        cluster = build_cluster(seed=1)
        ref = _push_image(cluster, "registry.local/bad:corrupt2", b"not wasm at all")
        bad = _deploy_one(cluster, "crun-wamr", ref)
        assert bad.phase is PodPhase.FAILED
        good = cluster.deploy_and_wait("crun-wamr", 3)
        assert all(p.phase is PodPhase.RUNNING for p in good)


class TestOutOfMemory:
    def test_dense_deployment_on_tiny_node_fails_pods(self):
        # 1 GiB node: the ~23 MiB/pod wasmer shims exhaust it quickly.
        cluster = build_cluster(seed=1, memory_bytes=1 * GIB)
        pods = [cluster.make_pod("shim-wasmer") for _ in range(40)]
        acts = [cluster.node.kubelet.sync_pod(p) for p in pods]
        cluster.kernel.run_all(acts)
        phases = {p.phase for p in pods}
        assert PodPhase.FAILED in phases, "some pods must OOM"
        failed = [p for p in pods if p.phase is PodPhase.FAILED]
        assert any("exhausted" in p.status_message for p in failed)

    def test_lightweight_pods_fit_where_heavy_ones_do_not(self):
        cluster = build_cluster(seed=1, memory_bytes=1 * GIB)
        pods = cluster.deploy_and_wait("crun-wamr", 40)
        assert all(p.phase is PodPhase.RUNNING for p in pods)

    def test_oom_error_type(self):
        from repro.sim.memory import SystemMemoryModel

        model = SystemMemoryModel(total_bytes=10 * MIB, kernel_base=0)
        p = model.spawn("hog")
        with pytest.raises(OutOfMemory):
            model.map_private(p, 11 * MIB)


class TestInjectedTransients:
    def test_deployment_recovers_from_transient_faults(self):
        """30% pull + compile faults: every pod still reaches Running."""
        cluster = build_cluster(seed=3, fault_plan=transient_plan(seed=3))
        cluster.deployments.create(
            "web", cluster.pod_template("crun-wamr"), replicas=15
        )
        status = cluster.reconcile_and_wait("web")
        assert status == {"desired": 15, "current": 15, "ready": 15}
        # Faults really fired, and retries (not luck) produced convergence.
        plan = cluster.node.env.faults
        assert sum(plan.summary().values()) > 0
        retried = [
            cluster.api.pods[uid]
            for uid in cluster.deployments.deployments["web"].pod_uids
            if cluster.api.pods[uid].restart_count > 0
        ]
        assert retried, "at least one pod must have recovered via retry"
        assert cluster.node.env.tracer.by_category("recovery.backoff")

    def test_permanent_injected_fault_fails_pod(self):
        plan = FaultPlan(
            [FaultSpec(FaultPoint.SHIM_SPAWN, probability=1.0, transient=False)]
        )
        cluster = build_cluster(seed=1, fault_plan=plan)
        pod = cluster.make_pod("crun-wamr")
        cluster.kernel.run_all([cluster.node.kubelet.sync_pod(pod)])
        assert pod.phase is PodPhase.FAILED
        assert pod.restart_count == 0
        assert "injected permanent fault" in pod.status_message
        # Failed attempt left nothing behind on the node.
        assert len(cluster.node.containerd.pods) == 0


class TestEviction:
    def test_memory_pressure_evicts_newest_first(self):
        cluster = build_cluster(seed=1, memory_bytes=1 * GIB)
        pods = [cluster.make_pod("shim-wasmer") for _ in range(40)]
        cluster.kernel.run_all([cluster.node.kubelet.sync_pod(p) for p in pods])
        evicted = [p for p in pods if p.reason == REASON_EVICTED]
        assert evicted, "dense deployment on a tiny node must evict"
        assert all(p.phase is PodPhase.FAILED for p in evicted)
        # Eviction picks victims from the newest end of the creation order:
        # the earliest-created pods survive.
        survivors = [p for p in pods if p.phase is PodPhase.RUNNING]
        assert survivors
        assert min(s.created_at for s in survivors) <= min(
            e.created_at for e in evicted
        )
        spans = cluster.node.env.tracer.by_category("recovery.eviction")
        assert len(spans) == len(evicted)

    def test_deployment_controller_replaces_evicted_pods(self):
        """Evicted pods leave the live set; reconcile creates replacements
        (which may evict others — the churn stays bounded by capacity)."""
        cluster = build_cluster(seed=2, memory_bytes=1 * GIB)
        cluster.deployments.create(
            "dense", cluster.pod_template("shim-wasmer"), replicas=40
        )
        first = cluster.reconcile_and_wait("dense")
        assert first["ready"] < 40  # node can't hold all 40
        actions = cluster.deployments.reconcile("dense")
        assert actions["failed"], "evicted pods must be disowned on reconcile"
        assert len(actions["created"]) == len(actions["failed"])


class TestTeardownHygiene:
    def test_remove_pod_sandbox_is_idempotent(self):
        cluster = build_cluster(seed=1)
        pods = cluster.deploy_and_wait("crun-wamr", 1)
        uid = pods[0].uid
        assert uid in cluster.node.containerd.pods
        cluster.node.containerd.remove_pod_sandbox(uid)
        # Second (and third) removal of the same sandbox is a no-op.
        cluster.node.containerd.remove_pod_sandbox(uid)
        cluster.node.containerd.remove_pod_sandbox(uid)
        assert uid not in cluster.node.containerd.pods

    def test_delete_deployment_returns_node_memory_to_baseline(self):
        cluster = build_cluster(seed=4)
        baseline = cluster.node.env.memory.free_report()
        cluster.deployments.create(
            "app", cluster.pod_template("crun-wamr"), replicas=10
        )
        status = cluster.reconcile_and_wait("app")
        assert status["ready"] == 10
        assert cluster.node.env.memory.free_report().used > baseline.used
        cluster.delete_deployment("app")
        after = cluster.node.env.memory.free_report()
        assert after.used == baseline.used
        assert after.free == baseline.free
        assert len(cluster.node.containerd.pods) == 0

    def test_delete_deployment_cleans_up_failed_pods_too(self):
        """FAILED pods the controller still owns must not leak node state."""
        plan = FaultPlan(
            [FaultSpec(FaultPoint.SANDBOX_SETUP, probability=1.0, transient=False)]
        )
        cluster = build_cluster(seed=4, fault_plan=plan)
        baseline = cluster.node.env.memory.free_report()
        cluster.deployments.create(
            "doomed", cluster.pod_template("crun-wamr"), replicas=5
        )
        status = cluster.reconcile_and_wait("doomed")
        assert status["ready"] == 0
        cluster.delete_deployment("doomed")
        assert cluster.node.env.memory.free_report().used == baseline.used
        assert cluster.deployments.deployments == {}


class TestAdmission:
    def test_zero_container_pod_rejected(self):
        cluster = build_cluster(seed=1)
        with pytest.raises(KubernetesError, match="containers must not be empty"):
            cluster.api.create_pod("empty", PodSpec(containers=[]))
        assert all(p.name != "empty" for p in cluster.api.pods.values())
