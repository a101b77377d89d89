"""Multi-node clusters (beyond the paper's single-node testbed)."""

import pytest

from repro.k8s import PodPhase
from repro.k8s.cluster import build_cluster
from repro.sim.memory import MIB


class TestMultiNode:
    def test_scheduler_spreads_evenly(self):
        cluster = build_cluster(seed=2, node_count=3)
        pods = cluster.deploy_and_wait("crun-wamr", 30)
        placement = {}
        for pod in pods:
            placement[pod.node_name] = placement.get(pod.node_name, 0) + 1
        assert placement == {"node-0": 10, "node-1": 10, "node-2": 10}

    def test_node_property_requires_single_node(self):
        from repro.errors import KubernetesError

        cluster = build_cluster(seed=2, node_count=2)
        with pytest.raises(KubernetesError, match="multiple nodes"):
            _ = cluster.node

    def test_memory_isolated_per_node(self):
        cluster = build_cluster(seed=2, node_count=2)
        pods = cluster.deploy_and_wait("crun-wasmer", 2)  # one per node
        by_node = {p.node_name: p for p in pods}
        for name, pod in by_node.items():
            node = cluster.nodes[name]
            ws = node.metrics.pod_working_sets()
            assert set(ws) == {pod.uid}
            assert ws[pod.uid] > 10 * MIB

    def test_capacity_spill_over(self):
        cluster = build_cluster(seed=2, node_count=2, max_pods=5)
        pods = cluster.deploy_and_wait("crun-wamr", 10)
        assert all(p.phase is PodPhase.RUNNING for p in pods)
        counts = [cluster.nodes[n].info.pod_count for n in sorted(cluster.nodes)]
        assert counts == [5, 5]

    def test_over_capacity_stays_pending(self):
        from repro.errors import KubernetesError

        cluster = build_cluster(seed=2, node_count=1, max_pods=3)
        with pytest.raises(KubernetesError, match="not scheduled"):
            cluster.deploy_and_wait("crun-wamr", 4)

    def test_reconcile_over_capacity_raises_with_reasons(self):
        from repro.errors import SchedulingError

        cluster = build_cluster(seed=2, node_count=1, max_pods=3)
        cluster.deployments.create(
            "svc", cluster.pod_template("crun-wamr"), replicas=4
        )
        with pytest.raises(SchedulingError, match="1 of 4 pods") as err:
            cluster.reconcile_and_wait("svc")
        assert err.value.reasons == {"capacity": 1}

    def test_parallel_nodes_share_simulated_clock(self):
        cluster = build_cluster(seed=2, node_count=2)
        pods = cluster.deploy_and_wait("crun-wamr", 8)
        # Both nodes progress on one kernel: the makespan matches the
        # slowest node's pods, and both nodes host running containers.
        assert all(p.running_at is not None for p in pods)
        for node in cluster.nodes.values():
            assert len(node.containerd.pods) == 4
