"""Fleet scheduling: heterogeneous nodes, locality, node-failure recovery."""

import re

import pytest

from repro import obs
from repro.errors import KubernetesError, ReproError, SchedulingError
from repro.k8s import PodPhase
from repro.k8s.cluster import NodeSpec, build_cluster
from repro.measure.experiment import ExperimentRunner
from repro.measure.fleet import run_fleet, run_locality_ablation
from repro.sim.faults import fleet_plan
from repro.sim.memory import GIB, MIB


@pytest.fixture()
def telemetry():
    """Telemetry on, clean slate; restores the prior state afterwards."""
    was_enabled = obs.enabled()
    obs.set_enabled(True)
    obs.reset()
    yield obs
    obs.reset()
    obs.set_enabled(was_enabled)


class TestHeterogeneousFleet:
    def test_node_specs_build_exact_shapes(self):
        cluster = build_cluster(
            seed=3,
            node_specs=[
                NodeSpec("big", cores=32, memory_bytes=512 * GIB, max_pods=100),
                NodeSpec(
                    "edge",
                    cores=4,
                    memory_bytes=64 * GIB,
                    max_pods=10,
                    labels={"tier": "edge"},
                ),
            ],
        )
        assert sorted(cluster.nodes) == ["big", "edge"]
        big, edge = cluster.nodes["big"].info, cluster.nodes["edge"].info
        assert big.max_pods == 100 and big.allocatable_memory == 512 * GIB
        assert edge.max_pods == 10 and edge.labels == {"tier": "edge"}
        assert cluster.nodes["edge"].env.memory.total_bytes == 64 * GIB

    def test_page_cache_never_runs_a_small_node_out_of_memory(self):
        """Admission ignores the page cache, so allocations plus cache can
        exceed an 800 MiB node; the kubelet's pressure check must then see
        the cache reclaimed, not a node out of memory."""
        cluster = build_cluster(
            seed=1, node_specs=[NodeSpec("n", memory_bytes=800 * MIB, max_pods=6)]
        )
        template = cluster.pod_template("crun-wasmtime")
        cluster.deploy_and_wait("crun-wasmtime", 1)
        try:
            cluster.converge("svc", template, 5, max_rounds=3)
        except SchedulingError:
            pass  # evicted pods keep their slots; the node fills up
        memory = cluster.node.env.memory
        memory.verify_accounting()
        report = memory.free_report()
        assert report.used + report.free + report.buff_cache == report.total

    def test_zero_capacity_node_never_receives_pods(self):
        cluster = build_cluster(
            seed=3,
            node_specs=[
                NodeSpec("empty", max_pods=0),
                NodeSpec("real", max_pods=10),
            ],
        )
        pods = cluster.deploy_and_wait("crun-wamr", 5)
        assert all(p.node_name == "real" for p in pods)

    def test_full_node_spills_to_the_rest(self):
        cluster = build_cluster(
            seed=3,
            node_specs=[
                NodeSpec("small", max_pods=2),
                NodeSpec("large", max_pods=8),
            ],
        )
        pods = cluster.deploy_and_wait("crun-wamr", 10)
        assert all(p.phase is PodPhase.RUNNING for p in pods)
        assert cluster.nodes["small"].info.pod_count == 2
        assert cluster.nodes["large"].info.pod_count == 8

    def test_selector_mismatch_across_whole_fleet(self):
        cluster = build_cluster(
            seed=3,
            node_specs=[
                NodeSpec("a", labels={"zone": "us"}),
                NodeSpec("b", labels={"zone": "eu"}),
            ],
        )
        spec = cluster.pod_template("crun-wamr")
        spec.node_selector = {"zone": "mars"}
        pod = cluster.api.create_pod("stranded", spec)
        assert pod.node_name is None  # no node matches; stays Pending

    def test_selector_routes_within_fleet(self):
        cluster = build_cluster(
            seed=3,
            node_specs=[
                NodeSpec("a", labels={"zone": "us"}),
                NodeSpec("b", labels={"zone": "eu"}),
            ],
        )
        spec = cluster.pod_template("crun-wamr")
        spec.node_selector = {"zone": "eu"}
        assert cluster.api.create_pod("routed", spec).node_name == "b"

    def test_tie_break_is_name_order(self):
        # Empty homogeneous nodes score identically on every term; only a
        # strictly greater score displaces the incumbent, so the first
        # node in name order wins the first placement deterministically.
        cluster = build_cluster(seed=3, node_count=4)
        pod = cluster.make_pod("crun-wamr")
        assert pod.node_name == "node-0"


class TestPlacementFailureTelemetry:
    def test_unschedulable_pod_counts_failure_and_stays_pending(self, telemetry):
        cluster = build_cluster(seed=3, node_count=1, max_pods=1)
        cluster.make_pod("crun-wamr")
        stuck = cluster.make_pod("crun-wamr")  # no capacity: swallowed error
        assert stuck.phase is PodPhase.PENDING and stuck.node_name is None
        fam = telemetry.default_registry().get(
            "repro_scheduler_placement_failures_total"
        )
        assert fam.labels("capacity").value == 1

    def test_failure_reasons_are_classified(self, telemetry):
        cluster = build_cluster(seed=3, node_count=2)
        spec = cluster.pod_template("crun-wamr")
        spec.node_selector = {"zone": "nowhere"}
        cluster.api.create_pod("mismatch", spec)
        for name in list(cluster.nodes):
            cluster.nodes[name].info.unschedulable = True
        cluster.make_pod("crun-wamr")
        fam = telemetry.default_registry().get(
            "repro_scheduler_placement_failures_total"
        )
        assert fam.labels("selector_mismatch").value == 1
        assert fam.labels("unschedulable").value == 1


class TestIncrementalFreeSlots:
    def test_delete_frees_a_slot_for_sweep(self):
        cluster = build_cluster(seed=3, node_count=1, max_pods=2)
        pods = cluster.deploy_and_wait("crun-wamr", 2)
        stuck = cluster.make_pod("crun-wamr")
        assert stuck.node_name is None
        cluster.nodes[pods[0].node_name].kubelet.teardown_pod(pods[0])
        cluster.api.delete_pod(pods[0])  # +1 via the capacity watch
        assert cluster.scheduler.sweep() == 1
        assert stuck.node_name == "node-0"

    def test_free_slots_track_binds_across_fleet(self):
        cluster = build_cluster(seed=3, node_count=3, max_pods=4)
        cluster.deploy_and_wait("crun-wamr", 9)
        order = cluster.scheduler._node_order()
        assert [n.name for n in order] == ["node-0", "node-1", "node-2"]
        assert cluster.scheduler._free_slots == {
            "node-0": 1,
            "node-1": 1,
            "node-2": 1,
        }


class TestZygoteLocality:
    def test_wave_follows_the_snapshot(self):
        # A completed seed pod plants exactly one node's snapshot; the
        # locality bonus then outweighs the small balance deficit, so a
        # follow-up wave of warm-capable pods lands on the same node.
        cluster = build_cluster(seed=3, node_count=4)
        seed_pod = cluster.deploy_and_wait("crun-wamr-zygote", 1)[0]
        wave = cluster.deploy_and_wait("crun-wamr-zygote", 12)
        assert {p.node_name for p in wave} == {seed_pod.node_name}

    def test_locality_blind_spreads(self):
        cluster = build_cluster(seed=3, node_count=4, locality_weight=0.0)
        cluster.deploy_and_wait("crun-wamr-zygote", 1)
        wave = cluster.deploy_and_wait("crun-wamr-zygote", 12)
        assert len({p.node_name for p in wave}) == 4

    def test_locality_raises_warm_fraction(self):
        # The acceptance criterion: locality-aware placement wins strictly
        # more warm starts than locality-blind spreading of the same wave.
        ablation = run_locality_ablation(count=24, nodes=4, seed=3)
        assert ablation.warm_fraction_with == 1.0
        assert ablation.warm_fraction_with > ablation.warm_fraction_without
        assert ablation.warm_gain > 0.5

    def test_each_wave_gets_its_own_trace_context(self, telemetry):
        # A wave is a run of its own: its spans must not land under the
        # context of whatever ran before it.
        ExperimentRunner(seed=3).run("crun-wamr", 2)
        before = len(telemetry.tagged_spans())
        run_locality_ablation(count=12, nodes=4, seed=3)
        labels = telemetry.context_labels()
        spans = telemetry.tagged_spans()
        assert all(labels[cid] == "deploy crun-wamr n=2" for cid, _ in spans[:before])
        waves = {labels[cid] for cid, _ in spans[before:]}
        assert waves == {
            "locality crun-wamr-zygote n=12 weight=0.3",
            "locality crun-wamr-zygote n=12 weight=0.0",
        }

    def test_warm_fractions_do_not_depend_on_telemetry(self, telemetry):
        with_telemetry = run_locality_ablation(count=12, nodes=4, seed=3)
        telemetry.set_enabled(False)
        assert run_locality_ablation(count=12, nodes=4, seed=3) == with_telemetry

    def test_non_zygote_configs_skip_the_bonus(self):
        # crun-wamr has no warm profile: placement must stay pure
        # spreading even when a zygote snapshot exists somewhere.
        cluster = build_cluster(seed=3, node_count=2)
        cluster.deploy_and_wait("crun-wamr-zygote", 1)
        wave = cluster.deploy_and_wait("crun-wamr", 8)
        by_node = {}
        for p in wave:
            by_node[p.node_name] = by_node.get(p.node_name, 0) + 1
        assert by_node["node-1"] >= 4  # not packed onto the snapshot node


class TestFleetSweep:
    @pytest.mark.parametrize("fleets", [(2, 4), (0, 1), ()])
    def test_sweep_needs_the_one_node_baseline(self, fleets):
        # Speedups divide by the 1-node point; a sweep that cannot have
        # one is refused before any point is simulated.
        with pytest.raises(ReproError, match="must include 1"):
            run_fleet(count=8, fleets=fleets)

    @pytest.mark.parametrize(
        "fleets, repeated", [((1, 1), "[1]"), ((1, 2, 4, 2, 4), "[2, 4]")]
    )
    def test_sweep_rejects_repeated_sizes(self, fleets, repeated):
        # A repeated size would run the same point twice and print two
        # identical rows, and FleetScaling.point reads only the first.
        with pytest.raises(ReproError, match=re.escape(f"repeat {repeated}")):
            run_fleet(count=8, fleets=fleets)


class TestNodeFailure:
    def test_fail_node_drains_and_replacements_land_elsewhere(self):
        cluster = build_cluster(seed=3, node_count=2)
        spec = cluster.pod_template("crun-wamr")
        cluster.deployments.create("svc", spec, replicas=6)
        cluster.reconcile_and_wait("svc")
        drained = cluster.fail_node("node-0")
        assert drained and all(p.phase is PodPhase.FAILED for p in drained)
        assert cluster.nodes["node-0"].info.unschedulable
        status = cluster.reconcile_and_wait("svc")
        assert status["ready"] == 6
        survivors = [
            p
            for p in cluster.api.pods_on_node("node-1")
            if p.phase is PodPhase.RUNNING
        ]
        assert len(survivors) == 6

    def test_failed_node_rejects_new_pods(self):
        cluster = build_cluster(seed=3, node_count=2)
        cluster.fail_node("node-0")
        pods = cluster.deploy_and_wait("crun-wamr", 4)
        assert all(p.node_name == "node-1" for p in pods)

    def test_fleet_plan_fires_one_node_failure(self):
        cluster = build_cluster(
            seed=3, node_count=3, fault_plan=fleet_plan(seed=0)
        )
        cluster.deploy_and_wait("crun-wamr", 6)
        failed = cluster.inject_node_failures()
        assert len(failed) == 1  # max_node_failures budget
        assert cluster.nodes[failed[0]].info.unschedulable
        # Budget spent: a second sweep fails nothing further.
        assert cluster.inject_node_failures() == []

    def test_all_nodes_failed_leaves_pods_pending(self):
        cluster = build_cluster(seed=3, node_count=2)
        cluster.fail_node("node-0")
        cluster.fail_node("node-1")
        with pytest.raises(KubernetesError, match="not scheduled"):
            cluster.deploy_and_wait("crun-wamr", 1)
