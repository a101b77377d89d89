"""Property: every experiment runner ends in a measurement or a typed error.

Whatever the pod count, fleet shape or fault rate, a runner returns a
measurement whose invariants hold, or raises a :class:`ReproError`. It
never ends in a bare traceback. Counts below one and negative seeds are
rejected before anything runs; counts beyond the fleet's capacity raise a
:class:`SchedulingError` whose ``.reasons`` account for every unplaced pod.
The same holds for :class:`Cluster` driven directly on heterogeneous
fleets with node selectors, and whatever the ending, every bound pod sits
on a node that matches its selector and had room, and every node's
accounting verifies.
"""

from hypothesis import example, given, settings, strategies as st

from repro.errors import ReproError, SchedulingError
from repro.k8s.cluster import NodeSpec, build_cluster
from repro.measure.chaos import run_chaos
from repro.measure.experiment import ExperimentRunner
from repro.measure.fleet import run_locality_ablation
from repro.measure.recovery import run_recovery
from repro.sim.faults import transient_plan
from repro.sim.memory import GIB, MIB

#: the chaos invariants that hold whether or not the run converged
CHAOS_ALWAYS = {
    "accounting_verifies",
    "backoff_counter_balances",
    "fault_counter_balances",
    "zygote_fallbacks_balance",
    "no_leaked_sandboxes",
    "no_leaked_memory",
}

#: kubelet default pods per node (the locality ablation's node shape)
DEFAULT_MAX_PODS = 500


def _run(runner, count, nodes, max_pods, rate, seed):
    if runner == "deploy":
        return ExperimentRunner(seed=seed).run(
            "crun-wamr", count, nodes=nodes, max_pods=max_pods
        )
    if runner == "recovery":
        plan = transient_plan(
            seed=seed, pull_probability=rate, compile_probability=rate
        )
        return run_recovery(count=count, seed=seed, plan=plan)
    if runner == "chaos":
        return run_chaos(count=count, seed=seed, rate=rate)
    return run_locality_ablation(count=count, nodes=nodes, seed=seed)


def _unplaced(runner, count, nodes, max_pods):
    """Pods the first failing placement leaves without a node (0: none)."""
    if runner == "deploy":
        return max(0, count - nodes * max_pods)
    if runner == "locality":
        # The seed pod is placed first; it finds no node only on an
        # empty fleet, and the wave fits on any non-empty one.
        return 1 if nodes == 0 else max(0, count - nodes * DEFAULT_MAX_PODS)
    return 0  # one default node: room for every count drawn here


@settings(max_examples=40, deadline=None)
@given(
    runner=st.sampled_from(["deploy", "recovery", "chaos", "locality"]),
    count=st.integers(min_value=-1, max_value=10),
    nodes=st.integers(min_value=0, max_value=3),
    max_pods=st.integers(min_value=0, max_value=6),
    rate=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=-(2**16), max_value=2**16),
)
def test_runner_ends_in_measurement_or_typed_error(
    runner, count, nodes, max_pods, rate, seed
):
    try:
        m = _run(runner, count, nodes, max_pods, rate, seed)
    except SchedulingError as err:
        unplaced = _unplaced(runner, count, nodes, max_pods)
        assert count >= 1 and seed >= 0 and unplaced > 0, err
        assert sum(err.reasons.values()) == unplaced
        return
    except ReproError as err:
        assert count < 1 or seed < 0, err
        return
    assert count >= 1 and seed >= 0
    assert _unplaced(runner, count, nodes, max_pods) == 0

    if runner == "deploy":
        assert m.ready_fraction == 1.0
        assert sum(u.pods for u in m.per_node) == count
    elif runner == "recovery":
        assert len(m.timeline) <= count
        assert m.converged == (len(m.timeline) == count)
    elif runner == "chaos":
        failing = [
            c.name for c in m.invariants if c.name in CHAOS_ALWAYS and not c.passed
        ]
        assert not failing, failing
        assert {c.name for c in m.invariants} >= CHAOS_ALWAYS
    else:
        assert sum(m.placement_with.values()) == count
        assert sum(m.placement_without.values()) == count


LABELS = ({}, {"zone": "a"}, {"zone": "b"})


@settings(max_examples=40, deadline=None)
# Converging crun-wasmtime pods on an 800 MiB node fills it past the page
# cache, which the kubelet's pressure check must treat as reclaimable; the
# pods it evicts give their slots back, so the run converges without a
# SchedulingError.
@example(
    nodes=[(20, 800 * MIB, 6, {})],
    config="crun-wasmtime",
    count=1,
    replicas=5,
    selector={},
    seed=1,
)
@given(
    nodes=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=20),  # cores
            st.sampled_from((800 * MIB, 1 * GIB, 4 * GIB)),  # memory
            st.integers(min_value=0, max_value=6),  # max_pods
            st.sampled_from(LABELS),
        ),
        min_size=1,
        max_size=4,
    ),
    config=st.sampled_from(
        ("crun-wamr", "crun-wamr-zygote", "crun-wasmtime", "runc-python")
    ),
    count=st.integers(min_value=1, max_value=8),
    replicas=st.integers(min_value=1, max_value=8),
    selector=st.sampled_from(LABELS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_heterogeneous_fleet_ends_in_fitting_placements_or_typed_error(
    nodes, config, count, replicas, selector, seed
):
    cluster = build_cluster(
        seed=seed,
        node_specs=[
            NodeSpec(
                f"node-{i}",
                cores=cores,
                memory_bytes=memory,
                max_pods=max_pods,
                labels=dict(labels),
            )
            for i, (cores, memory, max_pods, labels) in enumerate(nodes)
        ],
    )
    template = cluster.pod_template(config)
    template.node_selector = dict(selector)
    try:
        cluster.deploy_and_wait(config, count)
        cluster.converge("svc", template, replicas, max_rounds=3)
    except SchedulingError as err:
        unplaced = cluster.api.pending_pods()
        assert sum(err.reasons.values()) == len(unplaced) > 0, err
    except ReproError:
        pass  # e.g. an allocation the node cannot admit: typed, so within the contract
    for pod in cluster.api.pods.values():
        if pod.node_name is not None:
            assert cluster.nodes[pod.node_name].info.matches_selector(
                pod.spec.node_selector
            )
    for worker in cluster.nodes.values():
        assert worker.info.pod_count <= worker.info.max_pods
        worker.env.memory.verify_accounting()
