"""Property: the incremental ranking places every pod where a full scan would.

The scheduler re-scores only the nodes marked dirty since its last
decision and checks cordons and free slots when an entry reaches the top
of its heap. The reference below is the scan it replaced: filter every
node, score each candidate from the live node state, keep the first
strictly greater score in name order. Random heterogeneous fleets and
random streams of pod creations, deletions, sweeps, cordons, uncordons
and kernel runs must see the same placement, or the same failure reason,
at every decision.
"""

from hypothesis import example, given, settings, strategies as st

from repro.container.startup import startup_profile
from repro.errors import SchedulingError
from repro.k8s.cluster import NodeSpec, build_cluster
from repro.k8s.objects import ContainerSpec, PodSpec
from repro.sim.memory import GIB
from repro.workloads.images import PYTHON_IMAGE_REF, WASM_IMAGE_REF

#: pod handlers: None (no RuntimeClass), zygote-capable and cold-only ones
HANDLERS = (None, "crun-wamr", "crun-wamr-zygote", "crun-wasmtime", "runc-python")
#: the image each handler's pods run; other images are never synced
RUNNABLE_IMAGE = {
    "crun-wamr": WASM_IMAGE_REF,
    "crun-wamr-zygote": WASM_IMAGE_REF,
    "crun-wasmtime": WASM_IMAGE_REF,
    "runc-python": PYTHON_IMAGE_REF,
}
IMAGES = (WASM_IMAGE_REF, PYTHON_IMAGE_REF)
LABELS = ({}, {"zone": "a"}, {"zone": "b"}, {"zone": "a", "disk": "ssd"})
SELECTORS = ({}, {"zone": "a"}, {"zone": "b"}, {"disk": "ssd"}, {"zone": "c"})


def reference_reason(cluster, pod) -> str:
    handler = cluster.api.resolve_handler(pod)
    nodes = [n for n in cluster.api.nodes.values() if not n.unschedulable]
    if not cluster.api.nodes:
        return "no_nodes"
    if not nodes:
        return "unschedulable"
    nodes = [n for n in nodes if n.matches_selector(pod.spec.node_selector)]
    if not nodes:
        return "selector_mismatch"
    if not any(n.supports_handler(handler) for n in nodes):
        return "unsupported_handler"
    return "capacity"


def reference_pick(cluster, pod):
    """``("bind", node name)`` or ``("fail", reason)`` by a full scan."""
    s = cluster.scheduler
    handler = cluster.api.resolve_handler(pod)
    candidates = [
        n
        for n in sorted(cluster.api.nodes.values(), key=lambda n: n.name)
        if not n.unschedulable
        and n.max_pods - n.pod_count > 0
        and n.supports_handler(handler)
        and n.matches_selector(pod.spec.node_selector)
    ]
    if not candidates:
        return ("fail", reference_reason(cluster, pod))
    if len(candidates) == 1:
        return ("bind", candidates[0].name)
    image = pod.spec.containers[0].image
    warm_capable = handler is not None and startup_profile(handler).warm is not None
    best, best_score = None, None
    for node in candidates:
        env = cluster.nodes[node.name].env
        score = s.balance_weight * ((node.max_pods - node.pod_count) / node.max_pods)
        if s.memory_weight:
            alloc = node.allocatable_memory or 1
            avail = 1.0 - env.memory.node_working_set() / alloc
            score += s.memory_weight * (avail if avail > 0.0 else 0.0)
        if s.locality_weight and warm_capable and env.zygote_warm(handler, image):
            score += s.locality_weight
        if best is None or score > best_score:
            best, best_score = node, score
    return ("bind", best.name)


def check_every_decision(cluster, decisions):
    """Wrap ``cluster.scheduler.schedule`` to compare it with the scan."""
    schedule = cluster.scheduler.schedule

    def checked(pod):
        expected = reference_pick(cluster, pod)
        try:
            node = schedule(pod)
        except SchedulingError as err:
            assert ("fail", err.reason) == expected, pod.name
            decisions.append(expected)
            raise
        assert ("bind", node.name) == expected, pod.name
        decisions.append(expected)
        return node

    cluster.scheduler.schedule = checked


node_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # max_pods
        st.sampled_from((1, 2)),  # memory, GiB
        st.sampled_from(LABELS),
        st.integers(min_value=1, max_value=20),  # cores
        st.sets(st.sampled_from(HANDLERS[1:]), max_size=2),  # handlers dropped
    ),
    min_size=1,
    max_size=8,
)

#: pod classes an example draws from: (handler, runnable image, selector)
classes = st.lists(
    st.tuples(
        st.sampled_from(HANDLERS),
        st.booleans(),  # the handler's runnable image, else the other one
        st.sampled_from(SELECTORS),
    ),
    min_size=1,
    max_size=3,
)

#: step kinds, creations weighted up so fleets fill and nodes compete
OPS = ("create",) * 5 + ("delete", "sweep", "cordon", "run", "run")

#: (kind, index): the pod class, the pod or the node the step acts on
steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=99)),
    min_size=4,
    max_size=40,
)


#: two empty nodes, n0 with room for 4 pods and n5 for 2
TWO_NODES = [(4, 1, {}, 4, set()), (2, 1, {}, 4, set())]


@settings(max_examples=200, deadline=None)
# Each dirty source and the pop-time checks, on a fixed case. The ledger:
# a failed decision (both nodes cordoned) re-scores n0 before the run, so
# only the ledger's notices show that n0 now runs two pods and n5 one.
# The zygote watch: with no memory term, only it shows n0's new snapshot.
# The cordon check, and putting a skipped entry back: n0 ties n5 but is
# skipped while cordoned, then wins once uncordoned.
@example(
    specs=TWO_NODES,
    pod_classes=[("crun-wamr", True, {})],
    steps=[("create", 0)] * 3
    + [("cordon", 0), ("cordon", 1), ("create", 0)]
    + [("cordon", 0), ("cordon", 1), ("run", 0), ("create", 0)],
    memory_weight=1.0,
    locality_weight=0.0,
    seed=0,
)
@example(
    specs=TWO_NODES,
    pod_classes=[("crun-wamr-zygote", True, {})],
    steps=[("create", 0), ("create", 0), ("run", 0), ("create", 0)],
    memory_weight=0.0,
    locality_weight=0.3,
    seed=0,
)
@example(
    specs=TWO_NODES,
    pod_classes=[("crun-wamr", True, {})],
    steps=[("cordon", 0), ("create", 0), ("cordon", 0), ("create", 0)],
    memory_weight=1.0,
    locality_weight=0.3,
    seed=0,
)
@given(
    specs=node_specs,
    pod_classes=classes,
    steps=steps,
    # a heavy memory term lets one kernel run reorder equal nodes
    memory_weight=st.sampled_from((0.0, 1.0, 50.0)),
    locality_weight=st.sampled_from((0.0, 0.3, 2.0)),
    seed=st.integers(min_value=0, max_value=3),
)
def test_ranking_places_like_a_full_scan(
    specs, pod_classes, steps, memory_weight, locality_weight, seed
):
    cluster = build_cluster(
        seed=seed,
        node_specs=[
            # Names out of creation order, so name order is tested.
            NodeSpec(
                f"n{(5 * i) % 8}",
                cores=cores,
                memory_bytes=gib * GIB,
                max_pods=max_pods,
                labels=dict(labels),
            )
            for i, (max_pods, gib, labels, cores, _) in enumerate(specs)
        ],
        memory_weight=memory_weight,
        locality_weight=locality_weight,
    )
    names = list(cluster.nodes)
    for name, (*_, dropped) in zip(names, specs):
        info = cluster.nodes[name].info
        info.runtime_handlers = [h for h in info.runtime_handlers if h not in dropped]
    decisions = []
    check_every_decision(cluster, decisions)
    pods, synced = [], set()
    for i, (op, index) in enumerate(steps):
        if op == "create":
            handler, runnable, selector = pod_classes[index % len(pod_classes)]
            image = RUNNABLE_IMAGE.get(handler, WASM_IMAGE_REF)
            if not runnable:
                image = IMAGES[1 - IMAGES.index(image)]
            spec = PodSpec(
                containers=[ContainerSpec(name="app", image=image)],
                runtime_class_name=handler,
                node_selector=dict(selector),
            )
            pods.append(cluster.api.create_pod(f"p{i}", spec))
        elif op == "delete" and pods:
            pod = pods.pop(index % len(pods))
            if pod.node_name is None:
                cluster.api.delete_pod(pod)
            else:
                cluster.nodes[pod.node_name].kubelet.teardown_pod(pod)
        elif op == "sweep":
            cluster.scheduler.sweep()
        elif op == "cordon":
            info = cluster.nodes[names[index % len(names)]].info
            info.unschedulable = not info.unschedulable
        elif op == "run":
            ready = [
                p
                for p in pods
                if p.node_name is not None
                and p.uid not in synced
                and RUNNABLE_IMAGE.get(p.spec.runtime_class_name)
                == p.spec.containers[0].image
            ]
            synced.update(p.uid for p in ready)
            cluster.kernel.run_all(
                [cluster.nodes[p.node_name].kubelet.sync_pod(p) for p in ready]
            )
    assert len(decisions) >= sum(1 for s in steps if s[0] == "create")
