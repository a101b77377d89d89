"""API server: the cluster's object store and watch hub."""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.errors import KubernetesError
from repro.k8s.objects import NodeInfo, Pod, PodPhase, PodSpec, RuntimeClass

Watcher = Callable[[Pod], None]
#: called with (node_name, slot_delta) when a pod is bound (-1) or a
#: bound pod gives its slot back (+1): once, when it turns Failed or
#: Succeeded or leaves the API server, whichever comes first — the
#: scheduler's incremental free-slot bookkeeping hangs off this
CapacityWatcher = Callable[[str, int], None]


class APIServer:
    """Stores pods/nodes/runtime classes; notifies watchers on changes.

    Watches are synchronous callbacks (the simulated network round trip is
    folded into the kubelet's pipeline latency), delivered in registration
    order for determinism.
    """

    def __init__(self, clock: Callable[[], float] = lambda: 0.0) -> None:
        self._clock = clock
        self._uid_counter = itertools.count(1)
        self.pods: Dict[str, Pod] = {}
        self.nodes: Dict[str, NodeInfo] = {}
        self.runtime_classes: Dict[str, RuntimeClass] = {}
        self._pod_watchers: List[Watcher] = []
        self._capacity_watchers: List[CapacityWatcher] = []
        #: bumped whenever the node set changes; cached node orderings
        #: (the scheduler's) revalidate against it in O(1)
        self.nodes_version = 0

    # -- registration ------------------------------------------------------

    def register_node(self, node: NodeInfo) -> None:
        if node.name in self.nodes:
            raise KubernetesError(f"node {node.name} already registered")
        self.nodes[node.name] = node
        self.nodes_version += 1

    def register_runtime_class(self, rc: RuntimeClass) -> None:
        self.runtime_classes[rc.name] = rc

    def watch_pods(self, watcher: Watcher) -> None:
        self._pod_watchers.append(watcher)

    def watch_capacity(self, watcher: CapacityWatcher) -> None:
        self._capacity_watchers.append(watcher)

    # -- pod lifecycle ------------------------------------------------------

    def create_pod(self, name: str, spec: PodSpec) -> Pod:
        # Admission: a pod with no containers can never become Running and
        # would otherwise surface as a kubelet crash deep in pod sync.
        if not spec.containers:
            raise KubernetesError(f"pod {name}: spec.containers must not be empty")
        if spec.runtime_class_name is not None:
            if spec.runtime_class_name not in self.runtime_classes:
                raise KubernetesError(
                    f"pod {name}: unknown runtimeClassName {spec.runtime_class_name!r}"
                )
        uid = f"uid-{next(self._uid_counter):06d}"
        pod = Pod(name=name, uid=uid, spec=spec, created_at=self._clock())
        self.pods[uid] = pod
        self._notify(pod)
        return pod

    def resolve_handler(self, pod: Pod) -> Optional[str]:
        """RuntimeClass name → CRI runtime handler id."""
        rc_name = pod.spec.runtime_class_name
        if rc_name is None:
            return None
        return self.runtime_classes[rc_name].handler

    def bind_pod(self, pod: Pod, node_name: str) -> None:
        node = self.nodes.get(node_name)
        if node is None:
            raise KubernetesError(f"bind to unknown node {node_name}")
        pod.node_name = node_name
        pod.scheduled_at = self._clock()
        node.pod_uids.append(pod.uid)
        for watcher in self._capacity_watchers:
            watcher(node_name, -1)
        self._notify(pod)

    def set_phase(
        self, pod: Pod, phase: PodPhase, message: str = "", reason: str = ""
    ) -> None:
        pod.phase = phase
        pod.status_message = message
        pod.reason = reason
        if phase is PodPhase.RUNNING and pod.running_at is None:
            pod.running_at = self._clock()
        elif phase is PodPhase.FAILED or phase is PodPhase.SUCCEEDED:
            # Like Kubernetes, only non-terminated pods count toward a
            # node's pod capacity.
            self._release_slot(pod)
        self._notify(pod)

    def delete_pod(self, pod: Pod) -> None:
        self.pods.pop(pod.uid, None)
        self._release_slot(pod)

    def _release_slot(self, pod: Pod) -> None:
        """Give a bound pod's node slot back, if it still holds one."""
        node = self.nodes.get(pod.node_name) if pod.node_name else None
        if node is not None and pod.uid in node.pod_uids:
            node.pod_uids.remove(pod.uid)
            for watcher in self._capacity_watchers:
                watcher(node.name, +1)

    def _notify(self, pod: Pod) -> None:
        for watcher in self._pod_watchers:
            watcher(pod)

    # -- queries ------------------------------------------------------------

    def pending_pods(self) -> List[Pod]:
        return [
            p
            for p in self.pods.values()
            if p.phase is PodPhase.PENDING and p.node_name is None
        ]

    def pods_on_node(self, node_name: str) -> List[Pod]:
        return [p for p in self.pods.values() if p.node_name == node_name]
