"""Scheduler: binds pending pods to feasible nodes.

Filter-then-score, like kube-scheduler. Feasibility = schedulability
(failed nodes are cordoned out), capacity (max-pods, the 500/node
extension), node selector, and RuntimeClass handler support. Scoring
blends three normalized terms:

* **balance** — free-slot fraction (the least-pods spreading the paper's
  single-node figures were built on, generalized to heterogeneous
  ``max_pods``),
* **memory** — available-memory fraction from the O(1) accountant's
  ``node_working_set`` signal (bin-packing pressure term; nodes under
  memory pressure score lower),
* **locality** — a flat bonus for nodes that already hold a zygote
  snapshot for this pod's (handler, image), so warm-capable placements
  win warm starts instead of paying a cold start on a fresh node.

The memory/locality terms read per-node :class:`NodeSignals` attached by
``build_cluster``; a scheduler without signals (bare API-server tests)
degrades to pure balance scoring. Tie-break is deterministic: nodes are
scanned in name order and only a strictly greater score displaces the
incumbent.

Two structural costs are kept off the per-decision path: the name-sorted
node order is cached and revalidated against ``APIServer.nodes_version``
in O(1), and free-slot counts are maintained incrementally from the API
server's capacity watch (bind = -1, delete = +1) instead of recounting
every node's pods per decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.errors import SchedulingError
from repro.k8s.apiserver import APIServer
from repro.k8s.objects import NodeInfo, Pod

#: wall-clock decision latency buckets: scheduling is microseconds here
_DECISION_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2,
)


@lru_cache(maxsize=None)
def _has_warm_profile(handler: str) -> bool:
    """Whether a runtime handler's startup profile has a warm variant.

    Only zygote-capable configurations can ever benefit from snapshot
    locality; for everything else the locality term is skipped without
    querying the node at all.
    """
    try:
        from repro.container.startup import startup_profile

        return startup_profile(handler).warm is not None
    except KeyError:
        return False


@dataclass(frozen=True)
class NodeSignals:
    """Per-node state probes the scheduler scores against.

    ``working_set`` returns the node's current working set in bytes
    (:meth:`SystemMemoryModel.node_working_set`, the O(1) accountant);
    ``zygote_warm`` answers whether the node already holds a zygote
    snapshot for ``(config_id, image_ref)`` — i.e. whether a container
    placed there would clone warm instead of cold-starting.
    """

    working_set: Callable[[], int]
    zygote_warm: Callable[[str, str], bool]


class Scheduler:
    def __init__(
        self,
        api: APIServer,
        *,
        balance_weight: float = 1.0,
        memory_weight: float = 1.0,
        locality_weight: float = 0.3,
    ) -> None:
        self.api = api
        self.balance_weight = balance_weight
        self.memory_weight = memory_weight
        self.locality_weight = locality_weight
        api.watch_pods(self._on_pod_event)
        api.watch_capacity(self._on_capacity_event)
        self.scheduled_count = 0
        #: time-series sampler ticked on each placement (None = off)
        self.sampler = None
        self._signals: Dict[str, NodeSignals] = {}
        #: name-sorted node order, cached against api.nodes_version
        self._order: List[NodeInfo] = []
        self._order_version = -1
        #: free pod slots per node, maintained incrementally on bind/delete
        self._free_slots: Dict[str, int] = {}
        self._obs_on = obs.enabled()
        self._m_placements = obs.counter(
            "repro_scheduler_placements_total", "pods bound to nodes", ("node",)
        )
        self._m_failures = obs.counter(
            "repro_scheduler_placement_failures_total",
            "scheduling attempts that found no feasible node",
            ("reason",),
        )
        self._m_latency = obs.histogram(
            "repro_scheduler_decision_seconds",
            "wall-clock latency of one scheduling decision",
            buckets=_DECISION_BUCKETS,
        )

    # -- wiring --------------------------------------------------------------

    def attach_node_signals(self, node_name: str, signals: NodeSignals) -> None:
        """Attach memory/zygote probes for one node (build_cluster does this)."""
        self._signals[node_name] = signals

    def _on_pod_event(self, pod: Pod) -> None:
        # Event-driven scheduling: try to place newly pending pods.
        if pod.node_name is None and pod.phase.value == "Pending":
            try:
                self.schedule(pod)
            except SchedulingError:
                # Deliberate: the pod stays Pending for a later sweep()
                # retry once capacity frees up. The failure is not lost —
                # schedule() recorded it on the placement-failures
                # counter with its classified reason label.
                pass

    def _on_capacity_event(self, node_name: str, delta: int) -> None:
        free = self._free_slots.get(node_name)
        if free is not None:
            self._free_slots[node_name] = free + delta

    def _node_order(self) -> List[NodeInfo]:
        if self._order_version != self.api.nodes_version:
            self._order = sorted(self.api.nodes.values(), key=lambda n: n.name)
            self._free_slots = {
                n.name: n.max_pods - n.pod_count for n in self._order
            }
            self._order_version = self.api.nodes_version
        return self._order

    # -- filter --------------------------------------------------------------

    def feasible_nodes(self, pod: Pod) -> List[NodeInfo]:
        handler = self.api.resolve_handler(pod)
        selector = pod.spec.node_selector
        order = self._node_order()  # may rebuild the free-slot map
        free = self._free_slots
        return [
            node
            for node in order
            if not node.unschedulable
            and free[node.name] > 0
            and node.supports_handler(handler)
            and node.matches_selector(selector)
        ]

    def failure_reason(self, pod: Pod) -> str:
        """Classify why no node is feasible for ``pod`` (most-specific
        cause wins)."""
        handler = self.api.resolve_handler(pod)
        nodes = list(self.api.nodes.values())
        if not nodes:
            return "no_nodes"
        nodes = [n for n in nodes if not n.unschedulable]
        if not nodes:
            return "unschedulable"
        nodes = [n for n in nodes if n.matches_selector(pod.spec.node_selector)]
        if not nodes:
            return "selector_mismatch"
        nodes = [n for n in nodes if n.supports_handler(handler)]
        if not nodes:
            return "unsupported_handler"
        return "capacity"

    # -- score + bind --------------------------------------------------------

    def _score(
        self, node: NodeInfo, handler: Optional[str], image: str, warm_capable: bool
    ) -> float:
        score = self.balance_weight * (
            self._free_slots[node.name] / node.max_pods
        )
        signals = self._signals.get(node.name)
        if signals is not None:
            if self.memory_weight:
                alloc = node.allocatable_memory or 1
                avail = 1.0 - signals.working_set() / alloc
                score += self.memory_weight * (avail if avail > 0.0 else 0.0)
            if (
                self.locality_weight
                and warm_capable
                and signals.zygote_warm(handler, image)
            ):
                score += self.locality_weight
        return score

    def schedule(self, pod: Pod) -> NodeInfo:
        t0 = perf_counter() if self._obs_on else 0.0
        handler = self.api.resolve_handler(pod)
        candidates = self.feasible_nodes(pod)
        if not candidates:
            reason = self.failure_reason(pod)
            self._m_failures.labels(reason).inc()
            err = SchedulingError(
                f"0/{len(self.api.nodes)} nodes available for pod {pod.name} "
                f"(handler={handler!r}, reason={reason})"
            )
            err.reason = reason
            raise err
        if len(candidates) == 1:
            # Fast path (and the paper's single-node topology): nothing
            # to rank, so skip the signal probes entirely — the N=1
            # figures see the exact pre-fleet scheduling behavior.
            best = candidates[0]
        else:
            image = pod.spec.containers[0].image if pod.spec.containers else ""
            warm_capable = handler is not None and _has_warm_profile(handler)
            best = candidates[0]
            best_score = self._score(best, handler, image, warm_capable)
            for node in candidates[1:]:
                score = self._score(node, handler, image, warm_capable)
                if score > best_score:  # strict: name order breaks ties
                    best, best_score = node, score
        self.api.bind_pod(pod, best.name)
        self.scheduled_count += 1
        self._m_placements.labels(best.name).inc()
        if self._obs_on:
            self._m_latency.observe(perf_counter() - t0)
        if self.sampler is not None:
            self.sampler.tick()
        return best

    def sweep(self) -> int:
        """Retry all pending pods; returns how many got placed."""
        placed = 0
        for pod in list(self.api.pending_pods()):
            try:
                self.schedule(pod)
                placed += 1
            except SchedulingError:
                continue
        return placed
