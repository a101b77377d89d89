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
degrades to pure balance scoring. Tie-break is deterministic: of the
nodes with the highest score, the first in name order wins.

Decisions are incremental. Pods of one (handler, image, node selector)
class share a ranking: the class's statically feasible nodes (handler
supported, selector matched, ``max_pods > 0``), cached against
``APIServer.nodes_version``, and a heap of ``(-score, name)`` entries.
Before a decision only the nodes marked dirty since the last one are
re-scored, by three sources:

* the API server's capacity watch (bind = -1, delete = +1 free slot),
* a one-shot notice from the node's memory ledger, armed when the
  ranking last read the node's working set, fired by the next write to
  the ledger's running totals,
* the node's zygote watch, when a container leaves a new snapshot.

``unschedulable`` (written directly by node failure and tests) and free
slots are checked only when an entry reaches the top of the heap, and
skipped entries go back. Scores come from the same expression a full
scan would compute, so the first current entry that passes both checks
is the node a strict-``>`` scan in name order picks. A class with one
statically feasible node is never scored, so single-node runs probe no
signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import SchedulingError
from repro.k8s.apiserver import APIServer
from repro.k8s.objects import NodeInfo, Pod

#: wall-clock decision latency buckets: scheduling is microseconds here
_DECISION_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2,
)

#: a notice: called with no arguments when a node's state changed
Notice = Callable[[], None]


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

    The two watches tell the scheduler when those answers may have
    changed: ``watch_working_set(fn)`` calls ``fn()`` once, at the next
    change of the working set
    (:meth:`SystemMemoryModel.notify_next_change`), and
    ``watch_zygotes(fn)`` calls ``fn()`` whenever the node gains a
    snapshot (:meth:`NodeEnv.watch_zygotes`).
    """

    working_set: Callable[[], int]
    zygote_warm: Callable[[str, str], bool]
    watch_working_set: Callable[[Notice], None]
    watch_zygotes: Callable[[Notice], None]


class _Ranking:
    """One pod class's statically feasible nodes, best score first."""

    __slots__ = (
        "nodes", "handler", "image", "warm_capable", "heap", "entries", "dirty"
    )

    def __init__(
        self, nodes: List[NodeInfo], handler: Optional[str], image: str
    ) -> None:
        self.nodes: Dict[str, NodeInfo] = {n.name: n for n in nodes}
        self.handler = handler
        self.image = image
        self.warm_capable = handler is not None and _has_warm_profile(handler)
        #: (-score, name) entries; one is current per node, the rest are
        #: stale and dropped when they reach the top
        self.heap: List[Tuple[float, str]] = []
        self.entries: Dict[str, Tuple[float, str]] = {}
        #: nodes to re-score before the next decision
        self.dirty: Set[str] = set(self.nodes)


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
        self._signals: Dict[str, NodeSignals] = {}
        #: per-node notice that marks the node dirty in every ranking
        self._notices: Dict[str, Notice] = {}
        #: name-sorted node order, cached against api.nodes_version
        self._order: List[NodeInfo] = []
        self._order_version = -1
        #: free pod slots per node, maintained incrementally on bind/delete
        self._free_slots: Dict[str, int] = {}
        #: (handler, image, selector items) -> ranking; dropped with _order
        self._rankings: Dict[tuple, _Ranking] = {}
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
        notice = partial(self._node_changed, node_name)
        self._notices[node_name] = notice
        self._signals[node_name] = signals
        self._rankings.clear()
        signals.watch_zygotes(notice)

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
            self._node_changed(node_name)

    def _node_changed(self, node_name: str) -> None:
        """Mark a node for re-scoring in every ranking that holds it."""
        for ranking in self._rankings.values():
            if node_name in ranking.nodes:
                ranking.dirty.add(node_name)

    def _node_order(self) -> List[NodeInfo]:
        if self._order_version != self.api.nodes_version:
            self._order = sorted(self.api.nodes.values(), key=lambda n: n.name)
            self._free_slots = {
                n.name: n.max_pods - n.pod_count for n in self._order
            }
            self._rankings.clear()
            self._order_version = self.api.nodes_version
        return self._order

    # -- filter --------------------------------------------------------------

    def _ranking(self, pod: Pod, handler: Optional[str]) -> _Ranking:
        """The ranking of ``pod``'s class, built on first use."""
        order = self._node_order()  # may drop every ranking
        spec = pod.spec
        image = spec.containers[0].image if spec.containers else ""
        selector = spec.node_selector
        items = tuple(sorted(selector.items())) if selector else ()
        key = (handler, image, items)
        ranking = self._rankings.get(key)
        if ranking is None:
            ranking = _Ranking(
                [
                    node
                    for node in order
                    if node.max_pods > 0
                    and node.supports_handler(handler)
                    and node.matches_selector(selector)
                ],
                handler,
                image,
            )
            self._rankings[key] = ranking
        return ranking

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

    def _rescore(self, ranking: _Ranking, name: str) -> None:
        node = ranking.nodes[name]
        score = self._score(
            node, ranking.handler, ranking.image, ranking.warm_capable
        )
        signals = self._signals.get(name)
        if signals is not None and self.memory_weight:
            signals.watch_working_set(self._notices[name])
        entry = ranking.entries.get(name)
        if entry is None or entry[0] != -score:
            entry = (-score, name)
            ranking.entries[name] = entry
            heappush(ranking.heap, entry)

    def _pick(self, ranking: _Ranking) -> Optional[NodeInfo]:
        """The best node of ``ranking`` that is schedulable and has room."""
        free = self._free_slots
        if len(ranking.nodes) == 1:
            # Nothing to rank (the paper's single-node topology): skip
            # the signal probes entirely, so the N=1 figures see the
            # exact pre-fleet scheduling behavior.
            (node,) = ranking.nodes.values()
            return node if not node.unschedulable and free[node.name] > 0 else None
        for name in ranking.dirty:
            self._rescore(ranking, name)
        ranking.dirty.clear()
        heap, entries = ranking.heap, ranking.entries
        if len(heap) > 4 * len(entries):
            heap[:] = entries.values()
            heapify(heap)
        best = None
        skipped = []
        while heap:
            entry = heap[0]
            name = entry[1]
            if entries[name] is not entry:
                heappop(heap)  # stale: the node was re-scored since
                continue
            node = ranking.nodes[name]
            if node.unschedulable or free[name] <= 0:
                skipped.append(heappop(heap))
                continue
            best = node
            break
        for entry in skipped:
            heappush(heap, entry)
        return best

    def schedule(self, pod: Pod) -> NodeInfo:
        t0 = perf_counter() if self._obs_on else 0.0
        handler = self.api.resolve_handler(pod)
        best = self._pick(self._ranking(pod, handler))
        if best is None:
            reason = self.failure_reason(pod)
            self._m_failures.labels(reason).inc()
            err = SchedulingError(
                f"0/{len(self.api.nodes)} nodes available for pod {pod.name} "
                f"(handler={handler!r}, reason={reason})"
            )
            err.reason = reason
            raise err
        self.api.bind_pod(pod, best.name)
        self.scheduled_count += 1
        self._m_placements.labels(best.name).inc()
        if self._obs_on:
            self._m_latency.observe(perf_counter() - t0)
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
