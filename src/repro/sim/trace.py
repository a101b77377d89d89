"""Span tracing for simulated activities.

Components record named spans (``category``, ``name``, start/end in
simulated seconds, free-form attributes); the measurement layer reads
per-phase breakdowns from them — the observability needed to *explain*
Figs 8/9 rather than just reproduce them. Beyond startup, the control
plane records ``pod.sync`` (admission → Running), ``recovery.backoff`` /
``recovery.eviction``, and ``recovery.converge`` spans, so a whole
fault-recovery timeline exports as one trace.

What the tracer keeps:

- **Sums for every category.** ``record()`` adds each duration to a
  running ``(total, count)`` per (``config`` attribute, category), in
  record order, so :meth:`Tracer.phase_stats` reads a few dozen sums
  instead of walking the spans, and its totals equal that walk, addition
  for addition.
- **Spans only outside** :data:`PHASES`. The six per-pod categories
  (thousands per experiment) are read only as sums, so the tracer keeps
  none of their spans, and :meth:`Tracer.by_category` refuses them rather
  than answer ``[]``. Every other category keeps its spans for
  ``by_category`` (recovery post-processing, alert incidents).

A tracer can mirror everything it records into a ``sink`` callable —
:mod:`repro.obs` uses this to collect spans process-wide for the Chrome
trace / JSONL exporters without the simulation layer knowing about them.
A :data:`PHASES` span is built only when a sink is attached to receive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: The per-pod categories: summed, mirrored to a sink, never kept.
PHASES = frozenset({
    "startup.pull", "startup.serialized", "startup.parallel", "startup.exec",
    "startup.pipeline", "pod.sync",
})


@dataclass(frozen=True)
class Span:
    category: str  # e.g. "startup.serialized"
    name: str  # e.g. the container id
    start: float
    end: float
    attrs: Tuple[Tuple[str, str], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str) -> Optional[str]:
        for k, v in self.attrs:
            if k == key:
                return v
        return None


class Tracer:
    """Running phase sums per config, plus the spans outside :data:`PHASES`."""

    def __init__(self, sink: Optional[Callable[[Span], None]] = None) -> None:
        #: optional mirror for every recorded span (process-wide collection)
        self.sink = sink
        #: (config, category) → [total seconds, span count], in record order
        self._sums: Dict[Tuple[Optional[str], str], List] = {}
        self._by_category: Dict[str, List[Span]] = {}

    def record(
        self, category: str, name: str, start: float, end: float, **attrs: str
    ) -> None:
        if end < start:
            raise ValueError(f"span {category}/{name} ends before it starts")
        key = (attrs.get("config"), category)
        entry = self._sums.get(key)
        if entry is None:
            entry = self._sums[key] = [0.0, 0]
        entry[0] += end - start
        entry[1] += 1
        kept = category not in PHASES
        sink = self.sink
        if kept or sink is not None:
            span = Span(category, name, start, end, tuple(sorted(attrs.items())))
            if kept:
                self._by_category.setdefault(category, []).append(span)
            if sink is not None:
                sink(span)

    def by_category(self, category: str) -> List[Span]:
        if category in PHASES:
            raise SimulationError(
                f"{category} spans are not kept: read phase_stats, or attach a sink"
            )
        return list(self._by_category.get(category, ()))

    def phase_means(self, config: str) -> Dict[str, float]:
        """Mean span duration per category among spans of ``config``."""
        return {c: total / n for c, (total, n) in self.phase_stats(config).items()}

    def phase_stats(self, config: str) -> Dict[str, Tuple[float, int]]:
        """Per-category ``(total_seconds, span_count)`` among spans of ``config``.

        The mergeable form of :meth:`phase_means`: summing the pairs
        across several tracers (one per fleet node) and dividing yields
        the exact fleet-wide mean per phase.
        """
        return {
            category: (total, n)
            for (of, category), (total, n) in self._sums.items()
            if of == config
        }
