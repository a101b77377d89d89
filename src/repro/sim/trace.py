"""Span tracing for simulated activities.

Components record named spans (``category``, ``name``, start/end in
simulated seconds, free-form attributes); the measurement layer
aggregates them into per-phase breakdowns — the observability needed to
*explain* Figs 8/9 rather than just reproduce them. Beyond startup, the
control plane records ``pod.sync`` (admission → Running),
``recovery.backoff`` / ``recovery.eviction``, and ``recovery.converge``
spans, so a whole fault-recovery timeline exports as one trace.

Queries are indexed: ``record()`` maintains a per-category and a
per-attribute index, so ``by_category``/``filtered`` touch only matching
spans instead of scanning the full log (the 400-pod experiment records
thousands of spans; recovery post-processing reads categories holding a
few dozen).

A tracer can mirror everything it records into a ``sink`` callable —
:mod:`repro.obs` uses this to collect spans process-wide for the Chrome
trace / JSONL exporters without the simulation layer knowing about them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


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


@dataclass
class Tracer:
    """Append-only span log with category/attribute indexes."""

    spans: List[Span] = field(default_factory=list)
    enabled: bool = True
    #: optional mirror for every recorded span (process-wide collection)
    sink: Optional[Callable[[Span], None]] = None
    _by_category: Dict[str, List[Span]] = field(
        default_factory=dict, init=False, repr=False
    )
    _by_attr: Dict[Tuple[str, str], List[Span]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        for span in self.spans:
            self._index(span)

    def _index(self, span: Span) -> None:
        self._by_category.setdefault(span.category, []).append(span)
        for pair in span.attrs:
            self._by_attr.setdefault(pair, []).append(span)

    def record(
        self, category: str, name: str, start: float, end: float, **attrs: str
    ) -> None:
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"span {category}/{name} ends before it starts")
        span = Span(category, name, start, end, tuple(sorted(attrs.items())))
        self.spans.append(span)
        self._index(span)
        if self.sink is not None:
            self.sink(span)

    def by_category(self, category: str) -> List[Span]:
        return list(self._by_category.get(category, ()))

    def categories(self) -> List[str]:
        return sorted(self._by_category)

    def filtered(self, **attrs: str) -> List[Span]:
        """Spans carrying every given attribute value.

        Scans only the smallest matching attribute bucket, then verifies
        the remaining attrs — O(best bucket), not O(all spans).
        """
        if not attrs:
            return list(self.spans)
        buckets = [self._by_attr.get(pair, []) for pair in attrs.items()]
        smallest = min(buckets, key=len)
        if len(attrs) == 1:
            return list(smallest)
        return [
            s for s in smallest if all(s.attr(k) == v for k, v in attrs.items())
        ]

    def phase_totals(self, **attrs: str) -> Dict[str, float]:
        """Total simulated seconds per category, optionally filtered."""
        return {c: total for c, (total, _) in self.phase_stats(**attrs).items()}

    def phase_means(self, **attrs: str) -> Dict[str, float]:
        """Mean span duration per category, optionally filtered."""
        return {c: total / n for c, (total, n) in self.phase_stats(**attrs).items()}

    def phase_stats(self, **attrs: str) -> Dict[str, Tuple[float, int]]:
        """Per-category ``(total_seconds, span_count)``, optionally filtered.

        The mergeable form of :meth:`phase_means`: summing the pairs
        across several tracers (one per fleet node) and dividing yields
        the exact fleet-wide mean per phase.
        """
        sums: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        for span in self.filtered(**attrs) if attrs else self.spans:
            sums[span.category] += span.duration
            counts[span.category] += 1
        return {c: (sums[c], counts[c]) for c in sums}

    def clear(self) -> None:
        self.spans.clear()
        self._by_category.clear()
        self._by_attr.clear()
