"""``repro.obs`` — cluster-wide telemetry: metrics, spans, exporters.

The observability layer the paper's analysis needs: every subsystem
(scheduler, kubelet, containerd, fault plan, memory accountant, engine
caches, interpreter, WASI host) records into a **process-wide default
registry** and every node tracer can mirror its spans into a
**process-wide trace**, which the exporters in :mod:`repro.obs.export`
turn into Prometheus text, Chrome trace-event JSON, or JSONL.

Telemetry is off by default and **zero-cost when disabled**: call sites
bind metric handles at component construction time, and with telemetry
off they get :data:`~repro.obs.registry.NULL_METRIC` (no-op methods, no
allocation). Flip it with :func:`set_enabled` *before* building a
cluster/plan; the CLI's export flags (``--trace-out``, ``--metrics-out``,
``--timeseries-out``, ``--profile-out``) do this. The one exception is
metrics registered with ``always=True`` (the engine cache hit/miss
counters), which collect regardless so existing cache-stats semantics
survive.

Span collection: each :class:`~repro.sim.trace.Tracer` built while
telemetry is enabled gets a sink tagging its spans with the **current
trace context** (one per experiment/cluster, labelled by
:func:`new_context`), so a 27-experiment campaign exports as 27 separate
tracks instead of one interleaved soup.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    NULL_METRIC,
    NullMetric,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_METRIC",
    "NullMetric",
    "enabled",
    "set_enabled",
    "default_registry",
    "counter",
    "gauge",
    "histogram",
    "new_context",
    "current_context",
    "context_labels",
    "span_sink",
    "tagged_spans",
    "span_watermark",
    "span_groups_since",
    "adopt_span_groups",
    "adopt_telemetry_groups",
    "reset",
]

_enabled = False
_registry = MetricsRegistry()

# -- global trace: (context id, Span) pairs ------------------------------------
_contexts: Dict[int, str] = {}
_spans: List[Tuple[int, "object"]] = []
_current_context: int = 0


def enabled() -> bool:
    """Is telemetry collection on for components built from now on?"""
    return _enabled


def set_enabled(on: bool) -> None:
    """Toggle telemetry. Affects components *constructed afterwards*."""
    global _enabled
    _enabled = bool(on)


def default_registry() -> MetricsRegistry:
    """The process-wide registry every exporter and CLI flag reads."""
    return _registry


def counter(
    name: str, help: str = "", labelnames: Sequence[str] = (), always: bool = False
):
    """A counter family from the default registry, or the null metric.

    ``always=True`` registers and collects even with telemetry disabled —
    for counters other code depends on functionally (engine cache stats).
    """
    if _enabled or always:
        return _registry.counter(name, help, labelnames)
    return NULL_METRIC


def gauge(name: str, help: str = "", labelnames: Sequence[str] = (), always: bool = False):
    if _enabled or always:
        return _registry.gauge(name, help, labelnames)
    return NULL_METRIC


def histogram(
    name: str,
    help: str = "",
    labelnames: Sequence[str] = (),
    buckets=None,
    always: bool = False,
):
    if _enabled or always:
        return _registry.histogram(name, help, labelnames, buckets)
    return NULL_METRIC


# -- trace contexts ------------------------------------------------------------


def new_context(label: str) -> int:
    """Open a trace context (one experiment/cluster) and make it current."""
    global _current_context
    cid = len(_contexts) + 1
    _contexts[cid] = label
    _current_context = cid
    return cid


def current_context() -> int:
    """The context id tracers built now should tag spans with (0 = none)."""
    return _current_context


def context_labels() -> Dict[int, str]:
    return dict(_contexts)


def span_sink(cid: Optional[int] = None) -> Callable[[object], None]:
    """A Tracer sink appending (context, span) to the process-wide trace."""
    if cid is None:
        cid = _current_context or new_context("default")

    def sink(span: object, _cid: int = cid) -> None:
        _spans.append((_cid, span))

    return sink


def tagged_spans() -> List[Tuple[int, "object"]]:
    """Every span mirrored into the global trace, in record order."""
    return list(_spans)


# -- cross-process trace merge (campaign-engine worker pools) ------------------
#
# A pool worker cannot share the parent's context-id counter, so worker
# spans travel back *grouped by context label* and the parent re-numbers
# them with its own :func:`new_context`. Replaying groups in sequential
# cell order reproduces the exact context ids and span order a
# ``--jobs 1`` run would have assigned, making trace exports byte-stable
# across ``--jobs N``.


def span_watermark() -> int:
    """Marker into the global span log (pair with :func:`span_groups_since`)."""
    return len(_spans)


def span_groups_since(mark: int) -> List[Tuple[str, List[object]]]:
    """Spans recorded after ``mark``, grouped by context label.

    Groups are ordered by first appearance, spans within a group in
    record order — the shape :func:`adopt_span_groups` replays.
    """
    groups: List[Tuple[str, List[object]]] = []
    index: Dict[int, int] = {}
    for cid, span in _spans[mark:]:
        pos = index.get(cid)
        if pos is None:
            index[cid] = len(groups)
            groups.append((_contexts.get(cid, "default"), [span]))
        else:
            groups[pos][1].append(span)
    return groups


def adopt_span_groups(groups: Sequence[Tuple[str, Sequence[object]]]) -> None:
    """Replay another process's span groups into this process's trace.

    Each group opens a fresh context here (parent numbering), then its
    spans append in order.
    """
    for label, spans in groups:
        cid = new_context(label)
        for span in spans:
            _spans.append((cid, span))


def adopt_telemetry_groups(
    span_groups: Sequence[Tuple[str, Sequence[object]]],
    sample_groups: Sequence[Tuple[str, Sequence[object]]] = (),
) -> None:
    """Replay a worker cell's spans *and* time-series entries jointly.

    Context ids must line up across both logs (a Chrome counter track's
    pid is its span process track), so labels open one context each —
    in first-appearance order across span groups, then sample groups —
    and both logs adopt under the shared numbering.
    """
    from repro.obs import timeseries

    cids: Dict[str, int] = {}
    for label, _ in list(span_groups) + list(sample_groups):
        if label not in cids:
            cids[label] = new_context(label)
    for label, spans in span_groups:
        cid = cids[label]
        for span in spans:
            _spans.append((cid, span))
    db = timeseries.default_db()
    for label, entries in sample_groups:
        db.adopt(cids[label], entries)


def reset() -> None:
    """Zero all metric values and drop the global trace.

    Family registrations (and handles components already bound) stay
    valid — only values and spans are cleared, so experiments and the
    overhead benchmark can isolate runs within one process. Time-series
    samples and profile stacks clear along with the spans they tag.
    """
    global _current_context
    from repro.obs import profile, timeseries

    _registry.reset()
    _contexts.clear()
    _spans.clear()
    _current_context = 0
    timeseries.clear()
    profile.reset()
