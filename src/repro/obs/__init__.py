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

Hand-off: :func:`state` before a unit of work and :func:`delta_since`
after it capture everything the work recorded (registry, trace contexts
with their spans and time-series entries, profile stacks) as one
picklable :class:`TelemetryDelta`; :func:`merge_delta` folds it into
another process's telemetry. A campaign worker ships one per cell and
the parent merges them in cell order, which rebuilds exactly what a
``--jobs 1`` run records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs import profile, timeseries
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
    "TelemetrySettings",
    "TelemetryState",
    "TelemetryDelta",
    "state",
    "delta_since",
    "merge_delta",
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


# -- switches -------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetrySettings:
    """The telemetry switches: what components built from now on record.

    :meth:`capture` reads this process's switches and :meth:`apply` sets
    them in another, so a pool worker records what its parent would.
    """

    metrics: bool = False
    sampling: bool = False
    sampling_period: float = timeseries.DEFAULT_PERIOD
    profiling: bool = False

    @property
    def any(self) -> bool:
        return self.metrics or self.sampling or self.profiling

    @classmethod
    def capture(cls) -> "TelemetrySettings":
        return cls(
            metrics=_enabled,
            sampling=timeseries.sampling_enabled(),
            sampling_period=timeseries.sampling_period(),
            profiling=profile.profiling_enabled(),
        )

    def apply(self) -> None:
        if self.metrics:
            set_enabled(True)
        timeseries.set_sampling(self.sampling, self.sampling_period)
        profile.set_profiling(self.profiling)


# -- hand-off between processes (campaign-engine worker pools) ------------------


class TelemetryState(NamedTuple):
    """Where every telemetry log stood before a unit of work (:func:`state`)."""

    registry: dict
    contexts: int
    spans: int
    entries: int
    stacks: profile.Stacks


class TelemetryDelta(NamedTuple):
    """What a unit of work recorded (:func:`delta_since`).

    ``contexts`` holds the labels of the trace contexts the work opened,
    in opening order. ``spans`` and ``entries`` (time-series log entries)
    are in record order, each tagged with the 1-based position of its
    context in ``contexts``, or 0 for a context that was open before the
    work: :func:`merge_delta` tags those with the context current where
    it merges, which is the one a sequential run had current.
    """

    registry: dict
    contexts: List[str]
    spans: List[Tuple[int, object]]
    entries: List[Tuple[int, timeseries.Entry]]
    stacks: profile.Stacks


def state() -> TelemetryState:
    """Snapshot every telemetry log; pair with :func:`delta_since`."""
    return TelemetryState(
        _registry.state(),
        len(_contexts),
        len(_spans),
        len(timeseries.default_db()._log),
        dict(profile._profiler.stacks),
    )


def delta_since(base: TelemetryState) -> TelemetryDelta:
    """Everything recorded since ``base``, as one picklable object."""
    opened = base.contexts

    def local(cid: int) -> int:
        return cid - opened if cid > opened else 0

    stacks = profile._profiler.stacks
    return TelemetryDelta(
        _registry.delta_since(base.registry),
        [_contexts[cid] for cid in range(opened + 1, len(_contexts) + 1)],
        [(local(cid), span) for cid, span in _spans[base.spans:]],
        [
            (local(cid), entry)
            for cid, entry in timeseries.default_db()._log[base.entries:]
        ],
        {
            key: n - base.stacks.get(key, 0)
            for key, n in stacks.items()
            if n != base.stacks.get(key, 0)
        },
    )


def merge_delta(delta: Optional[TelemetryDelta]) -> None:
    """Fold a :func:`delta_since` result into this process's telemetry.

    The delta's contexts open here, in their order, so merging the
    deltas of a campaign's cells in cell order numbers contexts, and
    orders spans, entries and registry values, exactly as one process
    running the cells in that order would. ``None`` is a no-op.
    """
    if delta is None:
        return
    _registry.merge_delta(delta.registry)
    cids = [_current_context] + [new_context(label) for label in delta.contexts]
    _spans.extend((cids[k], span) for k, span in delta.spans)
    db = timeseries.default_db()
    for k, (kind, name, labels, ts, value) in delta.entries:
        db.append(kind, name, labels, ts, value, cid=cids[k])
    profile._profiler.merge(delta.stacks)


def reset() -> None:
    """Zero all metric values and drop the global trace.

    Family registrations (and handles components already bound) stay
    valid — only values and spans are cleared, so experiments and the
    overhead benchmark can isolate runs within one process. Time-series
    samples and profile stacks clear along with the spans they tag.
    """
    global _current_context
    _registry.reset()
    _contexts.clear()
    _spans.clear()
    _current_context = 0
    timeseries.clear()
    profile.reset()
