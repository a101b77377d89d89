"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns metric *families* keyed by name; a family
with label names fans out into per-label-value children on first use
(``family.labels(...)``), mirroring the Prometheus client model. Values
are plain Python numbers — an increment is one attribute add — so the
collecting path stays cheap enough to leave on during full campaigns.

Two properties matter to the rest of the stack:

* **get-or-create registration** — instrumented components call
  ``registry.counter(name, ...)`` from their constructors; the first call
  registers the family, later calls (a second cluster in the same
  process) return the same family, so values aggregate process-wide.
* **null metrics** — :data:`NULL_METRIC` absorbs the full metric API as
  no-ops. Components bind it instead of a live child when telemetry is
  disabled, which is what makes instrumentation zero-cost-when-disabled
  (see ``benchmarks/test_obs_overhead.py`` for the measured contract).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

#: Default histogram buckets: tuned for simulated/wall latencies in
#: seconds — spans from sub-millisecond decisions to multi-second phases.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class NullMetric:
    """No-op stand-in bound by call sites when telemetry is off.

    Implements the union of the child APIs (counter/gauge/histogram) so
    one shared instance serves every site. ``labels`` returns itself, so
    ``handle.labels(x).inc()`` is two no-op calls and no allocation.
    """

    __slots__ = ()

    def labels(self, *values: str, **kv: str) -> "NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def reset(self) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


NULL_METRIC = NullMetric()


class _Child:
    """One (family, label-values) time series."""

    __slots__ = ("_family",)

    def __init__(self, family: "MetricFamily") -> None:
        self._family = family


class CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise SimulationError("counters only go up; use a gauge")
        self.value += amount
        self._family.registry.events += 1

    def reset(self) -> None:
        self.value = 0.0


class GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        self._family.registry.events += 1

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self._family.registry.events += 1

    def reset(self) -> None:
        self.value = 0.0


#: Fixed-point grid (nano-units) for the histogram's exact shadow sum.
#: Integer accumulation is associative, so a baseline subtraction over
#: ``sum_units`` is independent of whatever the child accumulated
#: before — which the time-series sampler needs for ``--jobs N``
#: byte-identity (float ``sum`` drifts by ulps per accumulation order).
SUM_UNITS_PER = 10**9


class HistogramChild(_Child):
    __slots__ = ("bucket_counts", "sum", "count", "sum_units")

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self.bucket_counts = [0] * len(family.buckets)
        self.sum = 0.0
        self.count = 0
        self.sum_units = 0

    def observe(self, value: float) -> None:
        buckets = self._family.buckets
        for i, upper in enumerate(buckets):
            if value <= upper:
                self.bucket_counts[i] += 1
                break
        self.sum += value
        self.sum_units += int(round(value * SUM_UNITS_PER))
        self.count += 1
        self._family.registry.events += 1

    def cumulative_buckets(self) -> List[int]:
        """Cumulative per-``le`` counts, Prometheus exposition style."""
        out, running = [], 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return out

    def reset(self) -> None:
        self.bucket_counts = [0] * len(self._family.buckets)
        self.sum = 0.0
        self.count = 0
        self.sum_units = 0


_CHILD_TYPES = {"counter": CounterChild, "gauge": GaugeChild, "histogram": HistogramChild}


def _label_sort_key(value: str) -> Tuple[int, float, str]:
    """Numbers sort by value before strings sort lexically."""
    try:
        return (0, float(value), "")
    except ValueError:
        return (1, 0.0, value)


class MetricFamily:
    """One named metric family; children keyed by label values."""

    __slots__ = (
        "registry", "name", "kind", "help", "labelnames", "buckets",
        "_children", "_sorted", "_solo",
    )

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = tuple(sorted(buckets))
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._sorted: Optional[List[Tuple[Tuple[str, ...], _Child]]] = None
        #: the single series of a labelless family (materialized at 0)
        self._solo: Optional[_Child] = None if labelnames else self.labels()

    def labels(self, *values: str, **kv: str) -> _Child:
        """Child for one label-value combination (created on first use)."""
        if kv:
            if values:
                raise SimulationError("pass label values positionally or by name, not both")
            values = tuple(kv[name] for name in self.labelnames)
        if len(values) != len(self.labelnames):
            raise SimulationError(
                f"{self.name}: expected labels {self.labelnames}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = _CHILD_TYPES[self.kind](self)
            self._children[key] = child
            self._sorted = None
        return child

    # Labelless convenience: family doubles as its single child. A family
    # with label names has no ``_solo``; ``labels()`` raises for it.
    def inc(self, amount: float = 1.0) -> None:
        (self._solo or self.labels()).inc(amount)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        (self._solo or self.labels()).set(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        (self._solo or self.labels()).observe(value)  # type: ignore[union-attr]

    @property
    def value(self) -> float:
        return (self._solo or self.labels()).value  # type: ignore[union-attr]

    def samples(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        """Children in numeric-aware sorted label order.

        Plain string sort puts ``le="10"`` before ``le="2"``; exports
        must list histogram buckets (and any numeric label) in value
        order so runs diff cleanly. Non-numeric values keep string
        order, after all numeric ones; ``+Inf`` parses as a float and
        lands last among numbers on its own.

        The sorted view is cached (children are append-only, so it only
        goes stale when a new child materializes) — the time-series
        sampler calls this for every family on every tick. Callers must
        not mutate the returned list.
        """
        if self._sorted is None:
            self._sorted = sorted(
                self._children.items(),
                key=lambda item: tuple(_label_sort_key(v) for v in item[0]),
            )
        return self._sorted

    def reset(self) -> None:
        for child in self._children.values():
            child.reset()


class MetricsRegistry:
    """A named set of metric families with get-or-create registration."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        #: total metric observations recorded (for the overhead contract)
        self.events = 0

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Iterable[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise SimulationError(
                    f"metric {name!r} re-registered as {kind}{tuple(labelnames)}, "
                    f"was {family.kind}{family.labelnames}"
                )
            return family
        family = MetricFamily(
            self,
            name,
            kind,
            help,
            tuple(labelnames),
            tuple(buckets) if buckets is not None else DEFAULT_BUCKETS,
        )
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._get_or_create(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._get_or_create(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> MetricFamily:
        return self._get_or_create(name, "histogram", help, labelnames, buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def collect(self) -> List[MetricFamily]:
        """All families, name-sorted (the exporters' iteration order)."""
        return [self._families[name] for name in sorted(self._families)]

    def reset(self) -> None:
        """Zero every series, keeping registrations and bound handles valid."""
        for family in self._families.values():
            family.reset()
        self.events = 0

    # -- mergeable state (campaign-engine worker pools) --------------------

    def state(self) -> dict:
        """Picklable snapshot of every family's values.

        The shape round-trips through :meth:`delta_since` /
        :meth:`merge_delta`: a worker snapshots before running a cell,
        computes the delta after, and ships the delta back; the parent
        merges deltas in caller cell order, which reproduces the exact
        totals a sequential (``--jobs 1``) run would have produced.
        """
        families = {}
        for name, family in self._families.items():
            children = {}
            for key, child in family._children.items():
                if family.kind == "histogram":
                    children[key] = (
                        tuple(child.bucket_counts),  # type: ignore[union-attr]
                        child.sum,  # type: ignore[union-attr]
                        child.count,  # type: ignore[union-attr]
                        child.sum_units,  # type: ignore[union-attr]
                    )
                else:
                    children[key] = child.value  # type: ignore[union-attr]
            families[name] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": family.labelnames,
                "buckets": family.buckets,
                "children": children,
            }
        return {"events": self.events, "families": families}

    def delta_since(self, base: dict) -> dict:
        """Difference between the current state and a prior :meth:`state`.

        Counters and histograms subtract (they only grow); gauges carry
        their final value plus a *touched* marker so a merge applies
        last-writer-wins set semantics. Families and children that did
        not change are included anyway when newly registered, so merging
        a delta also propagates registrations (a family a worker created
        must exist in the parent's export even if every value is zero).
        """
        base_families = base.get("families", {})
        families = {}
        for name, family in self._families.items():
            base_children = base_families.get(name, {}).get("children", {})
            is_new_family = name not in base_families
            children = {}
            for key, child in family._children.items():
                if family.kind == "histogram":
                    prev = base_children.get(
                        key, ((0,) * len(family.buckets), 0.0, 0, 0)
                    )
                    dbuckets = tuple(
                        n - p
                        for n, p in zip(child.bucket_counts, prev[0])  # type: ignore[union-attr]
                    )
                    dsum = child.sum - prev[1]  # type: ignore[union-attr]
                    dcount = child.count - prev[2]  # type: ignore[union-attr]
                    dunits = child.sum_units - prev[3]  # type: ignore[union-attr]
                    if dcount or dsum or key not in base_children:
                        children[key] = (dbuckets, dsum, dcount, dunits)
                elif family.kind == "counter":
                    dv = child.value - base_children.get(key, 0.0)  # type: ignore[union-attr]
                    if dv or key not in base_children:
                        children[key] = dv
                else:  # gauge: final value + touched marker
                    value = child.value  # type: ignore[union-attr]
                    if key not in base_children or value != base_children[key]:
                        children[key] = value
            if children or is_new_family:
                families[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "labelnames": family.labelnames,
                    "buckets": family.buckets,
                    "children": children,
                }
        return {"events": self.events - base.get("events", 0), "families": families}

    def merge_delta(self, delta: dict) -> None:
        """Fold a :meth:`delta_since` result into this registry.

        Counter/histogram deltas add; gauge entries set. Applying the
        per-cell deltas of a run in the sequential cell order yields the
        exact registry a ``--jobs 1`` run would have built.

        ``None``/empty deltas are no-ops: a pool worker ships ``None``
        for any telemetry channel that is off.
        """
        if not delta:
            return
        for name, spec in delta.get("families", {}).items():
            family = self._get_or_create(
                name, spec["kind"], spec["help"], spec["labelnames"], spec["buckets"]
            )
            if family.buckets != tuple(spec["buckets"]):
                raise SimulationError(
                    f"metric {name!r}: bucket mismatch merging worker delta"
                )
            for key, payload in spec["children"].items():
                child = family.labels(*key)
                if spec["kind"] == "histogram":
                    dbuckets, dsum, dcount, dunits = payload
                    for i, n in enumerate(dbuckets):
                        child.bucket_counts[i] += n  # type: ignore[union-attr]
                    child.sum += dsum  # type: ignore[union-attr]
                    child.count += dcount  # type: ignore[union-attr]
                    child.sum_units += dunits  # type: ignore[union-attr]
                elif spec["kind"] == "counter":
                    child.value += payload  # type: ignore[union-attr]
                else:
                    child.value = payload  # type: ignore[union-attr]
        self.events += delta.get("events", 0)
