"""Sim-clock time-series store + sampler (TSDB-lite).

``repro.obs`` exports *final* registry state; this module records how it
evolved.  A :class:`Sampler` scrapes the ambient :class:`MetricsRegistry`
(and any registered collector callbacks, e.g. the cluster monitor's
metrics-server scrape) into a :class:`TimeSeriesDB`: an append-only log
of ``(kind, name, labels, ts, value)`` tuples with a columnar per-series
index for queries.

Scrapes are periodic on the simulated clock.  The sampler schedules
:meth:`Sampler.tick` as a kernel daemon entry (``Kernel.daemon_at``) at
every k·period from cluster birth, so each scrape is stamped exactly
k·period and a quiet interval is sampled at every boundary it spans.
Daemon entries run only while regular events are pending: the last
scheduled scrape is the last boundary at or before the final event, and
experiment/chaos ends force one more with :meth:`Sampler.sample_now` so
alerts see the converged state.  Window queries (``rate``,
``*_over_time``) and alert ``for`` durations thus depend on the period,
not on how dense the events are.

Everything here runs on *simulated* time, so a campaign's series are
deterministic: the same seed produces the same samples at the same
timestamps, byte for byte, at any ``--jobs N``.  A worker's entries
reach the parent with the rest of its telemetry: ``repro.obs.delta_since``
takes the entries a cell appended, tagged by the trace context they
belong to, and ``repro.obs.merge_delta`` appends them to the parent's
log in cell order.

Determinism contract
--------------------
* Counter/histogram families are sampled as *increases since the sampler
  was built* (cluster birth), so values are cell-local regardless of
  which worker process ran the cell.  Zero deltas are suppressed: which
  untouched children exist in a registry is process-warmth, not signal.
* Gauges are sampled only under the ``repro_monitor_`` prefix — those
  are refreshed by collector callbacks each scrape, so they never leak
  stale cross-cell state.
* Wall-clock histogram families (:data:`WALLCLOCK_FAMILIES`) measure
  *host* time and are excluded from the scrape entirely.
* Engine-cache warmth counters are deterministic per cell because every
  telemetry-enabled cell starts from a cold engine cache (see
  ``measure/experiment.py``).
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.errors import SimulationError
from repro.obs.registry import SUM_UNITS_PER, MetricsRegistry

if TYPE_CHECKING:
    from repro.sim.kernel import Kernel

#: Default scrape period, in simulated seconds. One sample per simulated
#: second resolves second-scale phenomena (cold starts, recovery arcs)
#: while keeping the sampler within its overhead budget on 400-pod runs
#: (see ``benchmarks/test_monitor_overhead.py``); pass a finer period to
#: ``set_sampling`` when a dashboard needs it.
DEFAULT_PERIOD = 1.0

#: Samples retained per series in the columnar index (the log keeps all
#: entries for export; the index is what queries read).
DEFAULT_RETENTION = 4096

#: Histogram families observing *host* wall-clock time.  Nondeterministic
#: by construction; never sampled.
WALLCLOCK_FAMILIES = frozenset(
    {
        "repro_scheduler_decision_seconds",
        "repro_specialize_pass_seconds",
        "repro_zygote_restore_seconds",
    }
)

#: Gauge prefix the sampler trusts: collector-refreshed each scrape.
MONITOR_GAUGE_PREFIX = "repro_monitor_"

Labels = Tuple[Tuple[str, str], ...]
Entry = Tuple[str, str, Labels, float, float]  # kind, name, labels, ts, value


class TimeSeriesDB:
    """Append-only sample/alert log with a columnar per-series index.

    Entries are tagged with the ambient obs context id so exports can
    align counter tracks with the span process tracks in Chrome traces.
    """

    def __init__(self, retention: int = DEFAULT_RETENTION) -> None:
        self.retention = retention
        self._log: List[Tuple[int, Entry]] = []
        self._index: Dict[Tuple[int, str, Labels], List[Tuple[float, float]]] = {}

    # -- ingest ---------------------------------------------------------------

    def append(self, kind: str, name: str, labels: Labels, ts: float, value: float,
               cid: Optional[int] = None) -> None:
        if cid is None:
            from repro import obs

            cid = obs.current_context()
        entry = (kind, name, labels, float(ts), float(value))
        self._log.append((cid, entry))
        if kind == "sample":
            points = self._index.setdefault((cid, name, labels), [])
            points.append((entry[3], entry[4]))
            if len(points) > self.retention:
                del points[: len(points) - self.retention]

    # -- queries (instant / range) --------------------------------------------
    #
    # Every query reads one trace context ``cid``: a run's alerts see that
    # run's samples and no other run's in the same log.

    def series_labels(self, name: str, match: Labels = (), *, cid: int
                      ) -> List[Labels]:
        """All label sets recorded for ``name`` whose items include ``match``."""
        out = []
        want = set(match)
        for (c, n, lbls) in self._index:
            if c == cid and n == name and want <= set(lbls) and lbls not in out:
                out.append(lbls)
        return out

    def instant(self, name: str, labels: Labels = (), at: Optional[float] = None,
                *, cid: int) -> Optional[float]:
        """Most recent value at or before ``at`` (last sample if None)."""
        pts = self._index.get((cid, name, labels), [])
        if at is not None:
            pts = [p for p in pts if p[0] <= at]
        return pts[-1][1] if pts else None

    def window(self, name: str, labels: Labels, at: float, window: float,
               *, cid: int) -> List[Tuple[float, float]]:
        lo = at - window
        return [p for p in self._index.get((cid, name, labels), []) if lo <= p[0] <= at]

    def increase(self, name: str, labels: Labels, at: float, window: float,
                 *, cid: int) -> Optional[float]:
        """last - first over the window; None with <2 points."""
        pts = self.window(name, labels, at, window, cid=cid)
        if len(pts) < 2:
            return None
        return pts[-1][1] - pts[0][1]

    def rate(self, name: str, match: Labels, at: float, window: float,
             *, cid: int) -> Optional[float]:
        """Sum of per-series increase/elapsed across label-matching series."""
        total = None
        for lbls in self.series_labels(name, match, cid=cid):
            pts = self.window(name, lbls, at, window, cid=cid)
            if len(pts) < 2:
                continue
            elapsed = pts[-1][0] - pts[0][0]
            if elapsed <= 0:
                continue
            total = (total or 0.0) + (pts[-1][1] - pts[0][1]) / elapsed
        return total

    def over_time(self, fn: str, name: str, labels: Labels, at: float,
                  window: float, *, cid: int) -> Optional[float]:
        """avg|max|sum over the raw points in the window."""
        pts = self.window(name, labels, at, window, cid=cid)
        if not pts:
            return None
        values = [v for _, v in pts]
        if fn == "avg":
            return sum(values) / len(values)
        if fn == "max":
            return max(values)
        if fn == "sum":
            return sum(values)
        raise ValueError(f"unknown over_time fn {fn!r}")

    def histogram_quantile(self, name: str, q: float, at: float, window: float,
                           match: Labels = (), *, cid: int) -> Optional[float]:
        """Quantile over the histogram's *increase* in the window.

        Buckets are the synthetic ``<name>_bucket{le=...}`` series the
        sampler emits; the quantile math is shared with
        ``measure/stats.py``.
        """
        from repro.measure import stats

        bucket_name = name + "_bucket"
        per_le: Dict[float, float] = {}
        for lbls in self.series_labels(bucket_name, match, cid=cid):
            le = dict(lbls).get("le")
            if le is None:
                continue
            inc = self.increase(bucket_name, lbls, at, window, cid=cid)
            if inc is None:
                continue
            upper = math.inf if le == "+Inf" else float(le)
            per_le[upper] = per_le.get(upper, 0.0) + inc
        if not per_le:
            return None
        uppers = sorted(u for u in per_le if u != math.inf)
        cumulative = [per_le[u] for u in uppers]
        total = per_le.get(math.inf, cumulative[-1] if cumulative else 0.0)
        # Cumulative -> per-bucket counts (stats takes non-cumulative).
        counts, prev = [], 0.0
        for c in cumulative:
            counts.append(max(0.0, c - prev))
            prev = c
        if total <= 0:
            return None
        return stats.histogram_quantile(uppers, counts, total, q)

    # -- export views ---------------------------------------------------------

    def tagged_entries(self) -> List[Tuple[int, Entry]]:
        return list(self._log)

    def clear(self) -> None:
        self._log.clear()
        self._index.clear()


class Sampler:
    """Periodic scraper on the kernel's clock.

    Building one schedules :meth:`tick` as a daemon entry at the first
    k·period at or after ``kernel.now``; each tick scrapes, stamped at
    that boundary, and schedules the next one.  Daemon entries never keep
    the kernel running, so the scrapes stop with the simulation's last
    event; :meth:`sample_now` takes one more at the current time.
    """

    def __init__(self, registry: MetricsRegistry, db: TimeSeriesDB,
                 kernel: "Kernel", period: float = DEFAULT_PERIOD) -> None:
        self.registry = registry
        self.db = db
        self.kernel = kernel
        self.period = _checked_period(period)
        self.collectors: List[Callable[[], None]] = []
        self.rule_engine = None  # set by obs.rules.RuleEngine.attach
        self._baseline = self._snapshot()
        # Per-histogram-child replay cache: (count, rows emitted last
        # tick). A child whose count is unchanged re-emits the exact
        # same rows, so quiet ticks skip the bucket/format recompute.
        self._hist_rows: Dict[Tuple[str, Labels], Tuple[int, List[Tuple[str, Labels, float]]]] = {}
        # Boundary index: the next scrape is due at exactly _k * period.
        self._k = math.ceil(kernel.now / self.period)
        kernel.daemon_at(self._k * self.period, self.tick)

    # -- scrape ---------------------------------------------------------------

    def _snapshot(self) -> Dict[Tuple[str, Labels], object]:
        """Counter/histogram values at sampler birth (the delta baseline)."""
        base: Dict[Tuple[str, Labels], object] = {}
        for family in self.registry.collect():
            if family.name in WALLCLOCK_FAMILIES:
                continue
            if family.kind == "counter":
                for labels, child in family.samples():
                    base[(family.name, _labels(family, labels))] = child.value
            elif family.kind == "histogram":
                for labels, child in family.samples():
                    base[(family.name, _labels(family, labels))] = (
                        tuple(child.cumulative_buckets()),
                        child.sum_units,
                        child.count,
                    )
        return base

    def tick(self) -> None:
        """Scrape at this boundary and schedule the next one."""
        self._sample(self.kernel.now)
        self._k += 1
        self.kernel.daemon_at(self._k * self.period, self.tick)

    def sample_now(self) -> None:
        """Force a sample at the current sim time (experiment/chaos end:
        lets alerts observe the converged state and resolve)."""
        self._sample(self.kernel.now)

    def _sample(self, now: float) -> None:
        for collect in self.collectors:
            collect()
        for family in self.registry.collect():
            if family.name in WALLCLOCK_FAMILIES:
                continue
            if family.kind == "gauge":
                if not family.name.startswith(MONITOR_GAUGE_PREFIX):
                    continue
                for labels, child in family.samples():
                    self.db.append("sample", family.name,
                                   _labels(family, labels), now, child.value)
            elif family.kind == "counter":
                for labels, child in family.samples():
                    key = _labels(family, labels)
                    base = self._baseline.get((family.name, key), 0.0)
                    delta = child.value - base
                    if delta == 0.0:
                        # Untouched since cluster birth: emitting a zero
                        # would leak *which* families this process had
                        # already registered (warmth) into the series.
                        continue
                    self.db.append("sample", family.name, key, now, delta)
            elif family.kind == "histogram":
                for labels, child in family.samples():
                    key = _labels(family, labels)
                    cached = self._hist_rows.get((family.name, key))
                    if cached is not None and cached[0] == child.count:
                        for row_name, row_labels, value in cached[1]:
                            self.db.append("sample", row_name, row_labels,
                                           now, value)
                        continue
                    b0, u0, c0 = self._baseline.get(
                        (family.name, key),
                        ((0,) * len(family.buckets), 0, 0),
                    )
                    if child.count - c0 == 0:
                        # See the counter zero-suppression above.
                        self._hist_rows[(family.name, key)] = (child.count, [])
                        continue
                    rows: List[Tuple[str, Labels, float]] = []
                    cum = child.cumulative_buckets() + [child.count]
                    for upper, value, base in zip(
                        list(family.buckets) + [math.inf], cum, list(b0) + [c0]
                    ):
                        le = "+Inf" if upper == math.inf else _fmt(upper)
                        rows.append((family.name + "_bucket",
                                     key + (("le", le),), value - base))
                    # ``sum_units`` is fixed-point, so the difference is
                    # exact: a pure function of this cell's observations,
                    # whatever the child accumulated before it.
                    rows.append((
                        family.name + "_sum", key,
                        float(f"{(child.sum_units - u0) / SUM_UNITS_PER:.12g}"),
                    ))
                    rows.append((family.name + "_count", key,
                                 child.count - c0))
                    for row_name, row_labels, value in rows:
                        self.db.append("sample", row_name, row_labels, now, value)
                    self._hist_rows[(family.name, key)] = (child.count, rows)
        if self.rule_engine is not None:
            self.rule_engine.evaluate(now)


def _checked_period(period: float) -> float:
    """``period``, if it is a positive finite number of seconds."""
    if not 0.0 < period < math.inf:  # also false for NaN
        raise SimulationError(
            f"sampling period must be a positive finite number of seconds, "
            f"got {period!r}"
        )
    return period


def _labels(family, labelvalues: Tuple[str, ...]) -> Labels:
    return tuple(zip(family.labelnames, labelvalues))


def _fmt(upper: float) -> str:
    return repr(int(upper)) if float(upper).is_integer() else repr(upper)


# -- module state (mirrors repro.obs's globals) --------------------------------

_sampling = False
_period = DEFAULT_PERIOD
_db = TimeSeriesDB()


def set_sampling(enabled: bool, period: float = DEFAULT_PERIOD) -> None:
    global _sampling, _period
    _period = _checked_period(float(period))
    _sampling = bool(enabled)


def sampling_enabled() -> bool:
    return _sampling


def sampling_period() -> float:
    return _period


def default_db() -> TimeSeriesDB:
    return _db


def clear() -> None:
    _db.clear()


def counter_track_samples(prefixes: Sequence[str] = ("repro_monitor_",
                                                     "repro_alert_state")):
    """(cid, name, labels, ts, value) sample tuples for Chrome counter
    tracks, limited to the dashboard-grade prefixes."""
    out = []
    for cid, (kind, name, labels, ts, value) in _db.tagged_entries():
        if kind == "sample" and name.startswith(tuple(prefixes)):
            out.append((cid, name, labels, ts, value))
    return out


__all__ = [
    "DEFAULT_PERIOD",
    "WALLCLOCK_FAMILIES",
    "TimeSeriesDB",
    "Sampler",
    "set_sampling",
    "sampling_enabled",
    "sampling_period",
    "default_db",
    "clear",
    "counter_track_samples",
]
