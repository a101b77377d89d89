"""SLO alert rules and their pending→firing→resolved engine.

Evaluated by the :class:`~repro.obs.timeseries.Sampler` after every
scrape: at each k·period boundary of simulated time, quiet ones
included, and at the forced sample when a run converges. Evaluation
times therefore do not depend on how dense the simulation's events are,
so a ``window`` or a ``for_s`` duration covers the same scrapes whatever
the workload. Everything runs on simulated time: the same seed produces
the same alert transition sequence at any ``--jobs N``.

Expressions are a small PromQL-flavored algebra over the TSDB:

========================  ====================================================
``instant``               latest value of ``metric{labels}``
``rate``                  per-second increase summed over matching series
``avg/max/sum_over_time`` aggregate of raw points in ``window``
``histogram_quantile``    quantile of the histogram's increase in ``window``
``ratio_rate``            rate(metric) / rate(denominator) (burn rates)
========================  ====================================================

Alert state machine: ``inactive → pending`` when the expression first
breaches, ``pending → firing`` once it has breached continuously for
``for_s`` sim-seconds, and any non-breach (or missing data) resolves.
Transitions are triple-witnessed: a ``repro_alert_transitions_total``
counter, an alert entry in the TSDB log (exported to the JSONL stream),
and tracer spans (zero-length transition marks plus an ``alert.incident``
span covering fired→resolved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import obs
from repro.obs.timeseries import Labels, TimeSeriesDB

INACTIVE, PENDING, FIRING = 0, 1, 2
_STATE_NAMES = {INACTIVE: "inactive", PENDING: "pending", FIRING: "firing"}


@dataclass(frozen=True)
class Expr:
    """One query over the TSDB, evaluated at a sample timestamp."""

    fn: str
    metric: str
    labels: Labels = ()
    window: float = 60.0
    q: float = 0.99
    denominator: Optional[str] = None

    def evaluate(self, db: TimeSeriesDB, at: float, cid: int) -> Optional[float]:
        """The expression's value at ``at`` over trace context ``cid``."""
        if self.fn == "instant":
            return db.instant(self.metric, self.labels, at=at, cid=cid)
        if self.fn == "rate":
            return db.rate(self.metric, self.labels, at, self.window, cid=cid)
        if self.fn in ("avg_over_time", "max_over_time", "sum_over_time"):
            return db.over_time(
                self.fn.split("_", 1)[0], self.metric, self.labels, at, self.window,
                cid=cid,
            )
        if self.fn == "histogram_quantile":
            return db.histogram_quantile(
                self.metric, self.q, at, self.window, match=self.labels, cid=cid
            )
        if self.fn == "ratio_rate":
            num = db.rate(self.metric, self.labels, at, self.window, cid=cid)
            den = db.rate(self.denominator or "", self.labels, at, self.window,
                          cid=cid)
            if num is None or not den:
                return None
            return num / den
        raise ValueError(f"unknown expr fn {self.fn!r}")


@dataclass
class AlertRule:
    name: str
    expr: Expr
    op: str = ">"  # ">" or "<"
    threshold: float = 0.0
    for_s: float = 0.0
    severity: str = "warn"

    # runtime state (engine-owned)
    state: int = field(default=INACTIVE, compare=False)
    pending_since: Optional[float] = field(default=None, compare=False)
    fired_at: Optional[float] = field(default=None, compare=False)

    def breaches(self, value: Optional[float]) -> bool:
        if value is None:
            return False
        return value > self.threshold if self.op == ">" else value < self.threshold


class RuleEngine:
    """Owns the shipped rules; ticked by the sampler after each scrape.

    An engine reads and writes the trace context that was current when
    it was built, which is its cluster's run: another run's samples in
    the same log never reach its alerts.
    """

    def __init__(self, db: TimeSeriesDB, registry, tracer=None,
                 alerts: Optional[List[AlertRule]] = None) -> None:
        self.db = db
        self.cid = obs.current_context()
        self.tracer = tracer
        self.alerts = list(shipped_alerts() if alerts is None else alerts)
        self._m_transitions = registry.counter(
            "repro_alert_transitions_total",
            "alert state-machine transitions",
            labelnames=("alert", "to"),
        )

    def attach(self, sampler) -> "RuleEngine":
        sampler.rule_engine = self
        return self

    def evaluate(self, now: float) -> None:
        for alert in self.alerts:
            self._step(alert, alert.expr.evaluate(self.db, now, self.cid), now)
            self.db.append("sample", "repro_alert_state",
                           (("alert", alert.name),), now, float(alert.state),
                           cid=self.cid)

    def _step(self, alert: AlertRule, value: Optional[float], now: float) -> None:
        breach = alert.breaches(value)
        if breach:
            if alert.state == INACTIVE:
                if alert.for_s <= 0:
                    self._transition(alert, FIRING, now)
                else:
                    alert.pending_since = now
                    self._transition(alert, PENDING, now)
            elif (
                alert.state == PENDING
                and alert.pending_since is not None
                and now - alert.pending_since >= alert.for_s
            ):
                self._transition(alert, FIRING, now)
        else:
            if alert.state != INACTIVE:
                self._transition(alert, INACTIVE, now)
            alert.pending_since = None

    def _transition(self, alert: AlertRule, to: int, now: float) -> None:
        frm = alert.state
        alert.state = to
        to_name = "resolved" if (to == INACTIVE and frm == FIRING) else _STATE_NAMES[to]
        self._m_transitions.labels(alert.name, to_name).inc()
        self.db.append(
            "alert", alert.name,
            (("from", _STATE_NAMES[frm]), ("to", to_name),
             ("severity", alert.severity)),
            now, float(to), cid=self.cid,
        )
        if self.tracer is not None:
            self.tracer.record(
                "alert", f"alert.{to_name}", now, now,
                alert=alert.name, severity=alert.severity,
            )
            if frm == FIRING and alert.fired_at is not None:
                self.tracer.record(
                    "alert", "alert.incident", alert.fired_at, now,
                    alert=alert.name, severity=alert.severity,
                )
        alert.fired_at = now if to == FIRING else None


def shipped_alerts() -> List[AlertRule]:
    """The default SLO set evaluated during sampled campaigns."""
    return [
        # Fires during chaos (pods failing readiness) and resolves once
        # recovery converges — the canary rule.
        AlertRule(
            name="PodReadyAvailabilityLow",
            expr=Expr("instant", "repro_monitor_ready_fraction"),
            op="<", threshold=0.999, for_s=1.0, severity="page",
        ),
        # p99 pod sync (admission→ready, sim-seconds) over a 60s window.
        AlertRule(
            name="ColdStartP99High",
            expr=Expr("histogram_quantile", "repro_kubelet_pod_sync_seconds",
                      window=60.0, q=0.99),
            op=">", threshold=30.0, for_s=0.0, severity="warn",
        ),
        # Sustained node memory pressure: minimum available fraction
        # across nodes stays under 5% for a full second.
        AlertRule(
            name="NodeMemoryPressureSustained",
            expr=Expr("avg_over_time", "repro_monitor_node_available_fraction",
                      window=5.0),
            op="<", threshold=0.05, for_s=1.0, severity="page",
        ),
        # Burn rate: >30% of pod syncs hitting the restart-backoff path.
        AlertRule(
            name="SyncFailureBurnRate",
            expr=Expr("ratio_rate", "repro_kubelet_backoffs_total",
                      window=30.0,
                      denominator="repro_kubelet_pod_syncs_total"),
            op=">", threshold=0.3, for_s=0.0, severity="warn",
        ),
    ]


__all__ = [
    "INACTIVE", "PENDING", "FIRING",
    "Expr", "AlertRule", "RuleEngine", "shipped_alerts",
]
