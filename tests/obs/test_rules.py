"""SLO rule engine: expression algebra, alert state machine, lifecycle.

The unit layer drives a hand-built TSDB; the integration layer runs a
real deployment with sampling on and asserts the canary alert fires
during startup (no pod ready yet) and resolves at convergence — the
full pending → firing → resolved arc, witnessed in all three channels
(counter, TSDB log, tracer spans).
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.rules import (
    FIRING,
    INACTIVE,
    PENDING,
    AlertRule,
    Expr,
    RuleEngine,
    shipped_alerts,
)
from repro.obs.timeseries import TimeSeriesDB


def _engine(db, alerts=None, tracer=None):
    return RuleEngine(db, MetricsRegistry(), tracer=tracer, alerts=alerts)


class TestExpr:
    def test_instant(self):
        db = TimeSeriesDB()
        db.append("sample", "m", (), 1.0, 0.25, cid=1)
        assert Expr("instant", "m").evaluate(db, 1.0) == 0.25
        assert Expr("instant", "missing").evaluate(db, 1.0) is None

    def test_rate_and_ratio(self):
        db = TimeSeriesDB()
        for ts, num, den in [(0.0, 0.0, 0.0), (10.0, 5.0, 10.0)]:
            db.append("sample", "errs", (), ts, num, cid=1)
            db.append("sample", "reqs", (), ts, den, cid=1)
        assert Expr("rate", "errs", window=10.0).evaluate(db, 10.0) == pytest.approx(0.5)
        ratio = Expr("ratio_rate", "errs", window=10.0, denominator="reqs")
        assert ratio.evaluate(db, 10.0) == pytest.approx(0.5)
        # Zero/missing denominator rate -> no value, not a crash.
        bad = Expr("ratio_rate", "errs", window=10.0, denominator="missing")
        assert bad.evaluate(db, 10.0) is None

    def test_over_time_and_quantile(self):
        db = TimeSeriesDB()
        for ts, v in [(0.0, 0.2), (1.0, 0.4)]:
            db.append("sample", "g", (), ts, v, cid=1)
        assert Expr("avg_over_time", "g", window=2.0).evaluate(db, 1.0) == pytest.approx(0.3)
        assert Expr("max_over_time", "g", window=2.0).evaluate(db, 1.0) == 0.4
        for ts, c in [(0.0, 0.0), (1.0, 10.0)]:
            for le in ("1", "+Inf"):
                db.append("sample", "h_bucket", (("le", le),), ts, c, cid=1)
        q = Expr("histogram_quantile", "h", window=2.0, q=0.5).evaluate(db, 1.0)
        assert q is not None and q <= 1.0

    def test_unknown_fn_raises(self):
        with pytest.raises(ValueError):
            Expr("stddev", "m").evaluate(TimeSeriesDB(), 0.0)


class TestStateMachine:
    def _alert(self, for_s=1.0):
        return AlertRule(
            name="A", expr=Expr("instant", "m"), op="<", threshold=0.5, for_s=for_s
        )

    def _feed(self, db, ts, value):
        db.append("sample", "m", (), ts, value, cid=1)

    def test_pending_then_firing_then_resolved(self):
        db = TimeSeriesDB()
        alert = self._alert(for_s=1.0)
        engine = _engine(db, alerts=[alert])

        self._feed(db, 0.0, 0.1)
        engine.evaluate(0.0)
        assert alert.state == PENDING

        # Still breaching but not for long enough.
        self._feed(db, 0.5, 0.1)
        engine.evaluate(0.5)
        assert alert.state == PENDING

        self._feed(db, 1.0, 0.1)
        engine.evaluate(1.0)
        assert alert.state == FIRING and alert.fired_at == 1.0

        self._feed(db, 2.0, 1.0)
        engine.evaluate(2.0)
        assert alert.state == INACTIVE and alert.fired_at is None

        transitions = [
            (dict(e[2])["from"], dict(e[2])["to"])
            for _, e in db.tagged_entries()
            if e[0] == "alert"
        ]
        assert transitions == [
            ("inactive", "pending"),
            ("pending", "firing"),
            ("firing", "resolved"),
        ]

    def test_zero_for_fires_immediately(self):
        db = TimeSeriesDB()
        alert = self._alert(for_s=0.0)
        engine = _engine(db, alerts=[alert])
        self._feed(db, 0.0, 0.1)
        engine.evaluate(0.0)
        assert alert.state == FIRING

    def test_pending_recovery_resets_clock(self):
        db = TimeSeriesDB()
        alert = self._alert(for_s=1.0)
        engine = _engine(db, alerts=[alert])
        self._feed(db, 0.0, 0.1)
        engine.evaluate(0.0)  # pending
        self._feed(db, 0.5, 1.0)
        engine.evaluate(0.5)  # back to inactive
        assert alert.state == INACTIVE and alert.pending_since is None
        self._feed(db, 2.0, 0.1)
        engine.evaluate(2.0)  # pending again with a fresh clock
        self._feed(db, 2.5, 0.1)
        engine.evaluate(2.5)
        assert alert.state == PENDING

    def test_no_data_is_not_a_breach(self):
        db = TimeSeriesDB()
        alert = self._alert(for_s=0.0)
        engine = _engine(db, alerts=[alert])
        engine.evaluate(0.0)  # metric never sampled
        assert alert.state == INACTIVE

    def test_alert_state_series_emitted_every_tick(self):
        db = TimeSeriesDB()
        alert = self._alert()
        engine = _engine(db, alerts=[alert])
        engine.evaluate(0.0)
        engine.evaluate(1.0)
        states = [
            e[4] for _, e in db.tagged_entries() if e[1] == "repro_alert_state"
        ]
        assert states == [0.0, 0.0]

    def test_transition_counter_increments(self):
        db = TimeSeriesDB()
        reg = MetricsRegistry()
        alert = self._alert(for_s=0.0)
        engine = RuleEngine(db, reg, alerts=[alert])
        db.append("sample", "m", (), 0.0, 0.1, cid=1)
        engine.evaluate(0.0)
        fam = reg.get("repro_alert_transitions_total")
        values = {labels: child.value for labels, child in fam.samples()}
        assert values[("A", "firing")] == 1

    def test_incident_span_covers_fired_to_resolved(self):
        from repro.sim.trace import Tracer

        tracer = Tracer()
        db = TimeSeriesDB()
        alert = self._alert(for_s=0.0)
        engine = _engine(db, alerts=[alert], tracer=tracer)
        db.append("sample", "m", (), 1.0, 0.1, cid=1)
        engine.evaluate(1.0)
        db.append("sample", "m", (), 3.0, 1.0, cid=1)
        engine.evaluate(3.0)
        incidents = tracer.by_category("alert")
        names = [s.name for s in incidents]
        assert "alert.firing" in names and "alert.resolved" in names
        incident = next(s for s in incidents if s.name == "alert.incident")
        assert incident.start == 1.0 and incident.duration == pytest.approx(2.0)


class TestShippedAlerts:
    def test_shipped_set_shape(self):
        alerts = {a.name: a for a in shipped_alerts()}
        assert set(alerts) == {
            "PodReadyAvailabilityLow",
            "ColdStartP99High",
            "NodeMemoryPressureSustained",
            "SyncFailureBurnRate",
        }
        assert alerts["PodReadyAvailabilityLow"].severity == "page"
        assert alerts["SyncFailureBurnRate"].expr.denominator == (
            "repro_kubelet_pod_syncs_total"
        )

    def test_alert_fires_during_chaos_and_resolves_after_recovery(self, telemetry):
        """Acceptance: under a fault campaign at least one shipped alert
        reaches FIRING while the cluster is degraded, and the forced
        convergence sample at the end resolves every incident."""
        from repro.measure.chaos import run_chaos
        from repro.obs import timeseries

        timeseries.set_sampling(True, timeseries.DEFAULT_PERIOD)
        try:
            m = run_chaos(count=24, seed=5, max_rounds=20)
        finally:
            timeseries.set_sampling(False)
        assert m.converged
        arcs = {}
        for _, e in timeseries.default_db().tagged_entries():
            if e[0] == "alert":
                arcs.setdefault(e[1], []).append(dict(e[2])["to"])
        fired = [name for name, arc in arcs.items() if "firing" in arc]
        assert fired, f"no shipped alert fired under chaos (arcs: {arcs})"
        # Rate-window alerts (burn rate over 30 s) legitimately keep
        # firing until the window slides past the chaotic period; the
        # instant-expression alerts must resolve at the convergence
        # sample.
        resolved = [name for name in fired if arcs[name][-1] == "resolved"]
        assert resolved, f"no fired alert resolved after recovery (arcs: {arcs})"
        assert "PodReadyAvailabilityLow" in resolved

    def test_canary_fires_and_resolves_on_real_deploy(self, telemetry):
        """Full arc on a real cluster: ready_fraction is 0 during the
        startup window (breach), 1.0 at the convergence sample
        (resolve)."""
        from repro.engines.cache import clear_cache_state
        from repro.obs import timeseries
        from repro.measure.experiment import ExperimentRunner

        clear_cache_state()
        timeseries.set_sampling(True, 0.25)
        try:
            ExperimentRunner(seed=1).run("crun-wamr", 10)
        finally:
            timeseries.set_sampling(False)
        arc = [
            dict(e[2])["to"]
            for _, e in timeseries.default_db().tagged_entries()
            if e[0] == "alert" and e[1] == "PodReadyAvailabilityLow"
        ]
        assert arc == ["pending", "firing", "resolved"]
