"""Sim-clock TSDB + sampler: queries, scrape rules, scrape schedule,
merge protocol.

The determinism contract (``repro.obs.timeseries`` docstring) is pinned
here without running any cluster simulation: counters/histograms sample
as deltas since sampler birth with zero suppression, gauges only under
the collector prefix, wall-clock families never, and the worker merge
protocol reproduces the sequential log byte for byte. The scrape
schedule (one scrape at every k·period while the kernel has events) is
pinned on a bare kernel, and once end to end on a 50-pod deploy.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.obs import timeseries
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import (
    DEFAULT_PERIOD,
    MONITOR_GAUGE_PREFIX,
    WALLCLOCK_FAMILIES,
    Sampler,
    TimeSeriesDB,
)
from repro.sim.kernel import Kernel


def _db_with(points, name="m", labels=(), cid=1):
    db = TimeSeriesDB()
    for ts, value in points:
        db.append("sample", name, labels, ts, value, cid=cid)
    return db


class TestQueries:
    def test_instant_returns_last_at_or_before(self):
        db = _db_with([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        assert db.instant("m", cid=1) == 3.0
        assert db.instant("m", at=1.5, cid=1) == 2.0
        assert db.instant("m", at=-1.0, cid=1) is None
        assert db.instant("missing", cid=1) is None

    def test_increase_and_rate_over_window(self):
        db = _db_with([(0.0, 0.0), (1.0, 4.0), (2.0, 10.0)])
        assert db.increase("m", (), at=2.0, window=2.0, cid=1) == 10.0
        assert db.rate("m", (), at=2.0, window=2.0, cid=1) == pytest.approx(5.0)
        # A single point has no increase.
        assert db.increase("m", (), at=0.0, window=1.0, cid=1) is None

    def test_rate_sums_across_matching_series(self):
        db = TimeSeriesDB()
        for node in ("a", "b"):
            for ts, v in [(0.0, 0.0), (2.0, 4.0)]:
                db.append("sample", "m", (("node", node),), ts, v, cid=1)
        assert db.rate("m", (), at=2.0, window=2.0, cid=1) == pytest.approx(4.0)
        assert db.rate("m", (("node", "a"),), at=2.0, window=2.0, cid=1) == pytest.approx(2.0)

    def test_over_time_avg_max_sum(self):
        db = _db_with([(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)])
        assert db.over_time("avg", "m", (), at=2.0, window=2.0, cid=1) == pytest.approx(2.0)
        assert db.over_time("max", "m", (), at=2.0, window=2.0, cid=1) == 3.0
        assert db.over_time("sum", "m", (), at=2.0, window=2.0, cid=1) == 6.0
        with pytest.raises(ValueError):
            db.over_time("median", "m", (), at=2.0, window=2.0, cid=1)

    def test_histogram_quantile_from_bucket_series(self):
        db = TimeSeriesDB()
        # Cumulative bucket counts growing over two samples: the window
        # increase is 10 observations, 8 under le=1, all under le=10.
        for ts, counts in [(0.0, (0, 0, 0)), (1.0, (8, 10, 10))]:
            for le, c in zip(("1", "10", "+Inf"), counts):
                db.append("sample", "h_bucket", (("le", le),), ts, float(c), cid=1)
        q50 = db.histogram_quantile("h", 0.5, at=1.0, window=1.0, cid=1)
        assert q50 is not None and q50 <= 1.0
        q99 = db.histogram_quantile("h", 0.99, at=1.0, window=1.0, cid=1)
        assert 1.0 < q99 <= 10.0
        # No increase in the window -> no quantile.
        assert db.histogram_quantile("h", 0.5, at=0.0, window=0.5, cid=1) is None

    def test_queries_read_one_context(self):
        db = _db_with([(0.0, 0.0), (2.0, 4.0)], cid=1)
        for ts, value in [(0.0, 0.0), (2.0, 100.0)]:
            db.append("sample", "m", (), ts, value, cid=2)
        assert db.instant("m", cid=1) == 4.0
        assert db.instant("m", cid=2) == 100.0
        assert db.rate("m", (), at=2.0, window=2.0, cid=1) == pytest.approx(2.0)
        assert db.instant("m", cid=3) is None

    def test_retention_caps_index_not_log(self):
        db = TimeSeriesDB(retention=4)
        for i in range(10):
            db.append("sample", "m", (), float(i), float(i), cid=1)
        assert len(db.tagged_entries()) == 10
        assert len(db.window("m", (), at=10.0, window=100.0, cid=1)) == 4


class TestSampler:
    def _make(self, reg, db, period=DEFAULT_PERIOD):
        self.kernel = Kernel()
        return Sampler(reg, db, self.kernel, period=period)

    def _gauge_sampler(self, period):
        """A sampler over one monitor gauge: one entry per scrape."""
        reg = MetricsRegistry()
        reg.gauge(MONITOR_GAUGE_PREFIX + "v", "v").set(1.0)
        db = TimeSeriesDB()
        return self._make(reg, db, period=period), db

    @staticmethod
    def _stamps(db):
        return [e[3] for _, e in db.tagged_entries()]

    def test_counters_sample_as_deltas_since_birth(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "x")
        c.inc(5)  # pre-birth warmth
        db = TimeSeriesDB()
        sampler = self._make(reg, db)
        c.inc(2)
        sampler.sample_now()
        values = [e for _, e in db.tagged_entries() if e[1] == "repro_x_total"]
        assert [v[4] for v in values] == [2.0]

    def test_zero_delta_counters_suppressed(self):
        reg = MetricsRegistry()
        reg.counter("repro_quiet_total", "warm but untouched").inc(3)
        db = TimeSeriesDB()
        sampler = self._make(reg, db)
        sampler.sample_now()
        assert db.tagged_entries() == []

    def test_gauges_require_monitor_prefix(self):
        reg = MetricsRegistry()
        reg.gauge("repro_other_gauge", "stale cross-cell state").set(9)
        g = reg.gauge(MONITOR_GAUGE_PREFIX + "ready_fraction", "fresh")
        db = TimeSeriesDB()
        sampler = self._make(reg, db)
        g.set(0.5)
        sampler.sample_now()
        names = {e[1] for _, e in db.tagged_entries()}
        assert names == {MONITOR_GAUGE_PREFIX + "ready_fraction"}

    def test_wallclock_families_never_sampled(self):
        reg = MetricsRegistry()
        name = next(iter(WALLCLOCK_FAMILIES))
        reg.histogram(name, "host time", buckets=(0.1, 1.0)).observe(0.05)
        db = TimeSeriesDB()
        sampler = self._make(reg, db)
        sampler.sample_now()
        assert db.tagged_entries() == []

    def test_histogram_sampled_as_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_h_seconds", "h", buckets=(1.0, 10.0))
        db = TimeSeriesDB()
        sampler = self._make(reg, db)
        h.observe(0.5)
        h.observe(5.0)
        sampler.sample_now()
        rows = {
            (e[1], dict(e[2]).get("le")): e[4] for _, e in db.tagged_entries()
        }
        assert rows[("repro_h_seconds_bucket", "1")] == 1.0
        assert rows[("repro_h_seconds_bucket", "10")] == 2.0
        assert rows[("repro_h_seconds_bucket", "+Inf")] == 2.0
        assert rows[("repro_h_seconds_count", None)] == 2.0
        assert rows[("repro_h_seconds_sum", None)] == pytest.approx(5.5)

    @pytest.mark.parametrize("period", [1.0, 0.25, 0.1])
    def test_scrapes_every_boundary_through_quiet_gaps(self, period):
        _, db = self._gauge_sampler(period)
        for t in (0.0, 0.1, 0.2, 1.05, 1.5, 2.0, 5.5):
            self.kernel.call_at(t, lambda: None)
        assert self.kernel.run() == 5.5
        # One scrape per boundary up to the last event, quiet 2-5.5 s
        # gap included, each stamped exactly k * period (ten 0.1 s steps
        # added up would miss 1.0).
        assert self._stamps(db) == [k * period for k in range(int(5.5 / period) + 1)]

    def test_only_sample_now_scrapes_after_the_last_event(self):
        sampler, db = self._gauge_sampler(1.0)
        self.kernel.call_at(2.5, lambda: None)
        assert self.kernel.run() == 2.5
        assert self._stamps(db) == [0.0, 1.0, 2.0]
        # The scrape due at 3.0 stays queued: it neither runs nor
        # moves the clock.
        assert self.kernel.run() == 2.5
        assert self._stamps(db) == [0.0, 1.0, 2.0]
        sampler.sample_now()
        assert self._stamps(db) == [0.0, 1.0, 2.0, 2.5]

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_period_that_is_not_positive_and_finite(self, period):
        with pytest.raises(SimulationError, match=repr(period)):
            self._make(MetricsRegistry(), TimeSeriesDB(), period=period)
        was = (timeseries.sampling_enabled(), timeseries.sampling_period())
        with pytest.raises(SimulationError, match=repr(period)):
            timeseries.set_sampling(True, period)
        assert (timeseries.sampling_enabled(), timeseries.sampling_period()) == was

    def test_collectors_run_before_each_sample(self):
        reg = MetricsRegistry()
        g = reg.gauge(MONITOR_GAUGE_PREFIX + "v", "v")
        db = TimeSeriesDB()
        sampler = self._make(reg, db)
        calls = []
        sampler.collectors.append(lambda: (calls.append(1), g.set(len(calls)))[0])
        sampler.sample_now()
        self.kernel.clock.advance_to(1.0)
        sampler.sample_now()
        values = [e[4] for _, e in db.tagged_entries()]
        assert values == [1.0, 2.0]

    def test_deploy_is_sampled_at_every_whole_second(self, telemetry):
        from repro.engines.cache import clear_cache_state
        from repro.measure.experiment import ExperimentRunner

        clear_cache_state()
        timeseries.set_sampling(True, 1.0)
        try:
            ExperimentRunner(seed=1).run("crun-wamr", 50)
        finally:
            timeseries.set_sampling(False)
        stamps = sorted({
            e[3] for _, e in timeseries.default_db().tagged_entries()
            if e[0] == "sample"
        })
        # Boundaries 0-3 s, then the convergence sample at the last
        # event (the makespan is 3.39 s).
        assert stamps[:-1] == [0.0, 1.0, 2.0, 3.0]
        assert 3.0 < stamps[-1] < 4.0


class TestMergeProtocol:
    def test_merge_delta_reproduces_sequential_log(self, telemetry):
        db = timeseries.default_db()

        def cell():
            telemetry.new_context("cell")
            for i in range(4):
                db.append("sample", "m", (), float(i), float(i * i))
            db.append("alert", "A", (("to", "firing"),), 4.0, 2.0)

        cell()
        seq, seq_labels = db.tagged_entries(), telemetry.context_labels()
        telemetry.reset()
        base = telemetry.state()
        cell()
        delta = telemetry.delta_since(base)
        telemetry.reset()

        telemetry.merge_delta(delta)
        assert db.tagged_entries() == seq
        assert telemetry.context_labels() == seq_labels
        # Queries see the merged points too.
        assert db.instant("m", cid=1) == 9.0

    def test_delta_holds_new_entries_only(self, telemetry):
        db = timeseries.default_db()
        telemetry.new_context("before")
        db.append("sample", "m", (), 0.0, 1.0)
        base = telemetry.state()
        db.append("sample", "m", (), 1.0, 2.0)
        delta = telemetry.delta_since(base)
        # The entry's context was open before the work: tagged 0.
        assert delta.contexts == []
        assert delta.entries == [(0, ("sample", "m", (), 1.0, 2.0))]
