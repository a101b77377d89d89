"""MetricsRegistry / family / child unit tests."""

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.obs.registry import DEFAULT_BUCKETS, NULL_METRIC, MetricsRegistry


class TestCounter:
    def test_labelless_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "help text")
        assert c.value == 0
        c.inc()
        c.inc(2)
        assert c.value == 3

    def test_labelled_children_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", labelnames=("layer",))
        c.labels("compile").inc()
        c.labels("compile").inc()
        c.labels("run").inc()
        assert c.labels("compile").value == 2
        assert c.labels("run").value == 1
        assert c.labels(layer="compile") is c.labels("compile")

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        with pytest.raises(SimulationError):
            c.inc(-1)

    def test_label_arity_checked(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labelnames=("a", "b"))
        with pytest.raises(SimulationError):
            c.labels("only-one")


class TestGauge:
    def test_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("inflight")
        g.set(5)
        g.inc(-2)
        assert g.value == 3


class TestHistogram:
    def test_observations_land_in_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        child = h.labels()
        assert child.bucket_counts == [1, 2, 1]  # 100.0 only in +Inf
        assert child.cumulative_buckets() == [1, 3, 4]
        assert child.count == 5
        assert child.sum == pytest.approx(106.25)

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "first")
        b = reg.counter("x_total", "second registration ignored")
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(SimulationError):
            reg.gauge("x_total")

    def test_labelnames_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(SimulationError):
            reg.counter("x_total", labelnames=("b",))

    def test_collect_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz_total")
        reg.counter("aa_total")
        assert [f.name for f in reg.collect()] == ["aa_total", "zz_total"]

    def test_reset_keeps_registrations_and_handles(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=("k",))
        child = c.labels("v")
        child.inc(7)
        reg.reset()
        assert reg.get("x_total") is c
        assert child.value == 0
        child.inc()  # bound handle still live
        assert c.labels("v").value == 1

    def test_events_counts_observations(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        h = reg.histogram("h_seconds")
        c.inc()
        c.inc()
        h.observe(0.5)
        assert reg.events == 3
        reg.reset()
        assert reg.events == 0


class TestLabellessFamily:
    """A labelless family's inc/set/observe write its one materialized
    child, exactly as going through ``labels()`` does."""

    @staticmethod
    def _drive(reg, via_labels):
        c = reg.counter("c_total")
        g = reg.gauge("g")
        h = reg.histogram("h_seconds", buckets=(0.1, 1.0))
        c, g, h = (f.labels() if via_labels else f for f in (c, g, h))
        c.inc()
        c.inc(2.5)
        g.set(4)
        g.inc(-1)
        h.observe(0.05)
        h.observe(3.0)

    def test_values_and_state_match_the_labels_path(self):
        fast, slow = MetricsRegistry(), MetricsRegistry()
        self._drive(fast, via_labels=False)
        self._drive(slow, via_labels=True)
        assert fast.state() == slow.state()
        assert fast.get("c_total").value == 3.5
        assert fast.get("g").value == 3
        child = fast.get("h_seconds").labels()
        assert (child.bucket_counts, child.count) == ([1, 0], 2)

    def test_reset_keeps_the_single_series_bound(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc(5)
        reg.reset()
        assert c.value == 0 and reg.events == 0
        c.inc()
        assert c.labels().value == 1
        assert reg.state()["families"]["c_total"]["children"] == {(): 1.0}

    def test_merge_delta_lands_on_the_same_series(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        base = worker.state()
        self._drive(worker, via_labels=False)
        c = parent.counter("c_total")
        c.inc()
        parent.merge_delta(worker.delta_since(base))
        c.inc()
        assert c.value == c.labels().value == 5.5
        assert parent.get("h_seconds").labels().count == 2

    def test_labelled_family_rejects_labelless_calls(self):
        reg = MetricsRegistry()
        for family in (
            reg.counter("c_total", labelnames=("k",)),
            reg.gauge("g", labelnames=("k",)),
            reg.histogram("h_seconds", labelnames=("k",)),
        ):
            for call in (family.inc, family.set, family.observe):
                with pytest.raises(SimulationError):
                    call(1)
            with pytest.raises(SimulationError):
                family.value


class TestNullMetric:
    def test_null_metric_absorbs_everything(self):
        n = NULL_METRIC
        assert n.labels("a", "b") is n
        assert n.labels(k="v") is n
        n.inc()
        n.inc(10)
        n.set(3)
        n.observe(0.1)
        n.reset()
        assert n.value == 0.0


class TestModuleApi:
    def test_disabled_returns_null_metric(self):
        was = obs.enabled()
        obs.set_enabled(False)
        try:
            assert obs.counter("off_total") is NULL_METRIC
            assert obs.gauge("off_g") is NULL_METRIC
            assert obs.histogram("off_h") is NULL_METRIC
        finally:
            obs.set_enabled(was)

    def test_always_registers_even_when_disabled(self):
        was = obs.enabled()
        obs.set_enabled(False)
        try:
            fam = obs.counter("forced_total", "always-on", always=True)
            assert fam is not NULL_METRIC
            assert obs.default_registry().get("forced_total") is fam
        finally:
            obs.set_enabled(was)

    def test_enabled_returns_live_family(self, telemetry):
        fam = telemetry.counter("live_total")
        fam.inc()
        assert telemetry.default_registry().get("live_total").value == 1

    def test_contexts(self, telemetry):
        cid = telemetry.new_context("deploy x")
        assert telemetry.current_context() == cid
        assert telemetry.context_labels()[cid] == "deploy x"
        telemetry.reset()
        assert telemetry.current_context() == 0
        assert telemetry.context_labels() == {}
