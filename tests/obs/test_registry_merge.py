"""Mergeable registry state: the worker-pool telemetry protocol.

A pool worker snapshots ``state()`` before a cell, computes
``delta_since()`` after, and ships the (picklable) delta back; the
parent folds the deltas in sequential cell order with ``merge_delta()``.
These tests pin the protocol's algebra without running any simulation.
"""

import pickle
import random

import pytest

from repro.errors import SimulationError
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry


_rng = random.Random(1)
#: the observations the persistent-worker cells split between them
VALUES = [_rng.random() for _ in range(900)]


def _workload_a(reg):
    reg.counter("tasks_total", "tasks", labelnames=("kind",)).labels("deploy").inc(3)
    reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0)).observe(0.5)
    reg.gauge("inflight", "in flight").set(7)


def _workload_b(reg):
    reg.counter("tasks_total", "tasks", labelnames=("kind",)).labels("deploy").inc(2)
    reg.counter("tasks_total", "tasks", labelnames=("kind",)).labels("chaos").inc()
    reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0)).observe(5.0)
    reg.gauge("inflight", "in flight").set(2)


class TestDeltaAlgebra:
    def test_delta_of_unchanged_registry_is_empty(self):
        reg = MetricsRegistry()
        _workload_a(reg)
        base = reg.state()
        delta = reg.delta_since(base)
        assert delta["events"] == 0
        assert delta["families"] == {}

    def test_delta_captures_only_new_activity(self):
        reg = MetricsRegistry()
        _workload_a(reg)
        base = reg.state()
        _workload_b(reg)
        delta = reg.delta_since(base)
        children = delta["families"]["tasks_total"]["children"]
        assert children[("deploy",)] == 2  # 5 total minus 3 at snapshot
        assert children[("chaos",)] == 1
        buckets, dcount, dunits = delta["families"]["lat_seconds"]["children"][()]
        assert dcount == 1 and dunits == 5_000_000_000
        assert buckets == (0, 0)  # 5.0 overflows every finite bucket

    def test_new_family_registration_propagates_even_when_zero(self):
        reg = MetricsRegistry()
        base = reg.state()
        reg.counter("quiet_total", "registered but never incremented")
        delta = reg.delta_since(base)
        # The labelless child rides along at zero so the parent's export
        # shows the family exactly as the worker's would.
        assert delta["families"]["quiet_total"]["children"] == {(): 0.0}
        parent = MetricsRegistry()
        parent.merge_delta(delta)
        assert parent.get("quiet_total") is not None
        assert parent.counter("quiet_total").value == 0

    def test_delta_is_picklable(self):
        reg = MetricsRegistry()
        base = reg.state()
        _workload_a(reg)
        delta = reg.delta_since(base)
        assert pickle.loads(pickle.dumps(delta)) == delta


class TestMergeEquivalence:
    def test_split_run_merges_to_sequential_registry(self):
        # Sequential reference: both workloads in one registry.
        seq = MetricsRegistry()
        _workload_a(seq)
        _workload_b(seq)

        # Parallel: each workload in its own "worker" registry, deltas
        # merged into a fresh parent in sequential order.
        parent = MetricsRegistry()
        for workload in (_workload_a, _workload_b):
            worker = MetricsRegistry()
            base = worker.state()
            workload(worker)
            parent.merge_delta(worker.delta_since(base))

        assert prometheus_text(parent) == prometheus_text(seq)
        assert parent.events == seq.events

    def test_gauges_apply_last_writer_wins(self):
        parent = MetricsRegistry()
        for value in (7, 2):
            worker = MetricsRegistry()
            base = worker.state()
            worker.gauge("inflight").set(value)
            parent.merge_delta(worker.delta_since(base))
        assert parent.gauge("inflight").value == 2

    def test_merge_into_warm_parent_adds(self):
        parent = MetricsRegistry()
        _workload_a(parent)
        worker = MetricsRegistry()
        base = worker.state()
        _workload_b(worker)
        parent.merge_delta(worker.delta_since(base))
        assert parent.counter("tasks_total", labelnames=("kind",)).labels("deploy").value == 5
        assert parent.histogram("lat_seconds", buckets=(0.1, 1.0)).labels().count == 2

    def test_bucket_mismatch_rejected(self):
        parent = MetricsRegistry()
        parent.histogram("lat_seconds", buckets=(0.1, 1.0))
        worker = MetricsRegistry()
        base = worker.state()
        worker.histogram("lat_seconds", buckets=(0.5, 2.0)).observe(0.3)
        with pytest.raises(SimulationError, match="bucket mismatch"):
            parent.merge_delta(worker.delta_since(base))

    def test_events_counter_merges_exactly(self):
        worker = MetricsRegistry()
        base = worker.state()
        _workload_a(worker)  # 3 observations: inc, observe, set
        events = worker.events
        parent = MetricsRegistry()
        parent.merge_delta(worker.delta_since(base))
        assert parent.events == events > 0


class TestPersistentWorkers:
    """Two long-lived worker registries, as a pool keeps them: one runs
    cells A and C, the other B, and the parent merges A, B, C."""

    #: cell → (gauge value it sets, values it observes)
    CELLS = {"A": (400, VALUES[:300]), "B": (10, VALUES[300:600]), "C": (400, VALUES[600:])}

    def _run(self, reg, cell):
        pods, values = self.CELLS[cell]
        reg.gauge("pods", "pods by phase", ("phase",)).labels("Running").set(pods)
        hist = reg.histogram("sync_seconds", "pod sync time")
        for value in values:
            hist.observe(value)

    def _sequential_and_merged(self):
        seq = MetricsRegistry()
        for cell in "ABC":
            self._run(seq, cell)
        deltas = {}
        for worker, cells in ((MetricsRegistry(), "AC"), (MetricsRegistry(), "B")):
            for cell in cells:
                base = worker.state()
                self._run(worker, cell)
                deltas[cell] = worker.delta_since(base)
        parent = MetricsRegistry()
        for cell in "ABC":
            parent.merge_delta(deltas[cell])
        return seq, parent

    def test_gauge_written_back_to_an_earlier_value_merges(self):
        seq, parent = self._sequential_and_merged()
        running = parent.get("pods").labels("Running").value
        assert running == seq.get("pods").labels("Running").value == 400

    def test_histogram_sum_merges_exactly(self):
        seq, parent = self._sequential_and_merged()

        def sum_line(reg):
            (line,) = [
                line for line in prometheus_text(reg).splitlines()
                if line.startswith("sync_seconds_sum ")
            ]
            return line

        assert sum_line(parent) == sum_line(seq)
        assert parent.get("sync_seconds").labels().count == 900


class TestMergeEdgeCases:
    """S3: the algebra's corners — the cases the pool never hits until
    it does (empty cells, children one side has never seen, repeated
    application)."""

    def test_empty_delta_is_a_no_op(self):
        parent = MetricsRegistry()
        _workload_a(parent)
        before = prometheus_text(parent)
        worker = MetricsRegistry()
        parent.merge_delta(worker.delta_since(worker.state()))
        assert prometheus_text(parent) == before
        parent.merge_delta(None)
        parent.merge_delta({})
        assert prometheus_text(parent) == before

    def test_one_sided_histogram_child_merges_into_bare_parent(self):
        # Parent registered the family but never observed the worker's
        # label set: the merge must materialize the child, buckets and
        # all, not just add to existing cells.
        parent = MetricsRegistry()
        parent.histogram("lat_seconds", "latency", buckets=(0.1, 1.0),
                         labelnames=("config",))
        worker = MetricsRegistry()
        base = worker.state()
        h = worker.histogram("lat_seconds", "latency", buckets=(0.1, 1.0),
                             labelnames=("config",))
        h.labels("crun-wamr").observe(0.05)
        h.labels("crun-wamr").observe(0.5)
        parent.merge_delta(worker.delta_since(base))
        child = parent.get("lat_seconds").samples()
        ((labels, merged),) = child
        assert labels == ("crun-wamr",)
        assert merged.count == 2 and merged.sum == pytest.approx(0.55)
        assert tuple(merged.cumulative_buckets()) == (1, 2)

    def test_unwritten_gauge_child_keeps_the_parents_value(self):
        # A child the work created but never set registers in the parent
        # and leaves its value alone, as a sequential run would.
        parent = MetricsRegistry()
        parent.gauge("inflight", labelnames=("node",)).labels("n1").set(7)
        worker = MetricsRegistry()
        base = worker.state()
        worker.gauge("inflight", labelnames=("node",)).labels("n1")
        parent.merge_delta(worker.delta_since(base))
        assert parent.gauge("inflight", labelnames=("node",)).labels("n1").value == 7

    def test_merge_is_additive_not_idempotent(self):
        # The protocol applies each delta exactly once (sequential cell
        # order); applying one twice double-counts by design. Pinned so
        # nobody "fixes" the pool by making merges idempotent and
        # silently drops legitimate repeat activity across cells.
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        base = worker.state()
        worker.counter("tasks_total", "t").inc(3)
        delta = worker.delta_since(base)
        parent.merge_delta(delta)
        parent.merge_delta(delta)
        assert parent.counter("tasks_total").value == 6

    def test_counters_never_regress_under_merge(self):
        # A worker delta can only add: zero-activity children arrive as
        # 0.0 and leave the parent's accumulated totals untouched.
        parent = MetricsRegistry()
        parent.counter("tasks_total", "t").inc(5)
        worker = MetricsRegistry()
        base = worker.state()
        worker.counter("tasks_total", "t")  # registered, never incremented
        parent.merge_delta(worker.delta_since(base))
        assert parent.counter("tasks_total").value == 5
