"""Discrete-event kernel behaviour."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.kernel import (
    Acquire,
    Kernel,
    Release,
    Resource,
    SimEvent,
    Timeout,
    WaitEvent,
)


class TestTimeouts:
    def test_single_timeout_advances_clock(self):
        k = Kernel()

        def act():
            yield Timeout(2.5)
            return k.now

        [t] = k.run_all([act()])
        assert t == 2.5
        assert k.now == 2.5

    def test_sequential_timeouts_accumulate(self):
        k = Kernel()

        def act():
            yield Timeout(1.0)
            yield Timeout(2.0)
            return k.now

        assert k.run_all([act()]) == [3.0]

    def test_zero_timeout_is_allowed(self):
        k = Kernel()

        def act():
            yield Timeout(0.0)
            return "done"

        assert k.run_all([act()]) == ["done"]

    def test_negative_timeout_rejected(self):
        k = Kernel()

        def act():
            yield Timeout(-1.0)

        k.spawn(act())
        with pytest.raises(SimulationError):
            k.run()

    def test_concurrent_activities_interleave(self):
        k = Kernel()
        order = []

        def act(name, delay):
            yield Timeout(delay)
            order.append((name, k.now))

        k.run_all([act("slow", 3.0), act("fast", 1.0)])
        assert order == [("fast", 1.0), ("slow", 3.0)]


class TestSubActivities:
    def test_child_return_value_propagates(self):
        k = Kernel()

        def child():
            yield Timeout(1.0)
            return 42

        def parent():
            value = yield child()
            return value + 1

        assert k.run_all([parent()]) == [43]

    def test_nested_children_accumulate_time(self):
        k = Kernel()

        def leaf():
            yield Timeout(0.5)
            return "leaf"

        def mid():
            r = yield leaf()
            yield Timeout(0.5)
            return r + "+mid"

        def top():
            r = yield mid()
            return r + "+top"

        assert k.run_all([top()]) == ["leaf+mid+top"]
        assert k.now == 1.0


class TestResources:
    def test_capacity_limits_parallelism(self):
        k = Kernel()
        res = Resource(2)

        def worker():
            yield Acquire(res)
            yield Timeout(1.0)
            yield Release(res)

        k.run_all([worker() for _ in range(6)])
        # 6 jobs, 2 at a time, 1s each -> 3 waves.
        assert k.now == pytest.approx(3.0)

    def test_fifo_admission(self):
        k = Kernel()
        res = Resource(1)
        order = []

        def worker(i):
            yield Acquire(res)
            order.append(i)
            yield Timeout(0.1)
            yield Release(res)

        k.run_all([worker(i) for i in range(5)])
        assert order == [0, 1, 2, 3, 4]

    def test_release_without_acquire_fails(self):
        res = Resource(1)
        with pytest.raises(SimulationError):
            res.release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(0)

    def test_queued_count(self):
        k = Kernel()
        res = Resource(1)

        def holder():
            yield Acquire(res)
            yield Timeout(10.0)
            yield Release(res)

        def waiter():
            yield Acquire(res)
            yield Release(res)

        k.spawn(holder())
        k.spawn(waiter())
        k.run(until=1.0)
        assert res.queued == 1


class TestSimEvents:
    def test_wait_then_trigger(self):
        k = Kernel()
        ev = SimEvent()
        got = []

        def waiter():
            value = yield WaitEvent(ev)
            got.append(value)

        def trigger():
            yield Timeout(2.0)
            ev.trigger("payload")

        k.run_all([waiter(), trigger()])
        assert got == ["payload"]

    def test_wait_on_already_triggered_event(self):
        k = Kernel()
        ev = SimEvent()
        ev.trigger("early")

        def waiter():
            value = yield WaitEvent(ev)
            return value

        assert k.run_all([waiter()]) == ["early"]

    def test_double_trigger_fails(self):
        ev = SimEvent()
        ev.trigger()
        with pytest.raises(SimulationError):
            ev.trigger()

    def test_spawn_returns_completion_event(self):
        k = Kernel()

        def act():
            yield Timeout(1.0)
            return "result"

        done = k.spawn(act())
        k.run()
        assert done.triggered and done.value == "result"


class TestExceptionPropagation:
    def test_child_exception_lands_in_parent_try(self):
        k = Kernel()

        def child():
            yield Timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield child()
            except ValueError as exc:
                return f"caught {exc}"
            return "not caught"

        assert k.run_all([parent()]) == ["caught boom"]

    def test_uncaught_child_exception_reaches_run_all(self):
        k = Kernel()

        def child():
            yield Timeout(0.5)
            raise RuntimeError("unhandled")

        def parent():
            yield child()

        with pytest.raises(RuntimeError, match="unhandled"):
            k.run_all([parent()])

    def test_top_level_exception_reaches_run_all(self):
        k = Kernel()

        def act():
            yield Timeout(0.1)
            raise KeyError("top")

        with pytest.raises(KeyError):
            k.run_all([act()])

    def test_sibling_activities_continue_after_failure(self):
        k = Kernel()
        finished = []

        def bad():
            yield Timeout(0.1)
            raise RuntimeError("x")

        def good():
            yield Timeout(5.0)
            finished.append(True)

        def parent():
            try:
                yield bad()
            except RuntimeError:
                pass
            return "ok"

        results = k.run_all([parent(), good()])
        assert results[0] == "ok" and finished == [True]


class TestRunControls:
    def test_run_until_stops_early(self):
        k = Kernel()

        def act():
            yield Timeout(10.0)

        k.spawn(act())
        k.run(until=3.0)
        assert k.now == 3.0

    def test_call_at_and_after(self):
        k = Kernel()
        fired = []
        k.call_after(1.0, lambda: fired.append("after"))
        k.call_at(0.5, lambda: fired.append("at"))
        k.run()
        assert fired == ["at", "after"]

    def test_call_at_in_past_rejected(self):
        k = Kernel()
        k.call_after(1.0, lambda: None)
        k.run()
        with pytest.raises(SimulationError):
            k.call_at(0.5, lambda: None)

    def test_deadlock_detection_in_run_all(self):
        k = Kernel()
        ev = SimEvent()  # never triggered

        def stuck():
            yield WaitEvent(ev)

        with pytest.raises(SimulationError, match="deadlock"):
            k.run_all([stuck()])

    def test_unsupported_effect_rejected(self):
        k = Kernel()

        def bad():
            yield "not-an-effect"

        k.spawn(bad())
        with pytest.raises(SimulationError, match="unsupported effect"):
            k.run()


class TestDaemonEntries:
    """Daemon entries run among regular events but never keep the kernel
    running (the two rules in the ``Kernel`` docstring)."""

    @staticmethod
    def _scraper(k, period=1.0):
        """A self-rescheduling daemon at every k * period; returns its log."""
        fired = []

        def scrape():
            fired.append(k.now)
            k.daemon_at(len(fired) * period, scrape)

        k.daemon_at(0.0, scrape)
        return fired

    def test_run_returns_at_the_last_regular_event(self):
        k = Kernel()
        fired = self._scraper(k)
        k.call_at(2.5, lambda: None)
        assert k.run() == 2.5
        assert fired == [0.0, 1.0, 2.0]
        # Only the daemon is left: nothing runs, the clock stays.
        assert k.run() == 2.5
        assert fired == [0.0, 1.0, 2.0]

    def test_run_all_returns_results_with_a_daemon_pending(self):
        k = Kernel()
        fired = self._scraper(k)

        def act():
            yield Timeout(1.5)
            return "done"

        assert k.run_all([act()]) == ["done"]
        assert k.now == 1.5
        assert fired == [0.0, 1.0]

    def test_nan_and_past_times_rejected(self):
        with pytest.raises(SimulationError, match="NaN"):
            Kernel().daemon_at(float("nan"), lambda: None)
        k = Kernel()
        k.call_after(1.0, lambda: None)
        k.run()
        with pytest.raises(SimulationError, match="in the past"):
            k.daemon_at(0.5, lambda: None)

    def test_daemon_runs_before_regular_events_at_one_instant(self):
        k = Kernel()
        fired = []
        k.call_at(1.0, lambda: fired.append("regular-a"))
        k.daemon_at(1.0, lambda: fired.append("daemon"))
        k.call_at(1.0, lambda: fired.append("regular-b"))
        k.run()
        # The daemon due at the last event's instant still runs.
        assert fired == ["daemon", "regular-a", "regular-b"]

    def test_run_until_runs_daemons_only_while_regular_work_is_pending(self):
        k = Kernel()
        fired = self._scraper(k)
        k.call_at(10.0, lambda: None)
        assert k.run(until=3.5) == 3.5
        assert fired == [0.0, 1.0, 2.0, 3.0]
        assert k.run() == 10.0
        assert fired == [float(t) for t in range(11)]
        # No regular work left: ``until`` runs no daemon and keeps the clock.
        assert k.run(until=20.0) == 10.0
        assert fired == [float(t) for t in range(11)]


class TestEventOrdering:
    """The kernel's event heap: time order, FIFO at one instant, NaN guard."""

    def test_orders_by_time(self):
        k = Kernel()
        fired = []

        def act():
            yield Timeout(4.0)
            fired.append("timeout")

        k.call_at(2.0, lambda: fired.append("b"))
        k.call_after(1.0, lambda: fired.append("a"))
        k.spawn(act())
        k.call_at(3.0, lambda: fired.append("c"))
        k.run()
        assert fired == ["a", "b", "c", "timeout"]

    def test_fifo_within_same_time(self):
        k = Kernel()
        fired = []
        for i in range(5):
            k.call_at(1.0, lambda i=i: fired.append(i))
        k.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_same_instant_runs_in_scheduling_order_across_kinds(self):
        k = Kernel()
        fired = []

        def act(name):
            yield Timeout(1.0)
            fired.append(name)

        k.call_at(1.0, lambda: fired.append("at"))
        k.spawn(act("first"))  # its Timeout is scheduled when it starts, at t=0
        k.call_after(1.0, lambda: fired.append("after"))
        k.spawn(act("second"))
        k.run()
        assert fired == ["at", "after", "first", "second"]

    def test_nan_time_rejected(self):
        nan = float("nan")
        with pytest.raises(SimulationError, match="NaN"):
            Kernel().call_at(nan, lambda: None)
        with pytest.raises(SimulationError, match="NaN"):
            Kernel().call_after(nan, lambda: None)

        def act():
            yield Timeout(nan)

        k = Kernel()
        k.spawn(act())
        with pytest.raises(SimulationError, match="NaN"):
            k.run()

    def test_empty_run_returns_current_time(self):
        k = Kernel(SimClock(2.0))
        assert k.run() == 2.0
        assert k.run(until=5.0) == 2.0

    def test_finished_activities_free_without_cyclic_gc(self):
        k = Kernel()

        def child():
            yield Timeout(1.0)
            return 1

        def parent():
            return (yield child())

        gen = parent()
        ref = weakref.ref(gen)
        gc.disable()
        try:
            assert k.run_all([gen]) == [1]
            del gen
            assert ref() is None
        finally:
            gc.enable()
