"""Simulated clock unit tests (event ordering lives in test_kernel.py)."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_to_same_time_is_ok(self):
        clock = SimClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_no_time_travel(self):
        clock = SimClock(10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(9.999)
