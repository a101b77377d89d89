"""Chaos campaign: convergence invariants and per-seed determinism.

Small-n in-process runs of ``measure.chaos.run_chaos`` — the 400-pod
acceptance campaign is exercised by ``benchmarks/test_chaos.py``; here
we pin the invariant machinery itself: every invariant holds, faults
actually fire at the configured rate, the measurement is bit-identical
when repeated (same process, counters already warm), and the JSON
payload round-trips.
"""

import json

import pytest

from repro.measure.chaos import (
    ChaosMeasurement,
    render_chaos,
    run_chaos,
)

COUNT = 24


@pytest.fixture(scope="module")
def chaos():
    return run_chaos(count=COUNT, seed=5, max_rounds=20)


class TestInvariants:
    def test_all_invariants_hold(self, chaos):
        failing = [c.name for c in chaos.invariants if not c.passed]
        assert chaos.all_hold(), failing

    def test_converges_with_full_replica_set(self, chaos):
        assert chaos.converged
        assert chaos.ready_pods == COUNT

    def test_faults_actually_fired(self, chaos):
        assert sum(chaos.faults_by_point.values()) > 0
        # Startup AND runtime stages both injected something.
        startup = {"image.pull", "engine.compile", "engine.instantiate"}
        runtime = {
            "guest.trap",
            "guest.exhaust",
            "wasi.syscall",
            "probe.liveness",
            "probe.readiness",
        }
        fired = {p for p, n in chaos.faults_by_point.items() if n > 0}
        assert fired & startup
        assert fired & runtime

    def test_recovery_percentiles_ordered(self, chaos):
        p = chaos.recovery_percentiles
        assert set(p) == {"p50", "p90", "p99"}
        assert 0.0 < p["p50"] <= p["p90"] <= p["p99"]

    def test_restarts_recorded(self, chaos):
        assert chaos.restarts_total > 0
        assert 0 < chaos.restarts_max <= chaos.restarts_total


class TestDeterminism:
    def test_repeat_run_is_bit_identical(self, chaos):
        again = run_chaos(count=COUNT, seed=5, max_rounds=20)
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            chaos.to_dict(), sort_keys=True
        )

    def test_seed_changes_outcome(self, chaos):
        other = run_chaos(count=COUNT, seed=6, max_rounds=20)
        assert other.all_hold()
        assert (
            other.to_dict()["timeline_fingerprint"]
            != chaos.to_dict()["timeline_fingerprint"]
        )


class TestPayload:
    def test_to_dict_json_round_trips(self, chaos):
        payload = json.loads(json.dumps(chaos.to_dict(), sort_keys=True))
        assert payload["count"] == COUNT
        assert payload["converged"] is True
        assert len(payload["timeline_fingerprint"]) == 16
        assert all(inv["passed"] for inv in payload["invariants"])

    def test_render_mentions_every_invariant(self, chaos):
        text = render_chaos(chaos)
        for check in chaos.invariants:
            assert check.name in text
        assert "[ok ]" in text

    def test_measurement_is_frozen(self, chaos):
        assert isinstance(chaos, ChaosMeasurement)
        with pytest.raises(Exception):
            chaos.count = 1  # type: ignore[misc]


class TestNoRunningPod:
    def test_unconverged_run_reports_instead_of_crashing(self):
        # At rate 0.5 the single pod of seed 0 never reaches Running, so
        # the recovery histogram is empty: the run still returns, and the
        # convergence invariant carries the failure.
        m = run_chaos(count=1, rate=0.5, seed=0)
        assert m.recovery_percentiles == {}
        assert not m.converged and not m.all_hold()
        failing = {c.name for c in m.invariants if not c.passed}
        assert failing == {"converged", "all_ready_or_terminal"}
        assert "recovery time:        none" in render_chaos(m)
