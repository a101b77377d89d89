"""Zygote corruption: checksum verification, quarantine, cold fallback.

The chaos PR's safety claim for the zygote layer, tested differentially:
a corrupted cached snapshot is *detected* (content checksum mismatch on
restore), *quarantined* (never served, never re-captured), and the run
falls back to cold instantiation with byte-identical observable output —
on both interpreters. ``reset_caches`` clears the quarantine so one
experiment's poison can't leak into the next.
"""

import dataclasses

import pytest

from repro.engines.cache import (
    reset_caches,
    zygote_fallback_count,
    zygote_get,
    zygote_known,
    zygote_put,
    zygote_quarantine,
    zygote_quarantined,
)
from repro.measure.recovery import run_recovery
from repro.sim.faults import FaultPlan, FaultPoint, FaultSpec, fault_scope
from repro.wasm import assemble_wat, embed
from repro.wasm.embed import run_wasi
from repro.wasm.runtime import Interpreter, ReferenceInterpreter, verify_snapshot

from test_snapshot import OUTPUT_WAT, _observe

INTERPS = (Interpreter, ReferenceInterpreter)


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_caches()
    yield
    reset_caches()


def _poison_cached_snapshot(digest):
    """Flip one byte of the cached snapshot's memory image (checksum kept
    stale — exactly what silent storage corruption looks like)."""
    snap = zygote_get(digest)
    assert snap is not None
    mem_type, data = snap.memories[0]
    bad = bytes([data[0] ^ 0xFF]) + data[1:]
    poisoned = dataclasses.replace(snap, memories=((mem_type, bad),))
    zygote_put(digest, poisoned)
    return poisoned


class TestOrganicCorruption:
    @pytest.mark.parametrize("cls", INTERPS)
    def test_fallback_is_byte_identical_to_cold(self, cls):
        blob = assemble_wat(OUTPUT_WAT)
        cold = run_wasi(blob, zygote=False, interpreter_cls=cls)
        captured = run_wasi(blob, interpreter_cls=cls)  # capture
        digest = captured.zygote_digest
        poisoned = _poison_cached_snapshot(digest)
        assert not verify_snapshot(poisoned)

        before = zygote_fallback_count()
        fallback = run_wasi(blob, interpreter_cls=cls)
        assert fallback.restored is False
        assert _observe(fallback) == _observe(cold)
        assert zygote_fallback_count() == before + 1
        assert zygote_quarantined(digest)

    def test_quarantined_digest_never_recaptured(self):
        blob = assemble_wat(OUTPUT_WAT)
        digest = run_wasi(blob).zygote_digest
        _poison_cached_snapshot(digest)
        run_wasi(blob)  # detects + quarantines
        # Every later run stays cold: no re-capture, no restore, and the
        # fallback counter moves only on the detection, not per run.
        before = zygote_fallback_count()
        for _ in range(3):
            again = run_wasi(blob)
            assert not again.restored
        assert zygote_get(digest) is None
        assert zygote_known(digest)  # poisoned, not forgotten
        assert zygote_fallback_count() == before

    def test_reset_caches_clears_quarantine(self):
        """The satellite regression: a poisoned digest restores cleanly
        after ``reset_caches`` — re-probed, re-captured, served warm."""
        blob = assemble_wat(OUTPUT_WAT)
        cold = run_wasi(blob, zygote=False)
        digest = run_wasi(blob).zygote_digest
        _poison_cached_snapshot(digest)
        run_wasi(blob)
        assert zygote_quarantined(digest)

        reset_caches()
        assert not zygote_quarantined(digest)
        assert not zygote_known(digest)
        recaptured = run_wasi(blob)  # fresh capture
        warm = run_wasi(blob)
        assert not recaptured.restored
        assert warm.restored
        assert _observe(warm) == _observe(cold)


class TestInjectedCorruption:
    def test_fault_point_quarantines_without_touching_bytes(self):
        blob = assemble_wat(OUTPUT_WAT)
        cold = run_wasi(blob, zygote=False)
        digest = run_wasi(blob).zygote_digest
        assert zygote_get(digest) is not None

        plan = FaultPlan(
            [FaultSpec(FaultPoint.ZYGOTE_CORRUPT, probability=1.0)]
        )
        before = zygote_fallback_count()
        with fault_scope(plan, "pod-1"):
            fallback = run_wasi(blob)
        assert not fallback.restored
        assert _observe(fallback) == _observe(cold)
        assert zygote_quarantined(digest)
        assert zygote_fallback_count() == before + 1
        # The point can fire at most once per digest: quarantined means
        # there is no snapshot left to corrupt.
        with fault_scope(plan, "pod-2"):
            again = run_wasi(blob)
        assert not again.restored
        assert plan.count(FaultPoint.ZYGOTE_CORRUPT) == 1

    def test_armed_scope_verifies_every_restore(self):
        from repro.engines.cache import zygote_mark_verified

        blob = assemble_wat(OUTPUT_WAT)
        digest = run_wasi(blob).zygote_digest
        run_wasi(blob)  # happy-path restore marks the digest verified
        # While zygote.corrupt is armed the verified marker is NOT
        # trusted — the plan may have corrupted the entry since. Poison,
        # force the marker back on, and restore: the check must still
        # run (armed with a spent budget, so the point itself never fires).
        _poison_cached_snapshot(digest)
        zygote_mark_verified(digest)
        plan = FaultPlan(
            [FaultSpec(FaultPoint.ZYGOTE_CORRUPT, probability=1.0, max_occurrences=0)]
        )
        with fault_scope(plan, "pod-1"):
            r = run_wasi(blob)
        assert not r.restored
        assert zygote_quarantined(digest)


class TestVerifyWhileArmed:
    """A restore re-verifies its snapshot only while ``zygote.corrupt`` is
    armed; any other fault plan trusts the once-per-digest check."""

    @pytest.fixture()
    def verifies(self, monkeypatch):
        calls = []
        real = embed.verify_snapshot
        monkeypatch.setattr(
            embed, "verify_snapshot", lambda snap: calls.append(snap) or real(snap)
        )
        return calls

    def test_recovery_plan_verifies_once(self, verifies):
        # transient_plan arms image.pull and engine.compile only.
        m = run_recovery(count=200, seed=1)
        assert m.converged
        assert len(verifies) == 1

    def test_armed_plan_verifies_every_restore(self, verifies):
        blob = assemble_wat(OUTPUT_WAT)
        run_wasi(blob)  # zygote capture
        plan = FaultPlan(
            [FaultSpec(FaultPoint.ZYGOTE_CORRUPT, probability=1.0, max_occurrences=0)]
        )
        for i in range(5):
            with fault_scope(plan, f"pod-{i}"):
                assert run_wasi(blob).restored
        assert len(verifies) == 5


class TestQuarantineApi:
    def test_manual_quarantine_reason_counted(self):
        zygote_quarantine("deadbeef", reason="test")
        assert zygote_quarantined("deadbeef")
        assert zygote_fallback_count("test") == 1
        assert zygote_fallback_count("corrupt") == 0
