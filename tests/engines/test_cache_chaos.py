"""Cache-entry corruption: rebuild-once semantics.

Armed with ``cache.corrupt``, a warm decode/prepare/specialize hit can
come back poisoned; the layer must drop the entry and rebuild it — at
most once per entry (``MAX_REBUILDS_PER_ENTRY``), so a hostile plan
cannot turn the cache into a permanent miss machine. An engine lookup
draws for the shared decode entry under its own name,
``compile/{engine}/{digest}``. How the run layer serves runs under an
armed plan is ``test_replay.py``'s subject.
"""

import pytest

from repro.engines import cache as engine_cache
from repro.engines.cache import (
    cache_rebuilds,
    cache_stats,
    compile_cached,
    decode_cached,
    reset_caches,
)
from repro.engines import get_engine
from repro.sim.faults import FaultPlan, FaultPoint, FaultSpec, fault_scope
from repro.wasm import assemble_wat
from repro.wasm.runtime import SpecializedFunction

WAT = r"""
(module
  (memory (export "memory") 1)
  (func (export "_start")))
"""


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_caches()
    yield
    reset_caches()


def _always_corrupt():
    return FaultPlan([FaultSpec(FaultPoint.CACHE_CORRUPT, probability=1.0)])


class TestCorruptRebuild:
    def test_decode_hit_corrupted_rebuilds_once(self):
        blob = assemble_wat(WAT)
        module, digest = decode_cached(blob)
        plan = _always_corrupt()
        with fault_scope(plan, "pod-1"):
            rebuilt, _ = decode_cached(blob)  # corrupt → miss → rebuild
            cached, _ = decode_cached(blob)  # rebuild budget spent → hit
        assert rebuilt is not module  # fresh decode, not the poisoned one
        assert cached is rebuilt
        # decode_cached also services the prepare and specialize layers;
        # every entry took its one rebuild and then went quiet.
        assert cache_rebuilds() == {
            ("decode", digest): 1,
            ("prepare", digest): 1,
            ("specialize", digest): 1,
        }
        assert plan.count(FaultPoint.CACHE_CORRUPT) == 3

    def test_compile_hit_corrupted_rebuilds_once(self):
        blob = assemble_wat(WAT)
        engine = get_engine("wamr")
        compiled = compile_cached(engine, blob)
        plan = _always_corrupt()
        with fault_scope(plan, "pod-1"):
            rebuilt = compile_cached(engine, blob)  # corrupt → re-decode
            assert compile_cached(engine, blob).module is rebuilt.module
        assert rebuilt.module is not compiled.module
        # The engine lookup draws as compile/, never as decode/, and the
        # prepare and specialize entries take their one rebuild too.
        digest = compiled.digest
        assert cache_rebuilds() == {
            ("compile", f"wamr/{digest}"): 1,
            ("prepare", digest): 1,
            ("specialize", digest): 1,
        }
        assert plan.count(FaultPoint.CACHE_CORRUPT) == 3

    def test_no_scope_means_no_corruption(self):
        blob = assemble_wat(WAT)
        module, _ = decode_cached(blob)
        assert decode_cached(blob)[0] is module
        assert cache_rebuilds() == {}

    def test_unarmed_plan_never_corrupts(self):
        blob = assemble_wat(WAT)
        module, _ = decode_cached(blob)
        plan = FaultPlan(
            [FaultSpec(FaultPoint.GUEST_TRAP, probability=1.0)]
        )
        with fault_scope(plan, "pod-1"):
            assert decode_cached(blob)[0] is module
        assert cache_rebuilds() == {}

    def test_rebuild_counts_reset_with_caches(self):
        blob = assemble_wat(WAT)
        decode_cached(blob)
        with fault_scope(_always_corrupt(), "pod-1"):
            decode_cached(blob)
        assert cache_rebuilds()
        reset_caches()
        assert cache_rebuilds() == {}


class TestSpecializeCorrupt:
    """``cache.corrupt`` on the specialized-code layer (PR 7)."""

    def test_specialized_hit_corrupted_respecializes_once(self):
        blob = assemble_wat(WAT)
        module, digest = decode_cached(blob)
        assert isinstance(module.funcs[0].prepared, SpecializedFunction)
        with fault_scope(_always_corrupt(), "pod-1"):
            rebuilt, _ = decode_cached(blob)  # corrupt → re-specialize
            decode_cached(blob)  # rebuild budget spent → hit
        # The rebuilt attachment is specialized again, not left baseline.
        assert isinstance(rebuilt.funcs[0].prepared, SpecializedFunction)
        assert cache_rebuilds()[("specialize", digest)] == 1

    def test_pass_failure_falls_back_to_prepared(self, monkeypatch):
        def boom(module):
            raise RuntimeError("specialization pass exploded")

        monkeypatch.setattr(engine_cache, "specialize_module", boom)
        blob = assemble_wat(WAT)
        module, _ = decode_cached(blob)
        # Unspecialized prepared code stays attached and nothing cached.
        pf = module.funcs[0].prepared
        assert pf is not None
        assert not isinstance(pf, SpecializedFunction)
        assert cache_stats()["specialize"]["entries"] == 0
