"""Shared fixtures."""

from __future__ import annotations

import contextlib

import pytest

from repro.engines import cache as engine_cache
from repro.k8s.cluster import Cluster, build_cluster
from repro.wasm.runtime import SpecializedFunction
from repro.workloads.microservice import build_microservice_wasm


@pytest.fixture(scope="session")
def microservice_blob() -> bytes:
    return build_microservice_wasm()


@pytest.fixture()
def cluster() -> Cluster:
    return build_cluster(seed=7)


def _decline(module):
    raise RuntimeError("the specialization pass declines")


def _specialized_functions() -> int:
    """``SpecializedFunction``\\ s attached to the cached decodes."""
    return sum(
        isinstance(func.prepared, SpecializedFunction)
        for module in engine_cache._DECODE_CACHE.values()
        for func in module.funcs
    )


@pytest.fixture()
def flat_tier(monkeypatch):
    """``with flat_tier() as specialized:`` runs the block on flat code.

    Clears the engine caches, then makes the specialization pass decline
    (``specialize_module`` raises), so every blob decoded in the block
    keeps its prepared flat code: what a function the pass declines
    runs, and what a metered closure deopts to. The caches are cleared
    again on exit, so the next decode specializes. ``specialized()``
    counts the ``SpecializedFunction``\\ s attached to the cached
    decodes; a flat side asserts it is 0, so a differential against the
    specialized side cannot pass with both sides on one tier.
    """

    @contextlib.contextmanager
    def flat():
        engine_cache.reset_caches()
        with monkeypatch.context() as patch:
            patch.setattr(engine_cache, "specialize_module", _decline)
            try:
                yield _specialized_functions
            finally:
                engine_cache.reset_caches()

    return flat
