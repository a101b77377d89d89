"""The engine caches' five layers, seen from a deployment.

One decode per blob serves every engine, and one run log per input serves
every run: the guest executes at most twice per input (the zygote
capture, then the first restore, which records), while every container
still counts its own host calls, bytes and instructions.
"""

import pytest

from repro import obs
from repro.engines import cache as engine_cache
from repro.engines import get_engine
from repro.engines.cache import cache_stats, reset_caches, run_cached
from repro.measure.experiment import ExperimentRunner
from repro.wasm.runtime import Interpreter
from repro.workloads.microservice import build_microservice_wasm, microservice_module

#: one run of the microservice: instructions retired, bytes fd_write moves
RUN_INSTRUCTIONS = 19_106
RUN_WRITE_BYTES = 20


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_caches()
    yield
    reset_caches()


@pytest.fixture()
def telemetry():
    was = obs.enabled()
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(was)


def _values(name):
    """``{label values: value}`` of every nonzero series of ``name``."""
    fam = obs.default_registry().get(name)
    return {labels: child.value for labels, child in fam.samples() if child.value}


@pytest.mark.parametrize("n", [1, 2, 12])
def test_deploy_counts_every_container(telemetry, n):
    m = ExperimentRunner(seed=1).run("crun-wamr", n)
    assert m.ready_fraction == 1.0
    imports = {imp.name for imp in microservice_module().imports}
    assert len(imports) == 7
    # Each run calls each of the seven imports once.
    assert _values("repro_wasi_calls_total") == {(name,): n for name in imports}
    assert _values("repro_wasm_instructions_total") == {(): n * RUN_INSTRUCTIONS}
    assert _values("repro_wasi_bytes_total")[("fd_write", "out")] == n * RUN_WRITE_BYTES
    runs = {"capture": 1}
    if n > 1:
        runs["restore"] = n - 1
    assert _values("repro_zygote_runs_total") == {(k,): v for k, v in runs.items()}


def test_one_decode_and_one_log_for_every_engine(monkeypatch):
    decodes, invokes = [], []
    validate = engine_cache.validate_module
    monkeypatch.setattr(
        engine_cache, "validate_module", lambda m: decodes.append(m) or validate(m)
    )
    invoke = Interpreter.invoke
    monkeypatch.setattr(
        Interpreter, "invoke", lambda self, *a: invokes.append(a) or invoke(self, *a)
    )
    configs = ("crun-wamr", "crun-wasmtime", "shim-wasmtime", "shim-wasmedge")
    for config in configs:
        m = ExperimentRunner(seed=1).run(config, 1)
        assert m.ready_fraction == 1.0
    assert len(decodes) == 1
    assert len(invokes) <= 2
    stats = cache_stats()
    assert (stats["decode"]["misses"], stats["decode"]["hits"]) == (1, 3)
    assert stats["run"]["entries"] == 1

    # Served runs still take each engine's own profile.
    blob = build_microservice_wasm()
    for name in ("wamr", "wasmtime", "wasmedge"):
        engine = get_engine(name)
        compiled, result = run_cached(engine, blob, args=["svc"])
        assert compiled.artifact_bytes == engine.profile.artifact_bytes(len(blob))
        assert compiled.compile_seconds == engine.profile.compile_seconds(len(blob))
        assert result.exec_seconds == engine.profile.exec_seconds(result.instructions)
    assert len(decodes) == 1
