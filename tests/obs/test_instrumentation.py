"""End-to-end telemetry: real experiments populate metrics + spans.

The acceptance bar from the issue: a telemetry-enabled run must export a
valid Chrome trace and Prometheus text with ≥8 metric families spanning
≥5 distinct subsystems.
"""

import json

import pytest

from repro.measure.experiment import ExperimentRunner
from repro.measure.recovery import run_recovery
from repro.obs.export import (
    chrome_trace,
    parse_prometheus_text,
    prometheus_text,
    render_breakdown,
    load_trace_events,
    validate_chrome_trace,
    write_outputs,
)

#: subsystem = second dotted segment of the metric name (repro_<subsystem>_...)
def _subsystem(family: str) -> str:
    return family.split("_")[1]


@pytest.fixture(scope="module")
def deployed():
    """One small deployment + one small recovery run with telemetry on.

    Module-scoped: the simulated runs happen once, every test reads the
    resulting registry/trace.
    """
    from repro import obs
    from repro.engines.cache import reset_caches

    was_enabled = obs.enabled()
    obs.set_enabled(True)
    obs.reset()
    # Cold guest-work caches: a warm run cache would skip the wasm/WASI
    # layer entirely (and with it their metric registrations).
    reset_caches()
    ExperimentRunner(seed=11).run("crun-wamr", 4)
    run_recovery(config="crun-wamr", count=4, seed=3)
    yield obs
    obs.reset()
    obs.set_enabled(was_enabled)


class TestMetricsCoverage:
    def test_family_and_subsystem_floor(self, deployed):
        text = prometheus_text(deployed.default_registry())
        families = parse_prometheus_text(text)
        populated = [
            name
            for name, fam in families.items()
            if any(v for v in fam["samples"].values())
        ]
        assert len(populated) >= 8, populated
        assert len({_subsystem(f) for f in populated}) >= 5, populated

    def test_expected_families_present(self, deployed):
        reg = deployed.default_registry()
        for name in (
            "repro_scheduler_placements_total",
            "repro_kubelet_pod_syncs_total",
            "repro_containerd_tasks_total",
            "repro_memory_queries_total",
            "repro_metrics_server_scrapes_total",
            "repro_engine_cache_requests_total",
            "repro_wasm_instructions_total",
            "repro_wasi_calls_total",
            "repro_faults_checks_total",
            "repro_faults_fired_total",
        ):
            assert reg.get(name) is not None, name

    def test_counters_reflect_the_runs(self, deployed):
        reg = deployed.default_registry()
        # 4 pods deployed + ≥4 recovered: ≥8 successful syncs.
        assert reg.get("repro_kubelet_pod_syncs_total").labels("ok").value >= 8
        assert reg.get("repro_containerd_tasks_total").labels("sandbox_created").value >= 8
        assert reg.get("repro_wasm_instructions_total").value > 0
        assert reg.get("repro_wasi_calls_total").labels("fd_write").value > 0
        # The transient plan fired at least once at ≥30% per attempt.
        assert reg.get("repro_faults_checks_total").value > 0
        assert reg.get("repro_scheduler_decision_seconds").labels().count >= 8


class TestSpanCollection:
    def test_contexts_separate_experiments(self, deployed):
        labels = deployed.context_labels()
        assert any(l.startswith("deploy crun-wamr") for l in labels.values())
        assert any(l.startswith("recover crun-wamr") for l in labels.values())

    def test_pod_sync_and_recovery_spans_present(self, deployed):
        cats = {span.category for _, span in deployed.tagged_spans()}
        assert "pod.sync" in cats
        assert "startup.pipeline" in cats
        assert "recovery.converge" in cats

    def test_chrome_trace_validates(self, deployed):
        obj = chrome_trace(deployed.tagged_spans(), deployed.context_labels())
        assert validate_chrome_trace(obj) == len(deployed.tagged_spans())


class TestWriteOutputs:
    def test_files_round_trip(self, deployed, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        written = write_outputs("trace.json", "metrics.prom")
        assert written == ["trace.json", "metrics.prom"]
        obj = json.loads((tmp_path / "trace.json").read_text())
        assert validate_chrome_trace(obj) > 0
        parse_prometheus_text((tmp_path / "metrics.prom").read_text())
        table = render_breakdown(load_trace_events(tmp_path / "trace.json"))
        assert "pod.sync" in table

    def test_jsonl_variant(self, deployed, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_outputs(str(path), None)
        records = load_trace_events(path)
        starts = [r["ts_s"] for r in records]
        assert starts == sorted(starts)


class TestDisabledIsInert:
    def test_disabled_run_records_nothing(self, telemetry):
        telemetry.set_enabled(False)
        before_events = telemetry.default_registry().events
        ExperimentRunner(seed=21).run("crun-wamr", 2)
        reg = telemetry.default_registry()
        # Only always=True families (engine cache) may move.
        assert reg.get("repro_scheduler_placements_total") is None or (
            not any(
                child.value
                for _, child in reg.get("repro_scheduler_placements_total").samples()
            )
        )
        assert telemetry.tagged_spans() == []
        # Engine-cache counters still function (always=True contract).
        from repro.engines.cache import cache_stats

        assert cache_stats()["run"]["hits"] + cache_stats()["run"]["misses"] >= 0
        assert reg.events >= before_events
