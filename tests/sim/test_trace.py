"""Tracer unit tests + end-to-end startup phase spans."""

from collections import defaultdict

import pytest

from repro import obs
from repro.container import nodeenv
from repro.errors import SimulationError
from repro.k8s.cluster import build_cluster
from repro.measure.recovery import run_recovery
from repro.sim import trace
from repro.sim.faults import transient_plan
from repro.sim.trace import PHASES, Span, Tracer


class TestTracer:
    def test_record_and_query(self):
        t = Tracer()
        t.record("phase.a", "x", 0.0, 1.0, config="c1")
        t.record("phase.a", "y", 1.0, 3.0, config="c2")
        t.record("phase.b", "x", 0.0, 0.5, config="c1")
        assert len(t.by_category("phase.a")) == 2
        assert t.phase_stats(config="c1") == {"phase.a": (1.0, 1), "phase.b": (0.5, 1)}
        assert t.phase_means(config="c2") == {"phase.a": 2.0}

    def test_attr_filtering(self):
        t = Tracer()
        t.record("p", "a", 0.0, 1.0, config="c1")
        t.record("p", "b", 0.0, 2.0, config="c2", reason="r")
        t.record("p", "c", 0.0, 4.0, config="c2")
        assert t.phase_stats(config="c1") == {"p": (1.0, 1)}
        assert t.phase_stats(config="c2") == {"p": (6.0, 2)}
        assert t.phase_stats(config="c3") == {}

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record("p", "x", 2.0, 1.0)

    def test_span_attr_access(self):
        s = Span("c", "n", 0.0, 1.0, (("k", "v"),))
        assert s.attr("k") == "v" and s.attr("missing") is None
        assert s.duration == 1.0

    def test_phase_spans_are_not_kept(self):
        t = Tracer()
        t.record("startup.pipeline", "pod", 0.0, 1.0, config="c")
        assert t.phase_stats(config="c") == {"startup.pipeline": (1.0, 1)}
        with pytest.raises(SimulationError, match="startup.pipeline"):
            t.by_category("startup.pipeline")


class TestTracerIndex:
    """by_category reads the spans kept per category outside PHASES."""

    def test_by_category_uses_index(self):
        t = Tracer()
        for i in range(5):
            t.record("a", f"s{i}", float(i), float(i) + 0.5)
        t.record("b", "x", 0.0, 1.0)
        assert [s.name for s in t.by_category("a")] == [f"s{i}" for i in range(5)]
        assert [s.name for s in t.by_category("b")] == ["x"]
        assert t.by_category("missing") == []
        # A copy: the caller cannot edit what the tracer keeps.
        t.by_category("a").clear()
        assert len(t.by_category("a")) == 5

    def test_sink_mirrors_records(self):
        seen = []
        t = Tracer(sink=seen.append)
        for i, category in enumerate(sorted(PHASES)):
            t.record(category, f"p{i}", 0.0, 1.0, config="c")
        t.record("recovery.backoff", "x", 1.0, 2.0, config="c", reason="r")
        t.record("alert", "alert.firing", 3.0, 3.0, alert="A")
        assert [s.category for s in seen] == sorted(PHASES) + ["recovery.backoff", "alert"]
        assert seen[-2].attrs == (("config", "c"), ("reason", "r"))
        # The sink sees every span; the tracer keeps only those outside PHASES.
        assert t.by_category("recovery.backoff") == [seen[-2]]
        assert t.by_category("alert") == [seen[-1]]
        for category in PHASES:
            with pytest.raises(SimulationError):
                t.by_category(category)


def _sums_from_spans(spans, config):
    """``phase_stats`` recomputed from mirrored spans, in record order."""
    sums = {}
    for span in spans:
        if span.attr("config") == config:
            total, n = sums.get(span.category, (0.0, 0))
            sums[span.category] = (total + span.duration, n + 1)
    return sums


def _assert_sums_match(tracer, spans):
    configs = {span.attr("config") for span in spans}
    assert configs, "the run mirrored no spans"
    for config in configs:
        assert list(tracer.phase_stats(config=config).items()) == list(
            _sums_from_spans(spans, config).items()
        ), config


class TestPhaseSums:
    """The running sums equal a record-order walk over the spans a sink saw."""

    def test_no_span_built_without_a_sink(self, monkeypatch):
        assert not obs.enabled()
        built = []

        def counting_span(*args):
            built.append(args[0])
            return Span(*args)

        monkeypatch.setattr(trace, "Span", counting_span)
        cluster = build_cluster(seed=7)
        cluster.deploy_and_wait("crun-wamr", 10)
        assert built == []
        assert cluster.node.env.tracer.phase_stats(config="crun-wamr")[
            "startup.pipeline"
        ][1] == 10

    @pytest.mark.parametrize(
        "config, waves, nodes",
        # The zygote fleet deploys in two waves: the second starts warm.
        [("crun-wamr", (20,), 1), ("crun-wamr-zygote", (20, 20), 4)],
    )
    def test_sums_match_mirrored_spans(self, config, waves, nodes):
        cluster = build_cluster(seed=5, node_count=nodes)
        mirrored = {}
        for name, node in cluster.nodes.items():
            mirrored[name] = []
            node.env.tracer.sink = mirrored[name].append
        for count in waves:
            cluster.deploy_and_wait(config, count)
        if nodes > 1:
            assert all(mirrored.values()), "a node received no pods"
            syncs = [
                s for spans in mirrored.values() for s in spans
                if s.category == "pod.sync"
            ]
            assert {s.attr("zygote") for s in syncs} == {"warm", "cold"}
        for name, node in cluster.nodes.items():
            _assert_sums_match(node.env.tracer, mirrored[name])

    def test_recovery_backoff_enters_the_sums(self, monkeypatch):
        tracers = []

        def mirrored_tracer(sink=None):
            spans = []
            tracer = Tracer(sink=spans.append)
            tracers.append((tracer, spans))
            return tracer

        monkeypatch.setattr(nodeenv, "Tracer", mirrored_tracer)
        m = run_recovery("crun-wamr", 20, seed=1, plan=transient_plan(seed=1))
        assert m.converged and m.backoff_events
        ((tracer, spans),) = tracers
        backoffs = tracer.phase_stats(config="crun-wamr")["recovery.backoff"]
        assert backoffs[1] == len(m.backoff_events)
        _assert_sums_match(tracer, spans)


class TestStartupSpans:
    def test_deployment_produces_phase_spans(self, cluster):
        tracer = cluster.node.env.tracer
        seen = []
        tracer.sink = seen.append
        pods = cluster.deploy_and_wait("crun-wamr", 4)
        means = tracer.phase_means(config="crun-wamr")
        for phase in ("startup.pipeline", "startup.serialized", "startup.parallel", "startup.exec"):
            assert phase in means, phase
        spans = defaultdict(list)
        for span in seen:
            spans[span.category].append(span)
        # One span per pod for the pipeline, one per container otherwise.
        assert len(spans["startup.pipeline"]) == 4
        assert len(spans["startup.parallel"]) == 4
        # Phases are ordered in time for each container.
        for pod in pods:
            cid = cluster.node.kubelet.pod_containers[pod.uid][0].container_id
            serialized = [s for s in spans["startup.serialized"] if s.name == cid][0]
            parallel = [s for s in spans["startup.parallel"] if s.name == cid][0]
            assert serialized.end <= parallel.start + 1e-9

    def test_phase_means_reach_measurement(self):
        from repro.measure.experiment import ExperimentRunner

        m = ExperimentRunner(seed=13).run("crun-wasmtime", 6)
        assert m.phase_means["startup.parallel"] > m.phase_means["startup.serialized"]
        # Pipeline dominates small deployments.
        assert m.phase_means["startup.pipeline"] > m.phase_means["startup.parallel"]

    def test_phases_explain_makespan(self):
        """pipeline + serialized-wait + parallel + (exec) ≈ last start."""
        from repro.measure.experiment import ExperimentRunner

        m = ExperimentRunner(seed=13).run("crun-wamr", 8)
        lower = m.phase_means["startup.pipeline"]
        assert m.startup_seconds > lower
        assert m.startup_seconds < lower + 8 * 0.1 + 1.0  # loose upper bound
