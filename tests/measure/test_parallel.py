"""Parallel experiment scheduler + persistent measurement cache.

Deploy cells run through the campaign engine
(:func:`repro.measure.series.execute_cells`) at ``jobs=1`` and ``jobs=2``.
"""

import json

import pytest

from repro.measure.cache import (
    MeasurementCache,
    measurement_from_dict,
    measurement_to_dict,
    source_tree_digest,
)
from repro.measure.experiment import ExperimentRunner, measure
from repro.measure.series import DEFAULT_CACHE, Cell, auto_jobs, execute_cells

PAIRS = [("crun-wamr", 10), ("crun-python", 10)]


def measure_pairs(pairs, seed=1, jobs=1, cache=DEFAULT_CACHE):
    """Deploy cells for (config, count) pairs, in the engine's result order."""
    cells = [Cell(config, count, seed) for config, count in pairs]
    results = execute_cells(cells, jobs=jobs, cache=cache)
    return {(cell.config, cell.count): m for cell, m in results.items()}


@pytest.fixture(scope="module")
def sequential():
    return measure_pairs(PAIRS, seed=1, jobs=1)


class TestRunMatrix:
    def test_sequential_matches_measure(self, sequential):
        for config, count in PAIRS:
            assert sequential[(config, count)] == measure(config, count, seed=1)

    def test_parallel_results_identical(self, sequential, tmp_path):
        parallel = measure_pairs(
            PAIRS, seed=1, jobs=2, cache=MeasurementCache(tmp_path / "cache")
        )
        assert parallel == sequential

    def test_merge_order_is_caller_order(self, sequential):
        reversed_result = measure_pairs(list(reversed(PAIRS)), seed=1, jobs=1)
        assert list(reversed_result) == list(reversed(PAIRS))
        assert dict(reversed_result) == dict(sequential)

    def test_no_cache_recomputes(self, sequential):
        fresh = measure_pairs(PAIRS, seed=1, jobs=1, cache=None)
        assert fresh == sequential

    def test_auto_jobs_positive(self):
        assert auto_jobs() >= 1


class TestMeasurementCache:
    def test_roundtrip_is_exact(self, sequential, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        m = sequential[("crun-wamr", 10)]
        cache.put(1, "crun-wamr", 10, m)
        assert cache.get(1, "crun-wamr", 10) == m

    def test_miss_returns_none(self, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        assert cache.get(99, "crun-wamr", 10) is None

    def test_json_serialization_is_lossless(self, sequential):
        m = sequential[("crun-python", 10)]
        data = json.loads(json.dumps(measurement_to_dict(m)))
        assert measurement_from_dict(data) == m

    def test_entries_keyed_by_source_digest(self, sequential, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        m = sequential[("crun-wamr", 10)]
        cache.put(1, "crun-wamr", 10, m)
        (entry,) = (tmp_path / "cache").glob("*.json")
        # The one key: source digest, seed, config, count. A source-tree
        # change produces a different digest prefix, so the entry is never
        # read again (and the next cache's first put removes it).
        assert entry.name == f"{source_tree_digest()[:16]}_1_crun-wamr_10.json"
        payload = json.loads(entry.read_text())
        assert payload["source_digest"] == source_tree_digest()

    def test_put_drops_other_digests_entries(self, sequential, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        prefix = source_tree_digest()[:16]
        other = format(int(prefix, 16) ^ 1, "016x")
        for name in (
            f"{other}_1_crun-wamr_10.json",
            f"{other}_2_crun-wasmtime-zygote_400.json",
            "notes.txt",
            "tmpq1w2e3r4.tmp",
        ):
            (root / name).write_text("{}")
        MeasurementCache(root).put(1, "crun-wamr", 10, sequential[("crun-wamr", 10)])
        assert sorted(p.name for p in root.iterdir()) == sorted(
            [f"{prefix}_1_crun-wamr_10.json", "notes.txt", "tmpq1w2e3r4.tmp"]
        )

    @pytest.mark.parametrize(
        "body", ["{}", "[]", "null", '{"measurement": {"config": "crun-wamr"}}']
    )
    def test_entry_that_is_not_a_measurement_is_a_miss(self, body, sequential, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        cache.put(1, "crun-wamr", 10, sequential[("crun-wamr", 10)], wall_seconds=0.5)
        (entry,) = (tmp_path / "cache").glob("*.json")
        entry.write_text(body)
        assert cache.get(1, "crun-wamr", 10) is None
        assert cache.cost_estimate(1, "crun-wamr", 10) is None
        # The engine re-runs the cell and stores a readable entry over it.
        assert measure_pairs([("crun-wamr", 10)], cache=cache) == {
            ("crun-wamr", 10): sequential[("crun-wamr", 10)]
        }
        assert cache.get(1, "crun-wamr", 10) == sequential[("crun-wamr", 10)]

    def test_wall_seconds_recorded_for_cost_estimates(self, sequential, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        m = sequential[("crun-wamr", 10)]
        assert cache.cost_estimate(1, "crun-wamr", 10) is None
        cache.put(1, "crun-wamr", 10, m, wall_seconds=0.125)
        assert cache.cost_estimate(1, "crun-wamr", 10) == 0.125

    def test_warm_run_skips_simulation(self, sequential, tmp_path, monkeypatch):
        cache = MeasurementCache(tmp_path / "cache")
        for (config, count), m in sequential.items():
            cache.put(1, config, count, m)

        def boom(self, *a, **k):  # pragma: no cover - must not run
            raise AssertionError("cache miss: simulation ran on a warm cache")

        monkeypatch.setattr(ExperimentRunner, "run", boom)
        warm = measure_pairs(PAIRS, seed=1, jobs=2, cache=cache)
        assert warm == sequential


class TestTelemetryMerge:
    """--trace-out/--metrics-out work at any --jobs N.

    Workers ship one telemetry delta per cell; the parent merges them in
    sequential cell order. Every simulation-driven family (counters,
    gauges and histograms) and the trace export must be identical to a
    --jobs 1 run. Families that track *process* state — engine-cache
    hit/miss stats, specialization/zygote warmth counters — are
    excluded: they differ even between two successive --jobs 1 runs in
    one process. So are the families that time the host's wall clock.
    """

    WARMTH_PREFIXES = ("repro_engine_cache", "repro_specialize", "repro_zygote")

    #: More cells than workers, so one worker runs a second cell. Longest
    #: expected first, the 200-pod cell goes to one worker and both 10-pod
    #: cells to the other; the sampler's gauges end each 10-pod cell where
    #: the other left them, so a worker's second cell must still ship
    #: gauges it wrote back to their earlier values.
    CROSS = [("crun-wamr", 10), ("crun-python", 200), ("crun-wasmtime", 10)]

    @pytest.fixture()
    def telemetry(self):
        from repro import obs
        from repro.obs import timeseries

        was = obs.enabled()
        obs.set_enabled(True)
        obs.reset()
        yield obs
        timeseries.set_sampling(False)
        obs.reset()
        obs.set_enabled(was)

    def _deterministic_families(self, obs):
        from repro.obs.timeseries import WALLCLOCK_FAMILIES

        out = {}
        for family in obs.default_registry().collect():
            if family.name.startswith(self.WARMTH_PREFIXES):
                continue
            if family.name in WALLCLOCK_FAMILIES:
                continue
            out[family.name] = {
                labels: (
                    (tuple(child.bucket_counts), child.count, child.sum)
                    if family.kind == "histogram"
                    else child.value
                )
                for labels, child in family.samples()
            }
        return out

    def test_parallel_merge_equals_sequential_totals(self, telemetry):
        import json

        from repro.obs import timeseries
        from repro.obs.export import chrome_trace

        obs = telemetry
        timeseries.set_sampling(True, timeseries.DEFAULT_PERIOD)
        seq = measure_pairs(self.CROSS, seed=1, jobs=1, cache=None)
        seq_families = self._deterministic_families(obs)
        seq_trace = json.dumps(
            chrome_trace(obs.tagged_spans(), obs.context_labels()), sort_keys=True
        )
        seq_contexts = obs.context_labels()
        assert seq_families, "sequential run recorded no metrics"

        assert seq_families["repro_monitor_pods"][("Running",)] == 10

        obs.reset()
        par = measure_pairs(self.CROSS, seed=1, jobs=2, cache=None)
        par_families = self._deterministic_families(obs)
        par_trace = json.dumps(
            chrome_trace(obs.tagged_spans(), obs.context_labels()), sort_keys=True
        )

        assert par == seq
        assert obs.context_labels() == seq_contexts
        assert par_families == seq_families
        assert par_trace == seq_trace

    def test_registry_families_survive_merge(self, telemetry):
        obs = telemetry
        measure_pairs([("crun-wamr", 10)], seed=1, jobs=2, cache=None)
        names = {family.name for family in obs.default_registry().collect()}
        # Worker-side registrations propagate through the merged deltas.
        assert "repro_scheduler_placements_total" in names
        assert "repro_kubelet_pod_syncs_total" in names


class TestTimeseriesJobsIdentity:
    """--timeseries-out/--profile-out at any --jobs N (tentpole acceptance).

    Stronger than counter-total equality: the TSDB log (samples + alert
    transitions), the collapsed guest profile, and the --wasi latency
    table must be *byte-identical* between --jobs 1 and --jobs 2. The
    sampler's determinism contract (cold caches per cell, baseline
    deltas, zero suppression, wall-clock exclusion) is what makes this
    hold; any leak of process warmth into the sampled stream fails here.
    """

    @pytest.fixture()
    def full_telemetry(self):
        from repro import obs
        from repro.obs import profile, timeseries

        was = obs.enabled()
        obs.set_enabled(True)
        obs.reset()
        timeseries.set_sampling(True, timeseries.DEFAULT_PERIOD)
        profile.set_profiling(True)
        yield obs
        profile.set_profiling(False)
        timeseries.set_sampling(False)
        obs.reset()
        obs.set_enabled(was)

    def _artifacts(self, obs):
        from repro.obs import profile, timeseries
        from repro.obs.export import (
            prometheus_text,
            render_wasi,
            timeseries_jsonl,
        )

        return {
            "timeseries": timeseries_jsonl(
                timeseries.default_db().tagged_entries(), obs.context_labels()
            ),
            "profile": profile.collapsed(),
            "wasi": render_wasi(prometheus_text(obs.default_registry())),
        }

    def test_artifacts_byte_identical_across_jobs(self, full_telemetry):
        obs = full_telemetry
        seq_results = measure_pairs(PAIRS, seed=1, jobs=1, cache=None)
        seq = self._artifacts(obs)
        assert seq["timeseries"], "sequential run sampled nothing"
        assert '"kind": "alert"' in seq["timeseries"], (
            "no alert transition in the sampled stream"
        )
        assert "_start" in seq["profile"]
        assert "hostcalls" in seq["wasi"]

        obs.reset()
        par_results = measure_pairs(PAIRS, seed=1, jobs=2, cache=None)
        par = self._artifacts(obs)

        assert par_results == seq_results
        assert par == seq

