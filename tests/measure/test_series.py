"""Campaign engine: deploy cells, the campaign's cells, the memo, resume."""

import dataclasses
import json

import pytest

from repro.core.integration import RUNTIME_CONFIGS
from repro.errors import ReproError, SeriesError
from repro.measure import campaign, figures, series
from repro.measure.cache import MeasurementCache, measurement_to_dict
from repro.measure.campaign import run_campaign
from repro.measure.experiment import ExperimentRunner, measure
from repro.measure.series import DEFAULT_CACHE, Cell, execute_cells

SMALL_CELLS = [
    Cell(config, count, 1)
    for config in ("crun-python", "crun-wamr")
    for count in (10, 25)
]

#: ``run_campaign``'s ``(config, count)`` cells, in the order ``--jobs 1``
#: runs them and telemetry merges
CAMPAIGN_CELLS = [
    (config, count)
    for config in (
        "crun-python",
        "crun-wamr",
        "crun-wasmedge",
        "crun-wasmer",
        "crun-wasmtime",
        "runc-python",
        "shim-wasmedge",
        "shim-wasmer",
        "shim-wasmtime",
    )
    for count in (10, 100, 400)
]


def _count_runs(monkeypatch):
    """Record every deployment that simulates."""
    calls = []
    original = ExperimentRunner.run

    def counting(self, config, count, **kwargs):
        calls.append((config, count))
        return original(self, config, count, **kwargs)

    monkeypatch.setattr(ExperimentRunner, "run", counting)
    return calls


class TestCell:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Cell)] == [
            "config",
            "count",
            "seed",
            "nodes",
        ]


class TestValidation:
    def test_count_values_must_be_positive_ints(self):
        with pytest.raises(ReproError, match="pod count must be at least 1"):
            execute_cells([Cell("crun-wamr", 0, 1)], cache=None)


class TestCampaignCells:
    @pytest.mark.parametrize("seed", [1, 11])
    def test_cell_order_pinned(self, seed, monkeypatch):
        asked = []

        class Asked(Exception):
            pass

        def spy(cells, jobs=1, cache=DEFAULT_CACHE):
            asked.extend(cells)
            raise Asked

        monkeypatch.setattr(campaign, "execute_cells", spy)
        with pytest.raises(Asked):
            run_campaign(seed=seed)
        assert asked == [Cell(config, count, seed) for config, count in CAMPAIGN_CELLS]


class TestNodesAxis:
    def test_single_node_cells_keep_prefleet_keys(self):
        # A cell built without a fleet size is the nodes=1 cell: one
        # memo and result key for both.
        assert Cell("crun-wamr", 400, 1) == Cell("crun-wamr", 400, 1, nodes=1)
        assert hash(Cell("crun-wamr", 400, 1)) == hash(Cell("crun-wamr", 400, 1, 1))

    def test_only_single_node_cells_are_cacheable(self):
        assert Cell("crun-wamr", 400, 1).cacheable
        assert not Cell("crun-wamr", 400, 1, nodes=4).cacheable

    def test_nodes_values_must_be_positive_ints(self):
        with pytest.raises(SeriesError, match="nodes must be a positive int, got 0"):
            run_campaign(nodes=0)

    def test_execute_cells_shards_fleet_cells(self):
        cells = [Cell("crun-wamr", 8, 1, nodes=n) for n in (1, 2)]
        results = execute_cells(cells, cache=None)
        one, two = (results[cell] for cell in cells)
        assert one.nodes == 1
        assert two.nodes == 2
        assert len(two.per_node) == 2


class TestManifestResume:
    """An interrupted run resumes from the measurement cache alone."""

    def test_interrupted_series_resumes_remainder_only(self, tmp_path, monkeypatch):
        cache = MeasurementCache(tmp_path / "cache")
        ran = []
        run_cell = series.run_cell

        class Interrupted(RuntimeError):
            pass

        def interrupt_after_two(cell):
            if len(ran) == 2:
                raise Interrupted
            ran.append(cell)
            return run_cell(cell)

        with monkeypatch.context() as patch:
            patch.setattr(series, "run_cell", interrupt_after_two)
            with pytest.raises(Interrupted):
                execute_cells(SMALL_CELLS, cache=cache)
        # Each finished cell was stored as it completed.
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2

        calls = _count_runs(monkeypatch)
        results = execute_cells(SMALL_CELLS, cache=cache)
        # Only the N - K unfinished cells simulate again.
        assert calls == [(c.config, c.count) for c in SMALL_CELLS if c not in ran]
        assert len(results) == 4

        # Summaries are byte-identical to an uninterrupted run.
        fresh = execute_cells(SMALL_CELLS, cache=None)
        for cell in SMALL_CELLS:
            assert json.dumps(measurement_to_dict(results[cell])) == json.dumps(
                measurement_to_dict(fresh[cell])
            )

    def test_completed_series_reruns_nothing(self, tmp_path, monkeypatch):
        cache = MeasurementCache(tmp_path / "cache")
        first = execute_cells(SMALL_CELLS, cache=cache)
        calls = _count_runs(monkeypatch)
        again = execute_cells(SMALL_CELLS, cache=cache)
        assert calls == []
        assert again == first


class TestMemo:
    """``execute_cells`` alone reads and fills the in-process memo."""

    CELL = Cell("crun-wamr", 10, 3)

    @pytest.fixture()
    def fresh_memo(self, monkeypatch):
        # With the on-disk cache off, the memo is the only thing that
        # can serve a DEFAULT_CACHE run.
        monkeypatch.setenv("REPRO_MEASURE_CACHE", "off")
        monkeypatch.setattr(series, "_MEMO", {})

    def test_default_cache_after_measure_simulates_nothing(self, fresh_memo, monkeypatch):
        calls = _count_runs(monkeypatch)
        m = measure("crun-wamr", 10, seed=3)
        assert calls == [("crun-wamr", 10)]
        results = execute_cells([self.CELL], cache=DEFAULT_CACHE)
        assert calls == [("crun-wamr", 10)]
        assert results[self.CELL] is m
        assert measure("crun-wamr", 10, seed=3) is m

    def test_no_cache_always_simulates(self, fresh_memo, monkeypatch):
        measure("crun-wamr", 10, seed=3)
        calls = _count_runs(monkeypatch)
        for _ in range(2):
            execute_cells([self.CELL], cache=None)
        assert calls == [("crun-wamr", 10)] * 2

    def test_explicit_cache_bypasses_memo(self, fresh_memo, monkeypatch, tmp_path):
        measure("crun-wamr", 10, seed=3)
        calls = _count_runs(monkeypatch)
        execute_cells([self.CELL], cache=MeasurementCache(tmp_path / "cache"))
        assert calls == [("crun-wamr", 10)]

    def test_figure_asks_for_its_own_cells_only(self, monkeypatch):
        asked = []

        def spy(cells, jobs=1, cache=DEFAULT_CACHE):
            asked.append((list(cells), jobs))
            # Run in-process: the spy checks the request, not the pool.
            return execute_cells(cells, jobs=1, cache=cache)

        monkeypatch.setattr(figures, "execute_cells", spy)
        figures.fig8_startup_10(seed=1, jobs=2)
        assert asked == [([Cell(c, 10, 1) for c in RUNTIME_CONFIGS], 2)]
