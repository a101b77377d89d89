"""Campaign engine: shipped series, cells, the memo, resume."""

import json

import pytest

from repro.core.integration import RUNTIME_CONFIGS
from repro.errors import ReproError, SeriesError
from repro.measure import figures, series
from repro.measure.cache import MeasurementCache, measurement_to_dict
from repro.measure.campaign import run_campaign
from repro.measure.experiment import ExperimentRunner, measure
from repro.measure.series import (
    DEFAULT_CACHE,
    SHIPPED_SERIES,
    Cell,
    execute_cells,
    run_cell,
    run_series,
    series_cells,
)

SMALL_CELLS = [
    Cell("small", "deploy", config, count, 1)
    for config in ("crun-python", "crun-wamr")
    for count in (10, 25)
]

_CAMPAIGN_KEYS = [
    f"deploy:{config}:n{count}:s{{s}}"
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

#: every shipped series' cell keys, in order, as the declarative spec
#: language expanded them (``{s}`` is the seed)
PINNED_KEYS = {
    "campaign": _CAMPAIGN_KEYS,
    "figures": _CAMPAIGN_KEYS,
    "crun-memory": [
        "deploy:crun-wamr:n10:s{s}",
        "deploy:crun-wamr:n100:s{s}",
        "deploy:crun-wamr:n400:s{s}",
        "deploy:crun-wasmedge:n10:s{s}",
        "deploy:crun-wasmedge:n100:s{s}",
        "deploy:crun-wasmedge:n400:s{s}",
        "deploy:crun-wasmer:n10:s{s}",
        "deploy:crun-wasmer:n100:s{s}",
        "deploy:crun-wasmer:n400:s{s}",
        "deploy:crun-wasmtime:n10:s{s}",
        "deploy:crun-wasmtime:n100:s{s}",
        "deploy:crun-wasmtime:n400:s{s}",
    ],
    "zygote": ["deploy:crun-wamr:n400:s{s}", "deploy:crun-wamr-zygote:n400:s{s}"],
    "recovery": ["recovery:crun-wamr:n100:s{s}"],
    "chaos": ["chaos:crun-wamr:n400:s{s}:rate=0.25"],
    "fleet": [
        "deploy:crun-wamr:n400:s{s}",
        "deploy:crun-wamr:n400:s{s}:nodes4",
        "deploy:crun-wamr:n400:s{s}:nodes8",
        "deploy:crun-wamr-zygote:n400:s{s}",
        "deploy:crun-wamr-zygote:n400:s{s}:nodes4",
        "deploy:crun-wamr-zygote:n400:s{s}:nodes8",
    ],
}


def _count_runs(monkeypatch):
    """Record every deployment that simulates."""
    calls = []
    original = ExperimentRunner.run

    def counting(self, config, count, **kwargs):
        calls.append((config, count))
        return original(self, config, count, **kwargs)

    monkeypatch.setattr(ExperimentRunner, "run", counting)
    return calls


class TestValidation:
    def test_unknown_series_name(self):
        with pytest.raises(SeriesError, match="unknown series"):
            run_series("no-such-series")

    def test_bad_kind(self):
        with pytest.raises(SeriesError, match="unknown cell kind 'bench'"):
            run_cell(Cell("s", "bench", "crun-wamr", 10, 1))

    def test_count_values_must_be_positive_ints(self):
        with pytest.raises(ReproError, match="pod count must be at least 1"):
            execute_cells([Cell("s", "deploy", "crun-wamr", 0, 1)], cache=None)

    def test_params_checked_against_kind(self):
        # The measurement cache keys on (seed, config, count) only, so a
        # deploy cell with params never reads or writes it.
        assert Cell("s", "deploy", "crun-wamr", 10, 1).cacheable
        assert not Cell("s", "deploy", "crun-wamr", 10, 1, (("rate", 0.5),)).cacheable


class TestInheritance:
    def test_base_matrix_is_inherited(self):
        def matrix(cells):
            return [(c.kind, c.config, c.count, c.seed, c.nodes) for c in cells]

        assert matrix(series_cells("figures")) == matrix(series_cells("campaign"))
        assert {c.series for c in series_cells("figures")} == {"figures"}

    def test_child_axis_replaces_base_axis(self):
        crun = series_cells("crun-memory")
        campaign = series_cells("campaign")
        assert sorted({c.count for c in crun}) == sorted({c.count for c in campaign})
        assert sorted({c.config for c in crun}) == [
            "crun-wamr",
            "crun-wasmedge",
            "crun-wasmer",
            "crun-wasmtime",
        ]


class TestExpansion:
    @pytest.mark.parametrize("seed", [1, 11])
    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_cell_keys_pinned(self, name, seed):
        expected = [key.format(s=seed) for key in PINNED_KEYS[name]]
        assert [cell.key for cell in series_cells(name, seed)] == expected

    def test_shipped_series_expand_cleanly(self):
        expected_cells = {
            "campaign": 27,
            "figures": 27,
            "crun-memory": 12,
            "zygote": 2,
            "recovery": 1,
            "chaos": 1,
            "fleet": 6,
        }
        assert set(SHIPPED_SERIES) == set(expected_cells)
        for name in SHIPPED_SERIES:
            cells = series_cells(name)
            assert len(cells) == expected_cells[name], name
            keys = [cell.key for cell in cells]
            assert len(keys) == len(set(keys)), f"{name}: duplicate cells"

    def test_zygote_runs_cold_before_warm(self):
        cells = series_cells("zygote")
        assert [c.config for c in cells] == ["crun-wamr", "crun-wamr-zygote"]

    def test_seed_override_reaches_cells(self):
        for name in SHIPPED_SERIES:
            assert {c.seed for c in series_cells(name, 7)} == {7}, name


class TestNodesAxis:
    def test_single_node_cells_keep_prefleet_keys(self):
        # A nodes=1 cell's key/identity is exactly what pre-fleet
        # series produced.
        cells = series_cells("fleet")
        assert cells[0].key == "deploy:crun-wamr:n400:s1"
        assert cells[1].key == "deploy:crun-wamr:n400:s1:nodes4"
        assert cells[0] == Cell(
            series="fleet",
            kind="deploy",
            config="crun-wamr",
            count=400,
            seed=1,
        )

    def test_only_single_node_cells_are_cacheable(self):
        cells = series_cells("fleet")
        assert cells[0].cacheable and not cells[1].cacheable

    def test_nodes_values_must_be_positive_ints(self):
        with pytest.raises(SeriesError, match="nodes must be a positive int, got 0"):
            run_campaign(nodes=0)

    def test_run_series_shards_fleet_cells(self):
        cells = [Cell("mini-fleet", "deploy", "crun-wamr", 8, 1, nodes=n) for n in (1, 2)]
        results, _ = execute_cells(cells, cache=None)
        one, two = (results[cell.key] for cell in cells)
        assert one.nodes == 1
        assert two.nodes == 2
        assert len(two.per_node) == 2


class TestManifestResume:
    """An interrupted series resumes from the measurement cache alone."""

    def test_interrupted_series_resumes_remainder_only(self, tmp_path, monkeypatch):
        cache = MeasurementCache(tmp_path / "cache")
        seen = []

        class Interrupted(RuntimeError):
            pass

        def interrupt_after_two(cell, result):
            seen.append(cell.key)
            if len(seen) == 2:
                raise Interrupted

        with pytest.raises(Interrupted):
            execute_cells(SMALL_CELLS, cache=cache, on_cell=interrupt_after_two)
        # Each finished cell was stored as it completed.
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2

        calls = _count_runs(monkeypatch)
        results, resumed = execute_cells(SMALL_CELLS, cache=cache)
        # Only the N - K unfinished cells simulate again.
        assert len(calls) == 2
        assert set(resumed) == set(seen)
        assert len(results) == 4

        # Summaries are byte-identical to an uninterrupted run.
        fresh, _ = execute_cells(SMALL_CELLS, cache=None)
        for key in fresh:
            assert json.dumps(measurement_to_dict(results[key])) == json.dumps(
                measurement_to_dict(fresh[key])
            )

    def test_completed_series_reruns_nothing(self, tmp_path, monkeypatch):
        cache = MeasurementCache(tmp_path / "cache")
        execute_cells(SMALL_CELLS, cache=cache)
        calls = _count_runs(monkeypatch)
        _, resumed = execute_cells(SMALL_CELLS, cache=cache)
        assert calls == []
        assert len(resumed) == 4


class TestMemo:
    """``execute_cells`` alone reads and fills the in-process memo."""

    CELL = Cell("memo", "deploy", "crun-wamr", 10, 3)

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
        results, resumed = execute_cells([self.CELL], cache=DEFAULT_CACHE)
        assert calls == [("crun-wamr", 10)]
        assert resumed == [self.CELL.key]
        assert results[self.CELL.key] is m
        assert measure("crun-wamr", 10, seed=3) is m

    def test_no_cache_always_simulates(self, fresh_memo, monkeypatch):
        measure("crun-wamr", 10, seed=3)
        calls = _count_runs(monkeypatch)
        for _ in range(2):
            _, resumed = execute_cells([self.CELL], cache=None)
            assert resumed == []
        assert calls == [("crun-wamr", 10)] * 2

    def test_explicit_cache_bypasses_memo(self, fresh_memo, monkeypatch, tmp_path):
        measure("crun-wamr", 10, seed=3)
        calls = _count_runs(monkeypatch)
        execute_cells([self.CELL], cache=MeasurementCache(tmp_path / "cache"))
        assert calls == [("crun-wamr", 10)]

    def test_figure_asks_for_its_own_cells_only(self, monkeypatch):
        asked = []

        def spy(cells, jobs=1, cache=DEFAULT_CACHE, on_cell=None):
            asked.append(([cell.key for cell in cells], jobs))
            # Run in-process: the spy checks the request, not the pool.
            return execute_cells(cells, jobs=1, cache=cache)

        monkeypatch.setattr(figures, "execute_cells", spy)
        figures.fig8_startup_10(seed=1, jobs=2)
        assert asked == [([f"deploy:{c}:n10:s1" for c in RUNTIME_CONFIGS], 2)]


class TestRunSeries:
    def test_cell_key_is_stable(self):
        cell = Cell(
            series="s",
            kind="chaos",
            config="crun-wamr",
            count=400,
            seed=1,
            params=(("rate", 0.25),),
        )
        assert cell.key == "chaos:crun-wamr:n400:s1:rate=0.25"
        assert not cell.cacheable
