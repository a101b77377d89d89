"""Specialization-tier toggle end-to-end: figure inputs must not move.

The acceptance criterion for the specialization tier is that it changes
*speed only*: every measurement feeding the paper's figures — working
sets, free-memory deltas, startup makespans, per-phase traces — is
byte-identical whether ``REPRO_SPECIALIZE`` is off or on. Engine runs
are metered: with the tier on they run the metered closures, which
retire the same instructions, debit the same fuel and exhaust at the
same instruction as the flat code the tier-off runs execute (the fuel
sweeps in ``tests/wasm/test_differential.py`` pin that per budget).

The measurement caches (in-process lru + on-disk) are defeated so both
sides of every comparison run the full simulation.
"""

import pytest

from repro.engines.cache import reset_caches
from repro.measure.experiment import ExperimentRunner, _cached_measurement, measure
from repro.measure.figures import fig8_startup_10
from repro.measure.report import render_series

DENSITY = 15


@pytest.fixture(autouse=True)
def fresh_measurements(monkeypatch):
    monkeypatch.setenv("REPRO_MEASURE_CACHE", "off")
    _cached_measurement.cache_clear()
    reset_caches()
    yield
    _cached_measurement.cache_clear()
    reset_caches()


def _measure_with(monkeypatch, spec_mode, config, count=DENSITY):
    monkeypatch.setenv("REPRO_SPECIALIZE", spec_mode)
    reset_caches()
    return ExperimentRunner(seed=7).run(config, count)


class TestMeasurementsByteIdentical:
    @pytest.mark.parametrize("config", ["crun-wamr", "crun-wasmtime"])
    def test_wasm_config_unaffected_by_toggle(self, config, monkeypatch):
        on = _measure_with(monkeypatch, "on", config)
        off = _measure_with(monkeypatch, "off", config)
        assert on == off  # full dataclass equality, phase traces included

    def test_python_baseline_unaffected(self, monkeypatch):
        on = _measure_with(monkeypatch, "on", "runc-python")
        off = _measure_with(monkeypatch, "off", "runc-python")
        assert on == off


class TestFigureOutputsByteIdentical:
    def _render_fig8(self, monkeypatch, spec_mode):
        monkeypatch.setenv("REPRO_SPECIALIZE", spec_mode)
        _cached_measurement.cache_clear()
        reset_caches()
        return render_series(fig8_startup_10(seed=7))

    def test_fig8_renders_identically(self, monkeypatch):
        on = self._render_fig8(monkeypatch, "on")
        off = self._render_fig8(monkeypatch, "off")
        assert on == off

    def test_measure_helper_identical_at_density(self, monkeypatch):
        # `measure` is the single entry point behind every figN_* series,
        # so identity here extends to all figures at this density.
        monkeypatch.setenv("REPRO_SPECIALIZE", "on")
        reset_caches()
        on = measure("crun-wamr", DENSITY, seed=11)
        monkeypatch.setenv("REPRO_SPECIALIZE", "off")
        _cached_measurement.cache_clear()
        reset_caches()
        off = measure("crun-wamr", DENSITY, seed=11)
        assert on == off
