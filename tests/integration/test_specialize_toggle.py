"""Specialization tier end-to-end: figure inputs must not move.

The acceptance criterion for the specialization tier is that it changes
*speed only*: every measurement feeding the paper's figures — working
sets, free-memory deltas, startup makespans, per-phase traces — is
byte-identical whether guest code runs on the tier or on the prepared
flat code (the ``flat_tier`` fixture: the pass declines, as it does for
a function it cannot compile). Engine runs are metered: on the tier
they run the metered closures, which retire the same instructions,
debit the same fuel and exhaust at the same instruction as the flat
code (the fuel sweeps in ``tests/wasm/test_differential.py`` pin that
per budget). Each flat side asserts that it attached no specialized
code, and each specialized side that the pass stored some.

The measurement caches (the in-process memo + on-disk) are defeated so both
sides of every comparison run the full simulation.
"""

import pytest

from repro.engines.cache import cache_stats, reset_caches
from repro.measure import series
from repro.measure.experiment import ExperimentRunner, measure
from repro.measure.figures import fig8_startup_10
from repro.measure.report import render_series

DENSITY = 15


@pytest.fixture(autouse=True)
def fresh_measurements(monkeypatch):
    monkeypatch.setenv("REPRO_MEASURE_CACHE", "off")
    series._MEMO.clear()
    reset_caches()
    yield
    series._MEMO.clear()
    reset_caches()


def _both_tiers(flat_tier, run):
    """``run()`` on the specialization tier, then on flat code."""
    series._MEMO.clear()
    reset_caches()
    on = run()
    assert cache_stats()["specialize"]["entries"] > 0
    series._MEMO.clear()
    with flat_tier() as specialized:
        off = run()
        assert specialized() == 0, "the flat side ran specialized code"
    return on, off


class TestMeasurementsByteIdentical:
    @pytest.mark.parametrize("config", ["crun-wamr", "crun-wasmtime"])
    def test_wasm_config_unaffected_by_toggle(self, config, flat_tier):
        on, off = _both_tiers(
            flat_tier, lambda: ExperimentRunner(seed=7).run(config, DENSITY)
        )
        assert on == off  # full dataclass equality, phase traces included

    def test_python_baseline_unaffected(self, flat_tier):
        # The Python baseline runs no guest Wasm. Figs 6-7 measure it in
        # the process that measured crun-wamr, so each side measures it
        # after a crun-wamr deployment on that side's tier.
        def run():
            wasm = ExperimentRunner(seed=7).run("crun-wamr", DENSITY)
            return wasm, ExperimentRunner(seed=7).run("runc-python", DENSITY)

        on, off = _both_tiers(flat_tier, run)
        assert on == off


class TestFigureOutputsByteIdentical:
    def test_fig8_renders_identically(self, flat_tier):
        on, off = _both_tiers(
            flat_tier, lambda: render_series(fig8_startup_10(seed=7))
        )
        assert on == off

    def test_measure_helper_identical_at_density(self, flat_tier):
        # `measure` and every figN_* series fetch measurements through
        # `execute_cells`, so identity here extends to all figures at
        # this density.
        on, off = _both_tiers(
            flat_tier, lambda: measure("crun-wamr", DENSITY, seed=11)
        )
        assert on == off
