"""Zygote warm-start end-to-end: deployment experiments on the testbed.

The zygote configuration converges functionally and beats cold
crun-wamr on both startup and memory.
"""

import pytest

from repro.measure.experiment import ExperimentRunner

DENSITY = 15


@pytest.fixture()
def runner():
    return ExperimentRunner(seed=23)


class TestZygoteDeployment:
    def test_runs_to_ready(self, runner):
        m = runner.run("crun-wamr-zygote", DENSITY)
        assert m.ready_fraction == 1.0
        assert set(m.exit_codes) == {0}

    def test_leaner_than_cold_crun_wamr(self, runner):
        cold = runner.run("crun-wamr", DENSITY)
        warm = runner.run("crun-wamr-zygote", DENSITY)
        # The COW snapshot replaces most per-container private memory.
        assert warm.metrics_mib < 0.7 * cold.metrics_mib
        assert warm.free_mib < cold.free_mib

    def test_faster_at_density(self, runner):
        # The startup win comes from the serialized-phase growth term, so
        # measure at a density where it dominates.
        cold = runner.run("crun-wamr", 100)
        warm = runner.run("crun-wamr-zygote", 100)
        assert warm.startup_seconds < cold.startup_seconds

