"""The ablation runtime configurations, end to end on the cluster."""

import pytest

from repro.core.integration import ABLATION_CONFIGS
from repro.measure.experiment import ExperimentRunner

DENSITY = 15


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(seed=17)


class TestAblationConfigs:
    def test_registry(self):
        assert set(ABLATION_CONFIGS) == {
            "crun-wamr-aot",
            "crun-wamr-static",
            "youki-wamr",
            "crun-wamr-zygote",
        }
        assert all(not c.is_ours for c in ABLATION_CONFIGS.values())

    def test_all_run_to_ready(self, runner):
        for config in ABLATION_CONFIGS:
            m = runner.run(config, DENSITY)
            assert m.ready_fraction == 1.0, config
            assert set(m.exit_codes) == {0}, config

    def test_static_pays_for_private_text(self, runner):
        shared = runner.run("crun-wamr", DENSITY)
        static = runner.run("crun-wamr-static", DENSITY)
        assert static.metrics_mib > shared.metrics_mib + 1.0  # ~libiwasm copy

    def test_aot_memory_and_startup_cost(self, runner):
        interp = runner.run("crun-wamr", DENSITY)
        aot = runner.run("crun-wamr-aot", DENSITY)
        assert aot.metrics_mib > interp.metrics_mib
        assert aot.startup_seconds > interp.startup_seconds

    @pytest.mark.parametrize("seed", [1, 17])
    def test_youki_close_to_crun(self, seed):
        runner = ExperimentRunner(seed=seed)
        crun = runner.run("crun-wamr", DENSITY)
        youki = runner.run("youki-wamr", DENSITY)
        # Same handler, slightly heavier host runtime: youki's text and
        # retained heap, not crun's, whatever the seed's jitter draws.
        assert 0 < youki.metrics_mib - crun.metrics_mib < 1.0
        # Still far below any upstream engine handler.
        wasmedge = runner.run("crun-wasmedge", DENSITY)
        assert youki.metrics_mib < 0.6 * wasmedge.metrics_mib

    def test_ablations_keep_functional_output(self, runner):
        m = runner.run("crun-wamr-aot", DENSITY)
        assert m.ready_fraction == 1.0
