"""Container lifecycle state machine + startup profiles."""

import pytest

from repro.container.lifecycle import Container, ContainerState
from repro.container.startup import startup_profile
from repro.core.integration import RUNTIME_CONFIGS
from repro.errors import InvalidTransition


def fresh() -> Container:
    return Container(
        container_id="c1", pod_uid="p1", runtime_config="crun-wamr", cgroup="/kubepods/p1"
    )


class TestLifecycle:
    def test_happy_path(self):
        c = fresh()
        c.transition(ContainerState.CREATED)
        c.transition(ContainerState.RUNNING)
        assert c.is_running
        c.transition(ContainerState.STOPPED)
        c.transition(ContainerState.DELETED)

    def test_kill_before_start(self):
        c = fresh()
        c.transition(ContainerState.CREATED)
        c.transition(ContainerState.STOPPED)

    def test_cannot_run_from_creating(self):
        c = fresh()
        with pytest.raises(InvalidTransition):
            c.transition(ContainerState.RUNNING)

    def test_cannot_delete_running(self):
        c = fresh()
        c.transition(ContainerState.CREATED)
        c.transition(ContainerState.RUNNING)
        with pytest.raises(InvalidTransition):
            c.transition(ContainerState.DELETED)

    def test_cannot_resurrect(self):
        c = fresh()
        c.transition(ContainerState.CREATED)
        c.transition(ContainerState.STOPPED)
        c.transition(ContainerState.DELETED)
        with pytest.raises(InvalidTransition):
            c.transition(ContainerState.RUNNING)


class TestStartupProfiles:
    def test_all_nine_configs_present(self):
        assert len(RUNTIME_CONFIGS) == 9
        for config in RUNTIME_CONFIGS:
            profile = startup_profile(config)
            assert profile.pipeline_s > 0
            assert profile.parallel_s > 0
            assert profile.serial_s >= 0

    def test_unknown_config(self):
        with pytest.raises(KeyError, match="no startup profile"):
            startup_profile("docker-v8")

    def test_serial_hold_grows_with_density(self):
        p = startup_profile("crun-wamr")
        assert p.serial_hold(400) > p.serial_hold(0) == p.serial_s

    def test_runwasi_pipeline_is_shortest(self):
        """runwasi skips the shim→crun hop (fewer sequential hops)."""
        for shim in ("shim-wasmtime", "shim-wasmedge", "shim-wasmer"):
            assert startup_profile(shim).pipeline_s < startup_profile("crun-wamr").pipeline_s

    def test_runc_pipeline_is_slowest(self):
        assert startup_profile("runc-python").pipeline_s > startup_profile("crun-python").pipeline_s

    def test_ours_has_smallest_parallel_cost(self):
        """The WAMR handler avoids JIT compilation and CPython boot."""
        ours = startup_profile("crun-wamr").parallel_s
        for other in RUNTIME_CONFIGS:
            if other != "crun-wamr":
                assert ours < startup_profile(other).parallel_s

    def test_runwasi_growth_exceeds_crun_wasmtime(self):
        """The Fig 8 → Fig 9 ranking flip mechanism."""
        assert (
            startup_profile("shim-wasmtime").serial_growth_s
            > startup_profile("crun-wamr").serial_growth_s
            > startup_profile("crun-wasmtime").serial_growth_s
        )
