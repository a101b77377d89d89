"""The WAMR-in-crun integration (the paper's contribution)."""

import pytest

from repro.container.lifecycle import Container
from repro.container.nodeenv import NodeEnv
from repro.container.lowlevel.crun import EmbeddedEngineHandler
from repro.container.startup import PROFILES
from repro.core import (
    CONFIGS,
    CRUN_WAMR_CONFIG,
    DynamicLibraryLoader,
    WamrCrunHandler,
    build_runtime,
)
from repro.core.integration import ABLATION_CONFIGS, RUNTIME_CONFIGS
from repro.oci.bundle import build_bundle
from repro.oci.spec import MountSpec
from repro.sim.kernel import Kernel
from repro.sim.memory import MIB, SystemMemoryModel
from repro.workloads.images import build_python_image, build_wasm_image


@pytest.fixture()
def env() -> NodeEnv:
    e = NodeEnv.create(kernel=Kernel(), memory=SystemMemoryModel())
    e.images.push(build_wasm_image())
    return e


def wamr_handler(memory: SystemMemoryModel) -> WamrCrunHandler:
    """The paper's handler, as the builder gives it to ``crun-wamr``."""
    return build_runtime(CONFIGS[CRUN_WAMR_CONFIG], memory).handler


def make_container(i: int = 0) -> Container:
    return Container(
        container_id=f"wamr-{i}",
        pod_uid=f"pod{i}",
        runtime_config=CRUN_WAMR_CONFIG,
        cgroup=f"/kubepods/pod{i}",
    )


class TestDynamicLibraryLoader:
    def test_first_load_slower_than_warm(self):
        memory = SystemMemoryModel()
        loader = DynamicLibraryLoader(memory)
        p1 = memory.spawn("a")
        p2 = memory.spawn("b")
        cold = loader.dlopen(p1, "lib/libiwasm.so", 2 * MIB)
        warm = loader.dlopen(p2, "lib/libiwasm.so", 2 * MIB)
        assert cold > warm

    def test_text_shared_once(self):
        memory = SystemMemoryModel()
        loader = DynamicLibraryLoader(memory)
        for i in range(5):
            loader.dlopen(memory.spawn(f"p{i}"), "lib/libiwasm.so", 2 * MIB)
        assert memory.node_working_set() == 2 * MIB
        assert loader.load_count["lib/libiwasm.so"] == 5

    def test_lazy_nothing_loaded_without_wasm(self):
        loader = DynamicLibraryLoader(SystemMemoryModel())
        assert not loader.is_loaded("lib/libiwasm.so")


class TestWasiWorld:
    def test_args_env_from_oci_spec(self):
        handler = wamr_handler(SystemMemoryModel())
        bundle = build_bundle(
            "c",
            build_wasm_image(),
            args_override=["/app/main.wasm", "--mode", "svc"],
            env_override={"REQUESTS": "1"},
        )
        world = handler.build_wasi_world(bundle)
        assert world["args"] == ["/app/main.wasm", "--mode", "svc"]
        assert world["env"]["REQUESTS"] == "1"
        assert world["env"]["SERVICE"] == "microservice"

    def test_preopens_include_rootfs_and_mounts(self):
        handler = wamr_handler(SystemMemoryModel())
        bundle = build_bundle(
            "c",
            build_wasm_image(),
            mounts=[MountSpec(destination="/config", source="/host/config")],
        )
        world = handler.build_wasi_world(bundle)
        assert world["preopens"]["/"] == "rootfs"
        assert world["preopens"]["/config"] == "/host/config"


class TestExecution:
    def test_runs_module_in_process(self, env):
        handler = wamr_handler(env.memory)
        container = make_container()
        proc = env.memory.spawn("crun:wamr-0", cgroup=container.cgroup)
        container.processes.append(proc)
        exec_s = handler.execute(env, container, build_bundle("c", build_wasm_image()), proc)
        assert container.exit_code == 0
        assert b"microservice: ready" in container.stdout
        assert container.facts["handler"] == "crun-wamr"
        assert exec_s > 0
        # In-process: exactly one process, hosting both crun and WAMR.
        assert len(container.processes) == 1

    def test_dlopen_cost_amortizes(self, env):
        handler = wamr_handler(env.memory)
        costs = []
        for i in range(3):
            container = make_container(i)
            proc = env.memory.spawn(f"crun:{i}", cgroup=container.cgroup)
            container.processes.append(proc)
            handler.execute(env, container, build_bundle(f"c{i}", build_wasm_image()), proc)
            costs.append(container.facts["dlopen_s"])
        assert costs[0] > costs[1] == costs[2]

    def test_memory_footprint_small(self, env):
        handler = wamr_handler(env.memory)
        container = make_container()
        proc = env.memory.spawn("crun:wamr", cgroup=container.cgroup)
        container.processes.append(proc)
        handler.execute(env, container, build_bundle("c", build_wasm_image()), proc)
        assert proc.private_bytes() < 5 * MIB

    def test_matches_only_wasm(self, env):
        """crun-python is the paper's modified crun: a Python image is
        exec'd natively, a wasm image still runs through WAMR."""
        crun = build_runtime(CONFIGS["crun-python"], env.memory)
        env.images.push(build_python_image())
        native, wasm = make_container(0), make_container(1)
        crun.create_and_exec(env, native, build_bundle("c0", build_python_image()))
        crun.create_and_exec(env, wasm, build_bundle("c1", build_wasm_image()))
        assert native.facts["runtime_model"] == "cpython"
        assert "handler" not in native.facts
        assert wasm.facts["handler"] == "crun-python"
        assert wasm.facts["engine"] == "wamr"
        assert b"microservice: ready" in wasm.stdout


class TestIntegrationAssembly:
    def test_wamr_handler_registered(self):
        crun = build_runtime(CONFIGS[CRUN_WAMR_CONFIG], SystemMemoryModel())
        assert crun.name == "crun"
        assert isinstance(crun.handler, WamrCrunHandler)
        assert crun.handler.name == "crun-wamr"

    def test_runtime_config_table_complete(self):
        assert len(RUNTIME_CONFIGS) == 9
        assert RUNTIME_CONFIGS[CRUN_WAMR_CONFIG].is_ours
        assert sum(1 for c in RUNTIME_CONFIGS.values() if c.is_ours) == 1
        families = {c.family for c in RUNTIME_CONFIGS.values()}
        assert families == {"crun", "runc", "runwasi"}

    def test_configs_and_startup_profiles_name_the_same_ids(self):
        assert len(CONFIGS) == len(RUNTIME_CONFIGS) + len(ABLATION_CONFIGS) == 13
        assert set(PROFILES) == set(CONFIGS)

    def test_baseline_builder(self):
        crun = build_runtime(CONFIGS["crun-wasmedge"], SystemMemoryModel())
        assert isinstance(crun.handler, EmbeddedEngineHandler)
        assert crun.handler.name == "crun-wasmedge"
