"""Low-level runtimes, runwasi shims, containerd dispatch."""

import pytest

from repro.container import constants as C
from repro.container.highlevel.containerd import Containerd
from repro.container.highlevel.runwasi import RunwasiShim
from repro.container.lifecycle import Container, ContainerState
from repro.container.lowlevel.base import HOSTS, OCIRuntime, kill_and_delete
from repro.container.lowlevel.crun import EmbeddedEngineHandler
from repro.container.nodeenv import NodeEnv
from repro.core.integration import CONFIGS, build_runtime
from repro.core.wamr_handler import WamrCrunHandler
from repro.engines.registry import get_engine
from repro.errors import ContainerError
from repro.oci.bundle import build_bundle
from repro.sim.kernel import Kernel
from repro.sim.memory import MIB, SystemMemoryModel
from repro.workloads.images import build_python_image, build_wasm_image


@pytest.fixture()
def env() -> NodeEnv:
    kernel = Kernel()
    memory = SystemMemoryModel()
    env = NodeEnv.create(kernel=kernel, memory=memory)
    env.images.push(build_wasm_image())
    env.images.push(build_python_image())
    return env


def make_container(config: str = "crun-wamr") -> Container:
    return Container(
        container_id=f"{config}-1",
        pod_uid="pod1",
        runtime_config=config,
        cgroup="/kubepods/pod1",
    )


def crun_with(engine_name: str) -> OCIRuntime:
    """A crun hosting the upstream handler for ``engine_name``."""
    name = f"crun-{engine_name}"
    return OCIRuntime(
        "crun", EmbeddedEngineHandler(name, get_engine(engine_name), HOSTS["crun"])
    )


class TestHandlerRegistration:
    def test_runc_rejects_handlers(self):
        runc = build_runtime(CONFIGS["runc-python"], SystemMemoryModel())
        assert runc.name == "runc" and runc.handler is None

    def test_crun_and_youki_accept_handlers(self):
        memory = SystemMemoryModel()
        for config_id, host in (("crun-wamr", "crun"), ("youki-wamr", "youki")):
            runtime = build_runtime(CONFIGS[config_id], memory)
            assert runtime.name == host
            assert isinstance(runtime.handler, WamrCrunHandler)
            assert runtime.handler.host is HOSTS[host]

    def test_no_handler_matches_python_bundle(self, env):
        crun = build_runtime(CONFIGS["crun-wamr"], env.memory)
        container = make_container("crun-wamr")
        crun.create_and_exec(env, container, build_bundle("c", build_python_image()))
        assert container.facts["runtime_model"] == "cpython"
        assert "handler" not in container.facts


class TestNativeExec:
    def test_python_workload(self, env):
        crun = OCIRuntime("crun")
        container = make_container("crun-python")
        bundle = build_bundle("c", build_python_image(), env_override={"REQUESTS": "1"})
        exec_s = crun.create_and_exec(env, container, bundle)
        assert container.is_running
        assert container.stdout.count(b"\n") == 2  # ready + 1 request
        assert exec_s == 0.0
        proc = container.processes[0]
        assert proc.private_bytes() > 4 * MIB

    def test_runc_python_slightly_heavier(self, env):
        runc_container = make_container("runc-python")
        crun_container = make_container("crun-python")
        OCIRuntime("runc").create_and_exec(
            env, runc_container, build_bundle("c1", build_python_image())
        )
        OCIRuntime("crun").create_and_exec(
            env, crun_container, build_bundle("c2", build_python_image())
        )
        # runC pods carry a small extra (paper's 17.98% vs 18.15% spread).
        diff = (
            runc_container.processes[0].private_bytes()
            - crun_container.processes[0].private_bytes()
        )
        assert abs(diff) < 0.1 * MIB and diff != 0

    def test_wasm_bundle_without_handler_fails(self, env):
        runc = OCIRuntime("runc")
        container = make_container()
        with pytest.raises(ContainerError, match="no wasm handler"):
            runc.create_and_exec(env, container, build_bundle("c", build_wasm_image()))

    def test_unknown_native_binary_rejected(self, env):
        crun = OCIRuntime("crun")
        container = make_container()
        bundle = build_bundle(
            "c", build_python_image(), args_override=["/usr/bin/node"]
        )
        with pytest.raises(ContainerError, match="no native runtime model"):
            crun.create_and_exec(env, container, bundle)

    def test_kill_and_delete_releases_memory(self, env):
        crun = OCIRuntime("crun")
        container = make_container("crun-python")
        before = env.memory.node_working_set()
        crun.create_and_exec(env, container, build_bundle("c", build_python_image()))
        kill_and_delete(env, container)
        assert container.state is ContainerState.DELETED
        assert env.memory.node_working_set() == before


class TestEmbeddedEngines:
    def test_wasm_execution_real_output(self, env):
        crun = crun_with("wasmedge")
        container = make_container("crun-wasmedge")
        bundle = build_bundle("c", build_wasm_image(), env_override={"REQUESTS": "2"})
        exec_s = crun.create_and_exec(env, container, bundle)
        assert container.stdout.count(b"request served") == 2
        assert container.facts["engine"] == "wasmedge"
        assert exec_s > 0

    def test_engine_lib_shared_across_containers(self, env):
        crun = crun_with("wasmtime")
        for i in range(3):
            c = make_container(f"crun-wasmtime")
            c.container_id = f"c{i}"
            crun.create_and_exec(env, c, build_bundle(f"c{i}", build_wasm_image()))
        assert env.memory.file_mapper_count("lib/libwasmtime.so") == 3

    def test_memory_ranking_wamr_smallest(self, env):
        footprints = {}
        for engine_name in ("wamr", "wasmtime", "wasmer", "wasmedge"):
            crun = crun_with(engine_name)
            c = make_container(f"crun-{engine_name}")
            c.container_id = engine_name
            crun.create_and_exec(env, c, build_bundle(engine_name, build_wasm_image()))
            footprints[engine_name] = c.processes[0].private_bytes()
        assert min(footprints, key=footprints.get) == "wamr"
        assert footprints["wasmer"] == max(footprints.values())


class TestRunwasi:
    def test_parent_and_child_processes(self, env):
        shim = RunwasiShim(get_engine("wasmtime"))
        container = make_container("shim-wasmtime")
        shim.create_and_exec(env, container, build_bundle("c", build_wasm_image()))
        assert len(container.processes) == 2
        parent, child = container.processes
        assert parent.cgroup.startswith("/system.slice")
        assert child.cgroup == "/kubepods/pod1"

    def test_metrics_sees_only_child(self, env):
        shim = RunwasiShim(get_engine("wasmtime"))
        container = make_container("shim-wasmtime")
        shim.create_and_exec(env, container, build_bundle("c", build_wasm_image()))
        pod_ws = env.memory.cgroup_working_set("/kubepods/pod1")
        parent, child = container.processes
        assert pod_ws < parent.private_bytes() + child.rss()
        assert pod_ws >= child.private_bytes()

    def test_rejects_non_wasm_image(self, env):
        shim = RunwasiShim(get_engine("wasmer"))
        container = make_container("shim-wasmer")
        with pytest.raises(ContainerError, match="not a wasm image"):
            shim.create_and_exec(env, container, build_bundle("c", build_python_image()))

    def test_functional_output(self, env):
        shim = RunwasiShim(get_engine("wasmedge"))
        container = make_container("shim-wasmedge")
        shim.create_and_exec(env, container, build_bundle("c", build_wasm_image()))
        assert b"microservice: ready" in container.stdout

    def test_teardown(self, env):
        shim = RunwasiShim(get_engine("wasmtime"))
        container = make_container("shim-wasmtime")
        before = env.memory.node_working_set()
        shim.create_and_exec(env, container, build_bundle("c", build_wasm_image()))
        kill_and_delete(env, container)
        assert env.memory.node_working_set() == before


class TestContainerd:
    def test_sandbox_lifecycle(self, env):
        containerd = Containerd(env)
        handle = containerd.run_pod_sandbox("podA")
        assert handle.pause is not None
        assert env.memory.cgroup_working_set(handle.cgroup) >= C.PAUSE_PRIVATE
        with pytest.raises(ContainerError, match="already exists"):
            containerd.run_pod_sandbox("podA")
        containerd.remove_pod_sandbox("podA")
        assert "podA" not in containerd.pods

    def test_create_container_activity(self, env):
        containerd = Containerd(env)
        containerd.run_pod_sandbox("podA")
        [container] = env.kernel.run_all(
            [
                containerd.create_container(
                    "podA", "crun-wamr", build_wasm_image().reference
                )
            ]
        )
        assert container.is_running
        assert container.exec_started_at is not None
        assert b"ready" in container.stdout

    def test_unknown_config_rejected(self, env):
        containerd = Containerd(env)
        containerd.run_pod_sandbox("podA")
        gen = containerd.create_container("podA", "bogus", build_wasm_image().reference)
        with pytest.raises(ContainerError, match="unknown runtime config"):
            env.kernel.run_all([gen])

    def test_container_without_sandbox_rejected(self, env):
        containerd = Containerd(env)
        gen = containerd.create_container("ghost", "crun-wamr", build_wasm_image().reference)
        with pytest.raises(ContainerError, match="no sandbox"):
            env.kernel.run_all([gen])

    def test_serialized_phase_counts_containers(self, env):
        containerd = Containerd(env)
        for i in range(3):
            containerd.run_pod_sandbox(f"pod{i}")
        gens = [
            containerd.create_container(f"pod{i}", "crun-wamr", build_wasm_image().reference)
            for i in range(3)
        ]
        env.kernel.run_all(gens)
        assert env.containers_created == 3

    def test_first_dlopen_of_each_config_pays_the_load(self, env):
        """Each WAMR-handled config keeps its own loader on the node."""
        containerd = Containerd(env)
        gens = []
        for i, config in enumerate(("crun-wamr", "crun-wamr", "crun-wamr-zygote")):
            containerd.run_pod_sandbox(f"pod{i}")
            gens.append(
                containerd.create_container(
                    f"pod{i}", config, build_wasm_image().reference
                )
            )
        wamr_a, wamr_b, zygote = env.kernel.run_all(gens)
        warm, cold = sorted([wamr_a.facts["dlopen_s"], wamr_b.facts["dlopen_s"]])
        assert warm < cold == zygote.facts["dlopen_s"]
        assert zygote.facts["handler"] == "crun-wamr-zygote"

    def test_remove_pod_tears_down_containers(self, env):
        containerd = Containerd(env)
        containerd.run_pod_sandbox("podA")
        env.kernel.run_all(
            [containerd.create_container("podA", "shim-wasmtime", build_wasm_image().reference)]
        )
        baseline = sum(1 for _ in env.memory.processes())
        containerd.remove_pod_sandbox("podA")
        # pause + shim parent + shim child all gone.
        assert sum(1 for _ in env.memory.processes()) == baseline - 3
