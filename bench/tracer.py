"""Per-layer wall-clock attribution, recorded from outside the program.

The tracer wraps the public functions at each layer boundary (the table
:data:`BOUNDARIES`, layers named after ``repro`` modules) and times one
span per call, with a stack of the open spans giving each its parent. A
layer's self time is the duration of its spans minus the part their child
spans cover, so work in a helper that is not wrapped lands in the layer
that called it.

Wrappers are installed by replacing the class attribute, or, for a
module-level function, the attribute of every loaded module that imported
it by name. Generator functions (activities the simulation kernel
resumes) get a proxy that records one span per resume, because their work
happens between yields, not when they are called.

Boundaries that take more than about 100k calls per iteration are not
wrapped: registry ``inc``/``observe``, ``node_working_set`` and the
interpreter's instruction handlers. Neither are calls made once or more
per pod that take about as long as the wrapper adds (0.5-1 us):
``Tracer.record``, ``APIServer.bind_pod/delete_pod`` and
``ImageStore.pull``. Their time is the caller's self time.

Each boundary names the workloads on which it must be called. A traced
run fails if one of them records no call, so a renamed or bypassed
function cannot quietly report zero.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from workloads import NAMES

ALL = frozenset(NAMES)
SIM = ALL - {"guest"}
DEPLOY = frozenset({"density", "fleet", "campaign"})
CHAOS = frozenset({"chaos"})

#: (layer, "module:attribute path", workloads on which it must be called)
BOUNDARIES: Tuple[Tuple[str, str, FrozenSet[str]], ...] = (
    ("sim.kernel", "repro.sim.kernel:Kernel.run", SIM),
    ("sim.memory", "repro.sim.memory:SystemMemoryModel.spawn", SIM),
    ("sim.memory", "repro.sim.memory:SystemMemoryModel.exit", SIM),
    ("sim.memory", "repro.sim.memory:SystemMemoryModel.map_private", SIM),
    ("sim.memory", "repro.sim.memory:SystemMemoryModel.map_file", SIM),
    ("sim.memory", "repro.sim.memory:SystemMemoryModel.map_cow", frozenset({"fleet"})),
    ("sim.memory", "repro.sim.memory:SystemMemoryModel.cgroup_working_sets", SIM),
    ("sim.memory", "repro.sim.memory:SystemMemoryModel.cgroup_working_set", CHAOS),
    ("sim.memory", "repro.sim.memory:SystemMemoryModel.verify_accounting", CHAOS),
    ("sim.rng", "repro.sim.rng:RngStreams.jitter", SIM),
    ("sim.trace", "repro.sim.trace:Tracer.phase_means", frozenset({"density", "campaign"})),
    ("sim.trace", "repro.sim.trace:Tracer.phase_stats", frozenset({"fleet"})),
    ("k8s.scheduler", "repro.k8s.scheduler:Scheduler.schedule", SIM),
    ("k8s.kubelet", "repro.k8s.kubelet:Kubelet.sync_pod", SIM),
    ("k8s.apiserver", "repro.k8s.apiserver:APIServer.create_pod", SIM),
    ("k8s.apiserver", "repro.k8s.apiserver:APIServer.set_phase", SIM),
    ("k8s.controllers", "repro.k8s.controllers:DeploymentController.create", CHAOS),
    ("k8s.controllers", "repro.k8s.controllers:DeploymentController.reconcile", CHAOS),
    ("k8s.controllers", "repro.k8s.controllers:DeploymentController.delete", CHAOS),
    ("k8s.metrics_server", "repro.k8s.metrics_server:MetricsServer.scrape", SIM),
    ("k8s.cluster", "repro.k8s.cluster:build_cluster", SIM),
    ("k8s.cluster", "repro.k8s.cluster:Cluster.teardown", SIM),
    ("k8s.cluster", "repro.k8s.cluster:Cluster.reconcile_and_wait", CHAOS),
    ("container", "repro.container.nodeenv:NodeEnv.create", SIM),
    ("container", "repro.container.highlevel.containerd:Containerd.__init__", SIM),
    ("container", "repro.container.highlevel.containerd:Containerd.create_container", SIM),
    ("oci", "repro.oci.store:ImageStore.push", SIM),
    ("oci", "repro.oci.bundle:build_bundle", SIM),
    ("wasm.decode", "repro.wasm.decoder:decode_module", ALL),
    ("wasm.validate", "repro.wasm.validation:validate_module", ALL),
    ("wasm.prepare", "repro.wasm.runtime.compile:prepare_module", ALL),
    ("wasm.specialize", "repro.wasm.runtime.specialize:specialize_module", ALL),
    ("wasm.exec", "repro.wasm.embed:run_wasi", ALL),
    ("wasm.exec", "repro.wasm.runtime.interpreter:Interpreter.invoke", ALL),
    ("engines.cache", "repro.engines.cache:decode_cached", frozenset({"guest"})),
    ("engines.cache", "repro.engines.cache:compile_cached", SIM),
    ("engines.cache", "repro.engines.cache:run_cached", SIM),
    ("engines.cache", "repro.engines.cache:clear_cache_state", CHAOS),
    ("obs", "repro.obs:new_context", CHAOS),
    ("obs", "repro.obs.timeseries:Sampler.tick", CHAOS),
    ("obs", "repro.obs.timeseries:Sampler.sample_now", CHAOS),
    ("obs", "repro.obs.rules:RuleEngine.evaluate", CHAOS),
    ("measure", "repro.measure.experiment:ExperimentRunner.run", DEPLOY),
    ("measure", "repro.measure.campaign:run_campaign", frozenset({"campaign"})),
    ("measure", "repro.measure.series:run_cell", frozenset({"campaign"})),
    ("measure", "repro.measure.chaos:run_chaos", CHAOS),
    ("measure", "repro.measure.free:FreeSampler.delta", DEPLOY),
    ("measure", "repro.measure.stats:summarize", DEPLOY),
)

#: call-count metrics: metric name → boundary target
COUNTED = {
    "sim.rng.jitter.calls": "repro.sim.rng:RngStreams.jitter",
    "k8s.scheduler.schedule.calls": "repro.k8s.scheduler:Scheduler.schedule",
    "container.create_container.calls":
        "repro.container.highlevel.containerd:Containerd.create_container",
    "wasm.validate.calls": "repro.wasm.validation:validate_module",
    "wasm.exec.invoke.calls": "repro.wasm.runtime.interpreter:Interpreter.invoke",
}

#: the layer of the iteration itself: benchmark code between boundaries
ROOT = "bench"

LAYERS = tuple(sorted({layer for layer, _, _ in BOUNDARIES} | {ROOT}))


class BoundaryError(RuntimeError):
    """A declared boundary is missing, or was never called where it must be."""


def _resolve(target: str):
    """``"pkg.mod:Cls.attr"`` → (owner, attribute name, raw attribute)."""
    module_name, _, path = target.partition(":")
    *parents, name = path.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in parents:
            owner = getattr(owner, part)
        return owner, name, vars(owner)[name]
    except (ImportError, AttributeError, KeyError):
        raise BoundaryError(f"boundary {target} not found (renamed?)") from None


class _TracedGenerator:
    """Generator proxy: one span per resume (send/throw/next)."""

    __slots__ = ("_gen", "_resume")

    def __init__(self, gen, resume) -> None:
        self._gen = gen
        self._resume = resume

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(lambda _: self._gen.throw(*exc), None)

    def close(self):
        return self._gen.close()


class LayerTracer:
    """Installs the boundary wrappers and reduces spans to layer metrics.

    Spans are reduced as they close: each boundary accumulates its self
    time (span minus child spans) and its calls. Nothing grows with the
    span count, so the tracer adds no garbage for the collector to walk.

    Use as a context manager around the traced iterations; call
    :meth:`run` once per iteration.
    """

    def __init__(self, boundaries=BOUNDARIES) -> None:
        self.boundaries = tuple(boundaries)
        self._layer_of: List[Optional[str]] = [b[0] for b in self.boundaries] + [ROOT]
        self._root = len(self.boundaries)
        self._index = {target: i for i, (_, target, _) in enumerate(self.boundaries)}
        # One slot per boundary, one for the root, and a last one (never
        # reported) that stands for "no span open" at the stack's bottom.
        self._layer_of.append(None)
        n = len(self._layer_of)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        #: calls summed over every iteration, for the boundary check
        self.total_calls = [0] * n
        #: open spans' boundaries, innermost last
        self._stack: List[int] = [n - 1]
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_started = 0.0
        self.gc_pause = 0.0
        self.gc_collections = 0

    # -- span recording ------------------------------------------------------

    def _wrap(self, fn, bid: int):
        """A stand-in for ``fn`` that records one span per call (or resume)."""
        self_s, calls, stack, clock = self.self_s, self.calls, self._stack, time.perf_counter

        # The span bookkeeping is written out in each closure rather than
        # shared through a helper: one Python frame less per traced call.
        # A span adds its time to its own self time and takes it off its
        # parent's, so self time = span - children without a second stack.
        def span(method, arg):
            parent = stack[-1]
            stack.append(bid)
            start = clock()
            try:
                return method(arg)
            finally:
                took = clock() - start
                stack.pop()
                self_s[bid] += took
                self_s[parent] -= took

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                calls[bid] += 1
                return _TracedGenerator(fn(*args, **kwargs), span)

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[bid] += 1
            parent = stack[-1]
            stack.append(bid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[bid] += took
                self_s[parent] -= took

        return traced

    def _on_gc(self, phase: str, _info) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for bid, (_, target, _) in enumerate(self.boundaries):
            owner, name, raw = _resolve(target)
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(owner, name, type(raw)(self._wrap(raw.__func__, bid)))
                continue
            if not inspect.isfunction(raw):
                raise BoundaryError(f"boundary {target} is not a function")
            wrapped = self._wrap(raw, bid)
            if inspect.isclass(owner):
                self._patch(owner, name, wrapped)
                continue
            # A module-level function: rebind every name bound to it.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None) or {}
                for attr, value in list(namespace.items()):
                    if value is raw:
                        self._patch(module, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- one iteration -----------------------------------------------------------

    def run(self, iterate):
        """Run ``iterate()`` as the root span; returns (result, metrics)."""
        for counters in (self.self_s, self.calls):
            counters[:] = [0] * len(counters)
        self.gc_pause, self.gc_collections = 0.0, 0
        result = self._wrap(iterate, self._root)()
        for bid, n in enumerate(self.calls):
            self.total_calls[bid] += n
        return result, self._metrics()

    def _metrics(self) -> Dict[str, float]:
        metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        memory_calls = 0
        for bid, layer in enumerate(self._layer_of[: self._root + 1]):
            metrics[f"{layer}.self_s"] += self.self_s[bid]
            if layer == "sim.memory":
                memory_calls += self.calls[bid]
        metrics["sim.memory.calls"] = float(memory_calls)
        for metric, target in COUNTED.items():
            metrics[metric] = float(self.calls[self._index[target]])
        schedule = self._index["repro.k8s.scheduler:Scheduler.schedule"]
        decisions = self.calls[schedule]
        metrics["k8s.scheduler.us_per_decision"] = (
            1e6 * self.self_s[schedule] / decisions if decisions else 0.0
        )
        metrics["gc.pause_s"] = self.gc_pause
        metrics["gc.collections"] = float(self.gc_collections)
        # The root span took its duration off the "no span open" slot.
        metrics["trace.wall_p50_s"] = -self.self_s[-1]
        return metrics

    def top_boundaries(self, k: int = 8) -> List[Tuple[str, float]]:
        """Boundaries by self time in the last iteration, largest first."""
        names = [target for _, target, _ in self.boundaries] + [ROOT]
        return sorted(zip(names, self.self_s), key=lambda kv: -kv[1])[:k]

    def check_boundaries(self, workload: str) -> None:
        """Raise if a boundary expected on ``workload`` was never called."""
        silent = [
            target
            for bid, (_, target, expected) in enumerate(self.boundaries)
            if workload in expected and self.total_calls[bid] == 0
        ]
        if silent:
            raise BoundaryError(
                f"{len(silent)} boundaries never called on {workload} "
                f"(renamed or bypassed?): {', '.join(silent)}"
            )
