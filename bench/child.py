"""One benchmark child: set up a workload, run it, print one JSON line.

``bench/run.py`` starts it with every ``REPRO_*`` variable removed:

    python bench/child.py MODE WORKLOAD SEED SECONDS PIN [--quick]

MODE is ``setup`` (import and the untimed warm-up iteration only),
``timed`` (then closed-loop iterations for SECONDS) or ``trace`` (then,
for SECONDS, pairs of one untraced and one traced iteration, so that a
change in the host's speed reaches both halves of the overhead ratio
alike). PIN is the expected digest of the model result, or ``-`` when
this seed has none.

Set-up time runs from this file's first line, before ``repro`` is
imported, to the end of the warm-up iteration: the time to first result
of a one-shot run. Set-up and timed iterations are reported both in host
seconds and in reference seconds (``bench/probe.py``), which the probe
started on the next line measures.
"""

import time

T0 = time.perf_counter()

import probe  # noqa: E402

PROBE = probe.SpeedProbe()
PROBE.start()

import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

CACHE_LAYERS = ("decode", "prepare", "specialize", "run", "zygote")


def loop(seconds: float, step) -> list:
    """Call ``step()`` at least once and until ``seconds`` have passed.

    A step that would probably end past ``seconds`` (it would take as long
    as the last one) is not started, so a run never overshoots by a whole
    iteration. Returns the steps' results.
    """
    out = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        out.append(step())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return out


class Runner:
    """Runs iterations of one workload and tallies their outcomes."""

    def __init__(self, instance: workloads.Instance, pin) -> None:
        self.instance = instance
        #: digest every iteration must match: the pin, else the warm-up's
        self.reference = pin
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def iteration(self, tracer=None):
        """One closed-loop iteration.

        Returns (result or None, start, end, layer metrics); start and end
        are ``perf_counter`` readings around the timed call.
        """
        workloads.reset_process_state()
        gc.collect()
        self.attempted += 1
        layer = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.instance.iterate()
            else:
                result, layer = tracer.run(self.instance.iterate)
        except Exception as exc:  # a failed iteration is counted, not fatal
            end = time.perf_counter()
            self._fail(f"{type(exc).__name__}: {exc}")
            return None, start, end, None
        end = time.perf_counter()
        problems = self.instance.check(result)
        digest = self.instance.digest(result)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"digest {digest} != expected {self.reference}")
        if problems:
            self._fail("; ".join(problems))
            return None, start, end, None
        if layer is not None:
            layer.update(self._result_layers(result))
        return result, start, end, layer

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def _result_layers(self, result):
        """Per-layer numbers read from the result and the engine caches."""
        from repro.engines import cache as engine_cache

        out = {"k8s.kubelet.restarts": 0.0, "sim.faults.fired": 0.0}
        out.update(self.instance.counts(result))
        stats = engine_cache.cache_stats()
        for name in CACHE_LAYERS:
            total = stats[name]["hits"] + stats[name]["misses"]
            out[f"engines.cache.{name}.hit_ratio"] = (
                stats[name]["hits"] / total if total else 0.0
            )
        out["engines.cache.rebuilds"] = float(sum(engine_cache.cache_rebuilds().values()))
        return out


def traced_pairs(runner: Runner, name: str, seconds: float):
    """Alternate untraced and traced iterations.

    Returns the per-layer medians and the boundaries with the most self
    time in the last traced iteration.
    """
    from tracer import LayerTracer

    tracer = LayerTracer()

    def pair():
        _, start, end, _ = runner.iteration()
        with tracer:
            _, _, _, layer = runner.iteration(tracer)
        return end - start, layer

    pairs = loop(seconds, pair)
    tracer.check_boundaries(name)
    layers = [layer for _, layer in pairs if layer is not None]
    if not layers:  # every traced iteration failed: the tally says why
        return {}, []
    per_layer = {key: statistics.median(it[key] for it in layers) for key in layers[0]}
    per_layer["trace.overhead_frac"] = (
        per_layer["trace.wall_p50_s"] / statistics.median(u for u, _ in pairs) - 1
    )
    return per_layer, tracer.top_boundaries()


def main(argv) -> int:
    mode, name, seed, seconds, pin = argv[:5]
    quick = "--quick" in argv[5:]
    runner = Runner(workloads.build(name, int(seed), quick=quick), None if pin == "-" else pin)
    runner.iteration()
    setup_end = time.perf_counter()
    out = {"setup_s": PROBE.scaled(T0, setup_end), "setup_wall_s": setup_end - T0}
    seconds = float(seconds)

    if mode == "timed":

        def step():
            # Keep no result alive: peak memory must not grow with the
            # number of iterations a run happens to fit.
            result, start, end, _ = runner.iteration()
            work = 0.0 if result is None else runner.instance.work(result)
            return end - start, PROBE.scaled(start, end), work

        walls, scaled, works = zip(*loop(seconds, step))
        out.update(
            walls=walls,
            scaled=scaled,
            works=works,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    elif mode == "trace":
        # Traced and untraced iterations are compared in host seconds
        # within one run; the probe would only add to both.
        PROBE.stop()
        per_layer, top = traced_pairs(runner, name, seconds)
        out.update(per_layer=per_layer, top_boundaries=top)
    PROBE.stop()

    out.update(
        digest=runner.reference,
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
