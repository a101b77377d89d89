"""Tests of the benchmark itself: ``pytest bench/`` (not part of tier-1).

Every workload runs at the ``--quick`` scale: a few pods, one timed (or
one untraced and one traced) iteration. The tests check that each metric ``BENCHMARK.json`` declares
is emitted with its unit, that the speed probe's and the tracer's
arithmetic closes, and that a wrong model result is counted as a failure
instead of crashing the run.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import probe  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = bench.load_spec()


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    result = bench.run_workload(name, seed=1, seconds=0, trace=trace, quick=True)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], result["_detail"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_pin_counts_as_failed_iterations():
    result = bench.run_workload(
        "guest", seed=1, seconds=0, quick=True, pins={"guest": {"1": "0" * 16}}
    )
    assert not result["correct"]
    assert result["failed"] >= result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_probe_scales_by_the_speed_measured_inside_the_interval():
    speed = probe.SpeedProbe()
    nominal = probe.NOMINAL_CHUNK_S
    # Chunks that took twice, then four times, the nominal time.
    speed.ends, speed.took = [1.0, 2.0, 5.0], [2 * nominal, 4 * nominal, nominal]
    busy = 3.0 - 6 * nominal
    assert speed.scaled(0.5, 3.5) == pytest.approx(busy * (0.5 + 0.25) / 2)
    # No chunk inside: the last one before the interval sets the speed.
    assert speed.scaled(3.0, 4.0) == pytest.approx(0.25)


def test_probe_samples_while_started():
    speed = probe.SpeedProbe()
    speed.start()
    try:
        end = time.perf_counter() + 5 * probe.PERIOD_S
        while time.perf_counter() < end:
            probe.chunk()
    finally:
        speed.stop()
    assert len(speed.took) >= 2
    assert all(t > 0 for t in speed.took)


def test_traced_iteration_accounts_for_its_wall_time():
    from repro.k8s.kubelet import Kubelet

    instance = workloads.build("density", 3, quick=True)
    untraced = instance.digest(instance.iterate())
    original = vars(Kubelet)["sync_pod"]
    workloads.reset_process_state()
    with tracer.LayerTracer() as layer_tracer:
        result, metrics = layer_tracer.run(instance.iterate)
    assert vars(Kubelet)["sync_pod"] is original  # wrappers removed again
    assert instance.digest(result) == untraced  # tracing changes no model result
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert self_total == pytest.approx(metrics["trace.wall_p50_s"], rel=1e-9)
    assert metrics["container.create_container.calls"] == 40
    assert metrics["k8s.scheduler.schedule.calls"] == 40
    assert metrics["sim.memory.self_s"] > 0 and metrics["k8s.kubelet.self_s"] > 0


def test_boundary_guard_fails_loudly():
    with tracer.LayerTracer() as layer_tracer:
        layer_tracer.run(lambda: None)
        with pytest.raises(tracer.BoundaryError, match="never called on guest"):
            layer_tracer.check_boundaries("guest")
    renamed = (("sim.kernel", "repro.sim.kernel:Kernel.run_forever", frozenset()),)
    with pytest.raises(tracer.BoundaryError, match="not found"):
        tracer.LayerTracer(renamed).install()


def test_every_boundary_is_checked_on_some_workload():
    for layer, target, expected in tracer.BOUNDARIES:
        assert expected and expected <= set(workloads.NAMES), target
        assert f"{layer}.self_s" in {m["name"] for m in SPEC["per_layer"]}


def _record(path, values, workloads=("guest",), **meta):
    rows = [{"seed": i, "metrics": {m["name"]: v for m in SPEC["end_to_end"]}}
            for i, v in enumerate(values)]
    meta = {"run_seconds": SPEC["run_seconds"], "nproc": 2, "python": "3.11.7", **meta}
    path.write_text(json.dumps({"meta": meta, "workloads": {w: rows for w in workloads}}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    steady = _record(tmp_path / "a.json", [1.00, 1.01, 0.99, 1.00, 1.02])
    same = _record(tmp_path / "b.json", [1.01, 1.00, 1.00, 0.99, 1.01])
    assert bench.compare(steady, same) == 0
    doubled = _record(tmp_path / "c.json", [2.00, 2.01, 1.99, 2.00, 2.02])
    assert bench.compare(steady, doubled) == 1
    assert "regressed" in capsys.readouterr().out
    noisy = _record(tmp_path / "d.json", [0.5, 1.5, 0.7, 1.3, 1.0])
    bench.compare(steady, noisy)
    assert "unresolved" in capsys.readouterr().out


def test_compare_rejects_partial_or_mismatched_sets(tmp_path, capsys):
    values = [1.00, 1.01, 0.99, 1.00, 1.02]
    both = _record(tmp_path / "a.json", values, workloads=("guest", "density"))
    guest_only = _record(tmp_path / "b.json", values)
    assert bench.compare(both, guest_only) == 1
    assert "missing in B" in capsys.readouterr().out
    assert bench.compare(guest_only, both) == 1
    assert "missing in A" in capsys.readouterr().out
    for field, other in (("run_seconds", 1), ("nproc", 64), ("python", "3.12.0")):
        mismatched = _record(tmp_path / f"{field}.json", values, **{field: other})
        assert bench.compare(guest_only, mismatched) == 1
        assert f"not comparable: {field}" in capsys.readouterr().out


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "guest", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
