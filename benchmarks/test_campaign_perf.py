"""Campaign throughput: incremental accounting + parallel scheduling.

Writes ``benchmarks/output/BENCH_campaign.json`` (the trajectory artifact
CI uploads, following the ``BENCH_interpreter.json`` precedent):

* the accounting queries the kubelet and metrics server ask (node
  working set, the ``free(1)`` totals, and every pod cgroup's working
  set), answered on the node a 400-pod deployment leaves, once by the
  incremental ledger and once by the full-scan ``ReferenceAccountant`` —
  the algorithmic speedup of the ledger, asserted against a ≥2× floor;
* the full 27-experiment campaign timed sequentially vs through the
  process-pool scheduler (speedup is hardware-dependent: ~1× on 1 core,
  grows with ``--jobs`` on multicore runners), with byte-identity of the
  rendered summaries asserted.

Everything here runs with the measurement cache disabled — these tests
exist to time simulation, not cache reads.
"""

import json
import os
import statistics
import time

from conftest import OUTPUT_DIR, SEED, emit

from repro.k8s.cluster import build_cluster
from repro.measure.campaign import render_campaign, run_campaign

#: Algorithmic floor: incremental ledger vs full-scan reference accounting,
#: answering the same queries on one node. Ratio of two same-process
#: timings, so it is stable across hardware.
ACCOUNTING_SPEEDUP_FLOOR = 2.0

#: paired (ledger, reference) timings; the floor reads their median ratio
ACCOUNTING_PAIRS = 15


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _node_after_400pod_deploy():
    """The memory model of the node a 400-pod crun-wamr deployment leaves,
    with the cgroups of its 400 pods."""
    cluster = build_cluster(seed=SEED)
    cluster.deploy_and_wait("crun-wamr", 400)
    node = cluster.node
    cgroups = [handle.cgroup for handle in node.containerd.pods.values()]
    assert len(cgroups) == 400
    return node.env.memory, cgroups


def _ledger_answers(memory, cgroups):
    report = memory.free_report()
    return (
        memory.node_working_set(),
        (report.used, report.shared, report.buff_cache),
        memory.cgroup_working_sets(cgroups),
    )


def _reference_answers(memory, cgroups):
    ref = memory.reference
    shared = ref.distinct_file_bytes()
    used = ref.private_total() + shared + memory.kernel_bytes
    return (
        ref.node_working_set(),
        (used, shared, ref.page_cache_bytes()),
        ref.cgroup_working_sets(cgroups),
    )


def _accounting_timings():
    """Median seconds per query round on each side, and their paired ratio."""
    memory, cgroups = _node_after_400pod_deploy()
    assert _ledger_answers(memory, cgroups) == _reference_answers(memory, cgroups)
    ledger, reference = [], []
    for _ in range(ACCOUNTING_PAIRS):
        ledger.append(_timed(lambda: _ledger_answers(memory, cgroups))[1])
        reference.append(_timed(lambda: _reference_answers(memory, cgroups))[1])
    speedup = statistics.median(r / i for i, r in zip(ledger, reference))
    return statistics.median(ledger), statistics.median(reference), speedup


def test_bench_campaign_json():
    """Emit BENCH_campaign.json and hold the accounting-speedup floor."""
    incremental_s, reference_s, accounting_speedup = _accounting_timings()

    sequential, sequential_s = _timed(
        lambda: run_campaign(seed=SEED, jobs=1, cache=None)
    )
    jobs = min(os.cpu_count() or 1, 4)
    parallel, parallel_s = _timed(
        lambda: run_campaign(seed=SEED, jobs=jobs, cache=None)
    )
    render_identical = render_campaign(sequential) == render_campaign(parallel)

    report = {
        "accounting_400pod_node": {
            "pairs": ACCOUNTING_PAIRS,
            "incremental_seconds": round(incremental_s, 6),
            "reference_seconds": round(reference_s, 6),
            "accounting_speedup": round(accounting_speedup, 3),
        },
        "campaign": {
            "jobs": jobs,
            "sequential_seconds": round(sequential_s, 4),
            "parallel_seconds": round(parallel_s, 4),
            "parallel_speedup": round(sequential_s / parallel_s, 3),
            "render_identical": render_identical,
        },
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_campaign.json").write_text(json.dumps(report, indent=2) + "\n")

    a = report["accounting_400pod_node"]
    c = report["campaign"]
    emit(
        "campaign_perf",
        "\n".join(
            [
                f"[campaign] 400-pod node queries: "
                f"{a['incremental_seconds'] * 1e3:.3f} ms incremental vs "
                f"{a['reference_seconds'] * 1e3:.3f} ms reference "
                f"({a['accounting_speedup']:.2f}x accounting speedup, "
                f"median of {a['pairs']} pairs)",
                f"[campaign] full matrix: {c['sequential_seconds']:.3f} s sequential "
                f"vs {c['parallel_seconds']:.3f} s with {c['jobs']} workers "
                f"({c['parallel_speedup']:.2f}x)",
            ]
        ),
    )

    assert sequential.all_hold() and parallel.all_hold()
    assert render_identical, "parallel campaign summary drifted from sequential"
    assert accounting_speedup >= ACCOUNTING_SPEEDUP_FLOOR, (
        f"incremental accounting lost its ≥{ACCOUNTING_SPEEDUP_FLOOR}x edge: "
        f"{accounting_speedup:.2f}x"
    )
