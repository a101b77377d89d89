"""The benchmark's five workloads: inputs from a seed, one iteration, its check.

Every workload is closed-loop: the next iteration starts when the previous
one has returned. An iteration calls the public API exactly as a user of
the repository would and returns the model result. The benchmark then

* digests the model result only (no wall-clock field enters the digest),
* checks the result's own invariants (all pods ready, campaign claims and
  chaos invariants hold, guest output equal to a Python reference), and
* counts the work done: simulated pods brought to Running, or millions of
  guest instructions retired for ``guest``.

``repro`` is imported lazily, inside :func:`build`, so that the child
process can time everything from its first line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
import struct
from typing import Any, Callable, Dict, List

#: workload names, in the order the benchmark runs and reports them
NAMES = ("density", "fleet", "campaign", "chaos", "guest")

GUEST_WAT = pathlib.Path(__file__).resolve().parent / "guest" / "kernel.wat"
GUEST_INPUT_BYTES = 4096


def _no_counts(_result) -> Dict[str, float]:
    return {}


@dataclasses.dataclass
class Instance:
    """One workload bound to its seed-derived inputs."""

    #: runs one iteration; returns the model result
    iterate: Callable[[], Any]
    #: model result → JSON-ready payload that the digest covers
    payload: Callable[[Any], Any]
    #: model result → broken invariants (empty when the result is correct)
    check: Callable[[Any], List[str]]
    #: model result → work units (pods brought to Running, or Minstr)
    work: Callable[[Any], float]
    #: model result → per-layer counts read from the result itself
    counts: Callable[[Any], Dict[str, float]] = _no_counts

    def digest(self, result: Any) -> str:
        text = json.dumps(self.payload(result), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def reset_process_state() -> None:
    """Give the next iteration the state a fresh process would have.

    Engine caches and telemetry live in module globals; without this an
    iteration would find the previous iteration's decoded modules, run
    results and spans, and do less (or more) work than a one-shot run.
    """
    from repro import obs
    from repro.engines import cache as engine_cache

    obs.reset()
    engine_cache.reset_caches()


def _deployment_payload(m) -> Dict[str, Any]:
    return {
        "config": m.config,
        "count": m.count,
        "startup_seconds": m.startup_seconds,
        "memory": dataclasses.asdict(m.memory),
        "phase_means": m.phase_means,
        "per_node": [dataclasses.asdict(u) for u in m.per_node],
    }


def _deployment_check(m) -> List[str]:
    return [] if m.ready_fraction == 1.0 else [
        f"{m.config} n={m.count}: ready_fraction {m.ready_fraction}"
    ]


def _deploy(seed: int, config: str, count: int, nodes: int) -> Instance:
    from repro.measure.experiment import ExperimentRunner

    # One node must admit every pod: the kubelet default is 500 per node.
    max_pods = count if nodes == 1 else None
    return Instance(
        iterate=lambda: ExperimentRunner(seed).run(
            config, count, nodes=nodes, max_pods=max_pods
        ),
        payload=_deployment_payload,
        check=_deployment_check,
        work=lambda m: float(m.count),
    )


def _campaign(seed: int) -> Instance:
    from repro.measure import campaign

    def payload(result) -> Dict[str, Any]:
        return {
            "measurements": {
                f"{config}/{n}": _deployment_payload(m)
                for (config, n), m in sorted(result.measurements.items())
            },
            "claims": [
                [c.claim_id, c.measured, c.holds] for c in result.claims
            ],
        }

    def check(result) -> List[str]:
        broken = [f"claim {c.claim_id}: {c.measured}" for c in result.claims if not c.holds]
        for m in result.measurements.values():
            broken += _deployment_check(m)
        return broken

    return Instance(
        # One process: spans recorded in forked workers never reach the
        # tracer, and the speed probe samples only the process it runs in.
        iterate=lambda: campaign.run_campaign(seed, jobs=1, cache=None),
        payload=payload,
        check=check,
        work=lambda r: float(sum(m.count for m in r.measurements.values())),
    )


def _chaos(seed: int, count: int) -> Instance:
    from repro.measure import chaos
    from repro.obs import timeseries

    def iterate():
        # The monitored chaos run (`repro chaos --timeseries-out`): the
        # sampler and SLO rule engine run next to the failure path.
        timeseries.set_sampling(True)
        try:
            return chaos.run_chaos(count=count, seed=seed)
        finally:
            timeseries.set_sampling(False)

    return Instance(
        iterate=iterate,
        payload=lambda m: m.to_dict(),
        check=lambda m: [
            f"invariant {c.name}: {c.detail}" for c in m.invariants if not c.passed
        ],
        work=lambda m: float(m.ready_pods),
        counts=lambda m: {
            "k8s.kubelet.restarts": float(m.restarts_total),
            "sim.faults.fired": float(sum(m.faults_by_point.values())),
        },
    )


def guest_input(seed: int) -> bytes:
    return random.Random(seed).randbytes(GUEST_INPUT_BYTES)


def guest_reference(data: bytes) -> bytes:
    """What ``bench/guest/kernel.wat`` prints for ``data``, computed in Python."""
    mask = 0xFFFFFFFF

    def rotl(x: int, s: int) -> int:
        s &= 31
        return ((x << s) | (x >> (32 - s))) & mask

    words = struct.unpack("<1024I", data)
    scratch = [0] * 1024
    acc = 0
    for r in range(96):
        for i, w in enumerate(words):
            b = w ^ r
            pick = (r + (i >> 8)) & 3
            if pick == 0:
                acc = (acc + b * 0x9E3779B1) & mask
            elif pick == 1:
                acc = (acc ^ (b * 0x85EBCA6B)) & mask
            elif pick == 2:
                acc = rotl(acc, b)
            else:
                acc = (acc - b * 0xC2B2AE35) & mask
            slot = (acc & 0xFFC) >> 2
            scratch[slot] = (scratch[slot] + w) & mask
    for value in scratch:
        acc = (rotl(acc, 5) + value) & mask
    fib_prev, fib = 0, 1
    for _ in range(22):
        fib_prev, fib = fib, fib_prev + fib
    return f"{(acc + fib) & mask:08x}\n".encode()


def _guest(seed: int) -> Instance:
    from repro.wasm import assemble_wat, embed

    blob = assemble_wat(GUEST_WAT.read_text())
    data = guest_input(seed)
    expected = guest_reference(data)

    return Instance(
        # fuel=None: unmetered, so compiled closures run (`repro run`).
        iterate=lambda: embed.run_wasi(
            blob, args=["kernel.wasm"], stdin=data, fuel=None
        ),
        payload=lambda r: {
            "exit_code": r.exit_code,
            "stdout": r.stdout.hex(),
            "instructions": r.instructions,
        },
        check=lambda r: [] if (r.exit_code, r.stdout) == (0, expected) else [
            f"guest exit {r.exit_code}, stdout {r.stdout!r} != {expected!r}"
        ],
        work=lambda r: r.instructions / 1e6,
    )


def build(name: str, seed: int, quick: bool = False) -> Instance:
    """Bind workload ``name`` to the inputs ``seed`` generates.

    ``quick`` shrinks every simulated workload to a few pods (tests only).
    """
    if name == "density":
        return _deploy(seed, "crun-wamr", 40 if quick else 2000, 1)
    if name == "fleet":
        return _deploy(seed, "crun-wamr-zygote", 64 if quick else 2000,
                       4 if quick else 32)
    if name == "campaign":
        return _campaign(seed)
    if name == "chaos":
        return _chaos(seed, 40 if quick else 400)
    if name == "guest":
        return _guest(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
