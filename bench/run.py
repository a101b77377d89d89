"""Wall-clock benchmark of the simulator: five workloads, one JSON result.

Run from the repository root:

    python3 bench/run.py --workload density --seed 1 --seconds 12 --trace 0
    python3 bench/run.py record OUT.json [--workload W ...]
    python3 bench/run.py compare A.json B.json
    python3 bench/run.py pin [--workload W ...]

A run starts child processes (``bench/child.py``) one at a time, with
every ``REPRO_*`` variable removed from their environment: two that only
set up, then one that sets up and times closed-loop iterations for
``--seconds``. Times are reference seconds, host seconds scaled by the
host's speed while they were measured (``bench/probe.py``). The run prints
every end-to-end metric with its unit and, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 1`` one child runs and the metrics are the per-layer ones
(``bench/tracer.py``).

``record`` runs every workload ten times, seeds 1-10, at ``run_seconds``
and writes the results; ``compare`` judges one record against another
with the bounds in ``BENCHMARK.json``; ``pin`` rewrites
``bench/pins.json``, the model-result digests seeds 0-20 must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = BENCH / "pins.json"
CHILD = BENCH / "child.py"

#: a run ends within this many seconds, every child included
RUN_DEADLINE_S = 170.0

#: set-ups per untraced run, each in its own child: ``setup_s`` is their median
SETUPS = 3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def load_pins() -> Dict[str, Dict[str, str]]:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def _child(mode: str, workload: str, seed: int, seconds: float, pin: Optional[str],
           quick: bool, timeout: float = RUN_DEADLINE_S) -> dict:
    """Run one child to completion; returns its JSON report."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # A fixed hash seed makes set and dict layouts, and with them timings,
    # repeat from run to run; no model result depends on it.
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(CHILD), mode, workload, str(seed), str(seconds),
            pin or "-"] + (["--quick"] if quick else [])
    # Own session: on timeout the whole group is killed, and nothing
    # outlives the run.
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: {mode} child ran past the deadline") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool = False,
                 quick: bool = False, pins=None) -> dict:
    """One benchmark run; returns the result object the last line prints.

    ``pins`` maps workload → seed → digest (default: ``bench/pins.json``,
    or none for a quick run, whose model results differ).
    """
    spec = load_spec()
    if pins is None:
        pins = {} if quick else load_pins()
    pin = pins.get(workload, {}).get(str(seed))
    deadline = time.monotonic() + RUN_DEADLINE_S

    def child(mode: str) -> dict:
        return _child(mode, workload, seed, seconds, pin, quick,
                      timeout=deadline - time.monotonic())

    if trace:
        report = child("trace")
        wanted, measured = spec["per_layer"], report["per_layer"]
    else:
        setups = [child("setup") for _ in range(SETUPS - 1)]
        report = child("timed")
        for other in setups:  # every child's warm-up is checked too
            report["attempted"] += other["attempted"]
            report["failed"] += other["failed"]
            report["errors"] += other["errors"]
            if other["digest"] != report["digest"]:
                report["failed"] += 1
                report["errors"].append(f"set-up child digest {other['digest']} "
                                        f"!= {report['digest']}")
        setups.append(report)
        report["setup_walls"] = [r["setup_wall_s"] for r in setups]
        wanted = spec["end_to_end"]
        scaled, works = report["scaled"], report["works"]
        measured = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "iter_p50_s": statistics.median(scaled),
            "work_per_s": statistics.median(w / s for w, s in zip(works, scaled)),
            "peak_rss_mib": report["peak_rss_mib"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}; "
                         f"{report['errors'][:1]}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
        },
        # Everything below is for the human report; the JSON line drops it.
        "_detail": {"report": report, "pinned": pin is not None},
    }


def _report(workload: str, seed: int, result: dict) -> None:
    """The human-readable lines printed before the JSON result."""
    report = result["_detail"]["report"]
    print(f"workload {workload}, seed {seed}: {result['attempted']} iterations, "
          f"{result['failed']} failed (nproc {os.cpu_count()}, "
          f"Python {platform.python_version()})")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    walls = report.get("walls", [])
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(report["scaled"], n=4)
        print(f"  reference s per iteration: n={len(walls)}, IQR {q1:.4f}-{q3:.4f} s")
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(f"  host s per iteration: median {q2:.4f}, IQR {q1:.4f}-{q3:.4f} s")
    if "setup_walls" in report:
        print("  host s per set-up: "
              + ", ".join(f"{s:.4f}" for s in report["setup_walls"]))
    for target, seconds in report.get("top_boundaries", []):
        print(f"  self {seconds:9.4f} s  {target}")
    print(f"  model digest {report['digest']}"
          + (" (pinned)" if result["_detail"]["pinned"] else " (no pin for this seed)"))
    for error in report["errors"]:
        print(f"  FAILED: {error}")


def _require_source() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro source tree under {ROOT / 'src'}")


# -- record / compare / pin ------------------------------------------------------

#: runs per workload in a recorded result set, seeds 1..RECORD_RUNS
RECORD_RUNS = 10

#: the seeds ``bench/pins.json`` holds a model digest for
PIN_SEEDS = range(0, 21)

#: ``meta`` fields that must agree for two result sets to be compared
COMPARABLE = ("run_seconds", "nproc", "python")


def record(path: str, names: List[str]) -> None:
    seconds = load_spec()["run_seconds"]
    seeds = list(range(1, RECORD_RUNS + 1))
    out = {
        "meta": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "run_seconds": seconds,
            "seeds": seeds,
        },
        "workloads": {},
    }
    for name in names:
        rows = out["workloads"][name] = []
        for seed in seeds:
            result = run_workload(name, seed, seconds)
            _report(name, seed, result)
            rows.append({
                "seed": seed,
                "correct": result["correct"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            })
    pathlib.Path(path).write_text(json.dumps(out, indent=1) + "\n")


def _quartile_spread(values: List[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def compare(path_a: str, path_b: str) -> int:
    """Print one verdict per workload × end-to-end metric; 0 if all are ok.

    Two sets recorded with a different run length, core count or Python
    are not compared. A workload that only one set has is ``missing``.
    """
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    differ = [k for k in COMPARABLE if a["meta"].get(k) != b["meta"].get(k)]
    if differ:
        for key in differ:
            print(f"not comparable: {key} is {a['meta'].get(key)} in A, "
                  f"{b['meta'].get(key)} in B")
        return 1
    a, b = a["workloads"], b["workloads"]
    print(f"{'workload':9s} {'metric':13s} {'median A':>11s} {'median B':>11s} "
          f"{'delta':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    all_ok = True
    for name in [*a, *(w for w in b if w not in a)]:
        if name not in a or name not in b:
            all_ok = False
            print(f"{name:9s} {'':13s} missing in {'B' if name in a else 'A'}")
            continue
        for metric in load_spec()["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va = [row["metrics"][key] for row in a[name]]
            vb = [row["metrics"][key] for row in b[name]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma  # > 0: B is worse than A
            spread = max(_quartile_spread(va), _quartile_spread(vb))
            if spread > bound and not all(sign * y < sign * x for x in va for y in vb):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            all_ok &= verdict == "ok"
            print(f"{name:9s} {key:13s} {ma:11.5g} {mb:11.5g} {(mb - ma) / ma:+8.2%} "
                  f"{spread:7.2%} {bound:6.0%}  {verdict}")
    return 0 if all_ok else 1


def pin(names: List[str]) -> None:
    """Record each seed's model-result digest from a fresh warm-up child."""
    pins = load_pins()
    for name in names:
        pins[name] = {}
        for seed in PIN_SEEDS:
            report = _child("setup", name, seed, 0.0, None, False)
            if report["failed"]:
                raise BenchError(f"{name} seed {seed} failed: {report['errors']}")
            pins[name][str(seed)] = report["digest"]
            print(f"{name} {seed} {report['digest']}", flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# -- command line ------------------------------------------------------------------


def main(argv: List[str]) -> int:
    names = [w["name"] for w in load_spec()["workloads"]]
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench/run.py compare")
        parser.add_argument("a", help="result set written by `record`")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    if argv[:1] in (["record"], ["pin"]):
        parser = argparse.ArgumentParser(prog=f"bench/run.py {argv[0]}")
        if argv[0] == "record":
            parser.add_argument("out")
        parser.add_argument("--workload", action="append", choices=names,
                            help="only this workload (repeatable)")
        args = parser.parse_args(argv[1:])
        _require_source()
        if argv[0] == "record":
            record(args.out, args.workload or names)
        else:
            pin(args.workload or names)
        return 0

    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="a few pods per workload, for tests")
    args = parser.parse_args(argv)
    _require_source()
    for name in [args.workload] if args.workload else names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
        _report(name, args.seed, result)
        public = {k: v for k, v in result.items() if k != "_detail"}
        print(json.dumps(public), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
