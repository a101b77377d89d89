"""eWAPA-style guest profiling: per-function self-time, collapsed stacks.

eWAPA hangs eBPF probes around WASI syscalls to attribute latency to
host calls; our WASI wrapper already counts per-function calls (PR 4),
and this module adds the complementary *guest-side* view — per-function
interpreter self-time measured in executed instructions (the
interpreter's deterministic clock), accumulated as collapsed call
stacks. The output renders directly as a flamegraph
(``flamegraph.pl``/speedscope both eat the ``a;b;c N`` collapsed
format).

Instruction counts, not wall time: deterministic across processes, so
profiles merge byte-identically at any ``--jobs N`` (plain dict
addition, order-independent).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

Stacks = Dict[Tuple[str, ...], int]


class FunctionProfiler:
    """Collapsed-stack accumulator fed by the interpreter's call hooks.

    ``enter(name)`` pushes a frame; ``exit(inclusive)`` receives the
    frame's *inclusive* instruction count (the interpreter's counter
    delta across the call) and attributes ``inclusive - children`` as
    the frame's self-time.
    """

    def __init__(self) -> None:
        self.stacks: Stacks = {}
        self._path: List[str] = []
        self._frames: List[int] = []  # accumulated child-inclusive counts

    def enter(self, name: str) -> None:
        self._path.append(name)
        self._frames.append(0)

    def exit(self, inclusive: int) -> None:
        children = self._frames.pop()
        self_n = inclusive - children
        key = tuple(self._path)
        self.stacks[key] = self.stacks.get(key, 0) + self_n
        self._path.pop()
        if self._frames:
            self._frames[-1] += inclusive

    def merge(self, stacks: Stacks) -> None:
        for key, n in stacks.items():
            self.stacks[key] = self.stacks.get(key, 0) + n


# -- module state (mirrors repro.obs / timeseries) -----------------------------

_profiling = False
_profiler = FunctionProfiler()


def set_profiling(on: bool) -> None:
    global _profiling
    _profiling = bool(on)


def profiling_enabled() -> bool:
    return _profiling


def active_profiler() -> Optional[FunctionProfiler]:
    """The process-wide profiler, or None when profiling is off."""
    return _profiler if _profiling else None


def collapsed() -> str:
    """Flamegraph/speedscope collapsed-stack text, sorted, one per line."""
    lines = [
        ";".join(path) + f" {n}"
        for path, n in sorted(_profiler.stacks.items())
        if n > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def reset() -> None:
    _profiler.stacks.clear()
    _profiler._path.clear()
    _profiler._frames.clear()


# -- eWAPA-style modeled WASI latency ------------------------------------------
#
# The simulator has no host syscall wall time, so the per-call latency
# column is *modeled*: a base cost per WASI entry point plus a per-byte
# cost for data-moving calls, in nanoseconds. Numbers are in the range
# eWAPA reports for wasmtime's WASI layer; the point of the report is
# the *relative* breakdown (which hostcall dominates), which comes from
# the measured call/byte counts.

WASI_BASE_COST_NS: Dict[str, float] = {
    "fd_write": 850.0,
    "fd_read": 820.0,
    "fd_close": 300.0,
    "fd_seek": 310.0,
    "fd_fdstat_get": 330.0,
    "fd_prestat_get": 340.0,
    "fd_prestat_dir_name": 360.0,
    "path_open": 1900.0,
    "args_get": 250.0,
    "args_sizes_get": 240.0,
    "environ_get": 260.0,
    "environ_sizes_get": 240.0,
    "clock_time_get": 180.0,
    "random_get": 420.0,
    "proc_exit": 150.0,
    "sched_yield": 160.0,
}
WASI_DEFAULT_COST_NS = 500.0
WASI_BYTE_COST_NS = 0.35


def wasi_modeled_ns(func: str, calls: float, bytes_moved: float = 0.0) -> float:
    """Total modeled latency for ``calls`` invocations of ``func``."""
    base = WASI_BASE_COST_NS.get(func, WASI_DEFAULT_COST_NS)
    return calls * base + bytes_moved * WASI_BYTE_COST_NS


def wasi_report(families: Dict[str, Dict[Tuple[str, ...], float]]
                ) -> List[Dict[str, float]]:
    """Rows for the ``repro inspect --wasi`` table.

    ``families`` maps family name -> {labelvalues: value} as parsed from
    Prometheus text (``repro_wasi_calls_total{func}`` and
    ``repro_wasi_bytes_total{func,direction}``).
    """
    calls = families.get("repro_wasi_calls_total", {})
    bytes_fam = families.get("repro_wasi_bytes_total", {})
    by_func_bytes: Dict[str, float] = {}
    for labels, value in bytes_fam.items():
        by_func_bytes[labels[0]] = by_func_bytes.get(labels[0], 0.0) + value
    rows = []
    for labels, count in calls.items():
        func = labels[0]
        moved = by_func_bytes.get(func, 0.0)
        total_ns = wasi_modeled_ns(func, count, moved)
        rows.append({
            "func": func,
            "calls": count,
            "bytes": moved,
            "total_ns": total_ns,
            "mean_ns": total_ns / count if count else 0.0,
        })
    grand = sum(r["total_ns"] for r in rows) or 1.0
    for r in rows:
        r["share"] = r["total_ns"] / grand
    return rows


__all__ = [
    "FunctionProfiler",
    "set_profiling",
    "profiling_enabled",
    "active_profiler",
    "collapsed",
    "reset",
    "WASI_BASE_COST_NS",
    "WASI_BYTE_COST_NS",
    "wasi_modeled_ns",
    "wasi_report",
]
