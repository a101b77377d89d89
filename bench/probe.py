"""Host-speed probe: scale host seconds to a fixed reference speed.

The benchmark's machine shares its cores with other tenants, and its
speed drifts: the same iteration takes 0.7 s in one second and 1.2 s a
few seconds later. No statistic over one run removes a slow phase that
lasts a whole run, so every timing the benchmark reports is scaled by the
speed the host had while it was measured.

:class:`SpeedProbe` measures that speed from inside the measured process.
A ``SIGALRM`` interval timer interrupts the process every
:data:`PERIOD_S`; the handler runs :func:`chunk`, a fixed piece of pure
Python (integer arithmetic, a heap and a dict, the operations the
simulator and the guest interpreter spend their time on), and records how
long it took. :meth:`SpeedProbe.scaled` turns the host seconds of an
interval into *reference seconds*: the interval, minus the probe's own
chunks, times the mean of ``NOMINAL_CHUNK_S / chunk time`` over the chunks
run inside it. On a host that runs the chunk in ``NOMINAL_CHUNK_S`` (the
2-core machine of ``bench/results`` at its calmest) a reference second is
a host second.

The probe samples the speed of the process it runs in, on the core that
process runs on. Work done in other processes is timed by the wall clock
of the measured one but not sampled, which is why every workload runs in
one process. The chunks cost about 1.5% of each interval; they are the
same code on every commit.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import statistics
import time
from typing import List

#: seconds between two probe chunks
PERIOD_S = 0.02

#: the chunk's duration at the reference speed
NOMINAL_CHUNK_S = 160e-6


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def _bump(cell: _Cell, by: int) -> int:
    cell.value += by
    return cell.value


def chunk() -> int:
    """A fixed piece of interpreter work, about 0.2-0.35 ms.

    Half of it is integer arithmetic with a heap and an int-keyed dict;
    the other half formats strings, allocates objects, calls a Python
    function and reads attributes. Either half alone tracked some
    workloads' drift worse than the two together.
    """
    heap: List[tuple] = []
    counts = {}
    x = 0
    for i in range(125):
        x = (x + i * 2654435761) & 0xFFFFFFFF
        heapq.heappush(heap, (x & 255, i))
        counts[x & 63] = counts.get(x & 63, 0) + i
        if len(heap) > 32:
            heapq.heappop(heap)
    heap.clear()
    cells, keys = {}, []
    for i in range(50):
        x = (x + i * 2654435761) & 0xFFFFFFFF
        name = f"pod-{x & 127}"
        cell = cells.get(name)
        if cell is None:
            cell = cells[name] = _Cell(name, 0)
        _bump(cell, i)
        heapq.heappush(heap, (x & 255, i, cell))
        if len(heap) > 32:
            heapq.heappop(heap)
        keys.append(cell.key)
    return x + len(keys)


class SpeedProbe:
    """Samples the host's speed every :data:`PERIOD_S` while started."""

    def __init__(self) -> None:
        #: time each chunk ended, and how long it took (parallel lists)
        self.ends: List[float] = []
        self.took: List[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum=None, _frame=None) -> None:
        # A collection inside the chunk would time the program's heap,
        # not the host.
        enabled = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        chunk()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(end)
        self.took.append(end - began)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the interval ``[start, end]`` of ``perf_counter``.

        An interval too short to hold a chunk takes the speed of the last
        chunk before it, or of one run now.
        """
        lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        inside = self.took[lo:hi]
        busy = end - start - sum(inside)
        if not inside:
            if lo == 0:
                self._tick()
                lo = len(self.took)
            inside = self.took[lo - 1:lo]
        return busy * statistics.fmean(NOMINAL_CHUNK_S / t for t in inside)
