"""Discrete-event simulation kernel and machine resource models.

The kernel (:mod:`repro.sim.kernel`) is a small coroutine-based
discrete-event engine in the style of SimPy: simulated activities are
generator functions that ``yield`` :class:`~repro.sim.kernel.Timeout` or
resource requests, and the kernel advances a virtual clock between events.
It owns its event heap: ``(time, seq, callback)`` tuples, so events at
one instant run in the order they were scheduled. Daemon entries, such
as the time-series sampler's periodic scrape, run among those events but
never keep the simulation going.

On top of it sit the machine models used throughout the reproduction:

* :mod:`repro.sim.process` — simulated OS processes composed of typed
  memory segments,
* :mod:`repro.sim.memory` — node-wide memory accounting that can answer
  both the ``free(1)`` question and the cgroup working-set question,
* :mod:`repro.sim.cpu` — a bounded-parallelism, contention-aware CPU model
  used for container startup critical paths.

Everything is deterministic given a seed; stochastic jitter comes from
named :class:`~repro.sim.rng.RngStreams`.
"""

from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, FaultPoint, FaultSpec, InjectedFault
from repro.sim.kernel import Kernel, Timeout, Acquire, Release, WaitEvent, SimEvent
from repro.sim.rng import RngStreams
from repro.sim.process import SimProcess, MemorySegment, SegmentKind
from repro.sim.memory import SystemMemoryModel, FreeReport, MIB
from repro.sim.cpu import CpuModel

__all__ = [
    "SimClock",
    "FaultPlan",
    "FaultPoint",
    "FaultSpec",
    "InjectedFault",
    "Kernel",
    "Timeout",
    "Acquire",
    "Release",
    "WaitEvent",
    "SimEvent",
    "RngStreams",
    "SimProcess",
    "MemorySegment",
    "SegmentKind",
    "SystemMemoryModel",
    "FreeReport",
    "MIB",
    "CpuModel",
]
