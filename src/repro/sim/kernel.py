"""Coroutine-based discrete-event kernel.

Activities are generator functions. They ``yield`` effect objects and the
kernel resumes them when the effect completes:

* :class:`Timeout` — resume after a simulated delay,
* :class:`Acquire` / :class:`Release` — bounded-capacity resources with a
  FIFO wait queue (used to model the node's limited startup parallelism),
* :class:`WaitEvent` — resume when a :class:`SimEvent` is triggered,
* another generator — run it as a sub-activity and resume with its return
  value (``return x`` inside the child).

Example::

    k = Kernel()

    def boot(k, dev):
        yield Timeout(0.5)
        return f"{dev} up"

    def main(k):
        result = yield boot(k, "eth0")
        ...

    k.spawn(main(k))
    k.run()
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.clock import SimClock

SimGen = Generator[Any, Any, Any]


@dataclass
class Timeout:
    """Suspend the activity for ``delay`` simulated seconds."""

    delay: float


class SimEvent:
    """One-shot broadcast event activities can wait on.

    ``trigger(value)`` resumes every current and future waiter with
    ``value`` (future waiters resume immediately).
    """

    __slots__ = ("triggered", "value", "_waiters")

    def __init__(self) -> None:
        self.triggered = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self.triggered:
            resume(self.value)
        else:
            self._waiters.append(resume)

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError("SimEvent triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume(value)


@dataclass
class WaitEvent:
    """Suspend until ``event`` triggers; resumes with its value."""

    event: SimEvent


class Resource:
    """Bounded-capacity resource with FIFO admission.

    Models k-way parallelism (e.g. 20 CPU cores concurrently executing
    container-creation critical paths).
    """

    def __init__(self, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: deque[Callable[[Any], None]] = deque()

    @property
    def queued(self) -> int:
        return len(self._queue)

    def acquire(self, resume: Callable[[Any], None]) -> None:
        if self.in_use < self.capacity:
            self.in_use += 1
            resume(None)
        else:
            self._queue.append(resume)

    def release(self) -> Optional[Callable[[Any], None]]:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            # Hand the slot straight to the next waiter.
            return self._queue.popleft()
        self.in_use -= 1
        return None


@dataclass
class Acquire:
    """Suspend until one slot of ``resource`` is granted."""

    resource: Resource


@dataclass
class Release:
    """Give back one slot of ``resource`` (resumes immediately)."""

    resource: Resource


@dataclass
class _Failure:
    """Wrapper marking a completion value as a raised exception."""

    exc: BaseException


class _Task:
    """Bookkeeping for one spawned activity.

    ``resume`` is the task's one resume callable, reused for every effect
    it yields; it is cleared when the generator finishes, which breaks the
    task → partial → task cycle without waiting for the cyclic GC.
    """

    __slots__ = ("gen", "done", "resume")

    def __init__(self, gen: SimGen, kernel: "Kernel") -> None:
        self.gen = gen
        self.done = SimEvent()
        self.resume: Optional[Callable[..., None]] = partial(kernel._step, self)


class Kernel:
    """The discrete-event scheduler.

    Events are ``(time, seq, callback)`` tuples on a heap. ``seq`` is
    unique, so ``heapq`` orders them in C without ever comparing
    callbacks, and events at the same instant run in scheduling order.

    Daemon entries (:meth:`daemon_at`) sit on a second heap and serve
    observers such as a periodic scrape, which reschedule themselves
    forever. They run in time order among the regular events, but only
    while regular work is pending, so they never keep :meth:`run` going
    and never move the clock past the last regular event. Two rules fix
    where they land:

    * at one instant, daemon entries run before the regular events due
      then, so every daemon entry up to the last regular event's time
      runs;
    * ``run(until=u)`` runs daemon entries up to ``u`` only while a
      regular event is still pending, and leaves later ones queued.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self._heap: list[tuple[float, int, Callable[[], Any]]] = []
        self._daemons: list[tuple[float, int, Callable[[], Any]]] = []
        self._seq = itertools.count()

    # -- public API --------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def spawn(self, gen: SimGen) -> SimEvent:
        """Start an activity; returns a :class:`SimEvent` for its result."""
        task = _Task(gen, self)
        self._push(self.clock.now, task.resume)
        return task.done

    def call_at(self, time: float, fn: Callable[[], Any]) -> None:
        """Schedule a plain callback at absolute simulated time."""
        if time < self.clock.now:
            raise SimulationError(f"call_at in the past: {time} < {self.clock.now}")
        self._push(time, fn)

    def daemon_at(self, time: float, fn: Callable[[], Any]) -> None:
        """Schedule a daemon callback at absolute simulated time.

        It runs only if regular work is still pending when its time
        comes (see the class docstring).
        """
        if time < self.clock.now:
            raise SimulationError(f"daemon_at in the past: {time} < {self.clock.now}")
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        heappush(self._daemons, (time, next(self._seq), fn))

    def call_after(self, delay: float, fn: Callable[[], Any]) -> None:
        """Schedule a plain callback after a relative delay."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._push(self.clock.now + delay, fn)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until no regular event is pending (or ``until``
        is reached).

        Returns the final simulated time: that of the last regular event
        run, or ``until``.
        """
        heap, daemons, clock = self._heap, self._daemons, self.clock
        while heap:
            queue = daemons if daemons and daemons[0][0] <= heap[0][0] else heap
            t = queue[0][0]
            if until is not None and t > until:
                clock.advance_to(until)
                return clock.now
            clock.advance_to(t)
            heappop(queue)[2]()
        return clock.now

    def run_all(self, gens: Iterable[SimGen]) -> list[Any]:
        """Spawn ``gens`` concurrently, run to completion, return results.

        An exception raised by any activity is re-raised here once the
        event loop drains (the first one, in spawn order).
        """
        events = [self.spawn(g) for g in gens]
        self.run()
        missing = [i for i, e in enumerate(events) if not e.triggered]
        if missing:
            raise SimulationError(
                f"{len(missing)} activities never completed (deadlock?): idx {missing[:5]}"
            )
        results = []
        for e in events:
            if isinstance(e.value, _Failure):
                raise e.value.exc
            results.append(e.value)
        return results

    # -- internals ----------------------------------------------------------

    def _push(self, time: float, fn: Callable[[], Any]) -> None:
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        heappush(self._heap, (time, next(self._seq), fn))

    def _step(self, task: _Task, send_value: Any = None) -> None:
        """Resume ``task.gen`` with ``send_value`` and process its yield.

        If the value is a :class:`_Failure` (a child activity raised), the
        exception is thrown *into* the generator at the yield point so
        ordinary try/except works across activity boundaries.
        """
        try:
            if isinstance(send_value, _Failure):
                yielded = task.gen.throw(send_value.exc)
            else:
                yielded = task.gen.send(send_value)
        except StopIteration as stop:
            task.resume = None
            task.done.trigger(stop.value)
            return
        except SimulationError:
            task.resume = None
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to the waiter
            task.resume = None
            task.done.trigger(_Failure(exc))
            return
        self._dispatch(task, yielded)

    def _dispatch(self, task: _Task, eff: Any) -> None:
        resume = task.resume
        if isinstance(eff, Timeout):
            if eff.delay < 0:
                raise SimulationError(f"negative timeout: {eff.delay}")
            self._push(self.clock.now + eff.delay, resume)
        elif isinstance(eff, Acquire):
            eff.resource.acquire(resume)
        elif isinstance(eff, Release):
            handoff = eff.resource.release()
            if handoff is not None:
                # Waiter runs as a fresh event at the current instant.
                self._push(self.clock.now, partial(handoff, None))
            resume(None)
        elif isinstance(eff, WaitEvent):
            eff.event.add_waiter(resume)
        elif isinstance(eff, SimEvent):
            eff.add_waiter(resume)
        elif hasattr(eff, "send") and hasattr(eff, "throw"):
            # Sub-activity: run child, resume parent with its return value.
            child = _Task(eff, self)
            child.done.add_waiter(resume)
            self._push(self.clock.now, child.resume)
        else:
            raise SimulationError(f"activity yielded unsupported effect: {eff!r}")
