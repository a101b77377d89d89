"""Property tests: kernel ordering and memory-model invariants."""

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Acquire, Kernel, Release, Resource, Timeout
from repro.sim.memory import MIB, SystemMemoryModel


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
def test_activities_complete_at_their_delays(delays):
    k = Kernel()
    completions = []

    def act(d):
        yield Timeout(d)
        completions.append((d, k.now))

    k.run_all([act(d) for d in delays])
    for d, t in completions:
        assert t == d
    assert k.now == max(delays)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("call_at", "call_after", "timeout")),
            st.sampled_from((0.0, 0.5, 1.0)),  # few delays: many equal times
            st.integers(min_value=-1, max_value=39),  # the op that schedules it
        ),
        min_size=1,
        max_size=40,
    ),
    st.lists(
        st.tuples(
            st.sampled_from((0.0, 0.5, 1.0, 2.0)),  # first firing
            st.sampled_from((0.5, 1.0)),  # then every period
        ),
        max_size=3,
    ),
)
def test_events_fire_in_time_then_scheduling_order(ops, daemons):
    """Whatever schedules an event (``call_at``, ``call_after`` or a
    ``Timeout`` yield, before the run or from a firing event), events fire
    in (time, scheduling order). Self-rescheduling daemon entries change
    neither that order, nor the times, nor the final clock; each fires at
    every one of its times up to the last event's."""
    k = Kernel()
    daemon_fired = [[] for _ in daemons]

    def daemon(d, j):
        start, period = daemons[d]
        daemon_fired[d].append(k.now)
        k.daemon_at(start + (j + 1) * period, lambda: daemon(d, j + 1))

    for d, (start, _) in enumerate(daemons):
        k.daemon_at(start, lambda d=d: daemon(d, 0))
    roots, children = [], {}
    for i, (_, _, parent) in enumerate(ops):
        (children.setdefault(parent, []) if 0 <= parent < i else roots).append(i)
    scheduled = []  # (time, scheduling order, op), recorded as each is scheduled
    fired = []

    def fire(i):
        fired.append((k.now, i))
        for child in children.get(i, ()):
            schedule(child)

    def waiter(i, delay):
        scheduled.append((k.now + delay, len(scheduled), i))
        yield Timeout(delay)
        fire(i)

    def schedule(i):
        kind, delay, _ = ops[i]
        if kind == "timeout":
            k.spawn(waiter(i, delay))
            return
        scheduled.append((k.now + delay, len(scheduled), i))
        if kind == "call_at":
            k.call_at(k.now + delay, lambda: fire(i))
        else:
            k.call_after(delay, lambda: fire(i))

    for i in roots:
        schedule(i)
    last = k.run()
    assert fired == [(t, i) for t, _, i in sorted(scheduled)]
    assert len(fired) == len(ops)
    assert last == k.now == max(t for t, _, _ in scheduled)
    for (start, period), times in zip(daemons, daemon_fired):
        due = [start + j * period for j in range(int((last - start) / period) + 1)]
        assert times == [t for t in due if t <= last]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=40),
)
def test_resource_never_oversubscribed(capacity, durations):
    k = Kernel()
    res = Resource(capacity)
    active = [0]
    peak = [0]

    def job(d):
        yield Acquire(res)
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        yield Timeout(d)
        active[0] -= 1
        yield Release(res)

    k.run_all([job(d) for d in durations])
    assert peak[0] <= capacity
    # Work conservation: makespan at least total/ capacity, at most serial.
    total = sum(durations)
    assert max(durations) - 1e-9 <= k.now <= total + 1e-9
    assert k.now >= total / capacity - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20 * MIB),  # private
            st.sampled_from(["libA", "libB", "libC", None]),  # shared file
            st.sampled_from(["/pods/a", "/pods/b", "/system"]),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_memory_accounting_invariants(procs):
    m = SystemMemoryModel(total_bytes=64 * 1024 * MIB, kernel_base=0)
    spawned = []
    for private, lib, cgroup in procs:
        p = m.spawn("proc", cgroup=cgroup)
        m.map_private(p, private)
        if lib is not None:
            m.map_file(p, lib, 3 * MIB)
        spawned.append(p)

    node_ws = m.node_working_set()
    report = m.free_report()
    # free(1) used equals node working set (kernel_base = 0 here).
    assert report.used == node_ws
    # Sum of RSS >= node working set (sharing counted per process).
    assert sum(p.rss() for p in spawned) >= node_ws
    # Cgroup charges partition the shared+private total exactly.
    charged = sum(
        m.cgroup_working_set(c) for c in ("/pods/a", "/pods/b", "/system")
    )
    assert charged == node_ws
    # Killing everything returns the node to empty.
    for p in spawned:
        m.exit(p)
    assert m.node_working_set() == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=20))
def test_first_touch_charge_is_stable_under_exits(exit_order):
    """Whatever order mappers exit in, the shared file stays charged to
    exactly one live mapper's cgroup until the last one exits."""
    m = SystemMemoryModel(total_bytes=64 * 1024 * MIB, kernel_base=0)
    procs = []
    for i in range(len(exit_order)):
        # Zero-padded: a working-set query sums every cgroup its prefix
        # starts with, so /pods/pod1 would also count /pods/pod10.
        p = m.spawn(f"p{i}", cgroup=f"/pods/pod{i:02d}")
        m.map_file(p, "shared.so", 2 * MIB)
        procs.append(p)

    alive = set(range(len(procs)))
    for idx in exit_order:
        target = idx % len(procs)
        if target in alive:
            m.exit(procs[target])
            alive.remove(target)
        total_charged = sum(
            m.cgroup_working_set(f"/pods/pod{i:02d}") for i in range(len(procs))
        )
        assert total_charged == (2 * MIB if alive else 0)
