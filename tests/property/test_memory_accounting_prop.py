"""Differential property test: incremental ledger vs reference accountant.

Drives random spawn / map_private / map_file / map_cow / cow_split /
resize_segment / drop_segment / exit / touch_page_cache / drop_page_cache
sequences and, after every step, calls ``verify_accounting()``, which
compares the running counters byte-for-byte against full recomputation:
free-report components, node working set, every cgroup working set, and
every shared file's charge owner. The invariant also compares every
query's answer with the model's :class:`ReferenceAccountant`: the node
working set, the ``free(1)`` columns, and the single and batched cgroup
working sets over every prefix.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.memory import MIB, SystemMemoryModel
from repro.sim.process import SegmentKind

CGROUPS = [
    "/",
    "/kubepods/pod-a",
    "/kubepods/pod-b",
    "/kubepods/pod1",
    "/kubepods/pod10",
    "/system.slice/containerd",
]
#: query prefixes: every cgroup, overlapping truncations ("/kubepods/pod1"
#: is also a prefix of "/kubepods/pod10") and prefixes matching nothing
PREFIXES = CGROUPS + ["", "/kubepods", "/kubepods/pod", "/system", "/nomatch"]
#: fixed size per shared file — mappings of one key must agree on size
FILES = {"libA.so": 3 * MIB, "libB.so": 5 * MIB, "app.aot": 1 * MIB}
#: fixed size per zygote snapshot — COW clones must agree on the extent
COWS = {"zygote/svc": 2 * MIB, "zygote/batch": 4 * MIB}


class AccountingMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.model = SystemMemoryModel(total_bytes=1 << 50, kernel_base=0)
        self.procs = []

    def _pick_proc(self, data):
        if not self.procs:
            return None
        return data.draw(st.sampled_from(self.procs), label="proc")

    @rule(data=st.data(), cgroup=st.sampled_from(CGROUPS))
    def spawn(self, data, cgroup):
        self.procs.append(self.model.spawn("proc", cgroup=cgroup))

    @rule(data=st.data(), size=st.integers(min_value=0, max_value=8 * MIB))
    def map_private(self, data, size):
        proc = self._pick_proc(data)
        if proc is not None:
            self.model.map_private(proc, size)

    @rule(data=st.data(), file_key=st.sampled_from(sorted(FILES)))
    def map_file(self, data, file_key):
        proc = self._pick_proc(data)
        if proc is not None:
            self.model.map_file(proc, file_key, FILES[file_key])

    @rule(data=st.data(), cow_key=st.sampled_from(sorted(COWS)))
    def map_cow(self, data, cow_key):
        proc = self._pick_proc(data)
        if proc is not None:
            self.model.map_cow(proc, cow_key, COWS[cow_key])

    @rule(data=st.data(), frac=st.floats(min_value=0.0, max_value=1.0))
    def cow_split(self, data, frac):
        """Dirty (or re-share) a random amount of a random COW segment."""
        proc = self._pick_proc(data)
        if proc is None:
            return
        keys = [k for k, s in proc.segments.items() if s.kind is SegmentKind.COW]
        if not keys:
            return
        key = data.draw(st.sampled_from(keys), label="key")
        seg = proc.segments[key]
        # delta ranges over everything legal: [-dirty, size - dirty]
        delta = round(-seg.cow_dirty + frac * seg.size)
        delta = max(-seg.cow_dirty, min(delta, seg.size - seg.cow_dirty))
        if delta >= 0:
            proc.cow_split(key, delta)
        else:
            proc.cow_unsplit(key, -delta)

    @rule(data=st.data(), size=st.integers(min_value=0, max_value=8 * MIB))
    def resize_private(self, data, size):
        proc = self._pick_proc(data)
        if proc is None:
            return
        keys = [
            k for k, s in proc.segments.items() if s.kind is SegmentKind.PRIVATE
        ]
        if keys:
            proc.resize_segment(data.draw(st.sampled_from(keys), label="key"), size)

    @rule(data=st.data())
    def drop_segment(self, data):
        proc = self._pick_proc(data)
        if proc is None or not proc.segments:
            return
        proc.drop_segment(data.draw(st.sampled_from(sorted(proc.segments)), label="key"))

    @rule(data=st.data())
    def exit(self, data):
        proc = self._pick_proc(data)
        if proc is not None:
            self.model.exit(proc)
            self.procs.remove(proc)

    @rule(
        file_key=st.sampled_from(["layer1", "layer2"]),
        size=st.integers(min_value=0, max_value=16 * MIB),
    )
    def touch_page_cache(self, file_key, size):
        self.model.touch_page_cache(file_key, size)

    @rule(file_key=st.sampled_from(["layer1", "layer2", None]))
    def drop_page_cache(self, file_key):
        self.model.drop_page_cache(file_key)

    @rule(prefixes=st.lists(st.sampled_from(PREFIXES), max_size=8))
    def reference_batch_matches_per_prefix_scans(self, prefixes):
        ref = self.model.reference
        assert ref.cgroup_working_sets(prefixes) == {
            p: ref.cgroup_working_set(p) for p in prefixes
        }

    @invariant()
    def counters_match_reference(self):
        if not hasattr(self, "model"):
            return
        model = self.model
        model.verify_accounting()
        ref = model.reference
        assert model.node_working_set() == ref.node_working_set()
        report = model.free_report()
        assert report.used == ref.node_working_set() + model.kernel_bytes
        assert report.shared == ref.distinct_file_bytes()
        assert report.buff_cache == ref.page_cache_bytes()
        assert report.used + report.free + report.buff_cache == report.total
        expected = {p: ref.cgroup_working_set(p) for p in PREFIXES}
        for prefix in PREFIXES:
            assert model.cgroup_working_set(prefix) == expected[prefix]
        assert model.cgroup_working_sets(PREFIXES) == expected
        assert ref.cgroup_working_sets(PREFIXES) == expected


TestAccountingDifferential = AccountingMachine.TestCase
TestAccountingDifferential.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def _overlapping_model() -> SystemMemoryModel:
    """pod1 (3 MiB + lib.so, its first mapper), pod10 (5 MiB), containerd (1 MiB)."""
    model = SystemMemoryModel(total_bytes=1 << 40, kernel_base=0)
    for cgroup, size in (
        ("/kubepods/pod1", 3 * MIB),
        ("/kubepods/pod10", 5 * MIB),
        ("/system.slice/containerd", 1 * MIB),
    ):
        proc = model.spawn("proc", cgroup=cgroup)
        model.map_private(proc, size)
        if cgroup.startswith("/kubepods/"):
            model.map_file(proc, "lib.so", 2 * MIB)
    model.verify_accounting()
    return model


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # "/kubepods/pod1" is also a prefix of pod10, and sorts first.
        (
            "/kubepods/pod1",
            "accounting drift in cgroup_working_set('/kubepods/pod1'): "
            "incremental=10489856 reference=10485760",
        ),
        (
            "/kubepods/pod10",
            "accounting drift in cgroup_working_set('/kubepods/pod1'): "
            "incremental=10489856 reference=10485760",
        ),
        (
            "/system.slice/containerd",
            "accounting drift in cgroup_working_set('/system.slice/containerd'): "
            "incremental=1052672 reference=1048576",
        ),
    ],
)
def test_verify_accounting_names_the_first_drifted_cgroup(corrupt, message):
    """A ledger entry off by one page is caught by the reference side,
    reported for the first cgroup (in sorted order) whose working set it
    moves."""
    model = _overlapping_model()
    model._cgroup_private[corrupt] += 4096
    with pytest.raises(SimulationError) as err:
        model.verify_accounting()
    assert str(err.value) == message
