"""Node-wide memory accounting.

This module answers the two questions the paper's two measurement channels
ask (§IV-B):

* the **`free(1)` view** — whole-system usage including every daemon, shim,
  kernel per-pod overhead, and the page cache, and
* the **metrics-server view** — per-cgroup working sets covering only the
  processes inside pod cgroups, with shared file pages charged to the cgroup
  that faulted them first.

The difference between the two (paper: ``free`` reports up to 42% more) is
not a fudge factor here: it emerges because shim processes, the containerd
daemon's growth, and kernel per-pod structures live *outside* pod cgroups.

Accounting is **incremental**: the model keeps running totals (node private
bytes, distinct shared-file bytes, page cache) and a per-cgroup ledger,
updated on every segment mutation via the :class:`~repro.sim.process.SimProcess`
observer hooks. ``map_private`` admission, ``free_report()``,
``node_working_set()`` are O(1); ``cgroup_working_set()`` is O(cgroups +
files) instead of O(processes × segments), and every query reads the
ledger directly. The pre-incremental full-scan implementations survive as
:class:`ReferenceAccountant`, the differential oracle (mirroring the
``ReferenceInterpreter`` pattern): :meth:`SystemMemoryModel.verify_accounting`
cross-checks the whole ledger against it byte for byte, and the tests
compare query answers with it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.errors import OutOfMemory, SimulationError
from repro.sim.process import MemorySegment, SegmentKind, SimProcess

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class FreeReport:
    """Snapshot shaped like the columns of ``free -b``."""

    total: int
    used: int
    free: int
    shared: int
    buff_cache: int
    available: int


def _prefix_totals(
    prefixes: Iterable[str], charges: Iterable[Tuple[str, int]]
) -> Dict[str, int]:
    """Sum ``(cgroup, bytes)`` charges into every prefix the cgroup starts with.

    Every prefix matching a cgroup is one of its string truncations, so a
    charge costs ``len(cgroup) + 1`` set lookups, not one ``startswith``
    per prefix. A byte charged under two matching prefixes counts toward
    both, as separate :meth:`SystemMemoryModel.cgroup_working_set` calls
    would count it.
    """
    totals = dict.fromkeys(prefixes, 0)
    for cgroup, amount in charges:
        for k in range(len(cgroup) + 1):
            p = cgroup[:k]
            if p in totals:
                totals[p] += amount
    return totals


class ReferenceAccountant:
    """Full-scan accounting over a model's ground-truth structures.

    This is the pre-incremental implementation, retained verbatim as the
    oracle: it derives every answer by walking ``_procs`` /
    ``_file_mappers`` / ``_page_cache``, never consulting the running
    counters. :meth:`SystemMemoryModel.verify_accounting` and the tests
    compare it byte-for-byte against the incremental ledger.
    """

    def __init__(self, model: "SystemMemoryModel") -> None:
        self._m = model

    def _proc_private(self, proc: SimProcess) -> int:
        # Recompute from raw segments: the cached SimProcess.private_bytes
        # is itself under test, so the oracle must not consult it. COW
        # segments contribute their split (dirtied) bytes.
        total = 0
        for s in proc.segments.values():
            if s.kind is SegmentKind.PRIVATE:
                total += s.size
            elif s.kind is SegmentKind.COW:
                total += s.cow_dirty
        return total

    def private_total(self) -> int:
        return sum(self._proc_private(p) for p in self._m._procs.values())

    def shared_key_size(self, file_key: str) -> int:
        """One shared key's accounted extent: the first mapper's mapping.

        Covers both file-backed text and COW zygote extents (a COW
        segment's clean *and* dirty pages stay resident node-wide: the
        snapshot image is never shrunk by one process's writes).
        """
        mappers = self._m._file_mappers.get(file_key)
        first = self._m._procs.get(next(iter(mappers))) if mappers else None
        if first is None:
            return 0
        for seg in first.shared_segments():
            if seg.file_key == file_key:
                return seg.size
        return 0

    def distinct_file_bytes(self) -> int:
        total = 0
        for file_key in self._m._file_mappers:
            total += self.shared_key_size(file_key)
        return total

    def node_working_set(self) -> int:
        return self.private_total() + self.distinct_file_bytes()

    def page_cache_bytes(self) -> int:
        return sum(self._m._page_cache.values())

    def charged_cgroup(self, file_key: str) -> Optional[str]:
        """Cgroup paying for a shared file: the first *live* mapper's."""
        for pid in self._m._file_mappers.get(file_key, ()):
            proc = self._m._procs.get(pid)
            if proc is not None and proc.alive:
                return proc.cgroup
        return None

    def cgroup_working_set(self, cgroup_prefix: str) -> int:
        total = 0
        for proc in self._m._procs.values():
            if proc.cgroup.startswith(cgroup_prefix):
                total += self._proc_private(proc)
        for file_key in self._m._file_mappers:
            owner = self.charged_cgroup(file_key)
            if owner is not None and owner.startswith(cgroup_prefix):
                total += self.shared_key_size(file_key)
        return total

    def cgroup_working_sets(self, cgroup_prefixes: Iterable[str]) -> Dict[str, int]:
        """:meth:`cgroup_working_set` of every prefix, in one scan.

        Each process's private bytes and each shared key's extent are
        credited to the truncations of that entry's own cgroup, so the
        cost is one pass over processes and keys, not one per prefix.
        """
        charges = [(p.cgroup, self._proc_private(p)) for p in self._m._procs.values()]
        for file_key in self._m._file_mappers:
            owner = self.charged_cgroup(file_key)
            if owner is not None:
                charges.append((owner, self.shared_key_size(file_key)))
        return _prefix_totals(cgroup_prefixes, charges)


class SystemMemoryModel:
    """Tracks processes, shared file residency, page cache, kernel overhead."""

    def __init__(
        self,
        total_bytes: int = 256 * GIB,
        kernel_base: int = 600 * MIB,
    ) -> None:
        if total_bytes <= 0:
            raise SimulationError("total_bytes must be positive")
        self.total_bytes = total_bytes
        # Kernel text/slab base plus per-pod kernel overhead added later.
        self.kernel_bytes = kernel_base
        self._procs: Dict[int, SimProcess] = {}
        self._next_pid = 100
        # file_key -> {pid: mappings}, in first-mapping order (first = charge
        # owner); a pid keeps its place while it holds any mapping of the key
        self._file_mappers: Dict[str, Dict[int, int]] = {}
        # file_key -> resident page-cache bytes (image layers, etc.)
        self._page_cache: Dict[str, int] = {}
        # -- incremental ledger -------------------------------------------
        # Every entry below is derivable from the structures above; the
        # observer hooks keep them in lockstep so queries are O(1)/O(pods).
        self._private_total = 0
        self._cgroup_private: Dict[str, int] = {}
        self._file_sizes: Dict[str, int] = {}  # accounted size (first mapper's)
        self._file_owner: Dict[str, Optional[str]] = {}  # charged cgroup
        self._file_total = 0
        self._cache_total = 0
        #: one-shot notice for the next write to _private_total or
        #: _file_total (see notify_next_change)
        self._change_notice: Optional[Callable[[], None]] = None
        self.reference = ReferenceAccountant(self)
        # Query telemetry, children pre-bound (hot path).
        _m_queries = obs.counter(
            "repro_memory_queries_total",
            "memory-accounting queries answered, by query kind",
            ("query",),
        )
        self._q_free = _m_queries.labels("free_report")
        self._q_node = _m_queries.labels("node_working_set")
        self._q_cgroup = _m_queries.labels("cgroup_working_set")

    # -- process lifecycle ---------------------------------------------------

    def spawn(self, name: str, cgroup: str = "/", start_time: float = 0.0) -> SimProcess:
        pid = self._next_pid
        self._next_pid += 1
        proc = SimProcess(pid=pid, name=name, cgroup=cgroup, start_time=start_time)
        proc._observer = self
        self._procs[pid] = proc
        return proc

    def exit(self, proc: SimProcess) -> None:
        """Terminate a process, releasing its mappings."""
        if not proc.alive:
            return
        proc.alive = False
        for seg in list(proc.shared_segments()):
            self._unmap_file(proc.pid, seg.file_key)  # type: ignore[arg-type]
        del self._procs[proc.pid]
        proc._observer = None
        self._add_cgroup_private(proc.cgroup, -proc.private_bytes())

    def processes(self) -> Iterable[SimProcess]:
        return self._procs.values()

    def process_count(self) -> int:
        return len(self._procs)

    def find(self, name_prefix: str) -> List[SimProcess]:
        return [p for p in self._procs.values() if p.name.startswith(name_prefix)]

    # -- segment observer hooks (called by SimProcess mutators) ---------------

    def _add_cgroup_private(self, cgroup: str, delta: int) -> None:
        self._private_total += delta
        if self._change_notice is not None:
            self._fire_change_notice()
        updated = self._cgroup_private.get(cgroup, 0) + delta
        if updated:
            self._cgroup_private[cgroup] = updated
        else:
            self._cgroup_private.pop(cgroup, None)

    def segment_added(self, proc: SimProcess, seg: MemorySegment) -> None:
        # FILE_TEXT/COW registration happens in map_file/map_cow (a bare
        # add_segment of a shared mapping is invisible node-wide, as in
        # the reference scan), but a COW segment's already-split bytes are
        # private from the moment it appears.
        if proc.pid not in self._procs:
            return
        if seg.kind is SegmentKind.PRIVATE:
            self._add_cgroup_private(proc.cgroup, seg.size)
        elif seg.kind is SegmentKind.COW and seg.cow_dirty:
            self._add_cgroup_private(proc.cgroup, seg.cow_dirty)

    def segment_removed(self, proc: SimProcess, seg: MemorySegment) -> None:
        if proc.pid not in self._procs:
            return
        if seg.kind is SegmentKind.PRIVATE:
            self._add_cgroup_private(proc.cgroup, -seg.size)
        else:
            # munmap semantics: dropping a shared mapping releases the
            # process's claim on the shared pages (and, for COW, frees
            # the private copies it split off).
            if seg.kind is SegmentKind.COW and seg.cow_dirty:
                self._add_cgroup_private(proc.cgroup, -seg.cow_dirty)
            self._unmap_file(proc.pid, seg.file_key)  # type: ignore[arg-type]

    def segment_resized(self, proc: SimProcess, seg: MemorySegment, old_size: int) -> None:
        if proc.pid not in self._procs:
            return
        if seg.kind is SegmentKind.PRIVATE:
            self._add_cgroup_private(proc.cgroup, seg.size - old_size)
        elif seg.file_key in self._file_mappers:
            # Node-wide size follows the first mapper's mapping.
            self._refresh_file_size(seg.file_key)  # type: ignore[arg-type]

    def segment_cow_split(
        self, proc: SimProcess, seg: MemorySegment, old_dirty: int
    ) -> None:
        """A COW segment's split bytes changed: move the delta between the
        shared snapshot image and the process's private charge. The shared
        extent itself stays put (the snapshot pages remain resident)."""
        if proc.pid in self._procs:
            self._add_cgroup_private(proc.cgroup, seg.cow_dirty - old_dirty)

    def _refresh_file_size(self, file_key: str) -> None:
        """Re-derive one shared key's accounted size from its first mapper."""
        size = 0
        first = self._procs.get(next(iter(self._file_mappers[file_key])))
        if first is not None:
            for seg in first.shared_segments():
                if seg.file_key == file_key:
                    size = seg.size
                    break
        self._file_total += size - self._file_sizes.get(file_key, 0)
        self._file_sizes[file_key] = size
        if self._change_notice is not None:
            self._fire_change_notice()

    def _refresh_file_owner(self, file_key: str) -> None:
        owner = None
        for pid in self._file_mappers.get(file_key, ()):
            proc = self._procs.get(pid)
            if proc is not None and proc.alive:
                owner = proc.cgroup
                break
        self._file_owner[file_key] = owner

    # -- segments -------------------------------------------------------------

    def map_private(self, proc: SimProcess, size: int, label: str = "heap") -> str:
        """Allocate private memory, enforcing the node's physical limit.

        Raises:
            OutOfMemory: when the allocation would not fit even after
                dropping the (reclaimable) page cache — the point where
                Linux would OOM-kill.
        """
        projected = self.node_working_set() + self.kernel_bytes + size
        if projected > self.total_bytes:
            raise OutOfMemory(
                f"node memory exhausted: need {size} bytes for {proc.name}, "
                f"{self.total_bytes - projected + size} available"
            )
        return proc.add_segment(MemorySegment(SegmentKind.PRIVATE, size, label=label))

    def map_file(self, proc: SimProcess, file_key: str, size: int, label: str = "") -> str:
        """Map a shared file into ``proc``; physical pages shared node-wide.

        All mappings of one ``file_key`` must agree on ``size`` — they model
        the text of one artifact on disk. Validation uses the tracked file
        size, so it holds even after the first mapper exits or unmaps.
        """
        if file_key in self._file_mappers:
            tracked = self._file_sizes[file_key]
            if size != tracked:
                raise SimulationError(
                    f"file {file_key!r} mapped with size {tracked}, now {size}"
                )
        key = proc.add_segment(
            MemorySegment(SegmentKind.FILE_TEXT, size, file_key=file_key, label=label or file_key)
        )
        self._add_mapper(proc, file_key, size)
        return key

    def map_cow(
        self, proc: SimProcess, cow_key: str, size: int, label: str = ""
    ) -> str:
        """Clone a zygote snapshot into ``proc`` as a COW anonymous mapping.

        All clones of one ``cow_key`` share the snapshot's physical pages
        (accounted once node-wide, charged to the first toucher's cgroup
        like a shared file); bytes the process subsequently dirties are
        split into its private charge via
        :meth:`~repro.sim.process.SimProcess.cow_split`. The extent is the
        snapshot size and must agree across clones.
        """
        if cow_key in self._file_mappers:
            tracked = self._file_sizes[cow_key]
            if size != tracked:
                raise SimulationError(
                    f"zygote snapshot {cow_key!r} mapped with size {tracked}, now {size}"
                )
        key = proc.add_segment(
            MemorySegment(SegmentKind.COW, size, file_key=cow_key, label=label or cow_key)
        )
        self._add_mapper(proc, cow_key, size)
        return key

    def _add_mapper(self, proc: SimProcess, file_key: str, size: int) -> None:
        """Count one more mapping of a shared key by ``proc``.

        The first mapping of a key that had no mappers sets its accounted
        size and owner; a pid already mapping the key keeps its place.
        """
        mappers = self._file_mappers.get(file_key)
        if mappers is None:
            self._file_mappers[file_key] = {proc.pid: 1}
            self._file_sizes[file_key] = size
            self._file_total += size
            self._file_owner[file_key] = proc.cgroup if proc.alive else None
            if self._change_notice is not None:
                self._fire_change_notice()
        else:
            mappers[proc.pid] = mappers.get(proc.pid, 0) + 1

    def _unmap_file(self, pid: int, file_key: str) -> None:
        mappers = self._file_mappers.get(file_key)
        count = mappers.get(pid) if mappers else None
        if count is None:
            return
        was_first = next(iter(mappers)) == pid
        if count > 1:
            mappers[pid] = count - 1
        else:
            del mappers[pid]
            if not mappers:
                del self._file_mappers[file_key]
                self._file_total -= self._file_sizes.pop(file_key)
                self._file_owner.pop(file_key)
                if self._change_notice is not None:
                    self._fire_change_notice()
                return
        if was_first:
            self._refresh_file_size(file_key)
        self._refresh_file_owner(file_key)

    def file_mapper_count(self, file_key: str) -> int:
        """Live mappings of a shared key (a pid mapping it twice counts twice)."""
        return sum(self._file_mappers.get(file_key, {}).values())

    # -- page cache / kernel ---------------------------------------------------

    def touch_page_cache(self, file_key: str, size: int) -> None:
        """Record ``size`` resident cache bytes for a file (max of touches)."""
        current = self._page_cache.get(file_key, 0)
        if size > current:
            self._page_cache[file_key] = size
            self._cache_total += size - current

    def drop_page_cache(self, file_key: Optional[str] = None) -> None:
        if file_key is None:
            self._page_cache.clear()
            self._cache_total = 0
        else:
            self._cache_total -= self._page_cache.pop(file_key, 0)

    def add_kernel_overhead(self, size: int) -> None:
        """Per-pod kernel cost: netns, veth, cgroup and conntrack structures."""
        self.kernel_bytes += size

    def remove_kernel_overhead(self, size: int) -> None:
        self.kernel_bytes -= size
        if self.kernel_bytes < 0:
            raise SimulationError("kernel overhead went negative")

    # -- differential check -----------------------------------------------------

    def verify_accounting(self) -> None:
        """Cross-check every ledger entry against the reference accountant.

        Raises :class:`SimulationError` on the first drifted counter. It
        walks the whole ledger at once (the property suite calls it after
        every step); the queries themselves read the ledger only.
        """
        ref = self.reference
        checks = [
            ("private_total", self._private_total, ref.private_total()),
            ("file_total", self._file_total, ref.distinct_file_bytes()),
            ("cache_total", self._cache_total, ref.page_cache_bytes()),
        ]
        for what, inc, expected in checks:
            if inc != expected:
                raise SimulationError(
                    f"accounting drift in {what}: incremental={inc} reference={expected}"
                )
        for proc in self._procs.values():
            if proc.private_bytes() != ref._proc_private(proc):
                raise SimulationError(
                    f"accounting drift in pid {proc.pid} private_bytes: "
                    f"cached={proc.private_bytes()} reference={ref._proc_private(proc)}"
                )
        cgroups = {p.cgroup for p in self._procs.values()}
        cgroups.update(self._cgroup_private)
        cgroups.update(o for o in self._file_owner.values() if o is not None)
        incremental = self._ledger_working_sets(cgroups)
        reference = ref.cgroup_working_sets(cgroups)
        for cgroup in sorted(cgroups):
            inc = incremental[cgroup]
            expected = reference[cgroup]
            if inc != expected:
                raise SimulationError(
                    f"accounting drift in cgroup_working_set({cgroup!r}): "
                    f"incremental={inc} reference={expected}"
                )
        for file_key in self._file_mappers:
            if self._file_owner.get(file_key) != ref.charged_cgroup(file_key):
                raise SimulationError(
                    f"accounting drift in charged cgroup of {file_key!r}"
                )
            if self._file_sizes.get(file_key, 0) != ref.shared_key_size(file_key):
                raise SimulationError(
                    f"accounting drift in shared extent of {file_key!r}: "
                    f"incremental={self._file_sizes.get(file_key, 0)} "
                    f"reference={ref.shared_key_size(file_key)}"
                )

    # -- accounting: free(1) ----------------------------------------------------

    def free_report(self) -> FreeReport:
        """The node as ``free -b`` shows it.

        The page cache is reclaimable, so ``buff_cache`` reports at most
        what ``used`` leaves of the node, and ``free`` stays ≥ 0 when an
        admitted allocation overlaps the cache.

        Raises:
            SimulationError: when ``used`` alone exceeds the node.
        """
        self._q_free.inc()
        shared_files = self._file_total
        used = self._private_total + shared_files + self.kernel_bytes
        if used > self.total_bytes:
            raise SimulationError(
                f"node out of memory: used={used} total={self.total_bytes}"
            )
        buff_cache = min(self._cache_total, self.total_bytes - used)
        free = self.total_bytes - used - buff_cache
        available = free + buff_cache + shared_files // 2
        return FreeReport(
            total=self.total_bytes,
            used=used,
            free=free,
            shared=shared_files,
            buff_cache=buff_cache,
            available=min(available, self.total_bytes),
        )

    # -- accounting: cgroups ------------------------------------------------------

    def cgroup_working_set(self, cgroup_prefix: str) -> int:
        """Working set of a cgroup subtree, kernel first-touch style.

        Private memory of member processes plus shared files charged to a
        member cgroup. This is what the metrics server aggregates per pod.
        """
        self._q_cgroup.inc()
        total = 0
        for cgroup, private in self._cgroup_private.items():
            if cgroup.startswith(cgroup_prefix):
                total += private
        for file_key, owner in self._file_owner.items():
            if owner is not None and owner.startswith(cgroup_prefix):
                total += self._file_sizes[file_key]
        return total

    def cgroup_working_sets(self, cgroup_prefixes: Iterable[str]) -> Dict[str, int]:
        """Batched :meth:`cgroup_working_set` — one ledger pass for all prefixes.

        Equivalent to calling ``cgroup_working_set`` per prefix (including
        overlap behavior: a byte charged under two matching prefixes counts
        toward both), but visits each ledger entry once, testing only the
        entry's own string truncations against the prefix set.
        """
        prefixes = set(cgroup_prefixes)
        self._q_cgroup.inc(len(prefixes))
        return self._ledger_working_sets(prefixes)

    def _ledger_working_sets(self, prefixes: Iterable[str]) -> Dict[str, int]:
        """Per-prefix working sets from one pass over the ledger."""
        charges = list(self._cgroup_private.items())
        for file_key, owner in self._file_owner.items():
            if owner is not None:
                charges.append((owner, self._file_sizes[file_key]))
        return _prefix_totals(prefixes, charges)

    def node_working_set(self) -> int:
        """Sum of all process private memory + each shared file once."""
        self._q_node.inc()
        return self._private_total + self._file_total

    def notify_next_change(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` once, at the next change of the node working set.

        The notice fires at the next write to the running totals that
        :meth:`node_working_set` sums, then disarms; arming again replaces
        a pending notice. The scheduler arms it when it reads this node's
        working set, so it re-scores the node only after the answer may
        have moved. An unarmed model pays one attribute test per write.
        """
        self._change_notice = fn

    def _fire_change_notice(self) -> None:
        fn, self._change_notice = self._change_notice, None
        fn()
