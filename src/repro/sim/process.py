"""Simulated OS processes built from typed memory segments.

A process is a bag of :class:`MemorySegment`\\ s. The segment *kind* decides
how the node-level accountant (:mod:`repro.sim.memory`) attributes it:

* ``PRIVATE`` — anonymous private memory (heap, stacks, JIT code buffers,
  engine stores). Charged fully to the owning process and its cgroup.
* ``FILE_TEXT`` — file-backed shared mappings (executable text, shared
  libraries, AOT artifacts). Resident once per node per file; each mapping
  process shows the full size in its RSS (as Linux does) but the node pays
  for it once, and a cgroup is charged only if it faulted the file first.
* ``COW`` — copy-on-write anonymous mappings cloned from a zygote
  snapshot. The clean extent is shared node-wide like a file (all
  mappings of one ``file_key`` share the snapshot's pages); pages the
  process writes *split* off as private copies, tracked per segment in
  ``cow_dirty`` and charged like ``PRIVATE`` bytes. The extent is fixed
  at the snapshot size — growth beyond it is ordinary private memory.
* ``PAGE_CACHE`` contributions are not segments; they live on the node
  model directly (image layer reads populate them).

Private bytes are maintained incrementally: every segment mutation goes
through :meth:`SimProcess.add_segment` / :meth:`SimProcess.drop_segment` /
:meth:`SimProcess.resize_segment`, which update a cached total and notify
the owning memory model (the *observer*) so node- and cgroup-level
counters stay O(1) per mutation. Never assign ``segment.size`` directly —
the accountants would drift (``verify_accounting`` catches this).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Protocol


class SegmentKind(enum.Enum):
    PRIVATE = "private"
    FILE_TEXT = "file_text"
    COW = "cow"


@dataclass
class MemorySegment:
    """One mapping in a process address space.

    Attributes:
        kind: accounting class of the segment.
        size: resident bytes (for ``COW``: the fixed snapshot extent).
        file_key: identity of the backing file (``FILE_TEXT``) or zygote
            snapshot (``COW``); mappings with equal keys share physical
            pages node-wide.
        label: human-readable origin ("heap", "libiwasm.so", "jit-code").
        cow_dirty: bytes of a ``COW`` segment split into private copies
            by writes; always 0 for other kinds. Mutate only through
            :meth:`SimProcess.cow_split` / :meth:`SimProcess.cow_unsplit`.
    """

    kind: SegmentKind
    size: int
    file_key: Optional[str] = None
    label: str = ""
    cow_dirty: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"segment size must be >= 0, got {self.size}")
        if self.kind in (SegmentKind.FILE_TEXT, SegmentKind.COW) and not self.file_key:
            raise ValueError(f"{self.kind.name} segment requires a file_key")
        if self.kind is not SegmentKind.COW and self.cow_dirty:
            raise ValueError("cow_dirty only applies to COW segments")
        if self.cow_dirty < 0 or self.cow_dirty > self.size:
            raise ValueError(
                f"cow_dirty must be within [0, size], got {self.cow_dirty}/{self.size}"
            )


class SegmentObserver(Protocol):
    """What a node-level accountant hears about segment mutations."""

    def segment_added(self, proc: "SimProcess", seg: MemorySegment) -> None: ...

    def segment_removed(self, proc: "SimProcess", seg: MemorySegment) -> None: ...

    def segment_resized(
        self, proc: "SimProcess", seg: MemorySegment, old_size: int
    ) -> None: ...

    def segment_cow_split(
        self, proc: "SimProcess", seg: MemorySegment, old_dirty: int
    ) -> None: ...


@dataclass
class SimProcess:
    """A simulated process: identity, cgroup membership, and its segments."""

    pid: int
    name: str
    cgroup: str = "/"
    alive: bool = True
    start_time: float = 0.0
    segments: Dict[str, MemorySegment] = field(default_factory=dict)
    _seq: int = 0
    _private_cached: int = field(default=0, init=False, repr=False, compare=False)
    _observer: Optional[SegmentObserver] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._private_cached = sum(
            self._charged(s) for s in self.segments.values()
        )

    @staticmethod
    def _charged(seg: MemorySegment) -> int:
        """Bytes of a segment charged privately to this process."""
        if seg.kind is SegmentKind.PRIVATE:
            return seg.size
        if seg.kind is SegmentKind.COW:
            return seg.cow_dirty
        return 0

    def add_segment(self, seg: MemorySegment, key: Optional[str] = None) -> str:
        """Attach a segment; returns the key it is stored under."""
        if key is None:
            key = f"{seg.label or seg.kind.value}#{self._seq}"
            self._seq += 1
        if key in self.segments:
            raise KeyError(f"duplicate segment key {key!r} in pid {self.pid}")
        self.segments[key] = seg
        self._private_cached += self._charged(seg)
        if self._observer is not None:
            self._observer.segment_added(self, seg)
        return key

    def drop_segment(self, key: str) -> MemorySegment:
        seg = self.segments.pop(key)
        self._private_cached -= self._charged(seg)
        if self._observer is not None:
            self._observer.segment_removed(self, seg)
        return seg

    def resize_segment(self, key: str, new_size: int) -> None:
        if new_size < 0:
            raise ValueError(f"segment size must be >= 0, got {new_size}")
        seg = self.segments[key]
        if seg.kind is SegmentKind.COW:
            raise ValueError(
                "COW segments have a fixed snapshot extent; "
                "use cow_split/cow_unsplit (growth is ordinary private memory)"
            )
        old_size = seg.size
        seg.size = new_size
        if seg.kind is SegmentKind.PRIVATE:
            self._private_cached += new_size - old_size
        if self._observer is not None:
            self._observer.segment_resized(self, seg, old_size)

    def cow_split(self, key: str, delta: int) -> None:
        """Split ``delta`` more bytes of a COW segment into private copies.

        Models the page-fault path on guest writes: the split bytes leave
        the shared snapshot and are charged to this process/cgroup.
        Negative ``delta`` re-merges (e.g. madvise-style reclaim of pages
        restored to the snapshot image).
        """
        seg = self.segments[key]
        if seg.kind is not SegmentKind.COW:
            raise ValueError(f"segment {key!r} is {seg.kind.name}, not COW")
        old_dirty = seg.cow_dirty
        new_dirty = old_dirty + delta
        if new_dirty < 0 or new_dirty > seg.size:
            raise ValueError(
                f"cow_dirty must stay within [0, {seg.size}], got {new_dirty}"
            )
        seg.cow_dirty = new_dirty
        self._private_cached += delta
        if self._observer is not None:
            self._observer.segment_cow_split(self, seg, old_dirty)

    def cow_unsplit(self, key: str, delta: int) -> None:
        self.cow_split(key, -delta)

    def private_bytes(self) -> int:
        return self._private_cached

    def shared_segments(self) -> Iterator[MemorySegment]:
        """Segments whose pages are shared node-wide (FILE_TEXT + COW)."""
        return (
            s
            for s in self.segments.values()
            if s.kind in (SegmentKind.FILE_TEXT, SegmentKind.COW)
        )

    def rss(self) -> int:
        """Linux-style RSS: private + resident pages of shared mappings.

        A COW segment's dirty bytes already sit in the private total; the
        remaining clean extent is resident too (shared with the zygote).
        """
        return self._private_cached + sum(
            s.size - s.cow_dirty for s in self.shared_segments()
        )
