"""SystemMemoryModel: RSS, sharing, cgroup charging, free(1)."""

import pytest

from repro.errors import SimulationError
from repro.sim.memory import GIB, MIB, SystemMemoryModel
from repro.sim.process import MemorySegment, SegmentKind


@pytest.fixture()
def memory() -> SystemMemoryModel:
    return SystemMemoryModel(total_bytes=8 * GIB, kernel_base=100 * MIB)


class TestProcessAccounting:
    def test_private_counts_fully(self, memory):
        p = memory.spawn("app", cgroup="/pods/a")
        memory.map_private(p, 10 * MIB)
        assert p.private_bytes() == 10 * MIB
        assert p.rss() == 10 * MIB

    def test_rss_includes_full_shared_mapping(self, memory):
        p1 = memory.spawn("a")
        p2 = memory.spawn("b")
        memory.map_file(p1, "lib.so", 4 * MIB)
        memory.map_file(p2, "lib.so", 4 * MIB)
        # Linux semantics: both RSS values include the mapping fully...
        assert p1.rss() == p2.rss() == 4 * MIB
        # ...but the node pays once.
        assert memory.node_working_set() == 4 * MIB

    def test_mismatched_file_size_rejected(self, memory):
        p1 = memory.spawn("a")
        p2 = memory.spawn("b")
        memory.map_file(p1, "lib.so", 4 * MIB)
        with pytest.raises(SimulationError):
            memory.map_file(p2, "lib.so", 8 * MIB)

    def test_exit_releases_private_and_mappings(self, memory):
        p = memory.spawn("app")
        memory.map_private(p, 10 * MIB)
        memory.map_file(p, "lib.so", 2 * MIB)
        memory.exit(p)
        assert memory.node_working_set() == 0
        assert memory.file_mapper_count("lib.so") == 0

    def test_exit_is_idempotent(self, memory):
        p = memory.spawn("app")
        memory.exit(p)
        memory.exit(p)  # no error

    def test_find_by_name_prefix(self, memory):
        memory.spawn("containerd-shim-a")
        memory.spawn("containerd-shim-b")
        memory.spawn("other")
        assert len(memory.find("containerd-shim")) == 2

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            MemorySegment(SegmentKind.PRIVATE, -1)
        with pytest.raises(ValueError):
            MemorySegment(SegmentKind.FILE_TEXT, 10)  # no file_key


class TestChangeNotice:
    """``notify_next_change``: one call per arming, at a working-set write."""

    def test_fires_once_at_the_next_private_write(self, memory):
        p = memory.spawn("app", cgroup="/pods/a")
        fired = []
        memory.notify_next_change(lambda: fired.append(memory.node_working_set()))
        memory.map_private(p, 10 * MIB)
        memory.map_private(p, 5 * MIB)
        assert fired == [10 * MIB]  # after the write, then disarmed
        memory.notify_next_change(lambda: fired.append(memory.node_working_set()))
        memory.exit(p)
        assert fired == [10 * MIB, 0]

    @pytest.mark.parametrize("change", ["resize", "unmap", "exit"])
    def test_fires_when_shared_bytes_change(self, memory, change):
        p = memory.spawn("app")
        fired = []
        memory.notify_next_change(lambda: fired.append("map"))
        memory.map_file(p, "lib.so", 4 * MIB)
        memory.notify_next_change(lambda: fired.append(change))
        key = next(iter(p.segments))
        if change == "resize":
            p.resize_segment(key, 8 * MIB)
        elif change == "unmap":
            p.drop_segment(key)
        else:
            memory.exit(p)
        assert fired == ["map", change]

    def test_page_cache_and_kernel_bytes_do_not_fire(self, memory):
        fired = []
        memory.notify_next_change(lambda: fired.append(1))
        memory.touch_page_cache("layer", 8 * MIB)
        memory.add_kernel_overhead(MIB)
        assert fired == []


class TestCgroupCharging:
    def test_first_toucher_pays_for_shared_file(self, memory):
        p1 = memory.spawn("a", cgroup="/pods/a")
        p2 = memory.spawn("b", cgroup="/pods/b")
        memory.map_file(p1, "lib.so", 4 * MIB)
        memory.map_file(p2, "lib.so", 4 * MIB)
        assert memory.cgroup_working_set("/pods/a") == 4 * MIB
        assert memory.cgroup_working_set("/pods/b") == 0

    def test_charge_migrates_when_first_toucher_exits(self, memory):
        p1 = memory.spawn("a", cgroup="/pods/a")
        p2 = memory.spawn("b", cgroup="/pods/b")
        memory.map_file(p1, "lib.so", 4 * MIB)
        memory.map_file(p2, "lib.so", 4 * MIB)
        memory.exit(p1)
        assert memory.cgroup_working_set("/pods/b") == 4 * MIB

    def test_cgroup_prefix_aggregation(self, memory):
        p1 = memory.spawn("a", cgroup="/kubepods/pod1")
        p2 = memory.spawn("b", cgroup="/kubepods/pod2")
        memory.map_private(p1, 1 * MIB)
        memory.map_private(p2, 2 * MIB)
        assert memory.cgroup_working_set("/kubepods") == 3 * MIB
        assert memory.cgroup_working_set("/kubepods/pod2") == 2 * MIB

    def test_unrelated_cgroup_sees_nothing(self, memory):
        p = memory.spawn("a", cgroup="/system/daemon")
        memory.map_private(p, 5 * MIB)
        assert memory.cgroup_working_set("/kubepods") == 0


class TestFreeReport:
    def test_conservation(self, memory):
        p = memory.spawn("a")
        memory.map_private(p, 100 * MIB)
        memory.touch_page_cache("layer1", 50 * MIB)
        report = memory.free_report()
        assert report.total == 8 * GIB
        assert report.used + report.free + report.buff_cache == report.total

    def test_used_includes_kernel_and_processes(self, memory):
        baseline = memory.free_report().used
        p = memory.spawn("a")
        memory.map_private(p, 64 * MIB)
        assert memory.free_report().used == baseline + 64 * MIB

    def test_shared_file_counted_once_in_used(self, memory):
        before = memory.free_report().used
        p1 = memory.spawn("a")
        p2 = memory.spawn("b")
        memory.map_file(p1, "lib.so", 10 * MIB)
        memory.map_file(p2, "lib.so", 10 * MIB)
        assert memory.free_report().used == before + 10 * MIB

    def test_page_cache_in_buff_cache_not_used(self, memory):
        before = memory.free_report()
        memory.touch_page_cache("layer", 30 * MIB)
        after = memory.free_report()
        assert after.used == before.used
        assert after.buff_cache == before.buff_cache + 30 * MIB

    def test_page_cache_touch_takes_max(self, memory):
        memory.touch_page_cache("layer", 30 * MIB)
        memory.touch_page_cache("layer", 10 * MIB)
        assert memory.free_report().buff_cache == 30 * MIB

    def test_drop_page_cache(self, memory):
        memory.touch_page_cache("layer", 30 * MIB)
        memory.drop_page_cache("layer")
        assert memory.free_report().buff_cache == 0

    def test_oom_raises_at_allocation(self):
        from repro.errors import OutOfMemory

        small = SystemMemoryModel(total_bytes=64 * MIB, kernel_base=0)
        p = small.spawn("big")
        with pytest.raises(OutOfMemory, match="exhausted"):
            small.map_private(p, 65 * MIB)

    def test_allocation_up_to_limit_succeeds(self):
        small = SystemMemoryModel(total_bytes=64 * MIB, kernel_base=0)
        p = small.spawn("fits")
        small.map_private(p, 64 * MIB)
        assert small.free_report().free == 0

    def test_kernel_overhead_tracking(self, memory):
        before = memory.free_report().used
        memory.add_kernel_overhead(1 * MIB)
        assert memory.free_report().used == before + 1 * MIB
        memory.remove_kernel_overhead(1 * MIB)
        assert memory.free_report().used == before
        with pytest.raises(SimulationError):
            memory.remove_kernel_overhead(10 * GIB)


class TestFileSizeValidation:
    """map_file validates against the tracked size, not the first mapper's
    segments — the old scan silently skipped the check once the first
    mapper's segment was gone."""

    def test_mismatch_rejected_after_first_mapper_drops_mapping(self, memory):
        p1 = memory.spawn("a")
        p2 = memory.spawn("b")
        k1 = memory.map_file(p1, "lib.so", 4 * MIB)
        memory.map_file(p2, "lib.so", 4 * MIB)
        p1.drop_segment(k1)
        p3 = memory.spawn("c")
        with pytest.raises(SimulationError, match="lib.so"):
            memory.map_file(p3, "lib.so", 8 * MIB)

    def test_mismatch_rejected_after_first_mapper_exits(self, memory):
        p1 = memory.spawn("a")
        p2 = memory.spawn("b")
        memory.map_file(p1, "lib.so", 4 * MIB)
        memory.map_file(p2, "lib.so", 4 * MIB)
        memory.exit(p1)
        p3 = memory.spawn("c")
        with pytest.raises(SimulationError, match="lib.so"):
            memory.map_file(p3, "lib.so", 8 * MIB)

    def test_fully_unmapped_file_can_remap_with_new_size(self, memory):
        p1 = memory.spawn("a")
        k1 = memory.map_file(p1, "lib.so", 4 * MIB)
        p1.drop_segment(k1)
        assert memory.file_mapper_count("lib.so") == 0
        p2 = memory.spawn("b")
        memory.map_file(p2, "lib.so", 8 * MIB)
        assert memory.node_working_set() == 8 * MIB


class TestMunmapSemantics:
    def test_drop_segment_releases_file_claim(self, memory):
        p1 = memory.spawn("a", cgroup="/pods/a")
        p2 = memory.spawn("b", cgroup="/pods/b")
        k1 = memory.map_file(p1, "lib.so", 4 * MIB)
        k2 = memory.map_file(p2, "lib.so", 4 * MIB)
        p1.drop_segment(k1)
        # Node still pays once (p2 maps it); charge migrated to p2.
        assert memory.file_mapper_count("lib.so") == 1
        assert memory.node_working_set() == 4 * MIB
        assert memory.cgroup_working_set("/pods/a") == 0
        assert memory.cgroup_working_set("/pods/b") == 4 * MIB
        p2.drop_segment(k2)
        assert memory.node_working_set() == 0
        assert memory.file_mapper_count("lib.so") == 0

    def test_drop_private_segment_updates_ledger(self, memory):
        p = memory.spawn("a", cgroup="/pods/a")
        key = memory.map_private(p, 10 * MIB)
        p.drop_segment(key)
        assert p.private_bytes() == 0
        assert memory.node_working_set() == 0
        assert memory.cgroup_working_set("/pods/a") == 0

    def test_resize_private_segment_updates_ledger(self, memory):
        p = memory.spawn("a", cgroup="/pods/a")
        key = memory.map_private(p, 10 * MIB)
        p.resize_segment(key, 4 * MIB)
        assert p.private_bytes() == 4 * MIB
        assert memory.cgroup_working_set("/pods/a") == 4 * MIB
        assert memory.free_report().used == 100 * MIB + 4 * MIB


class TestRepeatedMappings:
    """One process mapping one shared key more than once."""

    def test_first_mapper_keeps_charge_while_it_still_maps(self, memory):
        p1 = memory.spawn("a", cgroup="/kubepods/pod-a")
        p2 = memory.spawn("b", cgroup="/kubepods/pod-b")
        k1 = memory.map_file(p1, "lib.so", 4 * MIB)
        memory.map_file(p2, "lib.so", 4 * MIB)
        memory.map_file(p1, "lib.so", 4 * MIB)
        p1.drop_segment(k1)
        assert memory.cgroup_working_set("/kubepods/pod-a") == 4 * MIB
        assert memory.cgroup_working_set("/kubepods/pod-b") == 0
        memory.verify_accounting()

    def test_first_mapper_size_rederived_after_dropping_one_mapping(self, memory):
        p1 = memory.spawn("a", cgroup="/pods/a")
        p2 = memory.spawn("b", cgroup="/pods/b")
        k1 = memory.map_file(p1, "lib.so", 4 * MIB)
        k2 = memory.map_file(p1, "lib.so", 4 * MIB)
        memory.map_file(p2, "lib.so", 4 * MIB)
        p1.resize_segment(k2, 6 * MIB)
        # The accounted extent is the first mapper's first mapping.
        assert memory.node_working_set() == 4 * MIB
        p1.drop_segment(k1)
        assert memory.node_working_set() == 6 * MIB
        assert memory.cgroup_working_set("/pods/a") == 6 * MIB
        memory.verify_accounting()

    def test_mapper_count_counts_mappings(self, memory):
        p1 = memory.spawn("a")
        p2 = memory.spawn("b")
        k1 = memory.map_file(p1, "lib.so", 4 * MIB)
        memory.map_file(p1, "lib.so", 4 * MIB)
        memory.map_cow(p2, "zygote/svc", 2 * MIB)
        memory.map_file(p2, "lib.so", 4 * MIB)
        assert memory.file_mapper_count("lib.so") == 3
        p1.drop_segment(k1)
        assert memory.file_mapper_count("lib.so") == 2
        memory.exit(p1)
        assert memory.file_mapper_count("lib.so") == 1
        assert memory.file_mapper_count("zygote/svc") == 1
        memory.verify_accounting()


class TestCowSegments:
    """Zygote clones: shared snapshot extent + per-process dirty split."""

    def test_clones_pay_snapshot_once_plus_dirty(self, memory):
        p1 = memory.spawn("a", cgroup="/pods/a")
        p2 = memory.spawn("b", cgroup="/pods/b")
        memory.map_cow(p1, "zygote/svc", 4 * MIB)
        k2 = memory.map_cow(p2, "zygote/svc", 4 * MIB)
        assert memory.node_working_set() == 4 * MIB
        p2.cow_split(k2, 1 * MIB)
        # Original pages stay resident; the copy is additional private.
        assert memory.node_working_set() == 5 * MIB
        assert p2.private_bytes() == 1 * MIB
        # RSS stays the mapping size: each dirty page *replaces* the
        # shared page in the writer's address space (Linux semantics);
        # the extra node-wide cost is the still-resident original.
        assert p1.rss() == 4 * MIB
        assert p2.rss() == 4 * MIB

    def test_first_toucher_charged_dirty_split_charged_to_writer(self, memory):
        p1 = memory.spawn("a", cgroup="/pods/a")
        p2 = memory.spawn("b", cgroup="/pods/b")
        memory.map_cow(p1, "zygote/svc", 4 * MIB)
        k2 = memory.map_cow(p2, "zygote/svc", 4 * MIB)
        assert memory.cgroup_working_set("/pods/a") == 4 * MIB
        assert memory.cgroup_working_set("/pods/b") == 0
        p2.cow_split(k2, 1 * MIB)
        assert memory.cgroup_working_set("/pods/a") == 4 * MIB
        assert memory.cgroup_working_set("/pods/b") == 1 * MIB

    def test_charge_migrates_when_owner_exits(self, memory):
        p1 = memory.spawn("a", cgroup="/pods/a")
        p2 = memory.spawn("b", cgroup="/pods/b")
        memory.map_cow(p1, "zygote/svc", 4 * MIB)
        memory.map_cow(p2, "zygote/svc", 4 * MIB)
        memory.exit(p1)
        assert memory.cgroup_working_set("/pods/b") == 4 * MIB
        assert memory.node_working_set() == 4 * MIB

    def test_unsplit_resharing_returns_bytes(self, memory):
        p = memory.spawn("a", cgroup="/pods/a")
        key = memory.map_cow(p, "zygote/svc", 4 * MIB)
        p.cow_split(key, 2 * MIB)
        p.cow_unsplit(key, 1 * MIB)
        assert p.private_bytes() == 1 * MIB
        assert memory.node_working_set() == 5 * MIB
        memory.verify_accounting()

    def test_split_bounds_enforced(self, memory):
        p = memory.spawn("a")
        key = memory.map_cow(p, "zygote/svc", 4 * MIB)
        with pytest.raises(ValueError):
            p.cow_split(key, 5 * MIB)
        with pytest.raises(ValueError):
            p.cow_unsplit(key, 1)

    def test_resize_forbidden(self, memory):
        p = memory.spawn("a")
        key = memory.map_cow(p, "zygote/svc", 4 * MIB)
        with pytest.raises(ValueError, match="fixed snapshot extent"):
            p.resize_segment(key, 8 * MIB)

    def test_extent_mismatch_rejected(self, memory):
        p1 = memory.spawn("a")
        p2 = memory.spawn("b")
        memory.map_cow(p1, "zygote/svc", 4 * MIB)
        with pytest.raises(SimulationError):
            memory.map_cow(p2, "zygote/svc", 8 * MIB)

    def test_cow_segment_validation(self):
        with pytest.raises(ValueError):
            MemorySegment(SegmentKind.COW, 10)  # no file_key
        with pytest.raises(ValueError):
            MemorySegment(SegmentKind.COW, 10, file_key="z", cow_dirty=11)
        with pytest.raises(ValueError):
            MemorySegment(SegmentKind.PRIVATE, 10, cow_dirty=1)

    def test_audit_mode_cross_checks_cow(self):
        for mode in ("incremental", "reference", "audit"):
            m = SystemMemoryModel(total_bytes=8 * GIB, kernel_base=0, accounting=mode)
            p1 = m.spawn("a", cgroup="/pods/a")
            p2 = m.spawn("b", cgroup="/pods/b")
            m.map_cow(p1, "zygote/svc", 4 * MIB)
            k2 = m.map_cow(p2, "zygote/svc", 4 * MIB)
            p2.cow_split(k2, 1 * MIB)
            p2.cow_unsplit(k2, 512)
            m.exit(p1)
            m.verify_accounting()
            assert m.node_working_set() == 5 * MIB - 512
            assert m.cgroup_working_set("/pods/b") == 4 * MIB + 1 * MIB - 512


class TestAccountingModes:
    def _scenario(self, m: SystemMemoryModel) -> tuple:
        p1 = m.spawn("a", cgroup="/pods/a")
        p2 = m.spawn("b", cgroup="/pods/b")
        m.map_private(p1, 7 * MIB)
        m.map_file(p1, "lib.so", 4 * MIB)
        m.map_file(p2, "lib.so", 4 * MIB)
        m.map_cow(p2, "zygote/svc", 2 * MIB)
        m.touch_page_cache("layer", 9 * MIB)
        m.exit(p1)
        return (
            m.node_working_set(),
            m.free_report(),
            m.cgroup_working_set("/pods/a"),
            m.cgroup_working_set("/pods/b"),
        )

    def test_reference_and_audit_agree_with_incremental(self):
        answers = {
            mode: self._scenario(
                SystemMemoryModel(total_bytes=8 * GIB, kernel_base=0, accounting=mode)
            )
            for mode in ("incremental", "reference", "audit")
        }
        assert answers["incremental"] == answers["reference"] == answers["audit"]

    def test_audit_mode_detects_untracked_mutation(self):
        m = SystemMemoryModel(total_bytes=8 * GIB, kernel_base=0, accounting="audit")
        p = m.spawn("a")
        key = m.map_private(p, 4 * MIB)
        # Bypassing resize_segment desyncs the ledger; audit must catch it.
        p.segments[key].size = 5 * MIB
        with pytest.raises(SimulationError, match="drift"):
            m.node_working_set()

    def test_verify_accounting_passes_on_clean_model(self, memory):
        self._scenario(memory)
        memory.verify_accounting()

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError, match="accounting"):
            SystemMemoryModel(accounting="sloppy")

    def test_env_var_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_ACCOUNTING", "audit")
        assert SystemMemoryModel().accounting == "audit"


class TestBatchedCgroupWorkingSets:
    def test_batch_matches_individual_queries(self, memory):
        p1 = memory.spawn("a", cgroup="/kubepods/pod1")
        p2 = memory.spawn("b", cgroup="/kubepods/pod2")
        p3 = memory.spawn("c", cgroup="/system/daemon")
        memory.map_private(p1, 1 * MIB)
        memory.map_private(p2, 2 * MIB)
        memory.map_private(p3, 4 * MIB)
        memory.map_file(p1, "lib.so", 8 * MIB)
        # Overlapping prefixes must double-count exactly like single queries.
        prefixes = ["/kubepods", "/kubepods/pod1", "/kubepods/pod2", "/system", "/none"]
        batch = memory.cgroup_working_sets(prefixes)
        assert batch == {
            p: memory.cgroup_working_set(p) for p in prefixes
        }
        assert batch["/kubepods"] == 11 * MIB
        assert batch["/none"] == 0
