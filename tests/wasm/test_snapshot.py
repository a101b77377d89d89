"""Differential suite: a restored zygote instance is observably identical
to a fresh instantiation.

Covers the snapshot API directly (capture → restore structural equality),
the ``run_wasi`` warm-start path (cold vs capture vs restore three-way,
fuel metering including the exhaustion boundary, pure and impure start
sections, both interpreters, a full-WASI microservice run), the
entrypoint-kind bugfix, and hypothesis-generated random programs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engines.cache import reset_caches, zygote_get
from repro.errors import ExhaustionError, WasmError
from repro.wasm import assemble_wat, parse_wat, validate_module
from repro.wasm.embed import run_wasi
from repro.wasm.runtime import (
    Interpreter,
    ReferenceInterpreter,
    Store,
    capture_snapshot,
    instantiate,
    restore_instance,
)
from repro.workloads.microservice import READY_LINE, build_microservice_wasm

INTERPS = (Interpreter, ReferenceInterpreter)


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_caches()
    yield
    reset_caches()


def _observe(r):
    """The observable surface of one run (instance/store excluded)."""
    return (r.exit_code, r.stdout, r.stderr, r.instructions, r.memory_bytes)


# A WASI program with initialized memory, a mutable global, and a table —
# every snapshot-able entity class in one module.
STATEFUL_WAT = r"""
(module
  (import "wasi_snapshot_preview1" "fd_write"
    (func $fd_write (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (data (i32.const 64) "snapshot!\n")
  (global $g (mut i32) (i32.const 41))
  (table 2 funcref)
  (elem (i32.const 0) $bump $bump)
  (func $bump (result i32)
    (global.set $g (i32.add (global.get $g) (i32.const 1)))
    (global.get $g))
  (func (export "_start")
    (drop (call_indirect (result i32) (i32.const 0)))
    (i32.store (i32.const 16) (i32.const 64))
    (i32.store (i32.const 20) (i32.const 10))
    (drop (call $fd_write (i32.const 1) (i32.const 16) (i32.const 1) (i32.const 32)))))
"""


class TestSnapshotApi:
    def test_capture_restore_structural_equality(self):
        module = validate_module(parse_wat(STATEFUL_WAT))
        store = Store()
        inst = instantiate(store, module, imports=_host(store, module))
        snap = capture_snapshot(store, inst, digest="d1")
        assert snap is not None
        assert snap.memory_bytes == 65536

        store2 = Store()
        clone = restore_instance(store2, snap, imports=_host(store2, module))
        assert set(clone.exports) == set(inst.exports)
        assert [k for k, _ in clone.exports.values()] == [
            k for k, _ in inst.exports.values()
        ]
        # Linear memory byte-for-byte, globals, table entries (compared as
        # module-local indices — store addresses differ by construction).
        assert bytes(store2.mems[clone.mem_addrs[0]].data) == bytes(
            store.mems[inst.mem_addrs[0]].data
        )
        assert [store2.globals[a].value for a in clone.global_addrs] == [
            store.globals[a].value for a in inst.global_addrs
        ]
        t1 = store.tables[inst.table_addrs[0]].elements
        t2 = store2.tables[clone.table_addrs[0]].elements
        assert [inst.func_addrs.index(a) for a in t1] == [
            clone.func_addrs.index(a) for a in t2
        ]

    def test_restored_instance_runs_like_fresh(self):
        from repro.wasm.wasi import WasiEnv

        module = validate_module(parse_wat(STATEFUL_WAT))

        def boot(make_instance):
            store = Store()
            wasi = WasiEnv(args=("t",))
            host = wasi.register(store, module)
            inst = make_instance(store, host.import_map())
            wasi.attach_memory(store.mems[inst.mem_addrs[0]])
            interp = Interpreter(store)
            interp.invoke(inst.exports["_start"][1])
            return (
                interp.instructions_executed,
                bytes(wasi.stdout),
                bytes(store.mems[inst.mem_addrs[0]].data),
            )

        snap = {}

        def fresh(store, imports):
            inst = instantiate(store, module, imports=imports)
            snap["s"] = capture_snapshot(store, inst)
            return inst

        fresh_obs = boot(fresh)
        clone_obs = boot(lambda store, imports: restore_instance(store, snap["s"], imports))
        assert clone_obs == fresh_obs


def _host(store, module):
    """WASI host imports of ``module`` for the direct-API tests."""
    from repro.wasm.wasi import WasiEnv

    wasi = WasiEnv(args=("t",))
    return wasi.register(store, module).import_map()


# -- run_wasi three-way: cold vs capture vs restore ---------------------------

OUTPUT_WAT = r"""
(module
  (import "wasi_snapshot_preview1" "fd_write"
    (func $fd_write (param i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "proc_exit"
    (func $proc_exit (param i32)))
  (memory (export "memory") 1)
  (data (i32.const 4096) "hello zygote\n")
  (global $acc (mut i32) (i32.const 0))
  (func $work (param $n i32)
    (local $i i32)
    (block $out
      (loop $top
        (br_if $out (i32.ge_u (local.get $i) (local.get $n)))
        (global.set $acc (i32.add (global.get $acc) (local.get $i)))
        (i32.store (i32.mul (local.get $i) (i32.const 4)) (global.get $acc))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $top))))
  (func (export "_start")
    (call $work (i32.const 50))
    (i32.store (i32.const 1024) (i32.const 4096))
    (i32.store (i32.const 1028) (i32.const 13))
    (drop (call $fd_write (i32.const 1) (i32.const 1024) (i32.const 1) (i32.const 1032)))
    (call $proc_exit (i32.const 7))))
"""


class TestRunWasiDifferential:
    def test_three_way_identical(self):
        blob = assemble_wat(OUTPUT_WAT)
        cold = run_wasi(blob, zygote=False)
        captured = run_wasi(blob)  # first zygote run: instantiates + captures
        restored = run_wasi(blob)  # second: clones the snapshot

        assert not cold.restored and not captured.restored
        assert restored.restored
        assert restored.zygote_digest is not None
        assert _observe(cold) == _observe(captured) == _observe(restored)
        assert cold.exit_code == 7
        assert cold.stdout == b"hello zygote\n"

    def test_repeat_restores_stay_identical(self):
        blob = assemble_wat(OUTPUT_WAT)
        first = run_wasi(blob)
        for _ in range(3):
            again = run_wasi(blob)
            assert again.restored
            assert _observe(again) == _observe(first)

    def test_zygote_off_never_restores(self):
        blob = assemble_wat(OUTPUT_WAT)
        r1 = run_wasi(blob, zygote=False)
        r2 = run_wasi(blob, zygote=False)
        assert not r1.restored and not r2.restored
        assert r1.zygote_digest is None
        assert _observe(r1) == _observe(r2)

    @pytest.mark.parametrize("cls", INTERPS)
    def test_both_interpreters(self, cls):
        blob = assemble_wat(OUTPUT_WAT)
        cold = run_wasi(blob, zygote=False, interpreter_cls=cls)
        run_wasi(blob, interpreter_cls=cls)
        restored = run_wasi(blob, interpreter_cls=cls)
        assert restored.restored
        assert _observe(restored) == _observe(cold)

    def test_fuel_sweep_matches_cold(self):
        blob = assemble_wat(OUTPUT_WAT)
        run_wasi(blob)  # capture once
        baseline = run_wasi(blob, zygote=False).instructions
        for fuel in (0, 1, baseline - 1, baseline, baseline + 1, 10 * baseline):
            cold_exc = restored_exc = None
            try:
                cold = run_wasi(blob, zygote=False, fuel=fuel)
            except ExhaustionError as e:
                cold_exc = str(e)
            try:
                restored = run_wasi(blob, fuel=fuel)
            except ExhaustionError as e:
                restored_exc = str(e)
            assert cold_exc == restored_exc, f"fuel={fuel}"
            if cold_exc is None:
                assert restored.restored
                assert _observe(restored) == _observe(cold), f"fuel={fuel}"


# -- start sections: pure state-building vs host side effects ------------------

PURE_START_WAT = r"""
(module
  (import "wasi_snapshot_preview1" "fd_write"
    (func $fd_write (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (global $init (mut i32) (i32.const 0))
  (func $prelude
    (local $i i32)
    (block $out
      (loop $top
        (br_if $out (i32.ge_u (local.get $i) (i32.const 200)))
        (i32.store (i32.mul (local.get $i) (i32.const 4)) (local.get $i))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $top)))
    (global.set $init (i32.const 1)))
  (start $prelude)
  (func (export "_start")
    (i32.store (i32.const 2048) (global.get $init))))
"""

IMPURE_START_WAT = r"""
(module
  (import "wasi_snapshot_preview1" "fd_write"
    (func $fd_write (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (data (i32.const 64) "booting\n")
  (func $announce
    (i32.store (i32.const 16) (i32.const 64))
    (i32.store (i32.const 20) (i32.const 8))
    (drop (call $fd_write (i32.const 1) (i32.const 16) (i32.const 1) (i32.const 32))))
  (start $announce)
  (func (export "_start")
    (i32.store (i32.const 2048) (i32.const 99))))
"""


class TestStartSections:
    def test_pure_start_snapshotted_post_start(self):
        blob = assemble_wat(PURE_START_WAT)
        captured = run_wasi(blob)
        snap = zygote_get(captured.zygote_digest)
        assert snap is not None
        assert not snap.start_rerun
        assert snap.start_instructions > 0
        # The restored run skips the start but is metered as if it ran.
        cold = run_wasi(blob, zygote=False)
        restored = run_wasi(blob)
        assert restored.restored
        assert _observe(restored) == _observe(cold) == _observe(captured)

    def test_pure_start_fuel_exhaustion_boundary(self):
        blob = assemble_wat(PURE_START_WAT)
        run_wasi(blob)  # capture
        total = run_wasi(blob, zygote=False).instructions
        for fuel in (0, 1, total - 1, total):
            cold_exc = restored_exc = None
            try:
                run_wasi(blob, zygote=False, fuel=fuel)
            except ExhaustionError as e:
                cold_exc = str(e)
            try:
                run_wasi(blob, fuel=fuel)
            except ExhaustionError as e:
                restored_exc = str(e)
            assert cold_exc == restored_exc, f"fuel={fuel}"

    def test_impure_start_reruns_and_reproduces_output(self):
        blob = assemble_wat(IMPURE_START_WAT)
        captured = run_wasi(blob)
        snap = zygote_get(captured.zygote_digest)
        assert snap is not None
        assert snap.start_rerun  # fd_write during start → pre-start snapshot
        cold = run_wasi(blob, zygote=False)
        restored = run_wasi(blob)
        assert restored.restored
        assert cold.stdout == b"booting\n"
        assert _observe(restored) == _observe(cold) == _observe(captured)


# -- entrypoint-kind bugfix ---------------------------------------------------

MEM_ENTRY_WAT = r"""
(module
  (memory (export "_start") 1)
  (func $noop))
"""

MEM_ENTRY_WITH_START_WAT = r"""
(module
  (memory (export "_start") 1)
  (func $init (i32.store (i32.const 0) (i32.const 1)))
  (start $init))
"""


class TestEntrypointKind:
    def test_non_func_export_raises(self):
        with pytest.raises(WasmError, match="is a mem, not a function"):
            run_wasi(assemble_wat(MEM_ENTRY_WAT))

    def test_non_func_export_raises_even_with_start_section(self):
        # Previously silently "ran" as an empty program when a start
        # section was present; now a clear error either way.
        with pytest.raises(WasmError, match="is a mem, not a function"):
            run_wasi(assemble_wat(MEM_ENTRY_WITH_START_WAT))

    def test_missing_entrypoint_still_raises(self):
        blob = assemble_wat("(module (func $f))")
        with pytest.raises(WasmError, match="no '_start' export"):
            run_wasi(blob)


# -- full-WASI microservice ---------------------------------------------------

class TestMicroserviceZygote:
    @pytest.mark.parametrize("cls", INTERPS)
    def test_full_wasi_run_restores_identically(self, cls):
        blob = build_microservice_wasm()
        kwargs = dict(
            args=("svc", "--replica", "3"),
            env={"REQUESTS": "2", "REGION": "eu"},
            interpreter_cls=cls,
        )
        cold = run_wasi(blob, zygote=False, **kwargs)
        run_wasi(blob, **kwargs)  # capture
        restored = run_wasi(blob, **kwargs)
        assert restored.restored
        assert READY_LINE in cold.stdout
        assert _observe(restored) == _observe(cold)

    def test_restore_sees_fresh_argv_and_env(self):
        # argv/environ are host-world state: a clone launched with
        # different arguments must observe *its* arguments, not the
        # capturing run's.
        blob = build_microservice_wasm()
        run_wasi(blob, args=("svc", "first"), env={"REQUESTS": "1"})
        restored = run_wasi(blob, args=("svc", "second"), env={"REQUESTS": "3"})
        cold = run_wasi(
            blob, args=("svc", "second"), env={"REQUESTS": "3"}, zygote=False
        )
        assert restored.restored
        assert _observe(restored) == _observe(cold)


# -- hypothesis: random programs --------------------------------------------

_FOLD_OPS = ("i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor")


def _random_wasi_prog(ops, n, seed):
    """A `_start` program folding random (op, constant) pairs over a loop,
    touching memory, then printing the 4-byte accumulator to stdout."""
    folds = "\n".join(
        f"(local.set $acc ({op} (local.get $acc) (i32.const {k})))"
        for op, k in ops
    )
    return f"""
    (module
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (memory (export "memory") 1)
      (func (export "_start")
        (local $acc i32) (local $i i32)
        (local.set $acc (i32.const {seed}))
        (block $out
          (loop $top
            (br_if $out (i32.ge_u (local.get $i) (i32.const {n})))
            {folds}
            (i32.store (i32.and (local.get $acc) (i32.const 0xfffc))
                       (i32.add (local.get $acc) (local.get $i)))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br $top)))
        (i32.store (i32.const 8192) (local.get $acc))
        (i32.store (i32.const 16) (i32.const 8192))
        (i32.store (i32.const 20) (i32.const 4))
        (drop (call $fd_write (i32.const 1) (i32.const 16) (i32.const 1) (i32.const 32)))))
    """


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_FOLD_OPS), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_programs_restore_identically(ops, n, seed):
    reset_caches()
    blob = assemble_wat(_random_wasi_prog(ops, n, seed))
    cold = run_wasi(blob, zygote=False)
    captured = run_wasi(blob)
    restored = run_wasi(blob)
    assert restored.restored
    assert _observe(cold) == _observe(captured) == _observe(restored)
    assert restored.dirty_memory_bytes == captured.dirty_memory_bytes


# -- dirty-page scan against a page-by-page reference -------------------------

DIRTY_WAT = r"""
(module
  (memory (export "memory") 1 4)
  (data (i32.const 100) "zygote image"))
"""


def _dirty_reference(snap_data, live, page):
    """Byte by byte within the common extent, a page counted once if any
    byte differs; every byte past the snapshot's extent is dirty."""
    common = min(len(snap_data), len(live))
    dirty = 0
    for off in range(0, common, page):
        end = min(off + page, common)
        if any(live[i] != snap_data[i] for i in range(off, end)):
            dirty += end - off
    return dirty + max(0, len(live) - len(snap_data))


@settings(max_examples=30, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 4 * 65536 - 1), st.integers(0, 255)),
        max_size=6,
    ),
    grow=st.integers(0, 3),
    page=st.sampled_from([4096, 3000, 65536, 100_000]),
)
def test_dirty_bytes_match_page_reference(writes, grow, page):
    from repro.wasm.runtime import dirty_memory_bytes

    module = validate_module(parse_wat(DIRTY_WAT))
    store = Store()
    inst = instantiate(store, module, imports={})
    snap = capture_snapshot(store, inst, digest="dirty")
    mem = store.mems[inst.mem_addrs[0]]
    assert mem.grow(grow) == 1
    for addr, value in writes:
        if addr < len(mem.data):
            mem.data[addr] = value
    (_, snap_data), = snap.memories
    expected = _dirty_reference(snap_data, mem.data, page)
    assert dirty_memory_bytes(snap, store, inst, page=page) == expected
