"""WASI preview1 host functions + in-memory filesystem."""

import pytest

from repro import obs
from repro.engines.cache import reset_caches
from repro.errors import LinkError
from repro.wasm import assemble_wat
from repro.wasm.decoder import decode_module
from repro.wasm.embed import run_wasi
from repro.wasm.runtime import Store
from repro.wasm.wasi import WasiEnv
from repro.wasm.wasi.fs import InMemoryFilesystem
from repro.workloads.microservice import build_microservice_wasm


# A tiny WASI program template: imports, 1-page memory, _start body.
def wasi_prog(body: str, extra_imports: str = "") -> bytes:
    return assemble_wat(
        f"""
        (module
          (import "wasi_snapshot_preview1" "fd_write"
            (func $fd_write (param i32 i32 i32 i32) (result i32)))
          (import "wasi_snapshot_preview1" "fd_read"
            (func $fd_read (param i32 i32 i32 i32) (result i32)))
          (import "wasi_snapshot_preview1" "args_sizes_get"
            (func $args_sizes_get (param i32 i32) (result i32)))
          (import "wasi_snapshot_preview1" "args_get"
            (func $args_get (param i32 i32) (result i32)))
          (import "wasi_snapshot_preview1" "environ_sizes_get"
            (func $environ_sizes_get (param i32 i32) (result i32)))
          (import "wasi_snapshot_preview1" "environ_get"
            (func $environ_get (param i32 i32) (result i32)))
          (import "wasi_snapshot_preview1" "clock_time_get"
            (func $clock_time_get (param i32 i64 i32) (result i32)))
          (import "wasi_snapshot_preview1" "random_get"
            (func $random_get (param i32 i32) (result i32)))
          (import "wasi_snapshot_preview1" "path_open"
            (func $path_open (param i32 i32 i32 i32 i32 i64 i64 i32 i32) (result i32)))
          (import "wasi_snapshot_preview1" "fd_close"
            (func $fd_close (param i32) (result i32)))
          (import "wasi_snapshot_preview1" "fd_seek"
            (func $fd_seek (param i32 i64 i32 i32) (result i32)))
          (import "wasi_snapshot_preview1" "proc_exit"
            (func $proc_exit (param i32)))
          {extra_imports}
          (memory (export "memory") 1)
          (func $write_str (param $fd i32) (param $ptr i32) (param $len i32)
            (i32.store (i32.const 0) (local.get $ptr))
            (i32.store (i32.const 4) (local.get $len))
            (drop (call $fd_write (local.get $fd) (i32.const 0) (i32.const 1) (i32.const 8))))
          (func (export "_start")
            {body}))
        """
    )


class TestStdio:
    def test_stdout_capture(self):
        blob = wasi_prog(
            """
            (i32.store8 (i32.const 100) (i32.const 104)) ;; h
            (i32.store8 (i32.const 101) (i32.const 105)) ;; i
            (call $write_str (i32.const 1) (i32.const 100) (i32.const 2))
            """
        )
        result = run_wasi(blob)
        assert result.stdout == b"hi"
        assert result.exit_code == 0

    def test_stderr_capture(self):
        blob = wasi_prog(
            """
            (i32.store8 (i32.const 100) (i32.const 69)) ;; E
            (call $write_str (i32.const 2) (i32.const 100) (i32.const 1))
            """
        )
        assert run_wasi(blob).stderr == b"E"

    def test_multiple_iovecs(self):
        blob = wasi_prog(
            """
            (i32.store8 (i32.const 100) (i32.const 97))
            (i32.store8 (i32.const 110) (i32.const 98))
            ;; iovec[2] at 0: (100,1) and (110,1)
            (i32.store (i32.const 0) (i32.const 100))
            (i32.store (i32.const 4) (i32.const 1))
            (i32.store (i32.const 8) (i32.const 110))
            (i32.store (i32.const 12) (i32.const 1))
            (drop (call $fd_write (i32.const 1) (i32.const 0) (i32.const 2) (i32.const 16)))
            """
        )
        assert run_wasi(blob).stdout == b"ab"

    def test_stdin_read(self):
        blob = wasi_prog(
            """
            ;; read up to 8 bytes from fd0 into 200, echo to stdout
            (i32.store (i32.const 0) (i32.const 200))
            (i32.store (i32.const 4) (i32.const 8))
            (drop (call $fd_read (i32.const 0) (i32.const 0) (i32.const 1) (i32.const 16)))
            (call $write_str (i32.const 1) (i32.const 200) (i32.load (i32.const 16)))
            """
        )
        assert run_wasi(blob, stdin=b"hello").stdout == b"hello"

    def test_write_to_stdin_denied(self):
        blob = wasi_prog(
            """
            (i32.store (i32.const 0) (i32.const 200))
            (i32.store (i32.const 4) (i32.const 1))
            ;; fd_write on stdin returns EACCES (2); store errno at 300
            (i32.store (i32.const 300)
              (call $fd_write (i32.const 0) (i32.const 0) (i32.const 1) (i32.const 16)))
            (call $proc_exit (i32.load (i32.const 300)))
            """
        )
        assert run_wasi(blob).exit_code == 2  # EACCES

    def test_bad_fd(self):
        blob = wasi_prog(
            """
            (i32.store (i32.const 0) (i32.const 200))
            (i32.store (i32.const 4) (i32.const 1))
            (call $proc_exit
              (call $fd_write (i32.const 99) (i32.const 0) (i32.const 1) (i32.const 16)))
            """
        )
        assert run_wasi(blob).exit_code == 8  # EBADF


class TestArgsEnviron:
    def test_args_roundtrip(self):
        blob = wasi_prog(
            """
            ;; sizes at 0/4, ptrs at 64, buf at 256
            (drop (call $args_sizes_get (i32.const 0) (i32.const 4)))
            (drop (call $args_get (i32.const 64) (i32.const 256)))
            ;; write the whole arg buffer to stdout
            (call $write_str (i32.const 1) (i32.const 256) (i32.load (i32.const 4)))
            """
        )
        result = run_wasi(blob, args=["prog", "--flag", "x"])
        assert result.stdout == b"prog\x00--flag\x00x\x00"

    def test_environ_roundtrip(self):
        blob = wasi_prog(
            """
            (drop (call $environ_sizes_get (i32.const 0) (i32.const 4)))
            (drop (call $environ_get (i32.const 64) (i32.const 256)))
            (call $write_str (i32.const 1) (i32.const 256) (i32.load (i32.const 4)))
            """
        )
        result = run_wasi(blob, env={"A": "1", "B": "two"})
        assert result.stdout == b"A=1\x00B=two\x00"

    def test_empty_args(self):
        blob = wasi_prog(
            """
            (drop (call $args_sizes_get (i32.const 0) (i32.const 4)))
            (call $proc_exit (i32.load (i32.const 0)))
            """
        )
        assert run_wasi(blob, args=[]).exit_code == 0


class TestClocksRandom:
    def test_clock_time_injected(self):
        blob = wasi_prog(
            """
            (drop (call $clock_time_get (i32.const 1) (i64.const 0) (i32.const 0)))
            (call $proc_exit (i32.wrap_i64 (i64.load (i32.const 0))))
            """
        )
        result = run_wasi(blob, clock_ns=lambda: 77)
        assert result.exit_code == 77

    def test_bad_clock_id(self):
        blob = wasi_prog(
            """
            (call $proc_exit (call $clock_time_get (i32.const 9) (i64.const 0) (i32.const 0)))
            """
        )
        assert run_wasi(blob).exit_code == 28  # EINVAL

    def test_random_get_deterministic_default(self):
        blob = wasi_prog(
            """
            (drop (call $random_get (i32.const 0) (i32.const 4)))
            (call $proc_exit (i32.load (i32.const 0)))
            """
        )
        assert run_wasi(blob).exit_code == 0  # default RNG = zeros


class TestFilesystem:
    def test_fs_tree_operations(self):
        fs = InMemoryFilesystem()
        fs.mkdir("/data/sub")
        fs.write_file("/data/sub/file.txt", b"content")
        assert fs.read_file("/data/sub/file.txt") == b"content"
        assert fs.lookup("/data/sub").is_dir
        assert fs.lookup("/missing") is None
        with pytest.raises(FileNotFoundError):
            fs.read_file("/nope")

    def test_resolve_relative(self):
        fs = InMemoryFilesystem()
        fs.write_file("/data/a/b.txt", b"x")
        base = fs.lookup("/data")
        node, err = fs.resolve(base, "a/b.txt")
        assert err == "" and node.data == bytearray(b"x")

    def test_resolve_dotdot_containment(self):
        fs = InMemoryFilesystem()
        fs.mkdir("/data")
        base = fs.lookup("/data")
        node, err = fs.resolve(base, "../etc/passwd")
        assert node is None and err == "escape"

    def test_resolve_dot_and_inner_dotdot(self):
        fs = InMemoryFilesystem()
        fs.write_file("/data/x/f.txt", b"1")
        base = fs.lookup("/data")
        node, err = fs.resolve(base, "./x/../x/f.txt")
        assert err == "" and node.data == bytearray(b"1")

    def test_path_open_read(self):
        fs = InMemoryFilesystem()
        fs.write_file("/work/greeting.txt", b"hey!")
        blob = wasi_prog(
            """
            ;; path string "greeting.txt" at 400
            (i64.store (i32.const 400) (i64.const 0x697465657267))   ;; "greeti" LE... built below
            """
        )
        # Easier: write the path via data segment in a standalone program.
        blob = assemble_wat(
            """
            (module
              (import "wasi_snapshot_preview1" "path_open"
                (func $path_open (param i32 i32 i32 i32 i32 i64 i64 i32 i32) (result i32)))
              (import "wasi_snapshot_preview1" "fd_read"
                (func $fd_read (param i32 i32 i32 i32) (result i32)))
              (import "wasi_snapshot_preview1" "fd_write"
                (func $fd_write (param i32 i32 i32 i32) (result i32)))
              (import "wasi_snapshot_preview1" "proc_exit"
                (func $proc_exit (param i32)))
              (memory (export "memory") 1)
              (data (i32.const 400) "greeting.txt")
              (func (export "_start")
                ;; open preopen fd 3, path at 400 len 12 -> fd at 32
                (drop (call $path_open (i32.const 3) (i32.const 0)
                  (i32.const 400) (i32.const 12) (i32.const 0)
                  (i64.const -1) (i64.const -1) (i32.const 0) (i32.const 32)))
                ;; read 4 bytes into 500
                (i32.store (i32.const 0) (i32.const 500))
                (i32.store (i32.const 4) (i32.const 4))
                (drop (call $fd_read (i32.load (i32.const 32)) (i32.const 0) (i32.const 1) (i32.const 16)))
                ;; echo
                (i32.store (i32.const 0) (i32.const 500))
                (i32.store (i32.const 4) (i32.load (i32.const 16)))
                (drop (call $fd_write (i32.const 1) (i32.const 0) (i32.const 1) (i32.const 16)))
                (call $proc_exit (i32.const 0))))
            """
        )
        result = run_wasi(blob, preopens={"/work": "/work"}, fs=fs)
        assert result.stdout == b"hey!"

    def test_path_open_missing_file(self):
        blob = assemble_wat(
            """
            (module
              (import "wasi_snapshot_preview1" "path_open"
                (func $path_open (param i32 i32 i32 i32 i32 i64 i64 i32 i32) (result i32)))
              (import "wasi_snapshot_preview1" "proc_exit"
                (func $proc_exit (param i32)))
              (memory 1)
              (data (i32.const 400) "nope.txt")
              (func (export "_start")
                (call $proc_exit (call $path_open (i32.const 3) (i32.const 0)
                  (i32.const 400) (i32.const 8) (i32.const 0)
                  (i64.const -1) (i64.const -1) (i32.const 0) (i32.const 32)))))
            """
        )
        result = run_wasi(blob, preopens={"/work": "/work"})
        assert result.exit_code == 44  # ENOENT


class TestProcExit:
    def test_exit_code_propagates(self):
        blob = wasi_prog("(call $proc_exit (i32.const 17))")
        assert run_wasi(blob).exit_code == 17

    def test_normal_return_is_zero(self):
        blob = wasi_prog("nop")
        assert run_wasi(blob).exit_code == 0

    def test_exit_stops_execution(self):
        blob = wasi_prog(
            """
            (call $proc_exit (i32.const 1))
            ;; never reached:
            (i32.store8 (i32.const 100) (i32.const 88))
            (call $write_str (i32.const 1) (i32.const 100) (i32.const 1))
            """
        )
        result = run_wasi(blob)
        assert result.exit_code == 1
        assert result.stdout == b""


class TestBinding:
    """``register`` binds only the preview1 functions a module imports."""

    def test_store_holds_exactly_the_declared_imports(self):
        module = decode_module(build_microservice_wasm())
        declared = [imp.name for imp in module.imports]
        store = Store()
        host = WasiEnv().register(store, module)
        assert len(declared) == 7
        assert list(host.externs()) == declared
        assert [f.name for f in store.funcs] == [
            f"wasi_snapshot_preview1.{name}" for name in declared
        ]
        assert all(f.is_host for f in store.funcs)

    def test_repeated_import_binds_once(self):
        module = decode_module(
            assemble_wat(
                """
                (module
                  (import "wasi_snapshot_preview1" "sched_yield"
                    (func $a (result i32)))
                  (import "wasi_snapshot_preview1" "sched_yield"
                    (func $b (result i32)))
                  (func (export "_start") (drop (call $a)) (drop (call $b))))
                """
            )
        )
        store = Store()
        WasiEnv().register(store, module)
        assert len(store.funcs) == 1
        assert run_wasi(module).exit_code == 0

    def test_unimplemented_import_is_unresolved(self):
        blob = wasi_prog(
            "nop",
            extra_imports="""
            (import "wasi_snapshot_preview1" "sock_accept"
              (func (param i32 i32 i32) (result i32)))
            """,
        )
        with pytest.raises(LinkError) as err:
            run_wasi(blob)
        assert str(err.value) == "unresolved import wasi_snapshot_preview1.sock_accept"

    def test_wrong_signature_is_a_mismatch(self):
        blob = assemble_wat(
            """
            (module
              (import "wasi_snapshot_preview1" "fd_write"
                (func (param i32 i32) (result i32)))
              (func (export "_start")))
            """
        )
        with pytest.raises(LinkError) as err:
            run_wasi(blob)
        assert str(err.value).startswith(
            "import wasi_snapshot_preview1.fd_write: signature mismatch"
        )

    def test_call_counts_of_a_microservice_run(self):
        """Three runs (cold, zygote capture, zygote restore): every bound
        function counts each call; the series are the 7 imports only."""
        was_enabled = obs.enabled()
        obs.set_enabled(True)
        obs.reset()
        reset_caches()
        try:
            for zygote in (False, True, True):
                run_wasi(
                    build_microservice_wasm(),
                    args=["svc"],
                    env={"REQUESTS": "3"},
                    zygote=zygote,
                )
            family = obs.default_registry().get("repro_wasi_calls_total")
            counts = {key[0]: child.value for key, child in family.samples()}
        finally:
            obs.reset()
            obs.set_enabled(was_enabled)
            reset_caches()
        assert counts == {
            "args_get": 3,
            "args_sizes_get": 3,
            "clock_time_get": 3,
            "environ_get": 3,
            "environ_sizes_get": 3,
            "fd_write": 12,
            "proc_exit": 3,
        }
