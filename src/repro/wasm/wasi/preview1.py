"""WASI ``wasi_snapshot_preview1`` host implementation.

:class:`WasiEnv` owns the guest-visible world: argv, environment, an fd
table over an :class:`~repro.wasm.wasi.fs.InMemoryFilesystem` with
preopened directories, capture buffers for stdout/stderr, a deterministic
clock, and a seeded RNG for ``random_get``. It registers the functions a
module imports on a :class:`~repro.wasm.runtime.host.HostModule` so the
module links against it.

All functions follow the preview1 ABI: scalar i32/i64 arguments, results
written through guest-memory pointers, errno returned as i32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import WasiExit, WasmTrap
from repro.sim import faults
from repro.wasm.ast import Module
from repro.wasm.runtime.host import HostModule, sig
from repro.wasm.runtime.store import MemoryInstance, Store
from repro.wasm.types import FuncType
from repro.wasm.wasi import errno as E
from repro.wasm.wasi.fs import FsNode, InMemoryFilesystem

MODULE_NAME = "wasi_snapshot_preview1"

#: every preview1 function the shim implements: import name -> signature
#: (each is the :class:`WasiEnv` method of the same name)
SIGNATURES: Dict[str, FuncType] = {
    "args_sizes_get": sig("ii", "i"),
    "args_get": sig("ii", "i"),
    "environ_sizes_get": sig("ii", "i"),
    "environ_get": sig("ii", "i"),
    "clock_time_get": sig("iIi", "i"),
    "clock_res_get": sig("ii", "i"),
    "fd_write": sig("iiii", "i"),
    "fd_read": sig("iiii", "i"),
    "fd_close": sig("i", "i"),
    "fd_seek": sig("iIii", "i"),
    "fd_fdstat_get": sig("ii", "i"),
    "fd_fdstat_set_flags": sig("ii", "i"),
    "fd_prestat_get": sig("ii", "i"),
    "fd_prestat_dir_name": sig("iii", "i"),
    "fd_filestat_get": sig("ii", "i"),
    "path_open": sig("iiiiiIIii", "i"),
    "path_filestat_get": sig("iiiii", "i"),
    "path_create_directory": sig("iii", "i"),
    "path_unlink_file": sig("iii", "i"),
    "path_remove_directory": sig("iii", "i"),
    "fd_tell": sig("ii", "i"),
    "fd_readdir": sig("iiiIi", "i"),
    "fd_sync": sig("i", "i"),
    "fd_datasync": sig("i", "i"),
    "random_get": sig("ii", "i"),
    "proc_exit": sig("i"),
    "sched_yield": sig("", "i"),
    "poll_oneoff": sig("iiii", "i"),
}


def calls_counter():
    """``repro_wasi_calls_total{func}``, or ``None`` with telemetry off."""
    if not obs.enabled():
        return None
    return obs.counter(
        "repro_wasi_calls_total",
        "WASI preview1 host calls, by import name",
        ("func",),
    )


@dataclass
class _FdEntry:
    """One open descriptor."""

    kind: str  # "stream" | "file" | "dir"
    node: Optional[FsNode] = None
    offset: int = 0
    preopen_path: Optional[str] = None
    write_sink: Optional[bytearray] = None  # streams (stdout/stderr)
    read_source: bytes = b""  # stdin contents
    readable: bool = True
    writable: bool = True


class WasiEnv:
    """Host state for one WASI instance (one container's guest world)."""

    def __init__(
        self,
        args: Sequence[str] = ("main.wasm",),
        env: Optional[Dict[str, str]] = None,
        preopens: Optional[Dict[str, str]] = None,
        fs: Optional[InMemoryFilesystem] = None,
        stdin: bytes = b"",
        clock_ns: Optional[Callable[[], int]] = None,
        random_bytes: Optional[Callable[[int], bytes]] = None,
    ) -> None:
        self.args = [str(a) for a in args]
        self.env = dict(env or {})
        self.fs = fs or InMemoryFilesystem()
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.exit_code: Optional[int] = None
        self._clock_ns = clock_ns or (lambda: 1_000_000)
        self._random = random_bytes or (lambda n: bytes(n))
        self.memory: Optional[MemoryInstance] = None

        self._fds: Dict[int, _FdEntry] = {
            0: _FdEntry(kind="stream", read_source=stdin, writable=False),
            1: _FdEntry(kind="stream", write_sink=self.stdout, readable=False),
            2: _FdEntry(kind="stream", write_sink=self.stderr, readable=False),
        }
        self._next_fd = 3
        # Per-direction byte counters for the eWAPA-style latency model
        # (``repro inspect --wasi``): data-moving hostcalls charge a
        # per-byte cost on top of the per-call base.
        if obs.enabled():
            bytes_total = obs.counter(
                "repro_wasi_bytes_total",
                "bytes moved through WASI data-path host calls",
                ("func", "direction"),
            )
            self._m_write_bytes = bytes_total.labels("fd_write", "out")
            self._m_read_bytes = bytes_total.labels("fd_read", "in")
        else:
            self._m_write_bytes = obs.NULL_METRIC
            self._m_read_bytes = obs.NULL_METRIC
        # Preopens: guest path -> host fs path, in fd order starting at 3.
        for guest_path, host_path in (preopens or {}).items():
            node = self.fs.mkdir(host_path)
            self._fds[self._next_fd] = _FdEntry(
                kind="dir", node=node, preopen_path=guest_path
            )
            self._next_fd += 1

    # -- wiring ------------------------------------------------------------

    @property
    def byte_counters(self) -> Tuple:
        """The ``repro_wasi_bytes_total`` series this env's calls increment."""
        return (self._m_write_bytes, self._m_read_bytes)

    def attach_memory(self, memory: MemoryInstance) -> None:
        self.memory = memory

    def register(self, store: Store, module: Module) -> HostModule:
        """Bind the ``wasi_snapshot_preview1`` functions ``module`` imports.

        Only imported names the shim implements (:data:`SIGNATURES`) are
        allocated in ``store``, once each. An imported name it does not
        implement stays unbound, so linking fails with an unresolved-import
        :class:`~repro.errors.LinkError`. With telemetry on, every bound
        function counts its calls in ``repro_wasi_calls_total{func}``.

        Under an ambient fault scope arming ``wasi.syscall``, every bound
        function is wrapped with a per-call injection check: a fire
        raises :class:`~repro.errors.FaultInjected` out of the guest —
        a pod-visible crash routed through the kubelet's restart-policy
        machinery, never a stray Python exception. Registration happens
        inside the container's fault scope, so the wrapper only exists
        for chaos runs; the disabled path registers the bare functions.
        """
        hm = HostModule(store, MODULE_NAME)
        wrap_fault = None
        ctx = faults.ambient()
        if ctx is not None and ctx[0].arms_any((faults.FaultPoint.WASI_SYSCALL,)):
            plan, pod_key = ctx

            def wrap_fault(fn, _plan=plan, _key=pod_key):
                def checked(*args, _fn=fn):
                    _plan.raise_if_fires(faults.FaultPoint.WASI_SYSCALL, _key)
                    return _fn(*args)

                return checked

        calls = calls_counter()
        names = dict.fromkeys(
            imp.name
            for imp in module.imports
            if imp.module == MODULE_NAME and imp.name in SIGNATURES
        )
        for name in names:
            fn = getattr(self, name)
            if wrap_fault is not None:
                fn = wrap_fault(fn)
            if calls is not None:

                def counted(*args, _fn=fn, _child=calls.labels(name)):
                    _child.inc()
                    return _fn(*args)

                fn = counted
            hm.func(name, SIGNATURES[name], fn)
        return hm

    # -- memory helpers --------------------------------------------------------

    def _mem(self) -> MemoryInstance:
        if self.memory is None:
            raise WasmTrap("WASI host has no attached memory")
        return self.memory

    # -- args / environ -----------------------------------------------------------

    def _encoded_args(self) -> List[bytes]:
        return [a.encode("utf-8") + b"\x00" for a in self.args]

    def _encoded_env(self) -> List[bytes]:
        return [f"{k}={v}".encode("utf-8") + b"\x00" for k, v in self.env.items()]

    def args_sizes_get(self, argc_ptr: int, argv_buf_size_ptr: int) -> List[int]:
        mem = self._mem()
        blobs = self._encoded_args()
        mem.write_u32(argc_ptr, len(blobs))
        mem.write_u32(argv_buf_size_ptr, sum(len(b) for b in blobs))
        return [E.SUCCESS]

    def args_get(self, argv_ptr: int, argv_buf_ptr: int) -> List[int]:
        mem = self._mem()
        offset = argv_buf_ptr
        for i, blob in enumerate(self._encoded_args()):
            mem.write_u32(argv_ptr + 4 * i, offset)
            mem.write(offset, blob)
            offset += len(blob)
        return [E.SUCCESS]

    def environ_sizes_get(self, count_ptr: int, buf_size_ptr: int) -> List[int]:
        mem = self._mem()
        blobs = self._encoded_env()
        mem.write_u32(count_ptr, len(blobs))
        mem.write_u32(buf_size_ptr, sum(len(b) for b in blobs))
        return [E.SUCCESS]

    def environ_get(self, environ_ptr: int, buf_ptr: int) -> List[int]:
        mem = self._mem()
        offset = buf_ptr
        for i, blob in enumerate(self._encoded_env()):
            mem.write_u32(environ_ptr + 4 * i, offset)
            mem.write(offset, blob)
            offset += len(blob)
        return [E.SUCCESS]

    # -- clocks / random ---------------------------------------------------------------

    def clock_time_get(self, clock_id: int, _precision: int, time_ptr: int) -> List[int]:
        if clock_id not in (E.CLOCK_REALTIME, E.CLOCK_MONOTONIC):
            return [E.EINVAL]
        self._mem().write_u64(time_ptr, self._clock_ns())
        return [E.SUCCESS]

    def clock_res_get(self, clock_id: int, res_ptr: int) -> List[int]:
        if clock_id not in (E.CLOCK_REALTIME, E.CLOCK_MONOTONIC):
            return [E.EINVAL]
        self._mem().write_u64(res_ptr, 1_000)
        return [E.SUCCESS]

    def random_get(self, buf_ptr: int, buf_len: int) -> List[int]:
        self._mem().write(buf_ptr, self._random(buf_len))
        return [E.SUCCESS]

    def sched_yield(self) -> List[int]:
        return [E.SUCCESS]

    # -- descriptors --------------------------------------------------------------------

    def _fd(self, fd: int) -> Optional[_FdEntry]:
        return self._fds.get(fd)

    def fd_write(self, fd: int, iovs_ptr: int, iovs_len: int, nwritten_ptr: int) -> List[int]:
        mem = self._mem()
        entry = self._fd(fd)
        if entry is None:
            return [E.EBADF]
        if not entry.writable:
            return [E.EACCES]
        written = 0
        for i in range(iovs_len):
            base = mem.read_u32(iovs_ptr + 8 * i)
            length = mem.read_u32(iovs_ptr + 8 * i + 4)
            chunk = mem.read(base, length)
            if entry.kind == "stream":
                assert entry.write_sink is not None
                entry.write_sink += chunk
            elif entry.kind == "file":
                assert entry.node is not None
                end = entry.offset + len(chunk)
                if end > len(entry.node.data):
                    entry.node.data.extend(bytes(end - len(entry.node.data)))
                entry.node.data[entry.offset : end] = chunk
                entry.offset = end
            else:
                return [E.EISDIR]
            written += len(chunk)
        if written:
            self._m_write_bytes.inc(written)
        mem.write_u32(nwritten_ptr, written)
        return [E.SUCCESS]

    def fd_read(self, fd: int, iovs_ptr: int, iovs_len: int, nread_ptr: int) -> List[int]:
        mem = self._mem()
        entry = self._fd(fd)
        if entry is None:
            return [E.EBADF]
        if not entry.readable:
            return [E.EACCES]
        total = 0
        for i in range(iovs_len):
            base = mem.read_u32(iovs_ptr + 8 * i)
            length = mem.read_u32(iovs_ptr + 8 * i + 4)
            if entry.kind == "stream":
                chunk = entry.read_source[entry.offset : entry.offset + length]
            elif entry.kind == "file":
                assert entry.node is not None
                chunk = bytes(entry.node.data[entry.offset : entry.offset + length])
            else:
                return [E.EISDIR]
            entry.offset += len(chunk)
            mem.write(base, chunk)
            total += len(chunk)
            if len(chunk) < length:
                break
        if total:
            self._m_read_bytes.inc(total)
        mem.write_u32(nread_ptr, total)
        return [E.SUCCESS]

    def fd_close(self, fd: int) -> List[int]:
        if fd in (0, 1, 2):
            return [E.SUCCESS]
        if self._fds.pop(fd, None) is None:
            return [E.EBADF]
        return [E.SUCCESS]

    def fd_seek(self, fd: int, offset: int, whence: int, newoffset_ptr: int) -> List[int]:
        entry = self._fd(fd)
        if entry is None:
            return [E.EBADF]
        if entry.kind == "stream":
            return [E.ESPIPE]
        if entry.kind != "file":
            return [E.EISDIR]
        assert entry.node is not None
        # offset arrives as u64; interpret as signed.
        if offset >= 1 << 63:
            offset -= 1 << 64
        if whence == E.WHENCE_SET:
            new = offset
        elif whence == E.WHENCE_CUR:
            new = entry.offset + offset
        elif whence == E.WHENCE_END:
            new = len(entry.node.data) + offset
        else:
            return [E.EINVAL]
        if new < 0:
            return [E.EINVAL]
        entry.offset = new
        self._mem().write_u64(newoffset_ptr, new)
        return [E.SUCCESS]

    def fd_fdstat_get(self, fd: int, stat_ptr: int) -> List[int]:
        entry = self._fd(fd)
        if entry is None:
            return [E.EBADF]
        mem = self._mem()
        filetype = {
            "stream": E.FILETYPE_CHARACTER_DEVICE,
            "file": E.FILETYPE_REGULAR_FILE,
            "dir": E.FILETYPE_DIRECTORY,
        }[entry.kind]
        mem.write(stat_ptr, bytes([filetype, 0]))
        mem.write(stat_ptr + 2, b"\x00" * 6)  # flags + padding
        mem.write_u64(stat_ptr + 8, 0xFFFFFFFFFFFFFFFF)  # rights base
        mem.write_u64(stat_ptr + 16, 0xFFFFFFFFFFFFFFFF)  # rights inheriting
        return [E.SUCCESS]

    def fd_fdstat_set_flags(self, fd: int, flags: int) -> List[int]:
        return [E.SUCCESS]

    def fd_sync(self, fd: int) -> List[int]:
        return [E.SUCCESS]

    def fd_datasync(self, fd: int) -> List[int]:
        return [E.SUCCESS]

    def fd_prestat_get(self, fd: int, prestat_ptr: int) -> List[int]:
        entry = self._fd(fd)
        if entry is None or entry.preopen_path is None:
            return [E.EBADF]
        mem = self._mem()
        mem.write(prestat_ptr, b"\x00\x00\x00\x00")  # tag 0 = dir
        mem.write_u32(prestat_ptr + 4, len(entry.preopen_path.encode("utf-8")))
        return [E.SUCCESS]

    def fd_prestat_dir_name(self, fd: int, path_ptr: int, path_len: int) -> List[int]:
        entry = self._fd(fd)
        if entry is None or entry.preopen_path is None:
            return [E.EBADF]
        raw = entry.preopen_path.encode("utf-8")
        if len(raw) > path_len:
            return [E.EINVAL]
        self._mem().write(path_ptr, raw)
        return [E.SUCCESS]

    def _write_filestat(self, stat_ptr: int, node: FsNode) -> None:
        mem = self._mem()
        mem.write_u64(stat_ptr, 1)  # device
        mem.write_u64(stat_ptr + 8, id(node) & 0xFFFFFFFFFFFFFFFF)  # inode
        filetype = E.FILETYPE_DIRECTORY if node.is_dir else E.FILETYPE_REGULAR_FILE
        mem.write(stat_ptr + 16, bytes([filetype]) + b"\x00" * 7)
        mem.write_u64(stat_ptr + 24, 1)  # nlink
        mem.write_u64(stat_ptr + 32, node.size)
        now = self._clock_ns()
        mem.write_u64(stat_ptr + 40, now)  # atim
        mem.write_u64(stat_ptr + 48, now)  # mtim
        mem.write_u64(stat_ptr + 56, now)  # ctim

    def fd_filestat_get(self, fd: int, stat_ptr: int) -> List[int]:
        entry = self._fd(fd)
        if entry is None:
            return [E.EBADF]
        if entry.kind == "stream":
            node = FsNode(name="stream", is_dir=False)
        else:
            assert entry.node is not None
            node = entry.node
        self._write_filestat(stat_ptr, node)
        return [E.SUCCESS]

    def path_filestat_get(
        self, dir_fd: int, _flags: int, path_ptr: int, path_len: int, stat_ptr: int
    ) -> List[int]:
        entry = self._fd(dir_fd)
        if entry is None or entry.kind != "dir":
            return [E.EBADF]
        rel = self._mem().read(path_ptr, path_len).decode("utf-8", "replace")
        assert entry.node is not None
        node, err = self.fs.resolve(entry.node, rel)
        if node is None:
            return [{"noent": E.ENOENT, "notdir": E.ENOTDIR, "escape": E.EPERM}[err]]
        self._write_filestat(stat_ptr, node)
        return [E.SUCCESS]

    def path_open(
        self,
        dir_fd: int,
        _dirflags: int,
        path_ptr: int,
        path_len: int,
        oflags: int,
        _rights_base: int,
        _rights_inheriting: int,
        _fdflags: int,
        opened_fd_ptr: int,
    ) -> List[int]:
        entry = self._fd(dir_fd)
        if entry is None or entry.kind != "dir":
            return [E.EBADF]
        rel = self._mem().read(path_ptr, path_len).decode("utf-8", "replace")
        assert entry.node is not None
        create = bool(oflags & E.OFLAGS_CREAT)
        node, err = self.fs.resolve(entry.node, rel, create_file=create)
        if node is None:
            return [{"noent": E.ENOENT, "notdir": E.ENOTDIR, "escape": E.EPERM}[err]]
        if (oflags & E.OFLAGS_DIRECTORY) and not node.is_dir:
            return [E.ENOTDIR]
        if oflags & E.OFLAGS_TRUNC and not node.is_dir:
            node.data = bytearray()
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _FdEntry(kind="dir" if node.is_dir else "file", node=node)
        self._mem().write_u32(opened_fd_ptr, fd)
        return [E.SUCCESS]

    # -- path-level directory operations -----------------------------------

    def _dir_and_path(self, dir_fd: int, path_ptr: int, path_len: int):
        entry = self._fd(dir_fd)
        if entry is None or entry.kind != "dir" or entry.node is None:
            return None, None
        rel = self._mem().read(path_ptr, path_len).decode("utf-8", "replace")
        return entry, rel

    def path_create_directory(self, dir_fd: int, path_ptr: int, path_len: int) -> List[int]:
        entry, rel = self._dir_and_path(dir_fd, path_ptr, path_len)
        if entry is None:
            return [E.EBADF]
        parts = [p for p in rel.split("/") if p]
        if not parts:
            return [E.EINVAL]
        parent, err = self.fs.resolve(entry.node, "/".join(parts[:-1]))
        if parent is None:
            return [E.ENOENT]
        if not parent.is_dir:
            return [E.ENOTDIR]
        name = parts[-1]
        if parent.child(name) is not None:
            return [E.EEXIST]
        from repro.wasm.wasi.fs import FsNode as _FsNode

        parent.children[name] = _FsNode(name=name, is_dir=True)
        return [E.SUCCESS]

    def _unlink(self, dir_fd: int, path_ptr: int, path_len: int, want_dir: bool) -> List[int]:
        entry, rel = self._dir_and_path(dir_fd, path_ptr, path_len)
        if entry is None:
            return [E.EBADF]
        parts = [p for p in rel.split("/") if p]
        if not parts:
            return [E.EINVAL]
        parent, err = self.fs.resolve(entry.node, "/".join(parts[:-1]))
        if parent is None or not parent.is_dir:
            return [E.ENOENT]
        target = parent.child(parts[-1])
        if target is None:
            return [E.ENOENT]
        if want_dir:
            if not target.is_dir:
                return [E.ENOTDIR]
            if target.children:
                return [E.ENOTEMPTY]
        elif target.is_dir:
            return [E.EISDIR]
        del parent.children[parts[-1]]
        return [E.SUCCESS]

    def path_unlink_file(self, dir_fd: int, path_ptr: int, path_len: int) -> List[int]:
        return self._unlink(dir_fd, path_ptr, path_len, want_dir=False)

    def path_remove_directory(self, dir_fd: int, path_ptr: int, path_len: int) -> List[int]:
        return self._unlink(dir_fd, path_ptr, path_len, want_dir=True)

    def fd_tell(self, fd: int, offset_ptr: int) -> List[int]:
        entry = self._fd(fd)
        if entry is None:
            return [E.EBADF]
        if entry.kind == "stream":
            return [E.ESPIPE]
        self._mem().write_u64(offset_ptr, entry.offset)
        return [E.SUCCESS]

    def fd_readdir(
        self, fd: int, buf_ptr: int, buf_len: int, cookie: int, bufused_ptr: int
    ) -> List[int]:
        """Fill ``buf`` with dirent records starting at ``cookie``.

        Record layout (24-byte header + name): d_next u64, d_ino u64,
        d_namlen u32, d_type u8, 3 pad bytes. A truncated final record
        signals the guest to come back with a larger buffer.
        """
        entry = self._fd(fd)
        if entry is None:
            return [E.EBADF]
        if entry.kind != "dir" or entry.node is None:
            return [E.ENOTDIR]
        mem = self._mem()
        names = sorted(entry.node.children)
        out = bytearray()
        for index in range(int(cookie), len(names)):
            child = entry.node.children[names[index]]
            raw_name = names[index].encode("utf-8")
            record = bytearray()
            record += (index + 1).to_bytes(8, "little")  # d_next cookie
            record += (id(child) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
            record += len(raw_name).to_bytes(4, "little")
            record += bytes(
                [E.FILETYPE_DIRECTORY if child.is_dir else E.FILETYPE_REGULAR_FILE]
            )
            record += b"\x00\x00\x00"
            record += raw_name
            out += record
            if len(out) >= buf_len:
                break
        payload = bytes(out[:buf_len])
        mem.write(buf_ptr, payload)
        mem.write_u32(bufused_ptr, len(payload))
        return [E.SUCCESS]

    def poll_oneoff(self, _in_ptr: int, _out_ptr: int, nsubs: int, nevents_ptr: int) -> List[int]:
        # All subscriptions complete immediately in simulated time.
        self._mem().write_u32(nevents_ptr, nsubs)
        return [E.SUCCESS]

    def proc_exit(self, code: int) -> List[int]:
        self.exit_code = code
        raise WasiExit(code)
