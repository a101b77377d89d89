"""The WAMR crun handler — the paper's integration (§III-C).

Differences from :class:`~repro.container.lowlevel.crun.EmbeddedEngineHandler`
(the upstream engine handlers), each mapping to a contribution bullet:

* ``libiwasm`` is loaded through :class:`DynamicLibraryLoader` — lazy,
  shared, and tiny, instead of an eagerly linked multi-MiB engine;
* the OCI process spec is translated into a full WASI world: argv from
  ``process.args``, environ from ``process.env``, preopens from the
  rootfs + bind mounts (so ConfigMap/volume mounts appear to the guest);
* execution happens in-process with WAMR's interpreter — no JIT code
  buffers, no separate engine binary, no exec.

The functional path is real: the module from the image layer is decoded,
validated, and executed by :mod:`repro.wasm` with the WASI environment
assembled here.
"""

from __future__ import annotations

from typing import Optional

from repro.container import constants as C
from repro.container.lifecycle import Container
from repro.container.nodeenv import NodeEnv
from repro.core.dynlib import DynamicLibraryLoader
from repro.engines.base import WasmEngine
from repro.engines.cache import run_cached
from repro.engines.registry import get_engine
from repro.oci.annotations import is_wasm_image
from repro.oci.bundle import Bundle
from repro.sim.process import SimProcess


class WamrCrunHandler:
    """crun wasm handler backed by the WebAssembly Micro Runtime.

    Args:
        loader: shared per-node dlopen bookkeeping (created lazily).
        engine_name: ``"wamr"`` (the paper's interpreter mode) or
            ``"wamr-aot"`` (the ablation's ahead-of-time mode).
        share_library: when False, models a statically linked build —
            each container pays for the engine text privately instead of
            sharing one ``dlopen``-ed mapping (the DESIGN.md §7 ablation).
        zygote: zygote warm-start resource model — every container of an
            image maps the instance snapshot (engine structures, in-place
            artifact, initialized linear memory) as one node-shared COW
            extent and only its dirtied pages are private.
    """

    def __init__(
        self,
        loader: Optional[DynamicLibraryLoader] = None,
        engine_name: str = "wamr",
        share_library: bool = True,
        zygote: bool = False,
    ) -> None:
        self.engine: WasmEngine = get_engine(engine_name)
        self.loader = loader
        self.share_library = share_library
        self.zygote = zygote
        self.name = "crun-wamr" if engine_name == "wamr" else f"crun-{engine_name}"
        if not share_library:
            self.name += "-static"
        if zygote:
            self.name += "-zygote"
        self.containers_executed = 0

    def matches(self, bundle: Bundle) -> bool:
        return is_wasm_image(bundle.image)

    # -- WASI argument handling (§III-C.2) ---------------------------------

    def build_wasi_world(self, bundle: Bundle) -> dict:
        """OCI spec → WASI argv/environ/preopens."""
        spec = bundle.spec
        return {
            "args": list(spec.process.args),
            "env": dict(spec.process.env),
            "preopens": spec.preopen_dirs(),
        }

    # -- sandboxed execution (§III-C.3) ----------------------------------------

    def execute(
        self, env: NodeEnv, container: Container, bundle: Bundle, proc: SimProcess
    ) -> float:
        if self.loader is None:
            self.loader = DynamicLibraryLoader(env.memory)

        blob = bundle.read_file(bundle.spec.process.args[0])
        world = self.build_wasi_world(bundle)
        compiled, result = run_cached(
            self.engine, blob, args=world["args"], env=world["env"]
        )

        if self.share_library:
            # Dynamic loading: libiwasm text is shared node-wide.
            dlopen_s = self.loader.dlopen(
                proc,
                self.engine.profile.lib_file,
                self.engine.profile.lib_text,
                label="libiwasm",
            )
        else:
            # Ablation: statically linked engine — private text per
            # container, no loader involvement.
            env.memory.map_private(
                proc, self.engine.profile.lib_text, label="libiwasm-static"
            )
            dlopen_s = 0.0
        env.memory.map_file(proc, C.CRUN_TEXT_FILE, C.CRUN_TEXT, label="crun-text")

        if self.zygote:
            # Zygote model: engine structures, in-place artifact, and the
            # initialized linear memory are the instance snapshot — mapped
            # COW and shared across every clone of this image on the node.
            # Only pages the guest (or the restore itself) dirties split
            # into private copies.
            shared = (
                self.engine.profile.base_rss
                + compiled.artifact_bytes
                + result.linear_memory_bytes
            )
            cow_key = f"zygote/{self.engine.name}/{bundle.image.reference}"
            seg_key = env.memory.map_cow(proc, cow_key, shared, label="zygote-image")
            dirty = min(shared, C.ZYGOTE_DIRTY_FLOOR + result.dirty_memory_bytes)
            proc.cow_split(seg_key, dirty)
            private = C.CRUN_CHILD_PRIVATE + self.engine.profile.per_instance
            private += int(
                env.jitter(f"wamrmem/{container.container_id}", C.MEMORY_JITTER)
            )
            env.memory.map_private(proc, private, label="crun-wamr-zygote-rss")
            container.facts["zygote_shared"] = shared
            container.facts["zygote_dirty"] = dirty
            if container.facts.get("zygote_warm"):
                container.facts["zygote_restore_s"] = self.engine.warm_startup_seconds()
        else:
            # In-process interpreter: crun child keeps its own small heap plus
            # WAMR's structures; no JIT buffers (artifact = module in place).
            private = C.CRUN_CHILD_PRIVATE + self.engine.embedded_private_bytes(
                compiled, result.linear_memory_bytes
            )
            private += int(
                env.jitter(f"wamrmem/{container.container_id}", C.MEMORY_JITTER)
            )
            env.memory.map_private(proc, private, label="crun-wamr-rss")

        container.stdout = result.stdout
        container.stderr = result.stderr
        container.exit_code = result.exit_code
        container.facts["engine"] = self.engine.name
        container.facts["handler"] = self.name
        container.facts["dlopen_s"] = dlopen_s
        container.facts["instructions"] = result.instructions
        container.facts["linear_memory"] = result.linear_memory_bytes
        container.facts["wasi_preopens"] = sorted(world["preopens"])
        self.containers_executed += 1
        return result.exec_seconds + dlopen_s
