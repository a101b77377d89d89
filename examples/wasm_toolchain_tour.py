#!/usr/bin/env python3
"""Tour of the WebAssembly toolchain underneath the container stack.

Everything the engines execute goes through this pipeline, built from
scratch in this repository: WAT text → module AST → validator → binary
encoder → binary decoder → interpreter with a WASI host. This example
walks the pipeline on a small program, then demonstrates traps and fuel
metering.

Run:  python examples/wasm_toolchain_tour.py
"""

from repro.errors import ExhaustionError, WasmTrap
from repro.wasm import decode_module, encode_module, parse_wat, validate_module
from repro.wasm.embed import run_wasi
from repro.wasm.runtime import Interpreter, Store, instantiate

COLLATZ = r"""
(module
  (import "wasi_snapshot_preview1" "fd_write"
    (func $fd_write (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (data (i32.const 64) "collatz steps: ")
  (global $steps (mut i32) (i32.const 0))

  (func $collatz (export "collatz") (param $n i32) (result i32)
    (local $count i32)
    (block $done
      (loop $top
        (br_if $done (i32.le_u (local.get $n) (i32.const 1)))
        (if (i32.and (local.get $n) (i32.const 1))
          (then (local.set $n
            (i32.add (i32.mul (local.get $n) (i32.const 3)) (i32.const 1))))
          (else (local.set $n (i32.shr_u (local.get $n) (i32.const 1)))))
        (local.set $count (i32.add (local.get $count) (i32.const 1)))
        (br $top)))
    (local.get $count))

  (func (export "_start")
    (local $steps i32) (local $digits i32) (local $v i32) (local $p i32)
    (local.set $steps (call $collatz (i32.const 27)))
    ;; render the count as decimal at 96 (two digits minimum)
    (local.set $p (i32.const 105))
    (local.set $v (local.get $steps))
    (block $fin (loop $render
      (i32.store8 (local.get $p)
        (i32.add (i32.const 48) (i32.rem_u (local.get $v) (i32.const 10))))
      (local.set $v (i32.div_u (local.get $v) (i32.const 10)))
      (local.set $p (i32.sub (local.get $p) (i32.const 1)))
      (br_if $fin (i32.eqz (local.get $v)))
      (br $render)))
    ;; write "collatz steps: " then the digits and newline
    (i32.store (i32.const 0) (i32.const 64))
    (i32.store (i32.const 4) (i32.const 15))
    (drop (call $fd_write (i32.const 1) (i32.const 0) (i32.const 1) (i32.const 16)))
    (i32.store8 (i32.const 106) (i32.const 10))
    (i32.store (i32.const 0) (i32.add (local.get $p) (i32.const 1)))
    (i32.store (i32.const 4) (i32.sub (i32.const 107)
                                      (i32.add (local.get $p) (i32.const 1))))
    (drop (call $fd_write (i32.const 1) (i32.const 0) (i32.const 1) (i32.const 16)))))
"""


def main() -> None:
    print("1. parse WAT -> module AST")
    module = parse_wat(COLLATZ)
    print(f"   {len(module.funcs)} functions, {len(module.imports)} imports, "
          f"{module.code_size()} instructions")

    print("2. validate (spec-style type checking)")
    validate_module(module)
    print("   ok")

    print("3. encode to binary, decode back, re-encode byte-identically")
    blob = encode_module(module)
    assert encode_module(decode_module(blob)) == blob
    print(f"   {len(blob)} bytes, magic={blob[:4]!r}")

    print("4. run under WASI (the engines' execution path)")
    result = run_wasi(blob, args=["collatz"])
    print(f"   stdout: {result.stdout.decode().strip()!r}")
    print(f"   {result.instructions} guest instructions, "
          f"{result.memory_bytes // 1024} KiB linear memory")

    print("5. call an export directly with arguments")
    store = Store()
    decoded = decode_module(blob)
    inst = instantiate(store, decoded, run_start=False,
                       imports=_wasi_imports(store, decoded))
    interp = Interpreter(store)
    for n in (6, 7, 27, 97):
        [steps] = interp.invoke_export(inst, "collatz", [n])
        print(f"   collatz({n}) = {steps} steps")

    print("6. traps are typed errors, not crashes")
    bad = parse_wat('(module (func (export "_start") unreachable))')
    try:
        run_wasi(encode_module(bad))
    except WasmTrap as trap:
        print(f"   WasmTrap: {trap}")

    print("7. fuel metering bounds runaway guests")
    spin = parse_wat('(module (func (export "_start") (loop $l (br $l))))')
    try:
        run_wasi(encode_module(spin), fuel=50_000)
    except ExhaustionError as exc:
        print(f"   ExhaustionError: {exc}")


def _wasi_imports(store: Store, module):
    from repro.wasm.wasi import WasiEnv

    return WasiEnv().register(store, module).import_map()


if __name__ == "__main__":
    main()
