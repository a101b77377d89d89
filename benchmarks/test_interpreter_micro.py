"""Microbenchmarks of the Wasm substrate itself.

Unlike the figure benchmarks (which time a simulated campaign), these
time the *real* work this library does: decoding, validation, and
interpreting guest code. Useful for tracking toolchain performance over
time; they assert functional correctness, not latency.

The interpreter benchmarks also write ``benchmarks/output/BENCH_interpreter.json``
— machine-readable instructions/second for the prepared flat interpreter
vs the reference tree-walker on fib and memory-churn, so the throughput
trajectory is tracked across PRs (CI uploads it as an artifact).
"""

import json
import time

from conftest import OUTPUT_DIR, emit

from repro.wasm import assemble_wat, decode_module, encode_module, parse_wat, validate_module
from repro.wasm.embed import run_wasi
from repro.wasm.runtime import (
    Interpreter,
    ReferenceInterpreter,
    Store,
    instantiate,
)
from repro.wasm.wasi import InMemoryFilesystem
from repro.workloads.microservice import MICROSERVICE_WAT, build_microservice_wasm

FIB_WAT = """
(module (func $fib (export "fib") (param i32) (result i32)
  (if (result i32) (i32.lt_s (local.get 0) (i32.const 2))
    (then (local.get 0))
    (else (i32.add
      (call $fib (i32.sub (local.get 0) (i32.const 1)))
      (call $fib (i32.sub (local.get 0) (i32.const 2))))))))
"""

LOOP_WAT = """
(module (memory 1) (func (export "churn") (param i32) (result i32)
  (local $i i32) (local $acc i32)
  (block $out (loop $top
    (br_if $out (i32.ge_u (local.get $i) (local.get 0)))
    (i32.store (i32.and (i32.mul (local.get $i) (i32.const 13)) (i32.const 0xfff8))
               (local.get $i))
    (local.set $acc (i32.xor (local.get $acc)
      (i32.load (i32.and (i32.mul (local.get $i) (i32.const 7)) (i32.const 0xfff8)))))
    (local.set $i (i32.add (local.get $i) (i32.const 1)))
    (br $top)))
  (local.get $acc)))
"""


STORE_WAT = """
(module (memory 1) (func (export "churn_store") (param i32) (result i32)
  (local $i i32)
  (block $out (loop $top
    (br_if $out (i32.ge_u (local.get $i) (local.get 0)))
    (i32.store (i32.and (i32.mul (local.get $i) (i32.const 40)) (i32.const 0xfffc))
               (local.get $i))
    (i32.store8 (i32.and (i32.add (local.get $i) (i32.const 17)) (i32.const 0xffff))
                (local.get $i))
    (i32.store16 (i32.and (i32.mul (local.get $i) (i32.const 6)) (i32.const 0xfffe))
                 (local.get $i))
    (local.set $i (i32.add (local.get $i) (i32.const 1)))
    (br $top)))
  (local.get $i)))
"""


def _instantiate(src: str, interpreter_cls=Interpreter):
    module = validate_module(parse_wat(src))
    store = Store()
    inst = instantiate(store, module)
    return interpreter_cls(store), inst


def _throughput(interpreter_cls, src, export, args, min_seconds=0.4):
    """Measured instructions/second for one interpreter on one workload."""
    interp, inst = _instantiate(src, interpreter_cls)
    addr = inst.export_addr(export, "func")
    interp.invoke(addr, args)  # warm up (triggers lazy prepare)
    rounds = 0
    instrs_before = interp.instructions_executed
    t0 = time.perf_counter()
    while True:
        interp.invoke(addr, args)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            break
    instrs = interp.instructions_executed - instrs_before
    return {
        "instructions": instrs,
        "seconds": elapsed,
        "rounds": rounds,
        "instr_per_sec": instrs / elapsed,
    }


_WORKLOADS = {
    "fib": (FIB_WAT, "fib", [15]),
    "memory_churn": (LOOP_WAT, "churn", [2000]),
    "memory_churn_store": (STORE_WAT, "churn_store", [2000]),
}


def test_bench_interpreter_vs_reference_json():
    """Emit BENCH_interpreter.json and hold the ≥2× speedup floor."""
    report = {"workloads": {}}
    for name, (src, export, args) in _WORKLOADS.items():
        prepared = _throughput(Interpreter, src, export, args)
        reference = _throughput(ReferenceInterpreter, src, export, args)
        speedup = prepared["instr_per_sec"] / reference["instr_per_sec"]
        report["workloads"][name] = {
            "prepared": prepared,
            "reference": reference,
            "speedup": round(speedup, 3),
        }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_interpreter.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    lines = [
        f"[interp] {name}: prepared {w['prepared']['instr_per_sec'] / 1e6:.2f} "
        f"Minstr/s vs reference {w['reference']['instr_per_sec'] / 1e6:.2f} "
        f"Minstr/s ({w['speedup']:.2f}x)"
        for name, w in report["workloads"].items()
    ]
    emit("interp_throughput", "\n".join(lines))
    for name, w in report["workloads"].items():
        assert w["speedup"] >= 2.0, f"{name}: flat interpreter lost its ≥2x edge"


def test_bench_interpreter_fib(benchmark):
    interp, inst = _instantiate(FIB_WAT)
    addr = inst.export_addr("fib", "func")
    result = benchmark(lambda: interp.invoke(addr, [15]))
    assert result == [610]


def test_bench_interpreter_memory_churn(benchmark):
    interp, inst = _instantiate(LOOP_WAT)
    addr = inst.export_addr("churn", "func")
    result = benchmark(lambda: interp.invoke(addr, [2000]))
    assert isinstance(result[0], int)


def test_bench_decode_validate(benchmark):
    blob = build_microservice_wasm()

    def decode():
        return validate_module(decode_module(blob))

    module = benchmark(decode)
    assert module.total_funcs() > 5


def test_bench_wat_parse(benchmark):
    module = benchmark(lambda: parse_wat(MICROSERVICE_WAT))
    assert module.total_funcs() > 5


def test_bench_encode(benchmark):
    module = parse_wat(MICROSERVICE_WAT)
    blob = benchmark(lambda: encode_module(module))
    assert blob[:4] == b"\x00asm"


def test_bench_full_wasi_run(benchmark):
    blob = build_microservice_wasm()
    # A filesystem of the caller's choosing makes every round execute:
    # in the default host world the run layer serves repeats from a log.
    result = benchmark(
        lambda: run_wasi(
            blob, args=["svc"], env={"REQUESTS": "1"}, fs=InMemoryFilesystem()
        )
    )
    assert result.exit_code == 0
    emit(
        "micro_summary",
        f"[micro] microservice: {result.instructions} instructions/run, "
        f"module {len(blob)} bytes",
    )
