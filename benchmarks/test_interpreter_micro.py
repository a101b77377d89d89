"""Microbenchmarks of the Wasm substrate itself.

Unlike the figure benchmarks (which time a simulated campaign), these
time the *real* work this library does: decoding, validation, and
interpreting guest code. Useful for tracking toolchain performance over
time; they assert functional correctness, not latency.

The interpreter benchmarks also write ``benchmarks/output/BENCH_interpreter.json``
— machine-readable instructions/second for the prepared flat interpreter
vs the reference tree-walker on fib and memory-churn, so the throughput
trajectory is tracked across PRs (CI uploads it as an artifact). One
window per interpreter is too short to compare alone on a busy host, so
flat and reference windows are timed in pairs whose order alternates,
and the ≥2× floor holds the median of the per-pair ratios. The reference
tree-walker recurses in Python, and its speed depends on where its frames
fall in CPython's frame stack, so every workload is timed on a new thread,
from the same empty stack whatever depth the test is called at.
"""

import gc
import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

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


#: flat/reference window pairs timed per workload; the floor holds their
#: median ratio
PAIRS = 21
#: seconds of closed-loop invocations per window
WINDOW_S = 0.05


def _window(interp, addr, args):
    """(instructions, seconds, rounds) of one timed window."""
    rounds = 0
    instrs_before = interp.instructions_executed
    t0 = time.perf_counter()
    while True:
        interp.invoke(addr, args)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= WINDOW_S:
            break
    return interp.instructions_executed - instrs_before, elapsed, rounds


def _paired_throughput(src, export, args):
    """Per-interpreter totals over every window, and the per-pair
    flat/reference throughput ratios."""
    sides = []
    for interpreter_cls in (Interpreter, ReferenceInterpreter):
        interp, inst = _instantiate(src, interpreter_cls)
        addr = inst.export_addr(export, "func")
        interp.invoke(addr, args)  # warm up (triggers lazy prepare)
        sides.append((interp, addr, []))
    ratios = []
    for pair in range(PAIRS):
        gc.collect()  # no pair pays for an earlier pair's garbage
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        rates = [0.0, 0.0]
        for side in order:
            interp, addr, windows = sides[side]
            instrs, seconds, rounds = _window(interp, addr, args)
            windows.append((instrs, seconds, rounds))
            rates[side] = instrs / seconds
        ratios.append(rates[0] / rates[1])
    totals = []
    for _, _, windows in sides:
        instrs = sum(w[0] for w in windows)
        seconds = sum(w[1] for w in windows)
        totals.append(
            {
                "instructions": instrs,
                "seconds": seconds,
                "rounds": sum(w[2] for w in windows),
                "instr_per_sec": instrs / seconds,
            }
        )
    return totals[0], totals[1], ratios


_WORKLOADS = {
    "fib": (FIB_WAT, "fib", [15]),
    "memory_churn": (LOOP_WAT, "churn", [2000]),
    "memory_churn_store": (STORE_WAT, "churn_store", [2000]),
}


def test_bench_interpreter_vs_reference_json():
    """Emit BENCH_interpreter.json and hold the ≥2× speedup floor on the
    median of paired flat/reference ratios."""
    report = {"pairs": PAIRS, "window_seconds": WINDOW_S, "workloads": {}}
    for name, (src, export, args) in _WORKLOADS.items():
        with ThreadPoolExecutor(max_workers=1) as fresh_thread:
            timed = fresh_thread.submit(_paired_throughput, src, export, args)
            prepared, reference, ratios = timed.result()
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        report["workloads"][name] = {
            "prepared": prepared,
            "reference": reference,
            "speedup": round(statistics.median(ratios), 3),
            "speedup_iqr": [round(q1, 3), round(q3, 3)],
        }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_interpreter.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    lines = [
        f"[interp] {name}: prepared {w['prepared']['instr_per_sec'] / 1e6:.2f} "
        f"Minstr/s vs reference {w['reference']['instr_per_sec'] / 1e6:.2f} "
        f"Minstr/s ({w['speedup']:.2f}x, median of {PAIRS} pairs, IQR "
        f"{w['speedup_iqr'][0]:.2f}-{w['speedup_iqr'][1]:.2f}x)"
        for name, w in report["workloads"].items()
    ]
    emit("interp_throughput", "\n".join(lines))
    below = {
        name: w["speedup"] for name, w in report["workloads"].items() if w["speedup"] < 2.0
    }
    assert not below, (
        f"flat interpreter lost its ≥2x edge (median of {PAIRS} paired ratios): {below}"
    )


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
