"""Specialization-tier throughput: compiled closures vs flat bytecode.

Writes ``benchmarks/output/BENCH_specialize.json`` — instructions/second
for the baseline prepared flat interpreter and the specialization tier
(exec'd Python closures) on the same microbenchmark workloads
`test_interpreter_micro` uses, plus the store-heavy churn variant whose
bounds checks the closure drops where the bounds proof holds, and a loop
that calls through a table whose target switches every 256 iterations,
as the benchmark's guest kernel does (``bench/guest/kernel.wat``). Each
workload is measured twice: unmetered (unmetered closures against the
flat loop) and metered (metered closures against the flat loop, both
with a fuel budget that never runs out).

Both sides are timed as the interpreter record times its two: on a new
thread, in alternating specialized/flat window pairs, with the median of
the per-pair ratios as the speedup and their IQR beside it. The ≥2×
floors on fib and memory_churn, unmetered and metered, hold that median
and are the tier's acceptance criterion; the other two workloads are
recorded without a floor. CI runs this file in the ``benchmarks`` job
and uploads the JSON as an artifact.
"""

import json

from conftest import OUTPUT_DIR, emit
from test_interpreter_micro import (
    FIB_WAT,
    LOOP_WAT,
    PAIRS,
    STORE_WAT,
    WINDOW_S,
    on_new_thread,
    paired_windows,
    ratio_summary,
)

from repro.wasm import parse_wat, validate_module
from repro.wasm.runtime import (
    Interpreter,
    Store,
    instantiate,
    prepare_module,
    specialize_module,
)

#: the guest kernel's mixing step: an accumulator folded through one of
#: four mixers picked by ``call_indirect``, switching every 256 calls
INDIRECT_WAT = """
(module
  (type $mixer (func (param i32 i32) (result i32)))
  (table 4 funcref) (elem (i32.const 0) $add $xor $rot $sub)
  (func $add (type $mixer)
    (i32.add (local.get 0) (i32.mul (local.get 1) (i32.const 0x9e3779b1))))
  (func $xor (type $mixer)
    (i32.xor (local.get 0) (i32.mul (local.get 1) (i32.const 0x85ebca6b))))
  (func $rot (type $mixer)
    (i32.rotl (local.get 0) (i32.and (local.get 1) (i32.const 31))))
  (func $sub (type $mixer)
    (i32.sub (local.get 0) (i32.mul (local.get 1) (i32.const 0xc2b2ae35))))
  (func (export "dispatch") (param i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $out (loop $top
      (br_if $out (i32.ge_u (local.get $i) (local.get 0)))
      (local.set $acc
        (call_indirect (type $mixer) (local.get $acc) (local.get $i)
          (i32.and (i32.shr_u (local.get $i) (i32.const 8)) (i32.const 3))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $top)))
    (local.get $acc)))
"""

_WORKLOADS = {
    "fib": (FIB_WAT, "fib", [15]),
    "memory_churn": (LOOP_WAT, "churn", [2000]),
    "memory_churn_store": (STORE_WAT, "churn_store", [2000]),
    "indirect_switch": (INDIRECT_WAT, "dispatch", [2048]),
}

#: workloads whose speedup is asserted in both modes (acceptance floors)
_FLOORS = {"fib": 2.0, "memory_churn": 2.0}

#: a metered run's budget: far more than any measurement retires
_FUEL = 10**15


def _instantiate(src: str, specialize=False, fuel=None):
    module = validate_module(parse_wat(src))
    if specialize:
        prepare_module(module)
        specialize_module(module).attach(module)
    store = Store()
    inst = instantiate(store, module)
    return Interpreter(store, fuel=fuel), inst


def _side(src, export, args, specialize, fuel):
    """A warmed-up ``(interpreter, export address)`` to time."""
    interp, inst = _instantiate(src, specialize, fuel)
    addr = inst.export_addr(export, "func")
    interp.invoke(addr, args)  # warm up (lazy prepare, IC fills)
    return interp, addr


def _pair(src, export, args, fuel=None):
    sides = [
        _side(src, export, args, specialize=True, fuel=fuel),
        _side(src, export, args, specialize=False, fuel=fuel),
    ]
    specialized, flat, ratios = paired_windows(sides, args)
    return {"flat": flat, "specialized": specialized, **ratio_summary(ratios)}


def _line(name, w):
    return (
        f"{name}: {w['specialized']['instr_per_sec'] / 1e6:.2f} "
        f"Minstr/s vs flat {w['flat']['instr_per_sec'] / 1e6:.2f} Minstr/s "
        f"({w['speedup']:.2f}x, median of {PAIRS} pairs, IQR "
        f"{w['speedup_iqr'][0]:.2f}-{w['speedup_iqr'][1]:.2f}x)"
    )


def test_bench_specialized_vs_flat_json():
    """Emit BENCH_specialize.json and hold the ≥2× acceptance floors,
    unmetered and metered."""
    report = {"pairs": PAIRS, "window_seconds": WINDOW_S, "workloads": {}}
    for name, (src, export, args) in _WORKLOADS.items():
        # Unmetered at the top level (the file's original shape), the
        # metered column beside it.
        report["workloads"][name] = {
            **on_new_thread(_pair, src, export, args),
            "metered": on_new_thread(_pair, src, export, args, _FUEL),
        }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_specialize.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    lines = []
    for name, w in report["workloads"].items():
        lines.append(f"[specialize] {_line(name, w)}")
        lines.append(f"[specialize metered] {_line(name, w['metered'])}")
    emit("specialize_throughput", "\n".join(lines))
    for name, floor in _FLOORS.items():
        for mode, w in (("unmetered", report["workloads"][name]),
                        ("metered", report["workloads"][name]["metered"])):
            assert w["speedup"] >= floor, (
                f"{name}: {mode} specialization tier below its ≥{floor}x "
                f"floor (median of {PAIRS} paired ratios: {w['speedup']}x)"
            )


def test_bench_specialized_fib(benchmark):
    interp, inst = _instantiate(FIB_WAT, specialize=True)
    addr = inst.export_addr("fib", "func")
    result = benchmark(lambda: interp.invoke(addr, [15]))
    assert result == [610]


def test_bench_specialized_memory_churn(benchmark):
    interp, inst = _instantiate(LOOP_WAT, specialize=True)
    addr = inst.export_addr("churn", "func")
    result = benchmark(lambda: interp.invoke(addr, [2000]))
    assert isinstance(result[0], int)


def test_bench_specialization_pass(benchmark):
    """Cost of the pass itself (amortized once per digest by the cache)."""
    module = validate_module(parse_wat(FIB_WAT))
    prepare_module(module)
    sm = benchmark(lambda: specialize_module(module))
    assert sm.functions[0].compiled is not None
