"""Property tests: interpreter numeric semantics vs Python reference,
plus differential properties (flat interpreter, specialization tier, and
reference tree-walker) over randomly generated straight-line/loop
programs and fuel budgets."""

import math

from hypothesis import given, settings, strategies as st

from repro.errors import ExhaustionError, WasmTrap
from repro.wasm import parse_wat, validate_module
from repro.wasm.runtime import (
    Interpreter,
    ReferenceInterpreter,
    Store,
    instantiate,
    prepare_module,
    specialize_module,
)
from repro.wasm.runtime import values as V

i32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)
u32s = st.integers(min_value=0, max_value=2**32 - 1)
i64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _binop_runner(op: str, ty: str):
    src = f"""
    (module (func (export "run") (param {ty}) (param {ty}) (result {ty})
      ({op} (local.get 0) (local.get 1))))
    """
    module = validate_module(parse_wat(src))
    store = Store()
    inst = instantiate(store, module)
    interp = Interpreter(store)
    addr = inst.export_addr("run", "func")
    return lambda a, b: interp.invoke(addr, [a, b])[0]


_ADD = _binop_runner("i32.add", "i32")
_SUB = _binop_runner("i32.sub", "i32")
_MUL = _binop_runner("i32.mul", "i32")
_DIVS = _binop_runner("i32.div_s", "i32")
_SHL = _binop_runner("i32.shl", "i32")
_ROTL = _binop_runner("i32.rotl", "i32")
_ADD64 = _binop_runner("i64.add", "i64")


@given(u32s, u32s)
def test_i32_add_matches_mod_2_32(a, b):
    assert _ADD(a, b) == (a + b) % 2**32


@given(u32s, u32s)
def test_i32_sub_matches_mod_2_32(a, b):
    assert _SUB(a, b) == (a - b) % 2**32


@given(u32s, u32s)
def test_i32_mul_matches_mod_2_32(a, b):
    assert _MUL(a, b) == (a * b) % 2**32


@given(i32s, i32s.filter(lambda x: x != 0))
def test_i32_div_s_truncates(a, b):
    if a == -(2**31) and b == -1:
        return  # traps (tested elsewhere)
    got = _DIVS(a & 0xFFFFFFFF, b & 0xFFFFFFFF)
    want = int(a / b)  # Python float div truncation is fine in i32 range? no:
    want = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        want = -want
    assert got == want % 2**32


@given(u32s, st.integers(min_value=0, max_value=255))
def test_i32_shl_mod_32(a, k):
    assert _SHL(a, k) == (a << (k % 32)) % 2**32


@given(u32s, st.integers(min_value=0, max_value=63))
def test_rotl_preserves_bits(a, k):
    got = _ROTL(a, k)
    assert bin(got).count("1") == bin(a).count("1")
    # Double rotation by complementary amounts restores the input.
    assert _ROTL(got, (32 - k) % 32) == a


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1))
def test_i64_add_matches_mod_2_64(a, b):
    assert _ADD64(a, b) == (a + b) % 2**64


@given(u32s)
def test_signed_unsigned_involution(a):
    assert V.signed32(a) & 0xFFFFFFFF == a


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_signed64_involution(a):
    assert V.signed64(a) & 0xFFFFFFFFFFFFFFFF == a


@given(u32s)
def test_clz_ctz_bounds(a):
    assert 0 <= V.clz(a, 32) <= 32
    assert 0 <= V.ctz(a, 32) <= 32
    if a != 0:
        assert V.clz(a, 32) + a.bit_length() == 32


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_f32_bits_roundtrip(x):
    assert V.bits_to_f32(V.f32_to_bits(x)) == x


@given(st.floats(allow_nan=False))
def test_f64_bits_roundtrip(x):
    assert V.bits_to_f64(V.f64_to_bits(x)) == x


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fnearest_is_integral_and_close(x):
    r = V.fnearest(x)
    assert r == math.floor(r) or not math.isfinite(r)
    assert abs(r - x) <= 0.5


@given(st.floats())
def test_trunc_sat_total(x):
    """trunc_sat never raises and stays in range for any float input."""
    for bits, signed in ((32, True), (32, False), (64, True), (64, False)):
        v = V.trunc_sat(x, bits, signed)
        assert 0 <= v < 2**bits


# -- differential: prepared flat code vs reference tree-walker -----------------

_FOLD_OPS = ("i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
             "i32.shl", "i32.shr_u", "i32.rotl")


def _gen_module(ops):
    """A loop that folds `ops` (op, constant) pairs over both params each
    iteration, storing intermediate state through memory — shaped to hit
    the expressions the closure compiler folds and the branch repairs."""
    folds = "\n".join(
        f"(local.set $acc ({op} (local.get $acc) (i32.const {k})))"
        for op, k in ops
    )
    return f"""
    (module (memory 1)
      (func (export "run") (param $n i32) (param $seed i32) (result i32)
        (local $acc i32) (local $i i32)
        (local.set $acc (local.get $seed))
        (block $out
          (loop $top
            (br_if $out (i32.ge_u (local.get $i) (local.get $n)))
            {folds}
            (i32.store (i32.and (local.get $acc) (i32.const 0xfffc))
                       (i32.add (local.get $acc) (local.get $i)))
            (local.set $acc (i32.add (local.get $acc)
              (i32.load (i32.and (local.get $i) (i32.const 0xfffc)))))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br $top)))
        (local.get $acc)))
    """


def _observe(cls, src, args, fuel, specialize=False):
    module = validate_module(parse_wat(src))
    if specialize:
        prepare_module(module)
        specialize_module(module).attach(module)
    store = Store()
    inst = instantiate(store, module)
    interp = cls(store, fuel=fuel)
    try:
        outcome = ("ok", interp.invoke_export(inst, "run", list(args)))
    except ExhaustionError as e:
        outcome = ("exhausted", str(e))
    except WasmTrap as e:
        outcome = ("trap", str(e))
    mem = bytes(store.mems[inst.mem_addrs[0]].data) if inst.mem_addrs else b""
    return outcome, interp.instructions_executed, interp.fuel, mem


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_FOLD_OPS), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=5,
    ),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.none(), st.integers(min_value=0, max_value=600)),
)
def test_differential_random_programs(ops, n, seed, fuel):
    src = _gen_module(ops)
    flat = _observe(Interpreter, src, (n, seed), fuel)
    ref = _observe(ReferenceInterpreter, src, (n, seed), fuel)
    assert flat == ref
    spec = _observe(Interpreter, src, (n, seed), fuel, specialize=True)
    assert spec == ref, f"specialized: {spec} != {ref}"


# -- differential: folded stack programs ---------------------------------------

#: name -> (operands popped, WAT lines); ``{k}`` is the draw's integer.
#: Local 2 is a scratch local; local 3 holds a store's value while its
#: address is pushed.
_STACK_OPS = {
    "const": (0, ["(i32.const {k})"]),
    "local.get": (0, ["(local.get {local})"]),
    "local.set": (1, ["(local.set {local})"]),
    "local.tee": (1, ["(local.tee {local})"]),
    "global.get": (0, ["(global.get $g)"]),
    "global.set": (1, ["(global.set $g)"]),
    "binop": (2, ["({binop})"]),
    "trap": (2, ["({trapop})"]),
    "cmp": (2, ["({cmp})"]),
    "eqz": (1, ["(i32.eqz)"]),
    "select": (3, ["(select)"]),
    "drop": (1, ["(drop)"]),
    "load.masked": (1, ["(i32.and (i32.const 0x3ffc))", "(i32.load offset={offset})"]),
    "load": (1, ["(i32.load8_u)"]),
    "store.masked": (1, [
        "(local.set 3)",
        "(i32.and (local.get {local}) (i32.const 0x3ffc))",
        "(local.get 3)",
        "(i32.store offset={offset})",
    ]),
    "store": (2, ["(i32.store16)"]),
    "call": (1, ["(call $w)"]),
}
_STACK_OP_NAMES = sorted(_STACK_OPS)
_PUSHES = {"const", "local.get", "global.get", "binop", "trap", "cmp", "eqz",
           "select", "load.masked", "load", "call", "local.tee"}


def _gen_stack_module(draws):
    """A straight-line i32 program from ``(op, k)`` draws; an op the stack
    cannot feed is skipped. The stack left over is xor-folded into the
    result."""
    body, h = [], 0
    for name, k in draws:
        pops, lines = _STACK_OPS[name]
        if h < pops:
            continue
        fields = {
            "k": k,
            "local": k % 3,
            "offset": (k >> 4) % 16 * 4,
            "binop": ("i32.add", "i32.sub", "i32.mul", "i32.xor", "i32.and",
                      "i32.shl", "i32.shr_u")[k % 7],
            "trapop": ("i32.div_u", "i32.rem_s", "i32.div_s", "i32.rem_u")[k % 4],
            "cmp": ("i32.lt_u", "i32.ge_s", "i32.eq")[k % 3],
        }
        body += [line.format(**fields) for line in lines]
        h += (name in _PUSHES) - pops
    if h == 0:
        body.append("(i32.const 0)")
        h = 1
    body += ["(i32.xor)"] * (h - 1)
    return """
    (module (memory 1) (global $g (mut i32) (i32.const 17))
      (func $w (param i32) (result i32)
        (i32.store (i32.and (local.get 0) (i32.const 0x3ffc)) (local.get 0))
        (global.set $g (i32.add (global.get $g) (local.get 0)))
        (i32.mul (local.get 0) (i32.const 3)))
      (func (export "run") (param i32 i32) (result i32)
        (local i32 i32)
        %s))
    """ % "\n        ".join(body)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_STACK_OP_NAMES), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=40,
    ),
    st.tuples(u32s, u32s),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=0, max_value=80),
)
def test_differential_folded_stack_programs(draws, args, fuel_a, fuel_b):
    src = _gen_stack_module(draws)
    for fuel in (None, fuel_a, fuel_b):
        ref = _observe(ReferenceInterpreter, src, args, fuel)
        flat = _observe(Interpreter, src, args, fuel)
        assert flat == ref, f"flat: {flat} != {ref}\n{src}"
        spec = _observe(Interpreter, src, args, fuel, specialize=True)
        assert spec == ref, f"specialized: {spec} != {ref}\n{src}"
