"""Numeric value semantics for the interpreter.

Integers are stored **unsigned** (``0 .. 2**N - 1``); helpers convert to the
signed view where an operation is sign-sensitive. Floats are Python floats;
f32 results are rounded through a 32-bit pack/unpack to get correct single
precision.
"""

from __future__ import annotations

import math
import struct

from repro.errors import WasmTrap

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def wrap32(x: int) -> int:
    return x & MASK32


def wrap64(x: int) -> int:
    return x & MASK64


def signed32(x: int) -> int:
    x &= MASK32
    return x - 0x1_0000_0000 if x >= 0x8000_0000 else x


def signed64(x: int) -> int:
    x &= MASK64
    return x - 0x1_0000_0000_0000_0000 if x >= 0x8000_0000_0000_0000 else x


def f32_round(x: float) -> float:
    """Round a Python float to the nearest representable f32."""
    return struct.unpack("<f", struct.pack("<f", x))[0]


# -- integer division / remainder (trap semantics) ---------------------------


def idiv_s(a: int, b: int, bits: int) -> int:
    sa = signed32(a) if bits == 32 else signed64(a)
    sb = signed32(b) if bits == 32 else signed64(b)
    if sb == 0:
        raise WasmTrap("integer divide by zero")
    # Wasm truncates toward zero; Python floors — use explicit truncation.
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    lo = -(1 << (bits - 1))
    if q == -lo:  # overflow: INT_MIN / -1
        raise WasmTrap("integer overflow")
    return q & (MASK32 if bits == 32 else MASK64)


def idiv_u(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise WasmTrap("integer divide by zero")
    return a // b


def irem_s(a: int, b: int, bits: int) -> int:
    sa = signed32(a) if bits == 32 else signed64(a)
    sb = signed32(b) if bits == 32 else signed64(b)
    if sb == 0:
        raise WasmTrap("integer divide by zero")
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & (MASK32 if bits == 32 else MASK64)


def irem_u(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise WasmTrap("integer divide by zero")
    return a % b


# -- bit operations -----------------------------------------------------------


def clz(x: int, bits: int) -> int:
    if x == 0:
        return bits
    return bits - x.bit_length()


def ctz(x: int, bits: int) -> int:
    if x == 0:
        return bits
    return (x & -x).bit_length() - 1


def popcnt(x: int) -> int:
    return bin(x).count("1")


def rotl(x: int, k: int, bits: int) -> int:
    k %= bits
    mask = MASK32 if bits == 32 else MASK64
    return ((x << k) | (x >> (bits - k))) & mask


def rotr(x: int, k: int, bits: int) -> int:
    k %= bits
    mask = MASK32 if bits == 32 else MASK64
    return ((x >> k) | (x << (bits - k))) & mask


def shl(x: int, k: int, bits: int) -> int:
    mask = MASK32 if bits == 32 else MASK64
    return (x << (k % bits)) & mask


def shr_u(x: int, k: int, bits: int) -> int:
    return x >> (k % bits)


def shr_s(x: int, k: int, bits: int) -> int:
    s = signed32(x) if bits == 32 else signed64(x)
    mask = MASK32 if bits == 32 else MASK64
    return (s >> (k % bits)) & mask


def sign_extend(x: int, from_bits: int, to_bits: int) -> int:
    """Sign-extend the low ``from_bits`` of x to ``to_bits``."""
    x &= (1 << from_bits) - 1
    if x & (1 << (from_bits - 1)):
        x -= 1 << from_bits
    return x & ((1 << to_bits) - 1)


# -- float → int truncation ----------------------------------------------------


def trunc_checked(x: float, bits: int, signed: bool) -> int:
    if math.isnan(x):
        raise WasmTrap("invalid conversion to integer")
    t = math.trunc(x) if math.isfinite(x) else x
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    if not math.isfinite(x) or t < lo or t > hi:
        raise WasmTrap("integer overflow")
    return int(t) & ((1 << bits) - 1)


def trunc_sat(x: float, bits: int, signed: bool) -> int:
    if math.isnan(x):
        return 0
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    if x == math.inf or (math.isfinite(x) and math.trunc(x) > hi):
        return hi & ((1 << bits) - 1)
    if x == -math.inf or (math.isfinite(x) and math.trunc(x) < lo):
        return lo & ((1 << bits) - 1)
    return int(math.trunc(x)) & ((1 << bits) - 1)


# -- float min/max/nearest (Wasm NaN/zero semantics) ---------------------------


def fmin(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        # min(-0, +0) = -0
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def fmax(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def fnearest(x: float) -> float:
    """Round-to-nearest, ties to even (Wasm `nearest`)."""
    if not math.isfinite(x):
        return x
    floor_x = math.floor(x)
    diff = x - floor_x
    if diff < 0.5:
        result = floor_x
    elif diff > 0.5:
        result = floor_x + 1.0
    else:
        result = floor_x if math.fmod(floor_x, 2.0) == 0.0 else floor_x + 1.0
    # Preserve the sign of zero for inputs in (-0.5, -0.0].
    if result == 0.0 and math.copysign(1.0, x) < 0:
        return -0.0
    return result


# -- bit reinterpretation -------------------------------------------------------


def f32_to_bits(x: float) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


def bits_to_f32(b: int) -> float:
    return struct.unpack("<f", struct.pack("<I", b & MASK32))[0]


def f64_to_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def bits_to_f64(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b & MASK64))[0]


def default_value(valtype) -> object:
    """Zero value for locals and fresh globals."""
    from repro.wasm.types import ValType

    return 0.0 if valtype in (ValType.F32, ValType.F64) else 0
