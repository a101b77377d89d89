"""Opcode table for the MVP core instruction set (+ small extensions).

Each instruction is identified in the AST by its canonical text name
(``"i32.add"``). This module maps names to binary opcodes and describes
each opcode's immediate encoding so the encoder/decoder can be generic.

Immediate kinds:

* ``NONE`` — no immediates,
* ``BLOCK`` — block type (structured instruction; body follows),
* ``IDX`` — one u32 index (local/global/func/label),
* ``MEMARG`` — align u32 + offset u32,
* ``BR_TABLE`` — vector of label indices + default,
* ``CALL_INDIRECT`` — type index u32 + table byte (0x00),
* ``I32`` / ``I64`` — signed LEB immediates,
* ``F32`` / ``F64`` — little-endian IEEE-754 immediates,
* ``MEM`` — single 0x00 byte (memory.size/grow),
* ``MEM2`` — two 0x00 bytes (memory.copy),
* ``DATA_IDX`` — data segment index (data.drop),
* ``DATA_MEM`` — data segment index + 0x00 memory byte (memory.init).
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple


class Imm(enum.Enum):
    NONE = "none"
    BLOCK = "block"
    IDX = "idx"
    MEMARG = "memarg"
    BR_TABLE = "br_table"
    CALL_INDIRECT = "call_indirect"
    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    F64 = "f64"
    MEM = "mem"
    MEM2 = "mem2"
    DATA_IDX = "data_idx"
    DATA_MEM = "data_mem"


# name -> (opcode, immediate kind). 0xFC-prefixed extension opcodes are
# encoded as 0xFC00 | sub-opcode.
OPCODES: Dict[str, Tuple[int, Imm]] = {
    # Control
    "unreachable": (0x00, Imm.NONE),
    "nop": (0x01, Imm.NONE),
    "block": (0x02, Imm.BLOCK),
    "loop": (0x03, Imm.BLOCK),
    "if": (0x04, Imm.BLOCK),
    "else": (0x05, Imm.NONE),
    "end": (0x0B, Imm.NONE),
    "br": (0x0C, Imm.IDX),
    "br_if": (0x0D, Imm.IDX),
    "br_table": (0x0E, Imm.BR_TABLE),
    "return": (0x0F, Imm.NONE),
    "call": (0x10, Imm.IDX),
    "call_indirect": (0x11, Imm.CALL_INDIRECT),
    # Parametric
    "drop": (0x1A, Imm.NONE),
    "select": (0x1B, Imm.NONE),
    # Variable
    "local.get": (0x20, Imm.IDX),
    "local.set": (0x21, Imm.IDX),
    "local.tee": (0x22, Imm.IDX),
    "global.get": (0x23, Imm.IDX),
    "global.set": (0x24, Imm.IDX),
    # Memory loads
    "i32.load": (0x28, Imm.MEMARG),
    "i64.load": (0x29, Imm.MEMARG),
    "f32.load": (0x2A, Imm.MEMARG),
    "f64.load": (0x2B, Imm.MEMARG),
    "i32.load8_s": (0x2C, Imm.MEMARG),
    "i32.load8_u": (0x2D, Imm.MEMARG),
    "i32.load16_s": (0x2E, Imm.MEMARG),
    "i32.load16_u": (0x2F, Imm.MEMARG),
    "i64.load8_s": (0x30, Imm.MEMARG),
    "i64.load8_u": (0x31, Imm.MEMARG),
    "i64.load16_s": (0x32, Imm.MEMARG),
    "i64.load16_u": (0x33, Imm.MEMARG),
    "i64.load32_s": (0x34, Imm.MEMARG),
    "i64.load32_u": (0x35, Imm.MEMARG),
    # Memory stores
    "i32.store": (0x36, Imm.MEMARG),
    "i64.store": (0x37, Imm.MEMARG),
    "f32.store": (0x38, Imm.MEMARG),
    "f64.store": (0x39, Imm.MEMARG),
    "i32.store8": (0x3A, Imm.MEMARG),
    "i32.store16": (0x3B, Imm.MEMARG),
    "i64.store8": (0x3C, Imm.MEMARG),
    "i64.store16": (0x3D, Imm.MEMARG),
    "i64.store32": (0x3E, Imm.MEMARG),
    "memory.size": (0x3F, Imm.MEM),
    "memory.grow": (0x40, Imm.MEM),
    # Constants
    "i32.const": (0x41, Imm.I32),
    "i64.const": (0x42, Imm.I64),
    "f32.const": (0x43, Imm.F32),
    "f64.const": (0x44, Imm.F64),
    # i32 comparisons
    "i32.eqz": (0x45, Imm.NONE),
    "i32.eq": (0x46, Imm.NONE),
    "i32.ne": (0x47, Imm.NONE),
    "i32.lt_s": (0x48, Imm.NONE),
    "i32.lt_u": (0x49, Imm.NONE),
    "i32.gt_s": (0x4A, Imm.NONE),
    "i32.gt_u": (0x4B, Imm.NONE),
    "i32.le_s": (0x4C, Imm.NONE),
    "i32.le_u": (0x4D, Imm.NONE),
    "i32.ge_s": (0x4E, Imm.NONE),
    "i32.ge_u": (0x4F, Imm.NONE),
    # i64 comparisons
    "i64.eqz": (0x50, Imm.NONE),
    "i64.eq": (0x51, Imm.NONE),
    "i64.ne": (0x52, Imm.NONE),
    "i64.lt_s": (0x53, Imm.NONE),
    "i64.lt_u": (0x54, Imm.NONE),
    "i64.gt_s": (0x55, Imm.NONE),
    "i64.gt_u": (0x56, Imm.NONE),
    "i64.le_s": (0x57, Imm.NONE),
    "i64.le_u": (0x58, Imm.NONE),
    "i64.ge_s": (0x59, Imm.NONE),
    "i64.ge_u": (0x5A, Imm.NONE),
    # f32 comparisons
    "f32.eq": (0x5B, Imm.NONE),
    "f32.ne": (0x5C, Imm.NONE),
    "f32.lt": (0x5D, Imm.NONE),
    "f32.gt": (0x5E, Imm.NONE),
    "f32.le": (0x5F, Imm.NONE),
    "f32.ge": (0x60, Imm.NONE),
    # f64 comparisons
    "f64.eq": (0x61, Imm.NONE),
    "f64.ne": (0x62, Imm.NONE),
    "f64.lt": (0x63, Imm.NONE),
    "f64.gt": (0x64, Imm.NONE),
    "f64.le": (0x65, Imm.NONE),
    "f64.ge": (0x66, Imm.NONE),
    # i32 arithmetic
    "i32.clz": (0x67, Imm.NONE),
    "i32.ctz": (0x68, Imm.NONE),
    "i32.popcnt": (0x69, Imm.NONE),
    "i32.add": (0x6A, Imm.NONE),
    "i32.sub": (0x6B, Imm.NONE),
    "i32.mul": (0x6C, Imm.NONE),
    "i32.div_s": (0x6D, Imm.NONE),
    "i32.div_u": (0x6E, Imm.NONE),
    "i32.rem_s": (0x6F, Imm.NONE),
    "i32.rem_u": (0x70, Imm.NONE),
    "i32.and": (0x71, Imm.NONE),
    "i32.or": (0x72, Imm.NONE),
    "i32.xor": (0x73, Imm.NONE),
    "i32.shl": (0x74, Imm.NONE),
    "i32.shr_s": (0x75, Imm.NONE),
    "i32.shr_u": (0x76, Imm.NONE),
    "i32.rotl": (0x77, Imm.NONE),
    "i32.rotr": (0x78, Imm.NONE),
    # i64 arithmetic
    "i64.clz": (0x79, Imm.NONE),
    "i64.ctz": (0x7A, Imm.NONE),
    "i64.popcnt": (0x7B, Imm.NONE),
    "i64.add": (0x7C, Imm.NONE),
    "i64.sub": (0x7D, Imm.NONE),
    "i64.mul": (0x7E, Imm.NONE),
    "i64.div_s": (0x7F, Imm.NONE),
    "i64.div_u": (0x80, Imm.NONE),
    "i64.rem_s": (0x81, Imm.NONE),
    "i64.rem_u": (0x82, Imm.NONE),
    "i64.and": (0x83, Imm.NONE),
    "i64.or": (0x84, Imm.NONE),
    "i64.xor": (0x85, Imm.NONE),
    "i64.shl": (0x86, Imm.NONE),
    "i64.shr_s": (0x87, Imm.NONE),
    "i64.shr_u": (0x88, Imm.NONE),
    "i64.rotl": (0x89, Imm.NONE),
    "i64.rotr": (0x8A, Imm.NONE),
    # f32 arithmetic
    "f32.abs": (0x8B, Imm.NONE),
    "f32.neg": (0x8C, Imm.NONE),
    "f32.ceil": (0x8D, Imm.NONE),
    "f32.floor": (0x8E, Imm.NONE),
    "f32.trunc": (0x8F, Imm.NONE),
    "f32.nearest": (0x90, Imm.NONE),
    "f32.sqrt": (0x91, Imm.NONE),
    "f32.add": (0x92, Imm.NONE),
    "f32.sub": (0x93, Imm.NONE),
    "f32.mul": (0x94, Imm.NONE),
    "f32.div": (0x95, Imm.NONE),
    "f32.min": (0x96, Imm.NONE),
    "f32.max": (0x97, Imm.NONE),
    "f32.copysign": (0x98, Imm.NONE),
    # f64 arithmetic
    "f64.abs": (0x99, Imm.NONE),
    "f64.neg": (0x9A, Imm.NONE),
    "f64.ceil": (0x9B, Imm.NONE),
    "f64.floor": (0x9C, Imm.NONE),
    "f64.trunc": (0x9D, Imm.NONE),
    "f64.nearest": (0x9E, Imm.NONE),
    "f64.sqrt": (0x9F, Imm.NONE),
    "f64.add": (0xA0, Imm.NONE),
    "f64.sub": (0xA1, Imm.NONE),
    "f64.mul": (0xA2, Imm.NONE),
    "f64.div": (0xA3, Imm.NONE),
    "f64.min": (0xA4, Imm.NONE),
    "f64.max": (0xA5, Imm.NONE),
    "f64.copysign": (0xA6, Imm.NONE),
    # Conversions
    "i32.wrap_i64": (0xA7, Imm.NONE),
    "i32.trunc_f32_s": (0xA8, Imm.NONE),
    "i32.trunc_f32_u": (0xA9, Imm.NONE),
    "i32.trunc_f64_s": (0xAA, Imm.NONE),
    "i32.trunc_f64_u": (0xAB, Imm.NONE),
    "i64.extend_i32_s": (0xAC, Imm.NONE),
    "i64.extend_i32_u": (0xAD, Imm.NONE),
    "i64.trunc_f32_s": (0xAE, Imm.NONE),
    "i64.trunc_f32_u": (0xAF, Imm.NONE),
    "i64.trunc_f64_s": (0xB0, Imm.NONE),
    "i64.trunc_f64_u": (0xB1, Imm.NONE),
    "f32.convert_i32_s": (0xB2, Imm.NONE),
    "f32.convert_i32_u": (0xB3, Imm.NONE),
    "f32.convert_i64_s": (0xB4, Imm.NONE),
    "f32.convert_i64_u": (0xB5, Imm.NONE),
    "f32.demote_f64": (0xB6, Imm.NONE),
    "f64.convert_i32_s": (0xB7, Imm.NONE),
    "f64.convert_i32_u": (0xB8, Imm.NONE),
    "f64.convert_i64_s": (0xB9, Imm.NONE),
    "f64.convert_i64_u": (0xBA, Imm.NONE),
    "f64.promote_f32": (0xBB, Imm.NONE),
    "i32.reinterpret_f32": (0xBC, Imm.NONE),
    "i64.reinterpret_f64": (0xBD, Imm.NONE),
    "f32.reinterpret_i32": (0xBE, Imm.NONE),
    "f64.reinterpret_i64": (0xBF, Imm.NONE),
    # Sign-extension extension
    "i32.extend8_s": (0xC0, Imm.NONE),
    "i32.extend16_s": (0xC1, Imm.NONE),
    "i64.extend8_s": (0xC2, Imm.NONE),
    "i64.extend16_s": (0xC3, Imm.NONE),
    "i64.extend32_s": (0xC4, Imm.NONE),
    # 0xFC-prefixed: saturating truncation + bulk memory subset
    "i32.trunc_sat_f32_s": (0xFC00, Imm.NONE),
    "i32.trunc_sat_f32_u": (0xFC01, Imm.NONE),
    "i32.trunc_sat_f64_s": (0xFC02, Imm.NONE),
    "i32.trunc_sat_f64_u": (0xFC03, Imm.NONE),
    "i64.trunc_sat_f32_s": (0xFC04, Imm.NONE),
    "i64.trunc_sat_f32_u": (0xFC05, Imm.NONE),
    "i64.trunc_sat_f64_s": (0xFC06, Imm.NONE),
    "i64.trunc_sat_f64_u": (0xFC07, Imm.NONE),
    "memory.init": (0xFC08, Imm.DATA_MEM),
    "data.drop": (0xFC09, Imm.DATA_IDX),
    "memory.copy": (0xFC0A, Imm.MEM2),
    "memory.fill": (0xFC0B, Imm.MEM),
}

OP_TO_NAME: Dict[int, str] = {code: name for name, (code, _imm) in OPCODES.items()}

# Structured instructions (carry a body in the AST).
STRUCTURED = frozenset({"block", "loop", "if"})


def opcode(name: str) -> int:
    return OPCODES[name][0]
