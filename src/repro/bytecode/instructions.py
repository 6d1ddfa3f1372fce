"""Generic bytecode codec: ``bytes`` ↔ ``[Instruction]``.

Decoding is bounds-checked and raises :class:`InstructionError` on
truncated or unknown opcodes — the simulated verifier converts that into a
``VerifyError``/``ClassFormatError`` according to vendor policy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bytecode import opcodes as ops
from repro.bytecode.opcodes import OPCODES, Op, OpcodeInfo


class InstructionError(ValueError):
    """Raised when bytecode cannot be decoded or encoded."""


@dataclass
class Instruction:
    """One decoded instruction.

    Attributes:
        offset: bytecode offset of the opcode byte.
        op: the opcode.
        operands: decoded operand values keyed by role:

            * ``value`` — immediate (bipush/sipush/atype).
            * ``index`` — constant-pool or local-variable index.
            * ``target`` — absolute branch target offset.
            * ``const`` — iinc increment.
            * ``default``/``pairs``/``low``/``high``/``targets`` — switch data.
            * ``count``/``dimensions`` — invokeinterface / multianewarray.
            * ``wide`` — True when the instruction used the wide prefix.
    """

    offset: int
    op: Op
    operands: Dict[str, object] = field(default_factory=dict)

    @property
    def info(self) -> OpcodeInfo:
        """Static opcode metadata."""
        return OPCODES[self.op]

    @property
    def mnemonic(self) -> str:
        return self.info.mnemonic

    def branch_targets(self) -> List[int]:
        """Absolute offsets this instruction may branch to."""
        targets: List[int] = []
        if "target" in self.operands:
            targets.append(self.operands["target"])  # type: ignore[arg-type]
        if "default" in self.operands:
            targets.append(self.operands["default"])  # type: ignore[arg-type]
        if "targets" in self.operands:
            targets.extend(self.operands["targets"])  # type: ignore[arg-type]
        return targets

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        extra = " ".join(f"{k}={v}" for k, v in self.operands.items())
        return f"{self.offset}: {self.mnemonic} {extra}".rstrip()


def decode_code(code: bytes) -> List[Instruction]:
    """Decode a full ``Code`` array into instructions.

    Raises:
        InstructionError: on unknown opcodes or truncated operands.
    """
    instructions: List[Instruction] = []
    pos = 0
    length = len(code)
    while pos < length:
        instruction, pos = _decode_one(code, pos)
        instructions.append(instruction)
    return instructions


def _need(code: bytes, pos: int, count: int) -> None:
    if pos + count > len(code):
        raise InstructionError(
            f"truncated instruction at offset {pos} (need {count} bytes)")


def _decode_one(code: bytes, pos: int) -> Tuple[Instruction, int]:
    start = pos
    opcode = code[pos]
    pos += 1
    info = OPCODES.get(opcode)
    if info is None:
        raise InstructionError(f"unknown opcode {opcode:#04x} at offset {start}")
    operands: Dict[str, object] = {}
    for kind in info.operands:
        if kind == ops.S1:
            _need(code, pos, 1)
            operands["value"] = struct.unpack_from(">b", code, pos)[0]
            pos += 1
        elif kind == ops.S2:
            _need(code, pos, 2)
            operands["value"] = struct.unpack_from(">h", code, pos)[0]
            pos += 2
        elif kind == ops.U1:
            _need(code, pos, 1)
            operands["value"] = code[pos]
            pos += 1
        elif kind == ops.ATYPE:
            _need(code, pos, 1)
            operands["value"] = code[pos]
            pos += 1
        elif kind in (ops.U2, ops.CP2):
            _need(code, pos, 2)
            operands["index"] = struct.unpack_from(">H", code, pos)[0]
            pos += 2
        elif kind in (ops.LOCAL1, ops.CP1):
            _need(code, pos, 1)
            operands["index"] = code[pos]
            pos += 1
        elif kind == ops.BRANCH2:
            _need(code, pos, 2)
            rel = struct.unpack_from(">h", code, pos)[0]
            operands["target"] = start + rel
            pos += 2
        elif kind == ops.BRANCH4:
            _need(code, pos, 4)
            rel = struct.unpack_from(">i", code, pos)[0]
            operands["target"] = start + rel
            pos += 4
        elif kind == ops.IINC:
            _need(code, pos, 2)
            operands["index"] = code[pos]
            operands["const"] = struct.unpack_from(">b", code, pos + 1)[0]
            pos += 2
        elif kind == ops.INVOKEINTERFACE:
            _need(code, pos, 2)
            operands["count"] = code[pos]
            operands["zero"] = code[pos + 1]
            pos += 2
        elif kind == ops.INVOKEDYNAMIC:
            _need(code, pos, 2)
            operands["zero"] = struct.unpack_from(">H", code, pos)[0]
            pos += 2
        elif kind == ops.MULTIANEWARRAY:
            _need(code, pos, 3)
            operands["index"] = struct.unpack_from(">H", code, pos)[0]
            operands["dimensions"] = code[pos + 2]
            pos += 3
        elif kind == ops.SWITCH:
            pos = _decode_switch(code, start, pos, info.op, operands)
        elif kind == ops.WIDE:
            return _decode_wide(code, start, pos)
        else:  # pragma: no cover - table is closed
            raise InstructionError(f"unhandled operand kind {kind}")
    return Instruction(start, info.op, operands), pos


def _decode_switch(code: bytes, start: int, pos: int, op: Op,
                   operands: Dict[str, object]) -> int:
    # Padding to 4-byte alignment relative to method start.
    pad = (4 - ((start + 1) % 4)) % 4
    _need(code, pos, pad)
    pos += pad
    _need(code, pos, 4)
    operands["default"] = start + struct.unpack_from(">i", code, pos)[0]
    pos += 4
    if op is Op.TABLESWITCH:
        _need(code, pos, 8)
        low = struct.unpack_from(">i", code, pos)[0]
        high = struct.unpack_from(">i", code, pos + 4)[0]
        pos += 8
        if high < low:
            raise InstructionError(
                f"tableswitch at {start} has high {high} < low {low}")
        count = high - low + 1
        if count > 0xFFFF:
            raise InstructionError(
                f"tableswitch at {start} has implausible span {count}")
        _need(code, pos, 4 * count)
        targets = [start + struct.unpack_from(">i", code, pos + 4 * i)[0]
                   for i in range(count)]
        pos += 4 * count
        operands["low"] = low
        operands["high"] = high
        operands["targets"] = targets
    else:  # lookupswitch
        _need(code, pos, 4)
        npairs = struct.unpack_from(">i", code, pos)[0]
        pos += 4
        if npairs < 0:
            raise InstructionError(
                f"lookupswitch at {start} has negative npairs {npairs}")
        _need(code, pos, 8 * npairs)
        pairs = []
        targets = []
        for i in range(npairs):
            match = struct.unpack_from(">i", code, pos + 8 * i)[0]
            target = start + struct.unpack_from(">i", code, pos + 8 * i + 4)[0]
            pairs.append((match, target))
            targets.append(target)
        pos += 8 * npairs
        operands["pairs"] = pairs
        operands["targets"] = targets
    return pos


#: Opcodes the ``wide`` prefix widens to a two-byte local index: those
#: with a one-byte local operand (xload, xstore, ret).
_WIDE_LOCALS = frozenset(code for code, info in OPCODES.items()
                         if ops.LOCAL1 in info.operands)


def _decode_wide(code: bytes, start: int, pos: int) -> Tuple[Instruction, int]:
    _need(code, pos, 1)
    modified = code[pos]
    pos += 1
    if modified in _WIDE_LOCALS:
        _need(code, pos, 2)
        index = struct.unpack_from(">H", code, pos)[0]
        pos += 2
        return Instruction(start, OPCODES[modified].op,
                           {"index": index, "wide": True}), pos
    if modified == int(Op.IINC):
        _need(code, pos, 4)
        index = struct.unpack_from(">H", code, pos)[0]
        const = struct.unpack_from(">h", code, pos + 2)[0]
        pos += 4
        return Instruction(start, Op.IINC,
                           {"index": index, "const": const, "wide": True}), pos
    raise InstructionError(
        f"wide prefix modifies unsupported opcode {modified:#04x} at {start}")


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode_code(instructions: List[Instruction]) -> bytes:
    """Re-encode instructions, recomputing offsets and branch deltas.

    Instruction ``offset`` fields are treated as *labels*: branch targets
    refer to the original offsets, and the encoder maps them to the new
    layout.  Two passes handle the alignment-dependent switch padding.

    Raises:
        InstructionError: when a branch target does not name an instruction.
    """
    return encode_with_layout(instructions)[0]


def encode_with_layout(instructions: List[Instruction]
                       ) -> Tuple[bytes, Dict[int, int]]:
    """:func:`encode_code`, plus its layout: label → encoded byte offset.

    The layout maps each instruction's ``offset`` label to where the
    instruction starts in the returned bytes.
    """
    # Pass 1: lay out new offsets.
    new_offsets: Dict[int, int] = {}
    pos = 0
    for instruction in instructions:
        new_offsets[instruction.offset] = pos
        pos += _encoded_size(instruction, pos)
    # Pass 2: emit with remapped targets.
    out = bytearray()
    for instruction in instructions:
        out += _encode_one(instruction, len(out), new_offsets)
    return bytes(out), new_offsets


def _encoded_size(instruction: Instruction, pos: int) -> int:
    op = instruction.op
    if instruction.operands.get("wide"):
        return 6 if op is Op.IINC else 4
    if op is Op.TABLESWITCH:
        pad = (4 - ((pos + 1) % 4)) % 4
        count = len(instruction.operands["targets"])  # type: ignore[arg-type]
        return 1 + pad + 12 + 4 * count
    if op is Op.LOOKUPSWITCH:
        pad = (4 - ((pos + 1) % 4)) % 4
        count = len(instruction.operands["pairs"])  # type: ignore[arg-type]
        return 1 + pad + 8 + 8 * count
    size = 1
    for kind in instruction.info.operands:
        size += {ops.S1: 1, ops.U1: 1, ops.ATYPE: 1, ops.LOCAL1: 1,
                 ops.CP1: 1, ops.S2: 2, ops.U2: 2, ops.CP2: 2,
                 ops.BRANCH2: 2, ops.BRANCH4: 4, ops.IINC: 2,
                 ops.INVOKEINTERFACE: 2, ops.INVOKEDYNAMIC: 2,
                 ops.MULTIANEWARRAY: 3}[kind]
    return size


def _map_target(target: int, new_offsets: Dict[int, int]) -> int:
    if target not in new_offsets:
        raise InstructionError(f"branch target {target} is not an instruction")
    return new_offsets[target]


def _encode_one(instruction: Instruction, pos: int,
                new_offsets: Dict[int, int]) -> bytes:
    op = instruction.op
    operands = instruction.operands
    if operands.get("wide"):
        out = bytearray([int(Op.WIDE_PREFIX), int(op)])
        out += struct.pack(">H", operands["index"])
        if op is Op.IINC:
            out += struct.pack(">h", operands["const"])
        return bytes(out)
    out = bytearray([int(op)])
    if op in (Op.TABLESWITCH, Op.LOOKUPSWITCH):
        pad = (4 - ((pos + 1) % 4)) % 4
        out += b"\x00" * pad
        default = _map_target(operands["default"], new_offsets)  # type: ignore[arg-type]
        out += struct.pack(">i", default - pos)
        if op is Op.TABLESWITCH:
            out += struct.pack(">ii", operands["low"], operands["high"])
            for target in operands["targets"]:  # type: ignore[union-attr]
                out += struct.pack(">i", _map_target(target, new_offsets) - pos)
        else:
            pairs = operands["pairs"]  # type: ignore[assignment]
            out += struct.pack(">i", len(pairs))  # type: ignore[arg-type]
            for match, target in pairs:  # type: ignore[union-attr]
                out += struct.pack(
                    ">ii", match, _map_target(target, new_offsets) - pos)
        return bytes(out)
    for kind in instruction.info.operands:
        if kind == ops.S1:
            out += struct.pack(">b", operands["value"])
        elif kind == ops.S2:
            out += struct.pack(">h", operands["value"])
        elif kind in (ops.U1, ops.ATYPE):
            out += struct.pack(">B", operands["value"])
        elif kind in (ops.U2, ops.CP2):
            out += struct.pack(">H", operands["index"])
        elif kind in (ops.LOCAL1, ops.CP1):
            out += struct.pack(">B", operands["index"])
        elif kind == ops.BRANCH2:
            delta = _map_target(operands["target"], new_offsets) - pos  # type: ignore[arg-type]
            if not -0x8000 <= delta < 0x8000:
                raise InstructionError(f"branch delta {delta} exceeds 16 bits")
            out += struct.pack(">h", delta)
        elif kind == ops.BRANCH4:
            delta = _map_target(operands["target"], new_offsets) - pos  # type: ignore[arg-type]
            out += struct.pack(">i", delta)
        elif kind == ops.IINC:
            out += struct.pack(">Bb", operands["index"], operands["const"])
        elif kind == ops.INVOKEINTERFACE:
            out += struct.pack(">BB", operands.get("count", 1),
                               operands.get("zero", 0))
        elif kind == ops.INVOKEDYNAMIC:
            out += struct.pack(">H", operands.get("zero", 0))
        elif kind == ops.MULTIANEWARRAY:
            out += struct.pack(">HB", operands["index"],
                               operands["dimensions"])
        else:  # pragma: no cover - table is closed
            raise InstructionError(f"unhandled operand kind {kind}")
    return bytes(out)
