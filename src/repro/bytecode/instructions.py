"""Generic bytecode codec: ``bytes`` ↔ ``[Instruction]``.

Each opcode gets one layout at import, built from its operand kinds
(:data:`~repro.bytecode.opcodes.OPERAND_FIELDS`), so a fixed-layout
instruction is decoded, sized and encoded with one table lookup and one
``unpack_from`` or ``pack``; only ``tableswitch``/``lookupswitch`` keep
code of their own.

Decoding is bounds-checked and raises :class:`InstructionError` on
truncated or unknown opcodes — the simulated verifier converts that into a
``VerifyError``/``ClassFormatError`` according to vendor policy.  Encoding
raises it for an operand that does not fit its field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bytecode.opcodes import OPCODES, OPERAND_FIELDS, Op, OpcodeInfo


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


def _layout(info: OpcodeInfo) -> tuple:
    """``(op, fixed, names, branch, wide)`` for one opcode: the ``Struct``
    of its fixed operand bytes (``None`` for the variable-length switches
    and the ``wide`` prefix), the operand names it fills in order, whether
    the one operand is a relative branch ``target``, and the ``Struct`` of
    its ``wide`` form, if any."""
    parts = [OPERAND_FIELDS.get(kind) for kind in info.operands]
    if None in parts:
        return info.op, None, (), False, None
    fixed = struct.Struct(">" + "".join(part.codes for part in parts))
    names = tuple(name for part in parts for name in part.names)
    wide = parts[0].wide if parts else None
    return (info.op, fixed, names, names == ("target",),
            wide and struct.Struct(">" + wide))


#: Opcode byte → its layout, ``None`` for an unknown opcode.
_LAYOUTS: List[Optional[tuple]] = [
    _layout(OPCODES[code]) if code in OPCODES else None for code in range(256)]

#: Operands an encoder may leave out: invokeinterface's and
#: invokedynamic's trailing bytes.
_DEFAULTS = {"count": 1, "zero": 0}


def decode_code(code: bytes) -> List[Instruction]:
    """Decode a full ``Code`` array into instructions.

    Raises:
        InstructionError: on unknown opcodes or truncated operands.
    """
    instructions: List[Instruction] = []
    append = instructions.append
    pos = 0
    length = len(code)
    while pos < length:
        layout = _LAYOUTS[code[pos]]
        if layout is None:
            raise InstructionError(
                f"unknown opcode {code[pos]:#04x} at offset {pos}")
        op, fixed, names, branch, _ = layout
        if fixed is None:
            instruction, pos = _decode_variable(code, pos, op)
        else:
            stop = pos + 1 + fixed.size
            if stop > length:
                raise _truncated(op, pos + 1, length)
            operands = dict(zip(names, fixed.unpack_from(code, pos + 1))) \
                if names else {}
            if branch:
                operands["target"] += pos
            instruction = Instruction(pos, op, operands)
            pos = stop
        append(instruction)
    return instructions


def _need(code: bytes, pos: int, count: int) -> None:
    if pos + count > len(code):
        raise InstructionError(
            f"truncated instruction at offset {pos} (need {count} bytes)")


def _truncated(op: Op, pos: int, length: int) -> InstructionError:
    """The error a kind-by-kind read of ``op``'s operands at ``pos`` meets:
    the first operand that runs past ``length`` is the one reported."""
    for kind in OPCODES[op].operands:
        size = struct.calcsize(">" + OPERAND_FIELDS[kind].codes)
        if pos + size > length:
            break
        pos += size
    return InstructionError(
        f"truncated instruction at offset {pos} (need {size} bytes)")


def _decode_variable(code: bytes, start: int,
                     op: Op) -> Tuple[Instruction, int]:
    """Decode a switch or a ``wide``-prefixed instruction at ``start``."""
    pos = start + 1
    if op is Op.WIDE_PREFIX:
        _need(code, pos, 1)
        modified = _LAYOUTS[code[pos]]
        if modified is None or modified[4] is None:
            raise InstructionError(
                f"wide prefix modifies unsupported opcode {code[pos]:#04x} "
                f"at {start}")
        op, _, names, _, wide = modified
        _need(code, pos + 1, wide.size)
        operands = dict(zip(names, wide.unpack_from(code, pos + 1)))
        operands["wide"] = True
        return Instruction(start, op, operands), pos + 1 + wide.size
    # Padding to 4-byte alignment relative to method start.
    pad = (4 - ((start + 1) % 4)) % 4
    _need(code, pos, pad)
    pos += pad
    _need(code, pos, 4)
    default = start + struct.unpack_from(">i", code, pos)[0]
    pos += 4
    if op is Op.TABLESWITCH:
        _need(code, pos, 8)
        low, high = struct.unpack_from(">ii", code, pos)
        pos += 8
        if high < low:
            raise InstructionError(
                f"tableswitch at {start} has high {high} < low {low}")
        count = high - low + 1
        if count > 0xFFFF:
            raise InstructionError(
                f"tableswitch at {start} has implausible span {count}")
        _need(code, pos, 4 * count)
        targets = [start + delta
                   for delta in struct.unpack_from(f">{count}i", code, pos)]
        operands = {"default": default, "low": low, "high": high,
                    "targets": targets}
        return Instruction(start, op, operands), pos + 4 * count
    _need(code, pos, 4)
    npairs = struct.unpack_from(">i", code, pos)[0]
    pos += 4
    if npairs < 0:
        raise InstructionError(
            f"lookupswitch at {start} has negative npairs {npairs}")
    _need(code, pos, 8 * npairs)
    words = struct.unpack_from(f">{2 * npairs}i", code, pos)
    pairs = [(match, start + delta)
             for match, delta in zip(words[::2], words[1::2])]
    operands = {"default": default, "pairs": pairs,
                "targets": [target for _, target in pairs]}
    return Instruction(start, op, operands), pos + 8 * npairs


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode_code(instructions: List[Instruction]) -> bytes:
    """Re-encode instructions, recomputing offsets and branch deltas.

    Instruction ``offset`` fields are treated as *labels*: branch targets
    refer to the original offsets, and the encoder maps them to the new
    layout.  Two passes handle the alignment-dependent switch padding.

    Raises:
        InstructionError: when a branch target does not name an
            instruction, or an operand does not fit its field.
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
        head, fields = _fields(instruction, pos)
        pos += len(head) + fields.size
    # Pass 2: emit with remapped targets.
    out = bytearray()
    for instruction in instructions:
        out += _encode_one(instruction, len(out), new_offsets)
    return bytes(out), new_offsets


def _fields(instruction: Instruction,
            pos: int) -> Tuple[bytes, struct.Struct]:
    """The bytes before an instruction's operands, and the ``Struct`` of
    the operands (a switch's: padding to 4-byte alignment relative to the
    method start, then 32-bit words)."""
    op, fixed, _, _, wide = _LAYOUTS[instruction.op]
    operands = instruction.operands
    if operands.get("wide"):
        if wide is None:
            raise InstructionError(f"{instruction.mnemonic} at "
                                   f"{instruction.offset} has no wide form")
        return bytes((Op.WIDE_PREFIX, op)), wide
    if fixed is None:
        pad = (4 - ((pos + 1) % 4)) % 4
        words = (3 + len(operands["targets"]) if op is Op.TABLESWITCH  # type: ignore[arg-type]
                 else 2 + 2 * len(operands["pairs"]))  # type: ignore[arg-type]
        fixed = struct.Struct(f">{pad}x{words}i")
    return bytes((op,)), fixed


def _map_target(target: int, new_offsets: Dict[int, int]) -> int:
    if target not in new_offsets:
        raise InstructionError(f"branch target {target} is not an instruction")
    return new_offsets[target]


def _encode_one(instruction: Instruction, pos: int,
                new_offsets: Dict[int, int]) -> bytes:
    head, fields = _fields(instruction, pos)
    op, fixed, names, branch, _ = _LAYOUTS[instruction.op]
    operands = instruction.operands
    if branch:
        values = [_map_target(operands["target"], new_offsets) - pos]  # type: ignore[arg-type]
    elif fixed is not None:
        values = [operands.get(name, _DEFAULTS.get(name)) for name in names]
    else:
        values = [_map_target(operands["default"], new_offsets) - pos]  # type: ignore[arg-type]
        if op is Op.TABLESWITCH:
            values += (operands["low"], operands["high"])
            values += [_map_target(target, new_offsets) - pos
                       for target in operands["targets"]]  # type: ignore[union-attr]
        else:
            values.append(len(operands["pairs"]))  # type: ignore[arg-type]
            for match, target in operands["pairs"]:  # type: ignore[union-attr]
                values += (match, _map_target(target, new_offsets) - pos)
    try:
        return head + fields.pack(*values)
    except struct.error:
        raise InstructionError(
            f"branch delta {values[0]} exceeds {8 * fields.size} bits"
            if branch else f"{instruction.mnemonic} at {instruction.offset}: "
            f"operands {values} do not fit its fields") from None
