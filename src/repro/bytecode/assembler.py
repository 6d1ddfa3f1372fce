"""A small symbolic bytecode assembler.

Used by the Jimple→classfile compiler and by the seed corpus generator to
build ``Code`` attributes without hand-computing offsets.  Labels are
strings; branches reference labels and are resolved at :meth:`Assembler.build`
time through the generic encoder.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.bytecode.instructions import (
    Instruction,
    InstructionError,
    encode_with_layout,
)
from repro.bytecode.opcodes import Op


class Assembler:
    """Accumulates instructions and resolves labels.

    Example:
        >>> asm = Assembler()
        >>> asm.emit(Op.ICONST_0)
        >>> asm.branch(Op.IFEQ, "done")
        >>> asm.emit(Op.NOP)
        >>> asm.label("done")
        >>> asm.emit(Op.RETURN)
        >>> code = asm.build()
    """

    def __init__(self) -> None:
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._pending: List[Instruction] = []
        self._counter = 0
        #: After :meth:`build`: label name → byte offset in the encoded
        #: code (used to place exception-table entries).
        self.label_offsets: Dict[str, int] = {}

    def _next_offset(self) -> int:
        # Provisional offsets are just sequence numbers; the encoder
        # recomputes real byte offsets.
        self._counter += 1
        return self._counter - 1

    def label(self, name: str) -> None:
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise InstructionError(f"duplicate label {name!r}")
        self._labels[name] = self._counter

    def emit(self, op: Op, **operands: object) -> Instruction:
        """Append an instruction with literal operands."""
        instruction = Instruction(self._next_offset(), op, dict(operands))
        self._instructions.append(instruction)
        return instruction

    def branch(self, op: Op, target: Union[str, int]) -> Instruction:
        """Append a branch to a label (or provisional offset)."""
        instruction = self.emit(op)
        instruction.operands["target"] = target
        self._pending.append(instruction)
        return instruction

    def switch(self, op: Op, default: str,
               pairs: Optional[List[tuple]] = None,
               low: Optional[int] = None, high: Optional[int] = None,
               targets: Optional[List[str]] = None) -> Instruction:
        """Append a tableswitch/lookupswitch with label targets."""
        instruction = self.emit(op)
        instruction.operands["default"] = default
        if op is Op.TABLESWITCH:
            instruction.operands["low"] = low
            instruction.operands["high"] = high
            instruction.operands["targets"] = list(targets or [])
        else:
            instruction.operands["pairs"] = list(pairs or [])
            instruction.operands["targets"] = [t for _, t in (pairs or [])]
        self._pending.append(instruction)
        return instruction

    @property
    def instructions(self) -> List[Instruction]:
        """The instructions emitted so far (labels still unresolved)."""
        return self._instructions

    def build(self) -> bytes:
        """Resolve labels and encode to bytecode.

        Raises:
            InstructionError: for undefined labels.
        """
        def resolve(target: object) -> int:
            if isinstance(target, str):
                if target not in self._labels:
                    raise InstructionError(f"undefined label {target!r}")
                return self._labels[target]
            return int(target)  # already a provisional offset

        for instruction in self._pending:
            operands = instruction.operands
            if "target" in operands:
                operands["target"] = resolve(operands["target"])
            if "default" in operands:
                operands["default"] = resolve(operands["default"])
            if "targets" in operands:
                operands["targets"] = [resolve(t) for t in operands["targets"]]
            if "pairs" in operands:
                operands["pairs"] = [(m, resolve(t))
                                     for m, t in operands["pairs"]]
        self._pending.clear()
        code, layout = encode_with_layout(self._instructions)
        # A label past the last instruction marks the end of the code.
        self.label_offsets = {
            name: layout.get(position, len(code))
            for name, position in self._labels.items()}
        return code
