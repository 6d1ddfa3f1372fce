"""Transfer constant-pool entries and code between classfiles.

When the lifter cannot recover Jimple statements from a method body, it
carries the body as raw code.  On dump, the code's constant-pool operands
point into the *source* class's pool, so they must be re-interned into the
target pool and the bytecode rewritten — this module implements that.
"""

from __future__ import annotations

from typing import List

from repro.bytecode.instructions import (
    Instruction,
    InstructionError,
    decode_code,
    encode_code,
)
from repro.bytecode.opcodes import POOL_INDEX_OPS
from repro.classfile.attributes import CodeAttribute, ExceptionHandler
from repro.classfile.constant_pool import (
    ConstantPool,
    ConstantPoolError,
    CpTag,
)


class RemapError(Exception):
    """A constant or instruction could not be transferred."""


def transfer_constant(source: ConstantPool, target: ConstantPool,
                      index: int) -> int:
    """Re-intern the entry at ``index`` of ``source`` into ``target``.

    Returns the entry's index in ``target``.

    Raises:
        RemapError: for dangling or structurally broken entries.
    """
    try:
        info = source.entry(index)
    except ConstantPoolError as exc:
        raise RemapError(f"dangling constant pool index {index}: {exc}") from exc
    tag = info.tag
    try:
        if tag is CpTag.UTF8:
            return target.utf8(info.value)  # type: ignore[arg-type]
        if tag is CpTag.INTEGER:
            return target.integer(info.value)  # type: ignore[arg-type]
        if tag is CpTag.FLOAT:
            return target.float_(info.value)  # type: ignore[arg-type]
        if tag is CpTag.LONG:
            return target.long(info.value)  # type: ignore[arg-type]
        if tag is CpTag.DOUBLE:
            return target.double(info.value)  # type: ignore[arg-type]
        if tag is CpTag.CLASS:
            return target.class_ref(source.get_class_name(index))
        if tag is CpTag.STRING:
            return target.string(source.get_string(index))
        if tag is CpTag.NAME_AND_TYPE:
            name, descriptor = source.get_name_and_type(index)
            return target.name_and_type(name, descriptor)
        if tag in (CpTag.FIELDREF, CpTag.METHODREF, CpTag.INTERFACE_METHODREF):
            owner, name, descriptor = source.get_member_ref(index)
            if tag is CpTag.FIELDREF:
                return target.field_ref(owner, name, descriptor)
            if tag is CpTag.METHODREF:
                return target.method_ref(owner, name, descriptor)
            return target.interface_method_ref(owner, name, descriptor)
    except ConstantPoolError as exc:
        raise RemapError(f"broken constant at index {index}: {exc}") from exc
    raise RemapError(f"cannot transfer constant tag {tag.name}")


def remap_code(code: CodeAttribute, source: ConstantPool,
               target: ConstantPool) -> CodeAttribute:
    """Rewrite ``code`` so its constant-pool operands index into ``target``.

    Raises:
        RemapError: when the bytecode cannot be decoded, a constant
            cannot be transferred, or a transferred index does not fit its
            operand (an ``ldc`` past entry 255).
    """
    try:
        instructions: List[Instruction] = decode_code(code.code)
    except InstructionError as exc:
        raise RemapError(f"undecodable bytecode: {exc}") from exc
    for instruction in instructions:
        if instruction.op in POOL_INDEX_OPS:
            old_index = instruction.operands["index"]
            instruction.operands["index"] = transfer_constant(
                source, target, old_index)  # type: ignore[arg-type]
    try:
        new_bytes = encode_code(instructions)
    except InstructionError as exc:
        raise RemapError(f"unencodable bytecode: {exc}") from exc
    if new_bytes != code.code and code.exception_table:
        # Offsets may have shifted; exception-table pcs would dangle.  The
        # encoder is deterministic, so this only happens when constants
        # were re-packed into different index widths — rare, but unsafe.
        raise RemapError("exception table cannot survive re-layout")
    table = []
    for handler in code.exception_table:
        catch_type = handler.catch_type
        if catch_type:
            catch_type = transfer_constant(source, target, catch_type)
        table.append(ExceptionHandler(handler.start_pc, handler.end_pc,
                                      handler.handler_pc, catch_type))
    return CodeAttribute(code.max_stack, code.max_locals, new_bytes, table, [])
