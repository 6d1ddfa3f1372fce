"""A javap-style classfile disassembler.

Produces output in the format of ``javap -v`` that the paper's Figure 2
shows: header with version and flags, the constant pool, and per-method
code listings with symbolic comments.  Used by the CLI (``repro inspect``)
and by discrepancy reports.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.bytecode.instructions import InstructionError, decode_code
from repro.bytecode.opcodes import POOL_INDEX_OPS
from repro.classfile.access_flags import flag_names
from repro.classfile.attributes import (
    CodeAttribute,
    ConstantValueAttribute,
    ExceptionsAttribute,
    SourceFileAttribute,
)
from repro.classfile.constant_pool import ConstantPool, CpTag
from repro.classfile.descriptors import (
    DescriptorError,
    parse_field_descriptor,
    parse_method_descriptor,
)
from repro.classfile.model import ClassFile

def _safe(fn, fallback="?"):
    try:
        return fn()
    except Exception:
        return fallback


def _describe_constant(pool: ConstantPool, index: int) -> str:
    """A javap-style ``// comment`` for a constant-pool operand."""
    entry = pool.maybe_entry(index)
    if entry is None:
        return "<dangling>"
    if entry.tag is CpTag.CLASS:
        return "class " + _safe(lambda: pool.get_class_name(index))
    if entry.tag is CpTag.STRING:
        return "String " + _safe(lambda: pool.get_string(index))
    if entry.tag in (CpTag.FIELDREF, CpTag.METHODREF,
                     CpTag.INTERFACE_METHODREF):
        def render():
            owner, name, descriptor = pool.get_member_ref(index)
            kind = {CpTag.FIELDREF: "Field", CpTag.METHODREF: "Method",
                    CpTag.INTERFACE_METHODREF: "InterfaceMethod"}[entry.tag]
            return f"{kind} {owner}.{name}:{descriptor}"
        return _safe(render)
    return f"{entry.tag.name.title()} {entry.value}"


def _render_cp_entry(pool: ConstantPool, index: int) -> str:
    entry = pool.maybe_entry(index)
    if entry is None:
        return ""
    tag = entry.tag
    if tag is CpTag.UTF8:
        return f"Utf8               {entry.value}"
    if tag in (CpTag.INTEGER, CpTag.FLOAT, CpTag.LONG, CpTag.DOUBLE):
        return f"{tag.name.title():18s} {entry.value}"
    if tag is CpTag.CLASS:
        (utf8,) = entry.value
        name = _safe(lambda: pool.get_class_name(index))
        return f"Class              #{utf8:<13d} // {name}"
    if tag is CpTag.STRING:
        (utf8,) = entry.value
        return f"String             #{utf8:<13d} // " + \
            _safe(lambda: pool.get_string(index))
    if tag is CpTag.NAME_AND_TYPE:
        a, b = entry.value
        def render():
            name, descriptor = pool.get_name_and_type(index)
            return f"{name}:{descriptor}"
        return f"NameAndType        #{a}:#{b:<10d} // {_safe(render)}"
    if tag in (CpTag.FIELDREF, CpTag.METHODREF, CpTag.INTERFACE_METHODREF):
        a, b = entry.value
        label = {CpTag.FIELDREF: "Fieldref", CpTag.METHODREF: "Methodref",
                 CpTag.INTERFACE_METHODREF: "InterfaceMethodref"}[tag]
        return (f"{label:18s} #{a}.#{b:<11d} // "
                + _describe_constant(pool, index))
    return f"{tag.name:18s} {entry.value}"


def _method_signature(classfile: ClassFile, method) -> str:
    name = _safe(lambda: classfile.method_name(method))
    descriptor = _safe(lambda: classfile.method_descriptor(method), "()V")
    try:
        parsed = parse_method_descriptor(descriptor)
        params = ", ".join(p.java_name for p in parsed.parameters)
        ret = parsed.return_type.java_name if parsed.return_type else "void"
    except DescriptorError:
        params, ret = "?", "?"
    modifiers = flag_names(method.access_flags).replace(
        "ACC_", "").lower().replace(",", "")
    if name == "<clinit>":
        rendered = f"{{}};" if not params else f"({params});"
        return f"{modifiers} {rendered}".strip()
    return f"{modifiers} {ret} {name}({params});".strip()


def disassemble(classfile: ClassFile, data: bytes = b"",
                show_constant_pool: bool = True) -> str:
    """Render ``classfile`` like ``javap -v`` (Figure 2 of the paper)."""
    pool = classfile.constant_pool
    lines: List[str] = []
    if data:
        digest = hashlib.md5(data).hexdigest()
        lines.append(f"  MD5 checksum {digest}")
    kind = "interface" if classfile.is_interface else "class"
    lines.append(f"{kind} {_safe(lambda: classfile.name)}")
    lines.append(f"  minor version: {classfile.minor_version}")
    lines.append(f"  major version: {classfile.major_version}")
    lines.append(f"  flags: {flag_names(classfile.access_flags)}")
    super_name = _safe(lambda: classfile.super_name, None)
    if super_name:
        lines.append(f"  super: {super_name}")
    interfaces = _safe(lambda: classfile.interface_names, [])
    if interfaces:
        lines.append("  interfaces: " + ", ".join(interfaces))
    if show_constant_pool:
        lines.append("Constant pool:")
        for index, _ in pool:
            rendered = _render_cp_entry(pool, index)
            if rendered:
                lines.append(f"  #{index:<3d}= {rendered}")
    lines.append("{")
    for field_info in classfile.fields:
        name = _safe(lambda: classfile.field_name(field_info))
        descriptor = _safe(lambda: classfile.field_descriptor(field_info),
                           "?")
        try:
            java_type = parse_field_descriptor(descriptor).java_name
        except DescriptorError:
            java_type = descriptor
        modifiers = flag_names(field_info.access_flags).replace(
            "ACC_", "").lower().replace(",", "")
        lines.append(f"  {modifiers} {java_type} {name};".replace("  ", " "))
        lines.append(f"    descriptor: {descriptor}")
        lines.append(f"    flags: {flag_names(field_info.access_flags)}")
        constant = field_info.attribute("ConstantValue")
        if isinstance(constant, ConstantValueAttribute):
            lines.append(
                "    ConstantValue: "
                + _describe_constant(pool, constant.constant_index))
        lines.append("")
    for method in classfile.methods:
        lines.append(f"  {_method_signature(classfile, method)}")
        lines.append("    descriptor: "
                     + _safe(lambda: classfile.method_descriptor(method)))
        lines.append(f"    flags: {flag_names(method.access_flags)}")
        code = method.code
        if isinstance(code, CodeAttribute):
            lines.append("    Code:")
            lines.append(f"      stack={code.max_stack}, "
                         f"locals={code.max_locals}")
            lines.extend(_render_code(pool, code))
        exceptions = method.exceptions
        if isinstance(exceptions, ExceptionsAttribute):
            names = _safe(lambda: exceptions.exception_names(pool), [])
            lines.append("    Exceptions:")
            lines.append("      throws " + ", ".join(names))
        lines.append("")
    source = classfile.attribute("SourceFile")
    if isinstance(source, SourceFileAttribute):
        lines.append("  SourceFile: \""
                     + _safe(lambda: pool.get_utf8(source.sourcefile_index))
                     + "\"")
    lines.append("}")
    return "\n".join(lines)


def _render_code(pool: ConstantPool, code: CodeAttribute) -> List[str]:
    lines: List[str] = []
    try:
        instructions = decode_code(code.code)
    except InstructionError as exc:
        return [f"      <undecodable: {exc}>"]
    for instruction in instructions:
        operand_text = ""
        comment = ""
        operands = instruction.operands
        if instruction.op in POOL_INDEX_OPS:
            operand_text = f" #{operands['index']}"
            comment = _describe_constant(pool, operands["index"])
        elif "index" in operands:
            operand_text = f" {operands['index']}"
        elif "value" in operands:
            operand_text = f" {operands['value']}"
        elif "target" in operands:
            operand_text = f" {operands['target']}"
        if "const" in operands:
            operand_text += f", {operands['const']}"
        line = (f"      {instruction.offset:4d}: "
                f"{instruction.mnemonic}{operand_text}")
        if comment:
            line = f"{line:50s} // {comment}"
        lines.append(line)
    for handler in code.exception_table:
        catch = "any" if not handler.catch_type else \
            _safe(lambda: pool.get_class_name(handler.catch_type))
        lines.append(f"      Exception table: {handler.start_pc}.."
                     f"{handler.end_pc} -> {handler.handler_pc} "
                     f"(catch {catch})")
    return lines
