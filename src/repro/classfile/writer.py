"""Binary classfile serializer — the inverse of :mod:`repro.classfile.reader`.

The writer is deliberately permissive: mutators may have produced structures
a strict JVM must reject (dangling indices, contradictory flags), and the
writer's job is to emit exactly those bytes so the *JVMs under test* make
the accept/reject decision, not the serializer.
"""

from __future__ import annotations

import struct
from typing import List

from repro.classfile.attributes import (
    Attribute,
    CodeAttribute,
    ConstantValueAttribute,
    ExceptionsAttribute,
    RawAttribute,
    SourceFileAttribute,
)
from repro.classfile.constant_pool import ConstantPool, CpTag
from repro.classfile.model import MAGIC, ClassFile


_U2 = struct.Struct(">H")
_U4 = struct.Struct(">I")
_HEADER = struct.Struct(">IHH")
_THREE_U2 = struct.Struct(">HHH")
_ATTRIBUTE_HEADER = struct.Struct(">HI")
_CODE_HEADER = struct.Struct(">HHI")
_HANDLER = struct.Struct(">HHHH")

#: Tag → (its entry's packer, tag byte included, and how the value is
#: packed).  Utf8's packer writes the tag and length; the bytes follow.
_TEXT, _INT32, _INT64, _FLOAT, _INDICES = range(5)
_CP_PACKERS = {
    CpTag.UTF8: (struct.Struct(">BH").pack, _TEXT),
    CpTag.INTEGER: (struct.Struct(">Bi").pack, _INT32),
    CpTag.FLOAT: (struct.Struct(">Bf").pack, _FLOAT),
    CpTag.LONG: (struct.Struct(">Bq").pack, _INT64),
    CpTag.DOUBLE: (struct.Struct(">Bd").pack, _FLOAT),
    **dict.fromkeys((CpTag.CLASS, CpTag.STRING, CpTag.METHOD_TYPE),
                    (struct.Struct(">BH").pack, _INDICES)),
    CpTag.METHOD_HANDLE: (struct.Struct(">BBH").pack, _INDICES),
    **dict.fromkeys((CpTag.FIELDREF, CpTag.METHODREF,
                     CpTag.INTERFACE_METHODREF, CpTag.NAME_AND_TYPE,
                     CpTag.INVOKE_DYNAMIC),
                    (struct.Struct(">BHH").pack, _INDICES)),
}


class ClassWriter:
    """Serializes a :class:`ClassFile` to classfile bytes.

    Every section is appended to one buffer; an attribute's length is
    patched in after its body is written.
    """

    def write(self, classfile: ClassFile) -> bytes:
        """Serialize ``classfile``, returning the binary image."""
        self._intern_attribute_names(classfile)
        pool = classfile.constant_pool
        out = bytearray(_HEADER.pack(MAGIC, classfile.minor_version,
                                     classfile.major_version))
        self._constant_pool(pool, out)
        out += _THREE_U2.pack(int(classfile.access_flags) & 0xFFFF,
                                classfile.this_class, classfile.super_class)
        out += _U2.pack(len(classfile.interfaces))
        for index in classfile.interfaces:
            out += _U2.pack(index)
        for members in (classfile.fields, classfile.methods):
            out += _U2.pack(len(members))
            for member in members:
                out += _THREE_U2.pack(
                    int(member.access_flags) & 0xFFFF, member.name_index,
                    member.descriptor_index)
                self._attributes(member.attributes, pool, out)
        self._attributes(classfile.attributes, pool, out)
        return bytes(out)

    # -- sections ---------------------------------------------------------------

    def _intern_attribute_names(self, classfile: ClassFile) -> None:
        """Intern every attribute name Utf8 before the pool is serialized.

        Attribute headers reference their names by pool index, so the names
        must exist in the pool when its length header is written.
        """
        pool = classfile.constant_pool

        def visit(attributes: List[Attribute]) -> None:
            for attr in attributes:
                pool.utf8(attr.name)
                if isinstance(attr, CodeAttribute):
                    visit(attr.attributes)

        visit(classfile.attributes)
        for member in (*classfile.fields, *classfile.methods):
            visit(member.attributes)

    @staticmethod
    def _constant_pool(pool: ConstantPool, out: bytearray) -> None:
        """Append the pool count and every entry, one ``pack`` each."""
        out += _U2.pack(len(pool) + 1)
        packers = _CP_PACKERS
        for _, info in pool:
            tag = info.tag
            value = info.value
            pack, kind = packers[tag]
            if kind == _INDICES:
                out += pack(tag, *value)
            elif kind == _TEXT:
                raw = str(value).encode("utf-8")
                out += pack(tag, len(raw))
                out += raw
            elif kind == _FLOAT:
                out += pack(tag, float(value))
            elif kind == _INT32:
                out += pack(tag, _clamp_s32(int(value)))
            else:
                out += pack(tag, _clamp_s64(int(value)))

    def _attributes(self, attributes: List[Attribute], pool: ConstantPool,
                    out: bytearray) -> None:
        out += _U2.pack(len(attributes))
        for attr in attributes:
            start = len(out)
            out += _ATTRIBUTE_HEADER.pack(pool.utf8(attr.name), 0)
            self._attribute_body(attr, pool, out)
            _U4.pack_into(out, start + 2, len(out) - start - 6)

    def _attribute_body(self, attr: Attribute, pool: ConstantPool,
                        out: bytearray) -> None:
        if isinstance(attr, CodeAttribute):
            out += _CODE_HEADER.pack(attr.max_stack, attr.max_locals,
                                     len(attr.code))
            out += attr.code
            out += _U2.pack(len(attr.exception_table))
            for handler in attr.exception_table:
                out += _HANDLER.pack(handler.start_pc, handler.end_pc,
                                     handler.handler_pc, handler.catch_type)
            self._attributes(attr.attributes, pool, out)
        elif isinstance(attr, ExceptionsAttribute):
            out += _U2.pack(len(attr.exception_indices))
            for index in attr.exception_indices:
                out += _U2.pack(index)
        elif isinstance(attr, ConstantValueAttribute):
            out += _U2.pack(attr.constant_index)
        elif isinstance(attr, SourceFileAttribute):
            out += _U2.pack(attr.sourcefile_index)
        elif isinstance(attr, RawAttribute):
            out += attr.data
        else:
            raise TypeError(f"unserializable attribute {type(attr).__name__}")


def _clamp_s32(value: int) -> int:
    """Wrap ``value`` into signed 32-bit range, like Java int arithmetic."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def _clamp_s64(value: int) -> int:
    """Wrap ``value`` into signed 64-bit range, like Java long arithmetic."""
    value &= 0xFFFFFFFFFFFFFFFF
    return value - 0x10000000000000000 if value >= 0x8000000000000000 else value


def write_class(classfile: ClassFile) -> bytes:
    """Serialize ``classfile`` with a fresh :class:`ClassWriter`."""
    return ClassWriter().write(classfile)
