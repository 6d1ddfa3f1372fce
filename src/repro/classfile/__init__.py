"""JVM classfile binary format: model, reader, and writer.

This package implements the ``.class`` file format from the JVM
specification (JVMS §4): the constant pool, access flags, fields, methods,
attributes (including ``Code``), and binary (de)serialization.  It plays the
role that real classfile bytes played in the paper — every mutant produced
by classfuzz is serialized through :func:`repro.classfile.writer.write_class`
and parsed once, through :func:`repro.classfile.reader.parse_class`, for
all the simulated JVMs that run it.
"""

from repro.classfile.access_flags import AccessFlags
from repro.classfile.constant_pool import ConstantPool, CpInfo, CpTag
from repro.classfile.model import ClassFile, JAVA7_MAJOR, MAGIC
from repro.classfile.fields import FieldInfo
from repro.classfile.methods import MethodInfo
from repro.classfile.attributes import (
    Attribute,
    CodeAttribute,
    ExceptionsAttribute,
    SourceFileAttribute,
    ConstantValueAttribute,
    RawAttribute,
)
from repro.classfile.reader import (
    ClassReader,
    ParsedClass,
    parse_class,
    read_class,
)
from repro.classfile.writer import ClassWriter, write_class

__all__ = [
    "AccessFlags",
    "Attribute",
    "ClassFile",
    "ClassReader",
    "ClassWriter",
    "CodeAttribute",
    "ConstantPool",
    "ConstantValueAttribute",
    "CpInfo",
    "CpTag",
    "ExceptionsAttribute",
    "FieldInfo",
    "JAVA7_MAJOR",
    "MAGIC",
    "MethodInfo",
    "ParsedClass",
    "RawAttribute",
    "SourceFileAttribute",
    "parse_class",
    "read_class",
    "write_class",
]
