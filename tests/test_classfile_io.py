"""Unit tests for the binary classfile reader and writer."""

import struct

import pytest

from repro.classfile import (
    AccessFlags,
    ClassFile,
    CodeAttribute,
    MethodInfo,
    read_class,
    write_class,
)
from repro.classfile.attributes import (
    ExceptionHandler,
    ExceptionsAttribute,
    RawAttribute,
    SourceFileAttribute,
)
from repro.classfile.constant_pool import CpInfo, CpTag
from repro.classfile.fields import FieldInfo
from repro.classfile.model import MAGIC
from repro.classfile.reader import ReaderOptions
from repro.errors import ClassFormatError, UnsupportedClassVersionError


def minimal_class(name="Tiny"):
    classfile = ClassFile()
    pool = classfile.constant_pool
    classfile.this_class = pool.class_ref(name)
    classfile.super_class = pool.class_ref("java/lang/Object")
    classfile.access_flags = AccessFlags.PUBLIC | AccessFlags.SUPER
    return classfile


class TestRoundtrip:
    def test_minimal_class(self):
        data = write_class(minimal_class())
        parsed = read_class(data)
        assert parsed.name == "Tiny"
        assert parsed.super_name == "java/lang/Object"
        assert parsed.major_version == 51

    def test_magic_is_cafebabe(self):
        data = write_class(minimal_class())
        assert struct.unpack(">I", data[:4])[0] == MAGIC

    def test_byte_stable_roundtrip(self, demo_bytes):
        assert write_class(read_class(demo_bytes)) == demo_bytes

    def test_interfaces_roundtrip(self):
        classfile = minimal_class()
        pool = classfile.constant_pool
        classfile.interfaces = [pool.class_ref("java/lang/Runnable"),
                                pool.class_ref("java/io/Serializable")]
        parsed = read_class(write_class(classfile))
        assert parsed.interface_names == ["java/lang/Runnable",
                                          "java/io/Serializable"]

    def test_field_roundtrip(self):
        classfile = minimal_class()
        pool = classfile.constant_pool
        classfile.fields.append(FieldInfo(
            AccessFlags.PRIVATE | AccessFlags.STATIC,
            pool.utf8("count"), pool.utf8("I")))
        parsed = read_class(write_class(classfile))
        field = parsed.fields[0]
        assert parsed.field_name(field) == "count"
        assert parsed.field_descriptor(field) == "I"
        assert field.is_static

    def test_method_with_code_roundtrip(self):
        classfile = minimal_class()
        pool = classfile.constant_pool
        code = CodeAttribute(max_stack=1, max_locals=1, code=b"\xb1")
        classfile.methods.append(MethodInfo(
            AccessFlags.PUBLIC, pool.utf8("run"), pool.utf8("()V"), [code]))
        parsed = read_class(write_class(classfile))
        method = parsed.methods[0]
        assert parsed.method_name(method) == "run"
        assert method.code.code == b"\xb1"
        assert method.code.max_stack == 1

    def test_exception_table_roundtrip(self):
        classfile = minimal_class()
        pool = classfile.constant_pool
        catch = pool.class_ref("java/lang/Exception")
        code = CodeAttribute(1, 1, b"\xb1",
                             [ExceptionHandler(0, 1, 0, catch)])
        classfile.methods.append(MethodInfo(
            AccessFlags.PUBLIC, pool.utf8("run"), pool.utf8("()V"), [code]))
        parsed = read_class(write_class(classfile))
        handler = parsed.methods[0].code.exception_table[0]
        assert (handler.start_pc, handler.end_pc, handler.handler_pc) == \
            (0, 1, 0)
        assert parsed.constant_pool.get_class_name(handler.catch_type) == \
            "java/lang/Exception"

    def test_exceptions_attribute_roundtrip(self):
        classfile = minimal_class()
        pool = classfile.constant_pool
        attr = ExceptionsAttribute([pool.class_ref("java/io/IOException")])
        classfile.methods.append(MethodInfo(
            AccessFlags.PUBLIC | AccessFlags.ABSTRACT,
            pool.utf8("risky"), pool.utf8("()V"), [attr]))
        parsed = read_class(write_class(classfile))
        names = parsed.methods[0].exceptions.exception_names(
            parsed.constant_pool)
        assert names == ["java/io/IOException"]

    def test_raw_attribute_roundtrip(self):
        classfile = minimal_class()
        classfile.attributes.append(RawAttribute(name="Custom",
                                                 data=b"\x01\x02\x03"))
        parsed = read_class(write_class(classfile))
        attr = parsed.attribute("Custom")
        assert isinstance(attr, RawAttribute)
        assert attr.data == b"\x01\x02\x03"

    def test_sourcefile_roundtrip(self):
        classfile = minimal_class()
        index = classfile.constant_pool.utf8("Tiny.java")
        classfile.attributes.append(SourceFileAttribute(index))
        parsed = read_class(write_class(classfile))
        attr = parsed.attribute("SourceFile")
        assert parsed.constant_pool.get_utf8(attr.sourcefile_index) == \
            "Tiny.java"


class TestFormatErrors:
    def test_bad_magic(self):
        data = write_class(minimal_class())
        with pytest.raises(ClassFormatError, match="magic"):
            read_class(b"\x00\x00\x00\x00" + data[4:])

    def test_truncated_file(self):
        data = write_class(minimal_class())
        with pytest.raises(ClassFormatError, match="Truncated"):
            read_class(data[:20])

    def test_empty_input(self):
        with pytest.raises(ClassFormatError):
            read_class(b"")

    def test_version_too_high(self):
        classfile = minimal_class()
        classfile.major_version = 99
        with pytest.raises(UnsupportedClassVersionError):
            read_class(write_class(classfile))

    def test_version_too_low(self):
        classfile = minimal_class()
        classfile.major_version = 40
        with pytest.raises(UnsupportedClassVersionError):
            read_class(write_class(classfile))

    def test_version_limits_configurable(self):
        classfile = minimal_class()
        classfile.major_version = 53
        options = ReaderOptions(max_supported_major=53)
        assert read_class(write_class(classfile),
                          options).major_version == 53

    def test_trailing_bytes_rejected(self):
        data = write_class(minimal_class()) + b"junk"
        with pytest.raises(ClassFormatError, match="Extra bytes"):
            read_class(data)

    def test_trailing_bytes_tolerated_when_lenient(self):
        data = write_class(minimal_class()) + b"junk"
        options = ReaderOptions(reject_trailing_bytes=False)
        assert read_class(data, options).name == "Tiny"

    def test_this_class_zero_rejected(self):
        classfile = minimal_class()
        classfile.this_class = 0
        with pytest.raises(ClassFormatError, match="this_class"):
            read_class(write_class(classfile))

    def test_this_class_wrong_tag(self):
        classfile = minimal_class()
        classfile.this_class = classfile.constant_pool.utf8("oops")
        with pytest.raises(ClassFormatError, match="not a Class"):
            read_class(write_class(classfile))

    def test_super_class_zero_allowed(self):
        # Only java/lang/Object legitimately has super 0; the *format* is
        # parseable — rejection happens at linking.
        classfile = minimal_class()
        classfile.super_class = 0
        parsed = read_class(write_class(classfile))
        assert parsed.super_name is None

    def test_unknown_cp_tag_rejected(self):
        data = bytearray(write_class(minimal_class()))
        # constant_pool_count is at offset 8-9; first tag at offset 10.
        data[10] = 99
        with pytest.raises(ClassFormatError, match="Unknown constant tag"):
            read_class(bytes(data))

    def test_dangling_pool_reference_rejected(self):
        # JVMS 4.4: a String names a Utf8 entry; this one names an Integer.
        classfile = minimal_class()
        pool = classfile.constant_pool
        string = pool.string("text")
        pool.add_at(string, CpInfo(CpTag.STRING, (pool.integer(7),)))
        with pytest.raises(ClassFormatError,
                           match="Invalid constant pool index"):
            read_class(write_class(classfile))

    def test_missing_pool_reference_rejected(self):
        classfile = minimal_class()
        pool = classfile.constant_pool
        nat = pool.name_and_type("f", "I")
        pool.add_at(nat, CpInfo(CpTag.NAME_AND_TYPE, (pool.utf8("f"), 999)))
        with pytest.raises(ClassFormatError, match="index 999"):
            read_class(write_class(classfile))

    def test_code_with_zero_length_rejected(self):
        classfile = minimal_class()
        pool = classfile.constant_pool
        code = CodeAttribute(0, 0, b"")
        classfile.methods.append(MethodInfo(
            AccessFlags.PUBLIC, pool.utf8("bad"), pool.utf8("()V"), [code]))
        with pytest.raises(ClassFormatError, match="zero-length"):
            read_class(write_class(classfile))

    def test_long_constant_survives_roundtrip(self):
        classfile = minimal_class()
        classfile.constant_pool.long(2 ** 40)
        parsed = read_class(write_class(classfile))
        values = [info.value for _, info in parsed.constant_pool]
        assert 2 ** 40 in values
