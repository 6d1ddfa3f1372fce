"""Tests for the javap-style disassembler."""

import pytest

from repro.classfile.constant_pool import ConstantPool
from repro.classfile.disassembler import disassemble
from repro.classfile.reader import read_class
from repro.classfile.writer import write_class
from repro.jimple import ClassBuilder, MethodBuilder, compile_class
from repro.jimple.types import INT, JType


def render(jclass, **kwargs):
    classfile = compile_class(jclass)
    data = write_class(classfile)
    return disassemble(read_class(data), data, **kwargs)


class TestDisassembler:
    def test_figure2_shape(self, demo_class):
        """The output carries Figure 2's landmarks."""
        text = render(demo_class)
        assert "MD5 checksum" in text
        assert "class Demo" in text
        assert "minor version: 0" in text
        assert "major version: 51" in text
        assert "flags: ACC_PUBLIC, ACC_SUPER" in text
        assert "Constant pool:" in text

    def test_code_listing_with_comments(self, demo_class):
        text = render(demo_class)
        assert "getstatic" in text
        assert "// Field java/lang/System.out:Ljava/io/PrintStream;" in text
        assert "invokevirtual" in text
        assert ("// Method java/io/PrintStream.println:"
                "(Ljava/lang/String;)V") in text
        assert "ldc" in text
        assert "return" in text

    def test_stack_and_locals_line(self, demo_class):
        text = render(demo_class)
        assert "stack=" in text and "locals=" in text

    def test_constant_pool_entries(self, demo_class):
        text = render(demo_class)
        assert "Utf8" in text
        assert "Methodref" in text
        assert "NameAndType" in text

    def test_pool_can_be_suppressed(self, demo_class):
        text = render(demo_class, show_constant_pool=False)
        assert "Constant pool:" not in text

    def test_fields_and_constant_values(self):
        builder = ClassBuilder("WithField")
        builder.field("LIMIT", INT, ["public", "static", "final"],
                      constant_value=42)
        text = render(builder.build())
        assert "int LIMIT;" in text
        assert "ConstantValue:" in text

    def test_exceptions_attribute(self):
        builder = ClassBuilder("Thrower")
        method = MethodBuilder("risky", modifiers=["public"])
        method.throws("java.io.IOException")
        method.ret()
        builder.method(method.build())
        text = render(builder.build())
        assert "throws java/io/IOException" in text

    def test_abstract_clinit_renders(self):
        """The Figure 2 mutant disassembles without crashing."""
        builder = ClassBuilder("M1436188543")
        builder.default_init()
        builder.main_printing()
        clinit = MethodBuilder("<clinit>", modifiers=["public", "abstract"])
        clinit.abstract_body()
        builder.method(clinit.build())
        text = render(builder.build())
        assert "ACC_PUBLIC, ACC_ABSTRACT" in text

    def test_robust_against_dangling_refs(self):
        """Disassembly must not crash on mutant-grade classfiles."""
        from repro.classfile.model import ClassFile

        classfile = ClassFile()
        pool = classfile.constant_pool
        classfile.this_class = pool.class_ref("Broken")
        classfile.super_class = pool.class_ref("java/lang/Object")
        from repro.classfile.access_flags import AccessFlags
        from repro.classfile.attributes import CodeAttribute
        from repro.classfile.methods import MethodInfo

        # getstatic pointing at a dangling pool slot.
        code = CodeAttribute(1, 1, bytes([0xb2, 0x00, 0x63, 0xb1]))
        classfile.methods.append(MethodInfo(
            AccessFlags.PUBLIC, pool.utf8("m"), pool.utf8("()V"), [code]))
        text = disassemble(classfile)
        assert "<dangling>" in text

    def test_a_non_pool_exception_propagates(self, demo_class,
                                             monkeypatch):
        """A broken pool renders as ``?``; a bug in a pool helper raises
        instead of printing as one."""
        classfile = compile_class(demo_class)

        def python_bug(self, index):
            raise TypeError("a bug in the simulator")

        monkeypatch.setattr(ConstantPool, "get_class_name", python_bug)
        with pytest.raises(TypeError, match="a bug in the simulator"):
            disassemble(classfile)

    def test_member_flags_named_per_context(self):
        """Each context reads its own meaning of a shared bit, as javap
        does: 0x0020 is ACC_SYNCHRONIZED on a method (ACC_SUPER only on
        a class), 0x0040 and 0x0080 are ACC_VOLATILE and ACC_TRANSIENT
        on a field but ACC_BRIDGE and ACC_VARARGS on a method."""
        builder = ClassBuilder("Flagged")
        builder.field("counter", INT, ["private", "volatile", "transient"])
        method = MethodBuilder("m", modifiers=[
            "public", "synchronized", "bridge", "varargs"])
        method.ret()
        builder.method(method.build())
        text = render(builder.build())
        assert "flags: ACC_PUBLIC, ACC_SUPER" in text
        assert "    flags: ACC_PRIVATE, ACC_VOLATILE, ACC_TRANSIENT" in text
        assert "private volatile transient int counter;" in text
        assert ("    flags: ACC_PUBLIC, ACC_SYNCHRONIZED, ACC_BRIDGE, "
                "ACC_VARARGS") in text
        assert "public synchronized bridge varargs void m();" in text
        assert "ACC_SUPER" not in text.split("{", 1)[1]

    def test_bits_without_a_meaning_print_in_hex(self):
        """A bit the context gives no meaning is shown, not dropped,
        in hex after the named flags, highest first, as javap does."""
        from repro.classfile import access_flags as acc

        assert acc.flag_names(0x0201 | 0x4000, acc.METHOD_FLAGS) == \
            "ACC_PUBLIC, 0x4000, 0x200"
        assert acc.flag_names(0x0808, acc.CLASS_FLAGS) == "0x800, 0x8"
        assert acc.flag_names(0, acc.FIELD_FLAGS) == ""
