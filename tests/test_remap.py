"""Tests for constant-pool transfer and raw-code remapping."""

import pytest

from repro.bytecode import Assembler, Op, decode_code
from repro.classfile.attributes import CodeAttribute, ExceptionHandler
from repro.classfile.constant_pool import ConstantPool
from repro.jimple import remap
from repro.jimple.remap import RemapError, remap_code, transfer_constant


def python_bug(*args, **kwargs):
    raise TypeError("a bug in the simulator, not a broken classfile")


class TestTransferConstant:
    def test_utf8(self):
        source, target = ConstantPool(), ConstantPool()
        index = source.utf8("hello")
        new_index = transfer_constant(source, target, index)
        assert target.get_utf8(new_index) == "hello"

    def test_class_ref(self):
        source, target = ConstantPool(), ConstantPool()
        index = source.class_ref("java/lang/Thread")
        new_index = transfer_constant(source, target, index)
        assert target.get_class_name(new_index) == "java/lang/Thread"

    def test_method_ref_recursive(self):
        source, target = ConstantPool(), ConstantPool()
        index = source.method_ref("A", "f", "()V")
        new_index = transfer_constant(source, target, index)
        assert target.get_member_ref(new_index) == ("A", "f", "()V")

    def test_numeric_constants(self):
        source, target = ConstantPool(), ConstantPool()
        for index, expected in ((source.integer(7), 7),
                                (source.long(2 ** 40), 2 ** 40),
                                (source.double(1.5), 1.5)):
            new_index = transfer_constant(source, target, index)
            assert target.entry(new_index).value == expected

    def test_string_constant(self):
        source, target = ConstantPool(), ConstantPool()
        index = source.string("text")
        assert target.get_string(
            transfer_constant(source, target, index)) == "text"

    def test_interning_in_target(self):
        source, target = ConstantPool(), ConstantPool()
        first = source.class_ref("X")
        second = source.class_ref("X")
        assert transfer_constant(source, target, first) == \
            transfer_constant(source, target, second)

    def test_dangling_index(self):
        source, target = ConstantPool(), ConstantPool()
        with pytest.raises(RemapError, match="dangling"):
            transfer_constant(source, target, 42)

    def test_a_non_pool_exception_propagates(self, monkeypatch):
        """Only a broken pool is a RemapError; a bug in a pool helper is
        not dressed up as one."""
        source, target = ConstantPool(), ConstantPool()
        index = source.class_ref("java/lang/Thread")
        monkeypatch.setattr(ConstantPool, "get_class_name", python_bug)
        with pytest.raises(TypeError, match="a bug in the simulator"):
            transfer_constant(source, target, index)


class TestRemapCode:
    def test_code_rewritten_to_target_indices(self):
        source = ConstantPool()
        asm = Assembler()
        asm.emit(Op.GETSTATIC, index=source.field_ref(
            "java/lang/System", "out", "Ljava/io/PrintStream;"))
        asm.emit(Op.POP)
        asm.emit(Op.RETURN)
        code = CodeAttribute(1, 1, asm.build())
        target = ConstantPool()
        target.utf8("padding")        # shift indices in the target
        target.utf8("more padding")
        remapped = remap_code(code, source, target)
        (getstatic, _, _) = decode_code(remapped.code)
        assert target.get_member_ref(getstatic.operands["index"]) == (
            "java/lang/System", "out", "Ljava/io/PrintStream;")

    def test_exception_table_catch_types_transfer(self):
        source = ConstantPool()
        asm = Assembler()
        asm.emit(Op.NOP)
        asm.emit(Op.RETURN)
        catch = source.class_ref("java/lang/Exception")
        code = CodeAttribute(1, 1, asm.build(),
                             [ExceptionHandler(0, 1, 1, catch)])
        target = ConstantPool()
        remapped = remap_code(code, source, target)
        assert target.get_class_name(
            remapped.exception_table[0].catch_type) == "java/lang/Exception"

    def test_catch_all_preserved(self):
        source = ConstantPool()
        asm = Assembler()
        asm.emit(Op.NOP)
        asm.emit(Op.RETURN)
        code = CodeAttribute(1, 1, asm.build(),
                             [ExceptionHandler(0, 1, 1, 0)])
        remapped = remap_code(code, source, ConstantPool())
        assert remapped.exception_table[0].catch_type == 0

    def test_undecodable_code_rejected(self):
        code = CodeAttribute(1, 1, b"\xfd")
        with pytest.raises(RemapError, match="undecodable"):
            remap_code(code, ConstantPool(), ConstantPool())

    def test_a_non_instruction_exception_propagates(self, monkeypatch):
        monkeypatch.setattr(remap, "decode_code", python_bug)
        code = CodeAttribute(1, 1, bytes([Op.RETURN]))
        with pytest.raises(TypeError, match="a bug in the simulator"):
            remap_code(code, ConstantPool(), ConstantPool())

    def test_local_indices_untouched(self):
        source = ConstantPool()
        asm = Assembler()
        asm.emit(Op.ILOAD, index=3)
        asm.emit(Op.POP)
        asm.emit(Op.RETURN)
        code = CodeAttribute(1, 4, asm.build())
        remapped = remap_code(code, source, ConstantPool())
        (iload, _, _) = decode_code(remapped.code)
        assert iload.operands["index"] == 3

    def test_ldc_index_past_255_is_a_remap_error(self):
        """An ``ldc`` whose constant lands past entry 255 of the target
        pool has no encoding: the transfer fails as a ``RemapError``."""
        source, target = ConstantPool(), ConstantPool()
        asm = Assembler()
        asm.emit(Op.LDC, index=source.integer(7))
        asm.emit(Op.POP)
        asm.emit(Op.RETURN)
        for number in range(300):
            target.utf8(f"filler{number}")
        with pytest.raises(RemapError, match="unencodable"):
            remap_code(CodeAttribute(1, 1, asm.build()), source, target)
