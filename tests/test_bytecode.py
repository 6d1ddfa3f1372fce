"""Unit tests for the bytecode opcode table and codec."""

import pytest

from repro.bytecode import (
    Assembler,
    Instruction,
    InstructionError,
    OPCODES,
    Op,
    decode_code,
    encode_code,
)
from repro.bytecode.opcodes import ANY, NULL, StackEffect


class TestOpcodeTable:
    def test_every_standard_opcode_present(self):
        assert len(OPCODES) == len(Op)

    def test_mnemonics_unique(self):
        mnemonics = [info.mnemonic for info in OPCODES.values()]
        assert len(mnemonics) == len(set(mnemonics))

    def test_return_is_terminal(self):
        assert OPCODES[int(Op.RETURN)].is_terminal
        assert OPCODES[int(Op.ATHROW)].is_terminal
        assert OPCODES[int(Op.GOTO)].is_terminal

    def test_conditional_branch_not_terminal(self):
        info = OPCODES[int(Op.IFEQ)]
        assert info.is_branch and not info.is_terminal

    def test_invoke_has_dynamic_stack_effect(self):
        assert OPCODES[int(Op.INVOKEVIRTUAL)].effect is None

    def test_iadd_stack_effect(self):
        assert OPCODES[int(Op.IADD)].effect == StackEffect(("i", "i"), "i")
        # Top of stack first: a long shift pops its int distance, then
        # the long.
        assert OPCODES[int(Op.LSHL)].effect == StackEffect(("i", "l"), "l")

    def test_fixed_effects_match_reference_slot_counts(self):
        """Every fixed effect's slot widths equal the (pops, pushes) slot
        counts the table carried before its effects were typed.  An
        ``ANY`` pop is one or two slots."""
        widths = {"i": 1, "f": 1, "a": 1, NULL: 1, "l": 2, "d": 2}
        not_fixed = set()
        for info in OPCODES.values():
            pops, pushes = _REFERENCE_SLOT_COUNTS[info.mnemonic]
            if info.effect is None:
                not_fixed.add(info.mnemonic)
                continue
            fixed = sum(widths[cat] for cat in info.effect.pops
                        if cat != ANY)
            anys = info.effect.pops.count(ANY)
            assert fixed + anys <= pops <= fixed + 2 * anys, info
            pushed = widths[info.effect.push] if info.effect.push else 0
            assert pushed == pushes, info
        assert not_fixed == {
            "ldc", "ldc_w", "ldc2_w", "pop", "pop2", "dup", "dup_x1",
            "dup_x2", "dup2", "dup2_x1", "dup2_x2", "swap", "jsr", "jsr_w",
            "getstatic", "putstatic", "getfield", "putfield",
            "invokevirtual", "invokespecial", "invokestatic",
            "invokeinterface", "invokedynamic", "wide", "multianewarray"}

    def test_shorthand_operands(self):
        assert OPCODES[int(Op.ICONST_M1)].implicit == -1
        assert OPCODES[int(Op.DCONST_1)].implicit == 1.0
        assert isinstance(OPCODES[int(Op.FCONST_2)].implicit, float)
        info = OPCODES[int(Op.ALOAD_2)]
        assert (info.family, info.cat, info.implicit) == ("load", "a", 2)
        info = OPCODES[int(Op.LSTORE)]
        assert (info.family, info.cat, info.implicit) == ("store", "l", None)
        assert OPCODES[int(Op.RETURN)].cat == "v"


#: mnemonic -> (slots popped, slots pushed), ``None`` where not fixed: the
#: table's untyped stack effects, kept as reference data.
_REFERENCE_SLOT_COUNTS = {
    "nop": (0, 0), "aconst_null": (0, 1), "iconst_m1": (0, 1),
    "iconst_0": (0, 1), "iconst_1": (0, 1), "iconst_2": (0, 1),
    "iconst_3": (0, 1), "iconst_4": (0, 1), "iconst_5": (0, 1),
    "fconst_0": (0, 1), "fconst_1": (0, 1), "fconst_2": (0, 1),
    "lconst_0": (0, 2), "lconst_1": (0, 2), "dconst_0": (0, 2),
    "dconst_1": (0, 2), "bipush": (0, 1), "sipush": (0, 1), "ldc": (0, 1),
    "ldc_w": (0, 1), "ldc2_w": (0, 2), "iload": (0, 1), "fload": (0, 1),
    "aload": (0, 1), "lload": (0, 2), "dload": (0, 2), "iload_0": (0, 1),
    "iload_1": (0, 1), "iload_2": (0, 1), "iload_3": (0, 1),
    "fload_0": (0, 1), "fload_1": (0, 1), "fload_2": (0, 1),
    "fload_3": (0, 1), "aload_0": (0, 1), "aload_1": (0, 1),
    "aload_2": (0, 1), "aload_3": (0, 1), "lload_0": (0, 2),
    "lload_1": (0, 2), "lload_2": (0, 2), "lload_3": (0, 2),
    "dload_0": (0, 2), "dload_1": (0, 2), "dload_2": (0, 2),
    "dload_3": (0, 2), "iaload": (2, 1), "faload": (2, 1), "aaload": (2, 1),
    "baload": (2, 1), "caload": (2, 1), "saload": (2, 1), "laload": (2, 2),
    "daload": (2, 2), "istore": (1, 0), "fstore": (1, 0), "astore": (1, 0),
    "lstore": (2, 0), "dstore": (2, 0), "istore_0": (1, 0),
    "istore_1": (1, 0), "istore_2": (1, 0), "istore_3": (1, 0),
    "fstore_0": (1, 0), "fstore_1": (1, 0), "fstore_2": (1, 0),
    "fstore_3": (1, 0), "astore_0": (1, 0), "astore_1": (1, 0),
    "astore_2": (1, 0), "astore_3": (1, 0), "lstore_0": (2, 0),
    "lstore_1": (2, 0), "lstore_2": (2, 0), "lstore_3": (2, 0),
    "dstore_0": (2, 0), "dstore_1": (2, 0), "dstore_2": (2, 0),
    "dstore_3": (2, 0), "iastore": (3, 0), "fastore": (3, 0),
    "aastore": (3, 0), "bastore": (3, 0), "castore": (3, 0),
    "sastore": (3, 0), "lastore": (4, 0), "dastore": (4, 0), "pop": (1, 0),
    "pop2": (2, 0), "dup": (1, 2), "dup_x1": (2, 3), "dup_x2": (3, 4),
    "dup2": (2, 4), "dup2_x1": (3, 5), "dup2_x2": (4, 6), "swap": (2, 2),
    "iadd": (2, 1), "isub": (2, 1), "imul": (2, 1), "idiv": (2, 1),
    "irem": (2, 1), "ishl": (2, 1), "ishr": (2, 1), "iushr": (2, 1),
    "iand": (2, 1), "ior": (2, 1), "ixor": (2, 1), "fadd": (2, 1),
    "fsub": (2, 1), "fmul": (2, 1), "fdiv": (2, 1), "frem": (2, 1),
    "ladd": (4, 2), "lsub": (4, 2), "lmul": (4, 2), "ldiv": (4, 2),
    "lrem": (4, 2), "land": (4, 2), "lor": (4, 2), "lxor": (4, 2),
    "dadd": (4, 2), "dsub": (4, 2), "dmul": (4, 2), "ddiv": (4, 2),
    "drem": (4, 2), "lshl": (3, 2), "lshr": (3, 2), "lushr": (3, 2),
    "ineg": (1, 1), "fneg": (1, 1), "lneg": (2, 2), "dneg": (2, 2),
    "iinc": (0, 0), "i2f": (1, 1), "f2i": (1, 1), "i2b": (1, 1),
    "i2c": (1, 1), "i2s": (1, 1), "i2l": (1, 2), "i2d": (1, 2), "f2l": (1, 2),
    "f2d": (1, 2), "l2i": (2, 1), "l2f": (2, 1), "d2i": (2, 1), "d2f": (2, 1),
    "l2d": (2, 2), "d2l": (2, 2), "lcmp": (4, 1), "fcmpl": (2, 1),
    "fcmpg": (2, 1), "dcmpl": (4, 1), "dcmpg": (4, 1), "ifeq": (1, 0),
    "ifne": (1, 0), "iflt": (1, 0), "ifge": (1, 0), "ifgt": (1, 0),
    "ifle": (1, 0), "ifnull": (1, 0), "ifnonnull": (1, 0),
    "if_icmpeq": (2, 0), "if_icmpne": (2, 0), "if_icmplt": (2, 0),
    "if_icmpge": (2, 0), "if_icmpgt": (2, 0), "if_icmple": (2, 0),
    "if_acmpeq": (2, 0), "if_acmpne": (2, 0), "goto": (0, 0), "jsr": (0, 1),
    "ret": (0, 0), "tableswitch": (1, 0), "lookupswitch": (1, 0),
    "ireturn": (1, 0), "lreturn": (2, 0), "freturn": (1, 0),
    "dreturn": (2, 0), "areturn": (1, 0), "return": (0, 0),
    "getstatic": (0, None), "putstatic": (None, 0), "getfield": (1, None),
    "putfield": (None, 0), "invokevirtual": (None, None),
    "invokespecial": (None, None), "invokestatic": (None, None),
    "invokeinterface": (None, None), "invokedynamic": (None, None),
    "new": (0, 1), "newarray": (1, 1), "anewarray": (1, 1),
    "arraylength": (1, 1), "athrow": (1, 0), "checkcast": (1, 1),
    "instanceof": (1, 1), "monitorenter": (1, 0), "monitorexit": (1, 0),
    "wide": (0, 0), "multianewarray": (None, 1), "goto_w": (0, 0),
    "jsr_w": (0, 1),
}


class TestDecode:
    def test_simple_sequence(self):
        code = bytes([int(Op.ICONST_0), int(Op.ICONST_1), int(Op.IADD),
                      int(Op.IRETURN)])
        instructions = decode_code(code)
        assert [i.op for i in instructions] == [
            Op.ICONST_0, Op.ICONST_1, Op.IADD, Op.IRETURN]
        assert [i.offset for i in instructions] == [0, 1, 2, 3]

    def test_bipush_operand(self):
        code = bytes([int(Op.BIPUSH), 0x85])  # -123 as signed byte
        (instruction,) = decode_code(code)
        assert instruction.operands["value"] == -123

    def test_branch_target_absolute(self):
        # ifeq +5 at offset 0 -> target 5
        code = bytes([int(Op.IFEQ), 0, 5, int(Op.NOP), int(Op.NOP),
                      int(Op.RETURN)])
        instructions = decode_code(code)
        assert instructions[0].operands["target"] == 5
        assert instructions[0].branch_targets() == [5]

    def test_unknown_opcode(self):
        with pytest.raises(InstructionError, match="unknown opcode"):
            decode_code(bytes([0xFD]))

    def test_truncated_operand(self):
        with pytest.raises(InstructionError, match="truncated"):
            decode_code(bytes([int(Op.SIPUSH), 0x01]))

    def test_wide_iload(self):
        code = bytes([int(Op.WIDE_PREFIX), int(Op.ILOAD), 0x01, 0x00,
                      int(Op.RETURN)])
        instructions = decode_code(code)
        assert instructions[0].op is Op.ILOAD
        assert instructions[0].operands["index"] == 256
        assert instructions[0].operands["wide"]

    def test_wide_iinc(self):
        code = bytes([int(Op.WIDE_PREFIX), int(Op.IINC),
                      0x00, 0x05, 0xFF, 0xFF])
        (instruction,) = decode_code(code)
        assert instruction.operands["index"] == 5
        assert instruction.operands["const"] == -1

    def test_wide_bad_target(self):
        with pytest.raises(InstructionError, match="wide"):
            decode_code(bytes([int(Op.WIDE_PREFIX), int(Op.NOP)]))

    def test_invokeinterface_extras(self):
        code = bytes([int(Op.INVOKEINTERFACE), 0, 7, 2, 0])
        (instruction,) = decode_code(code)
        assert instruction.operands["index"] == 7
        assert instruction.operands["count"] == 2


class TestSwitches:
    def test_tableswitch_roundtrip(self):
        asm = Assembler()
        asm.emit(Op.ICONST_1)
        asm.switch(Op.TABLESWITCH, "dflt", low=0, high=1,
                   targets=["a", "b"])
        asm.label("a")
        asm.emit(Op.NOP)
        asm.label("b")
        asm.emit(Op.NOP)
        asm.label("dflt")
        asm.emit(Op.RETURN)
        code = asm.build()
        instructions = decode_code(code)
        switch = instructions[1]
        assert switch.op is Op.TABLESWITCH
        assert len(switch.operands["targets"]) == 2
        # Re-encode and re-decode must be stable.
        assert encode_code(decode_code(code)) == code

    def test_lookupswitch_roundtrip(self):
        asm = Assembler()
        asm.emit(Op.ICONST_1)
        asm.switch(Op.LOOKUPSWITCH, "dflt", pairs=[(10, "case"),
                                                   (20, "dflt")])
        asm.label("case")
        asm.emit(Op.NOP)
        asm.label("dflt")
        asm.emit(Op.RETURN)
        code = asm.build()
        instructions = decode_code(code)
        assert instructions[1].operands["pairs"][0][0] == 10
        assert encode_code(decode_code(code)) == code

    def test_tableswitch_high_below_low(self):
        # Hand-craft a tableswitch with high < low at offset 0.
        import struct

        body = bytes([int(Op.TABLESWITCH)]) + b"\x00" * 3
        body += struct.pack(">iii", 12, 5, 2)
        with pytest.raises(InstructionError, match="high"):
            decode_code(body)


class TestEncode:
    def test_roundtrip_stability(self):
        code = bytes([int(Op.ICONST_0), int(Op.ISTORE_1), int(Op.ILOAD_1),
                      int(Op.IRETURN)])
        assert encode_code(decode_code(code)) == code

    def test_branch_retargeting_after_deletion(self):
        # goto over a nop; delete the nop and the delta must shrink.
        code = bytes([int(Op.GOTO), 0, 4, int(Op.NOP), int(Op.RETURN)])
        instructions = decode_code(code)
        del instructions[1]  # remove the nop at offset 3... wait: 1 is nop
        recoded = encode_code(instructions)
        redecoded = decode_code(recoded)
        assert redecoded[0].operands["target"] == redecoded[1].offset

    def test_dangling_branch_target_rejected(self):
        instruction = Instruction(0, Op.GOTO, {"target": 99})
        with pytest.raises(InstructionError, match="not an instruction"):
            encode_code([instruction])


class TestAssembler:
    def test_duplicate_label_rejected(self):
        asm = Assembler()
        asm.label("x")
        with pytest.raises(InstructionError, match="duplicate"):
            asm.label("x")

    def test_undefined_label_rejected(self):
        asm = Assembler()
        asm.branch(Op.GOTO, "nowhere")
        with pytest.raises(InstructionError, match="undefined"):
            asm.build()

    def test_forward_and_backward_branches(self):
        asm = Assembler()
        asm.label("top")
        asm.emit(Op.ICONST_0)
        asm.branch(Op.IFEQ, "end")
        asm.branch(Op.GOTO, "top")
        asm.label("end")
        asm.emit(Op.RETURN)
        instructions = decode_code(asm.build())
        assert instructions[2].operands["target"] == 0      # back to top
        assert instructions[1].operands["target"] == \
            instructions[3].offset                           # forward to end
