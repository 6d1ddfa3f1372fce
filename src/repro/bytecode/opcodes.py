"""The JVM opcode table (JVMS §6.5).

Every standard opcode is described by an :class:`OpcodeInfo` carrying its
mnemonic, operand layout and typed operand-stack effect, and for the
const/load/store/return opcodes their value category and the implicit
slot or constant of each ``xload_n``/``xstore_n``/``xconst_n`` shorthand.
This table is the one place that says what an opcode does: the verifier,
the interpreter, the Jimple lifter and the compiler read it rather than
parse mnemonics.  An opcode's operands are a tuple of operand kinds, and
:data:`OPERAND_FIELDS` gives each fixed-width kind its bytes, the operand
names they fill and their ``wide`` form, so one generic codec
(:mod:`repro.bytecode.instructions`) decodes, sizes and encodes every
instruction from a layout built once per opcode; only the variable-length
``tableswitch``/``lookupswitch`` keep code of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, NamedTuple, Optional, Tuple, Union

# Operand kinds: each fixed-width kind is laid out by OPERAND_FIELDS;
# SWITCH (the tableswitch/lookupswitch payload) and WIDE (the prefix that
# modifies the next instruction) are the variable-length ones.
S1 = "s1"
S2 = "s2"
ATYPE = "atype"
LOCAL1 = "local1"
CP1 = "cp1"
CP2 = "cp2"
BRANCH2 = "branch2"
BRANCH4 = "branch4"
IINC = "iinc"
INVOKEINTERFACE = "invokeinterface"
INVOKEDYNAMIC = "invokedynamic"
MULTIANEWARRAY = "multianewarray"
SWITCH = "switch"
WIDE = "wide"


class OperandFields(NamedTuple):
    """How one fixed-width operand kind sits in the bytecode.

    Attributes:
        codes: its big-endian :mod:`struct` codes.
        names: the operand names the codes fill, in order.
        wide: the codes under the ``wide`` prefix; ``None`` where the
            prefix cannot modify the kind.
    """

    codes: str
    names: Tuple[str, ...]
    wide: Optional[str] = None


OPERAND_FIELDS: Dict[str, OperandFields] = {
    S1: OperandFields("b", ("value",)),
    S2: OperandFields("h", ("value",)),
    ATYPE: OperandFields("B", ("value",)),
    LOCAL1: OperandFields("B", ("index",), wide="H"),
    CP1: OperandFields("B", ("index",)),
    CP2: OperandFields("H", ("index",)),
    BRANCH2: OperandFields("h", ("target",)),
    BRANCH4: OperandFields("i", ("target",)),
    IINC: OperandFields("Bb", ("index", "const"), wide="Hh"),
    INVOKEINTERFACE: OperandFields("BB", ("count", "zero")),
    INVOKEDYNAMIC: OperandFields("H", ("zero",)),
    MULTIANEWARRAY: OperandFields("HB", ("index", "dimensions")),
}


class Op(IntEnum):
    """All standard JVM opcodes."""

    NOP = 0x00
    ACONST_NULL = 0x01
    ICONST_M1 = 0x02
    ICONST_0 = 0x03
    ICONST_1 = 0x04
    ICONST_2 = 0x05
    ICONST_3 = 0x06
    ICONST_4 = 0x07
    ICONST_5 = 0x08
    LCONST_0 = 0x09
    LCONST_1 = 0x0A
    FCONST_0 = 0x0B
    FCONST_1 = 0x0C
    FCONST_2 = 0x0D
    DCONST_0 = 0x0E
    DCONST_1 = 0x0F
    BIPUSH = 0x10
    SIPUSH = 0x11
    LDC = 0x12
    LDC_W = 0x13
    LDC2_W = 0x14
    ILOAD = 0x15
    LLOAD = 0x16
    FLOAD = 0x17
    DLOAD = 0x18
    ALOAD = 0x19
    ILOAD_0 = 0x1A
    ILOAD_1 = 0x1B
    ILOAD_2 = 0x1C
    ILOAD_3 = 0x1D
    LLOAD_0 = 0x1E
    LLOAD_1 = 0x1F
    LLOAD_2 = 0x20
    LLOAD_3 = 0x21
    FLOAD_0 = 0x22
    FLOAD_1 = 0x23
    FLOAD_2 = 0x24
    FLOAD_3 = 0x25
    DLOAD_0 = 0x26
    DLOAD_1 = 0x27
    DLOAD_2 = 0x28
    DLOAD_3 = 0x29
    ALOAD_0 = 0x2A
    ALOAD_1 = 0x2B
    ALOAD_2 = 0x2C
    ALOAD_3 = 0x2D
    IALOAD = 0x2E
    LALOAD = 0x2F
    FALOAD = 0x30
    DALOAD = 0x31
    AALOAD = 0x32
    BALOAD = 0x33
    CALOAD = 0x34
    SALOAD = 0x35
    ISTORE = 0x36
    LSTORE = 0x37
    FSTORE = 0x38
    DSTORE = 0x39
    ASTORE = 0x3A
    ISTORE_0 = 0x3B
    ISTORE_1 = 0x3C
    ISTORE_2 = 0x3D
    ISTORE_3 = 0x3E
    LSTORE_0 = 0x3F
    LSTORE_1 = 0x40
    LSTORE_2 = 0x41
    LSTORE_3 = 0x42
    FSTORE_0 = 0x43
    FSTORE_1 = 0x44
    FSTORE_2 = 0x45
    FSTORE_3 = 0x46
    DSTORE_0 = 0x47
    DSTORE_1 = 0x48
    DSTORE_2 = 0x49
    DSTORE_3 = 0x4A
    ASTORE_0 = 0x4B
    ASTORE_1 = 0x4C
    ASTORE_2 = 0x4D
    ASTORE_3 = 0x4E
    IASTORE = 0x4F
    LASTORE = 0x50
    FASTORE = 0x51
    DASTORE = 0x52
    AASTORE = 0x53
    BASTORE = 0x54
    CASTORE = 0x55
    SASTORE = 0x56
    POP = 0x57
    POP2 = 0x58
    DUP = 0x59
    DUP_X1 = 0x5A
    DUP_X2 = 0x5B
    DUP2 = 0x5C
    DUP2_X1 = 0x5D
    DUP2_X2 = 0x5E
    SWAP = 0x5F
    IADD = 0x60
    LADD = 0x61
    FADD = 0x62
    DADD = 0x63
    ISUB = 0x64
    LSUB = 0x65
    FSUB = 0x66
    DSUB = 0x67
    IMUL = 0x68
    LMUL = 0x69
    FMUL = 0x6A
    DMUL = 0x6B
    IDIV = 0x6C
    LDIV = 0x6D
    FDIV = 0x6E
    DDIV = 0x6F
    IREM = 0x70
    LREM = 0x71
    FREM = 0x72
    DREM = 0x73
    INEG = 0x74
    LNEG = 0x75
    FNEG = 0x76
    DNEG = 0x77
    ISHL = 0x78
    LSHL = 0x79
    ISHR = 0x7A
    LSHR = 0x7B
    IUSHR = 0x7C
    LUSHR = 0x7D
    IAND = 0x7E
    LAND = 0x7F
    IOR = 0x80
    LOR = 0x81
    IXOR = 0x82
    LXOR = 0x83
    IINC = 0x84
    I2L = 0x85
    I2F = 0x86
    I2D = 0x87
    L2I = 0x88
    L2F = 0x89
    L2D = 0x8A
    F2I = 0x8B
    F2L = 0x8C
    F2D = 0x8D
    D2I = 0x8E
    D2L = 0x8F
    D2F = 0x90
    I2B = 0x91
    I2C = 0x92
    I2S = 0x93
    LCMP = 0x94
    FCMPL = 0x95
    FCMPG = 0x96
    DCMPL = 0x97
    DCMPG = 0x98
    IFEQ = 0x99
    IFNE = 0x9A
    IFLT = 0x9B
    IFGE = 0x9C
    IFGT = 0x9D
    IFLE = 0x9E
    IF_ICMPEQ = 0x9F
    IF_ICMPNE = 0xA0
    IF_ICMPLT = 0xA1
    IF_ICMPGE = 0xA2
    IF_ICMPGT = 0xA3
    IF_ICMPLE = 0xA4
    IF_ACMPEQ = 0xA5
    IF_ACMPNE = 0xA6
    GOTO = 0xA7
    JSR = 0xA8
    RET = 0xA9
    TABLESWITCH = 0xAA
    LOOKUPSWITCH = 0xAB
    IRETURN = 0xAC
    LRETURN = 0xAD
    FRETURN = 0xAE
    DRETURN = 0xAF
    ARETURN = 0xB0
    RETURN = 0xB1
    GETSTATIC = 0xB2
    PUTSTATIC = 0xB3
    GETFIELD = 0xB4
    PUTFIELD = 0xB5
    INVOKEVIRTUAL = 0xB6
    INVOKESPECIAL = 0xB7
    INVOKESTATIC = 0xB8
    INVOKEINTERFACE = 0xB9
    INVOKEDYNAMIC = 0xBA
    NEW = 0xBB
    NEWARRAY = 0xBC
    ANEWARRAY = 0xBD
    ARRAYLENGTH = 0xBE
    ATHROW = 0xBF
    CHECKCAST = 0xC0
    INSTANCEOF = 0xC1
    MONITORENTER = 0xC2
    MONITOREXIT = 0xC3
    WIDE_PREFIX = 0xC4
    MULTIANEWARRAY = 0xC5
    IFNULL = 0xC6
    IFNONNULL = 0xC7
    GOTO_W = 0xC8
    JSR_W = 0xC9


#: Value categories of the typed stack effects (JVMS §2.11.1): ``i``,
#: ``l``, ``f``, ``d`` and ``a`` (int, long, float, double, reference);
#: ``NULL`` is the null reference ``aconst_null`` pushes, and ``ANY`` a
#: popped value whose category is left unchecked (an array store's value).
NULL = "null"
ANY = "any"

#: Operand-stack slots a value of each category occupies.
SLOTS = {"i": 1, "f": 1, "a": 1, NULL: 1, "l": 2, "d": 2}

#: Families of the typed value opcodes (:attr:`OpcodeInfo.family`).
CONST = "const"
LOAD = "load"
STORE = "store"
RETURN = "return"


class StackEffect(NamedTuple):
    """A fixed operand-stack effect in value categories.

    Attributes:
        pops: the categories popped, top of stack first.
        push: the category pushed, or ``None`` when nothing is.
    """

    pops: Tuple[str, ...]
    push: Optional[str] = None


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one opcode.

    Attributes:
        op: the opcode.
        mnemonic: the JVMS mnemonic.
        operands: operand-kind layout (see module constants).
        effect: the fixed stack effect; ``None`` where the operands,
            resolved symbols or the stacked values' own categories decide
            (ldc, field access, invokes, multianewarray, pop/dup/swap,
            jsr and the wide prefix).
        family: ``CONST``/``LOAD``/``STORE``/``RETURN`` for the typed
            value opcodes (``aconst_null`` and ``ldc`` are not ``CONST``).
        cat: a family opcode's value category (``"v"`` for ``return``).
        implicit: the slot of an ``xload_n``/``xstore_n`` or the constant
            of an ``xconst_n`` shorthand; ``None`` where an operand says.
        is_branch: transfers control conditionally or unconditionally.
        is_terminal: ends a basic block with no fall-through
            (returns, athrow, goto, switches, ret).
    """

    op: Op
    mnemonic: str
    operands: Tuple[str, ...] = ()
    effect: Optional[StackEffect] = None
    family: Optional[str] = None
    cat: Optional[str] = None
    implicit: Union[int, float, None] = None
    is_branch: bool = False
    is_terminal: bool = False


def _build_table() -> Dict[int, OpcodeInfo]:
    table: Dict[int, OpcodeInfo] = {}

    def add(op: Op, operands: Tuple[str, ...] = (),
            pops: Optional[Tuple[str, ...]] = (), push: Optional[str] = None,
            **fields) -> None:
        """``pops=None`` marks an effect that is not fixed."""
        table[int(op)] = OpcodeInfo(
            op, op.name.lower().replace("_prefix", ""), operands,
            None if pops is None else StackEffect(pops, push), **fields)

    add(Op.NOP)
    add(Op.ACONST_NULL, push=NULL)
    for first, cat, values in ((Op.ICONST_M1, "i", (-1, 0, 1, 2, 3, 4, 5)),
                               (Op.LCONST_0, "l", (0, 1)),
                               (Op.FCONST_0, "f", (0.0, 1.0, 2.0)),
                               (Op.DCONST_0, "d", (0.0, 1.0))):
        for offset, value in enumerate(values):
            add(Op(first + offset), push=cat, family=CONST, cat=cat,
                implicit=value)
    add(Op.BIPUSH, (S1,), push="i", family=CONST, cat="i")
    add(Op.SIPUSH, (S2,), push="i", family=CONST, cat="i")
    add(Op.LDC, (CP1,), pops=None)
    add(Op.LDC_W, (CP2,), pops=None)
    add(Op.LDC2_W, (CP2,), pops=None)
    # Loads, stores and returns come in the category order i, l, f, d, a
    # (each xload_n/xstore_n run is slots 0-3); array loads and stores
    # add b, c and s, whose elements are ints on the stack.
    for k, cat in enumerate("ilfda"):
        add(Op(Op.ILOAD + k), (LOCAL1,), push=cat, family=LOAD, cat=cat)
        add(Op(Op.ISTORE + k), (LOCAL1,), pops=(cat,), family=STORE, cat=cat)
        for slot in range(4):
            add(Op(Op.ILOAD_0 + 4 * k + slot), push=cat, family=LOAD,
                cat=cat, implicit=slot)
            add(Op(Op.ISTORE_0 + 4 * k + slot), pops=(cat,), family=STORE,
                cat=cat, implicit=slot)
        add(Op(Op.IRETURN + k), pops=(cat,), family=RETURN, cat=cat,
            is_terminal=True)
    add(Op.RETURN, family=RETURN, cat="v", is_terminal=True)
    for k, cat in enumerate("ilfdaiii"):
        add(Op(Op.IALOAD + k), pops=("i", "a"), push=cat)
        add(Op(Op.IASTORE + k), pops=(ANY, "i", "a"))
    for op in (Op.POP, Op.POP2, Op.DUP, Op.DUP_X1, Op.DUP_X2, Op.DUP2,
               Op.DUP2_X1, Op.DUP2_X2, Op.SWAP):
        add(op, pops=None)
    # add, sub, mul, div and rem, then neg, each for i, l, f, d in turn.
    for k in range(20):
        cat = "ilfd"[k % 4]
        add(Op(Op.IADD + k), pops=(cat, cat), push=cat)
    for k, cat in enumerate("ilfd"):
        add(Op(Op.INEG + k), pops=(cat,), push=cat)
    # shl, shr, ushr, and, or and xor, each for i then l.
    for first in (Op.ISHL, Op.ISHR, Op.IUSHR):
        add(first, pops=("i", "i"), push="i")
        add(Op(first + 1), pops=("i", "l"), push="l")  # an int distance
    for first in (Op.IAND, Op.IOR, Op.IXOR):
        add(first, pops=("i", "i"), push="i")
        add(Op(first + 1), pops=("l", "l"), push="l")
    add(Op.IINC, (IINC,))
    # i2l through d2f: each category to each other one, in opcode order.
    conversion = Op.I2L
    for source in "ilfd":
        for target in "ilfd".replace(source, ""):
            add(Op(conversion), pops=(source,), push=target)
            conversion += 1
    for op in (Op.I2B, Op.I2C, Op.I2S):
        add(op, pops=("i",), push="i")
    for op, cat in ((Op.LCMP, "l"), (Op.FCMPL, "f"), (Op.FCMPG, "f"),
                    (Op.DCMPL, "d"), (Op.DCMPG, "d")):
        add(op, pops=(cat, cat), push="i")
    for op in (Op.IFEQ, Op.IFNE, Op.IFLT, Op.IFGE, Op.IFGT, Op.IFLE):
        add(op, (BRANCH2,), pops=("i",), is_branch=True)
    for op in (Op.IF_ICMPEQ, Op.IF_ICMPNE, Op.IF_ICMPLT, Op.IF_ICMPGE,
               Op.IF_ICMPGT, Op.IF_ICMPLE):
        add(op, (BRANCH2,), pops=("i", "i"), is_branch=True)
    for op in (Op.IF_ACMPEQ, Op.IF_ACMPNE):
        add(op, (BRANCH2,), pops=("a", "a"), is_branch=True)
    for op in (Op.IFNULL, Op.IFNONNULL):
        add(op, (BRANCH2,), pops=("a",), is_branch=True)
    add(Op.GOTO, (BRANCH2,), is_branch=True, is_terminal=True)
    add(Op.GOTO_W, (BRANCH4,), is_branch=True, is_terminal=True)
    # jsr pushes a returnAddress, which no value category describes.
    add(Op.JSR, (BRANCH2,), pops=None, is_branch=True)
    add(Op.JSR_W, (BRANCH4,), pops=None, is_branch=True)
    add(Op.RET, (LOCAL1,), is_terminal=True)
    for op in (Op.TABLESWITCH, Op.LOOKUPSWITCH):
        add(op, (SWITCH,), pops=("i",), is_branch=True, is_terminal=True)
    for op in (Op.GETSTATIC, Op.PUTSTATIC, Op.GETFIELD, Op.PUTFIELD,
               Op.INVOKEVIRTUAL, Op.INVOKESPECIAL, Op.INVOKESTATIC):
        add(op, (CP2,), pops=None)
    add(Op.INVOKEINTERFACE, (CP2, INVOKEINTERFACE), pops=None)
    add(Op.INVOKEDYNAMIC, (CP2, INVOKEDYNAMIC), pops=None)
    add(Op.NEW, (CP2,), push="a")
    add(Op.NEWARRAY, (ATYPE,), pops=("i",), push="a")
    add(Op.ANEWARRAY, (CP2,), pops=("i",), push="a")
    add(Op.ARRAYLENGTH, pops=("a",), push="i")
    add(Op.ATHROW, pops=("a",), is_terminal=True)
    add(Op.CHECKCAST, (CP2,), pops=("a",), push="a")
    add(Op.INSTANCEOF, (CP2,), pops=("a",), push="i")
    add(Op.MONITORENTER, pops=("a",))
    add(Op.MONITOREXIT, pops=("a",))
    add(Op.WIDE_PREFIX, (WIDE,), pops=None)
    add(Op.MULTIANEWARRAY, (MULTIANEWARRAY,), pops=None)
    return dict(sorted(table.items()))


#: Opcode byte → :class:`OpcodeInfo` for every standard opcode.
OPCODES: Dict[int, OpcodeInfo] = _build_table()

#: Opcodes whose ``index`` operand is a constant-pool index.
POOL_INDEX_OPS = frozenset(
    info.op for info in OPCODES.values()
    if {CP1, CP2, MULTIANEWARRAY} & set(info.operands))
