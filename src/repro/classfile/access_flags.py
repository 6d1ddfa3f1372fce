"""Access and property flags for classes, fields, and methods (JVMS §4.1/4.5/4.6)."""

from __future__ import annotations

from enum import IntFlag
from typing import List


class AccessFlags(IntFlag):
    """Bit mask of JVM access/property flags.

    The same bit can mean different things in different contexts
    (e.g. ``0x0020`` is ``ACC_SUPER`` on a class but ``ACC_SYNCHRONIZED``
    on a method); aliases are provided for both readings.
    """

    NONE = 0x0000
    PUBLIC = 0x0001
    PRIVATE = 0x0002
    PROTECTED = 0x0004
    STATIC = 0x0008
    FINAL = 0x0010
    SUPER = 0x0020          # class context
    SYNCHRONIZED = 0x0020   # method context (same bit)
    VOLATILE = 0x0040       # field context
    BRIDGE = 0x0040         # method context
    TRANSIENT = 0x0080      # field context
    VARARGS = 0x0080        # method context
    NATIVE = 0x0100
    INTERFACE = 0x0200
    ABSTRACT = 0x0400
    STRICT = 0x0800
    SYNTHETIC = 0x1000
    ANNOTATION = 0x2000
    ENUM = 0x4000
    MODULE = 0x8000


#: The flag bits as plain ints.  The loader and the member predicates
#: test these on every member of every class, and ``IntFlag.__and__``
#: costs some twenty times an int ``&``: convert the stored flags once
#: with ``int(flags)`` and test these masks.
ACC_PUBLIC = AccessFlags.PUBLIC.value
ACC_PRIVATE = AccessFlags.PRIVATE.value
ACC_PROTECTED = AccessFlags.PROTECTED.value
ACC_STATIC = AccessFlags.STATIC.value
ACC_FINAL = AccessFlags.FINAL.value
ACC_SUPER = AccessFlags.SUPER.value
ACC_SYNCHRONIZED = AccessFlags.SYNCHRONIZED.value
ACC_VOLATILE = AccessFlags.VOLATILE.value
ACC_BRIDGE = AccessFlags.BRIDGE.value
ACC_TRANSIENT = AccessFlags.TRANSIENT.value
ACC_VARARGS = AccessFlags.VARARGS.value
ACC_NATIVE = AccessFlags.NATIVE.value
ACC_INTERFACE = AccessFlags.INTERFACE.value
ACC_ABSTRACT = AccessFlags.ABSTRACT.value
ACC_STRICT = AccessFlags.STRICT.value
ACC_SYNTHETIC = AccessFlags.SYNTHETIC.value
ACC_ANNOTATION = AccessFlags.ANNOTATION.value
ACC_ENUM = AccessFlags.ENUM.value

#: The mutually exclusive visibility bits, and how many are set in each
#: value of them.
_VISIBILITY_MASK = ACC_PUBLIC | ACC_PRIVATE | ACC_PROTECTED
_VISIBILITY_COUNT = tuple(bin(bits).count("1")
                          for bits in range(_VISIBILITY_MASK + 1))

#: One ``(bit, modifier)`` table per context, in bit order: each flag
#: with a meaning there and its Jimple modifier string.  The compiler
#: reads a table one way, the lifter the other, and the disassembler
#: prints the same bits under javap's ``ACC_`` names.  A class keeps
#: ``private`` and ``protected``: mutators set them, and JVMs must see
#: them.
CLASS_FLAGS = (
    (ACC_PUBLIC, "public"),
    (ACC_PRIVATE, "private"),
    (ACC_PROTECTED, "protected"),
    (ACC_FINAL, "final"),
    (ACC_SUPER, "super"),
    (ACC_INTERFACE, "interface"),
    (ACC_ABSTRACT, "abstract"),
    (ACC_SYNTHETIC, "synthetic"),
    (ACC_ANNOTATION, "annotation"),
    (ACC_ENUM, "enum"),
)
FIELD_FLAGS = (
    (ACC_PUBLIC, "public"),
    (ACC_PRIVATE, "private"),
    (ACC_PROTECTED, "protected"),
    (ACC_STATIC, "static"),
    (ACC_FINAL, "final"),
    (ACC_VOLATILE, "volatile"),
    (ACC_TRANSIENT, "transient"),
    (ACC_SYNTHETIC, "synthetic"),
    (ACC_ENUM, "enum"),
)
METHOD_FLAGS = (
    (ACC_PUBLIC, "public"),
    (ACC_PRIVATE, "private"),
    (ACC_PROTECTED, "protected"),
    (ACC_STATIC, "static"),
    (ACC_FINAL, "final"),
    (ACC_SYNCHRONIZED, "synchronized"),
    (ACC_BRIDGE, "bridge"),
    (ACC_VARARGS, "varargs"),
    (ACC_NATIVE, "native"),
    (ACC_ABSTRACT, "abstract"),
    (ACC_STRICT, "strictfp"),
    (ACC_SYNTHETIC, "synthetic"),
)


def modifiers(flags: int, table) -> List[str]:
    """The modifiers of the bits set in ``flags``, per a context's table."""
    flags = int(flags)
    return [modifier for bit, modifier in table if flags & bit]


def flag_names(flags: int, table) -> str:
    """Render ``flags`` like ``javap`` does: ``ACC_PUBLIC, ACC_STATIC``,
    then each bit without a meaning in the context in hex, highest
    first (``0x200``)."""
    # javap spells the strictfp bit ACC_STRICT.
    names = ["ACC_STRICT" if modifier == "strictfp"
             else f"ACC_{modifier.upper()}"
             for modifier in modifiers(flags, table)]
    rest = int(flags) & ~sum(bit for bit, _ in table)
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        names.append(f"{bit:#x}")
        rest ^= bit
    return ", ".join(names)


def count_visibility_flags(flags: int) -> int:
    """How many of public/private/protected are set (valid members have ≤1)."""
    return _VISIBILITY_COUNT[int(flags) & _VISIBILITY_MASK]
