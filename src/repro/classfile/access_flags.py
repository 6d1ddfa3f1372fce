"""Access and property flags for classes, fields, and methods (JVMS §4.1/4.5/4.6)."""

from __future__ import annotations

from enum import IntFlag


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

#: Bits with a defined meaning on a class.
CLASS_FLAG_MASK = (
    AccessFlags.PUBLIC | AccessFlags.FINAL | AccessFlags.SUPER
    | AccessFlags.INTERFACE | AccessFlags.ABSTRACT | AccessFlags.SYNTHETIC
    | AccessFlags.ANNOTATION | AccessFlags.ENUM | AccessFlags.MODULE
)

#: Bits with a defined meaning on a field.
FIELD_FLAG_MASK = (
    AccessFlags.PUBLIC | AccessFlags.PRIVATE | AccessFlags.PROTECTED
    | AccessFlags.STATIC | AccessFlags.FINAL | AccessFlags.VOLATILE
    | AccessFlags.TRANSIENT | AccessFlags.SYNTHETIC | AccessFlags.ENUM
)

#: Bits with a defined meaning on a method.
METHOD_FLAG_MASK = (
    AccessFlags.PUBLIC | AccessFlags.PRIVATE | AccessFlags.PROTECTED
    | AccessFlags.STATIC | AccessFlags.FINAL | AccessFlags.SYNCHRONIZED
    | AccessFlags.BRIDGE | AccessFlags.VARARGS | AccessFlags.NATIVE
    | AccessFlags.ABSTRACT | AccessFlags.STRICT | AccessFlags.SYNTHETIC
)

#: The mutually exclusive visibility bits, and how many are set in each
#: value of them.
_VISIBILITY_MASK = ACC_PUBLIC | ACC_PRIVATE | ACC_PROTECTED
_VISIBILITY_COUNT = tuple(bin(bits).count("1")
                          for bits in range(_VISIBILITY_MASK + 1))

_CLASS_FLAG_NAMES = [
    (AccessFlags.PUBLIC, "ACC_PUBLIC"),
    (AccessFlags.PRIVATE, "ACC_PRIVATE"),
    (AccessFlags.PROTECTED, "ACC_PROTECTED"),
    (AccessFlags.STATIC, "ACC_STATIC"),
    (AccessFlags.FINAL, "ACC_FINAL"),
    (AccessFlags.SUPER, "ACC_SUPER"),
    (AccessFlags.NATIVE, "ACC_NATIVE"),
    (AccessFlags.INTERFACE, "ACC_INTERFACE"),
    (AccessFlags.ABSTRACT, "ACC_ABSTRACT"),
    (AccessFlags.STRICT, "ACC_STRICT"),
    (AccessFlags.SYNTHETIC, "ACC_SYNTHETIC"),
    (AccessFlags.ANNOTATION, "ACC_ANNOTATION"),
    (AccessFlags.ENUM, "ACC_ENUM"),
]


def flag_names(flags: AccessFlags) -> str:
    """Render ``flags`` like ``javap`` does: ``ACC_PUBLIC, ACC_STATIC``."""
    names = [name for bit, name in _CLASS_FLAG_NAMES if flags & bit]
    return ", ".join(names)


def count_visibility_flags(flags: int) -> int:
    """How many of public/private/protected are set (valid members have ≤1)."""
    return _VISIBILITY_COUNT[int(flags) & _VISIBILITY_MASK]
