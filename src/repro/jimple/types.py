"""Jimple-level types: Java source names ↔ JVM descriptors.

Jimple renders types as Java source names (``java.lang.String``, ``int``,
``java.lang.Object[]``); classfiles store descriptors
(``Ljava/lang/String;``, ``I``, ``[Ljava/lang/Object;``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classfile.descriptors import (
    BASE_TYPES,
    DescriptorError,
    parse_field_descriptor,
)

#: Java primitive name → descriptor char.
PRIMITIVE_DESCRIPTORS = {name: char for char, name in BASE_TYPES.items()}

#: Type name → load/store/return category; every other name is ``a``.
_CATEGORIES = {"int": "i", "boolean": "i", "byte": "i", "char": "i",
               "short": "i", "long": "l", "float": "f", "double": "d"}

#: Type name → local-variable slots; every other name takes one.
_SLOTS = {"long": 2, "double": 2, "void": 0}

#: The names that are not reference types: the primitives and void.
_NON_REFERENCE = frozenset(PRIMITIVE_DESCRIPTORS) | {"void"}


@dataclass(frozen=True)
class JType:
    """A Jimple type, stored as a Java source name.

    Attributes:
        name: e.g. ``"int"``, ``"java.lang.String"``, ``"byte[][]"``,
            or ``"void"``.
    """

    name: str

    @property
    def is_void(self) -> bool:
        return self.name == "void"

    @property
    def is_array(self) -> bool:
        return self.name.endswith("[]")

    @property
    def element(self) -> "JType":
        """The element type of an array type."""
        if not self.is_array:
            raise ValueError(f"{self.name} is not an array type")
        return JType(self.name[:-2])

    @property
    def base_name(self) -> str:
        """The name with all array suffixes stripped."""
        return self.name.replace("[]", "")

    @property
    def dimensions(self) -> int:
        return self.name.count("[]")

    @property
    def is_primitive(self) -> bool:
        return self.name in PRIMITIVE_DESCRIPTORS

    @property
    def is_reference(self) -> bool:
        return self.name not in _NON_REFERENCE

    @property
    def slots(self) -> int:
        """Local-variable slots this type occupies (2 for long/double)."""
        return _SLOTS.get(self.name, 1)

    @property
    def internal_name(self) -> str:
        """Slash-separated internal name (only sensible for class types)."""
        return self.base_name.replace(".", "/")

    def descriptor(self) -> str:
        """The JVM descriptor for this type."""
        return java_to_descriptor(self.name)

    #: Category used to pick load/store/return opcodes: one of
    #: ``i``, ``l``, ``f``, ``d``, ``a``.
    @property
    def category(self) -> str:
        return _CATEGORIES.get(self.name, "a")

    def __str__(self) -> str:
        return self.name


VOID = JType("void")
INT = JType("int")
BOOLEAN = JType("boolean")
LONG = JType("long")
FLOAT = JType("float")
DOUBLE = JType("double")
OBJECT = JType("java.lang.Object")
STRING = JType("java.lang.String")
STRING_ARRAY = JType("java.lang.String[]")


def java_to_descriptor(java_name: str) -> str:
    """Convert ``java.lang.String[]`` style names to descriptors."""
    dims = java_name.count("[]")
    base = java_name.replace("[]", "")
    if base == "void":
        if dims:
            raise DescriptorError("void cannot be an array element")
        return "V"
    char = PRIMITIVE_DESCRIPTORS.get(base)
    if char is not None:
        return "[" * dims + char
    return "[" * dims + "L" + base.replace(".", "/") + ";"


def descriptor_to_java(descriptor: str) -> str:
    """Convert a field descriptor (or ``V``) to a Java source name."""
    if descriptor == "V":
        return "void"
    return parse_field_descriptor(descriptor).java_name
