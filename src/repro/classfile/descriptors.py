"""Field and method descriptor grammar (JVMS §4.3).

Descriptors are the compact type strings stored in the constant pool,
e.g. ``(Ljava/lang/String;I)V`` for a method taking a ``String`` and an
``int`` and returning ``void``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

#: Base (primitive) type descriptor characters.
BASE_TYPES = {
    "B": "byte",
    "C": "char",
    "D": "double",
    "F": "float",
    "I": "int",
    "J": "long",
    "S": "short",
    "Z": "boolean",
}

#: Types occupying two local-variable / operand-stack slots.
TWO_SLOT_TYPES = {"J", "D"}


class DescriptorError(ValueError):
    """Raised when a descriptor string is malformed."""


@dataclass(frozen=True)
class FieldType:
    """A parsed field type.

    Attributes:
        kind: ``"base"``, ``"object"``, or ``"array"``.
        name: primitive char for base types, internal class name for
            object types, or the element descriptor for arrays.
        dimensions: array nesting depth (0 for non-arrays).
    """

    kind: str
    name: str
    dimensions: int = 0

    @property
    def slots(self) -> int:
        """Number of local-variable slots this type occupies.

        Arrays are references and always occupy one slot, even when the
        element type is long/double.
        """
        if self.kind == "base" and not self.dimensions \
                and self.name in TWO_SLOT_TYPES:
            return 2
        return 1

    def descriptor(self) -> str:
        """Re-render this type as a descriptor string."""
        prefix = "[" * self.dimensions
        if self.kind == "base":
            return prefix + self.name
        return f"{prefix}L{self.name};"

    @property
    def java_name(self) -> str:
        """Human-readable Java source name (``java.lang.String``, ``int[]``)."""
        if self.kind == "base":
            base = BASE_TYPES[self.name]
        else:
            base = self.name.replace("/", ".")
        return base + "[]" * self.dimensions


def parse_field_type(descriptor: str, offset: int = 0) -> Tuple[FieldType, int]:
    """Parse one field type starting at ``offset``.

    Returns:
        The parsed :class:`FieldType` and the offset just past it.

    Raises:
        DescriptorError: when the descriptor is malformed.
    """
    dims = 0
    i = offset
    while i < len(descriptor) and descriptor[i] == "[":
        dims += 1
        i += 1
    if dims > 255:
        raise DescriptorError(f"array dimensionality {dims} exceeds 255")
    if i >= len(descriptor):
        raise DescriptorError(f"truncated descriptor: {descriptor!r}")
    ch = descriptor[i]
    if ch in BASE_TYPES:
        return FieldType("base", ch, dims), i + 1
    if ch == "L":
        end = descriptor.find(";", i)
        if end < 0:
            raise DescriptorError(f"unterminated class type in {descriptor!r}")
        name = descriptor[i + 1:end]
        if not name:
            raise DescriptorError(f"empty class name in {descriptor!r}")
        return FieldType("object", name, dims), end + 1
    raise DescriptorError(f"bad type char {ch!r} in {descriptor!r}")


def parse_field_descriptor(descriptor: str) -> FieldType:
    """Parse a complete field descriptor, rejecting trailing garbage."""
    ftype, end = parse_field_type(descriptor)
    if end != len(descriptor):
        raise DescriptorError(f"trailing characters in {descriptor!r}")
    return ftype


@dataclass(frozen=True)
class MethodDescriptor:
    """A parsed method descriptor.

    Attributes:
        parameters: parameter types in declaration order.
        return_type: the return type, or ``None`` for ``void``.
    """

    parameters: Tuple[FieldType, ...]
    return_type: FieldType | None

    @property
    def parameter_slots(self) -> int:
        """Total local-variable slots occupied by the parameters."""
        return sum(p.slots for p in self.parameters)

    def descriptor(self) -> str:
        """Re-render as a descriptor string."""
        params = "".join(p.descriptor() for p in self.parameters)
        ret = self.return_type.descriptor() if self.return_type else "V"
        return f"({params}){ret}"


@functools.lru_cache(maxsize=4096)
def parse_method_descriptor(descriptor: str) -> MethodDescriptor:
    """Parse a method descriptor such as ``([Ljava/lang/String;)V``.

    Successful parses are memoized: the verifier, the interpreter and the
    loader's validity check parse the same few descriptors over and over,
    and the result (frozen, of tuples) can be shared.  A malformed
    descriptor raises on every call and is never cached.

    Raises:
        DescriptorError: when the descriptor is malformed.
    """
    if not descriptor.startswith("("):
        raise DescriptorError(f"method descriptor must start with '(': {descriptor!r}")
    params: List[FieldType] = []
    i = 1
    while i < len(descriptor) and descriptor[i] != ")":
        ftype, i = parse_field_type(descriptor, i)
        params.append(ftype)
    if i >= len(descriptor):
        raise DescriptorError(f"missing ')' in {descriptor!r}")
    i += 1  # skip ')'
    if i >= len(descriptor):
        raise DescriptorError(f"missing return type in {descriptor!r}")
    if descriptor[i] == "V":
        if i + 1 != len(descriptor):
            raise DescriptorError(f"trailing characters in {descriptor!r}")
        return MethodDescriptor(tuple(params), None)
    ret, end = parse_field_type(descriptor, i)
    if end != len(descriptor):
        raise DescriptorError(f"trailing characters in {descriptor!r}")
    return MethodDescriptor(tuple(params), ret)


def is_valid_field_descriptor(descriptor: str) -> bool:
    """Whether ``descriptor`` is a well-formed field descriptor."""
    try:
        parse_field_descriptor(descriptor)
    except DescriptorError:
        return False
    return True


def is_valid_method_descriptor(descriptor: str) -> bool:
    """Whether ``descriptor`` is a well-formed method descriptor."""
    try:
        parse_method_descriptor(descriptor)
    except DescriptorError:
        return False
    return True


def object_descriptor(internal_name: str) -> str:
    """Descriptor for an object type given its internal name."""
    return f"L{internal_name};"
