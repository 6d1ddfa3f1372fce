"""Method entries of a classfile (JVMS §4.6)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.classfile.access_flags import (
    ACC_ABSTRACT,
    ACC_NATIVE,
    ACC_PUBLIC,
    ACC_STATIC,
    AccessFlags,
)
from repro.classfile.attributes import (
    Attribute,
    CodeAttribute,
    ExceptionsAttribute,
    find_attribute,
)

#: Special method names defined by the specification.
INSTANCE_INIT = "<init>"
CLASS_INIT = "<clinit>"


@dataclass
class MethodInfo:
    """One ``method_info`` structure.

    Attributes:
        access_flags: the method's access/property flags.
        name_index: constant-pool Utf8 index of the method name.
        descriptor_index: constant-pool Utf8 index of the method descriptor.
        attributes: method attributes (``Code``, ``Exceptions``, ...).
    """

    access_flags: AccessFlags
    name_index: int
    descriptor_index: int
    attributes: List[Attribute] = field(default_factory=list)

    def attribute(self, name: str) -> Attribute | None:
        """First attribute called ``name``."""
        return find_attribute(self.attributes, name)

    @property
    def code(self) -> Optional[CodeAttribute]:
        """The method's ``Code`` attribute, if any."""
        attr = self.attribute("Code")
        return attr if isinstance(attr, CodeAttribute) else None

    @property
    def exceptions(self) -> Optional[ExceptionsAttribute]:
        """The method's ``Exceptions`` attribute, if any."""
        attr = self.attribute("Exceptions")
        return attr if isinstance(attr, ExceptionsAttribute) else None

    @property
    def is_static(self) -> bool:
        return bool(int(self.access_flags) & ACC_STATIC)

    @property
    def is_abstract(self) -> bool:
        return bool(int(self.access_flags) & ACC_ABSTRACT)

    @property
    def is_native(self) -> bool:
        return bool(int(self.access_flags) & ACC_NATIVE)

    @property
    def is_public(self) -> bool:
        return bool(int(self.access_flags) & ACC_PUBLIC)

    @property
    def needs_code(self) -> bool:
        """Whether the spec requires this method to carry a Code attribute."""
        return not (self.is_abstract or self.is_native)
