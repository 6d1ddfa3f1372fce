"""Field entries of a classfile (JVMS §4.5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.classfile.access_flags import (
    ACC_FINAL,
    ACC_PUBLIC,
    ACC_STATIC,
    AccessFlags,
)
from repro.classfile.attributes import Attribute, find_attribute


@dataclass
class FieldInfo:
    """One ``field_info`` structure.

    Attributes:
        access_flags: the field's access/property flags.
        name_index: constant-pool Utf8 index of the field name.
        descriptor_index: constant-pool Utf8 index of the field descriptor.
        attributes: field attributes (``ConstantValue`` etc.).
    """

    access_flags: AccessFlags
    name_index: int
    descriptor_index: int
    attributes: List[Attribute] = field(default_factory=list)

    def attribute(self, name: str) -> Attribute | None:
        """First attribute called ``name``."""
        return find_attribute(self.attributes, name)

    @property
    def is_static(self) -> bool:
        return bool(int(self.access_flags) & ACC_STATIC)

    @property
    def is_final(self) -> bool:
        return bool(int(self.access_flags) & ACC_FINAL)

    @property
    def is_public(self) -> bool:
        return bool(int(self.access_flags) & ACC_PUBLIC)
