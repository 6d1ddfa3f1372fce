"""The top-level ``ClassFile`` structure (JVMS §4.1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.classfile.access_flags import ACC_INTERFACE, AccessFlags
from repro.classfile.attributes import Attribute, find_attribute
from repro.classfile.constant_pool import ConstantPool
from repro.classfile.fields import FieldInfo
from repro.classfile.methods import MethodInfo

#: The mandatory magic number at the start of every classfile.
MAGIC = 0xCAFEBABE

#: Major version numbers per platform.
JAVA5_MAJOR = 49
JAVA6_MAJOR = 50
JAVA7_MAJOR = 51
JAVA8_MAJOR = 52
JAVA9_MAJOR = 53

#: Internal name of the root class.
OBJECT_NAME = "java/lang/Object"


@dataclass
class ClassFile:
    """A parsed (or constructed) classfile.

    Attributes:
        minor_version/major_version: classfile version pair.
        constant_pool: the constant pool.
        access_flags: class access/property flags.
        this_class: constant-pool Class index of this class.
        super_class: constant-pool Class index of the superclass (0 only
            for ``java/lang/Object``).
        interfaces: constant-pool Class indices of direct superinterfaces.
        fields/methods: member tables.
        attributes: class attributes.
    """

    minor_version: int = 0
    major_version: int = JAVA7_MAJOR
    constant_pool: ConstantPool = field(default_factory=ConstantPool)
    access_flags: AccessFlags = AccessFlags.SUPER
    this_class: int = 0
    super_class: int = 0
    interfaces: List[int] = field(default_factory=list)
    fields: List[FieldInfo] = field(default_factory=list)
    methods: List[MethodInfo] = field(default_factory=list)
    attributes: List[Attribute] = field(default_factory=list)

    # -- resolved-name conveniences ------------------------------------------

    @property
    def name(self) -> str:
        """This class's internal name (slash-separated)."""
        return self.constant_pool.get_class_name(self.this_class)

    @property
    def java_name(self) -> str:
        """This class's binary name (dot-separated), as JVMs print it."""
        return self.name.replace("/", ".")

    @property
    def super_name(self) -> Optional[str]:
        """The superclass internal name, or ``None`` when ``super_class`` is 0."""
        if self.super_class == 0:
            return None
        return self.constant_pool.get_class_name(self.super_class)

    @property
    def interface_names(self) -> List[str]:
        """Internal names of all direct superinterfaces."""
        return [self.constant_pool.get_class_name(i) for i in self.interfaces]

    @property
    def is_interface(self) -> bool:
        return bool(int(self.access_flags) & ACC_INTERFACE)

    def attribute(self, name: str) -> Attribute | None:
        """First class attribute called ``name``."""
        return find_attribute(self.attributes, name)

    # -- member lookup ---------------------------------------------------------

    def method_name(self, method: MethodInfo) -> str:
        """Resolve a method's name through the constant pool."""
        return self.constant_pool.get_utf8(method.name_index)

    def method_descriptor(self, method: MethodInfo) -> str:
        """Resolve a method's descriptor through the constant pool."""
        return self.constant_pool.get_utf8(method.descriptor_index)

    def field_name(self, field_info: FieldInfo) -> str:
        """Resolve a field's name through the constant pool."""
        return self.constant_pool.get_utf8(field_info.name_index)

    def field_descriptor(self, field_info: FieldInfo) -> str:
        """Resolve a field's descriptor through the constant pool."""
        return self.constant_pool.get_utf8(field_info.descriptor_index)

    def find_method(self, name: str, descriptor: str | None = None
                    ) -> Optional[MethodInfo]:
        """First method matching ``name`` (and ``descriptor`` when given)."""
        for method in self.methods:
            if self.method_name(method) != name:
                continue
            if descriptor is None or self.method_descriptor(method) == descriptor:
                return method
        return None

    def find_field(self, name: str) -> Optional[FieldInfo]:
        """First field called ``name``."""
        for field_info in self.fields:
            if self.field_name(field_info) == name:
                return field_info
        return None

    def main_method(self) -> Optional[MethodInfo]:
        """The launcher entry point ``main([Ljava/lang/String;)V``, if present."""
        return self.find_method("main", "([Ljava/lang/String;)V")
