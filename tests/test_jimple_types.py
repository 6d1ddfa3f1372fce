"""Unit tests for Jimple types and name/descriptor conversion."""

import pytest

from repro.classfile.descriptors import DescriptorError
from repro.jimple.types import (
    INT,
    PRIMITIVE_DESCRIPTORS,
    JType,
    STRING,
    VOID,
    descriptor_to_java,
    java_to_descriptor,
)


class TestJType:
    def test_primitive_properties(self):
        assert INT.is_primitive
        assert not INT.is_reference
        assert INT.slots == 1
        assert INT.category == "i"

    def test_wide_primitives(self):
        assert JType("long").slots == 2
        assert JType("double").slots == 2
        assert JType("long").category == "l"

    def test_void(self):
        assert VOID.is_void
        assert VOID.slots == 0

    def test_reference(self):
        assert STRING.is_reference
        assert STRING.category == "a"
        assert STRING.internal_name == "java/lang/String"

    def test_array(self):
        array = JType("int[][]")
        assert array.is_array
        assert array.dimensions == 2
        assert array.base_name == "int"
        assert array.element == JType("int[]")
        assert array.category == "a"
        assert array.slots == 1

    def test_element_of_non_array_raises(self):
        with pytest.raises(ValueError):
            INT.element

    def test_boolean_is_int_category(self):
        assert JType("boolean").category == "i"


class TestConversions:
    @pytest.mark.parametrize("java,descriptor", [
        ("int", "I"),
        ("boolean", "Z"),
        ("long", "J"),
        ("void", "V"),
        ("java.lang.String", "Ljava/lang/String;"),
        ("int[]", "[I"),
        ("java.lang.Object[][]", "[[Ljava/lang/Object;"),
    ])
    def test_java_to_descriptor(self, java, descriptor):
        assert java_to_descriptor(java) == descriptor

    @pytest.mark.parametrize("descriptor,java", [
        ("I", "int"),
        ("V", "void"),
        ("Ljava/util/Map;", "java.util.Map"),
        ("[B", "byte[]"),
        ("[[Ljava/lang/String;", "java.lang.String[][]"),
    ])
    def test_descriptor_to_java(self, descriptor, java):
        assert descriptor_to_java(descriptor) == java

    def test_roundtrip(self):
        for name in ("int", "java.util.Map", "double[]", "char[][]"):
            assert descriptor_to_java(java_to_descriptor(name)) == name

    def test_void_array_rejected(self):
        with pytest.raises(DescriptorError):
            java_to_descriptor("void[]")

    def test_jtype_descriptor_method(self):
        assert JType("java.util.Map").descriptor() == "Ljava/util/Map;"
        assert JType("short[]").descriptor() == "[S"


class TestDerivedPropertiesAreTableLookups:
    """``category``, ``slots``, ``is_reference`` and ``is_primitive``
    agree with their definitions on every kind of name."""

    NAMES = ["int", "boolean", "byte", "char", "short", "long", "float",
             "double", "void", "java.lang.String", "int[]", "long[]",
             "double[][]", "void[]", "Demo", "", "[]"]

    @pytest.mark.parametrize("name", NAMES)
    def test_matches_definition(self, name):
        jtype = JType(name)
        is_array = name.endswith("[]")
        is_primitive = not is_array and name in PRIMITIVE_DESCRIPTORS
        is_reference = name != "void" and not is_primitive
        assert jtype.is_primitive == is_primitive
        assert jtype.is_reference == is_reference
        assert jtype.slots == (2 if name in ("long", "double")
                               else 0 if name == "void" else 1)
        assert jtype.category == (
            "a" if is_array or is_reference
            else {"int": "i", "boolean": "i", "byte": "i", "char": "i",
                  "short": "i", "long": "l", "float": "f",
                  "double": "d"}.get(name, "a"))

    def test_no_new_field(self):
        import dataclasses
        import pickle

        assert [f.name for f in dataclasses.fields(JType)] == ["name"]
        assert pickle.loads(pickle.dumps(JType("long"))).slots == 2
