"""Unit tests for descriptor parsing (JVMS §4.3)."""

import pytest

from repro.classfile.descriptors import (
    DescriptorError,
    FieldType,
    is_valid_field_descriptor,
    is_valid_method_descriptor,
    object_descriptor,
    parse_field_descriptor,
    parse_method_descriptor,
)


class TestFieldDescriptors:
    @pytest.mark.parametrize("descriptor,kind,name", [
        ("I", "base", "I"),
        ("Z", "base", "Z"),
        ("J", "base", "J"),
        ("Ljava/lang/String;", "object", "java/lang/String"),
    ])
    def test_simple_types(self, descriptor, kind, name):
        ftype = parse_field_descriptor(descriptor)
        assert ftype.kind == kind
        assert ftype.name == name
        assert ftype.dimensions == 0

    def test_array_dimensions(self):
        ftype = parse_field_descriptor("[[I")
        assert ftype.dimensions == 2
        assert ftype.name == "I"

    def test_object_array(self):
        ftype = parse_field_descriptor("[Ljava/lang/Object;")
        assert ftype.dimensions == 1
        assert ftype.kind == "object"

    def test_descriptor_roundtrip(self):
        for descriptor in ("I", "[[D", "Ljava/util/Map;", "[Ljava/lang/String;"):
            assert parse_field_descriptor(descriptor).descriptor() == descriptor

    def test_java_name(self):
        assert parse_field_descriptor("[I").java_name == "int[]"
        assert parse_field_descriptor("Ljava/lang/String;").java_name == \
            "java.lang.String"

    def test_slots(self):
        assert parse_field_descriptor("J").slots == 2
        assert parse_field_descriptor("D").slots == 2
        assert parse_field_descriptor("I").slots == 1
        assert parse_field_descriptor("[J").slots == 1  # array ref is 1 slot

    @pytest.mark.parametrize("bad", ["", "X", "L;", "Ljava/lang/String",
                                     "II", "[", "Lfoo;garbage"])
    def test_malformed(self, bad):
        with pytest.raises(DescriptorError):
            parse_field_descriptor(bad)

    def test_validity_predicate(self):
        assert is_valid_field_descriptor("I")
        assert not is_valid_field_descriptor("Q")


class TestMethodDescriptors:
    def test_void_no_args(self):
        parsed = parse_method_descriptor("()V")
        assert parsed.parameters == ()
        assert parsed.return_type is None

    def test_main_signature(self):
        parsed = parse_method_descriptor("([Ljava/lang/String;)V")
        assert len(parsed.parameters) == 1
        assert parsed.parameters[0].dimensions == 1

    def test_mixed_parameters(self):
        parsed = parse_method_descriptor("(IJLjava/lang/String;[B)I")
        assert [p.descriptor() for p in parsed.parameters] == [
            "I", "J", "Ljava/lang/String;", "[B"]
        assert parsed.return_type.descriptor() == "I"

    def test_parameter_slots_count_wides(self):
        parsed = parse_method_descriptor("(JDI)V")
        assert parsed.parameter_slots == 5

    def test_roundtrip(self):
        for descriptor in ("()V", "(I)I", "(Ljava/util/Map;)Z",
                           "([[Ljava/lang/Object;J)Ljava/lang/String;"):
            assert parse_method_descriptor(descriptor).descriptor() == \
                descriptor

    @pytest.mark.parametrize("bad", ["", "I", "(I", "()", "()VV", "(Q)V",
                                     "()Lfoo"])
    def test_malformed(self, bad):
        with pytest.raises(DescriptorError):
            parse_method_descriptor(bad)

    def test_validity_predicate(self):
        assert is_valid_method_descriptor("(II)V")
        assert not is_valid_method_descriptor("(II)")


def test_object_descriptor_helper():
    assert object_descriptor("java/lang/Object") == "Ljava/lang/Object;"


class TestMethodDescriptorMemo:
    def test_successful_parses_are_shared(self):
        descriptor = "(JLjava/lang/String;[[D)Ljava/lang/Object;"
        first = parse_method_descriptor(descriptor)
        assert parse_method_descriptor(descriptor) is first
        assert first.parameter_slots == 4

    def test_errors_raise_every_time_and_are_never_cached(self):
        parse_method_descriptor.cache_clear()
        for _ in range(3):
            with pytest.raises(DescriptorError,
                               match=r"missing return type in '\(I\)'"):
                parse_method_descriptor("(I)")
        info = parse_method_descriptor.cache_info()
        assert info.hits == 0 and info.currsize == 0

    def test_memo_is_bounded(self):
        assert parse_method_descriptor.cache_info().maxsize == 4096
