"""Unit tests for the constant pool model."""

import pytest

from repro.classfile.constant_pool import (
    ConstantPool,
    ConstantPoolError,
    CpInfo,
    CpTag,
)


class TestInterning:
    def test_utf8_interned_once(self):
        pool = ConstantPool()
        first = pool.utf8("hello")
        second = pool.utf8("hello")
        assert first == second
        assert len(pool) == 1

    def test_distinct_strings_get_distinct_indices(self):
        pool = ConstantPool()
        assert pool.utf8("a") != pool.utf8("b")

    def test_class_ref_creates_utf8(self):
        pool = ConstantPool()
        index = pool.class_ref("java/lang/Object")
        assert pool.get_class_name(index) == "java/lang/Object"
        # Two entries: the Utf8 and the Class.
        assert len(pool) == 2

    def test_method_ref_roundtrip(self):
        pool = ConstantPool()
        index = pool.method_ref("java/io/PrintStream", "println",
                                "(Ljava/lang/String;)V")
        assert pool.get_member_ref(index) == (
            "java/io/PrintStream", "println", "(Ljava/lang/String;)V")

    def test_field_ref_roundtrip(self):
        pool = ConstantPool()
        index = pool.field_ref("java/lang/System", "out",
                               "Ljava/io/PrintStream;")
        assert pool.get_member_ref(index) == (
            "java/lang/System", "out", "Ljava/io/PrintStream;")

    def test_interface_method_ref_tag(self):
        pool = ConstantPool()
        index = pool.interface_method_ref("java/util/Map", "get",
                                          "(Ljava/lang/Object;)Ljava/lang/Object;")
        assert pool.entry(index).tag is CpTag.INTERFACE_METHODREF

    def test_string_roundtrip(self):
        pool = ConstantPool()
        index = pool.string("Completed!")
        assert pool.get_string(index) == "Completed!"

    def test_name_and_type_roundtrip(self):
        pool = ConstantPool()
        index = pool.name_and_type("main", "([Ljava/lang/String;)V")
        assert pool.get_name_and_type(index) == ("main",
                                                 "([Ljava/lang/String;)V")


class TestWideEntries:
    def test_long_occupies_two_slots(self):
        pool = ConstantPool()
        first = pool.long(42)
        second = pool.utf8("after")
        assert second == first + 2

    def test_double_occupies_two_slots(self):
        pool = ConstantPool()
        first = pool.double(3.5)
        assert pool.utf8("x") == first + 2

    def test_hole_after_long_is_error(self):
        pool = ConstantPool()
        index = pool.long(42)
        with pytest.raises(ConstantPoolError, match="unusable"):
            pool.entry(index + 1)

    def test_long_value_roundtrip(self):
        pool = ConstantPool()
        index = pool.long(-(2 ** 40))
        assert pool.entry(index).value == -(2 ** 40)


class TestErrors:
    def test_index_zero_is_invalid(self):
        pool = ConstantPool()
        pool.utf8("x")
        with pytest.raises(ConstantPoolError):
            pool.entry(0)

    def test_out_of_range_index(self):
        pool = ConstantPool()
        pool.utf8("x")
        with pytest.raises(ConstantPoolError, match="out of range"):
            pool.entry(99)

    def test_tag_mismatch_on_typed_read(self):
        pool = ConstantPool()
        index = pool.integer(7)
        with pytest.raises(ConstantPoolError, match="expected"):
            pool.get_utf8(index)

    def test_maybe_entry_returns_none(self):
        pool = ConstantPool()
        assert pool.maybe_entry(5) is None


class TestIterationAndDiagnostics:
    def test_iteration_in_index_order(self):
        pool = ConstantPool()
        pool.utf8("a")
        pool.long(1)
        pool.utf8("b")
        indices = [index for index, _ in pool]
        assert indices == sorted(indices)

    def test_referenced_class_names(self):
        pool = ConstantPool()
        pool.class_ref("java/lang/Object")
        pool.class_ref("Demo")
        assert set(pool.referenced_class_names()) == {"java/lang/Object",
                                                      "Demo"}

    def test_add_at_interns_for_reuse(self):
        pool = ConstantPool()
        pool.add_at(1, CpInfo(CpTag.UTF8, "Code"))
        pool.set_count(2)
        assert pool.utf8("Code") == 1
        assert len(pool) == 1


class TestFloatKeys:
    """FLOAT and DOUBLE entries are interned by bit pattern."""

    @pytest.mark.parametrize("intern", [ConstantPool.float_,
                                        ConstantPool.double],
                             ids=["float", "double"])
    def test_signed_zeros_get_two_entries(self, intern):
        pool = ConstantPool()
        positive = intern(pool, 0.0)
        negative = intern(pool, -0.0)
        assert positive != negative
        assert str(pool.entry(negative).value) == "-0.0"
        assert intern(pool, -0.0) == negative
        assert intern(pool, 0.0) == positive

    @pytest.mark.parametrize("intern", [ConstantPool.float_,
                                        ConstantPool.double],
                             ids=["float", "double"])
    def test_nans_share_an_entry_whatever_their_identity(self, intern):
        # Two NaN objects are not equal and hash by identity; a pickle
        # round trip turns one NaN object into two.
        first, second = float("nan"), float("nan")
        pool = ConstantPool()
        assert intern(pool, first) == intern(pool, second)

    @pytest.mark.parametrize("tag", [CpTag.FLOAT, CpTag.DOUBLE],
                             ids=["float", "double"])
    def test_reader_entries_use_the_same_key(self, tag):
        pool = ConstantPool()
        pool.add_at(1, CpInfo(tag, -0.0))
        pool.set_count(3)
        intern = (ConstantPool.float_ if tag is CpTag.FLOAT
                  else ConstantPool.double)
        assert intern(pool, -0.0) == 1
        assert intern(pool, 0.0) == 3
