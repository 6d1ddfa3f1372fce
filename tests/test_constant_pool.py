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
        pool = ConstantPool.parsed({1: CpInfo(tag, -0.0)}, 3)
        intern = (ConstantPool.float_ if tag is CpTag.FLOAT
                  else ConstantPool.double)
        assert intern(pool, -0.0) == 1
        assert intern(pool, 0.0) == 3


class TestOrderedIteration:
    """The pool's dict stays in index order; iteration never re-sorts it
    on every pass, whatever order ``add_at`` filled it in."""

    def filled_out_of_order(self):
        pool = ConstantPool()
        pool.add_at(4, CpInfo(CpTag.CLASS, (3,)))
        pool.add_at(1, CpInfo(CpTag.LONG, 7))
        pool.add_at(3, CpInfo(CpTag.UTF8, "Demo"))
        return pool

    def test_out_of_order_add_at_iterates_in_index_order(self):
        pool = self.filled_out_of_order()
        assert [index for index, _ in pool] == [1, 3, 4]
        assert [index for index, _ in pool] == [1, 3, 4]
        assert pool.get_class_name(4) == "Demo"

    def test_sorted_once_not_on_every_pass(self, monkeypatch):
        from repro.classfile import constant_pool

        sorts = []

        def counting_sorted(items):
            sorts.append(1)
            return sorted(items)

        pool = self.filled_out_of_order()
        monkeypatch.setattr(constant_pool, "sorted", counting_sorted,
                            raising=False)
        for _ in range(3):
            assert [index for index, _ in pool] == [1, 3, 4]
        assert len(sorts) == 1
        pool.utf8("appended")
        assert [index for index, _ in pool] == [1, 3, 4, 5]
        assert len(sorts) == 1

    def test_appends_never_sort(self, monkeypatch):
        from repro.classfile import constant_pool

        monkeypatch.setattr(constant_pool, "sorted", None, raising=False)
        pool = ConstantPool()
        pool.class_ref("A")
        pool.double(1.0)
        pool.add_at(len(pool) + 1, CpInfo(CpTag.INTEGER, 3))
        pool.integer(4)
        assert [index for index, _ in pool] == [1, 2, 3, 5, 6]

    def test_mutation_during_iteration_is_safe(self):
        pool = self.filled_out_of_order()
        for _, info in pool:
            if info.tag is CpTag.UTF8:
                pool.utf8(info.value + "!")
        assert [index for index, _ in pool] == [1, 3, 4, 5]


class TestCpInfo:
    def test_is_wide_set_at_construction(self):
        assert CpInfo(CpTag.LONG, 1).is_wide
        assert CpInfo(CpTag.DOUBLE, 1.0).is_wide
        assert not CpInfo(CpTag.UTF8, "x").is_wide
        assert not CpInfo(CpTag.INTEGER, 1).is_wide

    def test_slotted(self):
        info = CpInfo(CpTag.UTF8, "x")
        assert not hasattr(info, "__dict__")
        with pytest.raises(AttributeError):
            info.extra = 1

    def test_equality_repr_and_unhashability(self):
        assert CpInfo(CpTag.CLASS, (1,)) == CpInfo(CpTag.CLASS, (1,))
        assert CpInfo(CpTag.CLASS, (1,)) != CpInfo(CpTag.CLASS, (2,))
        assert CpInfo(CpTag.INTEGER, 1) != CpInfo(CpTag.FLOAT, 1)
        assert CpInfo(CpTag.INTEGER, 1) != (CpTag.INTEGER, 1)
        assert repr(CpInfo(CpTag.UTF8, "x")) == \
            "CpInfo(tag=<CpTag.UTF8: 1>, value='x')"
        with pytest.raises(TypeError):
            hash(CpInfo(CpTag.UTF8, "x"))

    def test_pickle_and_copy_keep_is_wide(self):
        import copy
        import pickle

        for clone in (pickle.loads(pickle.dumps(CpInfo(CpTag.LONG, 5))),
                      copy.deepcopy(CpInfo(CpTag.LONG, 5))):
            assert clone == CpInfo(CpTag.LONG, 5)
            assert clone.is_wide


class TestEntryLookup:
    def test_miss_messages(self):
        pool = ConstantPool()
        pool.long(1)
        with pytest.raises(ConstantPoolError,
                           match=r"^constant pool index 2 is the unusable "
                                 r"slot after a long/double entry$"):
            pool.entry(2)
        for index in (0, -1, 3, 99, None, "1"):
            with pytest.raises(ConstantPoolError,
                               match=rf"^constant pool index {index} out of "
                                     r"range \(count=3\)$"):
                pool.entry(index)


def _parsed_pool(data):
    from repro.classfile.reader import parse_class

    return parse_class(data).classfile.constant_pool


def _class_with_duplicate_utf8():
    """A compiled class whose pool repeats ``Code`` (added, not
    interned) after its first one."""
    from repro.classfile.reader import read_class
    from repro.classfile.writer import write_class
    from repro.corpus import CorpusConfig, generate_corpus
    from repro.jimple.to_classfile import compile_class_bytes

    seed = generate_corpus(CorpusConfig(count=1, seed=3))[0]
    classfile = read_class(compile_class_bytes(seed))
    first = classfile.constant_pool.utf8("Code")
    duplicate = classfile.constant_pool.add(CpInfo(CpTag.UTF8, "Code"))
    return write_class(classfile), first, duplicate


class TestParsedPool:
    """A pool the reader built interns only on demand."""

    def test_no_intern_map_until_something_interns(self):
        data, first, duplicate = _class_with_duplicate_utf8()
        pool = _parsed_pool(data)
        assert pool._intern is None
        assert pool.get_utf8(duplicate) == "Code"
        assert pool._intern is None
        # Interning finds the lowest index, as the eager map did.
        assert pool.utf8("Code") == first
        assert pool._intern is not None
        fresh = pool.utf8("never seen before")
        assert fresh == len(pool)
        assert pool.utf8("never seen before") == fresh

    def test_reference_run_never_builds_the_map(self, monkeypatch):
        from repro.coverage.probes import CoverageCollector
        from repro.jvm.vendors import all_jvms

        data, _, _ = _class_with_duplicate_utf8()
        built = []
        original = ConstantPool._intern_map

        def counting(pool):
            built.append(pool)
            return original(pool)

        monkeypatch.setattr(ConstantPool, "_intern_map", counting)
        reference = next(jvm for jvm in all_jvms()
                         if jvm.name == "hotspot9")
        with CoverageCollector():
            outcome = reference.run(data)
        assert outcome.phase is not None
        assert built == []

    def test_add_at_on_a_parsed_pool_keeps_the_first_key(self):
        data, first, duplicate = _class_with_duplicate_utf8()
        pool = _parsed_pool(data)
        pool.add_at(first, CpInfo(CpTag.UTF8, "Renamed"))
        # As with eager interning: the old key still names ``first``.
        assert pool.utf8("Code") == first
        assert pool.utf8("Renamed") == first


#: ``pickle.dumps(CpInfo(CpTag.LONG, -5), protocol=4)`` while CpInfo was
#: a dataclass (its state is a field dict).
_DATACLASS_CPINFO = (
    "gASVWQAAAAAAAACMHXJlcHJvLmNsYXNzZmlsZS5jb25zdGFudF9wb29slIwGQ3BJbmZv"
    "lJOUKYGUfZQojAN0YWeUaACMBUNwVGFnlJOUSwWFlFKUjAV2YWx1ZZRK+////3ViLg==")

#: A pool pickled before the order flag and the lazy intern map: filled
#: with ``add_at(3, Utf8 "Code")``, ``add_at(1, Long 7)``,
#: ``add_at(4, Class #3)``, then ``set_count(5)``; its dict is in that
#: (non-index) order.
_PRE_ORDER_POOL = (
    "gASV8wAAAAAAAACMHXJlcHJvLmNsYXNzZmlsZS5jb25zdGFudF9wb29slIwMQ29uc3Rh"
    "bnRQb29slJOUKYGUfZQojAhfZW50cmllc5R9lChLA2gAjAZDcEluZm+Uk5QpgZR9lCiM"
    "A3RhZ5RoAIwFQ3BUYWeUk5RLAYWUUpSMBXZhbHVllIwEQ29kZZR1YksBaAgpgZR9lCho"
    "C2gNSwWFlFKUaBBLB3ViSwRoCCmBlH2UKGgLaA1LB4WUUpRoEEsDhZR1YnWMC19uZXh0"
    "X2luZGV4lEsFjAdfaW50ZXJulH2UKGgPaBGGlEsDaBVLB4aUSwFoGWgahpRLBHV1Yi4=")


class TestLegacyPickles:
    """Journal frames and worker payloads written before the slotted
    ``CpInfo`` carry pools inside lifted methods' ``raw_code``."""

    def test_dataclass_cpinfo_unpickles_equal(self):
        import base64
        import pickle

        restored = pickle.loads(base64.b64decode(_DATACLASS_CPINFO))
        assert type(restored) is CpInfo
        assert restored == CpInfo(CpTag.LONG, -5)
        assert restored.is_wide

    def test_pool_without_new_attributes_works(self):
        import base64
        import pickle

        pool = pickle.loads(base64.b64decode(_PRE_ORDER_POOL))
        assert [(index, info) for index, info in pool] == [
            (1, CpInfo(CpTag.LONG, 7)), (3, CpInfo(CpTag.UTF8, "Code")),
            (4, CpInfo(CpTag.CLASS, (3,)))]
        assert pool.entry(1).is_wide
        assert pool.get_class_name(4) == "Code"
        with pytest.raises(ConstantPoolError, match="unusable slot"):
            pool.entry(2)
        assert pool.utf8("Code") == 3
        assert pool.class_ref("Code") == 4
        assert pool.utf8("New") == 5
        assert [index for index, _ in pool] == [1, 3, 4, 5]

    def test_new_pickles_round_trip(self):
        import pickle

        data, first, _ = _class_with_duplicate_utf8()
        pool = pickle.loads(pickle.dumps(_parsed_pool(data)))
        assert pool._intern is None
        assert pool.utf8("Code") == first
