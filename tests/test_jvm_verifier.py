"""Unit tests for the bytecode verifier's policy-dependent checks."""

import pytest

from repro.bytecode import Assembler, Op
from repro.classfile.access_flags import AccessFlags
from repro.classfile.attributes import CodeAttribute
from repro.classfile.methods import MethodInfo
from repro.classfile.model import ClassFile
from repro.errors import ClassFormatError, VerifyError
from repro.jvm.policy import JvmPolicy
from repro.jvm.verifier import MethodVerifier, VType
from repro.runtime.environment import build_environment

LIBRARY = build_environment(8).library


def make_method(code_builder, descriptor="()V", max_stack=4, max_locals=4,
                static=True):
    """Build a one-method classfile and return (classfile, method, code)."""
    classfile = ClassFile()
    pool = classfile.constant_pool
    classfile.this_class = pool.class_ref("VTest")
    classfile.super_class = pool.class_ref("java/lang/Object")
    classfile.access_flags = AccessFlags.PUBLIC | AccessFlags.SUPER
    asm = Assembler()
    code_builder(asm, pool)
    flags = AccessFlags.PUBLIC
    if static:
        flags |= AccessFlags.STATIC
    code = CodeAttribute(max_stack, max_locals, asm.build())
    method = MethodInfo(flags, pool.utf8("m"), pool.utf8(descriptor), [code])
    classfile.methods.append(method)
    return classfile, method, code


def verify(code_builder, descriptor="()V", max_stack=4, max_locals=4,
           static=True, **policy_overrides):
    classfile, method, code = make_method(code_builder, descriptor,
                                          max_stack, max_locals, static)
    policy = JvmPolicy(**policy_overrides)
    MethodVerifier(classfile, method, code, policy, LIBRARY).verify()


class TestBasicChecks:
    def test_trivial_return_verifies(self):
        verify(lambda asm, pool: asm.emit(Op.RETURN))

    def test_stack_underflow(self):
        def build(asm, pool):
            asm.emit(Op.POP)
            asm.emit(Op.RETURN)
        with pytest.raises(VerifyError, match="empty stack"):
            verify(build)

    def test_stack_overflow_against_max_stack(self):
        def build(asm, pool):
            for _ in range(3):
                asm.emit(Op.ICONST_0)
            asm.emit(Op.POP)
            asm.emit(Op.POP)
            asm.emit(Op.POP)
            asm.emit(Op.RETURN)
        with pytest.raises(VerifyError, match="stack size"):
            verify(build, max_stack=2)
        verify(build, max_stack=3)

    def test_falling_off_end(self):
        with pytest.raises(VerifyError, match="Falling off"):
            verify(lambda asm, pool: asm.emit(Op.NOP))

    def test_bad_branch_target(self):
        def build(asm, pool):
            asm.emit(Op.ICONST_0)
            instruction = asm.emit(Op.IFEQ)
            instruction.operands["target"] = 999
            asm._pending.append(instruction)
            asm.emit(Op.RETURN)
        classfile, method, code = make_method(lambda a, p: None)
        # Craft bytes manually: ifeq to out-of-range offset.
        code.code = bytes([int(Op.ICONST_0), int(Op.IFEQ), 0x7F, 0x00,
                           int(Op.RETURN)])
        with pytest.raises(VerifyError, match="Illegal target"):
            MethodVerifier(classfile, method, code, JvmPolicy(),
                           LIBRARY).verify()

    def test_undecodable_bytecode(self):
        classfile, method, code = make_method(
            lambda asm, pool: asm.emit(Op.RETURN))
        code.code = bytes([0xFD])
        with pytest.raises(VerifyError, match="Bad instruction"):
            MethodVerifier(classfile, method, code, JvmPolicy(),
                           LIBRARY).verify()

    def test_local_out_of_range(self):
        def build(asm, pool):
            asm.emit(Op.ICONST_0)
            asm.emit(Op.ISTORE, index=9)
            asm.emit(Op.RETURN)
        with pytest.raises(VerifyError, match="out of range"):
            verify(build, max_locals=2)

    def test_load_undefined_local(self):
        def build(asm, pool):
            asm.emit(Op.ILOAD, index=1)
            asm.emit(Op.POP)
            asm.emit(Op.RETURN)
        with pytest.raises(VerifyError, match="uninitialized register"):
            verify(build)

    def test_parameters_prefill_locals(self):
        def build(asm, pool):
            asm.emit(Op.ILOAD, index=0)
            asm.emit(Op.POP)
            asm.emit(Op.RETURN)
        verify(build, descriptor="(I)V")

    def test_args_must_fit_in_max_locals(self):
        with pytest.raises(VerifyError, match="fit into locals"):
            verify(lambda asm, pool: asm.emit(Op.RETURN),
                   descriptor="(JJJ)V", max_locals=2)


class TestReturnTypes:
    def test_wrong_return_type(self):
        def build(asm, pool):
            asm.emit(Op.RETURN)
        with pytest.raises(VerifyError, match="Wrong return type"):
            verify(build, descriptor="()I")

    def test_matching_int_return(self):
        def build(asm, pool):
            asm.emit(Op.ICONST_0)
            asm.emit(Op.IRETURN)
        verify(build, descriptor="()I")


class TestStackShapes:
    def _merge_mismatch(self, asm, pool):
        # Two paths to the same label with different stack depths.
        asm.emit(Op.ICONST_0)
        asm.branch(Op.IFEQ, "join")
        asm.emit(Op.ICONST_1)          # depth 1 on this path
        asm.label("join")
        asm.emit(Op.RETURN)

    def test_strict_vendor_rejects_shape_mismatch(self):
        with pytest.raises(VerifyError, match="Stack shape inconsistent"):
            verify(self._merge_mismatch, strict_stack_shapes=True)

    def test_lenient_vendor_tolerates_shape_mismatch(self):
        verify(self._merge_mismatch, strict_stack_shapes=False)

    def test_category_mismatch_rejected_everywhere(self):
        def build(asm, pool):
            asm.emit(Op.ICONST_0)
            asm.branch(Op.IFEQ, "other")
            asm.emit(Op.ICONST_1)
            asm.branch(Op.GOTO, "join")
            asm.label("other")
            asm.emit(Op.FCONST_0)
            asm.label("join")
            asm.emit(Op.POP)
            asm.emit(Op.RETURN)
        with pytest.raises(VerifyError, match="Mismatched stack types"):
            verify(build)


class TestTypeAssignability:
    def _string_where_map_wanted(self, asm, pool):
        index = pool.method_ref("java/lang/Boolean", "getBoolean",
                                "(Ljava/util/Map;)Z")
        asm.emit(Op.LDC_W, index=pool.string("oops"))
        asm.emit(Op.INVOKESTATIC, index=index)
        asm.emit(Op.POP)
        asm.emit(Op.RETURN)

    def test_deep_verifier_catches_final_class_to_interface(self):
        """Problem 2: GIJ flags String→Map, HotSpot does not."""
        with pytest.raises(VerifyError, match="not assignable"):
            verify(self._string_where_map_wanted,
                   verify_type_assignability=True)

    def test_shallow_verifier_misses_it(self):
        verify(self._string_where_map_wanted,
               verify_type_assignability=False)

    def test_throw_non_throwable_with_deep_verification(self):
        def build(asm, pool):
            hashmap = pool.class_ref("java/util/HashMap")
            init = pool.method_ref("java/util/HashMap", "<init>", "()V")
            asm.emit(Op.NEW, index=hashmap)
            asm.emit(Op.DUP)
            asm.emit(Op.INVOKESPECIAL, index=init)
            asm.emit(Op.ATHROW)
        with pytest.raises(VerifyError, match="Throwable"):
            verify(build, verify_type_assignability=True)


class TestUninitializedTracking:
    def _use_before_init(self, asm, pool):
        thread = pool.class_ref("java/lang/Thread")
        start = pool.method_ref("java/lang/Thread", "start", "()V")
        asm.emit(Op.NEW, index=thread)
        asm.emit(Op.INVOKEVIRTUAL, index=start)
        asm.emit(Op.RETURN)

    def test_gij_rejects_uninitialized_receiver(self):
        with pytest.raises(VerifyError, match="uninitialized"):
            verify(self._use_before_init, verify_uninitialized_merge=True)

    def test_hotspot_tolerates_uninitialized_receiver(self):
        verify(self._use_before_init, verify_uninitialized_merge=False)


class TestConstantPoolReferences:
    def test_ldc_of_long_rejected(self):
        def build(asm, pool):
            asm.emit(Op.LDC_W, index=pool.long(1))
            asm.emit(Op.POP)
            asm.emit(Op.RETURN)
        with pytest.raises(ClassFormatError, match="tag"):
            verify(build)

    def test_invoke_through_fieldref_rejected(self):
        def build(asm, pool):
            index = pool.field_ref("java/lang/System", "out",
                                   "Ljava/io/PrintStream;")
            asm.emit(Op.INVOKESTATIC, index=index)
            asm.emit(Op.RETURN)
        with pytest.raises(ClassFormatError):
            verify(build)

    def test_dangling_cp_index(self):
        def build(asm, pool):
            asm.emit(Op.GETSTATIC, index=999)
            asm.emit(Op.POP)
            asm.emit(Op.RETURN)
        with pytest.raises(ClassFormatError, match="constant pool"):
            verify(build)


class TestEagerResolution:
    def _missing_owner(self, asm, pool):
        index = pool.method_ref("com/example/Missing", "f", "()V")
        asm.emit(Op.INVOKESTATIC, index=index)
        asm.emit(Op.RETURN)

    def test_eager_resolver_reports_missing_class(self):
        from repro.errors import NoClassDefFoundError

        with pytest.raises(NoClassDefFoundError):
            verify(self._missing_owner, resolve_refs_eagerly=True)

    def test_lazy_resolver_defers(self):
        verify(self._missing_owner, resolve_refs_eagerly=False)

    def test_eager_resolver_reports_missing_method(self):
        from repro.errors import NoSuchMethodError

        def build(asm, pool):
            index = pool.method_ref("java/lang/Math", "nosuch", "()V")
            asm.emit(Op.INVOKESTATIC, index=index)
            asm.emit(Op.RETURN)
        with pytest.raises(NoSuchMethodError):
            verify(build, resolve_refs_eagerly=True)


def test_vtype_sizes():
    assert VType("l").size == 2
    assert VType("i").size == 1
    assert VType("a", "uninit:Foo").is_uninitialized
