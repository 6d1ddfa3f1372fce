"""Tests for the Jimple → classfile compiler and the lifter."""

import pytest

from repro.bytecode import Op, decode_code
from repro.classfile import read_class, write_class
from repro.classfile.access_flags import AccessFlags
from repro.jimple import (
    ClassBuilder,
    MethodBuilder,
    compile_class,
    lift_class,
    print_class,
)
from repro.jimple.model import JLocal
from repro.jimple.statements import (
    AssignBinopStmt,
    AssignConstStmt,
    AssignLocalStmt,
    Constant,
    GotoStmt,
    IfStmt,
    InvokeExpr,
    InvokeStmt,
    LabelStmt,
    MethodRef,
    ReturnStmt,
    ThrowStmt,
)
from repro.jimple.to_classfile import JimpleCompileError, compile_class_bytes
from repro.jimple.types import INT, JType, STRING, VOID


class TestCompile:
    def test_demo_compiles(self, demo_class):
        classfile = compile_class(demo_class)
        assert classfile.name == "Demo"
        assert classfile.main_method() is not None

    def test_modifiers_become_flags(self):
        builder = ClassBuilder("Flags", modifiers=["public", "final",
                                                   "super"])
        classfile = compile_class(builder.build())
        assert classfile.access_flags & AccessFlags.PUBLIC
        assert classfile.access_flags & AccessFlags.FINAL

    def test_thrown_exceptions_compile(self):
        builder = ClassBuilder("Thrower")
        method = MethodBuilder("risky", modifiers=["public"])
        method.throws("java.io.IOException")
        method.ret()
        builder.method(method.build())
        classfile = compile_class(builder.build())
        exceptions = classfile.methods[0].exceptions
        assert exceptions.exception_names(classfile.constant_pool) == \
            ["java/io/IOException"]

    def test_abstract_method_has_no_code(self):
        builder = ClassBuilder("Abs", modifiers=["public", "abstract",
                                                 "super"])
        method = MethodBuilder("todo", modifiers=["public", "abstract"])
        method.abstract_body()
        builder.method(method.build())
        classfile = compile_class(builder.build())
        assert classfile.methods[0].code is None

    def test_undeclared_local_fails(self):
        builder = ClassBuilder("Bad")
        method = MethodBuilder("broken", modifiers=["public"])
        method.stmt(AssignLocalStmt("a", "ghost"))
        method.ret()
        builder.method(method.build())
        with pytest.raises(JimpleCompileError, match="undeclared"):
            compile_class(builder.build())

    def test_missing_label_fails(self):
        builder = ClassBuilder("Bad2")
        method = MethodBuilder("broken", modifiers=["public"])
        method.goto("nowhere")
        builder.method(method.build())
        with pytest.raises(JimpleCompileError):
            compile_class(builder.build())

    def test_this_in_static_method_fails(self):
        builder = ClassBuilder("Bad3")
        method = MethodBuilder("s", modifiers=["public", "static"])
        method.local("r0", JType("Bad3"))
        method.identity("r0", "this", JType("Bad3"))
        method.ret()
        builder.method(method.build())
        with pytest.raises(JimpleCompileError, match="static"):
            compile_class(builder.build())

    def test_identity_for_missing_parameter_fails(self):
        builder = ClassBuilder("Bad4")
        method = MethodBuilder("m", modifiers=["public", "static"])
        method.local("p0", INT)
        method.identity("p0", "parameter0", INT)
        method.ret()
        builder.method(method.build())
        with pytest.raises(JimpleCompileError, match="missing parameter"):
            compile_class(builder.build())

    def test_branching_body_compiles(self):
        builder = ClassBuilder("Branchy")
        method = MethodBuilder("m", INT, [INT], ["public", "static"])
        method.local("p0", INT)
        method.identity("p0", "parameter0", INT)
        method.if_zero("p0", "==", "zero")
        method.stmt(ReturnStmt(Constant(1, INT)))
        method.label("zero")
        method.stmt(ReturnStmt(Constant(0, INT)))
        builder.method(method.build())
        code = compile_class(builder.build()).methods[0].code
        ops = [i.op for i in decode_code(code.code)]
        assert Op.IFEQ in ops
        assert ops.count(Op.IRETURN) == 2

    def test_max_locals_accounts_for_wide_types(self):
        builder = ClassBuilder("Wide")
        method = MethodBuilder("m", VOID, [JType("long"), JType("double")],
                               ["public", "static"])
        method.local("x", JType("long"))
        method.ret()
        builder.method(method.build())
        code = compile_class(builder.build()).methods[0].code
        assert code.max_locals >= 6  # 2 + 2 params + 2 local

    def test_locals_past_slot_255_compile_wide(self):
        """A main with 300 int locals loads and stores its last ones with
        ``wide``, and every vendor runs it to the same output."""
        from repro.jvm.vendors import all_jvms

        builder = ClassBuilder("ManyLocals")
        builder.default_init()
        args = JType("java.lang.String[]")
        main = MethodBuilder("main", VOID, [args], ["public", "static"])
        main.local("args", args)
        main.identity("args", "parameter0", args)
        for slot in range(300):
            main.local(f"i{slot}", INT)
        main.const("i299", 7)
        main.stmt(AssignBinopStmt("i0", "i299", "-", Constant(7, INT)))
        main.if_zero("i0", "!=", "bad")
        main.println("wide locals ok")
        main.ret()
        main.label("bad")
        main.println("wide locals wrong", stream_local="$r2")
        main.ret()
        builder.method(main.build())
        data = compile_class_bytes(builder.build())
        code = read_class(data).methods[1].code
        wide = [i for i in decode_code(code.code) if i.operands.get("wide")]
        assert {i.op for i in wide} == {Op.ISTORE, Op.ILOAD, Op.ASTORE,
                                        Op.ALOAD}
        # Slot 0 holds the parameter, 1 its local, 2-301 the ints.
        assert min(i.operands["index"] for i in wide) == 301
        assert code.max_locals == 304
        for outcome in (jvm.run(data) for jvm in all_jvms()):
            assert outcome.ok, outcome.brief()
            assert outcome.output == ("wide locals ok",)

    def test_constant_value_field(self):
        builder = ClassBuilder("Consts")
        builder.field("LIMIT", INT, ["public", "static", "final"],
                      constant_value=42)
        classfile = compile_class(builder.build())
        attr = classfile.fields[0].attribute("ConstantValue")
        assert attr is not None

    def test_int_constant_encodings(self):
        builder = ClassBuilder("Ints")
        method = MethodBuilder("m", VOID, [], ["public", "static"])
        for i, value in enumerate((3, 100, 30000, 100000)):
            name = f"$v{i}"
            method.local(name, INT)
            method.const(name, value)
        method.ret()
        builder.method(method.build())
        code = compile_class(builder.build()).methods[0].code
        ops = [i.op for i in decode_code(code.code)]
        assert Op.ICONST_3 in ops
        assert Op.BIPUSH in ops
        assert Op.SIPUSH in ops
        assert Op.LDC_W in ops


class TestLift:
    def test_structural_roundtrip(self, demo_class):
        data = write_class(compile_class(demo_class))
        lifted = lift_class(read_class(data))
        assert lifted.name == "Demo"
        assert lifted.superclass == "java.lang.Object"
        assert {m.name for m in lifted.methods} == {"<init>", "main"}

    def test_lift_recompiles_identically(self, demo_class):
        data = write_class(compile_class(demo_class))
        lifted = lift_class(read_class(data))
        data2 = write_class(compile_class(lifted))
        # Re-lift of the recompiled bytes must match the first lift.
        relifted = lift_class(read_class(data2))
        assert print_class(relifted) == print_class(lifted)

    def test_lift_thrown(self):
        builder = ClassBuilder("T")
        method = MethodBuilder("m", modifiers=["public"])
        method.throws("java.io.IOException")
        method.ret()
        builder.method(method.build())
        lifted = lift_class(read_class(compile_class_bytes(builder.build())))
        assert lifted.methods[0].thrown == ["java.io.IOException"]

    def test_lift_arithmetic_and_branches(self):
        builder = ClassBuilder("Arith")
        method = MethodBuilder("m", INT, [], ["public", "static"])
        method.local("$a", INT)
        method.const("$a", 5)
        method.stmt(AssignBinopStmt("$a", "$a", "*", Constant(3, INT)))
        method.if_zero("$a", ">", "big")
        method.stmt(ReturnStmt(Constant(0, INT)))
        method.label("big")
        method.stmt(ReturnStmt("$a"))
        builder.method(method.build())
        lifted = lift_class(read_class(compile_class_bytes(builder.build())))
        body = lifted.methods[0].body
        assert body is not None
        kinds = {type(stmt).__name__ for stmt in body}
        assert "AssignBinopStmt" in kinds
        assert "IfStmt" in kinds
        assert "LabelStmt" in kinds

    def test_unliftable_body_carried_raw(self):
        # Hand-assemble a body using an opcode the lifter does not model
        # (dup2_x2 gymnastics) and check the raw-code fallback.
        from repro.bytecode import Assembler
        from repro.classfile import CodeAttribute, MethodInfo
        from repro.classfile.model import ClassFile

        classfile = ClassFile()
        pool = classfile.constant_pool
        classfile.this_class = pool.class_ref("Raw")
        classfile.super_class = pool.class_ref("java/lang/Object")
        classfile.access_flags = AccessFlags.PUBLIC | AccessFlags.SUPER
        asm = Assembler()
        asm.emit(Op.LCONST_0)
        asm.emit(Op.LCONST_1)
        asm.emit(Op.DUP2_X2)
        asm.emit(Op.POP2)
        asm.emit(Op.POP2)
        asm.emit(Op.POP2)
        asm.emit(Op.RETURN)
        classfile.methods.append(MethodInfo(
            AccessFlags.PUBLIC | AccessFlags.STATIC,
            pool.utf8("weird"), pool.utf8("()V"),
            [CodeAttribute(8, 1, asm.build())]))
        lifted = lift_class(classfile)
        method = lifted.methods[0]
        assert method.body is None
        assert method.raw_code is not None
        # The raw body must survive re-compilation byte-for-byte.
        recompiled = compile_class(lifted)
        assert recompiled.methods[0].code.code == \
            classfile.methods[0].code.code
