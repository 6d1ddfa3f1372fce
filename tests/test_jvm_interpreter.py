"""Unit tests for the bytecode interpreter (invocation & execution)."""

import pytest

from repro.classfile.writer import write_class
from repro.errors import (
    ArithmeticException,
    ArrayIndexOutOfBoundsException,
    NullPointerException,
    StepBudgetExceeded,
)
from repro.jimple import ClassBuilder, MethodBuilder, compile_class
from repro.jimple.statements import (
    AssignBinopStmt,
    AssignConstStmt,
    AssignFieldGetStmt,
    AssignFieldPutStmt,
    AssignInvokeStmt,
    AssignNewStmt,
    AssignCastStmt,
    Constant,
    FieldRef,
    GotoStmt,
    IfStmt,
    InvokeExpr,
    InvokeStmt,
    LabelStmt,
    MethodRef,
    ReturnStmt,
    ThrowStmt,
)
from repro.jimple.types import INT, JType, STRING, VOID
from repro.jvm.interpreter import (
    Interpreter,
    JObject,
    UserThrowable,
    _to_display,
)
from repro.jvm.policy import JvmPolicy
from repro.runtime.environment import build_environment
from repro.classfile.reader import read_class


def interpret(jclass, method_name="main", args=None, **policy_overrides):
    """Compile, reload, and interpret one method; returns the interpreter."""
    data = write_class(compile_class(jclass))
    classfile = read_class(data)
    policy = JvmPolicy(**policy_overrides)
    interp = Interpreter(classfile, policy, build_environment(8))
    method = classfile.find_method(method_name)
    assert method is not None, f"no method {method_name}"
    call_args = args if args is not None else (
        [[]] if method_name == "main" else [])
    interp.invoke_method(method, call_args)
    return interp


def main_builder(name="T"):
    builder = ClassBuilder(name)
    method = MethodBuilder("main", VOID, [JType("java.lang.String[]")],
                           ["public", "static"])
    return builder, method


class TestBasics:
    def test_println_captured(self, demo_class):
        interp = interpret(demo_class)
        assert interp.output == ["Completed!"]

    def test_arithmetic(self):
        builder, method = main_builder()
        method.local("$a", INT)
        method.const("$a", 6)
        method.stmt(AssignBinopStmt("$a", "$a", "*", Constant(7, INT)))
        method.stmt(InvokeStmt(InvokeExpr(
            "virtual",
            MethodRef("java.io.PrintStream", "println", VOID, (INT,)),
            "$ps", ["$a"])))
        method.local("$ps", JType("java.io.PrintStream"))
        body = method.method.body
        body.insert(0, AssignFieldGetStmt("$ps", FieldRef(
            "java.lang.System", "out", JType("java.io.PrintStream"))))
        method.ret()
        builder.method(method.build())
        interp = interpret(builder.build())
        assert interp.output == ["42"]

    def test_division_by_zero(self):
        builder, method = main_builder()
        method.local("$a", INT)
        method.const("$a", 10)
        method.stmt(AssignBinopStmt("$a", "$a", "/", Constant(0, INT)))
        method.ret()
        builder.method(method.build())
        with pytest.raises(ArithmeticException, match="zero"):
            interpret(builder.build())

    def test_int_overflow_wraps(self):
        builder, method = main_builder()
        method.local("$a", INT)
        method.const("$a", 2147483647)
        method.stmt(AssignBinopStmt("$a", "$a", "+", Constant(1, INT)))
        method.stmt(ReturnStmt())
        builder.method(method.build())
        interpret(builder.build())  # must not raise

    def test_branching_loop(self):
        builder, method = main_builder()
        method.local("$i", INT)
        method.const("$i", 3)
        method.label("top")
        method.stmt(AssignBinopStmt("$i", "$i", "-", Constant(1, INT)))
        method.if_zero("$i", ">", "top")
        method.ret()
        builder.method(method.build())
        interpret(builder.build())

    def test_infinite_loop_hits_budget(self):
        builder, method = main_builder()
        method.label("spin")
        method.goto("spin")
        builder.method(method.build())
        with pytest.raises(StepBudgetExceeded):
            interpret(builder.build(), max_interpreter_steps=500)


class TestObjects:
    def test_new_and_init(self):
        builder, method = main_builder()
        method.local("$m", JType("java.util.HashMap"))
        method.stmt(AssignNewStmt("$m", "java.util.HashMap"))
        method.stmt(InvokeStmt(InvokeExpr(
            "special", MethodRef("java.util.HashMap", "<init>", VOID, ()),
            "$m", [])))
        method.ret()
        builder.method(method.build())
        interpret(builder.build())

    def test_field_get_put_roundtrip(self):
        builder, method = main_builder("FieldT")
        builder.field("counter", INT, ["public", "static"])
        ref = FieldRef("FieldT", "counter", INT)
        method.local("$v", INT)
        method.stmt(AssignFieldPutStmt(ref, Constant(9, INT)))
        method.stmt(AssignFieldGetStmt("$v", ref))
        method.stmt(InvokeStmt(InvokeExpr(
            "virtual",
            MethodRef("java.io.PrintStream", "println", VOID, (INT,)),
            "$ps", ["$v"])))
        method.local("$ps", JType("java.io.PrintStream"))
        method.method.body.insert(0, AssignFieldGetStmt("$ps", FieldRef(
            "java.lang.System", "out", JType("java.io.PrintStream"))))
        method.ret()
        builder.method(method.build())
        interp = interpret(builder.build())
        assert interp.output == ["9"]

    def test_throw_library_exception(self):
        builder, method = main_builder()
        method.local("$e", JType("java.lang.RuntimeException"))
        method.stmt(AssignNewStmt("$e", "java.lang.RuntimeException"))
        method.stmt(InvokeStmt(InvokeExpr(
            "special",
            MethodRef("java.lang.RuntimeException", "<init>", VOID, ()),
            "$e", [])))
        method.stmt(ThrowStmt("$e"))
        builder.method(method.build())
        with pytest.raises(UserThrowable) as info:
            interpret(builder.build())
        assert info.value.java_name == "java.lang.RuntimeException"

    def test_checkcast_failure(self):
        from repro.errors import ClassCastException

        builder, method = main_builder()
        method.local("$o", JType("java.lang.Object"))
        method.local("$t", JType("java.lang.Thread"))
        method.stmt(AssignInvokeStmt("$o", InvokeExpr(
            "static",
            MethodRef("java.lang.Integer", "valueOf",
                      JType("java.lang.Integer"), (INT,)),
            None, [Constant(1, INT)])))
        method.stmt(AssignCastStmt("$t", JType("java.lang.Thread"), "$o"))
        method.ret()
        builder.method(method.build())
        with pytest.raises(ClassCastException):
            interpret(builder.build(), verify_type_assignability=False)

    def test_null_receiver(self):
        builder, method = main_builder()
        method.local("$s", STRING)
        method.stmt(AssignConstStmt("$s", Constant(None, STRING)))
        method.stmt(InvokeStmt(InvokeExpr(
            "virtual", MethodRef("java.lang.String", "length", INT, ()),
            "$s", [])))
        method.ret()
        builder.method(method.build())
        with pytest.raises(NullPointerException):
            interpret(builder.build())


class TestIntrinsics:
    def test_string_intrinsics(self):
        builder, method = main_builder()
        method.local("$s", STRING)
        method.local("$n", INT)
        method.stmt(AssignConstStmt("$s", Constant("abcd", STRING)))
        method.stmt(AssignInvokeStmt("$n", InvokeExpr(
            "virtual", MethodRef("java.lang.String", "length", INT, ()),
            "$s", [])))
        method.stmt(InvokeStmt(InvokeExpr(
            "virtual",
            MethodRef("java.io.PrintStream", "println", VOID, (INT,)),
            "$ps", ["$n"])))
        method.local("$ps", JType("java.io.PrintStream"))
        method.method.body.insert(0, AssignFieldGetStmt("$ps", FieldRef(
            "java.lang.System", "out", JType("java.io.PrintStream"))))
        method.ret()
        builder.method(method.build())
        assert interpret(builder.build()).output == ["4"]

    def test_math_abs(self):
        builder, method = main_builder()
        method.local("$n", INT)
        method.stmt(AssignInvokeStmt("$n", InvokeExpr(
            "static", MethodRef("java.lang.Math", "abs", INT, (INT,)),
            None, [Constant(-5, INT)])))
        method.stmt(ReturnStmt())
        builder.method(method.build())
        interpret(builder.build())

    def test_unknown_library_method_defaults(self):
        # Object.hashCode on a Thread -> declared on Object, default 0.
        builder, method = main_builder()
        method.local("$t", JType("java.lang.Thread"))
        method.local("$h", INT)
        method.stmt(AssignNewStmt("$t", "java.lang.Thread"))
        method.stmt(InvokeStmt(InvokeExpr(
            "special", MethodRef("java.lang.Thread", "<init>", VOID, ()),
            "$t", [])))
        method.stmt(AssignInvokeStmt("$h", InvokeExpr(
            "virtual", MethodRef("java.lang.Thread", "hashCode", INT, ()),
            "$t", [])))
        method.ret()
        builder.method(method.build())
        interpret(builder.build())

    def test_missing_library_method_raises(self):
        from repro.errors import NoSuchMethodError

        builder, method = main_builder()
        method.stmt(InvokeStmt(InvokeExpr(
            "static", MethodRef("java.lang.Math", "nosuch", VOID, ()),
            None, [])))
        method.ret()
        builder.method(method.build())
        with pytest.raises(NoSuchMethodError):
            interpret(builder.build())

    def test_missing_library_class_raises(self):
        from repro.errors import NoClassDefFoundError

        builder, method = main_builder()
        method.stmt(InvokeStmt(InvokeExpr(
            "static", MethodRef("com.example.Missing", "f", VOID, ()),
            None, [])))
        method.ret()
        builder.method(method.build())
        with pytest.raises(NoClassDefFoundError):
            interpret(builder.build())


class TestDisplay:
    def test_to_display_values(self):
        assert _to_display(None) == "null"
        assert _to_display(True) == "true"
        assert _to_display(3) == "3"
        assert _to_display("x") == "x"
        assert "@" in _to_display(JObject("Foo"))
