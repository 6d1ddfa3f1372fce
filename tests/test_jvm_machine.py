"""Tests for the startup machine: phases, main lookup, initialization."""

import pytest

from repro.classfile.writer import write_class
from repro.jimple import ClassBuilder, MethodBuilder, compile_class
from repro.jimple.statements import (
    AssignBinopStmt,
    AssignConstStmt,
    AssignFieldGetStmt,
    AssignNewStmt,
    Constant,
    FieldRef,
    InvokeExpr,
    InvokeStmt,
    MethodRef,
    ThrowStmt,
)
from repro.jimple.types import INT, JType, VOID
from repro.jvm.outcome import Phase
from repro.jvm.vendors import make_gij, make_hotspot8, make_j9


def run_on(jclass, jvm=None):
    jvm = jvm or make_hotspot8()
    return jvm.run(write_class(compile_class(jclass)))


class TestPhases:
    def test_garbage_bytes_reject_at_loading(self):
        outcome = make_hotspot8().run(b"\x00\x01\x02")
        assert outcome.phase is Phase.LOADING
        assert outcome.error == "ClassFormatError"

    def test_missing_superclass_rejects_at_loading(self):
        """JVMS §5.3.5: superclass resolution is part of creation."""
        builder = ClassBuilder("NoSuper", superclass="com.example.Missing")
        builder.main_printing()
        outcome = run_on(builder.build())
        assert outcome.phase is Phase.LOADING
        assert outcome.error == "NoClassDefFoundError"

    def test_circularity_rejects_at_loading(self):
        builder = ClassBuilder("Loop", superclass="Loop")
        builder.main_printing()
        outcome = run_on(builder.build())
        assert outcome.phase is Phase.LOADING
        assert outcome.error == "ClassCircularityError"

    def test_final_superclass_rejects_at_linking(self):
        builder = ClassBuilder("SubString", superclass="java.lang.String")
        builder.default_init()
        builder.main_printing()
        outcome = run_on(builder.build())
        assert outcome.phase is Phase.LINKING
        assert outcome.error == "VerifyError"

    def test_runtime_exception_rejects_at_runtime(self):
        builder = ClassBuilder("Thrower")
        builder.default_init()
        method = MethodBuilder("main", VOID, [JType("java.lang.String[]")],
                               ["public", "static"])
        method.local("$e", JType("java.lang.RuntimeException"))
        method.stmt(AssignNewStmt("$e", "java.lang.RuntimeException"))
        method.stmt(InvokeStmt(InvokeExpr(
            "special",
            MethodRef("java.lang.RuntimeException", "<init>", VOID, ()),
            "$e", [])))
        method.stmt(ThrowStmt("$e"))
        builder.method(method.build())
        outcome = run_on(builder.build())
        assert outcome.phase is Phase.RUNTIME
        assert outcome.error == "RuntimeException"

    def test_output_captured_before_failure(self):
        builder = ClassBuilder("Partial")
        builder.default_init()
        method = MethodBuilder("main", VOID, [JType("java.lang.String[]")],
                               ["public", "static"])
        method.println("before crash")
        method.local("$a", INT)
        method.const("$a", 1)
        method.stmt(AssignBinopStmt("$a", "$a", "/", Constant(0, INT)))
        method.ret()
        builder.method(method.build())
        outcome = run_on(builder.build())
        assert outcome.phase is Phase.RUNTIME
        assert outcome.error == "ArithmeticException"
        assert outcome.output == ("before crash",)


class TestMainLookup:
    def test_missing_main_rejects_at_runtime(self):
        builder = ClassBuilder("NoMain").default_init()
        outcome = run_on(builder.build())
        assert outcome.phase is Phase.RUNTIME
        assert "Main method not found" in outcome.message

    def test_nonstatic_main_rejected_by_strict(self):
        builder = ClassBuilder("InstMain")
        builder.default_init()
        method = MethodBuilder("main", VOID, [JType("java.lang.String[]")],
                               ["public"])
        method.println("hi")
        method.ret()
        builder.method(method.build())
        strict = run_on(builder.build())
        assert strict.phase is Phase.RUNTIME and not strict.ok
        lenient = run_on(builder.build(), make_gij())
        assert lenient.ok

    def test_nonpublic_main_policy(self):
        builder = ClassBuilder("PrivMain")
        builder.default_init()
        method = MethodBuilder("main", VOID, [JType("java.lang.String[]")],
                               ["static"])
        method.println("hi")
        method.ret()
        builder.method(method.build())
        assert not run_on(builder.build()).ok
        assert run_on(builder.build(), make_gij()).ok


class TestInitialization:
    def _clinit_class(self, body_builder):
        builder = ClassBuilder("WithInit")
        builder.default_init()
        builder.main_printing("main ran")
        clinit = MethodBuilder("<clinit>", modifiers=["static"])
        body_builder(clinit)
        builder.method(clinit.build())
        return builder.build()

    def test_clinit_runs_before_main(self):
        def body(clinit):
            clinit.println("clinit ran")
            clinit.ret()
        outcome = run_on(self._clinit_class(body))
        assert outcome.ok
        assert outcome.output == ("clinit ran", "main ran")

    def test_clinit_error_wrapped(self):
        def body(clinit):
            clinit.local("$a", INT)
            clinit.const("$a", 1)
            clinit.stmt(AssignBinopStmt("$a", "$a", "/", Constant(0, INT)))
            clinit.ret()
        outcome = run_on(self._clinit_class(body))
        assert outcome.phase is Phase.INITIALIZATION
        assert outcome.error == "ExceptionInInitializerError"
        assert "ArithmeticException" in outcome.message

    def test_clinit_missing_class_stays_noclassdef(self):
        def body(clinit):
            clinit.stmt(InvokeStmt(InvokeExpr(
                "static", MethodRef("com.example.Missing", "f", VOID, ()),
                None, [])))
            clinit.ret()
        outcome = run_on(self._clinit_class(body))
        assert outcome.phase is Phase.INITIALIZATION
        assert outcome.error == "NoClassDefFoundError"

    def test_statics_persist_from_clinit_to_main(self):
        builder = ClassBuilder("Statics")
        builder.default_init()
        builder.field("value", INT, ["public", "static"])
        ref = FieldRef("Statics", "value", INT)
        clinit = MethodBuilder("<clinit>", modifiers=["static"])
        from repro.jimple.statements import AssignFieldPutStmt

        clinit.stmt(AssignFieldPutStmt(ref, Constant(7, INT)))
        clinit.ret()
        builder.method(clinit.build())
        main = MethodBuilder("main", VOID, [JType("java.lang.String[]")],
                             ["public", "static"])
        main.local("$v", INT)
        main.stmt(AssignFieldGetStmt("$v", ref))
        main.local("$ps", JType("java.io.PrintStream"))
        main.method.body.insert(0, AssignFieldGetStmt("$ps", FieldRef(
            "java.lang.System", "out", JType("java.io.PrintStream"))))
        main.stmt(InvokeStmt(InvokeExpr(
            "virtual", MethodRef("java.io.PrintStream", "println", VOID,
                                 (INT,)), "$ps", ["$v"])))
        main.ret()
        builder.method(main.build())
        outcome = run_on(builder.build())
        assert outcome.ok
        assert outcome.output == ("7",)


class TestSystemExit:
    def test_system_exit_counts_as_invoked(self):
        builder = ClassBuilder("Exiter")
        builder.default_init()
        method = MethodBuilder("main", VOID, [JType("java.lang.String[]")],
                               ["public", "static"])
        method.println("bye")
        method.stmt(InvokeStmt(InvokeExpr(
            "static", MethodRef("java.lang.System", "exit", VOID, (INT,)),
            None, [Constant(0, INT)])))
        method.println("never printed")
        method.ret()
        builder.method(method.build())
        outcome = run_on(builder.build())
        assert outcome.ok
        assert outcome.output == ("bye",)


class TestRunNeverRaises:
    def test_all_vendors_fold_errors_into_outcomes(self):
        for jvm in (make_hotspot8(), make_j9(), make_gij()):
            for data in (b"", b"\xca\xfe\xba\xbe", b"\xca\xfe\xba\xbe" +
                         b"\x00" * 40):
                outcome = jvm.run(data)
                assert outcome.phase is Phase.LOADING
