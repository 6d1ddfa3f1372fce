"""Vendor divergence tests: the paper's Problems 1–4 and preliminary-study
examples must reproduce mechanically from policy + environment differences.
"""

from dataclasses import fields

import pytest

from repro.classfile.writer import write_class
from repro.jimple import ClassBuilder, MethodBuilder, compile_class
from repro.jimple.statements import InvokeExpr, InvokeStmt, MethodRef
from repro.jimple.types import INT, JType, VOID
from repro.jvm.outcome import Phase
from repro.jvm.policy import JvmPolicy
from repro.jvm.vendors import (
    REFERENCE_JVM_NAME,
    all_jvms,
    make_gij,
    make_hotspot7,
    make_hotspot8,
    make_hotspot9,
    make_j9,
    reference_jvm,
)


def run_all(jclass):
    """Run a class on the five vendors; return {name: outcome}."""
    data = write_class(compile_class(jclass))
    return {jvm.name: jvm.run(data) for jvm in all_jvms()}


def codes(outcomes):
    return [outcomes[name].code for name in
            ("hotspot7", "hotspot8", "hotspot9", "j9", "gij")]


#: The policy fields that may hold one value on all five vendors: budgets
#: of the harness, not behaviour of a JVM.
BUDGET_FIELDS = ["max_interpreter_steps"]


class TestVendorSetup:
    def test_five_jvms_in_paper_order(self):
        names = [jvm.name for jvm in all_jvms()]
        assert names == ["hotspot7", "hotspot8", "hotspot9", "j9", "gij"]

    def test_reference_is_hotspot9(self):
        assert reference_jvm().name == REFERENCE_JVM_NAME == "hotspot9"

    def test_version_ceilings(self):
        assert make_hotspot7().policy.max_class_version == 51
        assert make_hotspot8().policy.max_class_version == 52
        assert make_hotspot9().policy.max_class_version == 53
        assert make_gij().policy.max_class_version == 51

    def test_every_policy_field_is_a_vendor_axis(self):
        """A field that no vendor turns guards a check every vendor runs,
        which belongs in the phase code unconditionally; so a new field
        arrives with the vendor that turns it, or as a budget."""
        policies = [jvm.policy for jvm in all_jvms()]
        unturned = [field.name for field in fields(JvmPolicy)
                    if len({getattr(policy, field.name)
                            for policy in policies}) == 1]
        assert unturned == BUDGET_FIELDS

    def test_valid_class_agrees_everywhere(self, demo_bytes):
        for jvm in all_jvms():
            outcome = jvm.run(demo_bytes)
            assert outcome.ok, outcome.brief()
            assert outcome.output == ("Completed!",)


class TestProblem1AbstractClinit:
    """Figure 2: ``public abstract <clinit>`` without a Code attribute."""

    def build(self):
        builder = ClassBuilder("M1436188543")
        builder.default_init()
        builder.main_printing("Completed!")
        method = MethodBuilder("<clinit>", modifiers=["public", "abstract"])
        method.abstract_body()
        builder.method(method.build())
        return builder.build()

    def test_hotspot_invokes_j9_rejects(self):
        outcomes = run_all(self.build())
        for name in ("hotspot7", "hotspot8", "hotspot9", "gij"):
            assert outcomes[name].ok, outcomes[name].brief()
        assert outcomes["j9"].phase is Phase.LOADING
        assert outcomes["j9"].error == "ClassFormatError"
        assert "no Code attribute" in outcomes["j9"].message


class TestProblem2Verification:
    def test_string_map_confusion_only_gij(self):
        """M1433982529: parameter retyped String→Map."""
        builder = ClassBuilder("M1433982529")
        builder.default_init()
        builder.main_printing()
        method = MethodBuilder("internalTransform", VOID,
                               [JType("java.lang.String")], ["protected"])
        method.local("r0", JType("java.util.Map"))
        method.identity("r0", "parameter0", JType("java.util.Map"))
        method.stmt(InvokeStmt(InvokeExpr(
            "static",
            MethodRef("java.lang.Boolean", "getBoolean", JType("boolean"),
                      (JType("java.util.Map"),)),
            None, ["r0"])))
        method.ret()
        builder.method(method.build())
        outcomes = run_all(builder.build())
        assert codes(outcomes) == [0, 0, 0, 0, 2]
        assert outcomes["gij"].error == "VerifyError"

    def test_lazy_j9_runs_class_with_broken_helper(self):
        """Problem 2: J9 verifies per-invocation, HotSpot eagerly."""
        builder = ClassBuilder("LazyT")
        builder.default_init()
        builder.main_printing()
        # A never-invoked method whose declared return type contradicts
        # its body (bare return in an int method).
        method = MethodBuilder("broken", INT, [], ["public"])
        method.ret()
        builder.method(method.build())
        outcomes = run_all(builder.build())
        assert outcomes["j9"].ok            # lazy: broken never verified
        assert outcomes["hotspot8"].phase is Phase.LINKING
        assert outcomes["hotspot8"].error == "VerifyError"
        assert outcomes["gij"].phase is Phase.LINKING


class TestProblem3RestrictedAccess:
    def test_thrown_synthetic_class(self):
        """M1437121261: throws PiscesRenderingEngine$2."""
        builder = ClassBuilder("M1437121261")
        builder.default_init()
        method = MethodBuilder("main", VOID, [JType("java.lang.String[]")],
                               ["public", "static"])
        method.throws("sun.java2d.pisces.PiscesRenderingEngine$2")
        method.println("ok")
        method.ret()
        builder.method(method.build())
        outcomes = run_all(builder.build())
        assert outcomes["hotspot9"].error == "IllegalAccessError"
        assert outcomes["hotspot9"].phase is Phase.LINKING
        assert outcomes["j9"].ok
        assert outcomes["gij"].ok


class TestProblem4GijLeniency:
    def test_interface_extending_exception(self):
        builder = ClassBuilder("IfaceBad", superclass="java.lang.Exception",
                               modifiers=["public", "interface", "abstract"])
        outcomes = run_all(builder.build())
        for name in ("hotspot7", "hotspot8", "hotspot9", "j9"):
            assert outcomes[name].error == "ClassFormatError", name
        assert outcomes["gij"].error != "ClassFormatError"

    def test_duplicate_fields(self):
        builder = ClassBuilder("DupF")
        builder.default_init()
        builder.main_printing()
        builder.field("MAP", JType("java.util.Map"), ["protected", "final"])
        builder.field("MAP", JType("java.util.Map"), ["protected", "final"])
        outcomes = run_all(builder.build())
        assert outcomes["gij"].ok
        # J9 format-checks at class definition (loading); HotSpot's
        # constraint checking surfaces during linking verification.
        assert outcomes["j9"].phase is Phase.LOADING
        for name in ("hotspot7", "hotspot8", "hotspot9"):
            assert outcomes[name].phase is Phase.LINKING, name
            assert outcomes[name].error == "ClassFormatError"

    def test_static_init_method(self):
        builder = ClassBuilder("StatInit")
        builder.main_printing()
        method = MethodBuilder("<init>", modifiers=["public", "static"])
        method.ret()
        builder.method(method.build())
        outcomes = run_all(builder.build())
        assert outcomes["gij"].ok
        assert outcomes["hotspot8"].error == "ClassFormatError"
        assert outcomes["j9"].error == "ClassFormatError"

    def test_init_returning_thread(self):
        builder = ClassBuilder("RetInit")
        builder.main_printing()
        method = MethodBuilder("<init>", JType("java.lang.Thread"),
                               modifiers=["public"])
        from repro.jimple.statements import Constant, ReturnStmt

        method.stmt(ReturnStmt(Constant(None, JType("java.lang.Thread"))))
        builder.method(method.build())
        outcomes = run_all(builder.build())
        assert outcomes["gij"].ok
        assert not outcomes["hotspot8"].ok
        assert not outcomes["j9"].ok

    def test_interface_with_main(self):
        builder = ClassBuilder("IfaceMain",
                               modifiers=["public", "interface", "abstract"])
        method = MethodBuilder("main", VOID, [JType("java.lang.String[]")],
                               ["public", "static"])
        method.println("from interface")
        method.ret()
        builder.method(method.build())
        outcomes = run_all(builder.build())
        assert outcomes["gij"].ok
        assert outcomes["gij"].output == ("from interface",)
        for name in ("hotspot7", "hotspot8", "hotspot9", "j9"):
            assert not outcomes[name].ok, name


class TestPreliminaryStudyExamples:
    def test_extends_enum_editor_final_in_8(self):
        """sun.beans.editors.EnumEditor's superclass went final in JRE 8."""
        builder = ClassBuilder("MyEditor",
                               superclass="com.sun.beans.editors.EnumEditor")
        builder.default_init()
        builder.main_printing()
        outcomes = run_all(builder.build())
        assert outcomes["hotspot7"].ok
        assert outcomes["hotspot8"].error == "VerifyError"
        assert "final" in outcomes["hotspot8"].message
        assert outcomes["j9"].error == "VerifyError"
        assert outcomes["gij"].ok

    def test_extends_jre7_only_class(self):
        builder = ClassBuilder("UsesJre7",
                               superclass="sun.misc.JavaUtilJarAccess")
        builder.default_init()
        builder.main_printing()
        outcomes = run_all(builder.build())
        assert outcomes["hotspot7"].ok
        for name in ("hotspot8", "hotspot9", "j9", "gij"):
            assert outcomes[name].error == "NoClassDefFoundError", name

    def test_circular_superclass(self):
        builder = ClassBuilder("Ouro", superclass="Ouro")
        builder.main_printing()
        outcomes = run_all(builder.build())
        for name, outcome in outcomes.items():
            assert outcome.error == "ClassCircularityError", name

    def test_version_53_only_hotspot9(self):
        builder = ClassBuilder("New53")
        builder.default_init()
        builder.main_printing()
        jclass = builder.build()
        jclass.major_version = 53
        outcomes = run_all(jclass)
        assert outcomes["hotspot9"].ok
        for name in ("hotspot7", "hotspot8", "j9", "gij"):
            assert outcomes[name].error == "UnsupportedClassVersionError", \
                name
            assert outcomes[name].phase is Phase.LOADING
