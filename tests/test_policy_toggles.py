"""Direct coverage of policy toggles not exercised elsewhere: each axis
must actually change observable behaviour when flipped.  The checks that
every vendor runs have no toggle; their five-vendor verdicts are pinned
instead."""

import pytest

from repro.classfile.writer import write_class
from repro.jimple import ClassBuilder, MethodBuilder, compile_class
from repro.jimple.types import INT, JType
from repro.jvm.machine import Jvm
from repro.jvm.outcome import Phase
from repro.jvm.policy import JvmPolicy
from repro.jvm.vendors import all_jvms
from repro.runtime.environment import build_environment


def jvm_with(**overrides):
    return Jvm("probe", JvmPolicy(**overrides), build_environment(8))


def demo_with_trailing_junk():
    builder = ClassBuilder("Junked")
    builder.default_init()
    builder.main_printing()
    return write_class(compile_class(builder.build())) + b"\x00garbage"


class TestLoadingToggles:
    def test_reject_trailing_bytes(self):
        data = demo_with_trailing_junk()
        strict = jvm_with(reject_trailing_bytes=True).run(data)
        assert strict.phase is Phase.LOADING
        lenient = jvm_with(reject_trailing_bytes=False).run(data)
        assert lenient.ok


class TestExecutionToggles:
    def test_interpreter_budget_toggle(self):
        builder = ClassBuilder("Spin")
        builder.default_init()
        method = MethodBuilder("main", None or JType("void"),
                               [JType("java.lang.String[]")],
                               ["public", "static"])
        method.label("top")
        method.goto("top")
        builder.method(method.build())
        data = write_class(compile_class(builder.build()))
        outcome = jvm_with(max_interpreter_steps=100).run(data)
        assert outcome.phase is Phase.RUNTIME
        # The budget error carries its own class name so a simulated
        # hang never clusters with a real runtime rejection.
        assert outcome.error == "StepBudgetExceeded"

    def test_interface_main_toggle(self):
        builder = ClassBuilder("IMain", modifiers=["public", "interface",
                                                   "abstract"])
        method = MethodBuilder("main", JType("void"),
                               [JType("java.lang.String[]")],
                               ["public", "static"])
        method.println("hi")
        method.ret()
        builder.method(method.build())
        jclass = builder.build()
        jclass.major_version = 52   # static interface methods legal
        data = write_class(compile_class(jclass))
        assert jvm_with(allow_interface_main=True).run(data).ok
        refused = jvm_with(allow_interface_main=False).run(data)
        assert refused.phase is Phase.RUNTIME


def bad_field_descriptor():
    builder = ClassBuilder("BadDesc")
    builder.field("x", INT)
    builder.main_printing()
    classfile = compile_class(builder.build())
    # Point the field's descriptor at a non-descriptor Utf8.
    bogus = classfile.constant_pool.utf8("not-a-descriptor")
    classfile.fields[0].descriptor_index = bogus
    return write_class(classfile)


def plain_class(name, superclass="java.lang.Object", interfaces=(),
                init=True):
    builder = ClassBuilder(name, superclass=superclass)
    builder.implements(*interfaces)
    if init:
        builder.default_init()
    builder.main_printing()
    return write_class(compile_class(builder.build()))


def shallow_main():
    builder = ClassBuilder("DeepStack")
    builder.default_init()
    builder.main_printing()
    classfile = compile_class(builder.build())
    classfile.main_method().code.max_stack = 1   # the println needs 2
    return write_class(classfile)


LOADING, LINKING, RUNTIME = Phase.LOADING, Phase.LINKING, Phase.RUNTIME

#: Case → (classfile, error, message fragment, phase per vendor in
#: ``all_jvms()`` order: hotspot7, hotspot8, hotspot9, j9, gij).
EVERY_VENDOR_CHECKS = {
    "descriptor_validity": (
        bad_field_descriptor, "ClassFormatError", "invalid descriptor",
        (LINKING, LINKING, LINKING, LOADING, LINKING)),
    "circularity": (
        lambda: plain_class("Self", superclass="Self", init=False),
        "ClassCircularityError", "Self", (LOADING,) * 5),
    "final_superclass": (
        lambda: plain_class("SubStr", superclass="java.lang.String"),
        "VerifyError", "Cannot inherit from final class", (LINKING,) * 5),
    "super_not_interface": (
        lambda: plain_class("SubIface", superclass="java.lang.Runnable"),
        "IncompatibleClassChangeError", "as super class", (LINKING,) * 5),
    "interfaces_are_interfaces": (
        lambda: plain_class("ImplClass", interfaces=["java.lang.String"]),
        "IncompatibleClassChangeError", "as interface", (LINKING,) * 5),
    "max_stack": (
        shallow_main, "VerifyError", "Exceeding stack size",
        (LINKING, LINKING, LINKING, RUNTIME, LINKING)),
}


class TestChecksEveryVendorRuns:
    @pytest.mark.parametrize("case", sorted(EVERY_VENDOR_CHECKS))
    def test_every_vendor_runs_the_check(self, case):
        build, error, fragment, phases = EVERY_VENDOR_CHECKS[case]
        data = build()
        outcomes = [jvm.run(data) for jvm in all_jvms()]
        assert [(o.phase, o.error) for o in outcomes] == \
            [(phase, error) for phase in phases]
        for outcome in outcomes:
            assert fragment in outcome.message, outcome.brief()
