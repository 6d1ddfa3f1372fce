"""Unit tests for the Jimple class model and builders."""

import copy
import dataclasses

import pytest

from repro.jimple import ClassBuilder, JClass, JMethod, MethodBuilder
from repro.jimple.model import FieldSignature, JField, JLocal, MethodSignature
from repro.jimple.statements import (
    InvokeExpr,
    InvokeStmt,
    MethodRef,
    ReturnStmt,
    SwitchStmt,
    Trap,
)
from repro.jimple.types import INT, JType, STRING, VOID


class TestSignatures:
    def test_method_signature_descriptor(self):
        signature = MethodSignature("main", (JType("java.lang.String[]"),),
                                    VOID)
        assert signature.descriptor() == "([Ljava/lang/String;)V"
        assert str(signature) == "void main(java.lang.String[])"

    def test_field_signature(self):
        assert str(FieldSignature("MAP", JType("java.util.Map"))) == \
            "java.util.Map MAP"

    def test_method_descriptor_through_jmethod(self):
        method = JMethod("f", INT, [INT, STRING])
        assert method.descriptor() == "(ILjava/lang/String;)I"


class TestJClass:
    def test_internal_name(self):
        assert JClass("java.util.Map").internal_name == "java/util/Map"

    def test_find_members(self):
        builder = ClassBuilder("X")
        builder.field("a", INT)
        builder.default_init()
        jclass = builder.build()
        assert jclass.find_field("a").jtype == INT
        assert jclass.find_field("missing") is None
        assert jclass.find_method("<init>") is not None
        assert jclass.find_method("missing") is None

    def test_referenced_classes(self):
        builder = ClassBuilder("X", superclass="java.lang.Thread")
        builder.implements("java.lang.Runnable")
        method = MethodBuilder("m", modifiers=["public"])
        method.throws("java.io.IOException")
        method.ret()
        builder.method(method.build())
        refs = builder.build().referenced_classes()
        assert {"java.lang.Thread", "java.lang.Runnable",
                "java.io.IOException"} <= refs

    def test_clone_is_deep(self):
        builder = ClassBuilder("X")
        builder.field("a", INT)
        builder.default_init()
        original = builder.build()
        clone = original.clone()
        clone.fields[0].name = "changed"
        clone.methods[0].modifiers.append("static")
        assert original.fields[0].name == "a"
        assert "static" not in original.methods[0].modifiers

    def test_clone_matches_deepcopy_and_isolates_body(self):
        # A class with every kind of body element: an invoke with args,
        # switch cases, traps and locals.  The clone copies the lists
        # and shares their elements, which are immutable.
        ref = MethodRef("java.io.PrintStream", "println", VOID, (INT,))
        method = JMethod(
            "m", modifiers=["public", "static"],
            thrown=["java.lang.Exception"],
            locals=[JLocal("x", INT)],
            body=[
                InvokeStmt(InvokeExpr("virtual", ref, "r0", ["x"])),
                SwitchStmt("x", [(1, "L1"), (2, "L2")], "L3"),
                ReturnStmt(),
            ],
            traps=[Trap("L1", "L2", "L3", "java.lang.Exception", "e")])
        original = JClass("X", fields=[JField("a", INT, ["static"])],
                          methods=[method])
        clone = original.clone()
        assert clone == copy.deepcopy(original)

        cloned = clone.methods[0]
        for attr in ("body", "locals", "traps", "thrown", "modifiers",
                     "parameter_types"):
            assert getattr(cloned, attr) is not getattr(method, attr)
        assert all(a is b for a, b in zip(cloned.body, method.body))
        assert cloned.locals[0] is method.locals[0]
        assert cloned.traps[0] is method.traps[0]
        # The list arguments were stored as tuples.
        assert cloned.body[0].invoke.args == ("x",)
        assert cloned.body[1].cases == ((1, "L1"), (2, "L2"))

        # Every in-place edit the shared elements used to take now raises.
        with pytest.raises(dataclasses.FrozenInstanceError):
            cloned.locals[0].name = "y"
        with pytest.raises(AttributeError):
            cloned.body[0].invoke.args.append("x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cloned.body[0].invoke.base = "r9"
        with pytest.raises(AttributeError):
            cloned.body[1].cases.append((3, "L3"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cloned.traps[0].handler_local = "f"

        # Edits of the clone's lists leave the original alone.
        cloned.locals[0] = JLocal("y", INT)
        cloned.body[2] = ReturnStmt("x")
        cloned.traps.clear()
        cloned.thrown.append("java.lang.Error")
        assert method.locals == [JLocal("x", INT)]
        assert method.body[2] == ReturnStmt()
        assert len(method.traps) == 1
        assert method.thrown == ["java.lang.Exception"]

    def test_clone_shares_raw_code_blob(self):
        blob = object()
        original = JClass("X", methods=[JMethod("m", raw_code=blob)])
        assert original.clone().methods[0].raw_code is blob

    def test_concrete_methods(self):
        builder = ClassBuilder("X")
        builder.default_init()
        abstract = MethodBuilder("a", modifiers=["public", "abstract"])
        abstract.abstract_body()
        builder.method(abstract.build())
        jclass = builder.build()
        assert [m.name for m in jclass.concrete_methods()] == ["<init>"]

    def test_modifier_predicates(self):
        iface = ClassBuilder("I", modifiers=["public", "interface",
                                             "abstract"]).build()
        assert iface.is_interface
        assert iface.has_modifier("abstract")
        assert not ClassBuilder("C").build().is_interface


class TestJMethod:
    def test_predicates(self):
        method = JMethod("m", modifiers=["public", "static", "native"])
        assert method.is_static and method.is_native
        assert not method.is_abstract

    def test_find_local(self):
        method = JMethod("m", locals=[JLocal("x", INT)])
        assert method.find_local("x").jtype == INT
        assert method.find_local("y") is None

    def test_default_field_values(self):
        field = JField("f", STRING)
        assert field.modifiers == []
        assert field.constant_value is None
        assert field.signature.name == "f"


class TestBuilders:
    def test_default_init_calls_super(self):
        builder = ClassBuilder("X", superclass="java.lang.Thread")
        builder.default_init()
        init = builder.build().find_method("<init>")
        text = "\n".join(str(stmt) for stmt in init.body)
        assert "java.lang.Thread: void <init>()" in text

    def test_version_builder(self):
        jclass = ClassBuilder("X").version(52, 3).build()
        assert jclass.major_version == 52
        assert jclass.minor_version == 3

    def test_throws_accumulates(self):
        method = MethodBuilder("m")
        method.throws("java.io.IOException", "java.lang.Exception")
        assert method.build().thrown == ["java.io.IOException",
                                         "java.lang.Exception"]
