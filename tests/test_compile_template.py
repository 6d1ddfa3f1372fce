"""A replayed compile template yields the bytes a fresh compile would.

``compile_method`` keeps each compiled Jimple method as a template that
``JMethod.clone`` passes on and a later compile replays.  A pickled
class carries no template, so compiling a pickle round trip of a class
is a fresh compile: the oracle every test here compares against.
"""

import copy
import pickle

import pytest

from repro.core.fuzzing import classfuzz
from repro.core.mutators import EXECUTION_MUTATORS, MUTATORS
from repro.corpus import CorpusConfig, generate_corpus
from repro.jimple import to_classfile
from repro.jimple.model import JClass, JField, JLocal, JMethod
from repro.jimple.statements import (
    AssignCastStmt,
    AssignConstStmt,
    AssignFieldGetStmt,
    AssignFieldPutStmt,
    AssignInstanceOfStmt,
    AssignInvokeStmt,
    AssignNewStmt,
    Constant,
    FieldRef,
    IdentityStmt,
    InvokeExpr,
    InvokeStmt,
    LabelStmt,
    MethodRef,
    ReturnStmt,
    SwitchStmt,
    Trap,
)
from repro.jimple.to_classfile import JimpleCompileError, compile_class_bytes
from repro.jimple.types import (
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    OBJECT,
    STRING,
    STRING_ARRAY,
    VOID,
    JType,
)

MAP = JType("java.util.Map")


def fresh_bytes(jclass: JClass) -> bytes:
    """Compile a copy of ``jclass`` that carries no template."""
    return compile_class_bytes(pickle.loads(pickle.dumps(jclass)))


def constants_main(*constants: Constant) -> JMethod:
    """``main`` assigning each constant to a local of its type."""
    locals_ = [JLocal("r0", STRING_ARRAY)]
    body = [IdentityStmt("r0", "parameter0", STRING_ARRAY)]
    for position, constant in enumerate(constants):
        name = f"$c{position}"
        locals_.append(JLocal(name, constant.jtype))
        body.append(AssignConstStmt(name, constant))
    body.append(ReturnStmt())
    return JMethod("main", VOID, [STRING_ARRAY], ["public", "static"],
                   locals=locals_, body=body)


def rich_class(name: str = "Rich") -> JClass:
    """A class whose methods make every kind of pool request and place."""
    ref = MethodRef("java.util.Map", "size", INT, (), on_interface=True)
    put = MethodRef("java.util.Map", "put", OBJECT, (OBJECT, OBJECT),
                    on_interface=True)
    value_of = MethodRef("java.lang.String", "valueOf", STRING, (LONG,))
    field = FieldRef(name, "count", INT)
    work = JMethod(
        "work", INT, [MAP], ["public"], thrown=["java.io.IOException"],
        locals=[JLocal("r0", JType(name)), JLocal("r1", MAP),
                JLocal("$i", INT), JLocal("$s", STRING), JLocal("$o", OBJECT),
                JLocal("$e", JType("java.lang.Exception")),
                JLocal("$d", DOUBLE), JLocal("$f", FLOAT)],
        body=[
            IdentityStmt("r0", "this", JType(name)),
            IdentityStmt("r1", "parameter0", MAP),
            LabelStmt("try"),
            AssignConstStmt("$s", Constant("text", STRING)),
            AssignConstStmt("$d", Constant(2.5, DOUBLE)),
            AssignConstStmt("$f", Constant(-0.0, FLOAT)),
            AssignConstStmt("$i", Constant(100000, INT)),
            AssignInvokeStmt("$s", InvokeExpr("static", value_of, None,
                                              [Constant(1 << 40, LONG)])),
            AssignNewStmt("$o", "java.util.HashMap"),
            AssignCastStmt("r1", MAP, "$o"),
            AssignInstanceOfStmt("$i", "$o", MAP),
            InvokeStmt(InvokeExpr("interface", put, "r1", ["$s", "$o"])),
            AssignInvokeStmt("$i", InvokeExpr("interface", ref, "r1")),
            AssignFieldPutStmt(field, "$i", "r0"),
            AssignFieldGetStmt("$i", field, "r0"),
            SwitchStmt("$i", [(0, "end"), (7, "try")], "end"),
            LabelStmt("endtry"),
            LabelStmt("handler"),
            IdentityStmt("$e", "caughtexception",
                         JType("java.lang.Exception")),
            LabelStmt("end"),
            ReturnStmt("$i"),
        ],
        traps=[Trap("try", "endtry", "handler", "java.lang.Exception", "$e"),
               Trap("try", "endtry", "handler", None, "$e")])
    return JClass(name, fields=[JField("count", INT)],
                  methods=[work, constants_main(Constant(3.0, DOUBLE))])


class TestReplay:
    def test_unchanged_clone_replays_without_compiling(self, monkeypatch):
        origin = rich_class()
        data = compile_class_bytes(origin)
        assert data == fresh_bytes(origin)
        assert all(method.template is not None
                   for method in origin.methods)

        def no_compile(*args):
            raise AssertionError("an unchanged method was compiled")

        monkeypatch.setattr(to_classfile, "_MethodCompiler", no_compile)
        clone = origin.clone()
        assert all(a.template is b.template
                   for a, b in zip(clone.methods, origin.methods))
        assert compile_class_bytes(clone) == data

    def test_replay_patches_indices_in_a_grown_pool(self):
        origin = rich_class()
        compile_class_bytes(origin)
        clone = origin.clone()
        # Members compiled before ``work`` move every index it gets.
        clone.fields.insert(0, JField("first", LONG, ["static", "final"],
                                      constant_value=7))
        clone.methods.insert(0, constants_main(
            Constant("other", STRING), Constant(9.0, DOUBLE),
            Constant(1 << 33, LONG)))
        clone.methods[0].name = "prelude"
        assert compile_class_bytes(clone) == fresh_bytes(clone)

    @pytest.mark.parametrize("jtype", [FLOAT, DOUBLE], ids=str)
    @pytest.mark.parametrize("before, after", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_edit_is_compiled_again(self, jtype, before, after):
        # ``Constant(-0.0) == Constant(0.0)``: an equality key would
        # replay the other zero's bytes.
        origin = JClass("Z", methods=[constants_main(Constant(before,
                                                              jtype))])
        first = compile_class_bytes(origin)
        clone = origin.clone()
        clone.methods[0].body[1] = AssignConstStmt("$c0",
                                                   Constant(after, jtype))
        assert clone.methods[0] == origin.methods[0]
        data = compile_class_bytes(clone)
        assert data == fresh_bytes(clone)
        assert data != first

    @pytest.mark.parametrize("jtype", [FLOAT, DOUBLE], ids=str)
    def test_two_nan_constants(self, jtype):
        nan = float("nan")
        origin = JClass("N", methods=[constants_main(
            Constant(nan, jtype), Constant(nan, jtype),
            Constant(float("nan"), jtype))])
        data = compile_class_bytes(origin)
        assert data == fresh_bytes(origin)
        assert compile_class_bytes(origin.clone()) == data

    @pytest.mark.parametrize("edit", ["body", "locals", "traps", "name",
                                      "modifiers", "thrown", "parameters",
                                      "return_type"])
    def test_origin_edited_after_its_compile(self, edit):
        origin = rich_class()
        first = compile_class_bytes(origin)
        before = origin.clone()
        work = origin.methods[0]
        if edit == "body":
            work.body[5] = AssignConstStmt("$f", Constant(0.0, FLOAT))
        elif edit == "locals":
            work.locals[2] = JLocal("$i", LONG)
        elif edit == "traps":
            work.traps[0] = Trap("try", "endtry", "handler",
                                 "java.lang.Error", "$e")
        elif edit == "name":
            work.name = "labour"
        elif edit == "modifiers":
            work.modifiers.append("final")
        elif edit == "thrown":
            work.thrown.append("java.lang.Error")
        elif edit == "parameters":
            work.parameter_types.append(INT)
        else:
            work.return_type = LONG
        edited = compile_class_bytes(origin)
        assert edited == fresh_bytes(origin)
        assert edited != first
        assert compile_class_bytes(origin.clone()) == edited
        assert compile_class_bytes(before) == first

    def test_compile_error_is_never_kept(self):
        method = constants_main()
        method.body.insert(1, AssignConstStmt("$missing", Constant(1, INT)))
        origin = JClass("First", methods=[method])
        with pytest.raises(JimpleCompileError, match=r"^First\.main: "):
            compile_class_bytes(origin)
        assert method.template is None
        clone = origin.clone()
        clone.name = "Second"
        with pytest.raises(JimpleCompileError, match=r"^Second\.main: "):
            compile_class_bytes(clone)


class TestTemplateStaysInProcess:
    def test_deepcopy_drops_the_template(self):
        jclass = rich_class()
        data = compile_class_bytes(jclass)
        method = jclass.methods[0]
        assert method.template is not None
        dup = copy.deepcopy(method)
        assert dup.template is None
        assert dup == method
        dup_class = copy.deepcopy(jclass)
        assert all(m.template is None for m in dup_class.methods)
        assert compile_class_bytes(dup_class) == data

    def test_pickle_is_the_same_before_and_after_compile(self):
        jclass = rich_class()
        before = pickle.dumps(jclass)
        compile_class_bytes(jclass)
        assert all(m.template is not None for m in jclass.methods)
        assert pickle.dumps(jclass) == before
        assert all(m.template is None
                   for m in pickle.loads(before).methods)


@pytest.mark.parametrize("seed, corpus, iterations, criterion, mutators", [
    (1, CorpusConfig(count=40, seed=1), 300, "stbr", MUTATORS),
    (5, CorpusConfig(count=60, seed=5, exec_fraction=1), 1500, "tr",
     list(MUTATORS) + list(EXECUTION_MUTATORS)),
], ids=["default-mutators", "execution-mutators"])
def test_every_mutant_matches_its_fresh_compile(seed, corpus, iterations,
                                                criterion, mutators):
    """Each generated classfile equals its pickled twin's compile."""
    result = classfuzz(generate_corpus(corpus), iterations,
                       criterion=criterion, seed=seed, mutators=mutators)
    assert len(result.gen_classes) > iterations // 2
    moved = [generated.label for generated in result.gen_classes
             if fresh_bytes(generated.jclass) != generated.data]
    assert moved == []
