"""JVMS conformance of the operand stack and locals, in both engines.

The reference is JVMS itself: §6.5's forms of the stack-shuffle opcodes
are written out below, and §2.6's slot model (a long or double takes two
stack entries and two local slots) fixes where arguments and locals sit.
For every shuffle opcode and every category layout of up to four slots,
the verifier of each vendor accepts exactly the JVMS forms, and on each
legal layout the interpreter leaves the stack JVMS gives.  Every
parameter type is passed ahead of an int that the callee returns, and
whole classes with legal and illegal shuffles run on all five vendors.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.bytecode.assembler import Assembler
from repro.bytecode.opcodes import SHUFFLES, Op
from repro.classfile.access_flags import AccessFlags
from repro.classfile.attributes import CodeAttribute
from repro.classfile.methods import MethodInfo
from repro.classfile.model import ClassFile
from repro.classfile.writer import write_class
from repro.errors import VerifyError
from repro.jvm.interpreter import Interpreter
from repro.jvm.outcome import Phase
from repro.jvm.vendors import all_jvms
from repro.jvm.verifier import MethodVerifier

JVMS = all_jvms()

#: JVMS §6.5's forms: the values each opcode takes, deepest first, as
#: ``name:category``, then the values it leaves, deepest first.
JVMS_FORMS: Dict[Op, List[str]] = {
    Op.POP: ["v1:1 ->"],
    Op.POP2: ["v2:1 v1:1 ->",
              "v1:2 ->"],
    Op.DUP: ["v1:1 -> v1 v1"],
    Op.DUP_X1: ["v2:1 v1:1 -> v1 v2 v1"],
    Op.DUP_X2: ["v3:1 v2:1 v1:1 -> v1 v3 v2 v1",
                "v2:2 v1:1 -> v1 v2 v1"],
    Op.DUP2: ["v2:1 v1:1 -> v2 v1 v2 v1",
              "v1:2 -> v1 v1"],
    Op.DUP2_X1: ["v3:1 v2:1 v1:1 -> v2 v1 v3 v2 v1",
                 "v2:1 v1:2 -> v1 v2 v1"],
    Op.DUP2_X2: ["v4:1 v3:1 v2:1 v1:1 -> v2 v1 v4 v3 v2 v1",
                 "v3:1 v2:1 v1:2 -> v1 v3 v2 v1",
                 "v3:2 v2:1 v1:1 -> v2 v1 v3 v2 v1",
                 "v2:2 v1:2 -> v1 v2 v1"],
    Op.SWAP: ["v2:1 v1:1 -> v1 v2"],
}

#: Every stack of up to four slots, as value categories, deepest first.
LAYOUTS = [layout for count in range(5)
           for layout in itertools.product((1, 2), repeat=count)
           if sum(layout) <= 4]

#: A value's type by category and by its position in the layout: ints and
#: floats, longs and doubles alternate, so a category guessed from a
#: Python type shows.
_TYPES = {1: ("I", "F"), 2: ("J", "D")}
#: Each type's store, load, and the conversion and println type that
#: print it (the library's PrintStream prints ints and longs).
_OPS = {"I": (Op.ISTORE, Op.ILOAD, None, "I"),
        "F": (Op.FSTORE, Op.FLOAD, Op.F2I, "I"),
        "J": (Op.LSTORE, Op.LLOAD, None, "J"),
        "D": (Op.DSTORE, Op.DLOAD, Op.D2L, "J")}


def jvms_result(op: Op, layout: Sequence[int]) -> Optional[List[int]]:
    """The layout positions JVMS leaves on the stack after ``op``, deepest
    first, or ``None`` where no form of ``op`` fits the top of the stack."""
    for form in JVMS_FORMS[op]:
        taken, left = form.split("->")
        names = [item.split(":")[0] for item in taken.split()]
        categories = tuple(int(item.split(":")[1]) for item in taken.split())
        if tuple(layout[-len(categories):]) != categories:
            continue
        base = len(layout) - len(categories)
        return list(range(base)) + [base + names.index(name)
                                    for name in left.split()]
    return None


def _type(layout: Sequence[int], position: int) -> str:
    return _TYPES[layout[position]][position % 2]


def _value(layout: Sequence[int], position: int):
    """A distinct value for each position: 11, 22.5, 33, 44.5 ...; each
    prints as its integral part."""
    kind = _type(layout, position)
    number = 11 * (position + 1)
    return number + 0.5 if kind in "FD" else number


def _push(asm: Assembler, classfile: ClassFile, kind: str, value) -> None:
    pool = classfile.constant_pool
    if kind == "I":
        asm.emit(Op.LDC_W, index=pool.integer(value))
    elif kind == "F":
        asm.emit(Op.LDC_W, index=pool.float_(value))
    elif kind == "J":
        asm.emit(Op.LDC2_W, index=pool.long(value))
    else:
        asm.emit(Op.LDC2_W, index=pool.double(value))


def new_class(name: str = "S") -> ClassFile:
    classfile = ClassFile()
    pool = classfile.constant_pool
    classfile.this_class = pool.class_ref(name)
    classfile.super_class = pool.class_ref("java/lang/Object")
    classfile.access_flags = AccessFlags.PUBLIC | AccessFlags.SUPER
    return classfile


def add_method(classfile: ClassFile, name: str, descriptor: str,
               asm: Assembler, static: bool = True,
               max_stack: int = 12, max_locals: int = 16) -> MethodInfo:
    pool = classfile.constant_pool
    flags = AccessFlags.PUBLIC | (AccessFlags.STATIC if static
                                  else AccessFlags(0))
    method = MethodInfo(flags, pool.utf8(name), pool.utf8(descriptor),
                        [CodeAttribute(max_stack, max_locals, asm.build())])
    classfile.methods.append(method)
    return method


def shuffle_method(op: Op, layout: Sequence[int]) -> Tuple[ClassFile,
                                                          MethodInfo]:
    """``static void m()``: push the layout's values, run ``op``, then,
    where JVMS allows it, store what is left into locals (top first) and
    print each, deepest first."""
    classfile = new_class()
    pool = classfile.constant_pool
    asm = Assembler()
    for position in range(len(layout)):
        _push(asm, classfile, _type(layout, position),
              _value(layout, position))
    asm.emit(op)
    result = jvms_result(op, layout) or []
    slots, slot = [], 0
    for position in result:
        slots.append(slot)
        slot += layout[position]
    for position, local in reversed(list(zip(result, slots))):
        asm.emit(_OPS[_type(layout, position)][0], index=local)
    out = pool.field_ref("java/lang/System", "out", "Ljava/io/PrintStream;")
    for position, local in zip(result, slots):
        _, load, convert, printed = _OPS[_type(layout, position)]
        asm.emit(Op.GETSTATIC, index=out)
        asm.emit(load, index=local)
        if convert is not None:
            asm.emit(convert)
        asm.emit(Op.INVOKEVIRTUAL, index=pool.method_ref(
            "java/io/PrintStream", "println", f"({printed})V"))
    asm.emit(Op.RETURN)
    return classfile, add_method(classfile, "m", "()V", asm)


SHUFFLE_CASES = [(op, layout) for op in SHUFFLES for layout in LAYOUTS]


def _case_id(case) -> str:
    op, layout = case
    return f"{op.name.lower()}-{''.join(map(str, layout)) or 'empty'}"


class TestJvmsForms:
    def test_every_form_is_written_for_every_shuffle_opcode(self):
        assert set(JVMS_FORMS) == set(SHUFFLES)
        assert len(LAYOUTS) == 12

    @pytest.mark.parametrize("case", SHUFFLE_CASES, ids=_case_id)
    def test_verifier_accepts_exactly_the_jvms_forms(self, case):
        op, layout = case
        classfile, method = shuffle_method(op, layout)
        legal = jvms_result(op, layout) is not None
        for jvm in JVMS:
            verifier = MethodVerifier(classfile, method, method.code,
                                      jvm.policy, jvm.environment.library)
            if legal:
                verifier.verify()
                continue
            with pytest.raises(VerifyError) as info:
                verifier.verify()
            assert info.value.site in ("verifier.shuffle_split",
                                       "verifier.stack_underflow"), \
                (jvm.name, info.value.message)

    @pytest.mark.parametrize("case", [case for case in SHUFFLE_CASES
                                      if jvms_result(*case) is not None],
                             ids=_case_id)
    def test_interpreter_leaves_the_jvms_stack(self, case):
        op, layout = case
        classfile, method = shuffle_method(op, layout)
        jvm = JVMS[0]
        interpreter = Interpreter(classfile, jvm.policy, jvm.environment)
        interpreter.invoke_method(method)
        assert interpreter.output == [
            str(int(_value(layout, position)))
            for position in jvms_result(op, layout)]

    def test_a_split_names_the_opcode(self):
        classfile, method = shuffle_method(Op.SWAP, (2, 1))
        jvm = JVMS[0]
        with pytest.raises(VerifyError, match="swap would split a long or "
                                              "double on the stack"):
            MethodVerifier(classfile, method, method.code, jvm.policy,
                           jvm.environment.library).verify()


# -- arguments and locals in slots ---------------------------------------------------

#: Each parameter type, the code pushing an argument of it, and the slots
#: it takes.
PARAMETERS = {
    "I": (lambda asm, pool: asm.emit(Op.ICONST_3), 1),
    "J": (lambda asm, pool: asm.emit(Op.LDC2_W, index=pool.long(2 ** 40)), 2),
    "F": (lambda asm, pool: asm.emit(Op.LDC_W, index=pool.float_(1.5)), 1),
    "D": (lambda asm, pool: asm.emit(Op.LDC2_W, index=pool.double(2.5)), 2),
    "Z": (lambda asm, pool: asm.emit(Op.ICONST_1), 1),
    "B": (lambda asm, pool: asm.emit(Op.BIPUSH, value=-3), 1),
    "C": (lambda asm, pool: asm.emit(Op.BIPUSH, value=65), 1),
    "S": (lambda asm, pool: asm.emit(Op.SIPUSH, value=300), 1),
    "Ljava/lang/String;": (
        lambda asm, pool: asm.emit(Op.LDC_W, index=pool.string("s")), 1),
    "[I": (lambda asm, pool: (asm.emit(Op.ICONST_2),
                              asm.emit(Op.NEWARRAY, value=10)), 1),
}


def argument_class(parameter: str) -> bytes:
    """Class ``A`` whose ``main`` prints ``g(x, 7)`` and ``new A().h(x,
    7)``: a static and an instance method of ``(T, int)`` that return
    their int parameter."""
    classfile = new_class("A")
    pool = classfile.constant_pool
    push, slots = PARAMETERS[parameter]
    descriptor = f"({parameter}I)I"
    for name, static in (("g", True), ("h", False)):
        asm = Assembler()
        asm.emit(Op.ILOAD, index=slots + (0 if static else 1))
        asm.emit(Op.IRETURN)
        add_method(classfile, name, descriptor, asm, static=static,
                   max_locals=slots + 2)
    asm = Assembler()
    asm.emit(Op.ALOAD_0)
    asm.emit(Op.INVOKESPECIAL, index=pool.method_ref(
        "java/lang/Object", "<init>", "()V"))
    asm.emit(Op.RETURN)
    add_method(classfile, "<init>", "()V", asm, static=False)
    out = pool.field_ref("java/lang/System", "out", "Ljava/io/PrintStream;")
    println = pool.method_ref("java/io/PrintStream", "println", "(I)V")
    asm = Assembler()
    asm.emit(Op.GETSTATIC, index=out)
    push(asm, pool)
    asm.emit(Op.BIPUSH, value=7)
    asm.emit(Op.INVOKESTATIC, index=pool.method_ref("A", "g", descriptor))
    asm.emit(Op.INVOKEVIRTUAL, index=println)
    asm.emit(Op.GETSTATIC, index=out)
    asm.emit(Op.NEW, index=pool.class_ref("A"))
    asm.emit(Op.DUP)
    asm.emit(Op.INVOKESPECIAL, index=pool.method_ref("A", "<init>", "()V"))
    push(asm, pool)
    asm.emit(Op.BIPUSH, value=7)
    asm.emit(Op.INVOKEVIRTUAL, index=pool.method_ref("A", "h", descriptor))
    asm.emit(Op.INVOKEVIRTUAL, index=println)
    asm.emit(Op.RETURN)
    add_method(classfile, "main", "([Ljava/lang/String;)V", asm)
    return write_class(classfile)


@pytest.mark.parametrize("parameter", sorted(PARAMETERS))
def test_every_parameter_type_keeps_the_next_slot(parameter):
    data = argument_class(parameter)
    for jvm in JVMS:
        outcome = jvm.run(data)
        assert outcome.phase is Phase.INVOKED, (jvm.name, outcome.brief())
        assert outcome.output == ("7", "7"), jvm.name


# -- whole classes, on every vendor ----------------------------------------------------


def _emit_all(asm: Assembler, ops: Sequence) -> None:
    """Emit each opcode, or each ``(op, operands)`` pair."""
    for op in ops:
        if isinstance(op, tuple):
            asm.emit(op[0], **op[1])
        else:
            asm.emit(op)


def main_class(*body, helper: Sequence = ()) -> bytes:
    """Class ``P`` whose ``main`` runs ``body``; with ``helper``, ``main``
    prints ``f()I``, whose body that is."""
    classfile = new_class("P")
    pool = classfile.constant_pool
    asm = Assembler()
    if helper:
        _emit_all(asm, helper)
        add_method(classfile, "f", "()I", asm)
        asm = Assembler()
        asm.emit(Op.GETSTATIC, index=pool.field_ref(
            "java/lang/System", "out", "Ljava/io/PrintStream;"))
        asm.emit(Op.INVOKESTATIC, index=pool.method_ref("P", "f", "()I"))
        asm.emit(Op.INVOKEVIRTUAL, index=pool.method_ref(
            "java/io/PrintStream", "println", "(I)V"))
    _emit_all(asm, body)
    add_method(classfile, "main", "([Ljava/lang/String;)V", asm)
    return write_class(classfile)


def _outcomes(data: bytes) -> Dict[str, object]:
    return {jvm.name: jvm.run(data) for jvm in JVMS}


class TestShufflesOnEveryVendor:
    def test_legal_dup2_x1_main_runs_everywhere(self):
        data = main_class(Op.ICONST_1, Op.ICONST_2, Op.ICONST_3, Op.DUP2_X1,
                          *[Op.POP] * 5, Op.RETURN)
        for name, outcome in _outcomes(data).items():
            assert outcome.phase is Phase.INVOKED, (name, outcome.brief())

    def test_swap_over_a_long_is_a_verify_error(self):
        data = main_class(Op.LCONST_0, Op.ICONST_1, Op.SWAP, Op.POP,
                          Op.POP2, Op.RETURN)
        for name, outcome in _outcomes(data).items():
            expected = Phase.RUNTIME if name == "j9" else Phase.LINKING
            assert (outcome.phase, outcome.error, outcome.site) == (
                expected, "VerifyError", "verifier.shuffle_split"), name

    def test_dup2_x1_helper_returns_two(self):
        data = main_class(Op.RETURN, helper=(
            Op.ICONST_1, Op.ICONST_2, Op.ICONST_3, Op.DUP2_X1,
            *[Op.POP] * 4, Op.IRETURN))
        for name, outcome in _outcomes(data).items():
            assert outcome.output == ("2",), (name, outcome.brief())

    @pytest.mark.parametrize("body", [
        (Op.FCONST_1, Op.FCONST_2, Op.DUP2, *[Op.POP] * 4, Op.RETURN),
        (Op.LCONST_1, Op.DUP2, Op.POP2, Op.POP2, Op.RETURN),
    ], ids=["fconst-dup2", "lconst-dup2"])
    def test_category_is_not_guessed_from_the_value(self, body):
        for name, outcome in _outcomes(main_class(*body)).items():
            assert outcome.phase is Phase.INVOKED, (name, outcome.brief())


class TestLocalsFollowSlots:
    """JVMS §2.6.1: a store into slot n+1 ends a long or double at n."""

    def test_store_into_upper_half_ends_the_long(self):
        data = main_class(Op.LCONST_0, (Op.LSTORE, {"index": 1}),
                          Op.ICONST_1, (Op.ISTORE, {"index": 2}),
                          (Op.LLOAD, {"index": 1}), Op.POP2, Op.RETURN)
        for name, outcome in _outcomes(data).items():
            expected = Phase.RUNTIME if name == "j9" else Phase.LINKING
            assert (outcome.phase, outcome.site) == (
                expected, "verifier.load_undefined_local"), name

    def test_store_beside_the_long_leaves_it(self):
        data = main_class(Op.LCONST_0, (Op.LSTORE, {"index": 1}),
                          Op.ICONST_1, (Op.ISTORE, {"index": 3}),
                          (Op.LLOAD, {"index": 1}), Op.POP2, Op.RETURN)
        for name, outcome in _outcomes(data).items():
            assert outcome.phase is Phase.INVOKED, (name, outcome.brief())


class TestIllTypedReads:
    """The verifiers let some code read a slot as a type it does not
    hold.  The run still ends in a Java outcome that every process gives
    alike: the upper slot of a long holds ``None``, as an empty local
    does, so iinc counts from 0 and println prints null there, and iinc
    of a reference is a ClassCastException."""

    def test_iinc_on_the_upper_slot_of_a_long(self):
        data = main_class(Op.LCONST_0, Op.LSTORE_0,
                          (Op.IINC, {"index": 1, "const": 1}), Op.RETURN)
        for name, outcome in _outcomes(data).items():
            assert outcome.phase is Phase.INVOKED, (name, outcome.brief())

    def test_iinc_of_a_reference(self):
        data = main_class(Op.ICONST_1, (Op.NEWARRAY, {"value": 10}),
                          Op.ASTORE_0, (Op.IINC, {"index": 0, "const": 1}),
                          Op.RETURN)
        for name, outcome in _outcomes(data).items():
            assert (outcome.phase, outcome.error, outcome.site) == (
                Phase.RUNTIME, "ClassCastException", "interp.not_an_int"), \
                name

    def test_lenient_merge_with_an_extra_long(self):
        """The path that skips the branch pushes a long; the join keeps
        the shorter stack on the lenient vendors, so ``istore_1`` takes
        the long's upper slot and println prints it."""
        classfile = new_class("P")
        pool = classfile.constant_pool
        asm = Assembler()
        asm.emit(Op.GETSTATIC, index=pool.field_ref(
            "java/lang/System", "out", "Ljava/io/PrintStream;"))
        asm.emit(Op.ICONST_5)
        asm.emit(Op.ICONST_1)
        asm.branch(Op.IFEQ, "join")
        asm.emit(Op.LCONST_1)
        asm.label("join")
        asm.emit(Op.ISTORE_1)
        asm.emit(Op.ILOAD_1)
        asm.emit(Op.INVOKEVIRTUAL, index=pool.method_ref(
            "java/io/PrintStream", "println", "(I)V"))
        asm.emit(Op.RETURN)
        add_method(classfile, "main", "([Ljava/lang/String;)V", asm)
        for name, outcome in _outcomes(write_class(classfile)).items():
            if name == "j9":
                assert (outcome.phase, outcome.site) == (
                    Phase.RUNTIME, "verifier.stack_shape_inconsistent")
                continue
            assert outcome.phase is Phase.INVOKED, (name, outcome.brief())
            assert outcome.output == ("null",), name


class TestArrayStoresTakeTheirCategory:
    """An array store pops a value of its element's category, in both
    engines: a long store takes four slots, an int store three."""

    @pytest.mark.parametrize("body", [
        (Op.ICONST_1, (Op.NEWARRAY, {"value": 10}), Op.ICONST_0, Op.LCONST_1,
         Op.IASTORE, Op.RETURN),
        (Op.ICONST_1, (Op.NEWARRAY, {"value": 11}), Op.ICONST_0, Op.ICONST_1,
         Op.LASTORE, Op.RETURN),
    ], ids=["iastore-of-long", "lastore-of-int"])
    def test_a_value_of_the_wrong_category_is_a_verify_error(self, body):
        for name, outcome in _outcomes(main_class(*body)).items():
            expected = Phase.RUNTIME if name == "j9" else Phase.LINKING
            assert (outcome.phase, outcome.error, outcome.site) == (
                expected, "VerifyError", "verifier.operand_type_mismatch"), \
                name

    def test_a_long_goes_in_and_comes_back(self):
        data = main_class(Op.RETURN, helper=(
            Op.ICONST_1, (Op.NEWARRAY, {"value": 11}), Op.DUP, Op.ICONST_0,
            Op.LCONST_1, Op.LASTORE, Op.ICONST_0, Op.LALOAD, Op.L2I,
            Op.IRETURN))
        for name, outcome in _outcomes(data).items():
            assert outcome.output == ("1",), (name, outcome.brief())
