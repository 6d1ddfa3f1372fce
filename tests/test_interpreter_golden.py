"""Interpreter pin: every opcode outside the stack-shuffle family, run alone.

Each case is a static method ``t()`` of a class built in memory.  It
pushes canonical operands with ``ldc_w``/``ldc2_w`` (NaN, ±0.0, ±inf,
MIN/MAX values, a zero divisor, null, negative and out-of-range indices),
runs one opcode and returns what it left: a branch returns 1 when taken, a
store returns what a load reads back.  Every case runs through
:meth:`Interpreter.invoke_method` under a :class:`CoverageCollector`, once
for each pair of ``fcmpg_nan_result`` and ``strict_narrowing_conversions``,
and is pinned as one line: the returned value or the raised error (class,
message and site), the printed output, and a digest of the statement and
branch counts.  A case whose four lines agree stores one.

Every operand stack here is well typed and every argument an ``int``, a
``long`` alone or a ``double``, so these lines hold under any stack or
local layout; the shuffle family (pop, pop2, dup, dup_x1, dup_x2, dup2,
dup2_x1, dup2_x2, swap) is pinned against JVMS §6.5 by
``test_stack_shapes.py`` instead.

Regenerate only for a change that means to move what the interpreter
returns, raises, prints or probes, and say so where the change is
recorded::

    PYTHONPATH=src python tests/test_interpreter_golden.py > tests/data/golden_interpreter.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.bytecode.assembler import Assembler
from repro.bytecode.opcodes import CONST, LOAD, OPCODES, STORE, Op
from repro.classfile.access_flags import AccessFlags
from repro.classfile.attributes import CodeAttribute, ExceptionHandler
from repro.classfile.constant_pool import ConstantPool
from repro.classfile.methods import MethodInfo
from repro.classfile.model import ClassFile
from repro.coverage.probes import CoverageCollector
from repro.errors import JavaError
from repro.jvm.interpreter import (
    Interpreter,
    JArray,
    JObject,
    _SystemExitRequested,
)
from repro.jvm.policy import JvmPolicy
from repro.runtime.environment import build_environment

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_interpreter.json"

ENVIRONMENT = build_environment(8)

INT_MIN, INT_MAX = -2 ** 31, 2 ** 31 - 1
LONG_MIN, LONG_MAX = -2 ** 63, 2 ** 63 - 1
NAN, INF = float("nan"), float("inf")

#: The operands of each category, and the wider sets a one-operand
#: opcode (a negation or a conversion) sees.
VALUES = {"i": (0, 1, -1, 33, INT_MIN, INT_MAX),
          "l": (0, 1, -1, 65, LONG_MIN, LONG_MAX),
          "f": (0.0, -0.0, 1.5, -2.5, NAN, INF, -INF),
          "d": (0.0, -0.0, 1.5, -2.5, NAN, INF, -INF)}
WIDE_VALUES = {
    "i": VALUES["i"] + (128, 300, 65535, -129, 0x12345),
    "l": VALUES["l"] + (2 ** 32, -2 ** 32 - 1, 2 ** 40 + 1),
    "f": VALUES["f"] + (3.9, -3.9, 1e12, -1e12, 1e20, -1e20),
    "d": VALUES["d"] + (3.9, -3.9, 1e12, -1e12, 1e20, -1e20)}

#: Each pair of (``fcmpg_nan_result``, ``strict_narrowing_conversions``).
POLICIES = [(nan, strict) for nan in (1, 0) for strict in (True, False)]

#: Opcodes no case runs: the shuffle family, and ``wide``, which the
#: decoder folds into the instruction it modifies.
UNCOVERED = frozenset({Op.POP, Op.POP2, Op.DUP, Op.DUP_X1, Op.DUP_X2,
                       Op.DUP2, Op.DUP2_X1, Op.DUP2_X2, Op.SWAP,
                       Op.WIDE_PREFIX})

_RETURNS = {"i": Op.IRETURN, "l": Op.LRETURN, "f": Op.FRETURN,
            "d": Op.DRETURN, "a": Op.ARETURN, "v": Op.RETURN}
_DESCRIPTORS = {"i": "I", "l": "J", "f": "F", "d": "D",
                "a": "Ljava/lang/Object;", "v": "V"}

#: A handler as ``(start label, end label, handler label, catch class)``.
Handler = tuple


class Case(NamedTuple):
    """One pinned method: its label, the category ``t()`` returns, and
    what emits its body (returning its exception handlers, if any)."""

    label: str
    returns: str
    emit: Callable[[Assembler, ConstantPool], Optional[List[Handler]]]


# -- emitting ----------------------------------------------------------------------


def push(asm: Assembler, pool: ConstantPool, cat: str, value) -> None:
    """Push ``value``: a number of category ``cat`` from the pool, or for
    ``a`` one of the named references of :func:`push_ref`."""
    if cat == "i":
        asm.emit(Op.LDC_W, index=pool.integer(value))
    elif cat == "f":
        asm.emit(Op.LDC_W, index=pool.float_(value))
    elif cat == "l":
        asm.emit(Op.LDC2_W, index=pool.long(value))
    elif cat == "d":
        asm.emit(Op.LDC2_W, index=pool.double(value))
    else:
        push_ref(asm, pool, value)


def push_ref(asm: Assembler, pool: ConstantPool, name: str) -> None:
    """Push a named reference: ``null``, the string ``"s"``, a new (not
    yet initialized) ``G``, or a new ``int[3]``."""
    if name == "null":
        asm.emit(Op.ACONST_NULL)
    elif name == "str":
        asm.emit(Op.LDC_W, index=pool.string("s"))
    elif name == "obj":
        asm.emit(Op.NEW, index=pool.class_ref("G"))
    else:  # "array"
        asm.emit(Op.ICONST_3)
        asm.emit(Op.NEWARRAY, value=10)


def _show(value) -> str:
    if isinstance(value, float):
        return f"float {value!r}"
    if isinstance(value, int):
        return f"{type(value).__name__} {value}"
    if value is None:
        return "null"
    if isinstance(value, str):
        return f"str {value!r}"
    if isinstance(value, JObject):
        fields = ", ".join(f"{name}={_show(field)}"
                           for name, field in sorted(value.fields.items()))
        return f"obj {value.class_name} {value.initialized} {{{fields}}}"
    if isinstance(value, JArray):
        return f"array {value.element_descriptor} [{_show(value.values)}]"
    if isinstance(value, list):
        return ", ".join(_show(item) for item in value)
    if isinstance(value, dict):
        return ", ".join(f"{key!r}: {_show(item)}"
                         for key, item in sorted(value.items(), key=repr))
    return f"{type(value).__name__} {getattr(value, 'name', '')}"


def _then_return(cat: str):
    def emit(asm: Assembler, pool: ConstantPool) -> None:
        asm.emit(_RETURNS[cat])
    return emit


def _case(label: str, returns: str, *steps) -> Case:
    """A case from steps run in order: each a callable ``(asm, pool)``,
    an opcode, or an ``(opcode, operands)`` pair; a step that returns
    handlers gives the case's handlers."""
    def emit(asm: Assembler, pool: ConstantPool):
        handlers = None
        for step in steps:
            if isinstance(step, Op):
                asm.emit(step)
            elif isinstance(step, tuple):
                op, operands = step
                asm.emit(op, **operands)
            else:
                handlers = step(asm, pool) or handlers
        return handlers
    return Case(label, returns, emit)


def _values(*pairs) -> Callable:
    """A step pushing ``(category, value)`` pairs, deepest first."""
    def emit(asm: Assembler, pool: ConstantPool) -> None:
        for cat, value in pairs:
            push(asm, pool, cat, value)
    return emit


def _with(make: Callable[[ConstantPool], Dict[str, object]], op: Op):
    """A step emitting ``op`` with operands built from the pool."""
    def emit(asm: Assembler, pool: ConstantPool) -> None:
        asm.emit(op, **make(pool))
    return emit


def _branch(op: Op) -> Callable:
    """``op`` to a tail returning 1; the fall-through returns 0."""
    def emit(asm: Assembler, pool: ConstantPool) -> None:
        asm.branch(op, "taken")
        asm.emit(Op.ICONST_0)
        asm.emit(Op.IRETURN)
        asm.label("taken")
        asm.emit(Op.ICONST_1)
        asm.emit(Op.IRETURN)
    return emit


# -- the cases ---------------------------------------------------------------------


def value_cases() -> Iterator[Case]:
    """Every fixed-effect opcode from numbers to a number: arithmetic,
    negation, shifts, conversions and comparisons, over every operand
    pair (one-operand opcodes over the wider sets)."""
    for info in OPCODES.values():
        effect = info.effect
        if effect is None or info.family is not None or info.is_branch \
                or not effect.pops or effect.push not in VALUES \
                or any(cat not in VALUES for cat in effect.pops):
            continue
        deepest_first = effect.pops[::-1]
        sets = [WIDE_VALUES[cat] for cat in deepest_first] \
            if len(deepest_first) == 1 \
            else [VALUES[cat] for cat in deepest_first]
        for operands in itertools.product(*sets):
            label = " ".join([info.mnemonic] + [repr(v) for v in operands])
            yield _case(label, effect.push,
                        _values(*zip(deepest_first, operands)), info.op,
                        _then_return(effect.push))


def branch_cases() -> Iterator[Case]:
    """Conditional branches over every operand (pair), then the jumps
    and both switches."""
    for info in OPCODES.values():
        effect = info.effect
        if not info.is_branch or info.is_terminal or effect is None:
            continue
        deepest_first = effect.pops[::-1]
        if "a" in deepest_first:
            refs = ("null", "str", "obj")
            sets = [refs] * len(deepest_first)
        else:
            sets = [VALUES[cat] for cat in deepest_first]
        for operands in itertools.product(*sets):
            label = " ".join([info.mnemonic] + [repr(v) for v in operands])
            yield _case(label, "i", _values(*zip(deepest_first, operands)),
                        _branch(info.op))
    yield _case("if_acmpeq same", "i", _values(("a", "str")),
                (Op.ASTORE_0, {}), (Op.ALOAD_0, {}), (Op.ALOAD_0, {}),
                _branch(Op.IF_ACMPEQ))
    for op in (Op.GOTO, Op.GOTO_W):
        yield _case(op.name.lower(), "i", _branch(op))

    def tableswitch(asm: Assembler, pool: ConstantPool) -> None:
        asm.switch(Op.TABLESWITCH, "d", low=-1, high=1,
                   targets=["m1", "z", "p1"])
        for name, result in (("d", 9), ("m1", -1), ("z", 0), ("p1", 1)):
            asm.label(name)
            asm.emit(Op.BIPUSH, value=result)
            asm.emit(Op.IRETURN)

    def lookupswitch(asm: Assembler, pool: ConstantPool) -> None:
        asm.switch(Op.LOOKUPSWITCH, "d",
                   pairs=[(INT_MIN, "lo"), (1, "one"), (INT_MAX, "hi")])
        for name, result in (("d", 9), ("lo", -1), ("one", 1), ("hi", 2)):
            asm.label(name)
            asm.emit(Op.BIPUSH, value=result)
            asm.emit(Op.IRETURN)

    for value in VALUES["i"] + (-2, 2):
        yield _case(f"tableswitch {value}", "i", _values(("i", value)),
                    tableswitch)
        yield _case(f"lookupswitch {value}", "i", _values(("i", value)),
                    lookupswitch)


def constant_cases() -> Iterator[Case]:
    """The const family, bipush/sipush at their bounds, ldc/ldc_w of each
    loadable tag and of two that are not, ldc2_w of edge values."""
    for info in OPCODES.values():
        if info.family == CONST and info.implicit is not None:
            yield _case(info.mnemonic, info.cat, info.op,
                        _then_return(info.cat))
    for op, bounds in ((Op.BIPUSH, (-128, 0, 127)),
                       (Op.SIPUSH, (-32768, 32767))):
        for value in bounds:
            yield _case(f"{op.name.lower()} {value}", "i",
                        (op, {"value": value}), _then_return("i"))
    yield _case("aconst_null", "a", Op.ACONST_NULL, _then_return("a"))
    entries = (("int", "i", lambda pool: pool.integer(INT_MIN)),
               ("float nan", "f", lambda pool: pool.float_(NAN)),
               ("float -0.0", "f", lambda pool: pool.float_(-0.0)),
               ("string", "a", lambda pool: pool.string("x")),
               ("class", "a", lambda pool: pool.class_ref("java/lang/Object")),
               ("utf8", "a", lambda pool: pool.utf8("u")),
               ("out of range", "a", lambda pool: 250))
    for op in (Op.LDC, Op.LDC_W):
        for name, cat, index in entries:
            yield _case(f"{op.name.lower()} {name}", cat,
                        _with(lambda pool, index=index: {"index": index(pool)},
                              op),
                        _then_return(cat))
    for cat in "ld":
        for value in WIDE_VALUES[cat]:
            yield _case(f"ldc2_w {cat} {value!r}", cat,
                        _values((cat, value)), _then_return(cat))


def local_cases() -> Iterator[Case]:
    """Each store and its load through every slot form, wide too, then
    iinc at its bounds."""
    samples = {"i": INT_MIN, "l": LONG_MAX, "f": NAN, "d": -0.0, "a": "str"}
    stores = {info.cat: [] for info in OPCODES.values()
              if info.family == STORE}
    for info in OPCODES.values():
        if info.family == STORE:
            stores[info.cat].append(info)
    for cat, infos in stores.items():
        loads = {info.implicit: info for info in OPCODES.values()
                 if info.family == LOAD and info.cat == cat}
        for info in infos:
            if info.implicit is None:
                forms = [(2, {"index": 2}), (300, {"index": 300,
                                                   "wide": True})]
            else:
                forms = [(info.implicit, {})]
            for slot, operands in forms:
                load = loads[info.implicit]
                load_operands = dict(operands)
                yield _case(f"{info.mnemonic} {slot}", cat,
                            _values((cat, samples[cat])),
                            (info.op, operands), (load.op, load_operands),
                            _then_return(cat))
    for start, const, wide in ((INT_MAX, 1, False), (0, -128, False),
                               (5, 127, False), (INT_MIN, -32768, True),
                               (-1, 32767, True)):
        operands = {"index": 1, "const": const}
        if wide:
            operands["wide"] = True
        yield _case(f"iinc {start} {const}", "i", _values(("i", start)),
                    (Op.ISTORE_1, {}), (Op.IINC, operands),
                    (Op.ILOAD_1, {}), _then_return("i"))


def array_cases() -> Iterator[Case]:
    """Array creation at good and bad lengths, arraylength, and every
    array load and store at good, negative and out-of-range indices and
    on null."""
    def anewarray(pool: ConstantPool) -> Dict[str, object]:
        return {"index": pool.class_ref("java/lang/Object")}

    def multi(dimensions: int):
        return lambda pool: {"index": pool.class_ref("[[I"),
                             "dimensions": dimensions}

    for length in (-1, 0, 3):
        yield _case(f"newarray {length}", "a", _values(("i", length)),
                    (Op.NEWARRAY, {"value": 10}), _then_return("a"))
        yield _case(f"anewarray {length}", "a", _values(("i", length)),
                    _with(anewarray, Op.ANEWARRAY), _then_return("a"))
    for sizes in ((2, 3), (-1, 2), (2, -1), (0, 0), (4,)):
        yield _case(f"multianewarray {sizes}", "a",
                    _values(*[("i", size) for size in sizes]),
                    _with(multi(len(sizes)), Op.MULTIANEWARRAY),
                    _then_return("a"))
    for ref in ("null", "array", "str"):
        yield _case(f"arraylength {ref}", "i", _values(("a", ref)),
                    Op.ARRAYLENGTH, _then_return("i"))
    samples = {"i": -7, "l": LONG_MIN, "f": INF, "d": NAN, "a": "str"}
    for k in range(8):
        load, store = OPCODES[Op.IALOAD + k], OPCODES[Op.IASTORE + k]
        cat = load.effect.push
        value = 300 if store.op in (Op.BASTORE, Op.CASTORE,
                                    Op.SASTORE) else samples[cat]

        def new_array(asm: Assembler, pool: ConstantPool, cat=cat) -> None:
            push(asm, pool, "i", 3)
            if cat == "a":
                asm.emit(Op.ANEWARRAY, index=pool.class_ref("java/lang/Object"))
            else:
                asm.emit(Op.NEWARRAY, value=10)

        for index in (-1, 0, 2, 3):
            yield _case(f"{load.mnemonic} {index}", cat, new_array,
                        _values(("i", index)), load.op, _then_return(cat))
            yield _case(f"{store.mnemonic} {index}", cat, new_array,
                        Op.ASTORE_0, Op.ALOAD_0,
                        _values(("i", index), (cat, value)), store.op,
                        Op.ALOAD_0, _values(("i", index)), load.op,
                        _then_return(cat))
        yield _case(f"{load.mnemonic} null", cat, _values(("a", "null"),
                                                          ("i", 0)),
                    load.op, _then_return(cat))
        yield _case(f"{store.mnemonic} null", "v",
                    _values(("a", "null"), ("i", 0), (cat, value)),
                    store.op, _then_return("v"))


def _field(owner: str, name: str, descriptor: str):
    return lambda pool: {"index": pool.field_ref(owner, name, descriptor)}


def field_cases() -> Iterator[Case]:
    """Static and instance fields: the class's own (read before and after
    a write), a library class's, a missing class's, and null receivers."""
    samples = {"i": INT_MAX, "l": LONG_MIN, "f": -0.0, "d": INF, "a": "str"}
    for cat, value in samples.items():
        descriptor = _DESCRIPTORS[cat]
        own = _field("G", f"f{cat}", descriptor)
        yield _case(f"getstatic own {cat}", cat, _with(own, Op.GETSTATIC),
                    _then_return(cat))
        yield _case(f"putstatic own {cat}", cat, _values((cat, value)),
                    _with(own, Op.PUTSTATIC), _with(own, Op.GETSTATIC),
                    _then_return(cat))
        yield _case(f"getfield own {cat}", cat, _values(("a", "obj")),
                    _with(own, Op.GETFIELD), _then_return(cat))
        yield _case(f"putfield own {cat}", cat, _values(("a", "obj")),
                    Op.ASTORE_0, Op.ALOAD_0, _values((cat, value)),
                    _with(own, Op.PUTFIELD), Op.ALOAD_0,
                    _with(own, Op.GETFIELD), _then_return(cat))
        yield _case(f"getfield null {cat}", cat, _values(("a", "null")),
                    _with(own, Op.GETFIELD), _then_return(cat))
        yield _case(f"putfield null {cat}", "v",
                    _values(("a", "null"), (cat, value)),
                    _with(own, Op.PUTFIELD), _then_return("v"))
    for owner, name, descriptor in (
            ("java/lang/System", "out", "Ljava/io/PrintStream;"),
            ("java/lang/Object", "nope", "I"),
            ("nope/Missing", "x", "I")):
        cat = "i" if descriptor == "I" else "a"
        yield _case(f"getstatic {owner}.{name}", cat,
                    _with(_field(owner, name, descriptor), Op.GETSTATIC),
                    _then_return(cat))
    for owner in ("java/lang/Object", "nope/Missing"):
        yield _case(f"putstatic {owner}.x", "v", _values(("i", 1)),
                    _with(_field(owner, "x", "I"), Op.PUTSTATIC),
                    _then_return("v"))
    yield _case("getfield str", "i", _values(("a", "str")),
                _with(_field("java/lang/String", "hash", "I"), Op.GETFIELD),
                _then_return("i"))
    yield _case("getstatic bad ref", "i",
                _with(lambda pool: {"index": pool.utf8("f")}, Op.GETSTATIC),
                _then_return("i"))


def _method(owner: str, name: str, descriptor: str, interface=False):
    def make(pool: ConstantPool) -> Dict[str, object]:
        if interface:
            return {"index": pool.interface_method_ref(owner, name,
                                                       descriptor),
                    "count": 1, "zero": 0}
        return {"index": pool.method_ref(owner, name, descriptor)}
    return make


#: Library calls: (label, receiver or None, arguments, owner, name,
#: descriptor, invoke opcode).
_LIBRARY_CALLS = (
    ("println str", "out", [("a", "str")], "java/io/PrintStream", "println",
     "(Ljava/lang/String;)V"),
    ("println int", "out", [("i", INT_MIN)], "java/io/PrintStream",
     "println", "(I)V"),
    ("println long", "out", [("l", LONG_MAX)], "java/io/PrintStream",
     "println", "(J)V"),
    ("println float", "out", [("f", NAN)], "java/io/PrintStream",
     "println", "(F)V"),
    ("println double", "out", [("d", -0.0)], "java/io/PrintStream",
     "println", "(D)V"),
    ("print null", "out", [("a", "null")], "java/io/PrintStream", "print",
     "(Ljava/lang/Object;)V"),
    ("currentTimeMillis", None, [], "java/lang/System", "currentTimeMillis",
     "()J"),
    ("exit", None, [("i", 3)], "java/lang/System", "exit", "(I)V"),
    ("abs", None, [("i", INT_MIN)], "java/lang/Math", "abs", "(I)I"),
    ("max", None, [("i", -1), ("i", 33)], "java/lang/Math", "max", "(II)I"),
    ("min", None, [("i", -1), ("i", 33)], "java/lang/Math", "min", "(II)I"),
    ("length", "str", [], "java/lang/String", "length", "()I"),
    ("concat", "str", [("a", "str")], "java/lang/String", "concat",
     "(Ljava/lang/String;)Ljava/lang/String;"),
    ("valueOf", None, [("i", -1)], "java/lang/String", "valueOf",
     "(I)Ljava/lang/String;"),
    ("equals", "str", [("a", "str")], "java/lang/String", "equals",
     "(Ljava/lang/Object;)Z"),
    ("compareTo", "str", [("a", "str")], "java/lang/String", "compareTo",
     "(Ljava/lang/String;)I"),
    ("compareTo null", "str", [("a", "null")], "java/lang/String",
     "compareTo", "(Ljava/lang/String;)I"),
    ("charAt", "str", [("i", 0)], "java/lang/String", "charAt", "(I)C"),
    ("charAt out of range", "str", [("i", 1)], "java/lang/String", "charAt",
     "(I)C"),
    ("parseInt", None, [("a", "str")], "java/lang/Integer", "parseInt",
     "(Ljava/lang/String;)I"),
    ("Integer.valueOf", None, [("i", 7)], "java/lang/Integer", "valueOf",
     "(I)Ljava/lang/Integer;"),
    ("getBundle", None, [("a", "str")], "java/util/ResourceBundle",
     "getBundle", "(Ljava/lang/String;)Ljava/util/ResourceBundle;"),
    ("hashCode", "str", [], "java/lang/Object", "hashCode", "()I"),
    ("missing method", "str", [], "java/lang/Object", "nope", "()I"),
    ("missing class", None, [], "nope/Missing", "m", "()V"),
    ("on null", "null", [], "java/lang/Object", "hashCode", "()I"),
)


def invoke_cases() -> Iterator[Case]:
    """Calls to the class's own methods (static, instance, constructor,
    recursive, abstract, native, missing) and to library methods, each
    invoke opcode at least once."""
    own = (("seven", "()I", Op.INVOKESTATIC, []),
           ("add", "(II)I", Op.INVOKESTATIC, [("i", INT_MAX), ("i", 1)]),
           ("lid", "(J)J", Op.INVOKESTATIC, [("l", LONG_MIN)]),
           ("did", "(D)D", Op.INVOKESTATIC, [("d", NAN)]),
           ("deep", "()I", Op.INVOKESTATIC, []),
           ("abs", "()I", Op.INVOKESTATIC, []),
           ("nat", "()J", Op.INVOKESTATIC, []),
           ("nope", "()I", Op.INVOKESTATIC, []),
           ("get", "()I", Op.INVOKEVIRTUAL, [("a", "obj")]),
           ("get", "()I", Op.INVOKEVIRTUAL, [("a", "null")]),
           ("<init>", "()V", Op.INVOKESPECIAL, [("a", "obj")]))
    for name, descriptor, op, values in own:
        cat = {"I": "i", "J": "l", "D": "d", "V": "v"}[descriptor[-1]]
        label = f"{op.name.lower()} {name}{descriptor} " \
            + " ".join(repr(value) for _, value in values)
        yield _case(label, cat, _values(*values),
                    _with(_method("G", name, descriptor), op),
                    _then_return(cat))
    yield _case("invokespecial <init> then read", "a", _values(("a", "obj")),
                Op.ASTORE_0, Op.ALOAD_0,
                _with(_method("G", "<init>", "()V"), Op.INVOKESPECIAL),
                Op.ALOAD_0, _then_return("a"))
    yield _case("invokespecial Object.<init>", "a", _values(("a", "obj")),
                Op.ASTORE_0, Op.ALOAD_0,
                _with(_method("java/lang/Object", "<init>", "()V"),
                      Op.INVOKESPECIAL),
                Op.ALOAD_0, _then_return("a"))
    for label, receiver, values, owner, name, descriptor in _LIBRARY_CALLS:
        returns = descriptor.rsplit(")", 1)[1]
        cat = {"V": "v", "J": "l", "D": "d", "F": "f"}.get(
            returns, "i" if returns in "IZCBS" else "a")
        steps = []
        if receiver == "out":
            steps.append(_with(_field("java/lang/System", "out",
                                      "Ljava/io/PrintStream;"),
                               Op.GETSTATIC))
        elif receiver is not None:
            steps.append(_values(("a", receiver)))
        op = Op.INVOKESTATIC if receiver is None else Op.INVOKEVIRTUAL
        yield _case(f"{op.name.lower()} {label}", cat, *steps,
                    _values(*values),
                    _with(_method(owner, name, descriptor), op),
                    _then_return(cat))
    builder = "Ljava/lang/StringBuilder;"
    objects = "(Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;"
    builders = (
        ("java/lang/StringBuilder", [
            ("append", f"(I){builder}", [("i", -1)]),
            ("append", f"(Ljava/lang/String;){builder}", [("a", "str")]),
            ("toString", "()Ljava/lang/String;", [])]),
        ("java/util/HashMap", [
            ("put", objects, [("a", "str"), ("a", "str")]),
            ("get", "(Ljava/lang/Object;)Ljava/lang/Object;", [("a", "str")]),
            ("size", "()I", [])]),
        ("java/util/ArrayList", [
            ("add", "(Ljava/lang/Object;)Z", [("a", "str")]),
            ("size", "()I", [])]),
        ("java/util/Random", [("nextInt", "(I)I", [("i", 33)])]))
    for owner, calls in builders:
        for count in range(1, len(calls) + 1):
            steps = [_with(lambda pool, owner=owner:
                           {"index": pool.class_ref(owner)}, Op.NEW),
                     Op.ASTORE_0]
            cat = "v"
            for name, descriptor, values in calls[:count]:
                returns = descriptor.rsplit(")", 1)[1]
                cat = "i" if returns in ("I", "Z") else "a"
                steps += [Op.ALOAD_0, _values(*values),
                          _with(_method(owner, name, descriptor),
                                Op.INVOKEVIRTUAL)]
            label = f"{owner} " + " ".join(name for name, _, _
                                           in calls[:count])
            yield _case(label, cat, *steps, _then_return(cat))
    for receiver in ("obj", "null"):
        yield _case(f"invokeinterface size {receiver}", "i",
                    _values(("a", receiver)),
                    _with(_method("java/util/List", "size", "()I",
                                  interface=True), Op.INVOKEINTERFACE),
                    _then_return("i"))
    yield _case("invokedynamic", "i",
                _with(lambda pool: {"index": pool.method_ref("G", "seven",
                                                             "()I"),
                                    "zero": 0}, Op.INVOKEDYNAMIC),
                _then_return("i"))
    yield _case("invokestatic bad ref", "i",
                _with(lambda pool: {"index": pool.utf8("m")},
                      Op.INVOKESTATIC),
                _then_return("i"))
    yield _case("invokestatic bad descriptor", "i",
                _with(_method("G", "seven", "(Q)I"), Op.INVOKESTATIC),
                _then_return("i"))


def _class_index(name: str):
    return lambda pool: {"index": pool.class_ref(name)}


def object_cases() -> Iterator[Case]:
    """new, checkcast, instanceof, athrow (caught and not), monitors,
    nop, the unsupported jsr/ret, a fall-off, and a step budget."""
    for name in ("G", "java/lang/Object", "nope/Missing", "java/lang/Number",
                 "java/lang/Runnable"):
        yield _case(f"new {name}", "a", _with(_class_index(name), Op.NEW),
                    _then_return("a"))
    yield _case("new bad ref", "a",
                _with(lambda pool: {"index": pool.utf8("G")}, Op.NEW),
                _then_return("a"))
    for ref, target in (("null", "java/lang/String"),
                        ("str", "java/lang/Object"),
                        ("str", "java/lang/CharSequence"),
                        ("str", "java/lang/Integer"),
                        ("str", "[I"), ("array", "[I"),
                        ("obj", "G"), ("obj", "java/lang/Runnable")):
        for op, cat in ((Op.CHECKCAST, "a"), (Op.INSTANCEOF, "i")):
            yield _case(f"{op.name.lower()} {ref} {target}", cat,
                        _values(("a", ref)),
                        _with(_class_index(target), op), _then_return(cat))
    for ref in ("null", "obj"):
        yield _case(f"athrow {ref}", "v", _values(("a", ref)), Op.ATHROW)
        for op in (Op.MONITORENTER, Op.MONITOREXIT):
            yield _case(f"{op.name.lower()} {ref}", "i", _values(("a", ref)),
                        op, Op.ICONST_1, _then_return("i"))

    def thrown(name: str):
        def emit(asm: Assembler, pool: ConstantPool) -> None:
            asm.emit(Op.NEW, index=pool.class_ref(name))
        return emit

    def guarded(catch: Optional[str], *body):
        def emit(asm: Assembler, pool: ConstantPool):
            asm.label("start")
            for step in body:
                if isinstance(step, Op):
                    asm.emit(step)
                else:
                    step(asm, pool)
            asm.label("end")
            asm.emit(Op.ICONST_0)
            asm.emit(Op.IRETURN)
            asm.label("handler")
            asm.emit(Op.ASTORE_0)
            asm.emit(Op.ICONST_1)
            asm.emit(Op.IRETURN)
            return [("start", "end", "handler", catch)]
        return emit

    for catch in (None, "java/lang/RuntimeException",
                  "java/lang/ArithmeticException", "java/lang/Error"):
        yield _case(f"athrow caught {catch}", "i",
                    guarded(catch, thrown("java/lang/RuntimeException"),
                            Op.ATHROW))
        yield _case(f"idiv caught {catch}", "i",
                    guarded(catch, _values(("i", 1), ("i", 0)), Op.IDIV,
                            Op.IRETURN))
    yield _case("nop", "v", Op.NOP, _then_return("v"))
    yield _case("fall off", "v", Op.NOP)
    for op in (Op.JSR, Op.JSR_W):
        yield _case(op.name.lower(), "v", _branch(op))
    yield _case("ret", "v", (Op.RET, {"index": 0}))

    def spin(asm: Assembler, pool: ConstantPool) -> None:
        asm.label("top")
        asm.branch(Op.GOTO, "top")

    yield _case("goto itself", "v", spin)


def all_cases() -> List[Case]:
    cases = [*value_cases(), *branch_cases(), *constant_cases(),
             *local_cases(), *array_cases(), *field_cases(),
             *invoke_cases(), *object_cases()]
    labels = [case.label for case in cases]
    assert len(set(labels)) == len(labels), "case labels must be unique"
    return cases


# -- the class ---------------------------------------------------------------------


def _add_method(classfile: ClassFile, name: str, descriptor: str,
                flags: AccessFlags, code: Optional[bytes],
                handlers: Optional[List[Handler]] = None,
                labels: Optional[Dict[str, int]] = None) -> MethodInfo:
    pool = classfile.constant_pool
    attributes = []
    if code is not None:
        table = [ExceptionHandler(labels[start], labels[end],
                                  labels[handler],
                                  pool.class_ref(catch) if catch else 0)
                 for start, end, handler, catch in handlers or ()]
        attributes.append(CodeAttribute(16, 400, code, table))
    method = MethodInfo(flags, pool.utf8(name), pool.utf8(descriptor),
                        attributes)
    classfile.methods.append(method)
    return method


def _code(*steps) -> bytes:
    asm = Assembler()
    for step in steps:
        if isinstance(step, tuple):
            asm.emit(step[0], **step[1])
        else:
            asm.emit(step)
    return asm.build()


def build_class(case: Case) -> ClassFile:
    """Class ``G``: the case's ``t()`` and the methods cases invoke."""
    classfile = ClassFile()
    pool = classfile.constant_pool
    classfile.this_class = pool.class_ref("G")
    classfile.super_class = pool.class_ref("java/lang/Object")
    classfile.access_flags = AccessFlags.PUBLIC | AccessFlags.SUPER
    static = AccessFlags.PUBLIC | AccessFlags.STATIC
    asm = Assembler()
    handlers = case.emit(asm, pool)
    code = asm.build()
    _add_method(classfile, "t", "()" + _DESCRIPTORS[case.returns], static,
                code, handlers, asm.label_offsets)
    _add_method(classfile, "seven", "()I", static,
                _code((Op.BIPUSH, {"value": 7}), Op.IRETURN))
    _add_method(classfile, "add", "(II)I", static,
                _code(Op.ILOAD_0, Op.ILOAD_1, Op.IADD, Op.IRETURN))
    _add_method(classfile, "lid", "(J)J", static,
                _code(Op.LLOAD_0, Op.LRETURN))
    _add_method(classfile, "did", "(D)D", static,
                _code(Op.DLOAD_0, Op.DRETURN))
    deep = pool.method_ref("G", "deep", "()I")
    _add_method(classfile, "deep", "()I", static,
                _code((Op.INVOKESTATIC, {"index": deep}), Op.IRETURN))
    _add_method(classfile, "abs", "()I", static | AccessFlags.ABSTRACT, None)
    _add_method(classfile, "nat", "()J", static | AccessFlags.NATIVE, None)
    _add_method(classfile, "get", "()I", AccessFlags.PUBLIC,
                _code(Op.ICONST_5, Op.IRETURN))
    _add_method(classfile, "<init>", "()V", AccessFlags.PUBLIC,
                _code(Op.RETURN))
    return classfile


# -- records -----------------------------------------------------------------------


def _digest(payload: object) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_record(classfile: ClassFile, policy: JvmPolicy,
               sites: Optional[set] = None) -> str:
    """One run of ``t()`` as one line; adds the statement sites it hit
    to ``sites`` when given."""
    interpreter = Interpreter(classfile, policy, ENVIRONMENT)
    collector = CoverageCollector()
    try:
        with collector:
            value = interpreter.invoke_method(classfile.methods[0])
        result = f"= {_show(value)}"
    except JavaError as exc:
        result = f"E {exc.java_name}: {exc.message} @{exc.site}"
    except _SystemExitRequested as exc:
        result = f"exit {exc.status}"
    trace = collector.tracefile()
    if sites is not None:
        sites.update(trace.statements)
    output = f" out={interpreter.output!r}" if interpreter.output else ""
    probes = _digest([sorted(trace.statements.items()),
                      sorted([site, taken, count] for (site, taken), count
                             in trace.branches.items())])
    return f"{result}{output} #{probes}"


def case_record(case: Case, sites: Optional[set] = None):
    """The case's line, or its four lines, one per policy pair, when
    they differ."""
    classfile = build_class(case)
    lines = [run_record(classfile, JvmPolicy(
        fcmpg_nan_result=nan, strict_narrowing_conversions=strict), sites)
        for nan, strict in POLICIES]
    return lines[0] if len(set(lines)) == 1 else lines


def record() -> Dict[str, object]:
    """The fixture's content for the code as it stands."""
    return {"policies": [list(pair) for pair in POLICIES],
            "records": {case.label: case_record(case)
                        for case in all_cases()}}


def test_interpreter_matches_golden_records():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["policies"] == [list(pair) for pair in POLICIES]
    cases = all_cases()
    assert sorted(case.label for case in cases) \
        == sorted(golden["records"]), "the case list itself changed"
    sites: set = set()
    for case in cases:
        got = case_record(case, sites)
        want = golden["records"][case.label]
        assert got == want, f"{case.label}: {got!r} != golden {want!r}"
    ran = {site.rsplit(".", 1)[1] for site in sites
           if site.startswith("interp.op.")}
    expected = {info.mnemonic for info in OPCODES.values()
                if info.op not in UNCOVERED}
    assert ran == expected, f"opcodes run and not: {ran ^ expected}"


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
