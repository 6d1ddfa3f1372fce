"""Bytecode interpreter for the invocation & execution phase.

Executes the test class's methods over a small runtime object model:
Python ``int``/``float`` for primitives, ``str`` for ``java.lang.String``,
``None`` for null, :class:`JObject` for instances, and :class:`JArray` for
arrays.  The operand stack and the locals follow JVMS §2.6: a long or a
double takes two entries, its value and ``None``, and its category
comes from the opcode table or a descriptor, never from the value.  Library
calls are served by intrinsics (``println`` captures output) or by
descriptor-shaped default values; runtime constraint violations raise the
corresponding :mod:`repro.errors` exception, which the machine reports as
*rejected at runtime*.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.bytecode.instructions import Instruction, InstructionError
from repro.bytecode.opcodes import (
    CONST,
    FAMILIES,
    LOAD,
    OPCODES,
    RETURN,
    SHUFFLES,
    SLOTS,
    STORE,
    Op,
    handler_table,
)
from repro.classfile.constant_pool import ConstantPoolError, CpTag
from repro.classfile.descriptors import (
    TWO_SLOT_TYPES,
    DescriptorError,
    parse_method_descriptor,
)
from repro.classfile.methods import MethodInfo
from repro.classfile.model import ClassFile
from repro.coverage.probes import branch, check, probe
from repro.errors import (
    AbstractMethodError,
    ArithmeticException,
    ArrayIndexOutOfBoundsException,
    ClassCastException,
    ClassFormatError,
    InstantiationError,
    JavaError,
    MissingResourceException,
    NegativeArraySizeException,
    NoClassDefFoundError,
    NoSuchFieldError,
    NoSuchMethodError,
    NullPointerException,
    StackOverflowError_,
    StepBudgetExceeded,
    VerifyError,
)
from repro.jvm.policy import JvmPolicy
from repro.runtime.environment import JreEnvironment


class UserThrowable(JavaError):
    """A user-level object thrown by ``athrow``."""

    def __init__(self, class_name: str, message: str = "",
                 site: Optional[str] = None):
        super().__init__(message, site)
        self.java_name = class_name.replace("/", ".")


#: The error ``String.charAt`` throws out of range.
_STRING_INDEX_ERROR = partial(UserThrowable,
                              "java.lang.StringIndexOutOfBoundsException")


@dataclass
class JObject:
    """An instance of a class.

    Attributes:
        class_name: internal name of the instance's class.
        fields: instance field storage.
        initialized: whether ``<init>`` has run.
    """

    class_name: str
    fields: Dict[str, object] = field(default_factory=dict)
    initialized: bool = False


@dataclass
class JArray:
    """An array instance."""

    element_descriptor: str
    values: List[object]


class _PrintStream:
    """Handle standing in for ``System.out``/``System.err``."""

    def __init__(self, name: str, sink: List[str]):
        self.name = name
        self.sink = sink


def _default_for_descriptor(descriptor: str) -> object:
    """The JVM default value for a return descriptor."""
    if descriptor in ("I", "Z", "B", "C", "S"):
        return 0
    if descriptor == "J":
        return 0
    if descriptor in ("F", "D"):
        return 0.0
    return None


def _push(stack: List[object], value: object, slots: int) -> None:
    stack.append(value)
    if slots == 2:
        # The upper slot holds None, so a read of it acts as a read of an
        # empty local: iinc counts from 0 and println prints null.
        stack.append(None)


def _take(stack: List[object], slots: int) -> List[object]:
    """The top ``slots`` entries, deepest first, taken off the stack."""
    if len(stack) < slots:
        raise VerifyError("Operand stack underflow at runtime",
                          site="interp.stack_underflow")
    taken = stack[-slots:]
    del stack[-slots:]
    return taken


def _pop(stack: List[object], slots: int = 1) -> object:
    """Pop one value: a long or double (``slots`` 2) is the entry below
    its filler."""
    return _take(stack, slots)[0]


def _wrap_int(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def _wrap_long(value: int) -> int:
    value &= 0xFFFFFFFFFFFFFFFF
    return value - 0x10000000000000000 if value >= 0x8000000000000000 else value


def _as_int(value: object) -> int:
    if value is None:
        return 0
    if isinstance(value, (int, float)):
        return int(value)
    raise ClassCastException(f"expected int, found {type(value).__name__}",
                             site="interp.not_an_int")


def _as_float(value: object) -> float:
    if value is None:
        return 0.0
    if isinstance(value, (int, float)):
        return float(value)
    raise ClassCastException(f"expected float, found {type(value).__name__}",
                             site="interp.not_a_float")


#: The opcodes whose execution is more than a fixed stack effect, each
#: with its ``Interpreter`` handler, which takes ``(instruction, stack,
#: locals_, depth)`` and returns what :meth:`Interpreter._step` does.
_HANDLERS, _handles = handler_table()


class Interpreter:
    """Executes methods of one loaded test class."""

    def __init__(self, classfile: ClassFile, policy: JvmPolicy,
                 environment: JreEnvironment,
                 on_demand_verify=None):
        self.classfile = classfile
        self.policy = policy
        self.environment = environment
        self.library = environment.library
        self.output: List[str] = []
        self.statics: Dict[str, object] = {}
        self.steps = 0
        #: True once <clinit> has completed (set by the machine between
        #: the initialization and invocation phases).
        self.clinit_done = False
        #: Static fields written during <clinit> and not yet overwritten
        #: by main — the reads the clinit-visibility axis arbitrates.
        self._clinit_written: set = set()
        self._verified: set = set()
        #: Callback verifying a method lazily (J9-style) before first run.
        self._on_demand_verify = on_demand_verify
        self._random_state = 0x5DEECE66D

    # -- public API --------------------------------------------------------------

    def invoke_method(self, method: MethodInfo,
                      args: Optional[List[object]] = None,
                      receiver: Optional[object] = None,
                      depth: int = 0) -> object:
        """Interpret ``method`` of the test class and return its result;
        ``args`` fill the slots of its descriptor's parameters."""
        probe("interp.invoke_method")
        if depth > 64:
            raise StackOverflowError_("recursion too deep",
                                      site="interp.recursion_too_deep")
        if self._on_demand_verify is not None:
            key = (method.name_index, method.descriptor_index)
            if key not in self._verified:
                self._verified.add(key)
                self._on_demand_verify(self.classfile, method)
        if branch("interp.method_abstract", method.is_abstract):
            # The message's name lookup stays off the passing path.
            name = self.classfile.method_name(method)
            raise AbstractMethodError(f"{self.classfile.name}.{name}",
                                      site="interp.method_abstract")
        code = method.code
        if branch("interp.method_missing_code", code is None):
            if method.is_native:
                descriptor = self.classfile.method_descriptor(method)
                return _default_for_descriptor(descriptor.rsplit(")", 1)[-1])
            raise ClassFormatError(
                f"Absent Code attribute in method "
                f"{self.classfile.method_name(method)}",
                site="interp.method_missing_code")
        try:
            instructions = code.decoded()
        except InstructionError as exc:
            raise VerifyError(f"Bad instruction: {exc}",
                              site="interp.bad_instruction") from exc
        by_offset = {instruction.offset: i
                     for i, instruction in enumerate(instructions)}
        # The locals start as the arguments' stack slots.
        slots: List[object] = []
        if receiver is not None or not method.is_static:
            slots.append(receiver)
        if args:
            parameters = parse_method_descriptor(
                self.classfile.method_descriptor(method)).parameters
            for arg, parameter in zip(args, parameters):
                _push(slots, arg, parameter.slots)
        return self._run(instructions, by_offset, dict(enumerate(slots)),
                         code, depth)

    # -- the dispatch loop --------------------------------------------------------

    def _run(self, instructions: Sequence[Instruction],
             by_offset: Dict[int, int], locals_: Dict[int, object],
             code, depth: int) -> object:
        stack: List[object] = []
        index = 0
        budget = self.policy.max_interpreter_steps
        while True:
            self.steps += 1
            check("interp.budget_exceeded", self.steps > budget,
                  StepBudgetExceeded, "exceeded {} steps", budget)
            if index >= len(instructions):
                raise VerifyError("Falling off the end of the code",
                                  site="interp.falloff")
            instruction = instructions[index]
            try:
                outcome = self._step(instruction, stack, locals_, depth)
            except (_SystemExitRequested, StepBudgetExceeded):
                raise
            except JavaError as thrown:
                handler_index = self._find_handler(
                    code, by_offset, instruction.offset, thrown)
                if handler_index is None:
                    raise
                probe("interp.exception_caught")
                stack.clear()
                stack.append(self._materialize_throwable(thrown))
                index = handler_index
                continue
            if outcome is None:
                index += 1
            elif type(outcome) is int:  # a branch target
                target = by_offset.get(outcome)
                if target is None:
                    raise VerifyError(f"Illegal jump target {outcome}",
                                      site="interp.jump_target_bad")
                index = target
            else:  # _Return
                return outcome.value

    def _find_handler(self, code, by_offset: Dict[int, int],
                      offset: int, thrown: JavaError) -> Optional[int]:
        """Index of the matching exception handler, if any.

        All matching entries are collected first; which one wins is the
        ``exception_handler_scan_order`` policy axis ("declaration" per
        JVMS, "reversed" for a last-match-wins table walk).  The probe
        fires only when the choice is live (two or more matches), so
        single-handler methods trace exactly as they always have.
        """
        thrown_name = thrown.java_name.replace(".", "/")
        matches = []
        for handler in code.exception_table:
            if not handler.start_pc <= offset < handler.end_pc:
                continue
            if handler.catch_type:
                try:
                    catch_name = self.classfile.constant_pool.get_class_name(
                        handler.catch_type)
                except ConstantPoolError:
                    continue
                if not (thrown_name == catch_name
                        or self.library.is_subclass_of(thrown_name,
                                                       catch_name)):
                    continue
            matches.append(handler)
        if not matches:
            return None
        if len(matches) > 1:
            if branch("interp.handler_scan_reversed",
                      self.policy.exception_handler_scan_order
                      == "reversed"):
                return by_offset.get(matches[-1].handler_pc)
        return by_offset.get(matches[0].handler_pc)

    def _materialize_throwable(self, thrown: JavaError) -> JObject:
        """The object a handler receives for a caught error."""
        name = thrown.java_name.replace(".", "/")
        return JObject(name, {"message": thrown.message}, initialized=True)

    # -- one instruction ----------------------------------------------------------

    def _step(self, instruction: Instruction, stack: List[object],
              locals_: Dict[int, object], depth: int):
        """Run one instruction through its handler, or else the one
        fixed-effect path: take the operands' slots, apply the value
        function, push its result or, for a branch, jump if it says so.
        Returns ``None`` to fall through, the offset to branch to, or a
        :class:`_Return`."""
        op = instruction.op
        probe(_OP_SITES[op])
        handler = _HANDLERS.get(op)
        if handler is not None:
            return handler(self, instruction, stack, locals_, depth)
        fixed = _FIXED.get(op)
        if fixed is None:
            raise VerifyError(f"Unsupported opcode {instruction.mnemonic} "
                              "reached at runtime",
                              site="interp.unhandled_opcode")
        takes, positions, function, pushes, jumps = fixed
        if takes:
            taken = _take(stack, takes)
            result = function(self, *[taken[i] for i in positions])
        else:
            result = function(self)
        if jumps:
            return instruction.operands["target"] if result else None
        if pushes:
            _push(stack, result, pushes)
        return None

    # -- handlers: constants, locals, returns and the shuffle family -------------

    @_handles(*FAMILIES[CONST])
    def _const(self, instruction: Instruction, stack, locals_, depth):
        info = instruction.info
        _push(stack, instruction.operands["value"] if info.implicit is None
              else info.implicit, SLOTS[info.cat])

    @_handles(Op.LDC, Op.LDC_W, Op.LDC2_W)
    def _ldc(self, instruction: Instruction, stack, locals_, depth):
        _push(stack, self._load_constant(instruction.operands["index"]),
              2 if instruction.op is Op.LDC2_W else 1)

    def _load_constant(self, index: int) -> object:
        pool = self.classfile.constant_pool
        try:
            entry = pool.entry(index)
        except ConstantPoolError as exc:
            raise VerifyError(f"ldc of bad constant: {exc}",
                              site="interp.ldc_bad_constant") from exc
        if entry.tag is CpTag.STRING:
            return pool.get_string(index)
        if entry.tag in (CpTag.INTEGER, CpTag.FLOAT, CpTag.LONG,
                         CpTag.DOUBLE):
            return entry.value
        if entry.tag is CpTag.CLASS:
            return JObject("java/lang/Class", {"name": pool.get_class_name(
                index)}, initialized=True)
        raise VerifyError(f"ldc of unloadable constant tag {entry.tag.name}",
                          site="interp.ldc_unloadable")

    @_handles(*FAMILIES[LOAD])
    def _load(self, instruction: Instruction, stack, locals_, depth):
        info = instruction.info
        _push(stack, locals_.get(instruction.operands.get("index",
                                                          info.implicit)),
              SLOTS[info.cat])

    @_handles(*FAMILIES[STORE])
    def _store(self, instruction: Instruction, stack, locals_, depth):
        info = instruction.info
        slot = instruction.operands.get("index", info.implicit)
        for offset, value in enumerate(_take(stack, SLOTS[info.cat])):
            locals_[slot + offset] = value

    @_handles(Op.IINC)
    def _iinc(self, instruction: Instruction, stack, locals_, depth):
        slot = instruction.operands["index"]
        locals_[slot] = _wrap_int(_as_int(locals_.get(slot))
                                  + instruction.operands["const"])

    @_handles(*FAMILIES[RETURN])
    def _return(self, instruction: Instruction, stack, locals_, depth):
        cat = instruction.info.cat
        return _Return(None if cat == "v" else _pop(stack, SLOTS[cat]))

    @_handles(*SHUFFLES)
    def _shuffle(self, instruction: Instruction, stack, locals_, depth):
        takes, order = SHUFFLES[instruction.op]
        taken = _take(stack, takes)
        stack.extend([taken[i] for i in order])

    # -- handlers: switches ---------------------------------------------------------

    @_handles(Op.TABLESWITCH)
    def _tableswitch(self, instruction: Instruction, stack, locals_, depth):
        value = _as_int(_pop(stack))
        operands = instruction.operands
        low, high = operands["low"], operands["high"]
        if low <= value <= high:
            return operands["targets"][value - low]
        return operands["default"]

    @_handles(Op.LOOKUPSWITCH)
    def _lookupswitch(self, instruction: Instruction, stack, locals_, depth):
        value = _as_int(_pop(stack))
        operands = instruction.operands
        for match, target in operands["pairs"]:
            if match == value:
                return target
        return operands["default"]

    # -- handlers: fields --------------------------------------------------------------

    def _field_target(self, instruction: Instruction):
        """The field's owner, name and descriptor, and the slots its value
        takes."""
        pool = self.classfile.constant_pool
        try:
            owner, name, descriptor = pool.get_member_ref(
                instruction.operands["index"])
        except ConstantPoolError as exc:
            raise VerifyError(f"bad field reference: {exc}",
                              site="interp.field_ref_bad") from exc
        slots = 2 if descriptor in TWO_SLOT_TYPES else 1
        return owner, name, descriptor, slots

    @_handles(Op.GETSTATIC)
    def _getstatic(self, instruction: Instruction, stack, locals_, depth):
        owner, name, descriptor, slots = self._field_target(instruction)
        _push(stack, self._read_static(owner, name, descriptor), slots)

    def _read_static(self, owner: str, name: str, descriptor: str) -> object:
        probe("interp.getstatic")
        if owner == self.classfile.name:
            # The clinit-visibility axis: a main-phase read of a static
            # whose only write happened in <clinit> may observe the field
            # default instead ("deferred").  The probe fires only when
            # such a read actually occurs, so classes that never write
            # statics in <clinit> trace exactly as before.
            if self.clinit_done and name in self._clinit_written:
                if branch("interp.clinit_read_deferred",
                          self.policy.clinit_visibility_order
                          == "deferred"):
                    return _default_for_descriptor(descriptor)
            return self.statics.get(name, _default_for_descriptor(descriptor))
        cls = self.library.find(owner)
        check("interp.getstatic_missing_class", cls is None,
              NoClassDefFoundError, "{}", owner.replace("/", "."))
        if owner == "java/lang/System" and name in ("out", "err"):
            return _PrintStream(name, self.output)
        check("interp.getstatic_missing_field", cls.find_field(name) is None,
              NoSuchFieldError, "{}.{}", owner.replace("/", "."), name)
        return _default_for_descriptor(descriptor)

    @_handles(Op.PUTSTATIC)
    def _putstatic(self, instruction: Instruction, stack, locals_, depth):
        owner, name, descriptor, slots = self._field_target(instruction)
        value = _pop(stack, slots)
        probe("interp.putstatic")
        if owner == self.classfile.name:
            if self.clinit_done:
                # main overwrote it: later reads see main's value on
                # every policy.
                self._clinit_written.discard(name)
            else:
                self._clinit_written.add(name)
            self.statics[name] = value
            return
        check("interp.putstatic_missing_class",
              self.library.find(owner) is None, NoClassDefFoundError, "{}",
              owner.replace("/", "."))
        # Writes to library statics are accepted and discarded.

    @_handles(Op.GETFIELD)
    def _getfield(self, instruction: Instruction, stack, locals_, depth):
        owner, name, descriptor, slots = self._field_target(instruction)
        receiver = _pop(stack)
        check("interp.getfield_null", receiver is None, NullPointerException,
              "reading field {} of null", name)
        default = _default_for_descriptor(descriptor)
        _push(stack, receiver.fields.get(name, default)
              if isinstance(receiver, JObject) else default, slots)

    @_handles(Op.PUTFIELD)
    def _putfield(self, instruction: Instruction, stack, locals_, depth):
        owner, name, descriptor, slots = self._field_target(instruction)
        value = _pop(stack, slots)
        receiver = _pop(stack)
        check("interp.putfield_null", receiver is None, NullPointerException,
              "writing field {} of null", name)
        if isinstance(receiver, JObject):
            receiver.fields[name] = value

    # -- arrays -------------------------------------------------------------------------------

    def _array_get(self, array: object, index: object) -> object:
        index = _as_int(index)
        check("interp.array_null", array is None, NullPointerException,
              "array access on null")
        values = array.values if isinstance(array, JArray) else array
        if not isinstance(values, list):
            raise ClassCastException("array access on non-array",
                                     site="interp.array_non_array")
        check("interp.array_oob", not 0 <= index < len(values),
              ArrayIndexOutOfBoundsException, "{}", index)
        return values[index]

    def _array_set(self, array: object, index: object,
                   value: object) -> None:
        index = _as_int(index)
        check("interp.array_store_null", array is None, NullPointerException,
              "array store on null")
        values = array.values if isinstance(array, JArray) else array
        if not isinstance(values, list):
            raise ClassCastException("array store on non-array",
                                     site="interp.array_store_non_array")
        check("interp.array_store_oob", not 0 <= index < len(values),
              ArrayIndexOutOfBoundsException, "{}", index)
        values[index] = value

    # -- handlers: the object model ---------------------------------------------------------------

    @_handles(Op.NEW)
    def _new(self, instruction: Instruction, stack, locals_, depth):
        pool = self.classfile.constant_pool
        try:
            class_name = pool.get_class_name(instruction.operands["index"])
        except ConstantPoolError as exc:
            raise VerifyError(f"new of bad class ref: {exc}",
                              site="interp.new_ref_bad") from exc
        probe("interp.new")
        if class_name != self.classfile.name:
            cls = self.library.find(class_name)
            dotted = class_name.replace("/", ".")
            check("interp.new_missing_class", cls is None,
                  NoClassDefFoundError, "{}", dotted)
            check("interp.new_abstract", cls.is_interface or cls.is_abstract,
                  InstantiationError, "{}", dotted)
        stack.append(JObject(class_name))

    @_handles(Op.MULTIANEWARRAY)
    def _multianewarray(self, instruction: Instruction, stack, locals_,
                        depth):
        sizes = [_as_int(_pop(stack))
                 for _ in range(instruction.operands["dimensions"])]
        if any(size < 0 for size in sizes):
            raise NegativeArraySizeException(
                str(min(sizes)), site="interp.negative_array_multi")
        stack.append(JArray("multi", [None] * (sizes[-1] if sizes else 0)))

    def _class_of(self, value: object) -> Optional[str]:
        if isinstance(value, str):
            return "java/lang/String"
        if isinstance(value, JObject):
            return value.class_name
        if isinstance(value, JArray):
            return "[array"
        if isinstance(value, _PrintStream):
            return "java/io/PrintStream"
        return None

    def _is_assignable_runtime(self, source: str, target: str) -> bool:
        if target == "java/lang/Object" or source == target:
            return True
        if source == self.classfile.name:
            chain = {source}
            super_name = self.classfile.super_name
            if super_name:
                chain.add(super_name)
                if self.library.is_subclass_of(super_name, target):
                    return True
            return target in chain or target in set(
                self.classfile.interface_names)
        if self.library.is_subclass_of(source, target):
            return True
        source_cls = self.library.find(source)
        if source_cls is not None:
            seen = set()
            work = list(source_cls.interfaces)
            while work:
                iface = work.pop()
                if iface in seen:
                    continue
                seen.add(iface)
                if iface == target:
                    return True
                iface_cls = self.library.find(iface)
                if iface_cls is not None:
                    work.extend(iface_cls.interfaces)
        return False

    @_handles(Op.CHECKCAST)
    def _checkcast(self, instruction: Instruction, stack, locals_, depth):
        value = stack[-1] if stack else None
        if value is None:
            return
        pool = self.classfile.constant_pool
        target = pool.get_class_name(instruction.operands["index"])
        source = self._class_of(value)
        probe("interp.checkcast")
        if source is None:
            return
        if target.startswith("["):
            check("interp.cast_to_array", not isinstance(value, JArray),
                  ClassCastException, "{} cannot be cast to array",
                  source.replace("/", "."))
            return
        check("interp.cast_fails",
              not self._is_assignable_runtime(source, target),
              ClassCastException, "{} cannot be cast to {}",
              source.replace("/", "."), target.replace("/", "."))

    @_handles(Op.INSTANCEOF)
    def _instanceof(self, instruction: Instruction, stack, locals_, depth):
        value = _pop(stack)
        result = 0
        if value is not None:
            target = self.classfile.constant_pool.get_class_name(
                instruction.operands["index"])
            source = self._class_of(value)
            if source is not None \
                    and self._is_assignable_runtime(source, target):
                result = 1
        stack.append(result)

    def _throw(self, value: object) -> None:
        probe("interp.athrow")
        check("interp.throw_null", value is None, NullPointerException,
              "throw of null")
        class_name = self._class_of(value) or "java/lang/Object"
        message = ""
        if isinstance(value, JObject):
            message = str(value.fields.get("message", ""))
        raise UserThrowable(class_name, message, site="interp.athrow")

    # -- handlers: invocation ---------------------------------------------------------------------------

    @_handles(Op.INVOKEDYNAMIC)
    def _invokedynamic(self, instruction: Instruction, stack, locals_, depth):
        raise NoSuchMethodError("invokedynamic is unsupported",
                                site="interp.invokedynamic")

    @_handles(Op.INVOKEVIRTUAL, Op.INVOKESPECIAL, Op.INVOKESTATIC,
              Op.INVOKEINTERFACE)
    def _invoke(self, instruction: Instruction, stack, locals_, depth):
        pool = self.classfile.constant_pool
        try:
            owner, name, descriptor = pool.get_member_ref(
                instruction.operands["index"])
        except ConstantPoolError as exc:
            raise VerifyError(f"bad method reference: {exc}",
                              site="interp.method_ref_bad") from exc
        try:
            parsed = parse_method_descriptor(descriptor)
        except DescriptorError as exc:
            raise VerifyError(f"bad method descriptor: {exc}",
                              site="interp.method_descriptor_bad") from exc
        args = [_pop(stack, parameter.slots)
                for parameter in reversed(parsed.parameters)]
        args.reverse()
        receiver = None
        if instruction.op is not Op.INVOKESTATIC:
            receiver = _pop(stack)
            check("interp.invoke_on_null",
                  receiver is None and name != "<init>",
                  NullPointerException,
                  "invoking {} on a null object reference", name)
        probe("interp.invoke")
        if owner == self.classfile.name:
            result = self._invoke_self(name, descriptor, receiver, args,
                                       depth)
        else:
            result = self._invoke_library(owner, name, descriptor, receiver,
                                          args)
        if parsed.return_type is not None:
            _push(stack, result, parsed.return_type.slots)

    def _invoke_self(self, name: str, descriptor: str,
                     receiver: Optional[object], args: List[object],
                     depth: int) -> object:
        method = self.classfile.find_method(name, descriptor)
        check("interp.self_method_missing", method is None, NoSuchMethodError,
              "{.java_name}.{}{}", self.classfile, name, descriptor)
        if isinstance(receiver, JObject) and name == "<init>":
            receiver.initialized = True
        return self.invoke_method(method, args, receiver, depth + 1)

    def _invoke_library(self, owner: str, name: str, descriptor: str,
                        receiver: Optional[object],
                        args: List[object]) -> object:
        probe("interp.invoke_library")
        cls = self.library.find(owner)
        check("interp.library_class_missing", cls is None,
              NoClassDefFoundError, "{}", owner.replace("/", "."))
        intrinsic = self._intrinsic(owner, name, descriptor, receiver, args)
        if intrinsic is not _NO_INTRINSIC:
            return intrinsic
        # Walk the superclass chain for the declaration.
        current = cls
        while current is not None:
            if current.find_method(name) is not None:
                break
            current = self.library.find(current.superclass) \
                if current.superclass else None
        check("interp.library_method_missing", current is None,
              NoSuchMethodError, "{}.{}{}", owner.replace("/", "."), name,
              descriptor)
        if isinstance(receiver, JObject) and name == "<init>":
            receiver.initialized = True
        return _default_for_descriptor(descriptor.rsplit(")", 1)[-1])

    def _intrinsic(self, owner: str, name: str, descriptor: str,
                   receiver: Optional[object], args: List[object]) -> object:
        """Behavioural library methods the harness observes."""
        probe(f"interp.call.{owner}.{name}")
        if isinstance(receiver, _PrintStream) or (
                owner == "java/io/PrintStream" and name in ("println",
                                                            "print")):
            if name in ("println", "print"):
                text = _to_display(args[0]) if args else ""
                self.output.append(text)
                return None
        if owner == "java/lang/System" and name == "exit":
            raise _SystemExitRequested(int(args[0]) if args else 0)
        if owner == "java/lang/System" and name == "currentTimeMillis":
            return 1_460_000_000_000  # deterministic clock
        if owner == "java/lang/Math":
            if name == "abs" and args:
                return abs(_as_int(args[0]))
            if name == "max" and len(args) == 2:
                return max(_as_int(args[0]), _as_int(args[1]))
            if name == "min" and len(args) == 2:
                return min(_as_int(args[0]), _as_int(args[1]))
        if owner == "java/lang/String":
            if name == "length" and isinstance(receiver, str):
                return len(receiver)
            if name == "concat" and isinstance(receiver, str) and args:
                return receiver + str(args[0])
            if name == "valueOf" and args:
                return _to_display(args[0])
            if name in ("equals", "compareTo", "charAt") \
                    and isinstance(receiver, str):
                # The string-compat axis: vendors without these fast
                # paths fall through to the library stubs (returning the
                # descriptor default, 0 — i.e. "not equal").
                if not branch("interp.string_compat",
                              self.policy.string_intrinsic_compat):
                    return _NO_INTRINSIC
                if name == "equals":
                    other = args[0] if args else None
                    return 1 if receiver == other else 0
                if name == "compareTo":
                    other = args[0] if args else None
                    check("interp.compareto_null",
                          not isinstance(other, str), NullPointerException,
                          "String.compareTo")
                    for ours, theirs in zip(receiver, other):
                        if ours != theirs:
                            return _wrap_int(ord(ours) - ord(theirs))
                    return _wrap_int(len(receiver) - len(other))
                # charAt
                char_index = _as_int(args[0]) if args else 0
                check("interp.charat_oob", not 0 <= char_index < len(receiver),
                      _STRING_INDEX_ERROR,
                      "String index out of range: {}", char_index)
                return ord(receiver[char_index])
        if owner == "java/lang/Integer" and name == "parseInt" and args:
            try:
                return _wrap_int(int(str(args[0])))
            except ValueError:
                raise UserThrowable("java.lang.NumberFormatException",
                                    str(args[0]),
                                    site="interp.parse_int") from None
        if owner == "java/lang/Integer" and name == "valueOf" and args:
            boxed = JObject("java/lang/Integer", initialized=True)
            boxed.fields["value"] = _as_int(args[0])
            return boxed
        if owner == "java/lang/Integer" and name == "intValue" \
                and isinstance(receiver, JObject):
            return _as_int(receiver.fields.get("value", 0))
        if owner == "java/util/ResourceBundle" and name == "getBundle" \
                and args:
            bundle = str(args[0])
            check("interp.resource_missing",
                  bundle not in self.environment.resources,
                  MissingResourceException,
                  "Can't find bundle for base name {}", bundle)
            return JObject("java/util/ResourceBundle",
                           {"name": bundle}, initialized=True)
        if owner == "java/util/Random" and name == "nextInt" and args:
            bound = max(1, _as_int(args[0]))
            self._random_state = _wrap_long(
                self._random_state * 6364136223846793005 + 1442695040888963407)
            return abs(self._random_state) % bound
        if owner == "java/lang/StringBuilder":
            if name == "append" and isinstance(receiver, JObject):
                buffer = receiver.fields.setdefault("_sb", [])
                buffer.append(_to_display(args[0]) if args else "")
                return receiver
            if name == "toString" and isinstance(receiver, JObject):
                return "".join(receiver.fields.get("_sb", []))
        if owner == "java/util/HashMap" and isinstance(receiver, JObject):
            table = receiver.fields.setdefault("_map", {})
            if name == "put" and len(args) == 2:
                key = _hashable(args[0])
                previous = table.get(key)
                table[key] = args[1]
                return previous
            if name == "get" and args:
                return table.get(_hashable(args[0]))
            if name == "size":
                return len(table)
        if owner == "java/util/ArrayList" and isinstance(receiver, JObject):
            items = receiver.fields.setdefault("_list", [])
            if name == "add" and args:
                items.append(args[0])
                return 1
            if name == "size":
                return len(items)
        return _NO_INTRINSIC


class _SystemExitRequested(Exception):
    """``System.exit`` was called; treated as normal termination."""

    def __init__(self, status: int):
        super().__init__(str(status))
        self.status = status


def _to_display(value: object) -> str:
    """Render a value the way ``println`` would."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, JObject):
        return f"{value.class_name.replace('/', '.')}@1"
    if isinstance(value, JArray):
        return "[array@1"
    return str(value)


def _hashable(value: object) -> object:
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    return id(value)


#: Opcode → its ``interp.op.*`` coverage site, built once.
_OP_SITES = {op: f"interp.op.{info.mnemonic}" for op, info in OPCODES.items()}

_NO_INTRINSIC = object()


@dataclass
class _Return:
    value: object


# -- the fixed-effect path: a value function takes the interpreter and the
# popped values, deepest first, and returns the value to push, or for a
# branch whether it is taken.

#: Two ints, or two longs (a long shift: a long and an int distance), to
#: one, wrapped to the result's width with the shift distance masked.
_ARITH = {
    Op.IADD: lambda a, b: _wrap_int(a + b),
    Op.ISUB: lambda a, b: _wrap_int(a - b),
    Op.IMUL: lambda a, b: _wrap_int(a * b),
    Op.IAND: lambda a, b: a & b,
    Op.IOR: lambda a, b: a | b,
    Op.IXOR: lambda a, b: a ^ b,
    Op.ISHL: lambda a, b: _wrap_int(a << (b & 31)),
    Op.ISHR: lambda a, b: a >> (b & 31),
    Op.IUSHR: lambda a, b: _wrap_int((a & 0xFFFFFFFF) >> (b & 31)),
    Op.LADD: lambda a, b: _wrap_long(a + b),
    Op.LSUB: lambda a, b: _wrap_long(a - b),
    Op.LMUL: lambda a, b: _wrap_long(a * b),
    Op.LAND: lambda a, b: a & b,
    Op.LOR: lambda a, b: a | b,
    Op.LXOR: lambda a, b: a ^ b,
    Op.LSHL: lambda a, b: _wrap_long(a << (b & 63)),
    Op.LSHR: lambda a, b: a >> (b & 63),
    Op.LUSHR: lambda a, b: _wrap_long((a & 0xFFFFFFFFFFFFFFFF) >> (b & 63)),
}

#: The tests of ifeq..ifle and if_icmpeq..if_icmple, in opcode order.
_CONDITIONS = (operator.eq, operator.ne, operator.lt, operator.ge,
               operator.gt, operator.le)


def _integral(function):
    return lambda interp, a, b: function(_as_int(a), _as_int(b))


def _if_zero(test):
    return lambda interp, value: test(_as_int(value), 0)


def _compare(left, right) -> int:
    return (left > right) - (left < right)


def _divide(wrap, remainder: bool):
    """idiv, irem, ldiv or lrem: truncating toward zero."""
    def divide(interp, left, right):
        right, left = _as_int(right), _as_int(left)
        check("interp.div_by_zero", right == 0, ArithmeticException,
              "/ by zero")
        if remainder:
            return wrap(abs(left) % abs(right) * (-1 if left < 0 else 1))
        quotient = abs(left) // abs(right)
        return wrap(quotient if (left < 0) == (right < 0) else -quotient)
    return divide


def _float_divide(function):
    """fdiv, ddiv, frem or drem: NaN where Python's division raises."""
    def divide(interp, left, right):
        try:
            return function(left, right)
        except ZeroDivisionError:
            return float("nan")
    return divide


def _narrow(narrow):
    """i2b, i2c or i2s: truncating on a strict vendor, where a legacy one
    applies only the 32-bit wrap."""
    def convert(interp, value):
        value = _as_int(value)
        if branch("interp.narrowing_strict",
                  interp.policy.strict_narrowing_conversions):
            return narrow(value)
        return _wrap_int(value)
    return convert


def _to_integral(low: int, high: int):
    """f2i, d2i, f2l or d2l: saturating at ``low`` and ``high``."""
    def convert(interp, value):
        number = _as_float(value)
        if number != number:  # NaN
            return 0 if branch("interp.f2i_nan_strict",
                               interp.policy.strict_narrowing_conversions) \
                else low
        return low if number <= low else high if number >= high \
            else int(number)
    return convert


def _compare_floats(sign: int):
    """fcmpl and dcmpl (``sign`` -1), fcmpg and dcmpg (1): a NaN operand
    gives the vendor's ``fcmpg_nan_result`` times ``sign``."""
    def compare(interp, left, right) -> int:
        right, left = _as_float(right), _as_float(left)
        if branch("interp.fcmp_nan", left != left or right != right):
            return sign * interp.policy.fcmpg_nan_result
        return _compare(left, right)
    return compare


def _new_array(kind: str, fill: object, site: str):
    """newarray (``kind`` "prim") or anewarray ("ref")."""
    def create(interp, length) -> JArray:
        length = _as_int(length)
        check(site, length < 0, NegativeArraySizeException, "{}", length)
        return JArray(kind, [fill] * length)
    return create


def _array_length(interp, array) -> int:
    check("interp.arraylength_null", array is None, NullPointerException,
          "arraylength of null")
    if isinstance(array, JArray):
        return len(array.values)
    if isinstance(array, list):
        return len(array)
    raise ClassCastException("arraylength of non-array",
                             site="interp.arraylength_non_array")


#: Every opcode of the fixed-effect path, with its value function.
_VALUES: Dict[Op, Callable[..., object]] = {
    **dict.fromkeys((Op.NOP, Op.ACONST_NULL), lambda interp: None),
    **{op: _integral(function) for op, function in _ARITH.items()},
    **dict.fromkeys((Op.FADD, Op.DADD), lambda interp, a, b: a + b),
    **dict.fromkeys((Op.FSUB, Op.DSUB), lambda interp, a, b: a - b),
    **dict.fromkeys((Op.FMUL, Op.DMUL), lambda interp, a, b: a * b),
    Op.IDIV: _divide(_wrap_int, remainder=False),
    Op.LDIV: _divide(_wrap_long, remainder=False),
    Op.IREM: _divide(_wrap_int, remainder=True),
    Op.LREM: _divide(_wrap_long, remainder=True),
    **dict.fromkeys((Op.FDIV, Op.DDIV), _float_divide(operator.truediv)),
    **dict.fromkeys((Op.FREM, Op.DREM), _float_divide(operator.mod)),
    Op.INEG: lambda interp, value: _wrap_int(-_as_int(value)),
    Op.LNEG: lambda interp, value: _wrap_long(-_as_int(value)),
    **dict.fromkeys((Op.FNEG, Op.DNEG), lambda interp, value: -value),
    Op.I2L: lambda interp, value: _wrap_long(_as_int(value)),
    Op.L2I: lambda interp, value: _wrap_int(_as_int(value)),
    **dict.fromkeys((Op.I2F, Op.I2D, Op.L2F, Op.L2D),
                    lambda interp, value: float(_as_int(value))),
    **dict.fromkeys((Op.F2I, Op.D2I), _to_integral(-2 ** 31, 2 ** 31 - 1)),
    **dict.fromkeys((Op.F2L, Op.D2L), _to_integral(-2 ** 63, 2 ** 63 - 1)),
    **dict.fromkeys((Op.F2D, Op.D2F), lambda interp, value: float(value)),
    Op.I2B: _narrow(lambda value: ((value & 0xFF) ^ 0x80) - 0x80),
    Op.I2C: _narrow(lambda value: value & 0xFFFF),
    Op.I2S: _narrow(lambda value: ((value & 0xFFFF) ^ 0x8000) - 0x8000),
    Op.LCMP: _integral(_compare),
    **dict.fromkeys((Op.FCMPL, Op.DCMPL), _compare_floats(-1)),
    **dict.fromkeys((Op.FCMPG, Op.DCMPG), _compare_floats(1)),
    **{Op(Op.IFEQ + k): _if_zero(test) for k, test in enumerate(_CONDITIONS)},
    **{Op(Op.IF_ICMPEQ + k): _integral(test)
       for k, test in enumerate(_CONDITIONS)},
    Op.IF_ACMPEQ: lambda interp, a, b: a is b or a == b,
    Op.IF_ACMPNE: lambda interp, a, b: not (a is b or a == b),
    Op.IFNULL: lambda interp, value: value is None,
    Op.IFNONNULL: lambda interp, value: value is not None,
    **dict.fromkeys((Op.GOTO, Op.GOTO_W), lambda interp: True),
    **dict.fromkeys((Op(Op.IALOAD + k) for k in range(8)),
                    Interpreter._array_get),
    **dict.fromkeys((Op(Op.IASTORE + k) for k in range(8)),
                    Interpreter._array_set),
    Op.NEWARRAY: _new_array("prim", 0, "interp.negative_array"),
    Op.ANEWARRAY: _new_array("ref", None, "interp.negative_array_ref"),
    Op.ARRAYLENGTH: _array_length,
    Op.ATHROW: Interpreter._throw,
    **dict.fromkeys((Op.MONITORENTER, Op.MONITOREXIT),
                    lambda interp, ref: check(
                        "interp.monitor_null", ref is None,
                        NullPointerException, "monitor operation on null")),
}


def _fixed(op: Op, function) -> tuple:
    """``op`` in slots: the slots it takes, where its values sit among
    them, its value function, the slots it pushes, whether it branches."""
    info = OPCODES[op]
    widths = [SLOTS[cat] for cat in reversed(info.effect.pops)]
    return (sum(widths), tuple(itertools.accumulate(widths, initial=0))[:-1],
            function, SLOTS.get(info.effect.push, 0), info.is_branch)


_FIXED = {op: _fixed(op, function) for op, function in _VALUES.items()}
