"""Bytecode interpreter for the invocation & execution phase.

Executes the test class's methods over a small runtime object model:
Python ``int``/``float`` for primitives, ``str`` for ``java.lang.String``,
``None`` for null, :class:`JObject` for instances, and :class:`JArray` for
arrays.  Library calls are served by intrinsics (``println`` captures
output) or by descriptor-shaped default values; runtime constraint
violations raise the corresponding :mod:`repro.errors` exception, which
the machine reports as *rejected at runtime*.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.bytecode.instructions import Instruction, InstructionError
from repro.bytecode.opcodes import CONST, LOAD, OPCODES, STORE, Op
from repro.classfile.constant_pool import ConstantPoolError, CpTag
from repro.classfile.descriptors import DescriptorError, parse_method_descriptor
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


def _wrap_int(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def _wrap_long(value: int) -> int:
    value &= 0xFFFFFFFFFFFFFFFF
    return value - 0x10000000000000000 if value >= 0x8000000000000000 else value


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
        """Interpret ``method`` of the test class and return its result."""
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
                return _default_for_descriptor(
                    self._return_descriptor(method))
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
        locals_: Dict[int, object] = {}
        slot = 0
        if receiver is not None or not method.is_static:
            locals_[0] = receiver
            slot = 1
        for arg in (args or []):
            locals_[slot] = arg
            slot += 2 if isinstance(arg, float) else 1
        return self._run(instructions, by_offset, locals_, code, depth)

    def _return_descriptor(self, method: MethodInfo) -> str:
        descriptor = self.classfile.method_descriptor(method)
        return descriptor.rsplit(")", 1)[-1]

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
            if outcome is _NEXT:
                index += 1
            elif isinstance(outcome, _Jump):
                target = by_offset.get(outcome.offset)
                if target is None:
                    raise VerifyError(f"Illegal jump target {outcome.offset}",
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

    # -- step results ------------------------------------------------------------------

    def _pop(self, stack: List[object]) -> object:
        if not stack:
            raise VerifyError("Operand stack underflow at runtime",
                              site="interp.stack_underflow")
        return stack.pop()

    def _step(self, instruction: Instruction, stack: List[object],
              locals_: Dict[int, object], depth: int):
        op = instruction.op
        info = OPCODES[op]
        probe(_OP_SITES[op])
        operands = instruction.operands

        # Constants, local loads and stores, and returns: their family,
        # value category and shorthand operand come from the opcode table.
        family = info.family
        if family is not None:
            if family == CONST:
                stack.append(operands["value"] if info.implicit is None
                             else info.implicit)
            elif family == LOAD:
                stack.append(locals_.get(operands.get("index",
                                                      info.implicit)))
            elif family == STORE:
                locals_[operands.get("index", info.implicit)] = \
                    self._pop(stack)
            else:  # RETURN
                return _Return(None if info.cat == "v" else self._pop(stack))
            return _NEXT
        if op is Op.ACONST_NULL:
            stack.append(None)
            return _NEXT
        if op in (Op.LDC, Op.LDC_W, Op.LDC2_W):
            stack.append(self._load_constant(operands["index"]))
            return _NEXT
        if op is Op.IINC:
            slot = operands["index"]
            locals_[slot] = _wrap_int(int(locals_.get(slot) or 0)
                                      + operands["const"])
            return _NEXT
        # Stack manipulation.
        if op is Op.POP:
            self._pop(stack)
            return _NEXT
        if op is Op.POP2:
            self._pop(stack)
            if stack:
                stack.pop()
            return _NEXT
        if op is Op.DUP:
            value = self._pop(stack)
            stack.extend((value, value))
            return _NEXT
        if op is Op.SWAP:
            first, second = self._pop(stack), self._pop(stack)
            stack.extend((first, second))
            return _NEXT
        if op is Op.DUP_X1:
            first, second = self._pop(stack), self._pop(stack)
            stack.extend((first, second, first))
            return _NEXT
        if op is Op.DUP_X2:
            first = self._pop(stack)
            second = self._pop(stack)
            third = self._pop(stack)
            stack.extend((first, third, second, first))
            return _NEXT
        if op is Op.DUP2:
            # Values are whole on our stack (no split slots): duplicating
            # the top pair covers the category-1 case; category-2 values
            # (long/double, stored whole) duplicate as a single entry.
            first = self._pop(stack)
            if isinstance(first, float) or (isinstance(first, int)
                                            and abs(first) > 0xFFFFFFFF):
                stack.extend((first, first))
            elif stack:
                second = self._pop(stack)
                stack.extend((second, first, second, first))
            else:
                stack.extend((first, first))
            return _NEXT
        if op in (Op.DUP2_X1, Op.DUP2_X2):
            first, second = self._pop(stack), self._pop(stack)
            stack.extend((first, second, first))
            return _NEXT
        # Arithmetic.
        result = self._try_arith(op, stack)
        if result is not None:
            return _NEXT
        # Comparisons & branches.
        if op in _IF_ICMP:
            right, left = self._as_int(self._pop(stack)), \
                self._as_int(self._pop(stack))
            taken = _IF_ICMP[op](left, right)
            return _Jump(operands["target"]) if taken else _NEXT
        if op in (Op.IF_ACMPEQ, Op.IF_ACMPNE):
            right, left = self._pop(stack), self._pop(stack)
            same = left is right or left == right
            taken = same if op is Op.IF_ACMPEQ else not same
            return _Jump(operands["target"]) if taken else _NEXT
        if op in (Op.IFNULL, Op.IFNONNULL):
            value = self._pop(stack)
            taken = (value is None) == (op is Op.IFNULL)
            return _Jump(operands["target"]) if taken else _NEXT
        if op in _IF_ZERO:
            value = self._as_int(self._pop(stack))
            taken = _IF_ZERO[op](value, 0)
            return _Jump(operands["target"]) if taken else _NEXT
        if op in (Op.GOTO, Op.GOTO_W):
            return _Jump(operands["target"])
        if op is Op.TABLESWITCH:
            value = self._as_int(self._pop(stack))
            low, high = operands["low"], operands["high"]
            if low <= value <= high:
                return _Jump(operands["targets"][value - low])
            return _Jump(operands["default"])
        if op is Op.LOOKUPSWITCH:
            value = self._as_int(self._pop(stack))
            for match, target in operands["pairs"]:
                if match == value:
                    return _Jump(target)
            return _Jump(operands["default"])
        # Field access.
        if op is Op.GETSTATIC:
            stack.append(self._getstatic(operands["index"]))
            return _NEXT
        if op is Op.PUTSTATIC:
            self._putstatic(operands["index"], self._pop(stack))
            return _NEXT
        if op is Op.GETFIELD:
            receiver = self._pop(stack)
            stack.append(self._getfield(operands["index"], receiver))
            return _NEXT
        if op is Op.PUTFIELD:
            value = self._pop(stack)
            receiver = self._pop(stack)
            self._putfield(operands["index"], receiver, value)
            return _NEXT
        # Invocations.
        if op in (Op.INVOKEVIRTUAL, Op.INVOKESPECIAL, Op.INVOKESTATIC,
                  Op.INVOKEINTERFACE):
            self._invoke(op, operands["index"], stack, depth)
            return _NEXT
        if op is Op.INVOKEDYNAMIC:
            raise NoSuchMethodError("invokedynamic is unsupported",
                                    site="interp.invokedynamic")
        # Object model.
        if op is Op.NEW:
            stack.append(self._new(operands["index"]))
            return _NEXT
        if op is Op.NEWARRAY:
            length = self._as_int(self._pop(stack))
            check("interp.negative_array", length < 0,
                  NegativeArraySizeException, "{}", length)
            stack.append(JArray("prim", [0] * length))
            return _NEXT
        if op is Op.ANEWARRAY:
            length = self._as_int(self._pop(stack))
            check("interp.negative_array_ref", length < 0,
                  NegativeArraySizeException, "{}", length)
            stack.append(JArray("ref", [None] * length))
            return _NEXT
        if op is Op.MULTIANEWARRAY:
            dims = operands["dimensions"]
            sizes = [self._as_int(self._pop(stack)) for _ in range(dims)]
            if any(size < 0 for size in sizes):
                raise NegativeArraySizeException(
                    str(min(sizes)), site="interp.negative_array_multi")
            stack.append(JArray("multi", [None] * (sizes[-1] if sizes else 0)))
            return _NEXT
        if op is Op.ARRAYLENGTH:
            array = self._pop(stack)
            check("interp.arraylength_null", array is None,
                  NullPointerException, "arraylength of null")
            if isinstance(array, JArray):
                stack.append(len(array.values))
            elif isinstance(array, list):
                stack.append(len(array))
            else:
                raise ClassCastException("arraylength of non-array",
                                         site="interp.arraylength_non_array")
            return _NEXT
        if op in _ARRAY_LOADS:
            index_value = self._as_int(self._pop(stack))
            array = self._pop(stack)
            stack.append(self._array_get(array, index_value))
            return _NEXT
        if op in _ARRAY_STORES:
            value = self._pop(stack)
            index_value = self._as_int(self._pop(stack))
            array = self._pop(stack)
            self._array_set(array, index_value, value)
            return _NEXT
        if op is Op.CHECKCAST:
            value = stack[-1] if stack else None
            self._checkcast(operands["index"], value)
            return _NEXT
        if op is Op.INSTANCEOF:
            value = self._pop(stack)
            stack.append(1 if self._instance_of(operands["index"], value)
                         else 0)
            return _NEXT
        if op is Op.ATHROW:
            self._throw(self._pop(stack))
        if op in (Op.MONITORENTER, Op.MONITOREXIT):
            receiver = self._pop(stack)
            check("interp.monitor_null", receiver is None,
                  NullPointerException, "monitor operation on null")
            return _NEXT
        if op is Op.NOP:
            return _NEXT
        raise VerifyError(f"Unsupported opcode {instruction.mnemonic} "
                          "reached at runtime", site="interp.unhandled_opcode")

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _as_int(value: object) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if value is None:
            return 0
        if isinstance(value, float):
            return int(value)
        raise ClassCastException(f"expected int, found {type(value).__name__}",
                                 site="interp.not_an_int")

    @staticmethod
    def _as_float(value: object) -> float:
        if isinstance(value, float):
            return value
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, int):
            return float(value)
        if value is None:
            return 0.0
        raise ClassCastException(
            f"expected float, found {type(value).__name__}",
            site="interp.not_a_float")

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
        Op.LUSHR: lambda a, b: _wrap_long(
            (a & 0xFFFFFFFFFFFFFFFF) >> (b & 63)),
        Op.FADD: lambda a, b: a + b, Op.FSUB: lambda a, b: a - b,
        Op.FMUL: lambda a, b: a * b,
        Op.DADD: lambda a, b: a + b, Op.DSUB: lambda a, b: a - b,
        Op.DMUL: lambda a, b: a * b,
    }

    def _try_arith(self, op: Op, stack: List[object]) -> Optional[bool]:
        if op in self._ARITH:
            right = self._pop(stack)
            left = self._pop(stack)
            if OPCODES[op].effect.push in ("i", "l"):
                left, right = self._as_int(left), self._as_int(right)
            stack.append(self._ARITH[op](left, right))
            return True
        if op in (Op.IDIV, Op.IREM, Op.LDIV, Op.LREM):
            right = self._as_int(self._pop(stack))
            left = self._as_int(self._pop(stack))
            check("interp.div_by_zero", right == 0, ArithmeticException,
                  "/ by zero")
            if op in (Op.IDIV, Op.LDIV):
                quotient = abs(left) // abs(right)
                result = quotient if (left < 0) == (right < 0) else -quotient
            else:
                result = abs(left) % abs(right)
                result = result if left >= 0 else -result
            wrap = _wrap_int if op in (Op.IDIV, Op.IREM) else _wrap_long
            stack.append(wrap(result))
            return True
        if op in (Op.FDIV, Op.DDIV, Op.FREM, Op.DREM):
            right = self._pop(stack)
            left = self._pop(stack)
            try:
                value = (left / right) if op in (Op.FDIV, Op.DDIV) \
                    else (left % right)
            except ZeroDivisionError:
                value = float("nan")
            stack.append(value)
            return True
        if op in (Op.INEG, Op.LNEG):
            wrap = _wrap_int if op is Op.INEG else _wrap_long
            stack.append(wrap(-self._as_int(self._pop(stack))))
            return True
        if op in (Op.FNEG, Op.DNEG):
            stack.append(-self._pop(stack))
            return True
        if op in (Op.I2L, Op.L2I):
            value = self._as_int(self._pop(stack))
            stack.append(_wrap_int(value) if op is Op.L2I
                         else _wrap_long(value))
            return True
        if op in (Op.I2B, Op.I2C, Op.I2S):
            value = self._as_int(self._pop(stack))
            if branch("interp.narrowing_strict",
                      self.policy.strict_narrowing_conversions):
                if op is Op.I2B:
                    value = ((value & 0xFF) ^ 0x80) - 0x80
                elif op is Op.I2C:
                    value = value & 0xFFFF
                else:  # I2S
                    value = ((value & 0xFFFF) ^ 0x8000) - 0x8000
            else:
                # Legacy passthrough: only the 32-bit wrap is applied.
                value = _wrap_int(value)
            stack.append(value)
            return True
        if op in (Op.I2F, Op.I2D, Op.L2F, Op.L2D):
            stack.append(float(self._as_int(self._pop(stack))))
            return True
        if op in (Op.F2I, Op.D2I, Op.F2L, Op.D2L):
            number = self._as_float(self._pop(stack))
            low, high = ((-0x80000000, 0x7FFFFFFF)
                         if op in (Op.F2I, Op.D2I)
                         else (-0x8000000000000000, 0x7FFFFFFFFFFFFFFF))
            if number != number:  # NaN
                result = 0 if branch(
                    "interp.f2i_nan_strict",
                    self.policy.strict_narrowing_conversions) else low
            elif number <= low:
                result = low
            elif number >= high:
                result = high
            else:
                result = int(number)
            stack.append(result)
            return True
        if op in (Op.F2D, Op.D2F):
            stack.append(float(self._pop(stack)))
            return True
        if op is Op.LCMP:
            right = self._as_int(self._pop(stack))
            left = self._as_int(self._pop(stack))
            stack.append((left > right) - (left < right))
            return True
        if op in (Op.FCMPL, Op.FCMPG, Op.DCMPL, Op.DCMPG):
            right = self._as_float(self._pop(stack))
            left = self._as_float(self._pop(stack))
            if branch("interp.fcmp_nan",
                      left != left or right != right):
                nan_result = self.policy.fcmpg_nan_result
                stack.append(nan_result if op in (Op.FCMPG, Op.DCMPG)
                             else -nan_result)
            else:
                stack.append((left > right) - (left < right))
            return True
        return None

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

    # -- fields -----------------------------------------------------------------------------

    def _field_target(self, index: int):
        pool = self.classfile.constant_pool
        try:
            return pool.get_member_ref(index)
        except ConstantPoolError as exc:
            raise VerifyError(f"bad field reference: {exc}",
                              site="interp.field_ref_bad") from exc

    def _getstatic(self, index: int) -> object:
        owner, name, descriptor = self._field_target(index)
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

    def _putstatic(self, index: int, value: object) -> None:
        owner, name, _ = self._field_target(index)
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

    def _getfield(self, index: int, receiver: object) -> object:
        owner, name, descriptor = self._field_target(index)
        check("interp.getfield_null", receiver is None, NullPointerException,
              "reading field {} of null", name)
        if isinstance(receiver, JObject):
            return receiver.fields.get(
                name, _default_for_descriptor(descriptor))
        return _default_for_descriptor(descriptor)

    def _putfield(self, index: int, receiver: object, value: object) -> None:
        owner, name, _ = self._field_target(index)
        check("interp.putfield_null", receiver is None, NullPointerException,
              "writing field {} of null", name)
        if isinstance(receiver, JObject):
            receiver.fields[name] = value

    # -- arrays -------------------------------------------------------------------------------

    def _array_get(self, array: object, index: int) -> object:
        check("interp.array_null", array is None, NullPointerException,
              "array access on null")
        values = array.values if isinstance(array, JArray) else array
        if not isinstance(values, list):
            raise ClassCastException("array access on non-array",
                                     site="interp.array_non_array")
        check("interp.array_oob", not 0 <= index < len(values),
              ArrayIndexOutOfBoundsException, "{}", index)
        return values[index]

    def _array_set(self, array: object, index: int, value: object) -> None:
        check("interp.array_store_null", array is None, NullPointerException,
              "array store on null")
        values = array.values if isinstance(array, JArray) else array
        if not isinstance(values, list):
            raise ClassCastException("array store on non-array",
                                     site="interp.array_store_non_array")
        check("interp.array_store_oob", not 0 <= index < len(values),
              ArrayIndexOutOfBoundsException, "{}", index)
        values[index] = value

    # -- object model -----------------------------------------------------------------------------

    def _new(self, index: int) -> JObject:
        pool = self.classfile.constant_pool
        try:
            class_name = pool.get_class_name(index)
        except ConstantPoolError as exc:
            raise VerifyError(f"new of bad class ref: {exc}",
                              site="interp.new_ref_bad") from exc
        probe("interp.new")
        if class_name == self.classfile.name:
            return JObject(class_name)
        cls = self.library.find(class_name)
        dotted = class_name.replace("/", ".")
        check("interp.new_missing_class", cls is None, NoClassDefFoundError,
              "{}", dotted)
        check("interp.new_abstract", cls.is_interface or cls.is_abstract,
              InstantiationError, "{}", dotted)
        return JObject(class_name)

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

    def _checkcast(self, index: int, value: object) -> None:
        if value is None:
            return
        pool = self.classfile.constant_pool
        target = pool.get_class_name(index)
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

    def _instance_of(self, index: int, value: object) -> bool:
        if value is None:
            return False
        target = self.classfile.constant_pool.get_class_name(index)
        source = self._class_of(value)
        if source is None:
            return False
        return self._is_assignable_runtime(source, target)

    def _throw(self, value: object) -> None:
        probe("interp.athrow")
        check("interp.throw_null", value is None, NullPointerException,
              "throw of null")
        class_name = self._class_of(value) or "java/lang/Object"
        message = ""
        if isinstance(value, JObject):
            message = str(value.fields.get("message", ""))
        raise UserThrowable(class_name, message, site="interp.athrow")

    # -- invocation -----------------------------------------------------------------------------------

    def _invoke(self, op: Op, index: int, stack: List[object],
                depth: int) -> None:
        pool = self.classfile.constant_pool
        try:
            owner, name, descriptor = pool.get_member_ref(index)
        except ConstantPoolError as exc:
            raise VerifyError(f"bad method reference: {exc}",
                              site="interp.method_ref_bad") from exc
        try:
            parsed = parse_method_descriptor(descriptor)
        except DescriptorError as exc:
            raise VerifyError(f"bad method descriptor: {exc}",
                              site="interp.method_descriptor_bad") from exc
        args = [self._pop(stack) for _ in parsed.parameters]
        args.reverse()
        receiver = None
        if op is not Op.INVOKESTATIC:
            receiver = self._pop(stack)
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
            stack.append(result)

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
                return abs(self._as_int(args[0]))
            if name == "max" and len(args) == 2:
                return max(self._as_int(args[0]), self._as_int(args[1]))
            if name == "min" and len(args) == 2:
                return min(self._as_int(args[0]), self._as_int(args[1]))
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
                char_index = self._as_int(args[0]) if args else 0
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
            boxed.fields["value"] = self._as_int(args[0])
            return boxed
        if owner == "java/lang/Integer" and name == "intValue" \
                and isinstance(receiver, JObject):
            return self._as_int(receiver.fields.get("value", 0))
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
            bound = max(1, self._as_int(args[0]))
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

#: The conditions of ifeq..ifle (an int against zero) and of
#: if_icmpeq..if_icmple (two ints), in opcode order: eq ne lt ge gt le.
_CONDITIONS = (operator.eq, operator.ne, operator.lt, operator.ge,
               operator.gt, operator.le)
_IF_ZERO = {Op(Op.IFEQ + k): test for k, test in enumerate(_CONDITIONS)}
_IF_ICMP = {Op(Op.IF_ICMPEQ + k): test for k, test in enumerate(_CONDITIONS)}
#: iaload..saload and iastore..sastore.
_ARRAY_LOADS = frozenset(Op(Op.IALOAD + k) for k in range(8))
_ARRAY_STORES = frozenset(Op(Op.IASTORE + k) for k in range(8))


class _Next:
    """Sentinel: fall through to the next instruction."""


_NEXT = _Next()
_NO_INTRINSIC = object()


@dataclass
class _Jump:
    offset: int


@dataclass
class _Return:
    value: object
