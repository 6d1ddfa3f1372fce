"""Bytecode verification (linking phase, JVMS §4.10).

A worklist dataflow analysis over operand-stack and local-variable states.
Verification *depth* is policy-controlled, reproducing the paper's
Problem 2 divergences: J9 checks stack shapes more strictly, GIJ tracks
reference types and rejects unsafe assignability and initialized/
uninitialized merges, HotSpot does neither.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bytecode.instructions import Instruction, InstructionError
from repro.bytecode.opcodes import (
    FAMILIES,
    LOAD,
    NULL,
    OPCODES,
    RETURN,
    SHUFFLES,
    STORE,
    Op,
    handler_table,
)
from repro.classfile.attributes import CodeAttribute
from repro.classfile.constant_pool import ConstantPool, ConstantPoolError, CpTag
from repro.classfile.descriptors import (
    DescriptorError,
    FieldType,
    parse_field_descriptor,
    parse_method_descriptor,
)
from repro.classfile.methods import MethodInfo
from repro.classfile.model import ClassFile
from repro.coverage.probes import branch, check, probe
from repro.errors import (
    ClassFormatError,
    NoClassDefFoundError,
    NoSuchFieldError,
    NoSuchMethodError,
    VerifyError,
)
from repro.jvm.policy import JvmPolicy
from repro.runtime.library import ClassLibrary


@dataclass(frozen=True)
class VType:
    """A verification type: a category plus an optional reference name.

    Attributes:
        cat: ``i``/``f``/``a``/``l``/``d`` — int, float, reference,
            long, double.
        ref: internal class name for references (``None`` = unknown),
            prefixed ``uninit:`` for uninitialized objects, ``null`` for
            the null type.
    """

    cat: str
    ref: Optional[str] = None

    @property
    def size(self) -> int:
        return 2 if self.cat in ("l", "d") else 1

    @property
    def is_uninitialized(self) -> bool:
        return self.ref is not None and self.ref.startswith("uninit:")

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.cat}" + (f"({self.ref})" if self.ref else "")


_INT = VType("i")
_FLOAT = VType("f")
_LONG = VType("l")
_DOUBLE = VType("d")
_NULL = VType("a", "null")

#: The verification type a fixed stack effect pushes for each category.
_PUSHED = {"i": _INT, "l": _LONG, "f": _FLOAT, "d": _DOUBLE,
           "a": VType("a"), NULL: _NULL}

#: Every fixed stack effect in the verifier's terms: the categories to
#: pop, top first, and the type to push, if any.
_FIXED = {info.op: (info.effect.pops, _PUSHED.get(info.effect.push))
          for info in OPCODES.values() if info.effect is not None}


#: The verification type of each base type.
_BASE_VTYPES = {"I": _INT, "Z": _INT, "B": _INT, "C": _INT, "S": _INT,
                "F": _FLOAT, "J": _LONG, "D": _DOUBLE}


def _vtype_of(ftype: FieldType) -> VType:
    """The verification type of a parsed field type."""
    if ftype.dimensions:
        return VType("a", ftype.descriptor().replace(".", "/"))
    if ftype.kind == "base":
        return _BASE_VTYPES[ftype.name]
    return VType("a", ftype.name)


#: Opcode → its ``verifier.op.*`` coverage site, built once.
_OP_SITES = {op: f"verifier.op.{info.mnemonic}" for op, info in OPCODES.items()}

#: The opcodes whose transfer is more than a fixed stack effect (or whose
#: effect is not fixed), each with its ``MethodVerifier`` handler.  A
#: handler takes ``(instruction, stack, locals_)`` and updates the stack
#: and locals in place.  Every other opcode takes ``_transfer``'s one
#: fixed-effect path.
_HANDLERS, _handles = handler_table()


#: Every :class:`JvmPolicy` field :class:`MethodVerifier` reads (a test
#: scans this module for a read the tuple omits).
VERIFIER_POLICY_FIELDS = (
    "strict_stack_shapes", "verify_type_assignability",
    "verify_uninitialized_merge", "resolve_refs_eagerly")

_verifier_policy = operator.attrgetter(*VERIFIER_POLICY_FIELDS)


def verifier_config(policy: JvmPolicy, library: ClassLibrary) -> tuple:
    """What a method's verification outcome depends on besides the method:
    the policy fields above, and the library only when the policy lets the
    verifier consult it.  HotSpot 7, 8 and 9 share one configuration."""
    consulted = policy.verify_type_assignability \
        or policy.resolve_refs_eagerly
    return _verifier_policy(policy), library if consulted else None


def _verify_error(classfile: ClassFile, method: MethodInfo, message: str,
                  site: Optional[str] = None) -> VerifyError:
    """A failed check's error, prefixed with its class and method."""
    return VerifyError(f"(class: {classfile.name}, method: "
                       f"{classfile.method_name(method)}) {message}",
                       site=site)


class MethodVerifier:
    """Verifies one method body."""

    def __init__(self, classfile: ClassFile, method: MethodInfo,
                 code: CodeAttribute, policy: JvmPolicy,
                 library: ClassLibrary):
        self.classfile = classfile
        self.method = method
        self.code = code
        self.policy = policy
        self.library = library
        self.pool: ConstantPool = classfile.constant_pool
        #: The checks' error factory, bound once: every check passes it.
        self._fail = partial(_verify_error, classfile, method)
        #: The method's return category, set when dataflow starts.
        self._return_cat: Optional[str] = None

    # -- helpers ------------------------------------------------------------------

    @property
    def where(self) -> str:
        """``class.method(descriptor)``, built only when a message reads it."""
        return (f"{self.classfile.name}."
                f"{self.classfile.method_name(self.method)}"
                f"{self.classfile.method_descriptor(self.method)}")

    def _assignable(self, source: VType, target: VType) -> bool:
        """Loose reference assignability over the simulated library."""
        if source.cat != target.cat:
            return False
        if source.cat != "a":
            return True
        if source.ref is None or target.ref is None:
            return True
        if source.ref == "null" or target.ref == "java/lang/Object":
            return True
        if source.ref == target.ref:
            return True
        if source.is_uninitialized or target.is_uninitialized:
            return source.ref == target.ref
        if source.ref.startswith("[") or target.ref.startswith("["):
            return True  # array covariance left unchecked
        source_cls = self.library.find(source.ref)
        target_cls = self.library.find(target.ref)
        if source_cls is None or target_cls is None:
            # One side is outside the library (e.g. the class under test):
            # assume compatible, as real verifiers do with lazy loading.
            return True
        if target_cls.is_interface:
            # Interface assignments are normally deferred to runtime, but a
            # *final* class that does not implement the interface can never
            # satisfy it — the unsafe-cast case GIJ reports (Problem 2).
            if not source_cls.is_final:
                return True
            return self._implements(source.ref, target.ref)
        return self.library.is_subclass_of(source.ref, target.ref)

    def _implements(self, class_name: str, interface: str) -> bool:
        """Whether ``class_name`` transitively implements ``interface``."""
        seen = set()
        work = [class_name]
        while work:
            current = work.pop()
            if current in seen:
                continue
            seen.add(current)
            if current == interface:
                return True
            cls = self.library.find(current)
            if cls is None:
                continue
            work.extend(cls.interfaces)
            if cls.superclass:
                work.append(cls.superclass)
        return False

    def _merge_types(self, first: VType, second: VType) -> VType:
        if first == second:
            return first
        if first.cat != second.cat:
            raise self._fail(
                f"Mismatched stack types ({first} vs {second})",
                site="verifier.merge_mismatch")
        if first.cat != "a":
            return first
        if self.policy.verify_uninitialized_merge:
            check("verifier.uninit_merge",
                  first.is_uninitialized != second.is_uninitialized,
                  self._fail,
                  "Merging initialized and uninitialized object types")
        return VType("a", None)

    # -- constant pool access ----------------------------------------------------

    def _cp_entry(self, index: int, *tags: CpTag, what: str):
        try:
            entry = self.pool.entry(index)
        except ConstantPoolError as exc:
            raise ClassFormatError(
                f"Bad constant pool index for {what} in {self.where}: "
                f"{exc}", site="verifier.cp_index_bad") from exc
        check("verifier.cp_tag_mismatch", entry.tag not in tags,
              ClassFormatError, "Constant pool entry {} for {} has tag "
              "{.name} in {.where}", index, what, entry.tag, self)
        return entry

    def _member_ref(self, index: int, *tags: CpTag,
                    what: str) -> Tuple[str, str, str]:
        self._cp_entry(index, *tags, what=what)
        try:
            return self.pool.get_member_ref(index)
        except ConstantPoolError as exc:
            raise ClassFormatError(
                f"Broken {what} reference in {self.where}: {exc}",
                site="verifier.member_ref_bad") from exc

    def _resolve_owner(self, owner: str, what: str) -> None:
        """Eager reference resolution (policy-gated)."""
        if not self.policy.resolve_refs_eagerly:
            return
        probe("verifier.resolve_ref")
        if owner.startswith("[") or owner == self.classfile.name:
            return
        check("verifier.ref_owner_missing", self.library.find(owner) is None,
              NoClassDefFoundError, "{} (referenced from {} in {.where})",
              owner.replace("/", "."), what, self)

    # -- entry point ---------------------------------------------------------------

    def verify(self) -> None:
        """Run verification; raises on the first violation."""
        probe("verifier.method")
        try:
            instructions = self.code.decoded()
        except InstructionError as exc:
            probe("verifier.bad_instruction")
            raise self._fail(f"Bad instruction: {exc}",
                             site="verifier.bad_instruction") from exc
        check("verifier.empty_code", not instructions, self._fail,
              "Empty code attribute")
        starts = {instruction.offset for instruction in instructions}
        by_offset = {instruction.offset: i
                     for i, instruction in enumerate(instructions)}
        self._check_branch_targets(instructions, starts)
        self._check_exception_table(starts)
        self._dataflow(instructions, by_offset)

    def _check_branch_targets(self, instructions: Sequence[Instruction],
                              starts: set) -> None:
        probe("verifier.check_branch_targets")
        for instruction in instructions:
            for target in instruction.branch_targets():
                check("verifier.branch_target_bad", target not in starts,
                      self._fail, "Illegal target of jump or branch (offset "
                      "{})", target)

    def _check_exception_table(self, starts: set) -> None:
        probe("verifier.check_exception_table")
        code_length = len(self.code.code)
        for handler in self.code.exception_table:
            in_range = 0 <= handler.start_pc < handler.end_pc <= code_length
            check("verifier.handler_range_bad", not in_range, self._fail,
                  "Illegal exception table range")
            check("verifier.handler_pc_bad", handler.handler_pc not in starts,
                  self._fail, "Illegal exception table handler")
            if handler.catch_type:
                self._cp_entry(handler.catch_type, CpTag.CLASS,
                               what="exception handler")

    # -- dataflow ---------------------------------------------------------------------

    def _initial_locals(self) -> Dict[int, VType]:
        locals_: Dict[int, VType] = {}
        slot = 0
        if not self.method.is_static:
            locals_[slot] = VType("a", self.classfile.name)
            slot += 1
        descriptor = self.classfile.method_descriptor(self.method)
        try:
            parsed = parse_method_descriptor(descriptor)
        except DescriptorError as exc:
            raise ClassFormatError(
                f"Invalid method descriptor in {self.where}: {exc}",
                site="verifier.method_descriptor_bad") from exc
        for param in parsed.parameters:
            vtype = _vtype_of(param)
            locals_[slot] = vtype
            slot += vtype.size
        check("verifier.args_exceed_locals", slot > self.code.max_locals,
              self._fail, "Arguments can't fit into locals")
        return locals_

    def _dataflow(self, instructions: Sequence[Instruction],
                  by_offset: Dict[int, int]) -> None:
        probe("verifier.dataflow")
        states: Dict[int, Tuple[Tuple[VType, ...], Dict[int, VType]]] = {}
        work: List[int] = [0]
        states[0] = ((), self._initial_locals())
        # Exception handlers are entered with the thrown object as the
        # only stack value; locals conservatively hold just the arguments.
        for handler in self.code.exception_table:
            index = by_offset.get(handler.handler_pc)
            if index is None or index in states:
                continue
            catch_ref = None
            if handler.catch_type:
                try:
                    catch_ref = self.pool.get_class_name(handler.catch_type)
                except ConstantPoolError:
                    catch_ref = None
            states[index] = ((VType("a", catch_ref),),
                             self._initial_locals())
            work.append(index)
        self._return_cat = self._return_category()
        visited_budget = len(instructions) * 8 + 64
        steps = 0
        while work:
            steps += 1
            if steps > visited_budget:
                break  # convergence guard; states monotonically widen
            index = work.pop()
            stack, locals_ = states[index]
            # The fall-through successor; none after the last instruction.
            next_offset = instructions[index + 1].offset \
                if index + 1 < len(instructions) else None
            next_states = self._transfer(instructions[index], next_offset,
                                         list(stack), dict(locals_))
            for target_offset, new_stack, new_locals in next_states:
                check("verifier.falloff", target_offset is None, self._fail,
                      "Falling off the end of the code")
                target_index = by_offset.get(target_offset)
                if target_index is None:
                    raise self._fail(
                        f"Illegal target of jump or branch (offset "
                        f"{target_offset})", site="verifier.jump_target_bad")
                merged = self._merge_state(
                    states.get(target_index),
                    (tuple(new_stack), new_locals))
                if merged != states.get(target_index):
                    states[target_index] = merged
                    work.append(target_index)

    def _merge_state(self, old, new):
        if old is None:
            return new
        old_stack, old_locals = old
        new_stack, new_locals = new
        if len(old_stack) != len(new_stack):
            if self.policy.strict_stack_shapes:
                check("verifier.stack_shape_inconsistent", True, self._fail,
                      "Stack shape inconsistent")
            # Lenient vendors keep the shorter shape.
            merged_stack = old_stack if len(old_stack) < len(new_stack) \
                else new_stack
        else:
            merged_stack = tuple(
                self._merge_types(a, b) for a, b in zip(old_stack, new_stack))
        merged_locals = {}
        for slot in set(old_locals) & set(new_locals):
            try:
                merged_locals[slot] = self._merge_types(
                    old_locals[slot], new_locals[slot])
            except VerifyError:
                if self.policy.verify_type_assignability:
                    raise
                merged_locals[slot] = VType("a", None)
        return merged_stack, merged_locals

    def _return_category(self) -> Optional[str]:
        descriptor = self.classfile.method_descriptor(self.method)
        try:
            parsed = parse_method_descriptor(descriptor)
        except DescriptorError:
            return None
        if parsed.return_type is None:
            return "v"
        return _vtype_of(parsed.return_type).cat

    # -- per-instruction transfer -------------------------------------------------------

    def _pop(self, stack: List[VType], expected: Optional[str] = None) -> VType:
        check("verifier.stack_underflow", not stack, self._fail,
              "Unable to pop operand off an empty stack")
        item = stack.pop()
        if expected is not None:
            check("verifier.operand_type_mismatch", item.cat != expected,
                  self._fail, "Expecting to find {} on stack, found {}",
                  expected, item.cat)
        return item

    def _push(self, stack: List[VType], item: VType) -> None:
        stack.append(item)
        depth = sum(entry.size for entry in stack)
        check("verifier.stack_overflow", depth > self.code.max_stack,
              self._fail, "Exceeding stack size (max_stack={.max_stack})",
              self.code)

    def _check_local(self, slot: int) -> None:
        check("verifier.local_out_of_range",
              slot >= max(self.code.max_locals, 0), self._fail, "Local "
              "variable index {} out of range (max_locals={.max_locals})",
              slot, self.code)

    def _transfer(self, instruction: Instruction, next_offset: Optional[int],
                  stack: List[VType], locals_: Dict[int, VType]):
        """Apply one instruction; returns [(next_offset|None, stack, locals)].

        An opcode with a handler runs it; every other opcode applies its
        fixed stack effect from the opcode table.  The successors are the
        branch targets, then the fall-through unless the opcode is
        terminal.
        """
        op = instruction.op
        info = OPCODES[op]
        probe(_OP_SITES[op])
        handler = _HANDLERS.get(op)
        if handler is not None:
            handler(self, instruction, stack, locals_)
        else:
            fixed = _FIXED.get(op)
            if fixed is None:
                raise self._fail(f"Unhandled opcode {op.name.lower()}",
                                 site="verifier.unhandled_opcode")
            expected, pushed = fixed
            for cat in expected:
                self._pop(stack, cat)
            if pushed is not None:
                self._push(stack, pushed)
        if info.is_branch:
            successors = [(target, list(stack), dict(locals_))
                          for target in instruction.branch_targets()]
            if not info.is_terminal:
                successors.append((next_offset, list(stack), dict(locals_)))
            return successors
        if info.is_terminal:
            return []
        return [(next_offset, stack, locals_)]

    # -- opcode handlers ---------------------------------------------------

    @_handles(Op.LDC, Op.LDC_W, Op.LDC2_W)
    def _ldc(self, instruction: Instruction, stack, locals_) -> None:
        index = instruction.operands["index"]
        if instruction.op is Op.LDC2_W:
            entry = self._cp_entry(index, CpTag.LONG, CpTag.DOUBLE,
                                   what="ldc2_w")
            self._push(stack, _LONG if entry.tag is CpTag.LONG else _DOUBLE)
            return
        entry = self._cp_entry(index, CpTag.INTEGER, CpTag.FLOAT,
                               CpTag.STRING, CpTag.CLASS, what="ldc")
        if entry.tag is CpTag.INTEGER:
            self._push(stack, _INT)
        elif entry.tag is CpTag.FLOAT:
            self._push(stack, _FLOAT)
        elif entry.tag is CpTag.STRING:
            self._push(stack, VType("a", "java/lang/String"))
        else:
            self._push(stack, VType("a", "java/lang/Class"))

    @_handles(*FAMILIES[LOAD])
    def _load(self, instruction: Instruction, stack, locals_) -> None:
        info = instruction.info
        cat = info.cat
        slot = instruction.operands.get("index", info.implicit)
        self._check_local(slot)
        current = locals_.get(slot)
        check("verifier.load_undefined_local", current is None, self._fail,
              "Accessing value from uninitialized register {}", slot)
        if branch("verifier.load_wrong_category", current.cat != cat):
            if self.policy.verify_type_assignability or current.cat in "ld" \
                    or cat in "ld":
                raise self._fail(
                    f"Register {slot} contains wrong type (expected {cat}, "
                    f"found {current.cat})",
                    site="verifier.load_wrong_category")
            current = VType(cat)
        self._push(stack, current)

    @_handles(*FAMILIES[STORE])
    def _store(self, instruction: Instruction, stack, locals_) -> None:
        info = instruction.info
        cat = info.cat
        slot = instruction.operands.get("index", info.implicit)
        self._check_local(slot)
        item = self._pop(stack)
        check("verifier.store_wrong_category", item.cat != cat, self._fail,
              "Expecting to find {} on stack for store, found {}", cat,
              item.cat)
        locals_[slot] = item
        if item.size == 2:
            locals_.pop(slot + 1, None)
        # A long or double below the slot loses its upper half (JVMS
        # §2.6.1), so a later load of it finds no value.
        below = locals_.get(slot - 1)
        if below is not None and below.size == 2:
            del locals_[slot - 1]

    @_handles(Op.IINC)
    def _iinc(self, instruction: Instruction, stack, locals_) -> None:
        self._check_local(instruction.operands["index"])

    @_handles(Op.GETSTATIC, Op.PUTSTATIC, Op.GETFIELD, Op.PUTFIELD)
    def _field(self, instruction: Instruction, stack, locals_) -> None:
        op = instruction.op
        owner, name, descriptor = self._member_ref(
            instruction.operands["index"], CpTag.FIELDREF,
            what="field access")
        try:
            vtype = _vtype_of(parse_field_descriptor(descriptor))
        except DescriptorError as exc:
            raise ClassFormatError(
                f"Invalid field descriptor {descriptor!r} in {self.where}",
                site="verifier.field_descriptor_bad") from exc
        self._resolve_owner(owner, "field access")
        if self.policy.resolve_refs_eagerly and owner != self.classfile.name:
            cls = self.library.find(owner)
            if cls is not None:
                check("verifier.field_missing", cls.find_field(name) is None,
                      NoSuchFieldError, "{}.{}", owner.replace("/", "."),
                      name)
        if op is Op.GETSTATIC:
            self._push(stack, vtype)
        elif op is Op.GETFIELD:
            self._pop(stack, "a")
            self._push(stack, vtype)
        elif op is Op.PUTSTATIC:
            value = self._pop(stack)
            self._check_assignable(value, vtype, f"field {name}")
        else:  # PUTFIELD
            value = self._pop(stack)
            self._pop(stack, "a")
            self._check_assignable(value, vtype, f"field {name}")

    def _check_assignable(self, source: VType, target: VType,
                          what: str) -> None:
        check("verifier.value_category_mismatch", source.cat != target.cat,
              self._fail, "Incompatible type for {}: expected {}, found {}",
              what, target.cat, source.cat)
        if self.policy.verify_type_assignability:
            check("verifier.value_not_assignable",
                  not self._assignable(source, target), self._fail,
                  "Incompatible object argument for {}: {} is not "
                  "assignable to {}", what, source.ref, target.ref)

    @_handles(Op.INVOKEVIRTUAL, Op.INVOKESPECIAL, Op.INVOKESTATIC,
              Op.INVOKEINTERFACE)
    def _invoke(self, instruction: Instruction, stack, locals_) -> None:
        tags = (CpTag.METHODREF, CpTag.INTERFACE_METHODREF)
        owner, name, descriptor = self._member_ref(
            instruction.operands["index"], *tags, what="invocation")
        try:
            parsed = parse_method_descriptor(descriptor)
        except DescriptorError as exc:
            raise ClassFormatError(
                f"Invalid method descriptor {descriptor!r} in {self.where}",
                site="verifier.invoke_descriptor_bad") from exc
        self._resolve_owner(owner, "invocation")
        for param in reversed(parsed.parameters):
            value = self._pop(stack)
            self._check_assignable(value, _vtype_of(param),
                                   f"argument of {name}")
        if instruction.op is not Op.INVOKESTATIC:
            receiver = self._pop(stack, "a")
            if name != "<init>" and self.policy.verify_uninitialized_merge:
                check("verifier.uninit_receiver", receiver.is_uninitialized,
                      self._fail, "Calling a method on an uninitialized "
                      "object")
            if name == "<init>" and receiver.is_uninitialized:
                # Initialize every remaining copy of this uninit type
                # (stack and locals), as JVMS §4.10.1.9.invokespecial does.
                initialized = VType("a", receiver.ref[len("uninit:"):])
                for i, entry in enumerate(stack):
                    if entry == receiver:
                        stack[i] = initialized
                for slot, entry in list(locals_.items()):
                    if entry == receiver:
                        locals_[slot] = initialized
        if self.policy.resolve_refs_eagerly and owner != self.classfile.name:
            cls = self.library.find(owner)
            if cls is not None:
                check("verifier.method_missing",
                      cls.find_method(name, descriptor) is None,
                      NoSuchMethodError, "{}.{}{}", owner.replace("/", "."),
                      name, descriptor)
        if parsed.return_type is not None:
            self._push(stack, _vtype_of(parsed.return_type))

    @_handles(Op.INVOKEDYNAMIC)
    def _invokedynamic(self, instruction: Instruction, stack, locals_) -> None:
        raise self._fail("invokedynamic is not supported by this JVM",
                         site="verifier.invokedynamic")

    @_handles(Op.NEW)
    def _new(self, instruction: Instruction, stack, locals_) -> None:
        index = instruction.operands["index"]
        self._cp_entry(index, CpTag.CLASS, what="new")
        class_name = self.pool.get_class_name(index)
        self._resolve_owner(class_name, "new")
        self._push(stack, VType("a", f"uninit:{class_name}"))

    @_handles(Op.NEWARRAY)
    def _newarray(self, instruction: Instruction, stack, locals_) -> None:
        self._pop(stack, "i")
        self._push(stack, VType("a", "[prim"))

    @_handles(Op.ANEWARRAY)
    def _anewarray(self, instruction: Instruction, stack, locals_) -> None:
        self._cp_entry(instruction.operands["index"], CpTag.CLASS,
                       what="anewarray")
        self._pop(stack, "i")
        self._push(stack, VType("a", "[ref"))

    @_handles(Op.MULTIANEWARRAY)
    def _multianewarray(self, instruction: Instruction, stack,
                        locals_) -> None:
        operands = instruction.operands
        self._cp_entry(operands["index"], CpTag.CLASS, what="multianewarray")
        dims = operands.get("dimensions", 0)
        check("verifier.multianewarray_zero_dims", dims == 0, self._fail,
              "multianewarray with zero dimensions")
        for _ in range(dims):
            self._pop(stack, "i")
        self._push(stack, VType("a", "[multi"))

    @_handles(Op.CHECKCAST)
    def _checkcast(self, instruction: Instruction, stack, locals_) -> None:
        index = instruction.operands["index"]
        self._cp_entry(index, CpTag.CLASS, what="checkcast")
        self._pop(stack, "a")
        self._push(stack, VType("a", self.pool.get_class_name(index)))

    @_handles(Op.INSTANCEOF)
    def _instanceof(self, instruction: Instruction, stack, locals_) -> None:
        self._cp_entry(instruction.operands["index"], CpTag.CLASS,
                       what="instanceof")
        self._pop(stack, "a")
        self._push(stack, _INT)

    @_handles(*SHUFFLES)
    def _shuffle(self, instruction: Instruction, stack, locals_) -> None:
        """Put back the halves of the values that fill the opcode's slots
        in its order: a form of JVMS §6.5 where each long and double comes
        back whole."""
        takes, order = SHUFFLES[instruction.op]
        taken: List[VType] = []
        while sum(item.size for item in taken) < takes:
            taken.insert(0, self._pop(stack))
        halves = [(k, half) for k, item in enumerate(taken)
                  for half in range(item.size)]
        put = [halves[slot] for slot in order]
        kept = [k for k, half in put if half == 0]
        whole = [(k, half) for k in kept for half in range(taken[k].size)]
        check("verifier.shuffle_split", len(halves) != takes or put != whole,
              self._fail, "{.mnemonic} would split a long or double on the "
              "stack", instruction)
        if kept:
            stack.extend(taken[k] for k in kept[:-1])
            self._push(stack, taken[kept[-1]])

    @_handles(Op.ATHROW)
    def _athrow(self, instruction: Instruction, stack, locals_) -> None:
        thrown = self._pop(stack, "a")
        if self.policy.verify_type_assignability and thrown.ref and \
                not thrown.ref.startswith(("[", "uninit:", "null")):
            cls = self.library.find(thrown.ref)
            if cls is not None:
                check("verifier.throw_non_throwable",
                      not self.library.is_throwable(thrown.ref), self._fail,
                      "Can only throw Throwable objects, not {}", thrown.ref)

    @_handles(Op.JSR, Op.JSR_W)
    def _jsr(self, instruction: Instruction, stack, locals_) -> None:
        raise self._fail("jsr/ret are not supported by this verifier",
                         site="verifier.jsr")

    @_handles(*FAMILIES[RETURN])
    def _return(self, instruction: Instruction, stack, locals_) -> None:
        actual = instruction.info.cat
        if actual != "v":
            self._pop(stack, actual)
        expected = self._return_cat
        if expected is not None:
            check("verifier.return_type_mismatch", actual != expected,
                  self._fail, "Wrong return type in function (expected {}, "
                  "found {})", expected, actual)

