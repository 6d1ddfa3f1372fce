"""Compile a :class:`~repro.jimple.model.JClass` to a real classfile.

This is the analogue of Soot *dumping* a rewritten ``SootClass`` to bytes.
The compiler is intentionally permissive about *semantic* nonsense —
mismatched types, contradictory flags, missing ``<init>`` — because those
must reach the JVMs under test as bytes.  It fails (raising
:class:`JimpleCompileError`) only where Soot itself would fail to dump:
references to undeclared locals, branches to missing labels, unencodable
structures.  Such failures are counted by the fuzzers as iterations that
produced no classfile, exactly as in §3.2 of the paper.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bytecode.assembler import Assembler
from repro.bytecode.instructions import InstructionError
from repro.bytecode.opcodes import OPCODES, SLOTS, Op
from repro.classfile import access_flags as acc
from repro.classfile.access_flags import AccessFlags
from repro.classfile.attributes import (
    CodeAttribute,
    ConstantValueAttribute,
    ExceptionHandler,
    ExceptionsAttribute,
    SourceFileAttribute,
)
from repro.classfile.constant_pool import ConstantPool
from repro.classfile.fields import FieldInfo
from repro.classfile.methods import MethodInfo
from repro.classfile.model import ClassFile
from repro.jimple import statements as st
from repro.jimple.model import JClass, JMethod
from repro.jimple.types import JType


class JimpleCompileError(Exception):
    """The class cannot be dumped to a classfile (Soot-dump failure analogue)."""


#: Modifier string → flag bit, per context.
_CLASS_FLAGS, _FIELD_FLAGS, _METHOD_FLAGS = (
    {modifier: bit for bit, modifier in table}
    for table in (acc.CLASS_FLAGS, acc.FIELD_FLAGS, acc.METHOD_FLAGS))


def _flags(modifiers: List[str], table: Dict[str, int]) -> AccessFlags:
    """OR the bits as plain ints, then wrap the result once."""
    bits = 0
    for modifier in modifiers:
        bits |= table.get(modifier, 0)
    return AccessFlags(bits)


#: load/store/return opcode per type category.
_LOAD_OPS = {"i": Op.ILOAD, "l": Op.LLOAD, "f": Op.FLOAD, "d": Op.DLOAD,
             "a": Op.ALOAD}
_STORE_OPS = {"i": Op.ISTORE, "l": Op.LSTORE, "f": Op.FSTORE, "d": Op.DSTORE,
              "a": Op.ASTORE}
_RETURN_OPS = {"i": Op.IRETURN, "l": Op.LRETURN, "f": Op.FRETURN,
               "d": Op.DRETURN, "a": Op.ARETURN}
_BINOPS = {"+": Op.IADD, "-": Op.ISUB, "*": Op.IMUL, "/": Op.IDIV,
           "%": Op.IREM, "&": Op.IAND, "|": Op.IOR, "^": Op.IXOR,
           "<<": Op.ISHL, ">>": Op.ISHR, ">>>": Op.IUSHR}
_IF_OPS = {"==": Op.IFEQ, "!=": Op.IFNE, "<": Op.IFLT, ">=": Op.IFGE,
           ">": Op.IFGT, "<=": Op.IFLE}
#: Three-way compare and unary mnemonic → opcode; their stack slot
#: widths come from the opcode table's typed effects.
_CMP_OPS = {OPCODES[op].mnemonic: op for op in (
    Op.LCMP, Op.FCMPL, Op.FCMPG, Op.DCMPL, Op.DCMPG)}
_UNARY_OPS = {OPCODES[op].mnemonic: op for op in (
    Op.INEG, Op.LNEG, Op.FNEG, Op.DNEG, Op.I2L, Op.L2I, Op.I2B, Op.I2C,
    Op.I2S, Op.F2I, Op.F2L, Op.D2I, Op.D2L)}
_INVOKE_OPS = {"static": Op.INVOKESTATIC, "virtual": Op.INVOKEVIRTUAL,
               "special": Op.INVOKESPECIAL, "interface": Op.INVOKEINTERFACE}

#: One constant-pool request: an interning method of
#: :class:`ConstantPool` and its arguments.
_Request = Tuple[Callable[..., int], tuple]


def _header(method: JMethod) -> tuple:
    """What a compile reads of a method besides its body, locals and traps."""
    return (method.name, method.return_type, tuple(method.parameter_types),
            tuple(method.modifiers), tuple(method.thrown))


def _same_objects(items: Sequence[object], kept: tuple) -> bool:
    return len(items) == len(kept) and all(map(operator.is_, items, kept))


class MethodTemplate:
    """One compiled Jimple method, kept so a later compile can replay it.

    A method's ``method_info`` depends only on the method and on the
    indices its constant-pool requests get, and each index lands in a
    u2 place — the compiler emits ``ldc_w``, never ``ldc``, so no index
    moves the code layout.  So a compile of the same method into another
    pool makes the same requests in the same order (the pool grows as a
    fresh compile would grow it) and patches the places.

    The template applies while the method's body, locals and traps are,
    element for element, the very objects it was made from — they are
    immutable, so identity means the same content, where equality would
    call ``Constant(-0.0)`` equal to ``Constant(0.0)`` — and its name,
    return and parameter types, modifiers and thrown list are equal.

    Attributes:
        body/locals/traps: the elements the template was made from.
        header: :func:`_header` of the method.
        access_flags: the method's flags.
        requests: the pool requests in the order the compile made them:
            one per operand, then one per trap that catches a type, one
            per thrown class, the name and the descriptor.
        code/max_stack/max_locals: the ``Code`` attribute's fields.
        operand_offsets: where the operand requests' indices go in
            ``code`` (the assembler's layout, plus the opcode byte).
        handlers: per trap, ``(start_pc, end_pc, handler_pc, request)``
            with the number of its catch-type request, or ``None``.
    """

    __slots__ = ("body", "locals", "traps", "header", "access_flags",
                 "requests", "code", "max_stack", "max_locals",
                 "operand_offsets", "handlers")

    def __init__(self, method: JMethod, access_flags: AccessFlags,
                 requests: List[_Request], code: bytes, max_stack: int,
                 max_locals: int, operand_offsets: List[int],
                 handlers: List[Tuple[int, int, int, Optional[int]]]):
        self.body = tuple(method.body or ())
        self.locals = tuple(method.locals)
        self.traps = tuple(method.traps)
        self.header = _header(method)
        self.access_flags = access_flags
        self.requests = tuple(requests)
        self.code = code
        self.max_stack = max_stack
        self.max_locals = max_locals
        self.operand_offsets = tuple(operand_offsets)
        self.handlers = tuple(handlers)

    def fits(self, method: JMethod) -> bool:
        """Whether compiling ``method`` would repeat this template."""
        return (method.body is not None
                and _same_objects(method.body, self.body)
                and _same_objects(method.locals, self.locals)
                and _same_objects(method.traps, self.traps)
                and _header(method) == self.header)

    def request(self, pool: ConstantPool) -> List[int]:
        """Make the template's pool requests, in order, into ``pool``."""
        return [request(pool, *args) for request, args in self.requests]

    def instantiate(self, indices: Sequence[int]) -> MethodInfo:
        """The ``method_info`` whose pool requests got ``indices``."""
        code = bytearray(self.code)
        for offset, index in zip(self.operand_offsets, indices):
            struct.pack_into(">H", code, offset, index)
        handlers = [ExceptionHandler(start, end, handler,
                                     0 if catch is None else indices[catch])
                    for start, end, handler, catch in self.handlers]
        attributes = [CodeAttribute(max_stack=self.max_stack,
                                    max_locals=self.max_locals,
                                    code=bytes(code),
                                    exception_table=handlers)]
        thrown = len(self.header[-1])
        if thrown:
            attributes.append(
                ExceptionsAttribute(list(indices[-2 - thrown:-2])))
        return MethodInfo(access_flags=self.access_flags,
                          name_index=indices[-2],
                          descriptor_index=indices[-1],
                          attributes=attributes)


class _MethodCompiler:
    """Compiles one Jimple method with a body to a :class:`MethodTemplate`.

    Every constant-pool request goes through :meth:`_request`, which
    records it and the index it got.
    """

    def __init__(self, jclass: JClass, method: JMethod, pool: ConstantPool):
        self.jclass = jclass
        self.method = method
        self.pool = pool
        self.asm = Assembler()
        self.slots: Dict[str, int] = {}
        self.types: Dict[str, JType] = {}
        self.param_slots: List[int] = []
        self.this_slot: Optional[int] = None
        self.max_stack = 0
        self._depth = 0
        self.next_slot = 0
        self.requests: List[_Request] = []
        self.indices: List[int] = []
        #: The assembler position of each operand request's instruction.
        self._operand_positions: List[int] = []
        self._assign_slots()

    # -- slot allocation -----------------------------------------------------

    def _assign_slots(self) -> None:
        if not self.method.is_static:
            self.this_slot = self.next_slot
            self.next_slot += 1
        for ptype in self.method.parameter_types:
            self.param_slots.append(self.next_slot)
            self.next_slot += max(1, ptype.slots)
        for local in self.method.locals:
            if local.name in self.slots:
                # Duplicate local declarations: keep the first slot, as Soot
                # does when names collide after renaming mutations.
                continue
            self.slots[local.name] = self.next_slot
            self.types[local.name] = local.jtype
            self.next_slot += max(1, local.jtype.slots)

    def _slot(self, name: str) -> int:
        if name not in self.slots:
            raise JimpleCompileError(
                f"{self.jclass.name}.{self.method.name}: reference to "
                f"undeclared local {name!r}")
        return self.slots[name]

    def _type(self, name: str) -> JType:
        if name not in self.types:
            raise JimpleCompileError(
                f"{self.jclass.name}.{self.method.name}: reference to "
                f"undeclared local {name!r}")
        return self.types[name]

    # -- constant pool -------------------------------------------------------------

    def _request(self, request: Callable[..., int], *args: object) -> int:
        index = request(self.pool, *args)
        self.requests.append((request, args))
        self.indices.append(index)
        return index

    def _emit_pooled(self, op: Op, request: Callable[..., int],
                     *args: object, **operands: object) -> None:
        """Emit ``op`` with the index of a pool request as its u2 operand."""
        index = self._request(request, *args)
        instruction = self.asm.emit(op, index=index, **operands)
        self._operand_positions.append(instruction.offset)

    # -- stack accounting ------------------------------------------------------

    def _push(self, slots: int) -> None:
        self._depth += slots
        self.max_stack = max(self.max_stack, self._depth)

    def _pop(self, slots: int) -> None:
        self._depth = max(0, self._depth - slots)

    def _end_stmt(self) -> None:
        self._depth = 0

    def _emit_fixed(self, op: Op) -> None:
        """Emit an opcode with a fixed stack effect and account for it."""
        self.asm.emit(op)
        effect = OPCODES[op].effect
        self._pop(sum(SLOTS[cat] for cat in effect.pops))
        self._push(SLOTS[effect.push])

    # -- value emission ----------------------------------------------------------

    def _emit_local(self, op: Op, slot: int) -> None:
        """Emit a load or store of ``slot``: ``wide`` past slot 255, as
        javac does."""
        if slot > 0xFF:
            self.asm.emit(op, index=slot, wide=True)
        else:
            self.asm.emit(op, index=slot)

    def _emit_load(self, name: str) -> int:
        """Load local ``name``; returns pushed slot count."""
        jtype = self._type(name)
        self._emit_local(_LOAD_OPS[jtype.category], self._slot(name))
        slots = max(1, jtype.slots)
        self._push(slots)
        return slots

    def _emit_store(self, name: str) -> None:
        jtype = self._type(name)
        self._emit_local(_STORE_OPS[jtype.category], self._slot(name))
        self._pop(max(1, jtype.slots))

    def _emit_constant(self, constant: st.Constant) -> int:
        """Push ``constant``; returns pushed slot count."""
        value, jtype = constant.value, constant.jtype
        if value is None:
            self.asm.emit(Op.ACONST_NULL)
            self._push(1)
            return 1
        if isinstance(value, str):
            self._emit_pooled(Op.LDC_W, ConstantPool.string, value)
            self._push(1)
            return 1
        if jtype.name == "long":
            self._emit_pooled(Op.LDC2_W, ConstantPool.long, int(value))
            self._push(2)
            return 2
        if jtype.name == "double":
            self._emit_pooled(Op.LDC2_W, ConstantPool.double, float(value))
            self._push(2)
            return 2
        if jtype.name == "float":
            self._emit_pooled(Op.LDC_W, ConstantPool.float_, float(value))
            self._push(1)
            return 1
        int_value = int(value)
        if -1 <= int_value <= 5:
            self.asm.emit(Op(int(Op.ICONST_0) + int_value))
        elif -128 <= int_value <= 127:
            self.asm.emit(Op.BIPUSH, value=int_value)
        elif -32768 <= int_value <= 32767:
            self.asm.emit(Op.SIPUSH, value=int_value)
        else:
            self._emit_pooled(Op.LDC_W, ConstantPool.integer, int_value)
        self._push(1)
        return 1

    def _emit_value(self, value: st.Value) -> int:
        if isinstance(value, st.Constant):
            return self._emit_constant(value)
        return self._emit_load(value)

    # -- member references ---------------------------------------------------------

    def _emit_field(self, op: Op, ref: st.FieldRef) -> None:
        self._emit_pooled(op, ConstantPool.field_ref,
                          ref.owner.replace(".", "/"), ref.name,
                          ref.descriptor())

    # -- statements ------------------------------------------------------------------

    def compile(self) -> MethodTemplate:
        """Compile the whole method, making its pool requests in
        :class:`MethodTemplate` order (their indices are in
        :attr:`indices`)."""
        method = self.method
        assert method.body is not None
        for stmt in method.body:
            self._compile_stmt(stmt)
            if not isinstance(stmt, st.LabelStmt):
                self._end_stmt()
        try:
            code = self.asm.build()
        except InstructionError as exc:
            raise JimpleCompileError(
                f"{self.jclass.name}.{method.name}: {exc}") from exc
        if not code:
            raise JimpleCompileError(
                f"{self.jclass.name}.{method.name}: empty body")
        handlers = self._compile_traps()
        for name in method.thrown:
            self._request(ConstantPool.class_ref, name.replace(".", "/"))
        self._request(ConstantPool.utf8, method.name)
        self._request(ConstantPool.utf8, method.descriptor())
        layout = self.asm.instruction_offsets
        return MethodTemplate(
            method, _flags(method.modifiers, _METHOD_FLAGS), self.requests,
            code, max(self.max_stack, 1), max(self.next_slot, 1),
            [layout[position] + 1 for position in self._operand_positions],
            handlers)

    def _compile_traps(self) -> List[Tuple[int, int, int, Optional[int]]]:
        handlers = []
        for trap in self.method.traps:
            offsets = self.asm.label_offsets
            missing = [name for name in (trap.begin_label, trap.end_label,
                                         trap.handler_label)
                       if name not in offsets]
            if missing:
                raise JimpleCompileError(
                    f"{self.jclass.name}.{self.method.name}: trap "
                    f"references missing label(s) {missing}")
            catch = None
            if trap.exception is not None:
                catch = len(self.requests)
                self._request(ConstantPool.class_ref,
                              trap.exception.replace(".", "/"))
            handlers.append((offsets[trap.begin_label],
                             offsets[trap.end_label],
                             offsets[trap.handler_label], catch))
        return handlers

    def _compile_stmt(self, stmt: st.Stmt) -> None:
        if isinstance(stmt, st.LabelStmt):
            try:
                self.asm.label(stmt.name)
            except InstructionError as exc:
                raise JimpleCompileError(str(exc)) from exc
        elif isinstance(stmt, st.NopStmt):
            self.asm.emit(Op.NOP)
        elif isinstance(stmt, st.IdentityStmt):
            self._compile_identity(stmt)
        elif isinstance(stmt, st.AssignConstStmt):
            self._emit_constant(stmt.constant)
            self._emit_store(stmt.local)
        elif isinstance(stmt, st.AssignLocalStmt):
            self._emit_load(stmt.src)
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignBinopStmt):
            self._emit_value(stmt.left)
            self._emit_value(stmt.right)
            op = _BINOPS.get(stmt.op)
            if op is None:
                raise JimpleCompileError(f"unknown binop {stmt.op!r}")
            self.asm.emit(op)
            self._pop(1)
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignCmpStmt):
            opcode = _CMP_OPS.get(stmt.op)
            if opcode is None:
                raise JimpleCompileError(f"unknown compare {stmt.op!r}")
            self._emit_value(stmt.left)
            self._emit_value(stmt.right)
            self._emit_fixed(opcode)
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignUnopStmt):
            opcode = _UNARY_OPS.get(stmt.op)
            if opcode is None:
                raise JimpleCompileError(f"unknown unary op {stmt.op!r}")
            self._emit_value(stmt.src)
            self._emit_fixed(opcode)
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignNewStmt):
            self._emit_pooled(Op.NEW, ConstantPool.class_ref,
                              stmt.class_name.replace(".", "/"))
            self._push(1)
            self._emit_store(stmt.local)
        elif isinstance(stmt, st.AssignCastStmt):
            self._emit_load(stmt.src)
            self._emit_pooled(Op.CHECKCAST, ConstantPool.class_ref,
                              stmt.jtype.internal_name)
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignInstanceOfStmt):
            self._emit_load(stmt.src)
            self._emit_pooled(Op.INSTANCEOF, ConstantPool.class_ref,
                              stmt.jtype.internal_name)
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignFieldGetStmt):
            if stmt.base is None:
                self._emit_field(Op.GETSTATIC, stmt.field_ref)
                self._push(max(1, stmt.field_ref.jtype.slots))
            else:
                self._emit_load(stmt.base)
                self._emit_field(Op.GETFIELD, stmt.field_ref)
                self._pop(1)
                self._push(max(1, stmt.field_ref.jtype.slots))
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignFieldPutStmt):
            if stmt.base is None:
                self._emit_value(stmt.value)
                self._emit_field(Op.PUTSTATIC, stmt.field_ref)
            else:
                self._emit_load(stmt.base)
                self._emit_value(stmt.value)
                self._emit_field(Op.PUTFIELD, stmt.field_ref)
            self._end_stmt()
        elif isinstance(stmt, st.InvokeStmt):
            pushed = self._compile_invoke(stmt.invoke)
            if pushed:
                self.asm.emit(Op.POP2 if pushed == 2 else Op.POP)
        elif isinstance(stmt, st.AssignInvokeStmt):
            self._compile_invoke(stmt.invoke)
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.IfStmt):
            self._emit_load(stmt.local)
            op = _IF_OPS.get(stmt.cond)
            if op is None:
                raise JimpleCompileError(f"unknown condition {stmt.cond!r}")
            self.asm.branch(op, stmt.target)
        elif isinstance(stmt, st.GotoStmt):
            self.asm.branch(Op.GOTO, stmt.target)
        elif isinstance(stmt, st.SwitchStmt):
            self._compile_switch(stmt)
        elif isinstance(stmt, st.ReturnStmt):
            self._compile_return(stmt)
        elif isinstance(stmt, st.ThrowStmt):
            self._emit_load(stmt.local)
            self.asm.emit(Op.ATHROW)
        else:
            raise JimpleCompileError(
                f"unsupported statement {type(stmt).__name__}")

    def _compile_identity(self, stmt: st.IdentityStmt) -> None:
        if stmt.source == "caughtexception":
            # At a handler entry the thrown object is already on the
            # operand stack; binding it is just a store.
            self._push(1)
            self._emit_store(stmt.local)
            return
        if stmt.source == "this":
            if self.this_slot is None:
                raise JimpleCompileError(
                    f"{self.jclass.name}.{self.method.name}: @this in a "
                    "static method")
            self.asm.emit(Op.ALOAD, index=self.this_slot)
            self._push(1)
            self._emit_store(stmt.local)
            return
        index = stmt.parameter_index
        if index is None:
            raise JimpleCompileError(f"bad identity source @{stmt.source}")
        if index >= len(self.param_slots):
            raise JimpleCompileError(
                f"{self.jclass.name}.{self.method.name}: identity for "
                f"missing parameter {index}")
        ptype = self.method.parameter_types[index]
        self._emit_local(_LOAD_OPS[ptype.category], self.param_slots[index])
        self._push(max(1, ptype.slots))
        self._emit_store(stmt.local)

    def _compile_invoke(self, invoke: st.InvokeExpr) -> int:
        """Emit an invocation; returns pushed result slot count."""
        if invoke.base is not None:
            self._emit_load(invoke.base)
        arg_slots = 0
        for arg in invoke.args:
            arg_slots += self._emit_value(arg)
        op = _INVOKE_OPS.get(invoke.kind)
        if op is None:
            raise JimpleCompileError(f"unknown invoke kind {invoke.kind!r}")
        ref = invoke.method
        request = (ConstantPool.interface_method_ref if ref.on_interface
                   else ConstantPool.method_ref)
        operands = ({"count": arg_slots + 1, "zero": 0}
                    if op is Op.INVOKEINTERFACE else {})
        self._emit_pooled(op, request, ref.owner.replace(".", "/"), ref.name,
                          ref.descriptor(), **operands)
        self._pop(arg_slots + (0 if invoke.base is None else 1))
        result_slots = invoke.method.return_type.slots
        if result_slots:
            self._push(result_slots)
        return result_slots

    def _compile_switch(self, stmt: st.SwitchStmt) -> None:
        self._emit_load(stmt.local)
        cases = sorted(stmt.cases, key=lambda pair: pair[0])
        keys = [key for key, _ in cases]
        contiguous = keys and keys == list(range(keys[0], keys[0]
                                                 + len(keys)))
        if contiguous:
            self.asm.switch(Op.TABLESWITCH, stmt.default,
                            low=keys[0], high=keys[-1],
                            targets=[target for _, target in cases])
        else:
            self.asm.switch(Op.LOOKUPSWITCH, stmt.default, pairs=cases)
        self._pop(1)

    def _compile_return(self, stmt: st.ReturnStmt) -> None:
        if stmt.value is None:
            self.asm.emit(Op.RETURN)
            return
        if isinstance(stmt.value, st.Constant):
            self._emit_constant(stmt.value)
            category = stmt.value.jtype.category
        else:
            self._emit_load(stmt.value)
            category = self._type(stmt.value).category
        self.asm.emit(_RETURN_OPS[category])
        self._end_stmt()


def compile_method(jclass: JClass, method: JMethod,
                   pool: ConstantPool) -> MethodInfo:
    """Compile one method to a ``method_info``.

    A method with a Jimple body is compiled once: the compile is kept
    as the method's :class:`MethodTemplate` (``method.template``), which
    :meth:`JMethod.clone` passes on.  A later compile of a method the
    template still fits replays it into ``pool`` instead — the same
    requests in the same order, then the indices patched in — and yields
    the bytes a fresh compile would.  A compile error is never kept (its
    message names the class).  The template lives only in this process:
    pickles and deep copies of the method drop it.

    Raises:
        JimpleCompileError: when the body cannot be dumped.
    """
    if method.body is None:
        return _compile_declaration(jclass, method, pool)
    template = method.template
    if template is not None and template.fits(method):
        indices = template.request(pool)
    else:
        compiler = _MethodCompiler(jclass, method, pool)
        template = method.template = compiler.compile()
        indices = compiler.indices
    return template.instantiate(indices)


def _compile_declaration(jclass: JClass, method: JMethod,
                         pool: ConstantPool) -> MethodInfo:
    """A method without a Jimple body: no ``Code``, or its raw code."""
    attributes = []
    if method.raw_code is not None:
        from repro.jimple.remap import RemapError, remap_code

        code_attr, source_pool = method.raw_code  # type: ignore[misc]
        try:
            attributes.append(remap_code(code_attr, source_pool, pool))
        except RemapError as exc:
            raise JimpleCompileError(
                f"{jclass.name}.{method.name}: {exc}") from exc
    if method.thrown:
        indices = [pool.class_ref(name.replace(".", "/"))
                   for name in method.thrown]
        attributes.append(ExceptionsAttribute(indices))
    return MethodInfo(
        access_flags=_flags(method.modifiers, _METHOD_FLAGS),
        name_index=pool.utf8(method.name),
        descriptor_index=pool.utf8(method.descriptor()),
        attributes=attributes,
    )


def compile_field(field_decl, pool: ConstantPool) -> FieldInfo:
    """Compile one field to a ``field_info``."""
    attributes = []
    if field_decl.constant_value is not None:
        value = field_decl.constant_value
        if isinstance(value, str):
            const_index = pool.string(value)
        elif isinstance(value, float):
            const_index = pool.float_(value)
        else:
            const_index = pool.integer(int(value))
        attributes.append(ConstantValueAttribute(const_index))
    return FieldInfo(
        access_flags=_flags(field_decl.modifiers, _FIELD_FLAGS),
        name_index=pool.utf8(field_decl.name),
        descriptor_index=pool.utf8(field_decl.jtype.descriptor()),
        attributes=attributes,
    )


def compile_class(jclass: JClass) -> ClassFile:
    """Compile a whole :class:`JClass` to a :class:`ClassFile`.

    Raises:
        JimpleCompileError: when any member cannot be dumped.
    """
    pool = ConstantPool()
    classfile = ClassFile(
        minor_version=jclass.minor_version,
        major_version=jclass.major_version,
        constant_pool=pool,
        access_flags=_flags(jclass.modifiers, _CLASS_FLAGS),
        this_class=pool.class_ref(jclass.internal_name),
        super_class=(pool.class_ref(jclass.superclass.replace(".", "/"))
                     if jclass.superclass else 0),
        interfaces=[pool.class_ref(name.replace(".", "/"))
                    for name in jclass.interfaces],
    )
    for field_decl in jclass.fields:
        classfile.fields.append(compile_field(field_decl, pool))
    for method in jclass.methods:
        classfile.methods.append(compile_method(jclass, method, pool))
    if jclass.source_file:
        classfile.attributes.append(
            SourceFileAttribute(pool.utf8(jclass.source_file)))
    return classfile


def compile_class_bytes(jclass: JClass) -> bytes:
    """Compile straight to classfile bytes."""
    from repro.classfile.writer import write_class

    return write_class(compile_class(jclass))
