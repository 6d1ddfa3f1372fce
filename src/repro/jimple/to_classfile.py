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

from typing import Dict, List, Optional

from repro.bytecode.assembler import Assembler
from repro.bytecode.instructions import InstructionError
from repro.bytecode.opcodes import OPCODES, SLOTS, Op
from repro.classfile.access_flags import AccessFlags
from repro.classfile.attributes import (
    CodeAttribute,
    ConstantValueAttribute,
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


#: Modifier string → class-context flag.
_CLASS_FLAGS = {
    "public": AccessFlags.PUBLIC,
    "private": AccessFlags.PRIVATE,
    "protected": AccessFlags.PROTECTED,
    "final": AccessFlags.FINAL,
    "super": AccessFlags.SUPER,
    "interface": AccessFlags.INTERFACE,
    "abstract": AccessFlags.ABSTRACT,
    "synthetic": AccessFlags.SYNTHETIC,
    "annotation": AccessFlags.ANNOTATION,
    "enum": AccessFlags.ENUM,
}

#: Modifier string → field-context flag.
_FIELD_FLAGS = {
    "public": AccessFlags.PUBLIC,
    "private": AccessFlags.PRIVATE,
    "protected": AccessFlags.PROTECTED,
    "static": AccessFlags.STATIC,
    "final": AccessFlags.FINAL,
    "volatile": AccessFlags.VOLATILE,
    "transient": AccessFlags.TRANSIENT,
    "synthetic": AccessFlags.SYNTHETIC,
    "enum": AccessFlags.ENUM,
}

#: Modifier string → method-context flag.
_METHOD_FLAGS = {
    "public": AccessFlags.PUBLIC,
    "private": AccessFlags.PRIVATE,
    "protected": AccessFlags.PROTECTED,
    "static": AccessFlags.STATIC,
    "final": AccessFlags.FINAL,
    "synchronized": AccessFlags.SYNCHRONIZED,
    "bridge": AccessFlags.BRIDGE,
    "varargs": AccessFlags.VARARGS,
    "native": AccessFlags.NATIVE,
    "abstract": AccessFlags.ABSTRACT,
    "strictfp": AccessFlags.STRICT,
    "synthetic": AccessFlags.SYNTHETIC,
}


def _flags(modifiers: List[str], table: Dict[str, AccessFlags]) -> AccessFlags:
    flags = AccessFlags.NONE
    for modifier in modifiers:
        flags |= table.get(modifier, AccessFlags.NONE)
    return flags


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


class _MethodCompiler:
    """Compiles one Jimple method body to a ``Code`` attribute."""

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

    def _emit_load(self, name: str) -> int:
        """Load local ``name``; returns pushed slot count."""
        jtype = self._type(name)
        self.asm.emit(_LOAD_OPS[jtype.category], index=self._slot(name))
        slots = max(1, jtype.slots)
        self._push(slots)
        return slots

    def _emit_store(self, name: str) -> None:
        jtype = self._type(name)
        self.asm.emit(_STORE_OPS[jtype.category], index=self._slot(name))
        self._pop(max(1, jtype.slots))

    def _emit_constant(self, constant: st.Constant) -> int:
        """Push ``constant``; returns pushed slot count."""
        value, jtype = constant.value, constant.jtype
        if value is None:
            self.asm.emit(Op.ACONST_NULL)
            self._push(1)
            return 1
        if isinstance(value, str):
            self.asm.emit(Op.LDC_W, index=self.pool.string(value))
            self._push(1)
            return 1
        if jtype.name == "long":
            self.asm.emit(Op.LDC2_W, index=self.pool.long(int(value)))
            self._push(2)
            return 2
        if jtype.name == "double":
            self.asm.emit(Op.LDC2_W, index=self.pool.double(float(value)))
            self._push(2)
            return 2
        if jtype.name == "float":
            self.asm.emit(Op.LDC_W, index=self.pool.float_(float(value)))
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
            self.asm.emit(Op.LDC_W, index=self.pool.integer(int_value))
        self._push(1)
        return 1

    def _emit_value(self, value: st.Value) -> int:
        if isinstance(value, st.Constant):
            return self._emit_constant(value)
        return self._emit_load(value)

    # -- member references ---------------------------------------------------------

    def _field_ref(self, ref: st.FieldRef) -> int:
        return self.pool.field_ref(ref.owner.replace(".", "/"), ref.name,
                                   ref.descriptor())

    def _method_ref(self, ref: st.MethodRef) -> int:
        owner = ref.owner.replace(".", "/")
        if ref.on_interface:
            return self.pool.interface_method_ref(owner, ref.name,
                                                  ref.descriptor())
        return self.pool.method_ref(owner, ref.name, ref.descriptor())

    # -- statements ------------------------------------------------------------------

    def compile(self) -> CodeAttribute:
        """Compile the whole body."""
        assert self.method.body is not None
        for stmt in self.method.body:
            self._compile_stmt(stmt)
            if not isinstance(stmt, st.LabelStmt):
                self._end_stmt()
        try:
            code = self.asm.build()
        except InstructionError as exc:
            raise JimpleCompileError(
                f"{self.jclass.name}.{self.method.name}: {exc}") from exc
        if not code:
            raise JimpleCompileError(
                f"{self.jclass.name}.{self.method.name}: empty body")
        return CodeAttribute(max_stack=max(self.max_stack, 1),
                             max_locals=max(self.next_slot, 1),
                             code=code,
                             exception_table=self._compile_traps())

    def _compile_traps(self):
        from repro.classfile.attributes import ExceptionHandler

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
            catch_type = 0
            if trap.exception is not None:
                catch_type = self.pool.class_ref(
                    trap.exception.replace(".", "/"))
            handlers.append(ExceptionHandler(
                offsets[trap.begin_label], offsets[trap.end_label],
                offsets[trap.handler_label], catch_type))
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
            index = self.pool.class_ref(stmt.class_name.replace(".", "/"))
            self.asm.emit(Op.NEW, index=index)
            self._push(1)
            self._emit_store(stmt.local)
        elif isinstance(stmt, st.AssignCastStmt):
            self._emit_load(stmt.src)
            index = self.pool.class_ref(stmt.jtype.internal_name)
            self.asm.emit(Op.CHECKCAST, index=index)
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignInstanceOfStmt):
            self._emit_load(stmt.src)
            index = self.pool.class_ref(stmt.jtype.internal_name)
            self.asm.emit(Op.INSTANCEOF, index=index)
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignFieldGetStmt):
            if stmt.base is None:
                self.asm.emit(Op.GETSTATIC, index=self._field_ref(stmt.field_ref))
                self._push(max(1, stmt.field_ref.jtype.slots))
            else:
                self._emit_load(stmt.base)
                self.asm.emit(Op.GETFIELD, index=self._field_ref(stmt.field_ref))
                self._pop(1)
                self._push(max(1, stmt.field_ref.jtype.slots))
            self._emit_store(stmt.dst)
        elif isinstance(stmt, st.AssignFieldPutStmt):
            if stmt.base is None:
                self._emit_value(stmt.value)
                self.asm.emit(Op.PUTSTATIC, index=self._field_ref(stmt.field_ref))
            else:
                self._emit_load(stmt.base)
                self._emit_value(stmt.value)
                self.asm.emit(Op.PUTFIELD, index=self._field_ref(stmt.field_ref))
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
        self.asm.emit(_LOAD_OPS[ptype.category],
                      index=self.param_slots[index])
        self._push(max(1, ptype.slots))
        self._emit_store(stmt.local)

    def _compile_invoke(self, invoke: st.InvokeExpr) -> int:
        """Emit an invocation; returns pushed result slot count."""
        if invoke.base is not None:
            self._emit_load(invoke.base)
        arg_slots = 0
        for arg in invoke.args:
            arg_slots += self._emit_value(arg)
        index = self._method_ref(invoke.method)
        kind = invoke.kind
        if kind == "static":
            self.asm.emit(Op.INVOKESTATIC, index=index)
        elif kind == "virtual":
            self.asm.emit(Op.INVOKEVIRTUAL, index=index)
        elif kind == "special":
            self.asm.emit(Op.INVOKESPECIAL, index=index)
        elif kind == "interface":
            count = arg_slots + 1
            self.asm.emit(Op.INVOKEINTERFACE, index=index,
                          count=count, zero=0)
        else:
            raise JimpleCompileError(f"unknown invoke kind {kind!r}")
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

    Raises:
        JimpleCompileError: when the body cannot be dumped.
    """
    attributes = []
    if method.body is not None:
        attributes.append(_MethodCompiler(jclass, method, pool).compile())
    elif method.raw_code is not None:
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
