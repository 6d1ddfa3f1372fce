"""Lift a :class:`~repro.classfile.model.ClassFile` back into Jimple.

The lifter is the analogue of Soot *loading* a classfile into a
``SootClass``.  Structure (flags, hierarchy, members, thrown exceptions)
always lifts; method bodies lift through a small symbolic evaluator that
recognises the statement-shaped instruction runs our compiler emits.  A
body the evaluator cannot interpret is carried opaquely (``raw_code``) and
re-emitted verbatim on dump — statement mutators simply skip it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.bytecode.instructions import Instruction, InstructionError, decode_code
from repro.bytecode.opcodes import CONST, LOAD, RETURN, STORE, Op
from repro.classfile import access_flags as acc
from repro.classfile.attributes import ConstantValueAttribute
from repro.classfile.constant_pool import ConstantPool, ConstantPoolError, CpTag
from repro.classfile.descriptors import DescriptorError, parse_method_descriptor
from repro.classfile.model import ClassFile
from repro.jimple import statements as st
from repro.jimple import to_classfile
from repro.jimple.model import JClass, JField, JLocal, JMethod
from repro.jimple.types import (
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    OBJECT,
    JType,
    descriptor_to_java,
)


class JimpleLiftError(Exception):
    """The classfile cannot be lifted even structurally."""


class _BodyLiftError(Exception):
    """Internal: this body needs the raw-code fallback."""


def lift_class(classfile: ClassFile) -> JClass:
    """Lift ``classfile`` into a :class:`JClass`.

    Raises:
        JimpleLiftError: when even the structural skeleton is unreadable
            (dangling this/super indices, unparseable descriptors).
    """
    try:
        name = classfile.name.replace("/", ".")
        super_name = classfile.super_name
    except ConstantPoolError as exc:
        raise JimpleLiftError(f"unreadable class header: {exc}") from exc
    jclass = JClass(
        name=name,
        superclass=super_name.replace("/", ".") if super_name else None,
        modifiers=acc.modifiers(classfile.access_flags, acc.CLASS_FLAGS),
        major_version=classfile.major_version,
        minor_version=classfile.minor_version,
    )
    try:
        jclass.interfaces = [n.replace("/", ".")
                             for n in classfile.interface_names]
    except ConstantPoolError as exc:
        raise JimpleLiftError(f"unreadable interfaces: {exc}") from exc
    for field_info in classfile.fields:
        jclass.fields.append(_lift_field(classfile, field_info))
    for method_info in classfile.methods:
        jclass.methods.append(_lift_method(classfile, method_info))
    return jclass


def _lift_field(classfile: ClassFile, field_info) -> JField:
    pool = classfile.constant_pool
    try:
        name = classfile.field_name(field_info)
        jtype = JType(descriptor_to_java(classfile.field_descriptor(field_info)))
    except (ConstantPoolError, DescriptorError) as exc:
        raise JimpleLiftError(f"unreadable field: {exc}") from exc
    constant_value = None
    attr = field_info.attribute("ConstantValue")
    if isinstance(attr, ConstantValueAttribute):
        entry = pool.maybe_entry(attr.constant_index)
        if entry is not None:
            if entry.tag is CpTag.STRING:
                constant_value = pool.get_string(attr.constant_index)
            elif entry.tag in (CpTag.INTEGER, CpTag.FLOAT, CpTag.LONG,
                               CpTag.DOUBLE):
                constant_value = entry.value
    return JField(name, jtype, acc.modifiers(field_info.access_flags,
                                             acc.FIELD_FLAGS), constant_value)


def _lift_method(classfile: ClassFile, method_info) -> JMethod:
    pool = classfile.constant_pool
    try:
        name = classfile.method_name(method_info)
        descriptor = classfile.method_descriptor(method_info)
        parsed = parse_method_descriptor(descriptor)
    except (ConstantPoolError, DescriptorError) as exc:
        raise JimpleLiftError(f"unreadable method: {exc}") from exc
    method = JMethod(
        name=name,
        return_type=(JType(parsed.return_type.java_name)
                     if parsed.return_type else JType("void")),
        parameter_types=[JType(p.java_name) for p in parsed.parameters],
        modifiers=acc.modifiers(method_info.access_flags, acc.METHOD_FLAGS),
    )
    exceptions = method_info.exceptions
    if exceptions is not None:
        try:
            method.thrown = [n.replace("/", ".")
                             for n in exceptions.exception_names(pool)]
        except ConstantPoolError:
            method.thrown = []
    code = method_info.code
    if code is None:
        method.body = None
        return method
    if code.exception_table:
        # Exception tables reference byte offsets; carrying them through
        # statement-level lifting would require trap reconstruction, so
        # such bodies round-trip opaquely instead of losing their traps.
        method.body = None
        method.raw_code = (code, pool)
        return method
    try:
        locals_, body = _BodyLifter(method, pool).lift(code.code)
        method.locals = locals_
        method.body = body
    except _BodyLiftError:
        method.body = None
        method.raw_code = (code, pool)
    return method


# ---------------------------------------------------------------------------
# Body lifting: a symbolic evaluator over statement-shaped instruction runs
# ---------------------------------------------------------------------------

#: Symbolic stack entries: either a plain value or a one-shot expression.
_StackItem = Union[st.Constant, str, Tuple[str, object]]

#: Opcode → Jimple operator and condition: the compiler's choices, read
#: back.
_BINOP_OPS = {op: symbol for symbol, op in to_classfile._BINOPS.items()}
_IF_OPS = {op: cond for cond, op in to_classfile._IF_OPS.items()}

#: Store opcode category → the type of a local that such a store fills.
_STORE_TYPES = {"i": INT, "l": LONG, "f": FLOAT, "d": DOUBLE, "a": OBJECT}


class _BodyLifter:
    """Lifts one decoded method body to statements."""

    def __init__(self, method: JMethod, pool: ConstantPool):
        self.method = method
        self.pool = pool
        self.stack: List[_StackItem] = []
        self.local_types: Dict[str, JType] = {}
        self.slot_names: Dict[int, str] = {}
        self.param_slots: Dict[int, Union[int, str]] = {}
        self.body: List[st.Stmt] = []
        self._map_parameters()

    def _map_parameters(self) -> None:
        slot = 0
        if not self.method.is_static:
            self.param_slots[0] = "this"
            slot = 1
        for index, ptype in enumerate(self.method.parameter_types):
            self.param_slots[slot] = index
            slot += max(1, ptype.slots)

    def lift(self, code: bytes) -> Tuple[List[JLocal], List[st.Stmt]]:
        try:
            instructions = decode_code(code)
        except InstructionError as exc:
            raise _BodyLiftError(str(exc)) from exc
        labels = self._label_map(instructions)
        for instruction in instructions:
            if instruction.offset in labels:
                if self.stack:
                    raise _BodyLiftError("values live across a label")
                self.body.append(st.LabelStmt(labels[instruction.offset]))
            self._lift_instruction(instruction, labels)
        if self.stack:
            raise _BodyLiftError("leftover stack values at end of body")
        locals_ = [JLocal(name, jtype)
                   for name, jtype in self.local_types.items()]
        return locals_, self.body

    def _label_map(self, instructions: List[Instruction]) -> Dict[int, str]:
        targets = sorted({t for instruction in instructions
                          for t in instruction.branch_targets()})
        return {offset: f"label{i}" for i, offset in enumerate(targets)}

    # -- helpers ---------------------------------------------------------------

    def _pop(self) -> _StackItem:
        if not self.stack:
            raise _BodyLiftError("stack underflow")
        return self.stack.pop()

    def _pop_value(self) -> st.Value:
        item = self._pop()
        if isinstance(item, (str, st.Constant)):
            return item
        raise _BodyLiftError("expression used where a value was expected")

    def _pop_local(self) -> str:
        item = self._pop()
        if isinstance(item, str):
            return item
        raise _BodyLiftError("local expected")

    def _local_for_slot(self, slot: int, jtype: Optional[JType]) -> str:
        name = self.slot_names.get(slot)
        if name is None:
            name = f"l{slot}"
            self.slot_names[slot] = name
            self.local_types[name] = jtype or JType("java.lang.Object")
        return name

    def _value_type(self, item: _StackItem) -> Optional[JType]:
        if isinstance(item, st.Constant):
            return item.jtype
        if isinstance(item, str):
            return self.local_types.get(item)
        return None

    def _member_ref(self, index: int, is_field: bool,
                    on_interface: bool = False):
        try:
            owner, name, descriptor = self.pool.get_member_ref(index)
        except ConstantPoolError as exc:
            raise _BodyLiftError(f"bad member ref: {exc}") from exc
        owner_dotted = owner.replace("/", ".")
        if is_field:
            try:
                jtype = JType(descriptor_to_java(descriptor))
            except DescriptorError as exc:
                raise _BodyLiftError(str(exc)) from exc
            return st.FieldRef(owner_dotted, name, jtype)
        try:
            parsed = parse_method_descriptor(descriptor)
        except DescriptorError as exc:
            raise _BodyLiftError(str(exc)) from exc
        return st.MethodRef(
            owner_dotted, name,
            JType(parsed.return_type.java_name) if parsed.return_type
            else JType("void"),
            tuple(JType(p.java_name) for p in parsed.parameters),
            on_interface=on_interface)

    def _store(self, slot: int, cat: str) -> None:
        item = self._pop()
        jtype = self._value_type(item)
        if isinstance(item, tuple):
            kind, payload = item
            jtype = payload.get("type") if isinstance(payload, dict) else None
        name = self._local_for_slot(slot, jtype)
        if isinstance(item, st.Constant):
            self.body.append(st.AssignConstStmt(name, item))
        elif isinstance(item, str):
            self.body.append(st.AssignLocalStmt(name, item))
        else:
            kind, payload = item
            if kind == "param":
                self.body.append(st.IdentityStmt(
                    name, payload["source"], payload["type"]))
                self.local_types[name] = payload["type"]
            elif kind == "invoke":
                self.body.append(st.AssignInvokeStmt(name, payload["expr"]))
                self.local_types[name] = payload["type"]
            elif kind == "getstatic":
                self.body.append(st.AssignFieldGetStmt(name, payload["ref"]))
                self.local_types[name] = payload["ref"].jtype
            elif kind == "getfield":
                self.body.append(st.AssignFieldGetStmt(
                    name, payload["ref"], payload["base"]))
                self.local_types[name] = payload["ref"].jtype
            elif kind == "binop":
                self.body.append(st.AssignBinopStmt(
                    name, payload["left"], payload["op"], payload["right"]))
                self.local_types[name] = INT
            elif kind == "new":
                self.body.append(st.AssignNewStmt(name, payload["class"]))
                self.local_types[name] = JType(payload["class"])
            elif kind == "cast":
                self.body.append(st.AssignCastStmt(
                    name, payload["type"], payload["src"]))
                self.local_types[name] = payload["type"]
            elif kind == "instanceof":
                self.body.append(st.AssignInstanceOfStmt(
                    name, payload["src"], payload["type"]))
                self.local_types[name] = INT
            else:  # pragma: no cover - closed set
                raise _BodyLiftError(f"unliftable expression {kind}")
        if self.local_types[name].category != cat:
            # The store opcode, not the stored value, says what the slot
            # holds: an ``istore`` of a reference must recompile as an
            # ``istore``, or the verifier's verdict on it is lost.
            self.local_types[name] = _STORE_TYPES[cat]

    # -- the evaluator ----------------------------------------------------------

    def _lift_instruction(self, instruction: Instruction,
                          labels: Dict[int, str]) -> None:
        op = instruction.op
        info = instruction.info
        operands = instruction.operands

        if op is Op.NOP:
            self.body.append(st.NopStmt())
        elif info.family == CONST and info.cat == "i":
            self.stack.append(st.Constant(
                operands["value"] if info.implicit is None else info.implicit,
                INT))
        elif op is Op.ACONST_NULL:
            self.stack.append(st.Constant(None, JType("java.lang.Object")))
        elif op in (Op.LDC, Op.LDC_W, Op.LDC2_W):
            self._lift_ldc(operands["index"])  # type: ignore[arg-type]
        elif info.family == LOAD:
            self._lift_load(operands.get("index", info.implicit))  # type: ignore[arg-type]
        elif info.family == STORE:
            self._store(operands.get("index", info.implicit),  # type: ignore[arg-type]
                        info.cat)
        elif op in _BINOP_OPS:
            right = self._pop_value()
            left = self._pop_value()
            self.stack.append(("binop", {"left": left, "right": right,
                                         "op": _BINOP_OPS[op]}))
        elif op is Op.GETSTATIC:
            ref = self._member_ref(operands["index"], is_field=True)  # type: ignore[arg-type]
            self.stack.append(("getstatic", {"ref": ref}))
        elif op is Op.GETFIELD:
            ref = self._member_ref(operands["index"], is_field=True)  # type: ignore[arg-type]
            base = self._pop_local()
            self.stack.append(("getfield", {"ref": ref, "base": base}))
        elif op is Op.PUTSTATIC:
            ref = self._member_ref(operands["index"], is_field=True)  # type: ignore[arg-type]
            value = self._pop_value()
            self.body.append(st.AssignFieldPutStmt(ref, value))
        elif op is Op.PUTFIELD:
            ref = self._member_ref(operands["index"], is_field=True)  # type: ignore[arg-type]
            value = self._pop_value()
            base = self._pop_local()
            self.body.append(st.AssignFieldPutStmt(ref, value, base))
        elif op in (Op.INVOKEVIRTUAL, Op.INVOKESPECIAL, Op.INVOKESTATIC,
                    Op.INVOKEINTERFACE):
            self._lift_invoke(op, operands["index"])  # type: ignore[arg-type]
        elif op in (Op.POP, Op.POP2):
            item = self._pop()
            if isinstance(item, tuple) and item[0] == "invoke":
                self.body.append(st.InvokeStmt(item[1]["expr"]))
            # Anything else popped silently disappears, as in Jimple.
        elif op is Op.NEW:
            class_name = self._class_name(operands["index"])  # type: ignore[arg-type]
            self.stack.append(("new", {"class": class_name}))
        elif op is Op.CHECKCAST:
            class_name = self._class_name(operands["index"])  # type: ignore[arg-type]
            src = self._pop_local()
            self.stack.append(("cast", {"type": JType(class_name), "src": src}))
        elif op is Op.INSTANCEOF:
            class_name = self._class_name(operands["index"])  # type: ignore[arg-type]
            src = self._pop_local()
            self.stack.append(("instanceof", {"type": JType(class_name),
                                              "src": src}))
        elif op in _IF_OPS:
            local = self._pop_local()
            target = labels[operands["target"]]  # type: ignore[index]
            self.body.append(st.IfStmt(local, _IF_OPS[op], target))
        elif op is Op.GOTO:
            self.body.append(st.GotoStmt(labels[operands["target"]]))  # type: ignore[index]
        elif op is Op.TABLESWITCH:
            local = self._pop_local()
            low = operands["low"]
            cases = [(low + i, labels[target]) for i, target
                     in enumerate(operands["targets"])]  # type: ignore[arg-type]
            self.body.append(st.SwitchStmt(
                local, cases, labels[operands["default"]]))  # type: ignore[index]
        elif op is Op.LOOKUPSWITCH:
            local = self._pop_local()
            cases = [(match, labels[target])
                     for match, target in operands["pairs"]]  # type: ignore[union-attr]
            self.body.append(st.SwitchStmt(
                local, cases, labels[operands["default"]]))  # type: ignore[index]
        elif info.family == RETURN:
            self.body.append(st.ReturnStmt() if info.cat == "v"
                             else st.ReturnStmt(self._pop_value()))
        elif op is Op.ATHROW:
            self.body.append(st.ThrowStmt(self._pop_local()))
        else:
            raise _BodyLiftError(f"unliftable opcode {op.name}")

    def _class_name(self, index: int) -> str:
        try:
            return self.pool.get_class_name(index).replace("/", ".")
        except ConstantPoolError as exc:
            raise _BodyLiftError(f"bad class ref: {exc}") from exc

    def _lift_ldc(self, index: int) -> None:
        entry = self.pool.maybe_entry(index)
        if entry is None:
            raise _BodyLiftError(f"dangling ldc index {index}")
        if entry.tag is CpTag.STRING:
            self.stack.append(st.Constant(self.pool.get_string(index),
                                          JType("java.lang.String")))
        elif entry.tag is CpTag.INTEGER:
            self.stack.append(st.Constant(entry.value, INT))
        elif entry.tag is CpTag.FLOAT:
            self.stack.append(st.Constant(entry.value, JType("float")))
        elif entry.tag is CpTag.LONG:
            self.stack.append(st.Constant(entry.value, JType("long")))
        elif entry.tag is CpTag.DOUBLE:
            self.stack.append(st.Constant(entry.value, JType("double")))
        else:
            raise _BodyLiftError(f"unliftable ldc of {entry.tag.name}")

    def _lift_load(self, slot: int) -> None:
        if slot in self.slot_names:
            self.stack.append(self.slot_names[slot])
            return
        param = self.param_slots.get(slot)
        if param == "this":
            owner = JType("java.lang.Object")
            self.stack.append(("param", {"source": "this", "type": owner}))
            return
        if isinstance(param, int) and param < len(self.method.parameter_types):
            ptype = self.method.parameter_types[param]
            self.stack.append(("param", {"source": f"parameter{param}",
                                         "type": ptype}))
            return
        raise _BodyLiftError(f"load from unknown slot {slot}")

    def _lift_invoke(self, op: Op, index: int) -> None:
        ref = self._member_ref(index, is_field=False,
                               on_interface=op is Op.INVOKEINTERFACE)
        args: List[st.Value] = []
        for _ in ref.parameter_types:
            args.append(self._pop_value())
        args.reverse()
        base = None
        kind = {Op.INVOKEVIRTUAL: "virtual", Op.INVOKESPECIAL: "special",
                Op.INVOKESTATIC: "static",
                Op.INVOKEINTERFACE: "interface"}[op]
        if op is not Op.INVOKESTATIC:
            base_item = self._pop()
            if isinstance(base_item, str):
                base = base_item
            elif isinstance(base_item, tuple) and base_item[0] == "param":
                # Receiver loaded straight from a parameter slot: synthesise
                # an identity local so the expression stays statement-shaped.
                payload = base_item[1]
                name = f"r_{payload['source']}"
                if name not in self.local_types:
                    self.local_types[name] = payload["type"]
                    self.body.append(st.IdentityStmt(
                        name, payload["source"], payload["type"]))
                base = name
            else:
                raise _BodyLiftError("unliftable invoke receiver")
        expr = st.InvokeExpr(kind, ref, base, args)
        if ref.return_type.is_void:
            self.body.append(st.InvokeStmt(expr))
        else:
            self.stack.append(("invoke", {"expr": expr,
                                          "type": ref.return_type}))
