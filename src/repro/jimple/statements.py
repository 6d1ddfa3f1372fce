"""Jimple statement language.

A method body is a flat list of statements; control flow uses string labels
(``LabelStmt``).  Values are either local names (strings starting with a
letter, ``$`` or ``r``/``i`` prefixes by convention) or :class:`Constant`
literals.  The language intentionally mirrors the fragments shown in
Table 2 of the paper: identity statements, field access, invocations,
assignments, and returns.

Statements are immutable values: every statement class, :class:`InvokeExpr`
and :class:`Trap` is a frozen dataclass, and the two container operands
(``InvokeExpr.args``, ``SwitchStmt.cases``) are tuples.  So a cloned method
body shares its statements with the body it was cloned from, and a mutator
that rewrites a statement puts a new one at its list position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.jimple.types import JType


@dataclass(frozen=True)
class Constant:
    """A literal operand.

    Attributes:
        value: ``None`` (null), ``int``, ``float``, or ``str``.
        jtype: the Jimple type of the literal.
    """

    value: object
    jtype: JType

    def __str__(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


#: A value operand: a local name or a constant.
Value = Union[str, Constant]


@dataclass(frozen=True)
class MethodRef:
    """A symbolic method reference ``<owner: ret name(params)>``.

    Attributes:
        owner: dotted class name.
        name: method name.
        return_type: return :class:`JType`.
        parameter_types: parameter :class:`JType` tuple.
        on_interface: whether the owner is an interface
            (selects ``invokeinterface``).
    """

    owner: str
    name: str
    return_type: JType
    parameter_types: Tuple[JType, ...]
    on_interface: bool = False

    def descriptor(self) -> str:
        params = "".join(t.descriptor() for t in self.parameter_types)
        return f"({params}){self.return_type.descriptor()}"

    def __str__(self) -> str:
        params = ",".join(str(t) for t in self.parameter_types)
        return f"<{self.owner}: {self.return_type} {self.name}({params})>"


@dataclass(frozen=True)
class FieldRef:
    """A symbolic field reference ``<owner: type name>``."""

    owner: str
    name: str
    jtype: JType

    def descriptor(self) -> str:
        return self.jtype.descriptor()

    def __str__(self) -> str:
        return f"<{self.owner}: {self.jtype} {self.name}>"


class Stmt:
    """Base class of all Jimple statements."""

    def locals_read(self) -> List[str]:
        """Names of locals this statement reads."""
        return []

    def locals_written(self) -> List[str]:
        """Names of locals this statement writes."""
        return []


@dataclass(frozen=True)
class LabelStmt(Stmt):
    """A jump target."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass(frozen=True)
class NopStmt(Stmt):
    def __str__(self) -> str:
        return "nop"


@dataclass(frozen=True)
class IdentityStmt(Stmt):
    """``local := @parameter<n>: type`` or ``local := @this: type``."""

    local: str
    source: str          # "this" or "parameter0", "parameter1", ...
    jtype: JType

    def locals_written(self) -> List[str]:
        return [self.local]

    @property
    def parameter_index(self) -> Optional[int]:
        if self.source.startswith("parameter"):
            return int(self.source[len("parameter"):])
        return None

    def __str__(self) -> str:
        return f"{self.local} := @{self.source}: {self.jtype}"


@dataclass(frozen=True)
class AssignConstStmt(Stmt):
    """``local = constant``."""

    local: str
    constant: Constant

    def locals_written(self) -> List[str]:
        return [self.local]

    def __str__(self) -> str:
        return f"{self.local} = {self.constant}"


@dataclass(frozen=True)
class AssignLocalStmt(Stmt):
    """``dst = src``."""

    dst: str
    src: str

    def locals_read(self) -> List[str]:
        return [self.src]

    def locals_written(self) -> List[str]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = {self.src}"


@dataclass(frozen=True)
class AssignBinopStmt(Stmt):
    """``dst = left <op> right`` over ints (``+ - * / % & | ^``)."""

    dst: str
    left: Value
    op: str
    right: Value

    def locals_read(self) -> List[str]:
        return [v for v in (self.left, self.right) if isinstance(v, str)]

    def locals_written(self) -> List[str]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = {self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class AssignCmpStmt(Stmt):
    """``dst = left <cmp> right`` — the three-way numeric compares.

    ``op`` is one of ``lcmp fcmpl fcmpg dcmpl dcmpg``; the result is the
    int ``-1/0/+1`` the matching JVM opcode pushes (NaN handling per
    opcode — the ``l``/``g`` suffix — is a vendor policy axis).
    """

    dst: str
    left: Value
    op: str
    right: Value

    def locals_read(self) -> List[str]:
        return [v for v in (self.left, self.right) if isinstance(v, str)]

    def locals_written(self) -> List[str]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = {self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class AssignUnopStmt(Stmt):
    """``dst = <op> src`` — negation and primitive conversions.

    ``op`` is one of ``ineg lneg fneg dneg i2l l2i i2b i2c i2s f2i f2l
    d2i d2l`` (the unary opcodes the interpreter implements).
    """

    dst: str
    op: str
    src: Value

    def locals_read(self) -> List[str]:
        return [self.src] if isinstance(self.src, str) else []

    def locals_written(self) -> List[str]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = {self.op} {self.src}"


@dataclass(frozen=True)
class AssignNewStmt(Stmt):
    """``local = new owner``."""

    local: str
    class_name: str      # dotted

    def locals_written(self) -> List[str]:
        return [self.local]

    def __str__(self) -> str:
        return f"{self.local} = new {self.class_name}"


@dataclass(frozen=True)
class AssignCastStmt(Stmt):
    """``dst = (type) src`` — a checkcast."""

    dst: str
    jtype: JType
    src: str

    def locals_read(self) -> List[str]:
        return [self.src]

    def locals_written(self) -> List[str]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = ({self.jtype}) {self.src}"


@dataclass(frozen=True)
class AssignInstanceOfStmt(Stmt):
    """``dst = src instanceof type``."""

    dst: str
    src: str
    jtype: JType

    def locals_read(self) -> List[str]:
        return [self.src]

    def locals_written(self) -> List[str]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = {self.src} instanceof {self.jtype}"


@dataclass(frozen=True)
class AssignFieldGetStmt(Stmt):
    """``dst = base.<field>`` or ``dst = <static field>``."""

    dst: str
    field_ref: FieldRef
    base: Optional[str] = None   # None for static

    def locals_read(self) -> List[str]:
        return [self.base] if self.base else []

    def locals_written(self) -> List[str]:
        return [self.dst]

    def __str__(self) -> str:
        if self.base:
            return f"{self.dst} = {self.base}.{self.field_ref}"
        return f"{self.dst} = {self.field_ref}"


@dataclass(frozen=True)
class AssignFieldPutStmt(Stmt):
    """``base.<field> = value`` or ``<static field> = value``."""

    field_ref: FieldRef
    value: Value
    base: Optional[str] = None   # None for static

    def locals_read(self) -> List[str]:
        reads = [self.value] if isinstance(self.value, str) else []
        if self.base:
            reads.append(self.base)
        return reads

    def __str__(self) -> str:
        target = f"{self.base}.{self.field_ref}" if self.base else str(self.field_ref)
        return f"{target} = {self.value}"


@dataclass(frozen=True)
class InvokeExpr:
    """An invocation expression.

    Attributes:
        kind: ``"static"``, ``"virtual"``, ``"special"``, or ``"interface"``.
        method: the callee reference.
        base: receiver local (``None`` for static).
        args: argument values (a list given here is stored as a tuple).
    """

    kind: str
    method: MethodRef
    base: Optional[str] = None
    args: Tuple[Value, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def locals_read(self) -> List[str]:
        reads = [a for a in self.args if isinstance(a, str)]
        if self.base:
            reads.append(self.base)
        return reads

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.base}." if self.base else ""
        return f"{self.kind}invoke {prefix}{self.method}({args})"


@dataclass(frozen=True)
class InvokeStmt(Stmt):
    """An invocation whose result (if any) is discarded."""

    invoke: InvokeExpr

    def locals_read(self) -> List[str]:
        return self.invoke.locals_read()

    def __str__(self) -> str:
        return str(self.invoke)


@dataclass(frozen=True)
class AssignInvokeStmt(Stmt):
    """``dst = <invocation>``."""

    dst: str
    invoke: InvokeExpr

    def locals_read(self) -> List[str]:
        return self.invoke.locals_read()

    def locals_written(self) -> List[str]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = {self.invoke}"


@dataclass(frozen=True)
class IfStmt(Stmt):
    """``if local <cond> 0 goto label`` — integer comparison to zero.

    ``cond`` is one of ``== != < >= > <=``.
    """

    local: str
    cond: str
    target: str

    def locals_read(self) -> List[str]:
        return [self.local]

    def __str__(self) -> str:
        return f"if {self.local} {self.cond} 0 goto {self.target}"


@dataclass(frozen=True)
class GotoStmt(Stmt):
    """``goto label``."""

    target: str

    def __str__(self) -> str:
        return f"goto {self.target}"


@dataclass(frozen=True)
class ReturnStmt(Stmt):
    """``return`` or ``return value``."""

    value: Optional[Value] = None

    def locals_read(self) -> List[str]:
        return [self.value] if isinstance(self.value, str) else []

    def __str__(self) -> str:
        return "return" if self.value is None else f"return {self.value}"


@dataclass(frozen=True)
class ThrowStmt(Stmt):
    """``throw local``."""

    local: str

    def locals_read(self) -> List[str]:
        return [self.local]

    def __str__(self) -> str:
        return f"throw {self.local}"


@dataclass(frozen=True)
class SwitchStmt(Stmt):
    """``switch(local) { case k: goto label; ... default: goto label }``.

    Compiled to ``lookupswitch`` (or ``tableswitch`` when the case keys
    are contiguous).  A list of cases given here is stored as a tuple.
    """

    local: str
    cases: Tuple[Tuple[int, str], ...]   # (match value, target label)
    default: str

    def __post_init__(self) -> None:
        if not isinstance(self.cases, tuple):
            object.__setattr__(self, "cases", tuple(self.cases))

    def locals_read(self) -> List[str]:
        return [self.local]

    def __str__(self) -> str:
        body = "; ".join(f"case {k}: goto {t}" for k, t in self.cases)
        return (f"switch({self.local}) {{ {body}; "
                f"default: goto {self.default} }}")


@dataclass(frozen=True)
class Trap:
    """A Soot-style trap: an exception handler over a labelled range.

    Attributes:
        begin_label/end_label: the protected statement range
            ``[begin, end)``, both labels in the body.
        handler_label: where control transfers on a match; the handler
            receives the thrown object via ``handler_local``.
        exception: dotted name of the caught type (``None`` = catch all).
        handler_local: local that binds the caught exception.
    """

    begin_label: str
    end_label: str
    handler_label: str
    exception: Optional[str]
    handler_local: str

    def __str__(self) -> str:
        caught = self.exception or "<any>"
        return (f"catch {caught} from {self.begin_label} to "
                f"{self.end_label} with {self.handler_label}")


#: Statement classes that end a method body path.
TERMINAL_STMTS = (ReturnStmt, ThrowStmt, GotoStmt, SwitchStmt)

