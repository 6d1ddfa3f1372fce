"""Classfile attributes (JVMS §4.7).

Attributes attach metadata to classes, fields, methods, and ``Code`` blocks.
We model the attributes the JVM startup pipeline interprets (``Code``,
``Exceptions``, ``ConstantValue``, ``SourceFile``) as typed dataclasses; any
other attribute round-trips untouched as a :class:`RawAttribute`, exactly as
real JVMs ignore attributes they do not recognise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.bytecode import instructions as bytecode
from repro.bytecode.instructions import Instruction, InstructionError
from repro.classfile.constant_pool import ConstantPool


@dataclass
class Attribute:
    """Base class for all attributes.

    Attributes:
        name: the attribute's name as stored in the constant pool.
    """

    name: str


@dataclass
class RawAttribute(Attribute):
    """An attribute we carry opaquely as bytes."""

    data: bytes = b""


@dataclass
class ExceptionHandler:
    """One entry of a ``Code`` attribute's exception table.

    Attributes:
        start_pc/end_pc: the protected bytecode range ``[start_pc, end_pc)``.
        handler_pc: where control transfers on a match.
        catch_type: constant-pool ``Class`` index of the caught type,
            or 0 to catch everything (``finally``).
    """

    start_pc: int
    end_pc: int
    handler_pc: int
    catch_type: int


@dataclass
class CodeAttribute(Attribute):
    """The ``Code`` attribute: a method body.

    Attributes:
        max_stack: declared operand-stack depth.
        max_locals: declared local-variable count.
        code: raw bytecode.
        exception_table: exception handlers.
        attributes: nested attributes (line numbers etc., kept raw).
    """

    max_stack: int = 0
    max_locals: int = 0
    code: bytes = b""
    exception_table: List[ExceptionHandler] = field(default_factory=list)
    attributes: List[Attribute] = field(default_factory=list)

    #: ``(code, instructions or InstructionError)`` once :meth:`decoded`
    #: ran; not a field, so equality and repr ignore it.
    _decoded = None

    def __init__(self, max_stack: int = 0, max_locals: int = 0,
                 code: bytes = b"",
                 exception_table: List[ExceptionHandler] | None = None,
                 attributes: List[Attribute] | None = None,
                 name: str = "Code"):
        super().__init__(name=name)
        self.max_stack = max_stack
        self.max_locals = max_locals
        self.code = code
        self.exception_table = exception_table or []
        self.attributes = attributes or []

    def decoded(self) -> Tuple[Instruction, ...]:
        """The instructions of :attr:`code`, decoded once and shared.

        The verifier and the interpreter of every vendor that runs this
        parse read the same tuple; none of them may write into it or into
        an instruction's operands (:mod:`repro.jimple.remap`, which
        rewrites what it decodes, calls ``decode_code`` itself).  The
        decode is redone only if ``code`` is replaced.

        Raises:
            InstructionError: when the code array does not decode (again
                on every call, without decoding again).
        """
        cached = self._decoded
        if cached is None or cached[0] is not self.code:
            try:
                # Looked up on the module at call time, so a wrapper put
                # there (a tracer, a test's counter) sees every decode.
                result = tuple(bytecode.decode_code(self.code))
            except InstructionError as exc:
                result = exc
            cached = self._decoded = (self.code, result)
        if isinstance(cached[1], InstructionError):
            raise InstructionError(*cached[1].args)
        return cached[1]

    def __getstate__(self):
        # The decode is a per-process cache: pickles (journal frames,
        # worker payloads) and copies carry the fields only.
        state = self.__dict__.copy()
        state.pop("_decoded", None)
        return state


@dataclass
class ExceptionsAttribute(Attribute):
    """The ``Exceptions`` attribute: a method's declared thrown types.

    Attributes:
        exception_indices: constant-pool ``Class`` indices.
    """

    exception_indices: List[int] = field(default_factory=list)

    def __init__(self, exception_indices: List[int] | None = None,
                 name: str = "Exceptions"):
        super().__init__(name=name)
        self.exception_indices = exception_indices or []

    def exception_names(self, pool: ConstantPool) -> List[str]:
        """Resolve the declared exception class names through ``pool``."""
        return [pool.get_class_name(i) for i in self.exception_indices]


@dataclass
class ConstantValueAttribute(Attribute):
    """The ``ConstantValue`` attribute on ``static final`` fields."""

    constant_index: int = 0

    def __init__(self, constant_index: int = 0, name: str = "ConstantValue"):
        super().__init__(name=name)
        self.constant_index = constant_index


@dataclass
class SourceFileAttribute(Attribute):
    """The ``SourceFile`` attribute on a class."""

    sourcefile_index: int = 0

    def __init__(self, sourcefile_index: int = 0, name: str = "SourceFile"):
        super().__init__(name=name)
        self.sourcefile_index = sourcefile_index


def find_attribute(attributes: List[Attribute], name: str) -> Attribute | None:
    """First attribute called ``name``, or ``None``."""
    for attr in attributes:
        if attr.name == name:
            return attr
    return None


def count_attributes(attributes: List[Attribute], name: str) -> int:
    """How many attributes called ``name`` are present (duplicates are
    a format error for Code/Exceptions — JVMs differ in enforcing it)."""
    return sum(1 for attr in attributes if attr.name == name)
