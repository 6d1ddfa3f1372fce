"""The Jimple class model: ``JClass``, ``JMethod``, ``JField``, ``JLocal``.

These play the role of Soot's ``SootClass``/``SootMethod``/``SootField``:
a symbol-level, mutable view of a class that mutators rewrite and the
compiler dumps to classfile bytes.  Modifiers are plain lowercase strings
(``"public"``, ``"static"``, ...) so mutators can introduce contradictory
combinations a strict JVM must reject.  The lists are mutable; their
elements — statements, traps and locals — are immutable values that
clones share, so a mutator edits a body by putting a new element in its
list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.jimple.statements import Stmt, Trap
from repro.jimple.types import JType, VOID

#: Modifier strings meaningful on a class.
CLASS_MODIFIERS = ("public", "private", "protected", "final", "abstract",
                   "interface", "enum", "annotation", "synthetic", "super")

#: Modifier strings meaningful on a field.
FIELD_MODIFIERS = ("public", "private", "protected", "static", "final",
                   "volatile", "transient", "synthetic", "enum")

#: Modifier strings meaningful on a method.
METHOD_MODIFIERS = ("public", "private", "protected", "static", "final",
                    "synchronized", "bridge", "varargs", "native", "abstract",
                    "strictfp", "synthetic")


@dataclass(frozen=True)
class MethodSignature:
    """A method's identity inside one class: name + parameter types + return."""

    name: str
    parameter_types: Tuple[JType, ...]
    return_type: JType

    def descriptor(self) -> str:
        params = "".join(t.descriptor() for t in self.parameter_types)
        return f"({params}){self.return_type.descriptor()}"

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.parameter_types)
        return f"{self.return_type} {self.name}({params})"


@dataclass(frozen=True)
class FieldSignature:
    """A field's identity inside one class: name + type."""

    name: str
    jtype: JType

    def __str__(self) -> str:
        return f"{self.jtype} {self.name}"


@dataclass(frozen=True)
class JLocal:
    """A method-body local variable declaration (immutable, shared)."""

    name: str
    jtype: JType

    def __str__(self) -> str:
        return f"{self.jtype} {self.name}"


@dataclass
class JField:
    """A field declaration.

    Attributes:
        name: field name.
        jtype: declared type.
        modifiers: modifier strings (order-irrelevant, duplicates allowed
            only conceptually — stored as a list so mutants can carry
            contradictory sets).
        constant_value: optional compile-time constant for
            ``static final`` fields.
    """

    name: str
    jtype: JType
    modifiers: List[str] = field(default_factory=list)
    constant_value: Optional[object] = None

    def has_modifier(self, modifier: str) -> bool:
        return modifier in self.modifiers

    @property
    def signature(self) -> FieldSignature:
        return FieldSignature(self.name, self.jtype)

    def clone(self) -> "JField":
        """An independently mutable copy (constant values are literals)."""
        return JField(self.name, self.jtype, list(self.modifiers),
                      self.constant_value)


@dataclass
class JMethod:
    """A method declaration with an optional Jimple body.

    Attributes:
        name: method name (may be ``<init>``/``<clinit>``).
        return_type: declared return type.
        parameter_types: declared parameters.
        modifiers: modifier strings.
        thrown: declared thrown exception class names (dotted).
        locals: body local declarations.
        body: Jimple statements; ``None`` means *no Code attribute*
            (normal for abstract/native methods; a format violation
            otherwise — exactly the corner JVMs disagree about) unless
            ``raw_code`` is set.
        raw_code: opaque pre-compiled code carried through when the lifter
            could not recover statements; re-emitted verbatim on dump.
            Statement-level mutators skip raw bodies.
        traps: Soot-style exception handlers over labelled body ranges.
    """

    name: str
    return_type: JType = VOID
    parameter_types: List[JType] = field(default_factory=list)
    modifiers: List[str] = field(default_factory=list)
    thrown: List[str] = field(default_factory=list)
    locals: List[JLocal] = field(default_factory=list)
    body: Optional[List[Stmt]] = None
    raw_code: Optional[object] = None
    traps: List[Trap] = field(default_factory=list)

    #: The compiler's replay template for this method (see
    #: :func:`repro.jimple.to_classfile.compile_method`).  A per-process
    #: cache, not a field: equality and repr ignore it, :meth:`clone`
    #: passes it on by reference, and pickles and deep copies drop it.
    template = None

    def has_modifier(self, modifier: str) -> bool:
        return modifier in self.modifiers

    @property
    def is_static(self) -> bool:
        return self.has_modifier("static")

    @property
    def is_abstract(self) -> bool:
        return self.has_modifier("abstract")

    @property
    def is_native(self) -> bool:
        return self.has_modifier("native")

    @property
    def signature(self) -> MethodSignature:
        return MethodSignature(self.name, tuple(self.parameter_types),
                               self.return_type)

    def descriptor(self) -> str:
        return self.signature.descriptor()

    def find_local(self, name: str) -> Optional[JLocal]:
        """The declared local called ``name``, if any."""
        for local in self.locals:
            if local.name == name:
                return local
        return None

    def clone(self) -> "JMethod":
        """A copy whose lists mutate independently of this method's.

        The lists are copied; their elements — statements, locals, traps
        and types — are immutable and shared.  ``raw_code`` is carried by
        reference too: an opaque pre-compiled blob the pipeline only
        re-emits verbatim.  So is the compile :attr:`template`, which
        applies to the copy only while its body, locals and traps are
        still the very objects the template was made from.
        """
        dup = JMethod(
            name=self.name,
            return_type=self.return_type,
            parameter_types=list(self.parameter_types),
            modifiers=list(self.modifiers),
            thrown=list(self.thrown),
            locals=list(self.locals),
            body=None if self.body is None else list(self.body),
            raw_code=self.raw_code,
            traps=list(self.traps),
        )
        if self.template is not None:
            dup.template = self.template
        return dup

    def __getstate__(self):
        # The template is a per-process cache: pickles (journal frames,
        # worker payloads) and deep copies carry the fields only.
        state = self.__dict__.copy()
        state.pop("template", None)
        return state


@dataclass
class JClass:
    """A mutable, symbol-level class — the unit classfuzz mutates.

    Attributes:
        name: dotted class name.
        superclass: dotted superclass name (``None`` only for
            ``java.lang.Object`` itself).
        interfaces: dotted names of implemented interfaces.
        modifiers: class modifier strings.
        fields/methods: member lists (duplicates permitted — some JVMs
            accept them, a divergence the paper reports).
        major_version/minor_version: classfile version to dump with.
        source_file: optional SourceFile attribute value.
    """

    name: str
    superclass: Optional[str] = "java.lang.Object"
    interfaces: List[str] = field(default_factory=list)
    modifiers: List[str] = field(default_factory=lambda: ["public", "super"])
    fields: List[JField] = field(default_factory=list)
    methods: List[JMethod] = field(default_factory=list)
    major_version: int = 51
    minor_version: int = 0
    source_file: Optional[str] = None

    def has_modifier(self, modifier: str) -> bool:
        return modifier in self.modifiers

    @property
    def is_interface(self) -> bool:
        return self.has_modifier("interface")

    @property
    def internal_name(self) -> str:
        return self.name.replace(".", "/")

    def find_method(self, name: str) -> Optional[JMethod]:
        """First method called ``name``."""
        for method in self.methods:
            if method.name == name:
                return method
        return None

    def find_field(self, name: str) -> Optional[JField]:
        """First field called ``name``."""
        for field_decl in self.fields:
            if field_decl.name == name:
                return field_decl
        return None

    def concrete_methods(self) -> List[JMethod]:
        """Methods that carry a body."""
        return [m for m in self.methods if m.body is not None]

    def referenced_classes(self) -> Set[str]:
        """Dotted names of classes this class references structurally."""
        names: Set[str] = set()
        if self.superclass:
            names.add(self.superclass)
        names.update(self.interfaces)
        for method in self.methods:
            names.update(method.thrown)
        return names

    def clone(self) -> "JClass":
        """A copy safe to mutate independently of the original.

        Rebuilds every mutable layer — the member lists, the field and
        method declarations and each method's lists — and shares the
        immutable leaves: statements, locals, traps, types and raw code
        blobs.  Equal to ``copy.deepcopy(self)``, and as safe for every
        rewrite the mutators perform (they replace statements rather
        than edit them), at a fraction of the cost: the clone sits on
        the fuzzing loop's hottest path.  Each method's compile template
        comes along, so an unchanged method is not compiled again.
        """
        return JClass(
            name=self.name,
            superclass=self.superclass,
            interfaces=list(self.interfaces),
            modifiers=list(self.modifiers),
            fields=[field_decl.clone() for field_decl in self.fields],
            methods=[method.clone() for method in self.methods],
            major_version=self.major_version,
            minor_version=self.minor_version,
            source_file=self.source_file,
        )
