"""Creation & loading phase: binary parsing and classfile format checking.

Any violation raises :class:`repro.errors.ClassFormatError` (or a version
error), which the machine reports as *rejected during the creation/loading
phase*.  Every check site carries a coverage probe so the reference JVM's
tracefiles discriminate between classfiles exercising different rules.
"""

from __future__ import annotations

from typing import Set, Tuple, Union

from repro.classfile.access_flags import (
    ACC_ABSTRACT,
    ACC_ANNOTATION,
    ACC_ENUM,
    ACC_FINAL,
    ACC_INTERFACE,
    ACC_NATIVE,
    ACC_PRIVATE,
    ACC_PUBLIC,
    ACC_STATIC,
    ACC_SYNCHRONIZED,
    ACC_VOLATILE,
    AccessFlags,
    count_visibility_flags,
)
from repro.classfile.descriptors import (
    is_valid_field_descriptor,
    is_valid_method_descriptor,
)
from repro.classfile.methods import CLASS_INIT, INSTANCE_INIT, MethodInfo
from repro.classfile.model import ClassFile
from repro.classfile.reader import ClassReader, ParsedClass, ReaderOptions
from repro.coverage.probes import branch, check, probe
from repro.errors import ClassFormatError
from repro.jvm.policy import JvmPolicy

#: The classfile version from which interface methods may be static (Java 8).
STATIC_INTERFACE_METHODS_SINCE = 52


class Loader:
    """Parses and format-checks classfile bytes per one vendor's policy."""

    def __init__(self, policy: JvmPolicy):
        self.policy = policy

    def load(self, data: Union[bytes, ParsedClass]) -> ClassFile:
        """Parse ``data`` and run the loading-phase format checks.

        ``data`` is classfile bytes, parsed here under this vendor's
        version range, or a :class:`ParsedClass` several vendors share
        (see :func:`repro.classfile.reader.parse_class`).  Either way the
        policy applies the same way: version range, then the body's
        format error, then trailing bytes.

        Raises:
            ClassFormatError: on any format violation.
            UnsupportedClassVersionError: on version range violations.
        """
        probe("loader.parse")
        options = ReaderOptions(
            max_supported_major=self.policy.max_class_version,
            reject_trailing_bytes=self.policy.reject_trailing_bytes,
        )
        parsed = data if isinstance(data, ParsedClass) \
            else ClassReader(options).read(data)
        classfile = parsed.accept(options)
        probe("loader.parsed_ok")
        probe(f"loader.version.{classfile.major_version}")
        if not self.policy.member_checks_at_linking:
            self.run_format_checks(classfile)
        return classfile

    def run_format_checks(self, classfile: ClassFile) -> None:
        """The static member/flag format checks.

        Invoked during loading by J9-style vendors and during linking by
        HotSpot-style vendors (``member_checks_at_linking``).
        """
        self._check_class_flags(classfile)
        self._check_fields(classfile)
        self._check_methods(classfile)

    # -- class-level checks ---------------------------------------------------

    #: (bit, probe suffix) per flag examined, as plain ints.
    _FLAG_BITS = tuple(
        (int(AccessFlags[name]), name.lower())
        for name in ("PUBLIC", "PRIVATE", "PROTECTED", "STATIC", "FINAL",
                     "SUPER", "NATIVE", "INTERFACE", "ABSTRACT", "STRICT",
                     "SYNTHETIC", "ANNOTATION", "ENUM"))

    def _probe_flags(self, prefix: str, flags: int) -> None:
        """One probe per flag bit examined — the per-flag validation lines
        of the real parser."""
        for bit, name in self._FLAG_BITS:
            if flags & bit:
                probe(f"{prefix}.{name}")

    def _check_class_flags(self, classfile: ClassFile) -> None:
        probe("loader.check_class_flags")
        flags = int(classfile.access_flags)
        self._probe_flags("loader.class_flag", flags)
        is_interface = bool(flags & ACC_INTERFACE)
        if branch("loader.class_is_interface", is_interface):
            if self.policy.interface_requires_abstract_flag:
                check("loader.interface_missing_abstract",
                      not flags & ACC_ABSTRACT, ClassFormatError, "Interface "
                      "{.name} must have its ACC_ABSTRACT flag set", classfile)
            check("loader.interface_is_final", flags & ACC_FINAL,
                  ClassFormatError, "Interface {.name} must not have its "
                  "ACC_FINAL flag set", classfile)
            check("loader.interface_is_enum", flags & ACC_ENUM,
                  ClassFormatError, "Interface {.name} must not have its "
                  "ACC_ENUM flag set", classfile)
        else:
            check("loader.class_final_and_abstract",
                  flags & ACC_FINAL and flags & ACC_ABSTRACT, ClassFormatError,
                  "Class {.name} has both ACC_FINAL and ACC_ABSTRACT set",
                  classfile)
        check("loader.annotation_without_interface",
              flags & ACC_ANNOTATION and not is_interface, ClassFormatError,
              "Class {.name} has ACC_ANNOTATION without ACC_INTERFACE",
              classfile)

    # -- field checks ------------------------------------------------------------

    def _check_fields(self, classfile: ClassFile) -> None:
        probe("loader.check_fields")
        seen: Set[Tuple[str, str]] = set()
        for field_info in classfile.fields:
            name = classfile.field_name(field_info)
            descriptor = classfile.field_descriptor(field_info)
            flags = int(field_info.access_flags)
            self._probe_flags("loader.field_flag", flags)
            probe(f"loader.field_type.{descriptor[:1] or '?'}")
            check("loader.field_descriptor_invalid",
                  not is_valid_field_descriptor(descriptor), ClassFormatError,
                  "Field {.name}.{} has invalid descriptor {!r}", classfile,
                  name, descriptor)
            if self.policy.reject_conflicting_visibility:
                check("loader.field_visibility_conflict",
                      count_visibility_flags(flags) > 1, ClassFormatError,
                      "Field {.name}.{} has conflicting visibility flags",
                      classfile, name)
            if self.policy.reject_final_volatile_field:
                check("loader.field_final_volatile",
                      flags & ACC_FINAL and flags & ACC_VOLATILE,
                      ClassFormatError, "Field {.name}.{} is both final and "
                      "volatile", classfile, name)
            if classfile.is_interface and self.policy.interface_members_strict:
                probe("loader.check_interface_field")
                required = ACC_PUBLIC | ACC_STATIC | ACC_FINAL
                check("loader.interface_field_flags_bad",
                      (flags & required) != required, ClassFormatError,
                      "Interface field {.name}.{} must be public static "
                      "final", classfile, name)
            key = (name, descriptor)
            if self.policy.reject_duplicate_fields:
                check("loader.duplicate_field", key in seen, ClassFormatError,
                      "Duplicate field name&signature in class file "
                      "{.name}: {} {}", classfile, name, descriptor)
            seen.add(key)

    # -- method checks --------------------------------------------------------------

    def _check_methods(self, classfile: ClassFile) -> None:
        probe("loader.check_methods")
        seen: Set[Tuple[str, str]] = set()
        for method in classfile.methods:
            name = classfile.method_name(method)
            descriptor = classfile.method_descriptor(method)
            self._check_one_method(classfile, method, name, descriptor)
            key = (name, descriptor)
            if self.policy.reject_duplicate_methods:
                check("loader.duplicate_method", key in seen, ClassFormatError,
                      "Duplicate method name&signature in class file "
                      "{.name}: {}{}", classfile, name, descriptor)
            seen.add(key)

    def is_initializer(self, classfile: ClassFile, method: MethodInfo,
                       name: str) -> bool:
        """Whether ``method``, called ``name``, is the class initializer,
        which the loader format-checks and the machine runs.

        The SE 8 erratum (Problem 1): in version ≥ 51 classfiles a
        ``<clinit>`` without ACC_STATIC is "of no consequence" — an
        ordinary method — under the clarified rule; J9 instead treats any
        ``<clinit>`` as the initializer and format-checks it.
        """
        if name != CLASS_INIT:
            return False
        if method.is_static:
            return True
        if classfile.major_version >= 51 and \
                self.policy.treat_nonstatic_clinit_as_ordinary:
            return False
        return True

    def _check_one_method(self, classfile: ClassFile, method: MethodInfo,
                          name: str, descriptor: str) -> None:
        flags = int(method.access_flags)
        self._probe_flags("loader.method_flag", flags)
        probe(f"loader.method_return.{descriptor.rsplit(')', 1)[-1][:1] or '?'}")
        # The descriptor parser has one case per type character.
        for char in set(descriptor.partition(")")[0]):
            if char in "IJFDZBCSL[":
                probe(f"loader.param_type.{char}")
        check("loader.method_descriptor_invalid",
              not is_valid_method_descriptor(descriptor), ClassFormatError,
              "Method {.name}.{} has invalid descriptor {!r}", classfile,
              name, descriptor)
        if self.policy.reject_conflicting_visibility:
            check("loader.method_visibility_conflict",
                  count_visibility_flags(flags) > 1, ClassFormatError,
                  "Method {.name}.{} has conflicting visibility flags",
                  classfile, name)
        check("loader.abstract_method_bad_flags",
              flags & ACC_ABSTRACT and flags & (
                  ACC_FINAL | ACC_NATIVE | ACC_PRIVATE | ACC_STATIC
                  | ACC_SYNCHRONIZED) and name != CLASS_INIT, ClassFormatError,
              "Method {.name}.{} is abstract but has conflicting flags",
              classfile, name)
        if branch("loader.method_is_init", name == INSTANCE_INIT):
            self._check_instance_init(classfile, method, descriptor)
        if branch("loader.method_is_clinit", name == CLASS_INIT):
            probe("loader.clinit_seen")
            if self.is_initializer(classfile, method, name):
                # J9's message: "no Code attribute specified...
                # method=<clinit>()V, pc=0".
                check("loader.clinit_missing_code", method.code is None,
                      ClassFormatError, "no Code attribute specified in "
                      "class {.name}, method={}{}, pc=0", classfile, name,
                      descriptor)
        if classfile.is_interface and self.policy.interface_members_strict \
                and name not in (INSTANCE_INIT, CLASS_INIT):
            probe("loader.check_interface_method")
            check("loader.interface_method_not_public",
                  not flags & ACC_PUBLIC, ClassFormatError,
                  "Interface method {.name}.{} must be public", classfile,
                  name)
            static_ok = (classfile.major_version
                         >= STATIC_INTERFACE_METHODS_SINCE)
            check("loader.interface_method_not_abstract",
                  not flags & ACC_ABSTRACT
                  and not (static_ok and flags & ACC_STATIC), ClassFormatError,
                  "Interface method {.name}.{} must be abstract", classfile,
                  name)
        self._check_code_presence(classfile, method, name, descriptor)

    def _check_instance_init(self, classfile: ClassFile, method: MethodInfo,
                             descriptor: str) -> None:
        """``<init>`` restrictions (skipped entirely by lenient vendors)."""
        if not self.policy.init_method_strict:
            probe("loader.init_check_skipped")
            return
        probe("loader.check_init_method")
        flags = int(method.access_flags)
        forbidden = (ACC_STATIC | ACC_FINAL | ACC_SYNCHRONIZED | ACC_NATIVE
                     | ACC_ABSTRACT)
        check("loader.init_bad_flags", flags & forbidden, ClassFormatError,
              "Method <init> in class {.name} has illegal modifiers (must "
              "not be static, final, synchronized, native or abstract)",
              classfile)
        check("loader.init_bad_return", not descriptor.endswith(")V"),
              ClassFormatError, "Method <init> in class {.name} must return "
              "void", classfile)

    def _check_code_presence(self, classfile: ClassFile, method: MethodInfo,
                             name: str, descriptor: str) -> None:
        probe("loader.check_code_presence")
        has_code = method.code is not None
        check("loader.abstract_with_code", not method.needs_code and has_code,
              ClassFormatError, "Code attribute in native or abstract method "
              "{.name}.{}{}", classfile, name, descriptor)
        if self.policy.code_presence_checked_at_loading:
            check("loader.concrete_without_code",
                  method.needs_code and not has_code, ClassFormatError,
                  "Absent Code attribute in method that is not native or "
                  "abstract in class file {.name}, method={}{}", classfile,
                  name, descriptor)
