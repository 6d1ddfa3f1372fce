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
from repro.coverage.probes import branch, probe
from repro.errors import ClassFormatError
from repro.jvm.policy import JvmPolicy


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
            min_supported_major=self.policy.min_class_version,
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
            if self.policy.interface_requires_abstract_flag and branch(
                    "loader.interface_missing_abstract",
                    not flags & ACC_ABSTRACT):
                raise ClassFormatError(
                    f"Interface {classfile.name} must have its "
                    "ACC_ABSTRACT flag set")
            if branch("loader.interface_is_final",
                      bool(flags & ACC_FINAL)):
                raise ClassFormatError(
                    f"Interface {classfile.name} must not have its "
                    "ACC_FINAL flag set")
            if branch("loader.interface_is_enum",
                      bool(flags & ACC_ENUM)):
                raise ClassFormatError(
                    f"Interface {classfile.name} must not have its "
                    "ACC_ENUM flag set")
        elif self.policy.reject_final_abstract_class and branch(
                "loader.class_final_and_abstract",
                bool(flags & ACC_FINAL)
                and bool(flags & ACC_ABSTRACT)):
            raise ClassFormatError(
                f"Class {classfile.name} has both ACC_FINAL and "
                "ACC_ABSTRACT set")
        if branch("loader.annotation_without_interface",
                  bool(flags & ACC_ANNOTATION) and not is_interface):
            raise ClassFormatError(
                f"Class {classfile.name} has ACC_ANNOTATION without "
                "ACC_INTERFACE")

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
            if self.policy.check_descriptor_validity and branch(
                    "loader.field_descriptor_invalid",
                    not is_valid_field_descriptor(descriptor)):
                raise ClassFormatError(
                    f"Field {classfile.name}.{name} has invalid "
                    f"descriptor {descriptor!r}")
            if self.policy.reject_conflicting_visibility and branch(
                    "loader.field_visibility_conflict",
                    count_visibility_flags(flags) > 1):
                raise ClassFormatError(
                    f"Field {classfile.name}.{name} has conflicting "
                    "visibility flags")
            if self.policy.reject_final_volatile_field and branch(
                    "loader.field_final_volatile",
                    bool(flags & ACC_FINAL)
                    and bool(flags & ACC_VOLATILE)):
                raise ClassFormatError(
                    f"Field {classfile.name}.{name} is both final "
                    "and volatile")
            if classfile.is_interface and self.policy.interface_members_strict:
                probe("loader.check_interface_field")
                required = ACC_PUBLIC | ACC_STATIC | ACC_FINAL
                if branch("loader.interface_field_flags_bad",
                          (flags & required) != required):
                    raise ClassFormatError(
                        f"Interface field {classfile.name}.{name} must be "
                        "public static final")
            key = (name, descriptor)
            if self.policy.reject_duplicate_fields and branch(
                    "loader.duplicate_field", key in seen):
                raise ClassFormatError(
                    f"Duplicate field name&signature in class file "
                    f"{classfile.name}: {name} {descriptor}")
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
            if self.policy.reject_duplicate_methods and branch(
                    "loader.duplicate_method", key in seen):
                raise ClassFormatError(
                    f"Duplicate method name&signature in class file "
                    f"{classfile.name}: {name}{descriptor}")
            seen.add(key)

    def _is_initializer(self, classfile: ClassFile, method: MethodInfo,
                        name: str) -> bool:
        """Whether ``<clinit>`` is treated as the class initializer.

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
        if self.policy.check_descriptor_validity and branch(
                "loader.method_descriptor_invalid",
                not is_valid_method_descriptor(descriptor)):
            raise ClassFormatError(
                f"Method {classfile.name}.{name} has invalid "
                f"descriptor {descriptor!r}")
        if self.policy.reject_conflicting_visibility and branch(
                "loader.method_visibility_conflict",
                count_visibility_flags(flags) > 1):
            raise ClassFormatError(
                f"Method {classfile.name}.{name} has conflicting "
                "visibility flags")
        if branch("loader.abstract_method_bad_flags",
                  bool(flags & ACC_ABSTRACT) and bool(
                      flags & (ACC_FINAL | ACC_NATIVE | ACC_PRIVATE
                               | ACC_STATIC | ACC_SYNCHRONIZED))
                  and name != CLASS_INIT):
            raise ClassFormatError(
                f"Method {classfile.name}.{name} is abstract but has "
                "conflicting flags")
        if branch("loader.method_is_init", name == INSTANCE_INIT):
            self._check_instance_init(classfile, method, descriptor)
        is_initializer = self._is_initializer(classfile, method, name)
        if branch("loader.method_is_clinit", name == CLASS_INIT):
            probe("loader.clinit_seen")
            if is_initializer and self.policy.check_code_presence and branch(
                    "loader.clinit_missing_code",
                    method.code is None):
                # J9's message: "no Code attribute specified...
                # method=<clinit>()V, pc=0".
                raise ClassFormatError(
                    f"no Code attribute specified in class "
                    f"{classfile.name}, method={name}{descriptor}, pc=0")
        if classfile.is_interface and self.policy.interface_members_strict \
                and name not in (INSTANCE_INIT, CLASS_INIT):
            probe("loader.check_interface_method")
            if branch("loader.interface_method_not_public",
                      not flags & ACC_PUBLIC):
                raise ClassFormatError(
                    f"Interface method {classfile.name}.{name} must "
                    "be public")
            static_ok = (classfile.major_version
                         >= self.policy.static_interface_methods_since)
            if branch("loader.interface_method_not_abstract",
                      not flags & ACC_ABSTRACT
                      and not (static_ok and flags & ACC_STATIC)):
                raise ClassFormatError(
                    f"Interface method {classfile.name}.{name} must "
                    "be abstract")
        if self.policy.check_code_presence:
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
        if branch("loader.init_bad_flags", bool(flags & forbidden)):
            raise ClassFormatError(
                f"Method <init> in class {classfile.name} has illegal "
                "modifiers (must not be static, final, synchronized, "
                "native or abstract)")
        if branch("loader.init_bad_return", not descriptor.endswith(")V")):
            raise ClassFormatError(
                f"Method <init> in class {classfile.name} must return void")

    def _check_code_presence(self, classfile: ClassFile, method: MethodInfo,
                             name: str, descriptor: str) -> None:
        probe("loader.check_code_presence")
        has_code = method.code is not None
        if branch("loader.abstract_with_code",
                  not method.needs_code and has_code):
            raise ClassFormatError(
                f"Code attribute in native or abstract method "
                f"{classfile.name}.{name}{descriptor}")
        if self.policy.code_presence_checked_at_loading and branch(
                "loader.concrete_without_code",
                method.needs_code and not has_code):
            raise ClassFormatError(
                f"Absent Code attribute in method that is not native or "
                f"abstract in class file {classfile.name}, "
                f"method={name}{descriptor}")
