"""Linking phase: hierarchy resolution and verification (JVMS §5.4).

The linker resolves the loaded class's superclass, superinterfaces and
(policy-gated) declared exceptions against the vendor's JRE environment,
enforces the inheritance constraints JVMs disagree about, and drives
bytecode verification of method bodies.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

from repro.classfile.attributes import CodeAttribute
from repro.classfile.constant_pool import ConstantPoolError
from repro.classfile.methods import CLASS_INIT, MethodInfo
from repro.classfile.model import ClassFile
from repro.coverage.probes import active_collector, branch, check, probe
from repro.errors import (
    ClassCircularityError,
    ClassFormatError,
    IllegalAccessError,
    IncompatibleClassChangeError,
    JavaError,
    NoClassDefFoundError,
    VerifyError,
)
from repro.jvm.policy import JvmPolicy
from repro.jvm.verifier import MethodVerifier, verifier_config
from repro.runtime.environment import JreEnvironment


class Linker:
    """Links one loaded class against a vendor environment."""

    def __init__(self, policy: JvmPolicy, environment: JreEnvironment):
        self.policy = policy
        self.environment = environment
        self.library = environment.library

    # -- entry point --------------------------------------------------------------

    def resolve_hierarchy(self, classfile: ClassFile) -> None:
        """Resolve the direct superclass and superinterfaces.

        Real JVMs do this while *creating* the class (JVMS §5.3.5), so the
        machine invokes it during the creation & loading phase — missing
        classes and circularities reject there, per Table 1 of the paper.

        Raises:
            NoClassDefFoundError / ClassCircularityError / ClassFormatError.
        """
        probe("linker.resolve_hierarchy")
        super_name = classfile.super_name
        this_name = classfile.name
        if branch("linker.no_superclass", super_name is None):
            if this_name != "java/lang/Object":
                raise ClassFormatError(f"Class {this_name} has no superclass",
                                       site="linker.no_superclass")
            return
        check("linker.super_is_self", super_name == this_name,
              ClassCircularityError, "{.java_name}", classfile)
        self._find_class(super_name, this_name)
        for name in classfile.interface_names:
            check("linker.interface_is_self", name == this_name,
                  ClassCircularityError, "{.java_name}", classfile)
            self._find_class(name, this_name)

    def link(self, classfile: ClassFile, verified: Optional[Dict]) -> None:
        """Run the linking phase (hierarchy constraints + verification).

        Raises:
            IncompatibleClassChangeError / VerifyError / IllegalAccessError /
            NoClassDefFoundError / ClassFormatError: per the violated
            constraint.
        """
        probe("linker.link")
        self._check_superclass(classfile)
        self._check_interfaces(classfile)
        if self.policy.resolve_thrown_exceptions:
            self._resolve_thrown(classfile)
        self._verify_methods(classfile, verified)

    # -- hierarchy ------------------------------------------------------------------

    def _find_class(self, internal_name: str, referer: str):
        probe("linker.resolve_class")
        # Package-segmented resolution lines (classpath scanning code).
        package = internal_name.rsplit("/", 1)[0] if "/" in internal_name \
            else "<default>"
        probe(f"linker.resolve_package.{package}")
        cls = self.library.find(internal_name)
        check("linker.class_missing", cls is None, NoClassDefFoundError,
              "{} (referenced from {})", internal_name.replace("/", "."),
              referer)
        return cls

    def _check_access(self, cls, referer: str, *args: object) -> None:
        """Access to ``cls`` from ``referer``, a template ``args`` fill."""
        if not self.policy.check_restricted_access:
            return
        probe("linker.check_access")
        check("linker.restricted_class",
              cls.restricted or cls.is_synthetic or not cls.is_public,
              IllegalAccessError, "tried to access class {} from " + referer,
              cls.name.replace("/", "."), *args)

    def _check_superclass(self, classfile: ClassFile) -> None:
        probe("linker.check_superclass")
        super_name = classfile.super_name
        if super_name is None or super_name == classfile.name:
            return  # handled during creation & loading
        super_cls = self.library.find(super_name)
        if super_cls is None:
            return  # handled during creation & loading
        self._check_access(super_cls, "class {.name}", classfile)
        if branch("linker.class_is_interface_check", classfile.is_interface):
            if self.policy.interface_superclass_must_be_object:
                check("linker.interface_super_not_object",
                      super_name != "java/lang/Object", ClassFormatError,
                      "Interface {.name} has superclass other than "
                      "java/lang/Object", classfile)
            return
        dotted_super = super_name.replace("/", ".")
        check("linker.super_is_interface", super_cls.is_interface,
              IncompatibleClassChangeError, "class {.java_name} has interface "
              "{} as super class", classfile, dotted_super)
        check("linker.super_is_final", super_cls.is_final, VerifyError,
              "Cannot inherit from final class {}", dotted_super)

    def _check_interfaces(self, classfile: ClassFile) -> None:
        probe("linker.check_interfaces")
        for name in classfile.interface_names:
            cls = self.library.find(name)
            if cls is None or name == classfile.name:
                continue  # handled during creation & loading
            self._check_access(cls, "class {.name}", classfile)
            check("linker.implements_non_interface", not cls.is_interface,
                  IncompatibleClassChangeError,
                  "class {.java_name} tried to implement class {} as "
                  "interface", classfile, name.replace("/", "."))

    def _resolve_thrown(self, classfile: ClassFile) -> None:
        """Resolve and access-check ``throws`` clauses (Problem 3)."""
        probe("linker.resolve_thrown")
        this_name = classfile.name
        for method in classfile.methods:
            exceptions = method.exceptions
            if exceptions is None:
                continue
            try:
                names = exceptions.exception_names(classfile.constant_pool)
            except ConstantPoolError as exc:
                raise ClassFormatError(
                    f"Broken Exceptions attribute in {this_name}: {exc}",
                    site="linker.exceptions_bad") from exc
            method_name = classfile.method_name(method)
            for name in names:
                if name == this_name:
                    continue
                cls = self._find_class(name, this_name)
                self._check_access(cls, "throws clause of {}.{}", this_name,
                                   method_name)

    # -- verification ------------------------------------------------------------------

    def _verify_methods(self, classfile: ClassFile,
                        verified: Optional[Dict]) -> None:
        probe("linker.verify_methods")
        for method in classfile.methods:
            name = classfile.method_name(method)
            self._check_code_shape(classfile, method, name)
            if not self.policy.eager_method_verification:
                # Lazy vendors (J9) only verify a method right before its
                # first invocation; the machine verifies main/<clinit> then.
                if branch("linker.lazy_skip",
                          name not in (CLASS_INIT,)):
                    continue
            code = method.code
            if code is None:
                continue
            probe("linker.verify_one")
            self.verify_method(classfile, method, code, verified)

    def _check_code_shape(self, classfile: ClassFile, method: MethodInfo,
                          name: str) -> None:
        """Code-presence check for vendors that defer it to linking."""
        if self.policy.code_presence_checked_at_loading:
            return  # already done by the loader
        probe("linker.check_code_presence")
        if branch("linker.concrete_without_code",
                  method.needs_code and method.code is None):
            descriptor = classfile.method_descriptor(method)
            raise ClassFormatError(
                f"Absent Code attribute in method that is not native or "
                f"abstract in class file {classfile.name}, "
                f"method={name}{descriptor}",
                site="linker.concrete_without_code")

    def verify_single_method(self, classfile: ClassFile,
                             method: MethodInfo,
                             verified: Optional[Dict]) -> None:
        """Verify one method on demand (lazy-verification vendors)."""
        code = method.code
        if code is None:
            return
        probe("linker.verify_on_demand")
        self.verify_method(classfile, method, code, verified)

    def verify_method(self, classfile: ClassFile, method: MethodInfo,
                      code: CodeAttribute,
                      verified: Optional[Dict]) -> None:
        """Verify ``method``, or replay its outcome from ``verified``, a
        shared parse's map of (verifier configuration, method) to ``None``
        ("passed") or the :class:`JavaError` raised; a hit raises a copy.
        Only consulted with no coverage collector active, so a collector
        records every probe; any other exception propagates every time.
        """
        key = None
        if verified is not None and active_collector() is None:
            key = (verifier_config(self.policy, self.library), id(method))
            if key in verified:
                error = verified[key]
                if error is not None:
                    raise copy.copy(error)
                return
        try:
            MethodVerifier(classfile, method, code, self.policy,
                           self.library).verify()
        except JavaError as exc:
            if key is not None:
                # A copy holds no traceback, so the memo keeps no frame.
                verified[key] = copy.copy(exc)
            raise
        if key is not None:
            verified[key] = None
