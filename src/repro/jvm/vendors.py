"""The five JVM implementations of Table 3, as policy + environment bundles.

Each factory returns a fresh :class:`~repro.jvm.machine.Jvm`.  The policy
deltas encode the behavioural fingerprints the paper documents:

* **HotSpot 7/8/9** — eager verification of every method before execution;
  shallow type tracking (misses String↔Map confusion — Problem 2); resolves
  and access-checks ``throws`` clauses (Problem 3); version ceilings 51/52/53.
* **J9** — lazy per-invocation method verification but strict stack-shape
  frame checking ("stack shape inconsistent"); treats any ``<clinit>`` as
  the class initializer, so an abstract/code-less ``<clinit>`` is a
  ClassFormatError where HotSpot runs the class (Problem 1 / Figure 2).
* **GIJ** — a classpath-era interpreter: deep reference-type verification
  (catches unsafe assignability and initialized/uninitialized merges) but
  wholesale missing format checks — duplicate fields, interface member
  rules, interface superclasses, ``<init>`` shape, interface ``main``
  (Problem 4).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.jvm.machine import Jvm
from repro.jvm.policy import JvmPolicy
from repro.runtime.environment import build_environment

#: Name of the reference implementation used for coverage collection.
REFERENCE_JVM_NAME = "hotspot9"


def _hotspot_policy(**overrides) -> JvmPolicy:
    policy = JvmPolicy(
        eager_method_verification=True,
        strict_stack_shapes=False,
        verify_type_assignability=False,
        verify_uninitialized_merge=False,
        resolve_thrown_exceptions=True,
        treat_nonstatic_clinit_as_ordinary=True,
        code_presence_checked_at_loading=False,
        member_checks_at_linking=True,   # constraint checks surface in
                                         # verification (linking)
    )
    return replace(policy, **overrides)


def make_hotspot7() -> Jvm:
    """HotSpot for Java 7 (release 1.7.0)."""
    policy = _hotspot_policy(
        max_class_version=51,
        check_restricted_access=False,
    )
    return Jvm("hotspot7", policy, build_environment(7))


def make_hotspot8() -> Jvm:
    """HotSpot for Java 8 (release 1.8.0)."""
    policy = _hotspot_policy(
        max_class_version=52,
        check_restricted_access=False,
    )
    return Jvm("hotspot8", policy, build_environment(8))


def make_hotspot9() -> Jvm:
    """HotSpot for Java 9 (1.9.0-internal) — the reference implementation.

    Applies the SE 9 clarification of the ``<clinit>`` rule to *all*
    classfile versions and enforces module-style access restrictions on
    vendor-internal classes (Problem 3's IllegalAccessError).
    """
    policy = _hotspot_policy(
        max_class_version=53,
        check_restricted_access=True,
    )
    return Jvm("hotspot9", policy, build_environment(9))


def make_j9() -> Jvm:
    """IBM J9 for SDK 8."""
    policy = JvmPolicy(
        max_class_version=52,
        eager_method_verification=False,      # lazy, per-invocation
        strict_stack_shapes=True,             # "stack shape inconsistent"
        verify_type_assignability=False,
        verify_uninitialized_merge=False,
        resolve_thrown_exceptions=False,
        check_restricted_access=False,
        treat_nonstatic_clinit_as_ordinary=False,  # Problem 1
        code_presence_checked_at_loading=True,     # format error at load
        member_checks_at_linking=False,            # checks at definition
        # Execution semantics: J9's handler search walks its internal
        # (reversed) table, and JIT-reordered <clinit> stores are not
        # guaranteed visible to the first main-method read.
        exception_handler_scan_order="reversed",
        clinit_visibility_order="deferred",
    )
    return Jvm("j9", policy, build_environment(8, name="ibm-sdk8"))


def make_gij() -> Jvm:
    """GNU GIJ 5.1.0 — conforms to Java 1.5.0 but accepts version 51."""
    policy = JvmPolicy(
        max_class_version=51,                  # "can process version 51"
        reject_trailing_bytes=False,
        eager_method_verification=True,
        strict_stack_shapes=False,
        verify_type_assignability=True,        # catches String↔Map (P2)
        verify_uninitialized_merge=True,       # catches uninit merges (P2)
        resolve_thrown_exceptions=False,
        check_restricted_access=False,
        # Problem 4: wholesale missing format checks.
        interface_superclass_must_be_object=False,
        interface_members_strict=False,
        init_method_strict=False,
        reject_duplicate_fields=False,
        reject_duplicate_methods=False,
        reject_final_volatile_field=False,
        reject_conflicting_visibility=False,
        interface_requires_abstract_flag=False,
        allow_interface_main=True,
        require_static_main=False,
        require_public_main=False,
        treat_nonstatic_clinit_as_ordinary=True,
        code_presence_checked_at_loading=False,
        member_checks_at_linking=True,         # its few checks run late
        resolve_refs_eagerly=True,             # an eager, AOT-ish linker
        # Execution semantics: classpath-era interpreter quirks — the
        # soft-float comparator treats NaN as equal, narrowing
        # conversions are raw hardware casts, and the String fast paths
        # are stubbed out rather than implemented.
        fcmpg_nan_result=0,
        strict_narrowing_conversions=False,
        string_intrinsic_compat=False,
    )
    return Jvm("gij", policy, build_environment(5, name="classpath"))


def reference_jvm() -> Jvm:
    """The coverage-instrumented reference JVM (HotSpot for Java 9)."""
    return make_hotspot9()


def all_jvms() -> List[Jvm]:
    """The five JVMs of Table 3, in the paper's column order."""
    return [make_hotspot7(), make_hotspot8(), make_hotspot9(),
            make_j9(), make_gij()]


def jvms_by_name() -> Dict[str, Jvm]:
    """Name → fresh JVM instance."""
    return {jvm.name: jvm for jvm in all_jvms()}
