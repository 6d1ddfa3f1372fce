"""Vendor behaviour policies.

Every way the simulated JVMs may legitimately differ is a field here,
and every field is such a way: each one differs across the five vendors
(``repro.jvm.vendors.all_jvms``) except the interpreter's step budget.
A check that every vendor runs is unconditional in the phase code, not
a field.  The axes mirror the divergences the paper documents:

* Problem 1 — ``<clinit>`` handling (``treat_nonstatic_clinit_as_ordinary``,
  ``code_presence_checked_at_loading``);
* Problem 2 — verification timing and depth (``eager_method_verification``,
  ``verify_type_assignability``, ``verify_uninitialized_merge``,
  ``strict_stack_shapes``);
* Problem 3 — access checking of referenced internal classes
  (``resolve_thrown_exceptions``, ``check_restricted_access``);
* Problem 4 — GIJ leniency (``interface_members_strict``,
  ``interface_superclass_must_be_object``, ``init_method_strict``,
  ``reject_duplicate_fields``, ``allow_interface_main``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class JvmPolicy:
    """One simulated JVM implementation's position on every axis on which
    the vendors differ, plus the interpreter's step budget."""

    # -- creation & loading (format checking) --------------------------------
    #: Highest classfile major version accepted.
    max_class_version: int = 52
    #: Extra bytes after the class structure are a ClassFormatError.
    reject_trailing_bytes: bool = True
    #: An interface must carry ACC_ABSTRACT (JVMS §4.1, version ≥ 50 rule).
    interface_requires_abstract_flag: bool = True
    #: An interface's superclass must be java/lang/Object (GIJ misses this).
    interface_superclass_must_be_object: bool = True
    #: Interface methods must be public (and, pre-52, abstract); interface
    #: fields must be public static final (GIJ misses this).
    interface_members_strict: bool = True
    #: At most one of public/private/protected per member.
    reject_conflicting_visibility: bool = True
    #: A field may not be both final and volatile.
    reject_final_volatile_field: bool = True
    #: Two fields with the same name and descriptor are a format error
    #: (GIJ accepts duplicates — Problem 4).
    reject_duplicate_fields: bool = True
    #: Two methods with the same name and descriptor are a format error.
    reject_duplicate_methods: bool = True
    #: ``<init>`` must not be static/final/synchronized/native/abstract
    #: and must return void (GIJ misses both — Problem 4).
    init_method_strict: bool = True
    #: In classfiles of version ≥ 51, only a *static* ``<clinit>`` is the
    #: initializer; a non-static one is an ordinary method (SE 8 erratum).
    #: When False the JVM still treats any ``<clinit>`` as the initializer
    #: and format-checks it accordingly (J9's behaviour — Problem 1).
    treat_nonstatic_clinit_as_ordinary: bool = True
    #: Whether the missing-Code check happens during loading (True, J9
    #: style: ClassFormatError) or during linking (False, HotSpot style).
    code_presence_checked_at_loading: bool = False
    #: Run the member/flag format checks during linking (HotSpot performs
    #: most static constraint checking in verification pass 1/2, so the
    #: errors surface in the linking phase) instead of at class definition
    #: (J9's style, where they surface during creation & loading).
    member_checks_at_linking: bool = False

    # -- linking: hierarchy ----------------------------------------------------
    #: Resolve and access-check classes named in ``throws`` clauses during
    #: linking (HotSpot does; J9 and GIJ do not — Problem 3).
    resolve_thrown_exceptions: bool = False
    #: When resolving a reference to a restricted (vendor-internal,
    #: synthetic, or non-public) class, raise IllegalAccessError.
    check_restricted_access: bool = False

    # -- linking: bytecode verification -----------------------------------------
    #: Verify every method at link time (HotSpot) vs. only when a method is
    #: about to be invoked (J9's lazy verification — Problem 2).
    eager_method_verification: bool = True
    #: Check stack depth consistency at control-flow joins ("stack shape
    #: inconsistent", J9's stricter frame checking).
    strict_stack_shapes: bool = False
    #: Track reference types and reject unsafe assignments/invocations
    #: (GIJ catches String↔Map confusion; HotSpot misses it — Problem 2).
    verify_type_assignability: bool = False
    #: Reject merging initialized with uninitialized object types
    #: (GIJ reports this; HotSpot does not — Problem 2).
    verify_uninitialized_merge: bool = False
    #: Resolve field/method references against the library at verification
    #: time (eager resolution shifts NoSuchMethod/NoClassDef errors from
    #: runtime to linking).
    resolve_refs_eagerly: bool = False

    # -- invocation & execution -------------------------------------------------------
    #: ``main`` must be declared static.
    require_static_main: bool = True
    #: ``main`` must be declared public.
    require_public_main: bool = True
    #: Allow invoking ``main`` declared on an interface (GIJ — Problem 4).
    allow_interface_main: bool = False
    #: Interpreter step budget before declaring the run stuck.
    max_interpreter_steps: int = 20000

    # -- execution semantics ----------------------------------------------------
    #: Result of ``fcmpg``/``dcmpg`` when either operand is NaN (JVMS: +1;
    #: the ``*cmpl`` variants push the negation).  ``0`` models a broken
    #: "NaN compares equal" float comparison (GIJ's soft-float path).
    fcmpg_nan_result: int = 1
    #: Apply JVMS narrowing semantics: ``i2b``/``i2c``/``i2s`` truncate to
    #: their target width, and ``f2i``/``f2l``/``d2i``/``d2l`` convert NaN
    #: to 0 and saturate infinities.  When False the int narrowings pass
    #: 32-bit values through unchanged and NaN converts to the target
    #: type's MIN_VALUE (raw hardware ``cvttss2si`` behaviour).
    strict_narrowing_conversions: bool = True
    #: Order in which exception-table entries are consulted when several
    #: cover the faulting offset and match the thrown type:
    #: ``"declaration"`` (JVMS: first entry wins) or ``"reversed"``
    #: (last matching entry wins).
    exception_handler_scan_order: str = "declaration"
    #: Serve ``String.equals``/``compareTo``/``charAt`` as behavioural
    #: intrinsics (with ``charAt`` bounds-checked).  When False they fall
    #: through to the descriptor-default library stubs and return 0.
    string_intrinsic_compat: bool = True
    #: Visibility of ``<clinit>``-written statics from ``main``:
    #: ``"eager"`` (writes visible, JVMS) or ``"deferred"`` (reads in
    #: ``main`` observe the field defaults instead).
    clinit_visibility_order: str = "eager"
