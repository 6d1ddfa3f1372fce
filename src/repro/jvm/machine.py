"""The JVM startup pipeline: ``java ClassName`` end to end.

One :class:`Jvm` couples a :class:`~repro.jvm.policy.JvmPolicy` with a
:class:`~repro.runtime.environment.JreEnvironment` and drives the four
phases of Table 1: creation & loading, linking, initialization, and
invocation & execution.  The result of a run is an
:class:`~repro.jvm.outcome.Outcome` with the paper's 0–4 phase code.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.classfile.methods import CLASS_INIT, MethodInfo
from repro.classfile.model import ClassFile
from repro.classfile.reader import ParsedClass
from repro.coverage.probes import branch, probe
from repro.errors import (
    ExceptionInInitializerError,
    JavaError,
    MainMethodNotFoundError,
    StepBudgetExceeded,
)
from repro.jvm.interpreter import Interpreter, _SystemExitRequested
from repro.jvm.linker import Linker
from repro.jvm.loader import Loader
from repro.jvm.outcome import Outcome, Phase
from repro.jvm.policy import JvmPolicy
from repro.observe.tracing import ambient_phase_span
from repro.runtime.environment import JreEnvironment


class Jvm:
    """One simulated JVM implementation.

    Attributes:
        name: vendor identifier shown in reports (e.g. ``hotspot8``).
        policy: the behavioural policy.
        environment: the JRE environment (``e`` in ``jvm(e, c, i)``).
    """

    def __init__(self, name: str, policy: JvmPolicy,
                 environment: JreEnvironment):
        self.name = name
        self.policy = policy
        self.environment = environment
        self.loader = Loader(policy)
        self.linker = Linker(policy, environment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Jvm({self.name!r}, env={self.environment.name!r})"

    # -- the startup process ------------------------------------------------------

    def run(self, data: Union[bytes, ParsedClass],
            args: Optional[List[str]] = None) -> Outcome:
        """Start up on classfile bytes, as ``java <class>`` would.

        ``data`` may instead be a :class:`ParsedClass` shared by every
        vendor that runs the same bytes; the outcome is the same.  A
        shared parse is read-only here, so one serves any number of runs,
        except for :attr:`ParsedClass.verified`, which lets HotSpot 7, 8
        and 9 verify each method once between them when no coverage
        collector is active.  A run on bytes verifies every method itself.

        Never raises: every error is folded into the returned
        :class:`Outcome`.
        """
        probe("machine.run")
        verified = data.verified if isinstance(data, ParsedClass) else None
        # Each startup phase runs inside an ambient telemetry span (a
        # shared no-op object when no telemetry is active), so per-phase
        # latency histograms and jvm_phase events fall out of every run.
        # Phase 1: creation & loading (includes resolving the direct
        # superclass and superinterfaces, per JVMS §5.3.5).
        with ambient_phase_span(self.name, "loading"):
            try:
                classfile = self.loader.load(data)
                self.linker.resolve_hierarchy(classfile)
            except JavaError as exc:
                return self._rejected(Phase.LOADING, exc)
        # Phase 2: linking.
        with ambient_phase_span(self.name, "linking"):
            try:
                if self.policy.member_checks_at_linking:
                    self.loader.run_format_checks(classfile)
                self.linker.link(classfile, verified)
            except JavaError as exc:
                return self._rejected(Phase.LINKING, exc)
        interpreter = Interpreter(
            classfile, self.policy, self.environment,
            on_demand_verify=self._on_demand_verify(verified))
        # Phase 3: initialization.
        with ambient_phase_span(self.name, "initialization"):
            try:
                output = self._initialize(classfile, interpreter)
            except JavaError as exc:
                return self._rejected(Phase.INITIALIZATION, exc,
                                      tuple(interpreter.output))
        # Initialization is over: main-phase reads of <clinit>-written
        # statics are now subject to the clinit-visibility policy axis.
        interpreter.clinit_done = True
        # Phase 4: invocation & execution.
        with ambient_phase_span(self.name, "execution"):
            try:
                main = self._find_main(classfile)
                interpreter.invoke_method(main, [list(args or [])])
            except _SystemExitRequested:
                probe("machine.system_exit")
            except JavaError as exc:
                return self._rejected(Phase.RUNTIME, exc,
                                      tuple(interpreter.output))
        probe("machine.invoked_ok")
        return Outcome(Phase.INVOKED, output=tuple(interpreter.output),
                       jvm_name=self.name)

    # -- phase helpers ----------------------------------------------------------------

    def _rejected(self, phase: Phase, error: JavaError,
                  output: tuple = ()) -> Outcome:
        probe(f"machine.rejected_{phase.name.lower()}")
        # Each error class has its own construction/reporting lines.
        probe(f"machine.error.{error.simple_name}")
        return Outcome(phase, error=error.simple_name, message=error.message,
                       output=output, jvm_name=self.name)

    def _on_demand_verify(self, verified: Optional[dict]):
        if self.policy.eager_method_verification:
            return None

        def verify(classfile: ClassFile, method: MethodInfo) -> None:
            self.linker.verify_single_method(classfile, method, verified)

        return verify

    def _class_initializer(self, classfile: ClassFile
                           ) -> Optional[MethodInfo]:
        """The method run during initialization, under this vendor's
        reading of the ``<clinit>`` rules (Problem 1)."""
        for method in classfile.methods:
            if classfile.method_name(method) != CLASS_INIT:
                continue
            if method.is_static:
                return method
            if classfile.major_version >= 51 and \
                    self.policy.treat_nonstatic_clinit_as_ordinary:
                continue  # "of no consequence": an ordinary method
            return method
        return None

    def _initialize(self, classfile: ClassFile,
                    interpreter: Interpreter) -> tuple:
        probe("machine.initialize")
        initializer = self._class_initializer(classfile)
        if branch("machine.has_clinit", initializer is not None):
            try:
                interpreter.invoke_method(initializer)
            except _SystemExitRequested:
                pass
            except StepBudgetExceeded:
                raise
            except JavaError as exc:
                if exc.simple_name in ("NoClassDefFoundError",):
                    raise
                raise ExceptionInInitializerError(
                    f"{exc.simple_name}: {exc.message}") from exc
        return tuple(interpreter.output)

    def _find_main(self, classfile: ClassFile) -> MethodInfo:
        probe("machine.find_main")
        if classfile.is_interface and branch(
                "machine.interface_main_rejected",
                not self.policy.allow_interface_main):
            raise MainMethodNotFoundError(
                f"Main method not found in interface "
                f"{classfile.name.replace('/', '.')}")
        main = classfile.main_method()
        if branch("machine.main_missing", main is None):
            raise MainMethodNotFoundError(
                f"Main method not found in class "
                f"{classfile.name.replace('/', '.')}, please define the "
                "main method as: public static void main(String[] args)")
        if self.policy.require_static_main and branch(
                "machine.main_not_static", not main.is_static):
            raise MainMethodNotFoundError(
                f"Main method is not static in class "
                f"{classfile.name.replace('/', '.')}")
        if self.policy.require_public_main and branch(
                "machine.main_not_public",
                not main.is_public):
            raise MainMethodNotFoundError(
                f"Main method not found in class "
                f"{classfile.name.replace('/', '.')}")
        return main
