"""Taxonomy of JVM errors and exceptions thrown during startup.

The JVM specification names the error classes a conforming implementation
must raise when a constraint is violated during class creation/loading,
linking, initialization, or execution (Table 1 of the paper).  The simulated
JVMs in :mod:`repro.jvm` raise these Python exceptions; the differential
harness compares their *names* and the startup phase in which they occur.
"""

from __future__ import annotations


class JavaError(Exception):
    """Base class for every simulated JVM error or exception.

    Attributes:
        message: human-readable detail, mirroring a real JVM's message.
        site: the name of the check that raised it: the probe site of a
            :func:`repro.coverage.probes.check`, or a name without a probe.
    """

    #: Fully-qualified Java name of the error class.
    java_name = "java.lang.Throwable"

    def __init__(self, message: str = "", site: str | None = None):
        super().__init__(message)
        self.message = message
        self.site = site

    @property
    def simple_name(self) -> str:
        """The unqualified Java class name (e.g. ``VerifyError``)."""
        return self.java_name.rsplit(".", 1)[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.simple_name}({self.message!r})"


# ---------------------------------------------------------------------------
# Creation & loading phase
# ---------------------------------------------------------------------------

class LinkageError(JavaError):
    """A class-linkage failure (JVMS §5): base of the loading/linking error family."""

    java_name = "java.lang.LinkageError"


class ClassFormatError(LinkageError):
    """The binary classfile is structurally malformed."""

    java_name = "java.lang.ClassFormatError"


class UnsupportedClassVersionError(ClassFormatError):
    """The classfile's major.minor version is outside the supported range."""

    java_name = "java.lang.UnsupportedClassVersionError"


class NoClassDefFoundError(LinkageError):
    """A referenced class definition could not be located."""

    java_name = "java.lang.NoClassDefFoundError"


class ClassCircularityError(LinkageError):
    """A class is (transitively) its own superclass or superinterface."""

    java_name = "java.lang.ClassCircularityError"


# ---------------------------------------------------------------------------
# Linking phase
# ---------------------------------------------------------------------------

class VerifyError(LinkageError):
    """Bytecode or structural verification failed."""

    java_name = "java.lang.VerifyError"


class IncompatibleClassChangeError(LinkageError):
    """An incompatible class change was detected during resolution."""

    java_name = "java.lang.IncompatibleClassChangeError"


class AbstractMethodError(IncompatibleClassChangeError):
    """An abstract method was invoked."""

    java_name = "java.lang.AbstractMethodError"


class IllegalAccessError(IncompatibleClassChangeError):
    """An inaccessible class, field, or method was referenced."""

    java_name = "java.lang.IllegalAccessError"


class InstantiationError(IncompatibleClassChangeError):
    """An abstract class or interface was instantiated."""

    java_name = "java.lang.InstantiationError"


class NoSuchFieldError(IncompatibleClassChangeError):
    """A referenced field does not exist."""

    java_name = "java.lang.NoSuchFieldError"


class NoSuchMethodError(IncompatibleClassChangeError):
    """A referenced method does not exist."""

    java_name = "java.lang.NoSuchMethodError"


class UnsatisfiedLinkError(LinkageError):
    """A native method's implementation could not be found."""

    java_name = "java.lang.UnsatisfiedLinkError"


# ---------------------------------------------------------------------------
# Initialization phase
# ---------------------------------------------------------------------------

class ExceptionInInitializerError(JavaError):
    """An exception occurred in a static initializer."""

    java_name = "java.lang.ExceptionInInitializerError"


# ---------------------------------------------------------------------------
# Invocation & execution phase
# ---------------------------------------------------------------------------

class JavaRuntimeException(JavaError):
    """Base of the unchecked runtime exception family."""

    java_name = "java.lang.RuntimeException"


class NullPointerException(JavaRuntimeException):
    """A null reference was dereferenced."""

    java_name = "java.lang.NullPointerException"


class ArithmeticException(JavaRuntimeException):
    """An exceptional arithmetic condition (e.g. integer division by zero)."""

    java_name = "java.lang.ArithmeticException"


class ArrayIndexOutOfBoundsException(JavaRuntimeException):
    """An array was indexed outside its bounds."""

    java_name = "java.lang.ArrayIndexOutOfBoundsException"


class ClassCastException(JavaRuntimeException):
    """An object was cast to an incompatible type."""

    java_name = "java.lang.ClassCastException"


class NegativeArraySizeException(JavaRuntimeException):
    """An array was created with a negative length."""

    java_name = "java.lang.NegativeArraySizeException"


class MissingResourceException(JavaRuntimeException):
    """A resource bundle could not be located at run time."""

    java_name = "java.util.MissingResourceException"


class StackOverflowError_(JavaError):
    """The interpreter's call depth budget was exhausted."""

    java_name = "java.lang.StackOverflowError"


class StepBudgetExceeded(JavaError):
    """The interpreter's step budget ran out (a simulated hang).

    Real harnesses kill a spinning JVM with a timeout; the simulated
    interpreter bounds execution with ``JvmPolicy.max_interpreter_steps``
    instead.  The error carries its own class name (rather than reusing a
    ``java.lang`` runtime error) so encoded outcomes — and therefore
    triage clusters — never conflate a simulated hang with a real
    runtime rejection.
    """

    java_name = "harness.StepBudgetExceeded"


class MainMethodNotFoundError(JavaError):
    """Raised when the launcher cannot locate ``public static void main``.

    Real JVM launchers print an error message rather than throwing; we model
    it as an error object so outcomes stay uniform.
    """

    java_name = "java.lang.NoSuchMethodError"


#: Errors a JVM may legitimately raise during each startup phase, mirroring
#: Table 1 of the paper.  Used by tests to sanity-check the pipeline.
PHASE_ERRORS = {
    "loading": (ClassCircularityError, ClassFormatError, NoClassDefFoundError),
    "linking": (VerifyError, IncompatibleClassChangeError, UnsatisfiedLinkError,
                NoClassDefFoundError, ClassFormatError),
    "initialization": (NoClassDefFoundError, ExceptionInInitializerError),
    "execution": (MainMethodNotFoundError, JavaRuntimeException, JavaError),
}
