"""The ambient JVM-phase hook and the null span of disabled paths.

The JVM startup pipeline cannot be handed a telemetry object explicitly
(vendors construct :class:`~repro.jvm.machine.Jvm` instances far from
any campaign), so — exactly like the coverage probes — phase timers use
a process-wide *ambient* telemetry installed by
:meth:`~repro.observe.telemetry.Telemetry.activate`.  With nothing
installed, :func:`ambient_phase_span` returns a shared null span whose
enter/exit do nothing, keeping uninstrumented JVM runs no-op cheap.

The timer itself is :class:`~repro.observe.telemetry._PhaseSpan`: one
``with`` block observed into one histogram child, emitting no event.
"""

from __future__ import annotations

import threading


class NullSpan:
    """A span that measures nothing; shared singleton for disabled paths."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


#: The shared do-nothing span.
NULL_SPAN = NullSpan()


# -- ambient telemetry (for the JVM startup pipeline) -----------------------

#: The process-wide active telemetry, or ``None``.  Installed by
#: ``Telemetry.activate()``; deliberately *not* thread-local so JVM runs
#: on executor worker threads are captured too.
_AMBIENT = None
_AMBIENT_LOCK = threading.Lock()


def install_ambient(telemetry) -> None:
    global _AMBIENT
    with _AMBIENT_LOCK:
        if _AMBIENT is not None and _AMBIENT is not telemetry:
            raise RuntimeError("another Telemetry is already active")
        _AMBIENT = telemetry


def uninstall_ambient(telemetry) -> None:
    global _AMBIENT
    with _AMBIENT_LOCK:
        if _AMBIENT is telemetry:
            _AMBIENT = None


def ambient_telemetry():
    """The active process-wide telemetry, or ``None``."""
    return _AMBIENT


def ambient_phase_span(vendor: str, phase: str):
    """A span for one JVM startup phase, or the null span when inactive.

    The single ``_AMBIENT is None`` check is the entire disabled-path
    cost, mirroring the coverage probes' fast path.
    """
    telemetry = _AMBIENT
    if telemetry is None:
        return NULL_SPAN
    return telemetry.jvm_phase_span(vendor, phase)


__all__ = ["NullSpan", "NULL_SPAN", "install_ambient", "uninstall_ambient",
           "ambient_telemetry", "ambient_phase_span"]
