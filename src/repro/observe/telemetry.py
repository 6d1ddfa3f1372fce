"""The telemetry bundle threaded through the pipeline.

One :class:`Telemetry` couples the two recording layers of
``repro.observe``:

* a :class:`~repro.observe.registry.MetricsRegistry` (counters, gauges,
  latency histograms);
* an :class:`~repro.observe.events.EventBus` with pluggable sinks.

Timing is one primitive, :class:`_PhaseSpan`: a ``with`` block observed
into one histogram child.  :meth:`Telemetry.jvm_phase_span` times the
JVM startup phases into ``repro_jvm_phase_seconds{vendor,phase}`` and
:meth:`Telemetry.span` times campaign stages into
``repro_span_seconds{span}``; neither emits an event.

Every instrumented entry point (the fuzzing algorithms, the execution
engines, the differential harness, the campaign orchestrator) takes an
optional ``telemetry`` argument defaulting to ``None`` — the disabled
state costs one ``is None`` check per site.  :meth:`Telemetry.activate`
additionally installs the bundle as the process-wide ambient telemetry
so the JVM startup phases (which no campaign object reaches directly)
time themselves.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Union

from repro.observe.events import EventBus, JsonlSink, RingBufferSink, \
    StderrProgressSink
from repro.observe.registry import MetricsRegistry
from repro.observe.tracing import install_ambient, uninstall_ambient


class Telemetry:
    """Registry + event bus, as one pluggable unit.

    Attributes:
        registry: the metrics registry every instrument records into.
        bus: the structured event bus (disabled until a sink attaches).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 bus: Optional[EventBus] = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.bus = bus if bus is not None else EventBus()
        self.status = None  # set by attach_status (the --serve path)
        self._span_seconds = self.registry.histogram(
            "repro_span_seconds",
            "Duration of traced pipeline spans.", ("span",))
        self._jvm_phase_seconds = self.registry.histogram(
            "repro_jvm_phase_seconds",
            "Latency of the four JVM startup phases.",
            ("vendor", "phase"))

    # -- events --------------------------------------------------------------

    def emit(self, event_type: str, **fields) -> None:
        """Emit a structured event (no-op when the bus has no sinks)."""
        self.bus.emit(event_type, **fields)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str) -> "_PhaseSpan":
        """Time a ``with`` block into ``repro_span_seconds{span=name}``."""
        return _PhaseSpan(self._span_seconds.labels(span=name))

    def jvm_phase_span(self, vendor: str, phase: str) -> "_PhaseSpan":
        """Time one JVM startup phase (loading/linking/init/exec) into
        ``repro_jvm_phase_seconds{vendor,phase}``."""
        return _PhaseSpan(self._jvm_phase_seconds.labels(vendor=vendor,
                                                         phase=phase))

    def attach_status(self, tracker=None):
        """Attach (or return the already-attached) status tracker sink.

        Idempotent: the first call wires a
        :class:`~repro.observe.status.StatusTracker` into the bus and
        remembers it on :attr:`status`; later calls return the same
        tracker so a monitor server and a campaign orchestrator can both
        reach it without double-counting events.
        """
        if self.status is None:
            if tracker is None:
                from repro.observe.status import StatusTracker
                tracker = StatusTracker(self.registry)
            self.status = tracker
            self.bus.add_sink(tracker)
        return self.status

    # -- lifecycle -----------------------------------------------------------

    def activate(self) -> "_ActiveTelemetry":
        """Install as the process-wide ambient telemetry (context manager)."""
        return _ActiveTelemetry(self)

    def close(self) -> None:
        """Flush and close every attached sink."""
        self.bus.close()

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()


class _PhaseSpan:
    """Times one ``with`` block on the monotonic clock into one histogram
    child; :attr:`seconds` holds the duration after exit."""

    __slots__ = ("_hist", "_started", "seconds")

    def __init__(self, hist):
        self._hist = hist
        self._started = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "_PhaseSpan":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.seconds = time.perf_counter() - self._started
        self._hist.observe(self.seconds)
        return False


class _ActiveTelemetry:
    """Context manager installing/uninstalling the ambient telemetry."""

    def __init__(self, telemetry: Telemetry):
        self.telemetry = telemetry

    def __enter__(self) -> Telemetry:
        install_ambient(self.telemetry)
        return self.telemetry

    def __exit__(self, *exc_info) -> bool:
        uninstall_ambient(self.telemetry)
        return False


def make_telemetry(events_path: Optional[Union[str, Path]] = None,
                   ring_capacity: Optional[int] = None,
                   progress: bool = False,
                   progress_every: int = 100) -> Telemetry:
    """Build a telemetry bundle from the CLI-flag surface.

    Args:
        events_path: attach a :class:`JsonlSink` writing here.
        ring_capacity: attach a :class:`RingBufferSink` of this size.
        progress: attach the live stderr progress sink.
        progress_every: progress line interval, in iteration events.
    """
    telemetry = Telemetry()
    if events_path is not None:
        telemetry.bus.add_sink(JsonlSink(events_path))
    if ring_capacity is not None:
        telemetry.bus.add_sink(RingBufferSink(ring_capacity))
    if progress:
        telemetry.bus.add_sink(StderrProgressSink(every=progress_every))
    return telemetry
