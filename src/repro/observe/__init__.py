"""``repro.observe``: campaign telemetry — metrics, events, timing.

Two recording layers, bundled by :class:`Telemetry` and threaded through
every stage of the fuzz → coverage → difftest pipeline, each holding
facts the other does not:

* :mod:`repro.observe.registry` — a thread-safe metrics registry
  (counters, gauges, fixed-bucket latency histograms) with Prometheus
  text exposition: every count and latency, JVM phases included;
* :mod:`repro.observe.events` — a typed event bus with pluggable sinks
  (JSONL file, in-memory ring buffer, live stderr progress) for the
  per-iteration and per-decision records no metric holds.

:mod:`repro.observe.tracing` holds the ambient hook the JVM startup
phases time themselves through.  :mod:`repro.observe.summary` analyses
recorded logs and metric dumps offline (the ``repro observe`` CLI
command), and :mod:`repro.observe.server` serves them live.  Everything
is no-op cheap when disabled: uninstrumented code paths pay one
``is None`` check.
"""

from repro.observe.events import (
    DISCREPANCY_FOUND,
    EVENT_TYPES,
    ITERATION,
    MCMC_TRANSITION,
    MUTANT_ACCEPTED,
    MUTANT_DISCARDED,
    CallbackSink,
    Event,
    EventBus,
    EventSink,
    JsonlSink,
    RingBufferSink,
    StderrProgressSink,
    read_events,
)
from repro.observe.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.server import DASHBOARD_HTML, MonitorServer
from repro.observe.sse import DEFAULT_CLIENT_QUEUE, SseClient, SseSink
from repro.observe.status import StatusTracker, config_fingerprint
from repro.observe.summary import (
    CORE_METRIC_FAMILIES,
    check_prometheus,
    load_events,
    parse_prometheus,
    replay_events,
    summarize_events,
    summarize_metrics,
    write_timeseries,
)
from repro.observe.telemetry import Telemetry, make_telemetry
from repro.observe.tracing import (
    NULL_SPAN,
    NullSpan,
    ambient_phase_span,
    ambient_telemetry,
)

__all__ = [
    # events
    "DISCREPANCY_FOUND", "EVENT_TYPES", "ITERATION", "MCMC_TRANSITION",
    "MUTANT_ACCEPTED", "MUTANT_DISCARDED", "CallbackSink", "Event",
    "EventBus", "EventSink", "JsonlSink", "RingBufferSink",
    "StderrProgressSink", "read_events",
    # registry
    "DEFAULT_LATENCY_BUCKETS", "Counter", "Family", "Gauge", "Histogram",
    "MetricsRegistry",
    # monitor (server + sinks)
    "DASHBOARD_HTML", "MonitorServer", "DEFAULT_CLIENT_QUEUE",
    "SseClient", "SseSink", "StatusTracker", "config_fingerprint",
    # summary
    "CORE_METRIC_FAMILIES", "check_prometheus", "load_events",
    "parse_prometheus", "replay_events", "summarize_events",
    "summarize_metrics", "write_timeseries",
    # telemetry + ambient phase timing
    "Telemetry", "make_telemetry", "NULL_SPAN", "NullSpan",
    "ambient_phase_span", "ambient_telemetry",
]
