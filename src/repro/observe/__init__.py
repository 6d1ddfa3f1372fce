"""``repro.observe``: campaign telemetry — metrics, events, tracing.

Three layers, bundled by :class:`Telemetry` and threaded through every
stage of the fuzz → coverage → difftest pipeline:

* :mod:`repro.observe.registry` — a thread-safe metrics registry
  (counters, gauges, fixed-bucket latency histograms) with Prometheus
  text exposition;
* :mod:`repro.observe.events` — a typed event bus with pluggable sinks
  (JSONL file, in-memory ring buffer, live stderr progress);
* :mod:`repro.observe.tracing` — span-based timing with parent/child
  nesting, plus the ambient hook the JVM startup phases use.

:mod:`repro.observe.summary` analyses recorded logs offline (the
``repro observe`` CLI command).  Everything is no-op cheap when
disabled: uninstrumented code paths pay one ``is None`` check.
"""

from repro.observe.events import (
    CACHE_HIT,
    DISCREPANCY_FOUND,
    EVENT_TYPES,
    EXECUTOR_BATCH,
    ITERATION,
    JVM_PHASE,
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
    summarize_workers,
    write_timeseries,
)
from repro.observe.telemetry import Telemetry, make_telemetry
from repro.observe.tracing import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    ambient_phase_span,
    ambient_telemetry,
)

__all__ = [
    # events
    "CACHE_HIT", "DISCREPANCY_FOUND", "EVENT_TYPES", "EXECUTOR_BATCH",
    "ITERATION", "JVM_PHASE", "MCMC_TRANSITION", "MUTANT_ACCEPTED",
    "MUTANT_DISCARDED", "CallbackSink", "Event", "EventBus", "EventSink",
    "JsonlSink", "RingBufferSink", "StderrProgressSink", "read_events",
    # registry
    "DEFAULT_LATENCY_BUCKETS", "Counter", "Family", "Gauge", "Histogram",
    "MetricsRegistry",
    # monitor (server + sinks)
    "DASHBOARD_HTML", "MonitorServer", "DEFAULT_CLIENT_QUEUE",
    "SseClient", "SseSink", "StatusTracker", "config_fingerprint",
    # summary
    "CORE_METRIC_FAMILIES", "check_prometheus", "load_events",
    "parse_prometheus", "replay_events", "summarize_events",
    "summarize_workers", "write_timeseries",
    # telemetry + tracing
    "Telemetry", "make_telemetry", "NULL_SPAN", "NullSpan", "Span",
    "Tracer", "ambient_phase_span", "ambient_telemetry",
]
