"""Unit tests for the ``repro.observe`` telemetry layer.

Covers the metrics registry (instrument semantics, label families,
histogram bucket boundaries, Prometheus exposition, thread safety), the
event bus and its sinks (disabled-path cost, JSONL round-trips for every
event type, ring buffer, progress sink), span timing (histograms,
ambient installation), and the offline summary/validation helpers.
"""

import io
import math
import threading

import pytest

from repro.observe.events import (
    EVENT_TYPES,
    ITERATION,
    DISCREPANCY_FOUND,
    CallbackSink,
    Event,
    EventBus,
    JsonlSink,
    RingBufferSink,
    StderrProgressSink,
    read_events,
)
from repro.observe.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    format_value,
)
from repro.observe.summary import (
    CORE_METRIC_FAMILIES,
    check_prometheus,
    parse_prometheus,
    replay_events,
    summarize_events,
    summarize_metrics,
    write_timeseries,
)
from repro.observe.telemetry import Telemetry, make_telemetry
from repro.observe.tracing import (
    NULL_SPAN,
    ambient_phase_span,
    ambient_telemetry,
    install_ambient,
    uninstall_ambient,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_bucket_boundary_is_inclusive(self):
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        hist.observe(1.0)   # lands in the le="1" bucket (value <= le)
        hist.observe(1.5)   # le="2"
        hist.observe(2.0)   # le="2"
        hist.observe(7.0)   # overflow (+Inf only)
        assert hist.bucket_counts() == [1, 2, 0, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(11.5)

    def test_rendered_buckets_are_cumulative(self):
        hist = Histogram(buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        lines = hist.samples("h", "")
        assert 'h_bucket{le="1"} 1' in lines
        assert 'h_bucket{le="2"} 2' in lines
        assert 'h_bucket{le="+Inf"} 3' in lines
        assert "h_count 3" in lines

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(10.0)
        assert list(DEFAULT_LATENCY_BUCKETS) == \
            sorted(DEFAULT_LATENCY_BUCKETS)

    def test_rejects_duplicate_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_mean(self):
        hist = Histogram(buckets=(10.0,))
        assert hist.mean() == 0.0
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean() == pytest.approx(3.0)


class TestFamilies:
    def test_label_children_are_cached(self):
        family = MetricsRegistry().counter("runs", "", ("vendor",))
        child = family.labels(vendor="hotspot8")
        assert family.labels(vendor="hotspot8") is child
        assert family.labels(vendor="j9") is not child

    def test_label_schema_enforced(self):
        family = MetricsRegistry().counter("runs", "", ("vendor",))
        with pytest.raises(ValueError):
            family.labels(nope="x")

    def test_no_label_family_proxies_instrument(self):
        family = MetricsRegistry().counter("total")
        family.inc(3)
        assert family.value == 3

    def test_labeled_family_rejects_direct_use(self):
        family = MetricsRegistry().counter("runs", "", ("vendor",))
        with pytest.raises(ValueError):
            family.inc()


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", "", ("a",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("x", "", ("b",))

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_total", "Runs.", ("vendor",)) \
            .labels(vendor="hotspot8").inc(7)
        registry.gauge("repro_pool_size", "Pool.").set(42)
        registry.histogram("repro_lat_seconds", "Latency.",
                           buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_prometheus()
        assert "# TYPE repro_runs_total counter" in text
        assert "# HELP repro_pool_size Pool." in text
        samples = parse_prometheus(text)
        assert samples["repro_runs_total"] == [({"vendor": "hotspot8"}, 7.0)]
        assert samples["repro_pool_size"] == [({}, 42.0)]
        bucket = dict()
        for labels, value in samples["repro_lat_seconds_bucket"]:
            bucket[labels["le"]] = value
        assert bucket == {"0.1": 1.0, "1": 1.0, "+Inf": 1.0}

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", "", ("k",)).labels(k='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parse_prometheus(text)  # must stay parseable

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "", ("worker",))
        hist = registry.histogram("lat", buckets=(0.5,))
        threads = 8
        per_thread = 2000
        barrier = threading.Barrier(threads)

        def work(worker):
            child = counter.labels(worker=str(worker % 2))
            barrier.wait()
            for _ in range(per_thread):
                child.inc()
                hist.observe(0.1)

        pool = [threading.Thread(target=work, args=(i,))
                for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = sum(child.value for _, child in counter.children())
        assert total == threads * per_thread
        child = hist.labels()
        assert child.count == threads * per_thread
        assert child.bucket_counts()[0] == threads * per_thread


class TestFormatValue:
    def test_integers_render_bare(self):
        assert format_value(3.0) == "3"
        assert format_value(0.0) == "0"

    def test_floats_keep_precision(self):
        assert format_value(0.25) == "0.25"


class TestEventBus:
    def test_disabled_bus_writes_nothing(self, tmp_path):
        bus = EventBus()
        sink = JsonlSink(tmp_path / "events.jsonl")
        # Sink exists but is NOT attached: bus stays disabled.
        assert bus.enabled is False
        bus.emit(ITERATION, index=0)
        assert sink.written == 0
        assert not (tmp_path / "events.jsonl").exists()

    def test_enabled_after_sink_attached(self):
        bus = EventBus()
        seen = []
        bus.add_sink(CallbackSink(seen.append))
        assert bus.enabled is True
        bus.emit(ITERATION, index=1)
        assert len(seen) == 1
        assert seen[0].type == ITERATION
        assert seen[0].fields == {"index": 1}

    def test_sequence_numbers_are_total_order(self):
        bus = EventBus()
        seen = []
        bus.add_sink(CallbackSink(seen.append))
        for i in range(5):
            bus.emit(ITERATION, index=i)
        assert [e.seq for e in seen] == [1, 2, 3, 4, 5]

    def test_jsonl_round_trips_every_event_type(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        sink = bus.add_sink(JsonlSink(path))
        payloads = {
            "iteration": {"algorithm": "classfuzz[stbr]", "index": 3,
                          "round": 0, "seed": "Seed3",
                          "accepted": True, "seconds": 0.01},
            "mutant_accepted": {"label": "M1", "mutator": "m.x",
                                "tests": 4},
            "mutant_discarded": {"category": "compile_error",
                                 "mutator": None},
            "mcmc_transition": {"frm": "a", "to": "b", "proposals": 2},
            "checkpoint_written": {"algorithm": "classfuzz[stbr]",
                                   "index": 50, "iterations": 200,
                                   "accepted": 9, "pool": 34,
                                   "path": "ckpt/checkpoint.pkl",
                                   "seconds": 0.002},
            "reduction_step": {"label": "M9", "description":
                               "delete method frob", "remaining": 12,
                               "tests_run": 7},
            "discrepancy_found": {"label": "M2", "codes": [0, 2, 2, 0, 0]},
            "triage_cluster": {"id": "Cdeadbeef0123", "kind": "fine",
                               "signature": [["gij", 0, ""],
                                             ["j9", 2, "VerifyError"]],
                               "representative": "M2",
                               "suppressed": False},
        }
        assert set(payloads) == set(EVENT_TYPES)
        for event_type, fields in payloads.items():
            bus.emit(event_type, **fields)
        bus.close()
        recovered = list(read_events(path))
        assert sink.written == len(EVENT_TYPES)
        assert [e.type for e in recovered] == list(payloads)
        for event, (event_type, fields) in zip(recovered, payloads.items()):
            assert event.fields == fields
            assert event.seq > 0 and event.ts > 0

    def test_ring_buffer_caps_and_filters(self):
        sink = RingBufferSink(capacity=3)
        bus = EventBus()
        bus.add_sink(sink)
        for i in range(5):
            bus.emit(ITERATION, index=i)
        bus.emit(DISCREPANCY_FOUND, label="M")
        assert len(sink) == 3
        assert [e.fields["index"] for e in sink.events(ITERATION)] == [3, 4]
        assert len(sink.events(DISCREPANCY_FOUND)) == 1

    def test_progress_sink_prints_every_n(self):
        stream = io.StringIO()
        sink = StderrProgressSink(every=2, stream=stream)
        bus = EventBus()
        bus.add_sink(sink)
        for i in range(4):
            bus.emit(ITERATION, algorithm="randfuzz", accepted=i % 2 == 0)
        bus.emit(DISCREPANCY_FOUND, label="M7", codes=[0, 1])
        output = stream.getvalue()
        assert output.count("iteration") == 2  # at 2 and 4
        assert "discrepancy: M7" in output

    def test_event_json_is_flat(self):
        event = Event(ITERATION, 1.5, 7, {"index": 2})
        assert Event.from_json(event.to_json()) == event

    def test_read_events_tolerates_truncated_tail(self, tmp_path):
        """A run killed mid-write leaves a partial final line; the
        reader must yield the intact prefix instead of raising."""
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        bus.add_sink(JsonlSink(path))
        for i in range(5):
            bus.emit(ITERATION, index=i)
        bus.close()
        with path.open("a") as handle:
            handle.write('{"type": "iter')  # the torn write
        recovered = list(read_events(path))
        assert [e.fields["index"] for e in recovered] == [0, 1, 2, 3, 4]

    def test_read_events_truncated_tail_without_newline_prefix(
            self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "iteration", "ts": 1.0, "seq"')
        assert list(read_events(path)) == []

    def test_read_events_still_raises_on_interior_corruption(
            self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        bus.add_sink(JsonlSink(path))
        bus.emit(ITERATION, index=0)
        bus.emit(ITERATION, index=1)
        bus.close()
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:20]  # corrupt a *non-final* record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            list(read_events(path))


class TestTracing:
    def test_span_records_duration_and_histogram(self):
        telemetry = Telemetry()
        with telemetry.span("unit.work") as span:
            pass
        assert span.seconds >= 0
        family = telemetry.registry.get("repro_span_seconds")
        assert family.labels(span="unit.work").count == 1

    def test_ambient_defaults_to_null_span(self):
        assert ambient_telemetry() is None
        assert ambient_phase_span("hotspot8", "loading") is NULL_SPAN

    def test_activate_installs_and_uninstalls(self):
        telemetry = Telemetry()
        with telemetry.activate():
            assert ambient_telemetry() is telemetry
            span = ambient_phase_span("hotspot8", "loading")
            assert span is not NULL_SPAN
            with span:
                pass
        assert ambient_telemetry() is None
        family = telemetry.registry.get("repro_jvm_phase_seconds")
        child = family.labels(vendor="hotspot8", phase="loading")
        assert child.count == 1

    def test_second_active_telemetry_rejected(self):
        first, second = Telemetry(), Telemetry()
        install_ambient(first)
        try:
            with pytest.raises(RuntimeError):
                install_ambient(second)
            # Re-installing the same bundle is idempotent.
            install_ambient(first)
        finally:
            uninstall_ambient(first)
        assert ambient_telemetry() is None

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN


class TestSummary:
    def _events(self):
        bus = EventBus()
        seen = []
        bus.add_sink(CallbackSink(seen.append))
        for i in range(8):
            bus.emit(ITERATION, algorithm="classfuzz[stbr]", index=i,
                     accepted=i % 2 == 0, tests=i // 2, pool=30 + i,
                     seconds=0.001)
        bus.emit("mcmc_transition", frm="a", to="b", proposals=3)
        bus.emit(DISCREPANCY_FOUND, label="M9", codes=[0, 2])
        return seen

    @staticmethod
    def _metrics():
        telemetry = Telemetry()
        for vendor in ("hotspot8", "j9"):
            with telemetry.jvm_phase_span(vendor, "linking"):
                pass
        with telemetry.jvm_phase_span("hotspot8", "loading"):
            pass
        registry = telemetry.registry
        registry.counter("repro_executor_batches_total", "", ("engine",)) \
            .labels(engine="serial").inc(2)
        registry.histogram("repro_executor_batch_seconds", "",
                           ("engine",)).labels(engine="serial").observe(0.1)
        return parse_prometheus(telemetry.render_prometheus())

    def test_summarize_renders_core_tables(self):
        text = summarize_events(self._events())
        assert "Event counts" in text
        assert "Acceptance rate" in text
        assert "classfuzz[stbr]" in text
        assert "50.0%" in text
        assert "MCMC chain" in text
        assert "1 discrepancies" in text
        # Phase latency and batches come from the metrics dump.
        assert "JVM phase latency" not in text
        metrics = summarize_metrics(self._metrics())
        assert "JVM phase latency" in metrics
        # Phases print in pipeline order, spans summed over vendors.
        assert metrics.index("loading") < metrics.index("linking")
        linking = next(line for line in metrics.splitlines()
                       if line.startswith("linking"))
        assert linking.split()[1] == "2"
        assert "serial: 2 batches, 0.10s total" in metrics
        assert summarize_metrics({}) is None

    def test_summarize_prints_one_chain_per_algorithm(self):
        bus = EventBus()
        seen = []
        bus.add_sink(CallbackSink(seen.append))
        for algorithm, steps in (("classfuzz[st]", 3), ("classfuzz[tr]", 2)):
            for _ in range(steps):
                bus.emit("mcmc_transition", algorithm=algorithm, frm="a",
                         to="b", proposals=2)
        # A log recorded before transitions carried their algorithm.
        bus.emit("mcmc_transition", frm="a", to="c", proposals=1)
        text = summarize_events(seen)
        assert "=== MCMC chain: classfuzz[st] ===\n" \
               "3 transitions, 6 proposals" in text
        assert "=== MCMC chain: classfuzz[tr] ===\n" \
               "2 transitions, 4 proposals" in text
        assert "=== MCMC chain ===\n1 transitions, 1 proposals" in text

    def test_summarize_empty(self):
        assert summarize_events([]) == "no events recorded"

    def test_replay_filters_and_limits(self):
        text = replay_events(self._events(), event_type=ITERATION, limit=3)
        lines = text.splitlines()
        assert len(lines) == 4 and lines[-1] == "..."
        assert all("iteration" in line for line in lines[:3])
        assert replay_events([], event_type="nope") == "no matching events"

    def test_timeseries_accumulates_acceptance(self, tmp_path):
        out = tmp_path / "ts.csv"
        rows = write_timeseries(self._events(), out)
        assert rows == 8
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("algorithm,iteration,accepted")
        last = lines[-1].split(",")
        assert last[0] == "classfuzz[stbr]"
        assert last[3] == "4"          # accepted_total
        assert last[4] == "0.5000"     # acceptance_rate

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("this is { not a sample\n")

    def test_parse_prometheus_scientific_notation(self):
        """Seconds-valued sums commonly render as ``8.9e-05``; the
        signed exponent must parse, not fail as malformed."""
        text = ('repro_jvm_run_seconds_sum{vendor="j9"} 8.957e-05\n'
                'tiny_negative -1.5e-3\n'
                'plain_exp 2E+6\n')
        samples = parse_prometheus(text)
        assert samples["repro_jvm_run_seconds_sum"][0][1] == \
            pytest.approx(8.957e-05)
        assert samples["tiny_negative"][0][1] == pytest.approx(-0.0015)
        assert samples["plain_exp"][0][1] == 2e6

    def test_check_prometheus_reports_missing_families(self):
        problems = check_prometheus("repro_iterations_total 5\n")
        missing = {p.split(": ")[1] for p in problems}
        assert "repro_iterations_total" not in missing
        assert set(CORE_METRIC_FAMILIES) - {"repro_iterations_total"} \
            == missing


class TestMakeTelemetry:
    def test_flags_map_to_sinks(self, tmp_path):
        telemetry = make_telemetry(events_path=tmp_path / "e.jsonl",
                                   ring_capacity=8, progress=True)
        kinds = {type(sink).__name__ for sink in telemetry.bus.sinks}
        assert kinds == {"JsonlSink", "RingBufferSink",
                         "StderrProgressSink"}
        assert telemetry.bus.enabled

    def test_bare_telemetry_has_disabled_bus(self):
        telemetry = make_telemetry()
        assert telemetry.bus.enabled is False
