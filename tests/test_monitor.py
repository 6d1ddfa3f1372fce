"""Tests for the embedded campaign monitor (server, status, SSE).

Covers the SSE fan-out sink (bounded queues, drop-oldest semantics, the
dropped-events counter), the status tracker (event folding, registry
reads, snapshot schema), the HTTP server end-to-end against a live
fuzzing run (all four endpoints, concurrent scrapes, client
connect/disconnect), and the replay-mode ``repro monitor`` command.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.fuzzing import classfuzz
from repro.corpus import CorpusConfig, generate_corpus
from repro.observe import (
    MonitorServer,
    SseSink,
    StatusTracker,
    Telemetry,
    config_fingerprint,
)
from repro.observe.events import Event, EventBus, JsonlSink


def _event(event_type="iteration", seq=1, **fields):
    return Event(event_type, time.time(), seq, fields)


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers, response.read()


@pytest.fixture(scope="module")
def seeds():
    return generate_corpus(CorpusConfig(count=16, seed=7))


# ---------------------------------------------------------------------------
# SseSink
# ---------------------------------------------------------------------------

class TestSseSink:
    def test_fan_out_to_every_client(self):
        sink = SseSink()
        a, b = sink.register(), sink.register()
        sink.emit(_event(index=1))
        assert a.get(timeout=1).fields["index"] == 1
        assert b.get(timeout=1).fields["index"] == 1

    def test_client_names_unique(self):
        sink = SseSink()
        names = {sink.register().name for _ in range(5)}
        assert len(names) == 5

    def test_unregister_stops_delivery(self):
        sink = SseSink()
        client = sink.register()
        sink.unregister(client)
        sink.emit(_event())
        assert client.pending() == 0

    def test_slow_client_drops_oldest_never_blocks(self):
        registry = Telemetry().registry
        sink = SseSink(registry, client_queue=4)
        client = sink.register()
        for index in range(10):
            sink.emit(_event(seq=index + 1, index=index))
        # The queue holds the *newest* four events; six were shed.
        assert client.pending() == 4
        assert client.dropped == 6
        got = [client.get(timeout=1).fields["index"] for _ in range(4)]
        assert got == [6, 7, 8, 9]
        dropped = registry.get("repro_monitor_dropped_events_total")
        assert dropped.labels(client=client.name).value == 6

    def test_fast_client_drops_nothing(self):
        sink = SseSink(client_queue=16)
        client = sink.register()
        for index in range(10):
            sink.emit(_event(seq=index + 1))
        assert client.pending() == 10
        assert client.dropped == 0

    def test_get_times_out_with_none(self):
        client = SseSink().register()
        assert client.get(timeout=0.01) is None


# ---------------------------------------------------------------------------
# StatusTracker
# ---------------------------------------------------------------------------

class TestConfigFingerprint:
    def test_stable_under_key_order(self):
        assert config_fingerprint({"a": 1, "b": 2}) == \
            config_fingerprint({"b": 2, "a": 1})

    def test_distinct_configs_differ(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_short_hex(self):
        fp = config_fingerprint({})
        assert len(fp) == 12
        int(fp, 16)


class TestStatusTracker:
    def test_snapshot_schema_empty(self):
        snapshot = StatusTracker().snapshot()
        for section in ("run", "campaign", "progress", "coverage",
                        "executor", "discrepancies",
                        "checkpoint", "events", "now"):
            assert section in snapshot
        assert snapshot["progress"]["iterations"] == 0
        assert snapshot["progress"]["acceptance_rate"] == 0.0

    def test_begin_run_and_update(self):
        tracker = StatusTracker()
        tracker.begin_run("run-1", config={"batch": 8})
        tracker.update(phase="fuzz", legs=3)
        snapshot = tracker.snapshot()
        assert snapshot["run"]["id"] == "run-1"
        assert snapshot["run"]["config_fingerprint"] == \
            config_fingerprint({"batch": 8})
        assert snapshot["run"]["uptime_seconds"] >= 0
        assert snapshot["campaign"] == {"phase": "fuzz", "legs": 3}

    def test_folds_iteration_events(self):
        tracker = StatusTracker()
        for index in range(10):
            tracker.emit(_event(seq=index + 1, algorithm="classfuzz",
                                index=index, generated=True,
                                accepted=index % 2 == 0,
                                tests=index, pool=20 + index))
        progress = tracker.snapshot()["progress"]
        assert progress["iterations"] == 10
        assert progress["accepted"] == 5
        assert progress["acceptance_rate"] == 0.5
        assert progress["algorithm"] == "classfuzz"
        assert progress["tests"] == 9
        assert progress["pool"] == 29
        assert progress["mutants_per_second"] > 0

    def test_folds_rounds_discards_checkpoints(self):
        tracker = StatusTracker()
        tracker.emit(_event("iteration", round=3))
        tracker.emit(_event("mutant_discarded", category="inapplicable"))
        tracker.emit(_event("mutant_discarded", category="inapplicable"))
        tracker.emit(_event("checkpoint_written", index=2, iterations=100,
                            path="/tmp/cp"))
        snapshot = tracker.snapshot()
        assert snapshot["progress"]["round"] == 3
        assert snapshot["progress"]["discards"] == {"inapplicable": 2}
        assert snapshot["checkpoint"]["index"] == 2
        assert snapshot["checkpoint"]["age_seconds"] >= 0
        assert snapshot["events"]["iteration"] == 1

    def test_folds_discrepancies_and_clusters(self):
        tracker = StatusTracker()
        for index in range(12):
            tracker.emit(_event("discrepancy_found",
                                label=f"C{index}", codes=[0, 2]))
        tracker.emit(_event("triage_cluster", id="Cdeadbeef"))
        section = tracker.snapshot()["discrepancies"]
        assert section["total"] == 12
        assert len(section["recent"]) == 10  # bounded
        assert section["triage_clusters"] == 1

    def test_reads_registry_families(self):
        telemetry = Telemetry()
        registry = telemetry.registry
        registry.gauge("repro_unique_traces", "",
                       ("criterion",)).labels(criterion="tr").set(42)
        registry.counter("repro_jvm_runs_total", "", ("vendor",)) \
            .labels(vendor="hotspot9").inc(5)
        registry.counter("repro_cache_lookups_total", "",
                         ("store", "result")) \
            .labels(store="outcome", result="hit").inc(8)
        registry.counter("repro_cache_lookups_total", "",
                         ("store", "result")) \
            .labels(store="outcome", result="miss").inc(2)
        snapshot = StatusTracker(registry).snapshot()
        assert snapshot["coverage"] == {"unique_traces": {"tr": 42}}
        assert snapshot["executor"]["vendor_runs"]["hotspot9"] == 5
        assert snapshot["executor"]["caches"]["outcome"]["hit_rate"] == 0.8

    def test_snapshot_is_json_serializable(self):
        tracker = StatusTracker(Telemetry().registry)
        tracker.begin_run("r", config={"path": object()})
        tracker.emit(_event(algorithm="x", accepted=True))
        json.dumps(tracker.snapshot(), default=str)


# ---------------------------------------------------------------------------
# EventBus.dispatch (the replay path)
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_preserves_ts_and_seq(self):
        bus = EventBus()
        seen = []
        bus.add_sink(type("S", (), {"emit": lambda self, e: seen.append(e),
                                    "close": lambda self: None})())
        original = Event("iteration", 123.5, 42, {"index": 1})
        bus.dispatch(original)
        assert seen == [original]

    def test_noop_when_disabled(self):
        EventBus().dispatch(_event())  # no sinks: must not raise

    def test_interleaved_emits_stay_ordered(self):
        bus = EventBus()
        seen = []
        bus.add_sink(type("S", (), {"emit": lambda self, e: seen.append(e),
                                    "close": lambda self: None})())
        bus.dispatch(Event("iteration", 1.0, 100, {}))
        bus.emit("iteration", index=2)
        assert seen[1].seq == 101


# ---------------------------------------------------------------------------
# MonitorServer end-to-end
# ---------------------------------------------------------------------------

class TestMonitorServer:
    def test_serves_all_four_endpoints(self, seeds):
        telemetry = Telemetry()
        monitor = MonitorServer(telemetry).start()
        try:
            classfuzz(seeds, 30, criterion="tr", seed=1,
                      telemetry=telemetry)
            code, headers, body = _get(monitor.url + "/")
            assert code == 200 and b"campaign monitor" in body
            assert b"bitmap" not in body
            assert "text/html" in headers["Content-Type"]
            code, headers, body = _get(monitor.url + "/metrics")
            assert code == 200
            text = body.decode()
            assert "repro_iterations_total" in text
            assert "repro_unique_traces" in text
            from repro.observe.summary import parse_prometheus
            assert parse_prometheus(text)  # well-formed exposition
            code, _, body = _get(monitor.url + "/status")
            status = json.loads(body)
            assert status["progress"]["iterations"] == 30
            assert status["run"]["id"].startswith("classfuzz#")
            assert status["coverage"]["unique_traces"]["tr"] > 0
        finally:
            monitor.stop()

    def test_404_on_unknown_path(self):
        monitor = MonitorServer(Telemetry()).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(monitor.url + "/nope")
            assert info.value.code == 404
        finally:
            monitor.stop()

    def test_concurrent_scrapes_during_fuzzing(self, seeds):
        telemetry = Telemetry()
        monitor = MonitorServer(telemetry).start()
        errors = []
        done = threading.Event()

        def scraper(path):
            while not done.is_set():
                try:
                    code, _, body = _get(monitor.url + path, timeout=5)
                    assert code == 200 and body
                    if path == "/status":
                        json.loads(body)
                except Exception as exc:  # pragma: no cover - failure
                    errors.append(exc)
                    return

        scrapers = [threading.Thread(target=scraper, args=(path,))
                    for path in ("/metrics", "/status", "/metrics",
                                 "/status")]
        for thread in scrapers:
            thread.start()
        try:
            classfuzz(seeds, 60, criterion="tr", seed=2,
                      telemetry=telemetry)
        finally:
            done.set()
            for thread in scrapers:
                thread.join(timeout=10)
            monitor.stop()
        assert not errors

    def test_sse_connect_stream_disconnect(self, seeds):
        telemetry = Telemetry()
        monitor = MonitorServer(telemetry).start()
        try:
            sock = socket.create_connection(("127.0.0.1", monitor.port),
                                            timeout=5)
            sock.sendall(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            time.sleep(0.2)
            assert len(monitor.sse.clients()) == 1
            classfuzz(seeds, 10, criterion="tr", seed=3,
                      telemetry=telemetry)
            sock.settimeout(5)
            data = b""
            while b"\n\n" not in data or b"data: " not in data:
                data += sock.recv(65536)
            head, _, stream = data.partition(b"\r\n\r\n")
            assert b"200" in head.split(b"\r\n", 1)[0]
            assert b"text/event-stream" in head
            frame = [part for part in stream.split(b"\n\n")
                     if b"data: " in part][0]
            payload = json.loads(
                frame.split(b"data: ", 1)[1].split(b"\n", 1)[0])
            from repro.observe import EVENT_TYPES
            assert payload["type"] in EVENT_TYPES
            # Disconnect mid-campaign: the sink must notice and the
            # bus must keep emitting without error.
            sock.close()
            classfuzz(seeds, 10, criterion="tr", seed=4,
                      telemetry=telemetry)
            deadline = time.time() + 10
            while monitor.sse.clients() and time.time() < deadline:
                telemetry.emit("iteration", algorithm="poke", index=0,
                               generated=False, accepted=False,
                               tests=0, pool=0, seconds=0.0)
                time.sleep(0.05)
            assert monitor.sse.clients() == []
        finally:
            monitor.stop()

    def test_attach_status_is_idempotent(self):
        telemetry = Telemetry()
        first = telemetry.attach_status()
        monitor = MonitorServer(telemetry)
        assert monitor.tracker is first
        assert telemetry.bus.sinks.count(first) == 1
        monitor._httpd.server_close()

    def test_hot_path_unchanged_without_monitor(self, seeds):
        # The contract behind the benchmark gate: with no --serve the
        # decision stream is byte-identical to a bare run.
        plain = classfuzz(seeds, 25, criterion="tr", seed=9)
        again = classfuzz(seeds, 25, criterion="tr", seed=9)
        assert [g.label for g in plain.test_classes] == \
            [g.label for g in again.test_classes]


# ---------------------------------------------------------------------------
# Replay mode (repro monitor)
# ---------------------------------------------------------------------------

class TestReplayMode:
    def _record(self, tmp_path, seeds):
        events = tmp_path / "events.jsonl"
        telemetry = Telemetry()
        telemetry.bus.add_sink(JsonlSink(events))
        classfuzz(seeds, 20, criterion="tr", seed=5, telemetry=telemetry)
        telemetry.close()
        return events

    def test_replay_feeds_tracker_and_sse(self, tmp_path, seeds):
        from repro.observe import read_events

        events = self._record(tmp_path, seeds)
        telemetry = Telemetry()
        monitor = MonitorServer(telemetry).start()
        try:
            client = monitor.sse.register()
            for event in read_events(events):
                telemetry.bus.dispatch(event)
            snapshot = monitor.tracker.snapshot()
            assert snapshot["progress"]["iterations"] == 20
            assert client.pending() > 0
        finally:
            monitor.stop()

    def test_monitor_command_replays_and_exits(self, tmp_path, seeds,
                                               capsys):
        events = self._record(tmp_path, seeds)
        assert main(["monitor", str(events), "--port", "0",
                     "--duration", "0.2"]) == 0
        err = capsys.readouterr().err
        assert "replay mode" in err
        assert "replayed" in err

    def test_monitor_command_missing_file(self, tmp_path):
        assert main(["monitor", str(tmp_path / "nope.jsonl"),
                     "--port", "0", "--duration", "0"]) == 2

    def test_monitor_command_serves_status(self, tmp_path, seeds):
        events = self._record(tmp_path, seeds)
        # Drive the command on a thread and scrape it mid-serve.
        port_box = {}

        def run():
            port_box["code"] = main(["monitor", str(events), "--port",
                                     "0", "--speed", "0",
                                     "--duration", "5"])

        # A fixed ephemeral port isn't knowable from outside main();
        # replay through the API instead, then assert the CLI path on
        # a known port.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        thread = threading.Thread(target=lambda: port_box.update(
            code=main(["monitor", str(events), "--port", str(port),
                       "--duration", "2"])))
        thread.start()
        try:
            deadline = time.time() + 5
            status = None
            while time.time() < deadline:
                try:
                    _, _, body = _get(
                        f"http://127.0.0.1:{port}/status", timeout=1)
                    status = json.loads(body)
                    if status["progress"]["iterations"] == 20:
                        break
                except Exception:
                    time.sleep(0.05)
            assert status is not None
            assert status["run"]["id"] == f"replay:{events.name}"
            assert status["run"]["config"]["mode"] == "replay"
            assert status["progress"]["iterations"] == 20
        finally:
            thread.join(timeout=15)
        assert port_box["code"] == 0
