"""The embedded campaign monitor: live HTTP telemetry over stdlib only.

Any fuzz/difftest/campaign run can start a :class:`MonitorServer`
(``--serve PORT`` on the CLI) and expose four endpoints while the
campaign runs:

``GET /metrics``
    Prometheus text exposition, rendered live from the registry.
``GET /status``
    The JSON run-status snapshot assembled by
    :class:`~repro.observe.status.StatusTracker`.
``GET /events``
    The event bus as Server-Sent Events, fanned out through a
    :class:`~repro.observe.sse.SseSink` bounded queue per client —
    a stalled consumer sheds its oldest events instead of stalling
    the fuzzing hot path.
``GET /``
    A single-file, dependency-free HTML dashboard polling ``/status``
    and subscribing to ``/events``.

Overhead design: the server runs on daemon threads
(``ThreadingHTTPServer`` with ``daemon_threads``), every scrape reads
*existing* locked snapshots (registry exposition, tracker snapshot), and
without ``--serve`` none of this module is even imported by the hot
path.

The module also holds the HTTP skeleton the service API
(:mod:`repro.service.api`) shares: :class:`HttpServerBase` (the
threaded server on a daemon thread, with ``port``/``url``/``start``/
``stop``) and :class:`HttpHandlerBase` (HTTP/1.1, silent logging,
``_send``/``_send_json``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.observe.sse import SseSink
from repro.observe.status import StatusTracker
from repro.observe.telemetry import Telemetry

#: Seconds between SSE keep-alive comments on an idle stream.
SSE_HEARTBEAT_SECONDS = 5.0


class _ThreadingServer(ThreadingHTTPServer):
    """Thread-per-request server that never outlives its process."""

    daemon_threads = True
    # A live SSE stream would otherwise make ``server_close`` wait on
    # its handler thread forever; daemon threads die with the process.
    block_on_close = False
    owner: "HttpServerBase"


class HttpServerBase:
    """Serves :attr:`handler_class` from a daemon thread.

    ``port=0`` binds an ephemeral port (tests); :attr:`port`/:attr:`url`
    report the bound address.  Handlers reach the subclass instance as
    ``self.server.owner``.
    """

    handler_class: type  # an HttpHandlerBase subclass

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._httpd = _ThreadingServer((host, port), self.handler_class)
        self._httpd.owner = self
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "HttpServerBase":
        """Serve from a daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"{type(self).__name__}:{self.port}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down (in-flight handlers are daemonic)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class HttpHandlerBase(BaseHTTPRequestHandler):
    """HTTP/1.1 request plumbing shared by the monitor and service API."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # scrapes at dashboard poll rates would flood stderr

    def _send(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Access-Control-Allow-Origin", "*")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, document) -> None:
        body = json.dumps(document, sort_keys=True,
                          default=str).encode("utf-8")
        self._send(code, "application/json", body)


class _MonitorHandler(HttpHandlerBase):

    @property
    def monitor(self) -> "MonitorServer":
        return self.server.owner  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        try:
            if path == "/":
                self._send(200, "text/html; charset=utf-8",
                           DASHBOARD_HTML.encode("utf-8"))
            elif path == "/metrics":
                body = self.monitor.telemetry.render_prometheus()
                self._send(200, "text/plain; version=0.0.4; charset=utf-8",
                           body.encode("utf-8"))
            elif path == "/status":
                self._send_json(200, self.monitor.tracker.snapshot())
            elif path == "/events":
                self._serve_events()
            else:
                self._send_json(404, {"error": "not found"})
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client went away mid-response

    def _serve_events(self) -> None:
        client = self.monitor.sse.register()
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Access-Control-Allow-Origin", "*")
        self.end_headers()
        stopping = self.monitor._stopping
        try:
            while not stopping.is_set():
                event = client.get(timeout=SSE_HEARTBEAT_SECONDS)
                if event is None:
                    self.wfile.write(b": keep-alive\n\n")
                else:
                    frame = (f"event: {event.type}\n"
                             f"data: {event.to_json()}\n\n")
                    self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # disconnects are the normal way this loop ends
        finally:
            self.monitor.sse.unregister(client)


class MonitorServer(HttpServerBase):
    """Serves live telemetry for one :class:`Telemetry` bundle.

    Attaches a :class:`StatusTracker` (reusing one already attached via
    :meth:`Telemetry.attach_status`) and an :class:`SseSink` to the bus,
    then serves them over HTTP from daemon threads.
    """

    handler_class = _MonitorHandler

    def __init__(self, telemetry: Telemetry, host: str = "127.0.0.1",
                 port: int = 0):
        self.telemetry = telemetry
        self.tracker: StatusTracker = telemetry.attach_status()
        self.sse = SseSink(telemetry.registry)
        telemetry.bus.add_sink(self.sse)
        self._stopping = threading.Event()
        super().__init__(host, port)

    def stop(self) -> None:
        self._stopping.set()
        super().stop()


# ---------------------------------------------------------------------------
# The dashboard: one self-contained page, no external resources.
# Palette: validated dark set (surface #1a1a19, series blue #3987e5 /
# orange #d95926, critical #e66767); single-series sparklines carry a
# hover readout instead of a legend.
# ---------------------------------------------------------------------------

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro campaign monitor</title>
<style>
  :root {
    color-scheme: dark;
    --page: #0d0d0d;
    --surface-1: #1a1a19;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;   /* coverage */
    --series-2: #d95926;   /* acceptance */
    --critical: #e66767;   /* discrepancies */
    --good: #0ca30c;
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 20px;
    background: var(--page); color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  header { display: flex; align-items: baseline; gap: 12px;
           flex-wrap: wrap; margin-bottom: 16px; }
  header h1 { font-size: 16px; font-weight: 600; margin: 0; }
  header .meta { color: var(--text-secondary); font-size: 12px; }
  header .meta code { color: var(--muted); }
  .tiles { display: grid; gap: 12px; margin-bottom: 16px;
           grid-template-columns: repeat(auto-fit, minmax(150px, 1fr)); }
  .tile { background: var(--surface-1); border: 1px solid var(--border);
          border-radius: 8px; padding: 12px 14px; }
  .tile .label { color: var(--text-secondary); font-size: 12px; }
  .tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
  .tile .sub { color: var(--muted); font-size: 11px; margin-top: 2px; }
  .tile.alert .value { color: var(--critical); }
  .charts { display: grid; gap: 12px; margin-bottom: 16px;
            grid-template-columns: repeat(auto-fit, minmax(320px, 1fr)); }
  .chart { background: var(--surface-1); border: 1px solid var(--border);
           border-radius: 8px; padding: 12px 14px; }
  .chart h2 { font-size: 12px; font-weight: 600; margin: 0 0 2px;
              color: var(--text-secondary); }
  .chart .readout { font-size: 11px; color: var(--muted);
                    min-height: 15px; font-variant-numeric: tabular-nums; }
  canvas { width: 100%; height: 72px; display: block; margin-top: 6px; }
  .log { background: var(--surface-1); border: 1px solid var(--border);
         border-radius: 8px; padding: 12px 14px; }
  .log h2 { font-size: 12px; font-weight: 600; margin: 0 0 6px;
            color: var(--text-secondary); }
  .log ul { list-style: none; margin: 0; padding: 0;
            font: 12px/1.6 ui-monospace, SFMono-Regular, Menlo, monospace; }
  .log li { color: var(--text-secondary); white-space: nowrap;
            overflow: hidden; text-overflow: ellipsis; }
  .log li.discrepancy { color: var(--critical); }
  .log li .t { color: var(--muted); }
  #conn { font-size: 11px; }
  #conn.ok { color: var(--good); }
  #conn.bad { color: var(--critical); }
</style>
</head>
<body>
<header>
  <h1>repro campaign monitor</h1>
  <span class="meta" id="run">connecting&hellip;</span>
  <span id="conn"></span>
</header>

<div class="tiles">
  <div class="tile"><div class="label">iterations</div>
    <div class="value" id="t-iter">&ndash;</div>
    <div class="sub" id="t-round"></div></div>
  <div class="tile"><div class="label">acceptance rate</div>
    <div class="value" id="t-acc">&ndash;</div>
    <div class="sub" id="t-accn"></div></div>
  <div class="tile"><div class="label">mutants / sec</div>
    <div class="value" id="t-rate">&ndash;</div>
    <div class="sub">30s window</div></div>
  <div class="tile"><div class="label">unique traces</div>
    <div class="value" id="t-cov">&ndash;</div>
    <div class="sub">accepted suite</div></div>
  <div class="tile" id="tile-disc"><div class="label">discrepancies</div>
    <div class="value" id="t-disc">&ndash;</div>
    <div class="sub" id="t-clus"></div></div>
</div>

<div class="charts">
  <div class="chart">
    <h2>unique traces over time</h2>
    <div class="readout" id="r-cov">&nbsp;</div>
    <canvas id="c-cov"></canvas>
  </div>
  <div class="chart">
    <h2>acceptance rate over time</h2>
    <div class="readout" id="r-acc">&nbsp;</div>
    <canvas id="c-acc"></canvas>
  </div>
</div>

<div class="log">
  <h2>event stream</h2>
  <ul id="events"></ul>
</div>

<script>
"use strict";
const $ = id => document.getElementById(id);
const covSeries = [], accSeries = [], MAX_POINTS = 600;

function fmt(n) {
  if (n === null || n === undefined) return "\\u2013";
  if (n >= 1e6) return (n / 1e6).toFixed(2) + "M";
  if (n >= 1e4) return (n / 1e3).toFixed(1) + "k";
  return String(n);
}

function sparkline(canvas, readout, series, color, fmtY) {
  const dpr = window.devicePixelRatio || 1;
  const w = canvas.clientWidth, h = canvas.clientHeight;
  canvas.width = w * dpr; canvas.height = h * dpr;
  const ctx = canvas.getContext("2d");
  ctx.scale(dpr, dpr);
  ctx.clearRect(0, 0, w, h);
  const css = getComputedStyle(document.documentElement);
  ctx.strokeStyle = css.getPropertyValue("--grid").trim();
  ctx.lineWidth = 1;
  ctx.beginPath();
  ctx.moveTo(0, h - 0.5); ctx.lineTo(w, h - 0.5);
  ctx.stroke();
  if (series.length < 2) return;
  const ys = series.map(p => p.y);
  const lo = Math.min(...ys), hi = Math.max(...ys);
  const span = (hi - lo) || 1;
  const x = i => i / (series.length - 1) * (w - 4) + 2;
  const y = v => h - 4 - (v - lo) / span * (h - 10);
  ctx.strokeStyle = color;
  ctx.lineWidth = 2;
  ctx.lineJoin = "round";
  ctx.beginPath();
  series.forEach((p, i) => i ? ctx.lineTo(x(i), y(p.y))
                             : ctx.moveTo(x(i), y(p.y)));
  ctx.stroke();
  // hover readout: nearest point by x
  canvas.onmousemove = ev => {
    const rect = canvas.getBoundingClientRect();
    const i = Math.max(0, Math.min(series.length - 1, Math.round(
      (ev.clientX - rect.left - 2) / (rect.width - 4)
      * (series.length - 1))));
    const p = series[i];
    const when = new Date(p.t * 1000).toLocaleTimeString();
    readout.textContent = when + "  \\u00b7  " + fmtY(p.y);
  };
  canvas.onmouseleave = () => {
    const p = series[series.length - 1];
    readout.textContent = "latest  \\u00b7  " + fmtY(p.y);
  };
  if (readout.textContent.trim() === "") canvas.onmouseleave();
}

function push(series, t, yv) {
  const last = series[series.length - 1];
  if (last && last.t === t && last.y === yv) return;
  series.push({t: t, y: yv});
  if (series.length > MAX_POINTS) series.shift();
}

function render(s) {
  const run = s.run || {}, p = s.progress || {};
  const cov = s.coverage || {}, d = s.discrepancies || {};
  const unique = Object.values(cov.unique_traces || {});
  const uniqueMax = unique.length ? Math.max(...unique) : null;
  const label = [run.id, run.config_fingerprint ? "cfg " +
    run.config_fingerprint : "", p.algorithm ? "alg " + p.algorithm : "",
    run.uptime_seconds !== undefined ?
      "up " + Math.round(run.uptime_seconds) + "s" : ""]
    .filter(Boolean).join(" \\u00b7 ");
  $("run").textContent = label || "(no run registered)";
  $("t-iter").textContent = fmt(p.iterations);
  $("t-round").textContent = p.round ? "round " + p.round : "";
  $("t-acc").textContent = (100 * (p.acceptance_rate || 0)).toFixed(1) + "%";
  $("t-accn").textContent = fmt(p.accepted) + " accepted";
  $("t-rate").textContent = (p.mutants_per_second || 0).toFixed(1);
  $("t-cov").textContent = uniqueMax === null ? "\\u2013" : fmt(uniqueMax);
  $("t-disc").textContent = fmt(d.total || 0);
  $("t-clus").textContent = (d.triage_clusters || 0) + " clusters";
  $("tile-disc").classList.toggle("alert", (d.total || 0) > 0);
  if (uniqueMax !== null) push(covSeries, s.now, uniqueMax);
  if (p.iterations) push(accSeries, s.now,
                         +(100 * p.acceptance_rate).toFixed(2));
  sparkline($("c-cov"), $("r-cov"), covSeries,
            getComputedStyle(document.documentElement)
              .getPropertyValue("--series-1").trim(),
            v => fmt(v) + " traces");
  sparkline($("c-acc"), $("r-acc"), accSeries,
            getComputedStyle(document.documentElement)
              .getPropertyValue("--series-2").trim(),
            v => v.toFixed(2) + "%");
}

async function poll() {
  try {
    const res = await fetch("/status");
    render(await res.json());
    $("conn").textContent = "\\u25cf live";
    $("conn").className = "ok";
  } catch (err) {
    $("conn").textContent = "\\u25cf disconnected";
    $("conn").className = "bad";
  }
}
poll();
setInterval(poll, 1000);

const logList = $("events");
const source = new EventSource("/events");
source.onmessage = ev => logEvent(JSON.parse(ev.data));
["iteration", "mutant_accepted", "checkpoint_written",
 "discrepancy_found", "triage_cluster", "mutant_discarded",
 "mcmc_transition", "reduction_step"].forEach(t =>
  source.addEventListener(t, ev => logEvent(JSON.parse(ev.data))));
function logEvent(e) {
  if (e.type === "iteration" && e.seq % 25 !== 0 && !e.accepted) return;
  const li = document.createElement("li");
  if (e.type === "discrepancy_found") li.className = "discrepancy";
  const when = new Date(e.ts * 1000).toLocaleTimeString();
  const rest = Object.keys(e).filter(k =>
    ["type", "ts", "seq"].indexOf(k) < 0).slice(0, 6)
    .map(k => k + "=" + JSON.stringify(e[k])).join(" ");
  li.innerHTML = "<span class=t>" + when + " #" + e.seq + "</span> " +
    e.type + " " + rest.replace(/</g, "&lt;");
  logList.insertBefore(li, logList.firstChild);
  while (logList.children.length > 40)
    logList.removeChild(logList.lastChild);
}
</script>
</body>
</html>
"""
