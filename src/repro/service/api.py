"""HTTP API + queue dashboard for the service daemon (stdlib only).

Built on the HTTP skeleton of the :mod:`repro.observe.server` monitor
(:class:`~repro.observe.server.HttpServerBase`: daemon threads,
non-blocking close, ephemeral-port support for tests;
:class:`~repro.observe.server.HttpHandlerBase`: HTTP/1.1, silent
logging, ``_send``/``_send_json``), extended with POST routes and
artifact serving.  Endpoints:

``POST /jobs``
    Submit a job spec (JSON body); 201 with the stored record.
``GET /jobs``
    Queue overview: service info + one summary row per job.
``GET /jobs/<id>``
    Full job record, queue timings, and the live ``status.json``
    snapshot of the most relevant leg.
``POST /jobs/<id>/cancel``
    Request cancellation (immediate when queued, next supervisor poll
    when running).
``GET /jobs/<id>/artifacts/``  (and any path below it)
    Browse/fetch the job directory: events logs, metric dumps, suite
    manifests, checkpoints.  Traversal-proof: paths resolving outside
    the job directory are rejected.
``GET /healthz``
    Liveness probe with the queue depth.
``GET /``
    The queue dashboard — a self-contained HTML page polling
    ``GET /jobs``, linking each job to its status document and
    artifact listing.

JSON schemas for ``/jobs`` documents are specified in
``docs/architecture.md`` next to the ``/status`` schema.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from repro.observe.server import HttpHandlerBase, HttpServerBase
from repro.service.jobs import JobError

#: Largest request body the API accepts (a job spec is tiny).
MAX_BODY_BYTES = 1 << 20

_CONTENT_TYPES = {
    ".json": "application/json",
    ".jsonl": "application/x-ndjson",
    ".prom": "text/plain; charset=utf-8",
    ".txt": "text/plain; charset=utf-8",
    ".log": "text/plain; charset=utf-8",
    ".info": "text/plain; charset=utf-8",
    ".html": "text/html; charset=utf-8",
}


class _ServiceHandler(HttpHandlerBase):
    """Routes one HTTP request to the daemon's queue operations."""

    @property
    def daemon(self):
        return self.server.owner.daemon  # type: ignore[attr-defined]

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        try:
            if path == "/":
                self._send(200, "text/html; charset=utf-8",
                           QUEUE_DASHBOARD_HTML.encode("utf-8"))
            elif path == "/healthz":
                self._send_json(200, {
                    "ok": True,
                    "queue_depth": self.daemon.store.queue_depth()})
            elif path == "/jobs":
                jobs = [job.summary()
                        for job in self.daemon.store.list_jobs()]
                self._send_json(200, {
                    "service": self.daemon.service_info(),
                    "jobs": jobs})
            else:
                job_id, rest = self._split_job_path(path)
                if job_id is None:
                    self._send_json(404, {"error": "not found"})
                elif rest is None:
                    self._send_json(200, self.daemon.job_status(job_id))
                elif rest == "artifacts" or rest.startswith("artifacts/"):
                    self._serve_artifact(
                        job_id, rest[len("artifacts"):].lstrip("/"))
                else:
                    self._send_json(404, {"error": "not found"})
        except JobError as exc:
            self._send_json(404, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client went away mid-response

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        try:
            if path == "/jobs":
                self._submit()
                return
            job_id, rest = self._split_job_path(path)
            if job_id is not None and rest == "cancel":
                job = self.daemon.cancel(job_id)
                self._send_json(200, job.summary())
            else:
                self._send_json(404, {"error": "not found"})
        except JobError as exc:
            code = 404 if "no such job" in str(exc) else 400
            self._send_json(code, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            pass

    # -- handlers ------------------------------------------------------------

    def _submit(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "missing or oversized body"})
            return
        try:
            spec = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"invalid JSON body: {exc}"})
            return
        job = self.daemon.submit(spec)  # JobError -> 400 via do_POST
        self._send_json(201, job.to_record())

    def _serve_artifact(self, job_id: str, rel: str) -> None:
        job_dir = self.daemon.store.job_dir(job_id).resolve()
        if not job_dir.is_dir():
            self._send_json(404, {"error": f"no such job {job_id!r}"})
            return
        target = (job_dir / rel).resolve() if rel else job_dir
        if target != job_dir and job_dir not in target.parents:
            self._send_json(403, {"error": "path escapes job directory"})
            return
        if target.is_dir():
            entries = sorted(
                p.name + ("/" if p.is_dir() else "")
                for p in target.iterdir()
                if not p.name.endswith(".tmp"))
            self._send_json(200, {"path": rel or ".", "entries": entries})
        elif target.is_file():
            content_type = _CONTENT_TYPES.get(
                target.suffix, "application/octet-stream")
            self._send(200, content_type, target.read_bytes())
        else:
            self._send_json(404, {"error": f"no artifact {rel!r}"})

    # -- plumbing ------------------------------------------------------------

    @staticmethod
    def _split_job_path(path: str) -> Tuple[Optional[str], Optional[str]]:
        """``/jobs/<id>[/rest...]`` -> ``(id, rest)``; else ``(None, None)``."""
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "jobs":
            rest = "/".join(parts[2:]) if len(parts) > 2 else None
            return parts[1], rest
        return None, None


class ServiceServer(HttpServerBase):
    """Serves the job-queue API for one :class:`ServiceDaemon`."""

    handler_class = _ServiceHandler

    def __init__(self, daemon, host: str = "127.0.0.1", port: int = 0):
        self.daemon = daemon
        super().__init__(host, port)


# ---------------------------------------------------------------------------
# The queue dashboard: one self-contained page, no external resources.
# Same validated dark palette as the campaign monitor (surface #1a1a19,
# series blue #3987e5 / orange #d95926, critical #e66767).
# ---------------------------------------------------------------------------

QUEUE_DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro service queue</title>
<style>
  :root { color-scheme: dark; }
  body { background: #1a1a19; color: #e8e6e3; margin: 2rem auto;
         max-width: 72rem; font: 14px/1.5 ui-monospace, monospace; }
  h1 { font-size: 1.2rem; color: #3987e5; }
  .meta { color: #8a8886; margin-bottom: 1rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: .35rem .75rem;
           border-bottom: 1px solid #2c2c2a; }
  th { color: #8a8886; font-weight: normal; }
  a { color: #3987e5; text-decoration: none; }
  a:hover { text-decoration: underline; }
  .state-queued { color: #d95926; }
  .state-running { color: #3987e5; }
  .state-done { color: #7dba5e; }
  .state-failed, .state-cancelled { color: #e66767; }
</style>
</head>
<body>
<h1>repro service queue</h1>
<div class="meta" id="meta">loading&hellip;</div>
<table>
  <thead><tr><th>job</th><th>type</th><th>state</th><th>legs</th>
  <th>current leg</th><th>age</th><th>artifacts</th></tr></thead>
  <tbody id="rows"></tbody>
</table>
<script>
function age(t, now) {
  if (!t) return "-";
  var s = Math.max(0, now - t);
  if (s < 90) return s.toFixed(0) + "s";
  if (s < 5400) return (s / 60).toFixed(1) + "m";
  return (s / 3600).toFixed(1) + "h";
}
function refresh() {
  fetch("/jobs").then(function (r) { return r.json(); }).then(function (d) {
    var now = Date.now() / 1000;
    document.getElementById("meta").textContent =
      "state root " + d.service.state_root +
      " \\u00b7 queue depth " + d.service.queue_depth +
      " \\u00b7 up " + age(now - d.service.uptime_seconds, now);
    var rows = d.jobs.map(function (j) {
      return "<tr><td><a href='/jobs/" + j.id + "'>" + j.id + "</a></td>" +
        "<td>" + j.type + "</td>" +
        "<td class='state-" + j.state + "'>" + j.state + "</td>" +
        "<td>" + j.legs_done + "/" + j.legs_total + "</td>" +
        "<td>" + (j.current_leg || "-") + "</td>" +
        "<td>" + age(j.created, now) + "</td>" +
        "<td><a href='/jobs/" + j.id + "/artifacts/'>browse</a></td></tr>";
    });
    document.getElementById("rows").innerHTML =
      rows.join("") || "<tr><td colspan=7>no jobs submitted yet</td></tr>";
  }).catch(function () {});
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
"""
